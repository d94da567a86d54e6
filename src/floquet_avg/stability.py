"""Stability verdicts and signed margins for 2-DOF monodromy matrices.

For a 2x2 monodromy matrix F the multipliers are the roots of
rho^2 - tr(F) rho + det(F) = 0 and the stability conditions are
|tr F| - 1 <= det F <= 1, strict for asymptotic stability.  Both are
reported as signed margins (positive inside, zero on the boundary), so
boundary tracing reduces to scalar root finding:

    margin_trace = det(F) + 1 - |tr(F)|
    margin_det   = 1 - det(F)

Strict-versus-nonstrict cannot be resolved in floating point, so verdicts
carry an explicit Marginal band of half-width ``tolerance``.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import exactmono, pendulum
from .averaging import (
    AveragedExpansion,
    AveragedTable,
    SeriesSystem,
    det_series_terms,
    evaluate_monodromy,
)
from ._kernels import expm2_core
from .errors import ModelError, NumericRangeError
from .exactmono import exact_monodromy_pc_stack
from .ppoly import pp_average
from .smallmat import MATEXP_NORM_GUARD, as_matrix, check_norms, libm_map, roots_from_trace_det

DEFAULT_TOLERANCE = 1e-9

# the sign of eps in the pendulum's J+ and J-: J[1, 0] = omega^2 +/- eps
_SEGMENT_SIGNS = np.array([1.0, -1.0])


class Verdict(enum.Enum):
    STABLE = "stable"
    MARGINAL = "marginal"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class StabilityReport:
    trace: float
    determinant: float
    multipliers: tuple
    margin_trace: float
    margin_det: float
    verdict: Verdict
    tolerance: float


def check_tolerance(tolerance: float):
    """The half-width of the Marginal band must be a finite number >= 0."""
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ModelError(f"tolerance must be finite and >= 0, got {tolerance!r}")


def margins(trace, det):
    """(margin_trace, margin_det) from tr F and det F, scalars or arrays."""
    return det + 1.0 - abs(trace), 1.0 - det


def branch_factor(trace, det, sign):
    """1 + det F + s tr F, zero where F has the multiplier -s: s = -1 gives
    the boundary branch p (multiplier +1), s = +1 the branch n (multiplier
    -1).  Where s tr F <= 0, it is bitwise margin_trace, the smaller of the
    two factors."""
    return det + 1.0 + sign * trace


def verdict_labels(margin_trace, margin_det, tolerance: float = DEFAULT_TOLERANCE):
    """The verdict rule, elementwise over scalars or arrays of margins.

    Stable when both margins exceed the tolerance, unstable when either
    falls below -tolerance, marginal otherwise (a NaN margin included).
    """
    check_tolerance(tolerance)
    stable = (margin_trace > tolerance) & (margin_det > tolerance)
    unstable = (margin_trace < -tolerance) | (margin_det < -tolerance)
    return np.where(stable, Verdict.STABLE.value,
                    np.where(unstable, Verdict.UNSTABLE.value, Verdict.MARGINAL.value))


def report_from_trace_det(trace: float, det: float,
                          tolerance: float = DEFAULT_TOLERANCE) -> StabilityReport:
    """Build the full report from the two scalar invariants of F."""
    margin_trace, margin_det = margins(trace, det)
    return StabilityReport(
        trace=trace,
        determinant=det,
        multipliers=roots_from_trace_det(trace, det),
        margin_trace=margin_trace,
        margin_det=margin_det,
        verdict=Verdict(str(verdict_labels(margin_trace, margin_det, tolerance))),
        tolerance=tolerance,
    )


def trace_det(f):
    """tr F and det F of a 2x2 monodromy matrix or of each slice of a (K, 2, 2) stack.

    Entries must be finite, as :func:`classify` requires.  A finite F whose
    trace or determinant leaves the float range raises
    :class:`NumericRangeError`, so no overflowed cell reads as marginal.
    """
    if not np.all(np.isfinite(f)):
        raise ModelError("matrix entries must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        trace = f[..., 0, 0] + f[..., 1, 1]
        det = f[..., 0, 0] * f[..., 1, 1] - f[..., 0, 1] * f[..., 1, 0]
    return _in_range(trace, det)


def pc_monodromy(durations, mats):
    """F, tr F and det F of K piecewise-constant 2x2 systems, ``mats`` (K, S, 2, 2).

    F is the exponential product of :func:`exact_monodromy_pc_stack` and
    tr F its trace; det F is Liouville's exp(sum_s d_s tr M_s).  The
    product's own f00 f11 - f01 f10 carries a roundoff of about u ||F||^2,
    against u ||F|| for the trace, and for the inverted pendulum ||F||
    grows like exp(2 pi omega): from omega ~ 3 that roundoff is as large as
    det F itself, and from omega ~ 6 it exceeds |tr F|.
    """
    mats = np.asarray(mats, dtype=float)
    f = exact_monodromy_pc_stack(durations, mats)
    traces = mats[..., 0, 0] + mats[..., 1, 1]
    exponent = durations[0] * traces[:, 0]
    for s in range(1, len(durations)):
        exponent += durations[s] * traces[:, s]
    return (f,) + _in_range(f[:, 0, 0] + f[:, 1, 1], libm_map(math.exp, exponent))


class PendulumPC:
    """The pendulum's exact-pc monodromy at fixed ``omegas`` and ``beta``,
    prepared once: ``pc(eps, index)`` gives ``(F, tr F, det F)`` at the
    points (omegas[index], eps) broadcast against each other, in C order,
    bitwise what :func:`pc_monodromy` gives on their
    :func:`pendulum.jacobian_stack`.

    What does not depend on eps is taken once per omega: omega^2, the
    entries of pi J+ and pi J- other than pi (omega^2 +/- eps), the column
    of their 1-norms that holds no eps, and Liouville's det F =
    exp(-2 pi beta omega).  An evaluation writes the stack of pi J+/-,
    applies the overflow guard of :func:`smallmat.matexp_stack`, takes the
    exponentials in closed form (:func:`_kernels.expm2_core`) and F = E- E+.
    Its errors are the Jacobian-stack path's, for the same first failing
    point: a point's parameters are checked before omega is squared, so
    ``omegas`` and ``beta`` are checked when evaluated, not here.
    """

    def __init__(self, omegas, beta: float):
        self.omegas = np.asarray(omegas, dtype=float)
        self.beta = beta
        w2 = pendulum._squares(self.omegas)
        self._prepared = bool(np.isfinite(beta) and beta >= 0.0) and bool(
            (np.isfinite(self.omegas) & (self.omegas >= 0.0) & np.isfinite(w2)).all())
        if not self._prepared:
            return
        with np.errstate(over="ignore"):
            damping = -beta * self.omegas
            scaled = damping * math.pi
            # pi J+/- but for the entry pi (omega^2 +/- eps): 0, pi and pi J[1, 1]
            self._template = np.zeros(self.omegas.shape + (2, 2, 2))
            self._template[..., 0, 1] = math.pi
            self._template[..., 1, 1] = scaled[..., None]
            # the 1-norm's second column, |pi| + |pi J[1, 1]|, summed top to bottom
            self._column_norms = math.pi + np.abs(scaled)
            # pi tr J+ + pi tr J-, each trace J[0, 0] + J[1, 1]
            trace = 0.0 + damping
            exponent = math.pi * trace + math.pi * trace
        self._w2 = w2
        self._det = libm_map(math.exp, exponent)

    def __call__(self, eps, index=slice(None)):
        omegas = self.omegas[index]
        eps = np.asarray(eps, dtype=float)
        if not (self._prepared and (eps >= 0.0).all()):
            # raises for the first point that fails its check or whose omega
            # leaves the float range when squared
            pendulum._checked_points(omegas, eps, self.beta)
            if not self._prepared:
                return PendulumPC(omegas, self.beta)(eps)
        with np.errstate(over="ignore", invalid="ignore"):
            a10 = (self._w2[index][..., None] + eps[..., None] * _SEGMENT_SIGNS) * math.pi
            shape = a10.shape[:-1]
            a = np.empty(shape + (2, 2, 2))
            a[...] = self._template[index]
            a[..., 1, 0] = a10
            # the 1-norm's first column is |0| + |pi J[1, 0]|; an eps of inf
            # fails the guard, and the Jacobian stack's point check names it
            norms = np.maximum(np.abs(a10), self._column_norms[index][..., None])
            if not norms.max(initial=0.0) <= MATEXP_NORM_GUARD:
                check_norms(norms.ravel(), pendulum.jacobian_stack(omegas, eps, self.beta)
                            .reshape(-1, 2, 2))
            e = expm2_core(a).reshape(-1, 2, 2, 2)
            f = exactmono._in_range(np.matmul(e[:, 1], e[:, 0]))
        det = np.empty(shape)
        det[...] = self._det[index]
        return (f,) + _in_range(f[:, 0, 0] + f[:, 1, 1], det.ravel())


def _in_range(trace, det):
    """(trace, det), or :class:`NumericRangeError` where either is not finite."""
    bad = ~(np.isfinite(trace) & np.isfinite(det))
    if bad.any():
        k = int(np.argmax(bad.ravel()))
        raise NumericRangeError(
            f"the invariants of F leave the float range: tr F = {np.ravel(trace)[k]:.3g}, "
            f"det F = {np.ravel(det)[k]:.3g}")
    return trace, det


def classify(f, tolerance: float = DEFAULT_TOLERANCE) -> StabilityReport:
    """Verdict and margins for a 2x2 monodromy matrix."""
    f = as_matrix(f)
    if f.shape[0] != 2:
        raise ModelError("classification is defined for 2x2 monodromy matrices only")
    tr, det = trace_det(f)
    return report_from_trace_det(float(tr), float(det), tolerance)


def margin_exact(params: pendulum.PendulumParams) -> float:
    """Signed distance to the exact pendulum stability boundary.

    det F + 1 - |tr F| from :class:`PendulumPC`: positive inside the
    stability domain, zero on the boundary, negative outside.  This is the
    margin whose roots the exact boundary methods find, at one point.
    """
    _, trace, det = PendulumPC([params.omega], params.beta)([params.eps])
    return float(margins(trace, det)[0][0])


def monodromy_approximation(table: AveragedTable, values):
    """The order-K approximation of :func:`averaging.evaluate_monodromy`:
    ``(F, traces, det)`` at the K points whose (M, K) monomial values are
    ``values``, traces[-1] being tr F.  Every order-K margin and report ends
    here.  An approximation of F, of tr F or of det F that leaves the float
    range raises :class:`NumericRangeError`.
    """
    f, traces, det = evaluate_monodromy(table, values)
    if not np.isfinite(f).all():
        raise NumericRangeError(
            f"the order-{len(table.labels)} approximation of F leaves the float range")
    _in_range(traces[-1], det)
    return f, traces, det


def det_series(trace_j0: float, avg: AveragedExpansion) -> float:
    """Liouville-consistent determinant of the order-N approximation.

    exp(T tr J0) * exp((tr A_1 + ... + tr A_N) T), T the expansion's
    period.  The A-traces equal the averaged J-term traces, so for systems
    whose trace content stops at a computed order this is the exact
    determinant.  A determinant that leaves the float range raises
    :class:`NumericRangeError`.
    """
    total = trace_j0
    for a in avg.A:
        total += float(np.trace(a))
    try:
        return math.exp(total * avg.period)
    except OverflowError:
        raise NumericRangeError(
            f"det_series = exp({total * avg.period:.6g}) leaves the float range") from None


def det_series_expansion(trace_j0: float, avg: AveragedExpansion, order: int):
    """Graded truncation of the determinant expansion at the given order.

    det F = exp(T tr J0) * exp((tr A_1 + tr A_2 + ...) T), T the
    expansion's period, whose second factor is expanded by grade
    (:func:`averaging.det_series_terms`): the same expansion, cut at the
    same grade, as the trace partial sum an order-K boundary condition is
    solved against, so approximate-boundary root finding reproduces the
    closed-form boundary curves.  A float for one system, a (K,) array for
    a stack of K.  Order-K margins read the same terms from the coefficient
    table (:func:`averaging.evaluate_monodromy`); this is their evaluation
    at points' own A_j.
    """
    if order > avg.order:
        raise ModelError(f"requested order {order} exceeds computed order {avg.order}")
    series = 1.0
    for z in det_series_terms(avg.A, avg.period, order):
        series = series + z[..., 0, 0]
    det = math.exp(trace_j0 * avg.period) * series
    return float(det) if np.ndim(det) == 0 else det


def trace_identity_residuals(sys: SeriesSystem, avg: AveragedExpansion) -> list[float]:
    """|tr(A_j) - (1/T) integral tr(J_j)| for each computed order.

    The identity holds in any dimension for every j >= 1; a violation
    points at a broken recursion or a mis-graded input.
    """
    out = []
    for j, a in enumerate(avg.A, start=1):
        if j <= len(sys.terms):
            avg_j = pp_average(sys.terms[j - 1])
            expect = float(np.trace(avg_j))
        else:
            expect = 0.0
        out.append(abs(float(np.trace(a)) - expect))
    return out

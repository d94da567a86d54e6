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

from . import pendulum
from .averaging import det_series_terms
from ._kernels import expm2_scalars
from .errors import ModelError, NumericRangeError
from .exactmono import exact_monodromy_pc_stack
from .smallmat import MATEXP_NORM_GUARD, _in_range, as_matrix, libm_map, roots_from_trace_det

DEFAULT_TOLERANCE = 1e-9

# the sign of eps in the pendulum's J+ and J-: J[1, 0] = omega^2 +/- eps
_SEGMENT_SIGNS = np.array([1.0, -1.0])
# half the bound on |F_ij| up to which an exact-pc point takes the closed form
_ENTRY_BOUND = 1e300


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
    """The pendulum's exact-pc invariants at fixed ``omegas`` and ``beta``,
    prepared once: ``pc(index, eps)`` gives ``(tr F, det F)`` and
    ``pc.monodromy(index, eps)`` ``(F, tr F, det F)`` at the points
    (omegas[index], eps) broadcast against each other, in C order.

    exp(pi J+/-) = C I + S N with N traceless (:func:`_kernels.expm2_scalars`),
    so F = E- E+ has tr F = 2 C+ C- + S+ S- tr(N- N+): the damped Meissner
    equation's Hill discriminant.  What does not depend on eps is taken once
    per omega: omega^2, the half-trace mu and half-difference b of pi J's
    diagonal, b^2, the 1-norm column of pi J+/- that holds no eps,
    tr(N- N+) = 2 b^2 + 2 pi^2 omega^2 and Liouville's det F.  ``monodromy``
    forms E+/- from C and S as :func:`_kernels.expm2_core` does: its F is
    bitwise :func:`pc_monodromy`'s.

    A point takes the closed form where it is valid, its 1-norms n+/- of
    pi J+/- are within the overflow guard of :func:`smallmat.matexp_stack`
    and |F_ij| <= 2 (|C+| + |S+| n+) (|C-| + |S-| n-) is at most
    2 ``_ENTRY_BOUND``: there F and tr F are finite.  Every other point
    takes :func:`pc_monodromy` on its own Jacobian stack, which raises the
    first failing point's own error, so a point's value depends on it alone.
    """

    def __init__(self, omegas, beta: float):
        self.omegas = np.asarray(omegas, dtype=float)
        self.beta = beta
        w2 = pendulum._squares(self.omegas)
        valid = (np.isfinite(self.omegas) & (self.omegas >= 0.0) & np.isfinite(w2)
                 & bool(math.isfinite(beta) and beta >= 0.0))
        with np.errstate(over="ignore", invalid="ignore"):
            damping = -beta * self.omegas
            # pi J+/- has a00 = 0, a01 = pi, a10 = pi (omega^2 +/- eps), a11 = scaled
            scaled = damping * math.pi
            b = 0.5 * (0.0 - scaled)
            # pi tr J+ + pi tr J-, each trace J[0, 0] + J[1, 1]
            trace = 0.0 + damping
            exponent = math.pi * trace + math.pi * trace
            # per omega: omega^2; the 1-norm's second column, |pi| + |pi J[1, 1]|
            # summed top to bottom, NaN at an invalid point so that the point
            # fails every bound; mu; b; b^2; tr(N- N+); and det F
            self._constants = np.stack((
                w2, np.where(valid, math.pi + np.abs(scaled), np.nan), 0.5 * (0.0 + scaled),
                b, b * b, 2.0 * (b * b) + 2.0 * math.pi * math.pi * w2,
                libm_map(math.exp, exponent)), axis=-1)

    def __call__(self, index, eps):
        return self._evaluate(index, eps, False)[1:]

    def monodromy(self, index, eps):
        return self._evaluate(index, eps, True)

    def _evaluate(self, index, eps, matrices: bool):
        eps = np.asarray(eps, dtype=float)
        w2, column_norms, mu, b, b2, trace_nn, det_f = self._constants[index].T
        f = None
        with np.errstate(all="ignore"):
            a10 = (w2[..., None] + eps[..., None] * _SEGMENT_SIGNS) * math.pi
            # the 1-norm's first column is |0| + |pi J[1, 0]|; for eps >= 0,
            # |omega^2 - eps| <= omega^2 + eps, so pi J+ has the larger 1-norm
            norms = np.maximum(np.abs(a10), column_norms[..., None])
            c, s = expm2_scalars(mu[..., None], b2[..., None] + math.pi * a10)
            trace = 2.0 * c[..., 0] * c[..., 1] + s[..., 0] * s[..., 1] * trace_nn
            entry = np.abs(c) + np.abs(s) * norms
            fast = ((norms[..., 0] <= MATEXP_NORM_GUARD) & (eps >= 0.0)
                    & (entry[..., 0] * entry[..., 1] <= _ENTRY_BOUND))
            if matrices:
                sb = s * b[..., None]
                e = np.stack((c + sb, s * math.pi, s * a10, c - sb), axis=-1).reshape(-1, 2, 2, 2)
                f = np.matmul(np.ascontiguousarray(e[:, 1]), np.ascontiguousarray(e[:, 0]))
        det = np.empty(trace.shape)
        det[...] = det_f
        trace, det = trace.ravel(), det.ravel()
        slow = (~fast).ravel().nonzero()[0]
        if slow.size:
            omegas, eps = (np.broadcast_to(x, fast.shape).ravel()[slow]
                           for x in (self.omegas[index], eps))
            f_slow, trace[slow], det[slow] = pc_monodromy(
                pendulum.HALF_PERIODS, pendulum.jacobian_stack(omegas, eps, self.beta))
            if matrices:
                f[slow] = f_slow
        return f, trace, det


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
    trace, det = PendulumPC([params.omega], params.beta)(slice(None), [params.eps])
    return float(margins(trace, det)[0][0])


def det_series(trace_j0: float, a_list, period: float) -> float:
    """Liouville-consistent determinant of the order-N approximation.

    exp(T tr J0) * exp((tr A_1 + ... + tr A_N) T) of the (n, n) A_n in
    ``a_list``, T the period.  The A-traces equal the averaged J-term
    traces, so for systems whose trace content stops at a computed order
    this is the exact determinant.  A determinant that leaves the float range raises
    :class:`NumericRangeError`.
    """
    total = trace_j0
    for a in a_list:
        total += float(np.trace(a))
    try:
        return math.exp(total * period)
    except OverflowError:
        raise NumericRangeError(
            f"det_series = exp({total * period:.6g}) leaves the float range") from None


def det_series_expansion(trace_j0: float, a_list, period: float, order: int):
    """Graded truncation of the determinant expansion at the given order.

    det F = exp(T tr J0) * exp((tr A_1 + tr A_2 + ...) T) of the A_n in
    ``a_list``, T the period, whose second factor is expanded by grade
    (:func:`averaging.det_series_terms`): the same expansion, cut at the
    same grade, as the trace partial sum an order-K boundary condition is
    solved against, so approximate-boundary root finding reproduces the
    closed-form boundary curves.  A float for (n, n) A_n, a (K,) array for
    (K, n, n) stacks.  Order-K margins read the same terms from the
    coefficient table (:func:`averaging.evaluate_monodromy`); this is their
    evaluation at points' own A_j.
    """
    if order > len(a_list):
        raise ModelError(f"requested order {order} exceeds computed order {len(a_list)}")
    series = 1.0
    for z in det_series_terms(a_list, period, order):
        series = series + z[..., 0, 0]
    det = math.exp(trace_j0 * period) * series
    return float(det) if np.ndim(det) == 0 else det

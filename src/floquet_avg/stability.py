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
from .averaging import (
    AveragedExpansion,
    SeriesSystem,
    assemble_monodromy,
    graded_exp_terms,
    run_recursion,
    standard_form,
)
from .errors import ModelError, NumericRangeError
from .exactmono import exact_monodromy_pc_stack
from .ppoly import pp_average
from .smallmat import as_matrix, roots_from_trace_det

DEFAULT_TOLERANCE = 1e-9


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


def pc_trace_det(durations, mats):
    """tr F and det F of K piecewise-constant 2x2 systems, ``mats`` (K, S, 2, 2).

    tr F comes from the exponential product of
    :func:`exact_monodromy_pc_stack`; det F is Liouville's
    exp(sum_s d_s tr M_s).  The product's own f00 f11 - f01 f10 carries a
    roundoff of about u ||F||^2, against u ||F|| for the trace, and for the
    inverted pendulum ||F|| grows like exp(2 pi omega): from omega ~ 6 that
    roundoff exceeds |tr F| itself.  These are the invariants of every
    exact-pc scan cell and exact boundary margin.
    """
    mats = np.asarray(mats, dtype=float)
    f = exact_monodromy_pc_stack(durations, mats)
    traces = mats[..., 0, 0] + mats[..., 1, 1]
    exponent = durations[0] * traces[:, 0]
    for s in range(1, len(durations)):
        exponent += durations[s] * traces[:, s]
    # math.exp, not np.exp: numpy's vectorised exp can differ in the last bit
    det = np.array([math.exp(x) for x in exponent.tolist()])
    return _in_range(f[:, 0, 0] + f[:, 1, 1], det)


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

    det F + 1 - |tr F| from :func:`pc_trace_det`: positive inside the
    stability domain, zero on the boundary, negative outside.  This is the
    margin whose roots the exact boundary methods find, at one point.
    """
    jac = pendulum.jacobian_stack([params.omega], [params.eps], params.beta)
    return float(margins(*pc_trace_det(pendulum.HALF_PERIODS, jac))[0][0])


def order_approximation(sys: SeriesSystem, order: int):
    """The order-K averaged approximation of a series system, or of a stack.

    Standard form, averaging recursion, monodromy assembly and the graded
    determinant truncation of :func:`det_series_expansion`; returns
    ``(avg, mono, det)``.  Every order-K margin and report starts here.
    A finite system whose approximation of F, of tr F (the sum of
    ``mono.trace_by_order``) or of det F leaves the float range raises
    :class:`NumericRangeError`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x0, h_terms = standard_form(sys)
        avg = run_recursion(h_terms, sys.period, order)
        mono = assemble_monodromy(x0, avg, sys.period)
        det = det_series_expansion(sys, avg, order)
        trace = sum(mono.trace_by_order)
    if not np.isfinite(mono.partial_sums[-1]).all():
        raise NumericRangeError(f"the order-{order} approximation of F leaves the float range")
    _in_range(trace, det)
    return avg, mono, det


def det_series(sys: SeriesSystem, avg: AveragedExpansion) -> float:
    """Liouville-consistent determinant of the order-N approximation.

    exp(T tr J0) * exp((tr A_1 + ... + tr A_N) T).  The A-traces equal the
    averaged J-term traces, so for systems whose trace content stops at a
    computed order this is the exact determinant.
    """
    t = sys.period
    total = float(np.trace(sys.J0))
    for a in avg.A:
        total += float(np.trace(a))
    return math.exp(total * t)


def det_series_expansion(sys: SeriesSystem, avg: AveragedExpansion, order: int):
    """Graded truncation of the determinant expansion at the given order.

    det F = exp(T tr J0) * exp((tr A_1 + tr A_2 + ...) T), whose second
    factor is expanded by grade with :func:`averaging.graded_exp_terms`
    applied to the 1x1 matrices tr A_j: the same expansion, cut at the same
    grade, as the trace partial sum an order-K boundary condition is solved
    against, so approximate-boundary root finding reproduces the
    closed-form boundary curves.  A float for one system, a (K,) array for
    a stack of K.
    """
    if order > avg.order:
        raise ModelError(f"requested order {order} exceeds computed order {avg.order}")
    # the T is folded into the traces, so the grade-m scale 1/m! is exact
    # through m = 2 and orders 1 and 2 multiply out as (tr A_1 T)(tr A_1 T) / 2
    t = sys.period
    traces = [(np.trace(a, axis1=-2, axis2=-1) * t)[..., None, None] for a in avg.A[:order]]
    series = 1.0
    for z in graded_exp_terms(traces, 1.0, order):
        series = series + z[..., 0, 0]
    det = math.exp(float(np.trace(sys.J0)) * t) * series
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

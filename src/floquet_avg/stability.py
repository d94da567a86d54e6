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
from .averaging import AveragedExpansion, SeriesSystem
from .errors import ModelError
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

    Entries must be finite, as :func:`classify` requires.
    """
    if not np.all(np.isfinite(f)):
        raise ModelError("matrix entries must be finite")
    return (f[..., 0, 0] + f[..., 1, 1],
            f[..., 0, 0] * f[..., 1, 1] - f[..., 0, 1] * f[..., 1, 0])


def classify(f, tolerance: float = DEFAULT_TOLERANCE) -> StabilityReport:
    """Verdict and margins for a 2x2 monodromy matrix."""
    f = as_matrix(f)
    if f.shape[0] != 2:
        raise ModelError("classification is defined for 2x2 monodromy matrices only")
    tr, det = trace_det(f)
    return report_from_trace_det(float(tr), float(det), tolerance)


def margin_exact(params: pendulum.PendulumParams) -> float:
    """Signed distance to the exact pendulum stability boundary.

    exp(-2*pi*beta*omega) + 1 - |tr(exp(pi J-) exp(pi J+))|: positive
    inside the stability domain, zero on the boundary, negative outside.
    The determinant is the closed form, the trace comes from the
    exponential-product monodromy.  This is the one-point case of
    :func:`margin_exact_stack`.
    """
    return float(margin_exact_stack([params.omega], [params.eps], params.beta)[0])


def margin_exact_stack(omegas, epss, beta: float) -> np.ndarray:
    """:func:`margin_exact` at K points (omega_k, eps_k), in one batch."""
    f = exact_monodromy_pc_stack(pendulum.HALF_PERIODS,
                                 pendulum.jacobian_stack(omegas, epss, beta))
    # math.exp, not np.exp: numpy's vectorised exp can differ in the last bit
    det = np.array([math.exp(-2.0 * math.pi * beta * w)
                    for w in np.asarray(omegas, dtype=float).tolist()])
    return margins(f[:, 0, 0] + f[:, 1, 1], det)[0]


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


def det_series_expansion(sys: SeriesSystem, avg: AveragedExpansion,
                         order: int | None = None):
    """Graded truncation of the determinant expansion at the given order.

    Expands exp(sum_j tr(A_j) T) as a power series in the grading
    parameter and keeps terms of grade <= order; the J0 factor
    exp(T tr J0) is grade 0 and multiplies the whole truncation.  This is
    the determinant an order-K boundary condition is solved against (the
    trace partial sum is truncated the same way), so approximate-boundary
    root finding reproduces the closed-form boundary curves.  A float for
    one system, a (K,) array for a stack of K.
    """
    if order is None:
        order = avg.order
    if order > avg.order:
        raise ModelError(f"requested order {order} exceeds computed order {avg.order}")
    t = sys.period
    lead = np.shape(avg.A[0])[:-2]
    # scalar graded series per cell: coeff[..., j] = tr(A_j) * T for j >= 1
    coeff = np.zeros(lead + (order + 1,))
    for j, a in enumerate(avg.A[:order], start=1):
        coeff[..., j] = np.trace(a, axis1=-2, axis2=-1) * t
    series = np.zeros(lead + (order + 1,))
    series[..., 0] = 1.0
    power = series.copy()
    for m in range(1, order + 1):
        nxt = np.zeros(lead + (order + 1,))
        for i in range(order):
            # a zero power[i] adds +-0.0, which leaves each finite sum as it is
            nxt[..., i + 1:] += power[..., i, None] * coeff[..., 1:order + 1 - i]
        power = nxt
        series += power / math.factorial(m)
    det = math.exp(float(np.trace(sys.J0)) * t) * series.sum(axis=-1)
    return float(det) if det.ndim == 0 else det


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

"""Parameter-space exploration for the damped-Meissner pendulum.

Stability bitmaps over (omega, eps) grids, boundary extraction by a
bracketing root finder (the Illinois method) on a scalar margin, and
exact-versus-approximate boundary comparison tables.  Every method runs
batched: a whole exact-pc grid is one stack of matrix exponentials, a
whole exact-rk grid one RK4 integration of a stack of systems, a whole
order-K grid one evaluation of the pendulum's averaged coefficient table
(the averaging recursion and the monodromy assembly run once per order per
process, on the parameters' monomials, so an order-K cell is its monomial
values times tabulated coefficients), and boundary samples find their
roots in lockstep, one batched margin call per step.  Every point still
gets the arithmetic it would get alone, so results do not depend on the
batch.  All of it is single-threaded.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import averaging, pendulum, stability
from .errors import BracketError, FloquetError, ModelError
from .exactmono import RK_STEPS_DEFAULT, exact_monodromy_rk, pc_stack_to_ppoly
from .stability import StabilityReport

EXACT_METHODS = ("exact-pc", "exact-rk")
ORDER_METHODS = tuple(f"order{k}" for k in range(1, averaging.MAX_ORDER + 1))

# exact-boundary brackets are seeded from the order-4 prediction +/-30%
_BRACKET_REL = 0.30
# the sign s of the factor 1 + det F + s tr F whose zero is branch p, n
_BRANCH_SIGNS = np.array([-1.0, 1.0])


def axis_samples(axis) -> np.ndarray:
    lo, hi, count = axis
    if count < 2 or not lo < hi:
        raise ModelError(f"axis needs count >= 2 and min < max, got {axis!r}")
    return np.linspace(lo, hi, int(count))


def range_samples(rng) -> np.ndarray:
    """Like axis_samples but a single-point range (count 1) is allowed; an
    array is taken as the samples themselves."""
    if isinstance(rng, np.ndarray):
        return np.asarray(rng, dtype=float)
    lo, hi, count = rng
    if count == 1 and lo == hi:
        return np.array([float(lo)])
    return axis_samples(rng)


@dataclass(frozen=True)
class ScanGrid:
    """Verdict bitmap plus margins over an (omega, eps) grid.

    The grid arrays are indexed [eps_index, omega_index] (eps-major,
    matching the CSV row order), the sample arrays being its axes.
    """

    omega_samples: np.ndarray
    eps_samples: np.ndarray
    beta: float
    method: str
    verdicts: np.ndarray
    margin_trace: np.ndarray
    margin_det: np.ndarray


def order_of_method(method: str) -> Optional[int]:
    if method in ORDER_METHODS:
        return int(method[len("order"):])
    return None


def _order_invariants(omegas, epss, beta: float, order: int):
    """Order-K tr F and truncated det F at K points: the pendulum's
    coefficient table at their monomial values, the K points as one stack."""
    _, traces, det = stability.monodromy_approximation(
        pendulum.averaged_table(order), pendulum.monomial_values(omegas, epss, beta, order))
    return traces[-1], det


def _batched_invariants(method: str, omegas, epss, beta: float):
    """(tr F, det F) at the K points of ``omegas`` and ``epss`` broadcast
    against each other (:func:`pendulum.jacobian_stack`) for any scan
    method, the K points as one stack."""
    if method == "exact-pc":
        # the per-omega parts are taken once and broadcast against epss
        return stability.PendulumPC(omegas, beta)(epss)[1:]
    if method == "exact-rk":
        j = pc_stack_to_ppoly(pendulum.PERIOD, pendulum.HALF_PERIODS,
                              pendulum.jacobian_stack(omegas, epss, beta))
        return stability.trace_det(exact_monodromy_rk(j, RK_STEPS_DEFAULT))
    order = order_of_method(method)
    if order is None:
        raise ModelError(f"unknown method {method!r}")
    return _order_invariants(omegas, epss, beta, order)


def _first_error(batch, item, count: int):
    """``batch()``: items 0..count-1 evaluated as one batch.

    Items fail independently: when the batch raises, ``item(k)`` reruns the
    items one at a time, so the error raised is the first failing item's
    own, as an item-by-item loop would raise it.
    """
    try:
        return batch()
    except FloquetError:
        for k in range(count):
            item(k)
        raise


def point_report(omega: float, eps: float, beta: float, method: str,
                 tolerance: float = stability.DEFAULT_TOLERANCE) -> StabilityReport:
    """Classify one parameter point with the requested method: the
    one-point case of the batched grid evaluation."""
    params = pendulum.PendulumParams(omega, eps, beta)
    trace, det = _batched_invariants(method, [params.omega], [params.eps], beta)
    return stability.report_from_trace_det(float(trace[0]), float(det[0]), tolerance)


def scan_region(omega_axis, eps_axis, beta: float, method: str,
                tolerance: float = stability.DEFAULT_TOLERANCE) -> ScanGrid:
    """Stability verdict for every grid point, the whole grid as one batch."""
    omegas = axis_samples(omega_axis)
    epss = axis_samples(eps_axis)
    if method not in EXACT_METHODS and order_of_method(method) is None:
        raise ModelError(f"unknown method {method!r}")
    stability.check_tolerance(tolerance)
    shape = (epss.size, omegas.size)
    # the omega row broadcasts against the eps column, cells eps-major, so
    # per-omega work (omega**2) is done once per omega sample
    trace, det = _first_error(
        lambda: _batched_invariants(method, omegas, epss[:, None], beta),
        lambda k: _batched_invariants(method, omegas[k % shape[1], None],
                                      epss[k // shape[1], None], beta),
        epss.size * omegas.size)
    margin_trace, margin_det = stability.margins(trace.reshape(shape), det.reshape(shape))
    verdicts = stability.verdict_labels(margin_trace, margin_det, tolerance)
    return ScanGrid(omegas, epss, beta, method, verdicts, margin_trace, margin_det)


def _resolve_threads(threads=None) -> int:
    """The scan's thread count: 1, since it runs single-threaded.  Kept
    because the benchmark (``perfbench/worker.py`` and ``perfbench/tracer.py``)
    reads the scan's thread count from this function."""
    return 1


EXACT_BOUNDARY_METHODS = ("exact", "exact-pc")


def _margin_stack(omegas, beta: float, method: str, signs=None):
    """margin(index, eps): the boundary margins of samples ``index`` (at
    ``omegas[index]``) evaluated at ``eps``, in one batch.

    The margin is det F + 1 - |tr F| of the method's monodromy invariants,
    a scan cell's margin_trace, or given ``signs`` each sample's
    :func:`stability.branch_factor`, which equals it near the branch's
    root.  The exact boundary methods use the invariants of exact-pc cells,
    prepared once for ``omegas`` (:class:`stability.PendulumPC`).
    """
    if method in EXACT_BOUNDARY_METHODS:
        pc = stability.PendulumPC(omegas, beta)

        def invariants(index, eps):
            return pc(eps, index)[1:]
    elif order_of_method(method) is None:
        raise ModelError(f"unknown method {method!r}")
    else:
        def invariants(index, eps):
            return _batched_invariants(method, omegas[index], eps, beta)

    def margin(index, eps):
        trace, det = invariants(index, eps)
        if signs is None:
            return stability.margins(trace, det)[0]
        return stability.branch_factor(trace, det, signs[index])

    return margin


def _check_tol(tol: float, lo, hi):
    """A root tolerance must be positive and resolvable at every bracket."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ModelError(f"tol must be finite and > 0, got {tol!r}")
    spacing = np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
    if (tol < spacing).any():
        k = int(np.argmax(tol < spacing))
        raise ModelError(f"tol {tol:g} is below the float spacing {spacing[k]:.3g} "
                         f"at the bracket [{lo[k]:.17g}, {hi[k]:.17g}]")


def _bisect(margin, lo, hi, tol: float):
    """Find K roots in lockstep by the Illinois method, with one
    ``margin(index, eps)`` call per step.

    Each sample steps to the secant point of its own bracket, clipped to
    lie at least tol/2 inside it, and keeps the part whose ends differ in
    sign; an end kept twice in a row has its margin halved in the secant
    (the Illinois rule; Dowell and Jarratt, BIT 11, 1971).  A sample
    bisects instead where the secant point is not finite or, clipped, not
    strictly inside the bracket, and once it has taken the steps bisection
    would need, so it never takes more than twice as many.  A zero margin
    at an end or an iterate is the root; otherwise a sample stops when its
    bracket is no wider than ``tol`` or its midpoint equals an end, and the
    root is the bracket's midpoint.  The iterates depend only on the
    sample's own bracket, so the roots do not depend on which samples share
    the batch.  Returns the roots, NaN where the end margins have the same
    sign, and the margins at the lower and upper ends.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    _check_tol(tol, lo, hi)
    # both ends in one call, in the order a sample-by-sample search meets them
    ends = margin(np.repeat(np.arange(lo.size), 2), np.stack((lo, hi), axis=1).ravel())
    m_lo, m_hi = ends[0::2], ends[1::2]
    root = np.where(m_lo == 0.0, lo, np.where(m_hi == 0.0, hi, np.nan))
    bracketed = np.isnan(root) & ((m_lo < 0.0) != (m_hi < 0.0))
    # the end margins the secant uses, halved by the Illinois rule
    f_lo, f_hi = m_lo.copy(), m_hi.copy()
    # the end each sample moved last: -1 the lower, +1 the upper, 0 none yet
    moved = np.zeros(lo.size, dtype=int)
    # the steps bisection would take, ceil(log2(width / tol)), read off the
    # binary exponent so that it is exact; past them a sample bisects
    frac, expo = np.frexp((hi - lo) / tol)
    budget = np.where(frac == 0.5, expo - 1, expo)
    steps = 0
    live = np.flatnonzero(bracketed)
    while True:
        live = live[hi[live] - lo[live] > tol]
        a, b = lo[live], hi[live]
        mid = 0.5 * (a + b)
        moving = (mid != a) & (mid != b)
        live, a, b, mid = live[moving], a[moving], b[moving], mid[moving]
        if live.size == 0:
            break
        fa, fb = f_lo[live], f_hi[live]
        with np.errstate(all="ignore"):
            x = b - fb * (b - a) / (fb - fa)
        secant = np.isfinite(x) & (steps < budget[live])
        x = np.minimum(np.maximum(x, a + 0.5 * tol), b - 0.5 * tol)
        x = np.where(secant & (a < x) & (x < b), x, mid)
        m_x = margin(live, x)
        steps += 1
        hit = m_x == 0.0
        root[live[hit]] = x[hit]
        lower = ~hit & ((m_x < 0.0) == (m_lo[live] < 0.0))
        upper = ~hit & ~lower
        down, up = live[lower], live[upper]
        # Illinois: the end kept a second time in a row counts half
        f_hi[down[moved[down] == -1]] *= 0.5
        f_lo[up[moved[up] == 1]] *= 0.5
        lo[down], f_lo[down], moved[down] = x[lower], m_x[lower], -1
        hi[up], f_hi[up], moved[up] = x[upper], m_x[upper], 1
        live = live[~hit]
    rest = bracketed & np.isnan(root)
    root[rest] = 0.5 * (lo[rest] + hi[rest])
    return root, m_lo, m_hi


def bisect_boundary(omega: float, beta: float, eps_bracket, method: str,
                    tol: float = 1e-10) -> float:
    """Root of the margin det F + 1 - |tr F| in a bracket that straddles a
    sign change.

    The one-sample case of the lockstep root finder :func:`_bisect`, so
    its root is bitwise the one a batch gives.  The root finder is the
    Illinois method, not bisection; the name stays because the benchmark
    tracer (``perfbench/tracer.py``) looks this function up by it.
    """
    lo, hi = float(eps_bracket[0]), float(eps_bracket[1])
    if not lo < hi:
        raise ModelError(f"bad bracket {eps_bracket!r}")
    margin = _margin_stack(np.array([float(omega)]), beta, method)
    root, m_lo, m_hi = _bisect(margin, [lo], [hi], tol)
    if math.isnan(root[0]):
        raise BracketError(lo, hi, float(m_lo[0]), float(m_hi[0]))
    return float(root[0])


@dataclass(frozen=True)
class BoundaryCurve:
    branch: str
    method: str
    points: tuple  # ((omega, eps), ...) with omega strictly increasing
    omitted: int = 0


def trace_boundary(omega_range, beta: float, branch: str, method: str,
                   tol: float = 1e-10) -> BoundaryCurve:
    """First-domain boundary curve over an omega range.

    An order method takes every sample's root from :func:`pendulum.order_roots`
    in one pass; exact methods find the root of the branch's exact factor
    inside a bracket seeded by the order-4 root, all samples in lockstep.
    Samples whose branch vanishes or whose bracket shows no sign change are
    omitted.  ``tol`` is checked for every method.
    """
    if branch not in ("p", "n"):
        raise ModelError(f"branch must be 'p' or 'n', got {branch!r}")
    omegas = range_samples(omega_range)
    exact = method in EXACT_BOUNDARY_METHODS
    # the order-4 roots seed the exact brackets
    order = order_of_method("order4" if exact else method)
    if order is None:
        raise ModelError(f"unknown boundary method {method!r}")
    eps = pendulum.order_roots(omegas, beta, order, branch)[0, 0]
    if exact:
        sign = _BRANCH_SIGNS["pn".index(branch)]
        eps = _exact_samples(omegas, beta, np.full(omegas.size, sign), eps, tol)
    else:
        _check_tol(tol, (), ())  # a polynomial root has no bracket to resolve
    points = tuple((omega, e) for omega, e in zip(omegas.tolist(), eps.tolist())
                   if not math.isnan(e))
    return BoundaryCurve(branch, method, points, omegas.size - len(points))


def _exact_samples(omegas, beta: float, signs, seeds, tol: float) -> np.ndarray:
    """Exact first-domain boundary eps per sample, NaN where it is omitted.

    Sample k at ``omegas[k]`` finds the root of its branch factor, sign
    ``signs[k]``, inside its order-4 root ``seeds[k]`` +/-30% (NaN where
    the order-4 branch vanishes); the bracketed samples find their roots in
    lockstep.  One branch's factor does not vanish on the other branch, so
    a bracket that reaches past it needs no clip there.
    """

    def run(index):
        lo = (1.0 - _BRACKET_REL) * seeds[index]
        hi = (1.0 + _BRACKET_REL) * seeds[index]
        held = lo < hi
        margin = _margin_stack(omegas[index[held]], beta, "exact", signs[index[held]])
        eps = np.full(index.size, np.nan)
        eps[held] = _bisect(margin, lo[held], hi[held], tol)[0]
        return eps

    return _first_error(lambda: run(np.arange(omegas.size)), lambda k: run(np.array([k])),
                        omegas.size)


@dataclass(frozen=True)
class ComparisonRow:
    omega: float
    branch: str
    eps_exact: Optional[float]
    eps_order2: Optional[float]
    eps_order4: Optional[float]

    @property
    def err2(self) -> Optional[float]:
        if self.eps_exact is None or self.eps_order2 is None:
            return None
        return abs(self.eps_order2 - self.eps_exact)

    @property
    def err4(self) -> Optional[float]:
        if self.eps_exact is None or self.eps_order4 is None:
            return None
        return abs(self.eps_order4 - self.eps_exact)


@dataclass(frozen=True)
class ComparisonTable:
    beta: float
    rows: tuple

    def branch_rows(self, branch: str):
        return [r for r in self.rows if r.branch == branch]


def compare_boundaries(omega_range, beta: float, tol: float = 1e-10) -> ComparisonTable:
    """Exact vs order-2 vs order-4 first-domain boundaries per branch."""
    omegas = range_samples(omega_range)
    # one order-4 pass seeds both branches' brackets and fills eps_order4
    order4 = pendulum.order_roots(omegas, beta, 4)[:, 0].ravel()
    branches = ["p"] * omegas.size + ["n"] * omegas.size
    exact = _exact_samples(np.tile(omegas, 2), beta, np.repeat(_BRANCH_SIGNS, omegas.size),
                           order4, tol)
    order2 = pendulum.order_roots(omegas, beta, 2)[:, 0].ravel()
    rows = []
    for branch, omega, eps2, eps4, eps_exact in zip(branches, np.tile(omegas, 2).tolist(),
                                                    order2.tolist(), order4.tolist(),
                                                    exact.tolist()):
        rows.append(ComparisonRow(
            omega=omega,
            branch=branch,
            eps_exact=None if math.isnan(eps_exact) else eps_exact,
            eps_order2=None if math.isnan(eps2) else eps2,
            eps_order4=None if math.isnan(eps4) else eps4,
        ))
    return ComparisonTable(beta, tuple(rows))

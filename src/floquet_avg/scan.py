"""Parameter-space exploration for the damped-Meissner pendulum.

Stability bitmaps over (omega, eps) grids, boundary extraction by a
safeguarded Newton method on a scalar margin and its slope, and
exact-versus-approximate boundary comparison tables.  Every method is
prepared once per command (:func:`_invariants`) and runs batched: a whole
exact-pc grid is one closed-form evaluation of tr F (the Hill
discriminant of :class:`stability.PendulumPC`), a whole exact-rk grid one
RK4 integration of the cells' Jacobians as one bare coefficient stack
(:func:`exactmono.exact_monodromy_rk_stack`), a whole order-K grid one
evaluation of the pendulum's averaged coefficient table (the averaging
recursion and the monodromy assembly run once per order per process, on
the parameters' monomials, so an order-K cell is its monomial values times
tabulated coefficients), and boundary samples find their
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
from .exactmono import RK_STEPS_DEFAULT, exact_monodromy_rk_stack
from .stability import StabilityReport

EXACT_METHODS = ("exact-pc", "exact-rk")
EXACT_BOUNDARY_METHODS = ("exact", "exact-pc")
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


def _invariants(method: str, omegas, beta: float):
    """invariants(index, eps): (tr F, det F) at the points (omegas[index],
    eps), broadcast against each other as :func:`pendulum.jacobian_stack`
    broadcasts them, in one batch, for a scan method or the boundary name
    "exact" of exact-pc.  The method is prepared once for ``omegas``:
    exact-pc as :class:`stability.PendulumPC`, an order method as the
    pendulum's coefficient table, evaluated at the points' monomial values.
    """
    if method in EXACT_BOUNDARY_METHODS:
        return stability.PendulumPC(omegas, beta)
    if method == "exact-rk":
        def rk(index, eps):
            coeffs = pendulum.jacobian_stack(omegas[index], eps, beta)[..., None]
            return stability.trace_det(
                exact_monodromy_rk_stack(pendulum.BREAKPOINTS, coeffs, RK_STEPS_DEFAULT))
        return rk
    order = order_of_method(method)
    table = pendulum.averaged_table(order)

    def approximation(index, eps):
        _, traces, det = averaging.evaluate_monodromy(
            table, pendulum.monomial_values(omegas[index], eps, beta, order))
        return traces[-1], det
    return approximation


def _first_error(batch, items, count: int):
    """``batch()``, items 0..count-1 as one batch.  Items fail independently,
    so when it raises, ``items(ks)`` on doubling blocks, then bisection, find
    the first failing item in O(log count) batches and rerun it for its error."""
    try:
        return batch()
    except FloquetError:
        lo, hi, size = 0, count, 1  # items before lo are clean; one in [lo, hi) fails
        while hi - lo > 1:
            mid = min(lo + size, (lo + hi) // 2)  # a doubling block, or half the rest
            try:
                items(np.arange(lo, mid))
                lo, size = mid, 2 * size
            except FloquetError:
                hi = mid
        items(np.array([lo]))
        raise


def point_report(omega: float, eps: float, beta: float, method: str,
                 tolerance: float = stability.DEFAULT_TOLERANCE) -> StabilityReport:
    """Classify one parameter point with the requested method: the
    one-point case of the batched grid evaluation."""
    params = pendulum.PendulumParams(omega, eps, beta)
    if method not in EXACT_METHODS and order_of_method(method) is None:
        raise ModelError(f"unknown method {method!r}")
    trace, det = _invariants(method, np.array([params.omega]), beta)([0], [params.eps])
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
    invariants = _invariants(method, omegas, beta)
    # the omega row broadcasts against the eps column, cells eps-major, so
    # per-omega work (omega**2) is done once per omega sample
    trace, det = _first_error(
        lambda: invariants(slice(None), epss[:, None]),
        lambda ks: invariants(ks % shape[1], epss[ks // shape[1]]),
        epss.size * omegas.size)
    margin_trace, margin_det = stability.margins(trace.reshape(shape), det.reshape(shape))
    verdicts = stability.verdict_labels(margin_trace, margin_det, tolerance)
    return ScanGrid(omegas, epss, beta, method, verdicts, margin_trace, margin_det)


def _resolve_threads(threads=None) -> int:
    """The scan's thread count: 1, since it runs single-threaded.  Kept
    because the benchmark (``perfbench/worker.py`` and ``perfbench/tracer.py``)
    reads the scan's thread count from this function."""
    return 1


def _margin_stack(omegas, beta: float, method: str, signs=None):
    """margin(index, eps): the boundary margins of samples ``index`` (at
    ``omegas[index]``) evaluated at ``eps``, and their slopes d/d eps, in
    one batch.

    The margin is det F + 1 - |tr F| of the method's monodromy invariants
    (:func:`_invariants`, prepared once for ``omegas``), a scan cell's
    margin_trace, or given ``signs`` each sample's
    :func:`stability.branch_factor`, which equals it near the branch's
    root.  The exact boundary methods use the invariants of exact-pc cells
    and the closed-form slope of :meth:`stability.PendulumPC.with_slope`;
    the order methods' slopes are NaN.
    """
    if method not in EXACT_BOUNDARY_METHODS and order_of_method(method) is None:
        raise ModelError(f"unknown method {method!r}")
    invariants = _invariants(method, omegas, beta)
    exact = method in EXACT_BOUNDARY_METHODS

    def margin(index, eps):
        if exact:
            trace, det, slope = invariants.with_slope(index, eps)
        else:
            trace, det = invariants(index, eps)
            slope = np.full(trace.shape, np.nan)
        if signs is None:
            # det F does not depend on eps
            return stability.margins(trace, det)[0], -np.sign(trace) * slope
        sign = signs[index]
        return stability.branch_factor(trace, det, sign), sign * slope

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
    """Find K roots in lockstep by a safeguarded Newton method, with one
    ``margin(index, eps)`` call, which gives margins and their slopes, per
    step.

    The first call evaluates each bracket's ends and midpoint.  From then on
    each sample steps from its latest iterate x to x - f/f' where that point
    is finite and strictly inside its bracket, and bisects otherwise (Press
    et al., *Numerical Recipes* 3rd ed., 9.4, ``rtsafe``).  Where
    |f/f'| <= tol/4 it evaluates instead the pair x - f/f' +/- tol/2,
    clipped into the bracket: a pair whose ends differ in sign is a final
    bracket.  Every evaluated point strictly inside the bracket replaces the
    end whose margin has its sign.  A sample counts its evaluations, a pair
    as two, and once it has made the steps bisection would need it
    bisects, so it never makes more than twice as many.  A zero margin at
    an end or an evaluated point is the root; otherwise a sample stops when
    its bracket is no wider than ``tol`` or its midpoint equals an end, and
    the root is the bracket's midpoint.  The steps depend only on the
    sample's own margins, so the roots do not depend on which samples share
    the batch.  Returns the roots, NaN where the end margins have the same
    sign, and the margins at the lower and upper ends.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    _check_tol(tol, lo, hi)
    mid = 0.5 * (lo + hi)
    k = lo.size
    # the ends and the midpoint in one call; each sample meets them in the
    # order a sample-by-sample search does
    f, slope = margin(np.tile(np.arange(k), 3), np.concatenate((lo, hi, mid)))
    m_lo, m_hi, m_mid, slope_mid = f[:k], f[k:2 * k], f[2 * k:], slope[2 * k:]
    root = np.where(m_lo == 0.0, lo, np.where(m_hi == 0.0, hi, np.nan))
    live = np.flatnonzero(np.isnan(root) & ((m_lo < 0.0) != (m_hi < 0.0)))
    # the steps bisection would take, ceil(log2(width / tol)), read off the
    # binary exponent so that it is exact; past them a sample bisects; the
    # midpoint was the first
    frac, expo = np.frexp((hi[live] - lo[live]) / tol)
    left = np.where(frac == 0.5, expo - 1, expo) - 1
    # per live sample: the bracket [a, b], the sign of the margin at a, the
    # latest iterate x with its Newton step f/f', and the points of a step,
    # each as its (eps, margin, Newton step)
    a, b, negative = lo[live], hi[live], m_lo[live] < 0.0
    x = step = np.full(live.size, np.nan)
    with np.errstate(all="ignore"):
        points = [(mid[live], m_mid[live], m_mid[live] / slope_mid[live])]
    while True:
        # each point inside the bracket moves the end whose margin has its
        # sign and becomes the iterate; a zero ends the search as the
        # iterate, the later one where both of a pair are zeros
        hit = False
        for eps, m_eps, step_eps in points:
            zero = m_eps == 0.0
            hit = hit | zero
            inside = ~hit & (a < eps) & (eps < b)
            lower = inside & ((m_eps < 0.0) == negative)
            a = np.where(lower, eps, a)
            b = np.where(inside ^ lower, eps, b)
            taken = inside | zero
            x = np.where(taken, eps, x)
            step = np.where(taken, step_eps, step)
        mid = 0.5 * (a + b)
        going = ~hit & (b - a > tol) & (mid != a) & (mid != b)
        if not going.all():
            done = ~going
            root[live[done]] = np.where(hit, x, mid)[done]
            live, a, b, negative, left, x, step, mid = (
                v[going] for v in (live, a, b, negative, left, x, step, mid))
        if live.size == 0:
            return root, m_lo, m_hi
        newton = x - step
        pair = (np.abs(step) <= 0.25 * tol) & (left >= 2)
        # a point strictly inside the bracket is finite
        single = np.where((a < newton) & (newton < b) & (left > 0), newton, mid)
        if pair.any():
            below = np.maximum(newton - 0.5 * tol, a)
            above = np.minimum(newton + 0.5 * tol, b)
            # rounding can widen the pair past tol by an ulp
            above = np.where(above - below > tol, np.nextafter(above, below), above)[pair]
            first = np.where(pair, below, single)
            m_new, slope_new = margin(np.concatenate((live, live[pair])),
                                      np.concatenate((first, above)))
            with np.errstate(all="ignore"):
                steps_new = m_new / slope_new
            n = live.size
            second = np.full((3, n), np.nan)
            second[:, pair] = above, m_new[n:], steps_new[n:]
            points = [(first, m_new[:n], steps_new[:n]), second]
        else:
            m_new, slope_new = margin(live, single)
            with np.errstate(all="ignore"):
                points = [(single, m_new, m_new / slope_new)]
        left -= 1 + pair


def bisect_boundary(omega: float, beta: float, eps_bracket, method: str,
                    tol: float = 1e-10) -> float:
    """Root of the margin det F + 1 - |tr F| in a bracket that straddles a
    sign change.

    The one-sample case of the lockstep root finder :func:`_bisect`, so
    its root is bitwise the one a batch gives.  The root finder is a
    safeguarded Newton method, which bisects only where a Newton step
    fails; the name stays because the benchmark tracer
    (``perfbench/tracer.py``) looks this function up by it.
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
    the order-4 branch vanishes; a zero seed's bracket [0, 0] is a root if
    the factor is zero there); the bracketed samples find their roots in
    lockstep.  One branch's factor does not vanish on the other branch, so
    a bracket that reaches past it needs no clip there.
    """

    def run(index):
        lo = (1.0 - _BRACKET_REL) * seeds[index]
        hi = (1.0 + _BRACKET_REL) * seeds[index]
        held = lo <= hi
        margin = _margin_stack(omegas[index[held]], beta, "exact", signs[index[held]])
        eps = np.full(index.size, np.nan)
        eps[held] = _bisect(margin, lo[held], hi[held], tol)[0]
        return eps

    return _first_error(lambda: run(np.arange(omegas.size)), run, omegas.size)


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

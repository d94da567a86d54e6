"""Parameter-space exploration for the damped-Meissner pendulum.

Stability bitmaps over (omega, eps) grids, boundary extraction by a
bracketing root finder (the Illinois method) on a scalar margin, and
exact-versus-approximate boundary comparison tables.  Every method runs
batched: a whole exact-pc grid is one stack of matrix exponentials, a
whole exact-rk grid one RK4 integration of a stack of systems, a whole
order-K grid one averaging recursion over a stack of systems, and
boundary samples find their roots in lockstep, one batched margin call
per step.  Every point still gets the arithmetic it would get alone, so
results do not depend on the batch.  All of it is single-threaded.
"""

import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import averaging, pendulum, stability
from .errors import BracketError, FloquetError, ModelError
from .exactmono import RK_STEPS_DEFAULT, exact_monodromy_rk, pc_stack_to_ppoly
from .stability import StabilityReport

EXACT_METHODS = ("exact-pc", "exact-rk")
ORDER_METHODS = tuple(f"order{k}" for k in range(1, averaging.MAX_ORDER + 1))

# exact-boundary brackets are seeded from the order-4 prediction +/-30%,
# clipped at the p/n midpoint so a bracket never straddles the whole band
_BRACKET_REL = 0.30


def axis_samples(axis) -> np.ndarray:
    lo, hi, count = axis
    if count < 2 or not lo < hi:
        raise ModelError(f"axis needs count >= 2 and min < max, got {axis!r}")
    return np.linspace(lo, hi, int(count))


def range_samples(rng) -> np.ndarray:
    """Like axis_samples but a single-point range (count 1) is allowed."""
    lo, hi, count = rng
    if count == 1 and lo == hi:
        return np.array([float(lo)])
    return axis_samples(rng)


@dataclass(frozen=True)
class ScanGrid:
    """Verdict bitmap plus margins over an (omega, eps) grid.

    Arrays are indexed [eps_index, omega_index] (eps-major, matching the
    CSV row order).
    """

    omega_axis: tuple
    eps_axis: tuple
    beta: float
    method: str
    verdicts: np.ndarray
    margin_trace: np.ndarray
    margin_det: np.ndarray

    @property
    def omega_samples(self) -> np.ndarray:
        return axis_samples(self.omega_axis)

    @property
    def eps_samples(self) -> np.ndarray:
        return axis_samples(self.eps_axis)


def order_of_method(method: str) -> Optional[int]:
    if method in ORDER_METHODS:
        return int(method[len("order"):])
    return None


def _order_invariants(omegas, epss, beta: float, order: int):
    """Order-K trace partial sum and truncated determinant at K points, in
    one averaging recursion over the stack of their series."""
    sys = pendulum.series_split_stack(omegas, epss, beta)
    _, mono, det = stability.order_approximation(sys, order)
    return sum(mono.trace_by_order), det


def _batched_invariants(method: str, omegas, epss, beta: float):
    """(tr F, det F) at K points for any scan method, the K points as one stack."""
    if method in EXACT_METHODS:
        jac = pendulum.jacobian_stack(omegas, epss, beta)
        if method == "exact-pc":
            return stability.pc_trace_det(pendulum.HALF_PERIODS, jac)
        j = pc_stack_to_ppoly(pendulum.PERIOD, pendulum.HALF_PERIODS, jac)
        return stability.trace_det(exact_monodromy_rk(j, RK_STEPS_DEFAULT))
    order = order_of_method(method)
    if order is None:
        raise ModelError(f"unknown method {method!r}")
    return _order_invariants(omegas, epss, beta, order)


def _first_error(run, count: int):
    """``run(index)`` for items 0..count-1 as one batch.

    Items fail independently: when the batch raises, the items rerun one at
    a time, so the error raised is the first failing item's own, as an
    item-by-item loop would raise it.
    """
    try:
        return run(np.arange(count))
    except FloquetError:
        for k in range(count):
            run(np.array([k]))
        raise


def point_report(omega: float, eps: float, beta: float, method: str,
                 tolerance: float = stability.DEFAULT_TOLERANCE) -> StabilityReport:
    """Classify one parameter point with the requested method: the
    one-point case of the batched grid evaluation."""
    params = pendulum.PendulumParams(omega, eps, beta)
    trace, det = _batched_invariants(method, [params.omega], [params.eps], beta)
    return stability.report_from_trace_det(float(trace[0]), float(det[0]), tolerance)


def scan_region(omega_axis, eps_axis, beta: float, method: str,
                threads: Optional[int] = None,
                tolerance: float = stability.DEFAULT_TOLERANCE) -> ScanGrid:
    """Stability verdict for every grid point, the whole grid as one batch.

    ``threads`` is validated for the CLI contract, but the computation is
    single-threaded, so the result cannot depend on it.
    """
    omegas = axis_samples(omega_axis)
    epss = axis_samples(eps_axis)
    if method not in EXACT_METHODS and order_of_method(method) is None:
        raise ModelError(f"unknown method {method!r}")
    _resolve_threads(threads)
    stability.check_tolerance(tolerance)
    shape = (epss.size, omegas.size)
    eps_grid, omega_grid = np.meshgrid(epss, omegas, indexing="ij")
    omega_flat, eps_flat = omega_grid.ravel(), eps_grid.ravel()
    trace, det = _first_error(
        lambda index: _batched_invariants(method, omega_flat[index], eps_flat[index], beta),
        omega_flat.size)
    margin_trace, margin_det = stability.margins(trace.reshape(shape), det.reshape(shape))
    verdicts = stability.verdict_labels(margin_trace, margin_det, tolerance)
    return ScanGrid(tuple(omega_axis), tuple(eps_axis), beta, method,
                    verdicts, margin_trace, margin_det)


def _resolve_threads(threads: Optional[int]) -> int:
    """The requested thread count: ``threads``, else FLOQUET_AVG_THREADS,
    else the core count; at least 1."""
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("FLOQUET_AVG_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ModelError(
                f"FLOQUET_AVG_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


EXACT_BOUNDARY_METHODS = ("exact", "exact-pc")


def boundary_margin(omega: float, beta: float, method: str):
    """Scalar margin in eps whose zero is the requested boundary curve.

    Exact methods use the exponential-product margin; order-K methods
    use the order-K trace partial sum against the graded determinant
    truncation, so their zeros coincide with the closed-form boundary
    expressions of the same order.  The one-point case of the batched
    margins.
    """
    margin = _margin_stack(np.array([float(omega)]), beta, method)

    def scalar(eps):
        return float(margin(np.zeros(1, dtype=int), np.array([float(eps)]))[0])

    return scalar


def _margin_stack(omegas, beta: float, method: str):
    """margin(index, eps): the boundary margins of samples ``index`` (at
    ``omegas[index]``) evaluated at ``eps``, in one batch.

    The margin is det F + 1 - |tr F| of the method's monodromy invariants;
    the exact boundary methods use those of exact-pc scan cells.
    """
    if method in EXACT_BOUNDARY_METHODS:
        method = "exact-pc"
    elif order_of_method(method) is None:
        raise ModelError(f"unknown method {method!r}")

    def margin(index, eps):
        return stability.margins(*_batched_invariants(method, omegas[index], eps, beta))[0]

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
    """Root of the scalar margin in a bracket that straddles a sign change.

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


def _order4_first(omega: float, beta: float) -> dict:
    """First-domain order-4 boundary eps per branch ('p', 'n'), None where
    the branch vanishes; both branches from one quartic solve."""
    first = {"p": None, "n": None}
    for root in pendulum.boundary_order4(omega, beta):
        if root.domain == "first":
            first[root.branch] = root.eps
    return first


def _exact_bracket(order4: dict, branch: str):
    """Bracket for the exact first-domain boundary, seeded from the
    first-domain order-4 roots ``order4`` (see :func:`_order4_first`)."""
    eps_p, eps_n = order4["p"], order4["n"]
    seed = order4[branch]
    if seed is None or seed <= 0.0:
        return None
    lo = (1.0 - _BRACKET_REL) * seed
    hi = (1.0 + _BRACKET_REL) * seed
    if eps_p is not None and eps_n is not None and eps_p < eps_n:
        mid = 0.5 * (eps_p + eps_n)
        if branch == "p":
            hi = min(hi, mid)
        else:
            lo = max(lo, mid)
    if not lo < hi:
        return None
    return lo, hi


def trace_boundary(omega_range, beta: float, branch: str, method: str,
                   tol: float = 1e-10) -> BoundaryCurve:
    """First-domain boundary curve over an omega range.

    order2/order4 evaluate their closed forms; exact methods find the
    root of the exact margin inside an order-4-seeded bracket, all samples
    in lockstep.  Samples whose branch vanishes or whose bracket shows no
    sign change are omitted.
    """
    if branch not in ("p", "n"):
        raise ModelError(f"branch must be 'p' or 'n', got {branch!r}")
    omegas = range_samples(omega_range) if not isinstance(omega_range, np.ndarray) else omega_range
    omegas = [float(omega) for omega in omegas]
    if method in EXACT_BOUNDARY_METHODS:
        order4 = [_order4_first(omega, beta) for omega in omegas]
        eps = _exact_samples(omegas, beta, [branch] * len(omegas), order4, tol)
    else:
        eps = [_boundary_sample(omega, beta, branch, method) for omega in omegas]
    points = tuple((omega, e) for omega, e in zip(omegas, eps) if e is not None)
    return BoundaryCurve(branch, method, points, len(eps) - len(points))


def _exact_samples(omegas, beta: float, branches, order4, tol: float) -> list:
    """Exact first-domain boundary eps per (omega, branch) sample, None
    where the sample is omitted; ``order4`` holds each sample's
    :func:`_order4_first` roots, and the bracketed samples find their roots
    in lockstep."""

    def run(index):
        brackets = [_exact_bracket(order4[i], branches[i]) for i in index]
        held = [k for k, bracket in enumerate(brackets) if bracket is not None]
        margin = _margin_stack(np.array([omegas[index[k]] for k in held]), beta, "exact")
        roots = _bisect(margin, [brackets[k][0] for k in held],
                        [brackets[k][1] for k in held], tol)[0]
        eps = [None] * len(brackets)
        for k, root in zip(held, roots.tolist()):
            eps[k] = None if math.isnan(root) else root
        return eps

    return _first_error(run, len(omegas))


def _boundary_sample(omega, beta, branch, method) -> Optional[float]:
    """The closed-form order-2 or order-4 boundary eps, None where the branch vanishes."""
    if method == "order2":
        o2 = pendulum.boundary_order2(omega, beta)
        return o2.eps_p if branch == "p" else o2.eps_n
    if method == "order4":
        return pendulum.order4_root(omega, beta, branch)
    raise ModelError(f"unknown boundary method {method!r}")


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
    summary: dict = field(compare=False)

    def branch_rows(self, branch: str):
        return [r for r in self.rows if r.branch == branch]


def compare_boundaries(omega_range, beta: float, tol: float = 1e-10) -> ComparisonTable:
    """Exact vs order-2 vs order-4 first-domain boundaries per branch."""
    omegas = range_samples(omega_range) if not isinstance(omega_range, np.ndarray) else omega_range
    # one quartic solve per omega seeds both branches' brackets and fills eps_order4
    order4 = [_order4_first(float(omega), beta) for omega in omegas]
    samples = [(branch, float(omega), roots) for branch in ("p", "n")
               for omega, roots in zip(omegas, order4)]
    exact = _exact_samples([omega for _, omega, _ in samples], beta,
                           [branch for branch, _, _ in samples],
                           [roots for _, _, roots in samples], tol)
    rows = []
    for (branch, omega, roots), eps_exact in zip(samples, exact):
        rows.append(ComparisonRow(
            omega=omega,
            branch=branch,
            eps_exact=eps_exact,
            eps_order2=_boundary_sample(omega, beta, branch, "order2"),
            eps_order4=roots[branch],
        ))
    summary = {}
    for branch in ("p", "n"):
        for name in ("err2", "err4"):
            errs = [getattr(r, name) for r in rows
                    if r.branch == branch and getattr(r, name) is not None]
            summary[f"{branch}_{name}_max"] = max(errs) if errs else math.nan
            summary[f"{branch}_{name}_mean"] = float(np.mean(errs)) if errs else math.nan
    return ComparisonTable(beta, tuple(rows), summary)

"""Parameter-space exploration for the damped-Meissner pendulum.

Stability bitmaps over (omega, eps) grids, boundary extraction by
bisection on a scalar margin, and exact-versus-approximate boundary
comparison tables.  Every method runs batched: a whole exact-pc grid is
one stack of matrix exponentials, a whole exact-rk grid one RK4
integration of a stack of systems, a whole order-K grid one averaging
recursion over a stack of systems, and boundary samples bisect in
lockstep, one batched margin call per step.  Every point still gets the
arithmetic it would get alone, so results do not depend on the batch.  All
of it is single-threaded.
"""

import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import averaging, pendulum, stability
from .errors import BracketError, FloquetError, ModelError
from .exactmono import exact_monodromy_rk, pc_stack_to_ppoly
from .stability import StabilityReport

EXACT_METHODS = ("exact-pc", "exact-rk")
ORDER_METHODS = tuple(f"order{k}" for k in range(1, averaging.MAX_ORDER + 1))

RK_STEPS_PER_PIECE = 256

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
        return stability.trace_det(exact_monodromy_rk(j, RK_STEPS_PER_PIECE))
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

    Exact methods bisect the exponential-product margin; order-K methods
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
    """A bisection tolerance must be positive and resolvable at every bracket."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ModelError(f"tol must be finite and > 0, got {tol!r}")
    spacing = np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
    if (tol < spacing).any():
        k = int(np.argmax(tol < spacing))
        raise ModelError(f"tol {tol:g} is below the float spacing {spacing[k]:.3g} "
                         f"at the bracket [{lo[k]:.17g}, {hi[k]:.17g}]")


def _bisect(margin, lo, hi, tol: float):
    """Bisect K brackets in lockstep, with one ``margin(index, eps)`` call per step.

    Each sample takes the steps a one-bracket bisection takes -- a zero
    margin at an end or a midpoint is the root, otherwise the half whose
    ends differ in sign is kept until the bracket is no wider than ``tol``
    or its midpoint equals an end -- so the roots do not depend on which
    samples share the batch.  Returns the roots, NaN where the end margins
    have the same sign, and the margins at the lower and upper ends.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    _check_tol(tol, lo, hi)
    # both ends in one call, in the order a sample-by-sample bisection meets them
    ends = margin(np.repeat(np.arange(lo.size), 2), np.stack((lo, hi), axis=1).ravel())
    m_lo, m_hi = ends[0::2].copy(), ends[1::2]
    root = np.where(m_lo == 0.0, lo, np.where(m_hi == 0.0, hi, np.nan))
    bisected = np.isnan(root) & ((m_lo < 0.0) != (m_hi < 0.0))
    live = np.flatnonzero(bisected)
    while True:
        live = live[hi[live] - lo[live] > tol]
        mid = 0.5 * (lo[live] + hi[live])
        moving = (mid != lo[live]) & (mid != hi[live])
        live, mid = live[moving], mid[moving]
        if live.size == 0:
            break
        m_mid = margin(live, mid)
        hit = m_mid == 0.0
        root[live[hit]] = mid[hit]
        lower = ~hit & ((m_mid < 0.0) == (m_lo[live] < 0.0))
        upper = ~hit & ~lower
        lo[live[lower]] = mid[lower]
        m_lo[live[lower]] = m_mid[lower]
        hi[live[upper]] = mid[upper]
        live = live[~hit]
    rest = bisected & np.isnan(root)
    root[rest] = 0.5 * (lo[rest] + hi[rest])
    return root, ends[0::2], m_hi


def bisect_boundary(omega: float, beta: float, eps_bracket, method: str,
                    tol: float = 1e-10) -> float:
    """Bisection on the scalar margin; the bracket must straddle a sign change.

    The one-sample case of the lockstep bisection.
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


def _exact_bracket(omega: float, beta: float, branch: str):
    """Order-4 seeded bracket for the exact first-domain boundary."""
    eps_p = pendulum.order4_root(omega, beta, "p")
    eps_n = pendulum.order4_root(omega, beta, "n")
    seed = eps_p if branch == "p" else eps_n
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

    order2/order4 evaluate their closed forms; exact methods bisect the
    exact margin inside an order-4-seeded bracket, all samples in
    lockstep.  Samples whose branch vanishes or whose bracket shows no
    sign change are omitted.
    """
    if branch not in ("p", "n"):
        raise ModelError(f"branch must be 'p' or 'n', got {branch!r}")
    omegas = range_samples(omega_range) if not isinstance(omega_range, np.ndarray) else omega_range
    omegas = [float(omega) for omega in omegas]
    if method in EXACT_BOUNDARY_METHODS:
        eps = _exact_samples(omegas, beta, [branch] * len(omegas), tol)
    else:
        eps = [_boundary_sample(omega, beta, branch, method) for omega in omegas]
    points = tuple((omega, e) for omega, e in zip(omegas, eps) if e is not None)
    return BoundaryCurve(branch, method, points, len(eps) - len(points))


def _exact_samples(omegas, beta: float, branches, tol: float) -> list:
    """Exact first-domain boundary eps per (omega, branch) sample, None
    where the sample is omitted; the bracketed samples bisect in lockstep."""

    def run(index):
        brackets = [_exact_bracket(omegas[i], beta, branches[i]) for i in index]
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
    samples = [(branch, float(omega)) for branch in ("p", "n") for omega in omegas]
    exact = _exact_samples([omega for _, omega in samples], beta,
                           [branch for branch, _ in samples], tol)
    rows = []
    for (branch, omega), eps_exact in zip(samples, exact):
        rows.append(ComparisonRow(
            omega=omega,
            branch=branch,
            eps_exact=eps_exact,
            eps_order2=_boundary_sample(omega, beta, branch, "order2"),
            eps_order4=_boundary_sample(omega, beta, branch, "order4"),
        ))
    summary = {}
    for branch in ("p", "n"):
        for name in ("err2", "err4"):
            errs = [getattr(r, name) for r in rows
                    if r.branch == branch and getattr(r, name) is not None]
            summary[f"{branch}_{name}_max"] = max(errs) if errs else math.nan
            summary[f"{branch}_{name}_mean"] = float(np.mean(errs)) if errs else math.nan
    return ComparisonTable(beta, tuple(rows), summary)

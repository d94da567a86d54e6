"""Order-N averaging of a graded periodic system and the monodromy expansion.

The input system dx/dt = (J0 + J_1(t) + J_2(t) + ...) x carries a constant
nilpotent J0 and piecewise-polynomial terms indexed by their declared order
of smallness.  Factoring out X0(t) = exp(J0 t) (a finite polynomial, since
J0 is nilpotent) puts the system in standard form with small coefficient
H(t) = H_1(t) + H_2(t) + ...; the recursion below then produces constant
matrices A_1..A_N and periodic correctors U_1..U_{N-1} such that the
monodromy matrix is X0(T) * exp((A_1 + ... + A_N) T) up to order N.

The graded expansion of that exponential gives the order-by-order monodromy
terms F_j; partial sums of those are the order-k approximations whose
convergence rate in the grading parameter is k+1.

Terms may be stacks of K systems over shared breakpoints (see
:mod:`ppoly`); J0 and the period are shared.  Every step then runs once
over the whole stack, the A_j, F_j, traces and closure residuals gain a
leading cell axis, and each cell gets the arithmetic it would get alone.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import ppoly
from .errors import FloquetError, ModelError, NumericRangeError
from .ppoly import PiecewisePolyMatrix
from .smallmat import as_matrix, matexp, norm1

MAX_ORDER = 6

# closure residual threshold, scaled by (1 + max coefficient magnitude)
_CLOSURE_TOL = 1e-9


@dataclass(frozen=True)
class SeriesSystem:
    """Graded T-periodic system: constant nilpotent J0 plus ordered terms.

    ``terms[k]`` is the piecewise-polynomial term of order k+1; missing
    higher orders are implicitly zero.  Terms may be stacks of K cells
    sharing J0 and the period.
    """

    period: float
    J0: np.ndarray
    terms: tuple

    def __post_init__(self):
        j0 = as_matrix(self.J0)
        n = j0.shape[0]
        power = np.eye(n)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(n):
                power = power @ j0
                if not np.isfinite(power).all():
                    raise NumericRangeError("the powers of J0 leave the float range")
            nilpotent = norm1(power) < 1e-12
        if not nilpotent:
            raise ModelError("J0 must be nilpotent (J0^n = 0)")
        terms = tuple(self.terms)
        for term in terms:
            if not isinstance(term, PiecewisePolyMatrix):
                raise ModelError("series terms must be PiecewisePolyMatrix values")
            if term.dim != n:
                raise ModelError("series terms must match the J0 dimension")
            if abs(term.period - self.period) > 1e-12 * self.period:
                raise ModelError("series terms must share the system period")
        object.__setattr__(self, "J0", j0)
        object.__setattr__(self, "terms", terms)

    @property
    def dim(self) -> int:
        return self.J0.shape[0]


@dataclass(frozen=True)
class AveragedExpansion:
    """Output of the averaging recursion.

    A holds A_1..A_N; U holds U_1..U_{N-1} (U_N is never needed to reach
    A_N).  closure_residuals are ||U_j(T)||_1 -- zero up to roundoff when
    each A_j really is the average of its integrand, so they double as the
    recursion's self-test.  For a stack of K systems each A_j is (K, n, n)
    and each residual a (K,) array.
    """

    period: float
    A: tuple
    U: tuple
    closure_residuals: tuple

    @property
    def order(self) -> int:
        return len(self.A)

    def a_sum(self) -> np.ndarray:
        total = np.zeros_like(self.A[0])
        for a in self.A:
            total = total + a
        return total


@dataclass(frozen=True)
class MonodromyExpansion:
    """Zero-order monodromy F0, graded corrections F_1..F_N, partial sums."""

    F0: np.ndarray
    F_terms: tuple
    partial_sums: tuple  # partial_sums[k] = F0 + F_1 + ... + F_k
    trace_by_order: tuple  # (tr F0, tr F_1, ..., tr F_N), (K,) arrays for a stack


def standard_form(sys: SeriesSystem):
    """Split off X0(t) = exp(J0 t) and conjugate each term into H_j.

    Returns
    -------
    X0 : PiecewisePolyMatrix
        The zero-order fundamental matrix, an exact polynomial of degree
        < n because J0 is nilpotent.
    H_terms : list of PiecewisePolyMatrix
        H_j(t) = X0(t)^-1 @ J_j(t) @ X0(t), one per input term.
    """
    n = sys.dim
    x0_coeff = np.zeros((n, n, n))
    x0inv_coeff = np.zeros((n, n, n))
    power = np.eye(n)
    for k in range(n):
        scale = 1.0 / math.factorial(k)
        x0_coeff[:, :, k] = power * scale
        x0inv_coeff[:, :, k] = power * (scale if k % 2 == 0 else -scale)
        power = power @ sys.J0
    breaks = np.array([0.0, sys.period])
    x0 = PiecewisePolyMatrix(sys.period, breaks, x0_coeff[None])
    x0inv = PiecewisePolyMatrix(sys.period, breaks.copy(), x0inv_coeff[None])
    h_terms = [ppoly.pp_mul(ppoly.pp_mul(x0inv, term), x0) for term in sys.terms]
    return x0, h_terms


def run_recursion(h_terms, period: float, order: int) -> AveragedExpansion:
    """Run the averaging recursion up to the requested order.

    A_1 is the average of H_1; each following order averages the
    same-order collection H_n + sum_i (H_{n-i} U_i - U_i A_{n-i}), with
    U_n the zero-mean antiderivative of that collection minus A_n.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ModelError(f"order {order} outside supported range 1..{MAX_ORDER}")
    if not h_terms:
        raise ModelError("need at least one H term")
    a_mats = []
    a_consts = []  # A_j embedded as degree-0 functions for the ppoly algebra
    u_funcs = []
    residuals = []
    try:
        for n in range(1, order + 1):
            if n <= len(h_terms):
                coll = h_terms[n - 1]
            else:
                coll = PiecewisePolyMatrix.zero(h_terms[0].dim, period)
            for i in range(1, n):
                # H_{n-i} is zero above the model's highest order: no product to add
                if n - i <= len(h_terms):
                    coll = ppoly.pp_add(coll, ppoly.pp_mul(h_terms[n - i - 1], u_funcs[i - 1]))
                coll = ppoly.pp_sub(coll, ppoly.pp_mul(u_funcs[i - 1], a_consts[n - i - 1]))
            a_n = ppoly.pp_average(coll)
            a_mats.append(a_n)
            a_consts.append(PiecewisePolyMatrix.constant(a_n, period))
            if n < order:
                u_n = ppoly.pp_antiderivative(ppoly.pp_sub(coll, a_consts[-1]))
                u_funcs.append(u_n)
                res = norm1(ppoly.pp_eval(u_n, period))
                residuals.append(float(res) if res.ndim == 0 else res)
                # checked cell by cell; a stack reports its first failing cell
                broken = np.atleast_1d(res >= _CLOSURE_TOL * (1.0 + u_n.max_coeff()))
                if broken.any():
                    bad = float(np.atleast_1d(res)[np.argmax(broken)])
                    raise FloquetError(
                        f"closure residual ||U_{n}(T)|| = {bad:.3g} indicates a broken recursion"
                    )
    except ModelError as exc:
        if "degree" in str(exc):
            raise ModelError(f"order {order} too high: {exc}") from exc
        raise
    return AveragedExpansion(period, tuple(a_mats), tuple(u_funcs), tuple(residuals))


def _trace(m):
    """tr m as a float, or a (K,) array for a (K, n, n) stack."""
    tr = np.trace(m, axis1=-2, axis2=-1)
    return float(tr) if np.ndim(tr) == 0 else tr


def graded_exp_terms(a_list, period: float, order: int):
    """Grade-j terms Z_j(T) of exp((A_1 + A_2 + ...) T), j = 1..order.

    P_m[j], the grade-j part of (A_1 + A_2 + ...)^m, follows the power
    recurrence P_1[j] = A_j, P_m[j] = sum_k A_k @ P_{m-1}[j-k], and
    Z_j(T) = sum_m (T^m / m!) P_m[j]; the scale comes last and matrix order
    is preserved, since the A_j do not commute.  Orders above len(a_list)
    are zero.  (K, n, n) stacks of A_j give stacks of Z_j, and a
    (..., 1, 1) stack of scalars gives the scalar series; a stacked matmul
    multiplies each slice as a lone matrix product would.
    """
    top = min(order, len(a_list))
    z_terms = [np.zeros_like(a_list[0]) for _ in range(order)]
    power = {j: a_list[j - 1] for j in range(1, top + 1)}  # P_1, by grade
    for m in range(1, order + 1):
        scale = period ** m / math.factorial(m)
        for j, p in power.items():
            z_terms[j - 1] = z_terms[j - 1] + p * scale
        nxt = {}
        for j in range(m + 1, order + 1):
            terms = [a_list[k - 1] @ power[j - k] for k in range(1, top + 1) if j - k in power]
            if terms:
                nxt[j] = sum(terms[1:], terms[0])
        power = nxt
    return z_terms


def assemble_monodromy(x0: PiecewisePolyMatrix, avg: AveragedExpansion,
                       period: float) -> MonodromyExpansion:
    """Build F0 and the graded corrections F_j = F0 @ Z_j(T), j = 1..N."""
    f0 = ppoly.pp_eval(x0, period)
    z_terms = graded_exp_terms(avg.A, period, avg.order)
    f_terms = tuple(f0 @ z for z in z_terms)
    sums = [f0]
    for f in f_terms:
        sums.append(sums[-1] + f)
    traces = tuple(_trace(f) for f in (f0,) + f_terms)
    return MonodromyExpansion(f0, f_terms, tuple(sums), traces)


def monodromy_direct(x0: PiecewisePolyMatrix, avg: AveragedExpansion,
                     period: float) -> np.ndarray:
    """F0 @ exp((A_1 + ... + A_N) T): the un-graded averaged monodromy.

    Agrees with the order-N partial sum of :func:`assemble_monodromy` up
    to terms of order N+1.
    """
    f0 = ppoly.pp_eval(x0, period)
    return f0 @ matexp(avg.a_sum(), period)


def series_total(sys: SeriesSystem) -> PiecewisePolyMatrix:
    """J(t) = J0 + J_1(t) + J_2(t) + ... as one piecewise polynomial; a sum
    that leaves the float range raises :class:`NumericRangeError`."""
    total = PiecewisePolyMatrix.constant(sys.J0, sys.period)
    with np.errstate(over="ignore", invalid="ignore"):
        for term in sys.terms:
            total = ppoly.pp_add(total, term)
    return total

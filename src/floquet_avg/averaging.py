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

Terms whose coefficients are polynomials in parameters run the recursion
once, on their monomials' coefficient functions (see :func:`run_recursion`),
and an expansion at K parameter points evaluates those sums: its A_j and
closure residuals carry a leading cell axis, the monodromy assembly runs
once over the stack, and each cell gets the arithmetic it would get alone.
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
    higher orders are implicitly zero.
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
    recursion's self-test.  Labelled terms give dicts by monomial label
    (see :func:`run_recursion`); an expansion evaluated at K parameter
    points has (K, n, n) A_j, (K,) residuals and no U.
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
    same-order collection H_n + sum_i (H_{n-i} U_i - U_i A_{n-i}).  With W
    the antiderivative of that collection from 0, A_n = W(T) / T and U_n =
    W - A_n t, the antiderivative of the collection minus A_n, taken from W
    without integrating again (:func:`ppoly.pp_minus_ramp`); it closes,
    U_n(T) = 0, up to roundoff.

    Each H term is one function, or a dict from monomial label to function
    for terms that are polynomials in the parameters: H_n = sum_m v_m H_n^m
    with v_m a product of parameter powers and the label m the tuple of its
    exponents.  The recursion is linear in each factor, so it runs on the
    labelled functions: a product carries the sum of its factors' labels,
    and A_n, U_n and the closure residual of U_n come back as dicts by
    label, each the coefficient of its monomial, checked monomial by
    monomial.  A plain function is the one-monomial case, under the empty
    label, and gets plain results.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ModelError(f"order {order} outside supported range 1..{MAX_ORDER}")
    if not h_terms:
        raise ModelError("need at least one H term")
    labelled = isinstance(h_terms[0], dict)
    terms = [h if labelled else {(): h} for h in h_terms]
    dim = next(iter(terms[0].values())).dim
    a_mats = []
    a_consts = []  # A_j embedded as degree-0 functions for the ppoly algebra
    u_funcs = []
    residuals = []

    def accumulate(op, label_x, label_y, product):
        """coll[label] op= product, under the label of the product's monomial."""
        label = tuple(map(sum, zip(label_x, label_y)))
        start = coll[label] if label in coll else PiecewisePolyMatrix.zero(dim, period)
        coll[label] = op(start, product)

    try:
        for n in range(1, order + 1):
            coll = dict(terms[n - 1]) if n <= len(terms) else {}
            for i in range(1, n):
                # H_{n-i} is zero above the model's highest order: no product to add
                if n - i <= len(terms):
                    for lh, h in terms[n - i - 1].items():
                        for lu, u in u_funcs[i - 1].items():
                            accumulate(ppoly.pp_add, lh, lu, ppoly.pp_mul(h, u))
                for lu, u in u_funcs[i - 1].items():
                    for la, a in a_consts[n - i - 1].items():
                        accumulate(ppoly.pp_sub, lu, la, ppoly.pp_mul(u, a))
            anti = {label: ppoly.pp_antiderivative(f) for label, f in coll.items()}
            a_n = {label: ppoly.pp_eval(w, period) / period for label, w in anti.items()}
            a_mats.append(a_n)
            a_consts.append({label: PiecewisePolyMatrix.constant(a, period)
                             for label, a in a_n.items()})
            if n < order:
                u_n, res_n = {}, {}
                for label, w in anti.items():
                    u = ppoly.pp_minus_ramp(w, a_n[label])
                    res = float(norm1(ppoly.pp_eval(u, period)))
                    if res >= _CLOSURE_TOL * (1.0 + u.max_coeff()):
                        raise FloquetError(f"closure residual ||U_{n}{_label_text(label)}(T)|| = "
                                           f"{res:.3g} indicates a broken recursion")
                    u_n[label], res_n[label] = u, res
                u_funcs.append(u_n)
                residuals.append(res_n)
    except ModelError as exc:
        if "degree" in str(exc):
            raise ModelError(f"order {order} too high: {exc}") from exc
        raise
    results = (a_mats, u_funcs, residuals)
    if not labelled:
        results = ([x[()] for x in xs] for xs in results)
    return AveragedExpansion(period, *map(tuple, results))


def _label_text(label) -> str:
    """The monomial a closure residual belongs to, empty for the one-monomial case."""
    return f" of monomial {label}" if label else ""


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

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

The recursion runs once per model, on its terms' monomials in the
parameters (a model without parameters is the one-monomial case), and
:class:`AveragedTable` keeps what it gives.  An expansion at K parameter
points evaluates the table: its A_j, U_j(T) and closure residuals carry a
leading cell axis, the monodromy assembly runs once over the stack, and
each cell gets the arithmetic it would get alone.
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

    A holds A_1..A_N; U_end holds U_1(T)..U_{N-1}(T) (U_N is never needed
    to reach A_N).  closure_residuals are ||U_j(T)||_1 -- zero up to
    roundoff when each A_j really is the average of its integrand, so they
    double as the recursion's self-test.  The recursion gives dicts by
    monomial label (see :func:`run_recursion`); an expansion evaluated at K
    parameter points has (K, n, n) A_j and U_j(T) and (K,) residuals.
    """

    period: float
    A: tuple
    U_end: tuple
    closure_residuals: tuple

    @property
    def order(self) -> int:
        return len(self.A)

    def cell(self, k: int) -> "AveragedExpansion":
        """Point k of an evaluated expansion, as one system's expansion."""
        return AveragedExpansion(self.period, tuple(a[k] for a in self.A),
                                 tuple(u[k] for u in self.U_end),
                                 tuple(float(r[k]) for r in self.closure_residuals))

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

    Each H term is a dict from monomial label to function: H_n = sum_m v_m
    H_n^m with v_m a product of parameter powers and the label m the tuple
    of its exponents, and a term without parameters is the one monomial ()
    with v = 1.  The recursion is linear in each factor, so it runs on the
    labelled functions: a product carries the sum of its factors' labels,
    and A_n, U_n(T) and the closure residual of U_n come back as dicts by
    label, each the coefficient of its monomial, checked monomial by
    monomial.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ModelError(f"order {order} outside supported range 1..{MAX_ORDER}")
    if not h_terms:
        raise ModelError("need at least one H term")
    dim = next(iter(h_terms[0].values())).dim
    a_mats = []
    a_consts = []  # A_j embedded as degree-0 functions for the ppoly algebra
    u_funcs = []
    u_ends = []
    residuals = []

    def accumulate(op, label_x, label_y, product):
        """coll[label] op= product, under the label of the product's monomial."""
        label = tuple(map(sum, zip(label_x, label_y)))
        start = coll[label] if label in coll else PiecewisePolyMatrix.zero(dim, period)
        coll[label] = op(start, product)

    try:
        for n in range(1, order + 1):
            coll = dict(h_terms[n - 1]) if n <= len(h_terms) else {}
            for i in range(1, n):
                # H_{n-i} is zero above the model's highest order: no product to add
                if n - i <= len(h_terms):
                    for lh, h in h_terms[n - i - 1].items():
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
                u_n, end_n, res_n = {}, {}, {}
                for label, w in anti.items():
                    u = ppoly.pp_minus_ramp(w, a_n[label])
                    end = ppoly.pp_eval(u, period)
                    res = float(norm1(end))
                    if res >= _CLOSURE_TOL * (1.0 + u.max_coeff()):
                        raise FloquetError(f"closure residual ||U_{n}{_label_text(label)}(T)|| = "
                                           f"{res:.3g} indicates a broken recursion")
                    u_n[label], end_n[label], res_n[label] = u, end, res
                u_funcs.append(u_n)
                u_ends.append(end_n)
                residuals.append(res_n)
    except ModelError as exc:
        if "degree" in str(exc):
            raise ModelError(f"order {order} too high: {exc}") from exc
        raise
    return AveragedExpansion(period, tuple(a_mats), tuple(u_ends), tuple(residuals))


@dataclass(frozen=True)
class AveragedTable:
    """A model's A_n and U_n(T) as polynomials in its parameters.

    ``labels[n-1]`` holds the exponent tuples of A_n's monomials, and
    ``exponents`` all of them, order after order, as an (M, p) array.
    ``A[m]`` is the coefficient of monomial m in its order's A_n, and
    ``U_end[m]`` that in U_n(T), for every order but the last.  The
    zero-order fundamental matrix ``x0`` (which carries the period) and
    tr J0 are what assembly and the determinant truncation read besides.
    """

    x0: PiecewisePolyMatrix
    trace_j0: float
    labels: tuple
    exponents: np.ndarray
    A: np.ndarray
    U_end: np.ndarray


def coefficient_table(x0: PiecewisePolyMatrix, h_terms, trace_j0: float,
                      order: int) -> AveragedTable:
    """The table of the recursion on labelled H terms up to ``order``, each
    order's monomials in sorted label order, the order an evaluation adds them."""
    avg = run_recursion(h_terms, x0.period, order)
    labels = tuple(tuple(sorted(a)) for a in avg.A)
    return AveragedTable(
        x0, trace_j0, labels,
        np.array([m for ms in labels for m in ms]),
        np.array([a[m] for a, ms in zip(avg.A, labels) for m in ms]),
        np.array([u[m] for u, ms in zip(avg.U_end, labels) for m in ms]).reshape(
            -1, x0.dim, x0.dim))


def system_table(sys: SeriesSystem, order: int) -> AveragedTable:
    """The table of a series system without parameters: standard form, then
    the recursion on its terms as the one monomial ()."""
    with np.errstate(over="ignore", invalid="ignore"):
        x0, h_terms = standard_form(sys)
        return coefficient_table(x0, [{(): h} for h in h_terms], float(np.trace(sys.J0)), order)


def evaluate_table(table: AveragedTable, values) -> AveragedExpansion:
    """The expansion at K points from the (M, K) values of the table's monomials.

    A_n = sum_m v_m A_n^m and U_n(T) = sum_m v_m U_n^m(T), (K, n, n), add
    their monomials one at a time in table order, elementwise, so every
    point gets the arithmetic it gets alone; the (K,) closure residuals are
    ||U_n(T)||_1.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.asarray(values)[:, :, None, None]
        a_mats = _order_sums(values * table.A[:, None], table.labels)
        u_ends = _order_sums(values[: len(table.U_end)] * table.U_end[:, None],
                             table.labels[:-1])
        residuals = tuple(norm1(u) for u in u_ends)
    return AveragedExpansion(table.x0.period, a_mats, u_ends, residuals)


def _order_sums(terms, labels) -> tuple:
    """Per order, the sum of its monomials' (K, n, n) terms, added one at a
    time in table order."""
    sums = []
    start = 0
    for ms in labels:
        total = terms[start]
        for term in terms[start + 1: start + len(ms)]:
            total = total + term
        sums.append(total)
        start += len(ms)
    return tuple(sums)


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

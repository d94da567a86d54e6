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
parameters (a model without parameters is the one-monomial case), and so
does the monodromy assembly: the graded expansion runs on the monomials'
coefficients, a product's monomial the product of its factors', and
:class:`AveragedTable` keeps the A_n, U_n(T), F_j and determinant
coefficients it gives.  Evaluating the table at K parameter points is then
a sum of monomial values times coefficients, elementwise, so each point
gets the arithmetic it would get alone.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import ppoly
from .errors import FloquetError, ModelError, NumericRangeError
from .ppoly import PiecewisePolyMatrix
from .smallmat import _in_range, as_matrix, norm1

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
            if abs(term.period - self.period) > ppoly._BREAK_MERGE_REL * self.period:
                raise ModelError("series terms must share the system period")
        object.__setattr__(self, "J0", j0)
        object.__setattr__(self, "terms", terms)

    @property
    def dim(self) -> int:
        return self.J0.shape[0]


def standard_form(sys: SeriesSystem):
    """Split off X0(t) = exp(J0 t) and conjugate each term into H_j.

    Returns
    -------
    X0 : PiecewisePolyMatrix
        The zero-order fundamental matrix, an exact polynomial because J0 is
        nilpotent: its degree is the last power of J0 that is not exactly
        zero, J0's nilpotency index less one, at most n - 1.
    H_terms : list of PiecewisePolyMatrix
        H_j(t) = X0(t)^-1 @ J_j(t) @ X0(t), one per input term.
    """
    powers = [np.eye(sys.dim)]
    # exactly zero, not within a tolerance: a dropped coefficient is a zero
    while len(powers) < sys.dim and (power := powers[-1] @ sys.J0).any():
        powers.append(power)
    x0_coeff = np.stack([p * (1.0 / math.factorial(k)) for k, p in enumerate(powers)], axis=-1)
    x0inv_coeff = x0_coeff * (-1.0) ** np.arange(len(powers))
    breaks = np.array([0.0, sys.period])
    x0 = PiecewisePolyMatrix(sys.period, breaks, x0_coeff[None])
    x0inv = PiecewisePolyMatrix(sys.period, breaks.copy(), x0inv_coeff[None])
    h_terms = [ppoly.pp_mul(ppoly.pp_mul(x0inv, term), x0) for term in sys.terms]
    return x0, h_terms


def run_recursion(h_terms, period: float, order: int):
    """Run the averaging recursion up to the requested order: ``(A, U_end)``,
    A_1..A_N and U_1(T)..U_{N-1}(T) (U_N is never needed to reach A_N).

    A_1 is the average of H_1; each following order averages the
    same-order collection H_n + sum_i (H_{n-i} U_i - U_i A_{n-i}).  With W
    the antiderivative of that collection from 0, A_n = W(T) / T and U_n =
    W - A_n t, the antiderivative of the collection minus A_n, taken from W
    without integrating again; it closes, U_n(T) = 0, up to roundoff.

    Each H term is a dict from monomial label to function: H_n = sum_m v_m
    H_n^m with v_m a product of parameter powers and the label m the tuple
    of its exponents, and a term without parameters is the one monomial ()
    with v = 1.  The recursion is linear in each factor, so it runs on the
    labelled functions: a product carries the sum of its factors' labels,
    and A_n and U_n(T) come back as dicts by label, each the coefficient of
    its monomial.  Each U_n closes monomial by monomial: its residual
    ||U_n^m(T)||_1 is zero up to roundoff when A_n is the average of its
    integrand, so the residuals double as the recursion's self-test.

    Each order runs as one pass (:func:`_collection`): its H U products in
    one stack and its U A products in another, then one ordered sum per
    label.  W(T) and U_n(T) are the running totals of the joins that set
    the antiderivatives' constants, and U_n's join starts from W's Horner
    partial.  Every A_n and U_n(T) is bitwise what one product and one sum
    at a time, each through ``ppoly._on_union``, and Horner at T give, and
    a failing input raises the error that order meets first.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ModelError(f"order {order} outside supported range 1..{MAX_ORDER}")
    if not h_terms:
        raise ModelError("need at least one H term")
    funcs = [f for term in h_terms for f in term.values()]
    for f in funcs[1:]:
        ppoly._check_compatible(funcs[0], f)
    span = funcs[0].period
    # each function as ppoly's kernels take it, (coeffs, degrees, breakpoints)
    h_terms = [{label: (f.coeffs, f.degrees, f.breakpoints) for label, f in term.items()}
               for term in h_terms]
    zero = (np.zeros((1, funcs[0].dim, funcs[0].dim, 1)), (0,), np.array([0.0, period]))
    a_mats, a_consts, u_funcs, u_ends = [], [], [], []
    try:
        for n in range(1, order + 1):
            steps = []  # (sign, factor, factor), each factor a (label, function) pair
            for i in range(1, n):
                # H_{n-i} is zero above the model's highest order: no product to add
                if n - i <= len(h_terms):
                    steps += [(1.0, h, u) for h in h_terms[n - i - 1].items()
                              for u in u_funcs[i - 1].items()]
                steps += [(-1.0, u, a) for u in u_funcs[i - 1].items()
                          for a in a_consts[n - i - 1].items()]
            start = h_terms[n - 1] if n <= len(h_terms) else {}
            anti = {}
            for label, f in _collection(span, start, steps, zero).items():
                w, total, partial = ppoly._antiderivative(*f, period)
                anti[label] = (ppoly._checked(*w), total, partial)
            a_n = {label: ppoly._end_value(span, total, period) / period
                   for label, (_, total, _) in anti.items()}
            if not all(np.isfinite(a).all() for a in a_n.values()):
                raise ModelError("piece coefficients must be finite")
            a_mats.append(a_n)
            a_consts.append({label: (a[..., None, :, :, None], *zero[1:])
                             for label, a in a_n.items()})
            if n < order:
                u_n, end_n = {}, {}
                for label, (w, _, partial) in anti.items():
                    u, end = ppoly._minus_ramp(w, a_n[label], period, partial)
                    u = ppoly._checked(*u)
                    end = ppoly._end_value(span, end, period)
                    res = float(norm1(end))
                    if res >= _CLOSURE_TOL * (1.0 + float(np.abs(u[0]).max())):
                        where = f" of monomial {label}" if label else ""  # () for no parameters
                        raise FloquetError(f"closure residual ||U_{n}{where}(T)|| = "
                                           f"{res:.3g} indicates a broken recursion")
                    u_n[label], end_n[label] = u, end
                u_funcs.append(u_n)
                u_ends.append(end_n)
    except ModelError as exc:
        if "degree" in str(exc):
            raise ModelError(f"order {order} too high: {exc}") from exc
        raise
    return tuple(a_mats), tuple(u_ends)


def _collection(period: float, start: dict, steps: list, zero) -> dict:
    """One order's collection by label: ``start`` (H_n) plus sign times the
    product of each step's factors, added under the label of the product's
    monomial in step order, labels in the order they first appear.

    The products of each sign (the H U pairs, then the U A pairs) run as
    stacks (``ppoly._products``) and each label sums its terms in one
    ordered pass (``ppoly._ordered_sum``).  When either meets a product
    over the degree cap or a value out of the float range, the order runs
    again one product and one sum at a time, so that the first failure in
    that sequence raises its error.
    """
    made = {sign: ppoly._products(period, [(x[1], y[1]) for s, x, y in steps if s == sign])
            for sign in (1.0, -1.0)}
    if None not in made.values():
        made = {sign: iter(products) for sign, products in made.items()}
        terms = {label: (f, []) for label, f in start.items()}
        for sign, (label_x, _), (label_y, _) in steps:
            terms.setdefault(_label_sum(label_x, label_y), (zero, []))[1].append(
                (sign, next(made[sign])))
        coll = {label: ppoly._ordered_sum(period, *t) for label, t in terms.items()}
        if None not in coll.values():
            return coll
    coll = dict(start)
    for sign, (label_x, x), (label_y, y) in steps:
        product = ppoly._checked(*ppoly._on_union(period, x, y, ppoly._product))
        label = _label_sum(label_x, label_y)
        coll[label] = ppoly._checked(*ppoly._on_union(
            period, coll.get(label, zero), product, ppoly._sum, sign))
    return coll


@dataclass(frozen=True)
class AveragedTable:
    """A model's averaged expansion as polynomials in its parameters.

    ``labels[n-1]`` holds the exponent tuples of A_n's monomials, and
    ``exponents`` all of them, order after order, as an (M, p) array.
    ``A[m]`` is the coefficient of monomial m in its order's A_n, and
    ``U_end[m]`` that in U_n(T), for every order but the last.  The order-j
    monodromy term F_j = F0 Z_j(T) and the grade-j term of the truncated
    determinant's series exp((tr A_1 + tr A_2 + ...) T) hold the monomials
    of A_j too: ``F[m]`` and ``D[m]`` are their coefficients.  The
    zero-order fundamental matrix ``x0`` carries the period, ``F0`` is
    X0(T), and tr J0 gives the determinant's factor exp(T tr J0).
    """

    x0: PiecewisePolyMatrix
    trace_j0: float
    labels: tuple
    exponents: np.ndarray
    A: np.ndarray
    U_end: np.ndarray
    F0: np.ndarray
    F: np.ndarray
    D: np.ndarray

    @functools.cached_property
    def _monodromy_rows(self):
        """(start, rows): F0's entries, tr F0 and 1, then per monomial F_m's
        entries, tr F_m and D_m, so that one sum gives F, tr F and the
        determinant's series together."""
        n = self.F0.shape[-1]
        with np.errstate(over="ignore", invalid="ignore"):
            traces = np.trace(self.F, axis1=1, axis2=2)
        rows = np.concatenate((self.F.reshape(-1, n * n), traces[:, None], self.D[:, None]),
                              axis=1)
        return np.append(self.F0.ravel(), [np.trace(self.F0), 1.0]), rows

    @functools.cached_property
    def _branch_polynomials(self):
        """The branch factors 1 + det F + s tr F, s = -1 then +1, as
        polynomials in x = p^2 of the first parameter p, for a model whose
        tr F and det F are even in p, so the monomials of odd powers of p are
        left out: ``(start, rows, exponents)``.  The coefficient of x^j is
        start[:, j] plus, slot by slot, rows[:, j, g] times the monomial of
        the other parameters with exponents[j * G + g], G slots per power;
        the slots hold x^j's monomials in table order, then zero rows, and
        G is the widest power's count, at least 1.
        """
        start, rows = self._monodromy_rows
        scale = math.exp(self.trace_j0 * self.x0.period)
        signs = np.array([[-1.0], [1.0]])
        # per monomial its coefficient in each factor, a zero row appended
        factors = np.append(scale * rows[:, -1] + signs * rows[:, -2], np.zeros((2, 1)), axis=1)
        others = np.append(self.exponents[:, 1:], np.zeros_like(self.exponents[:1, 1:]), axis=0)
        groups = [np.flatnonzero(self.exponents[:, 0] == 2 * j)
                  for j in range(len(self.labels) // 2 + 1)]
        slots = np.full((len(groups), max(1, *map(len, groups))), len(self.exponents))
        for j, group in enumerate(groups):
            slots[j, :len(group)] = group
        base = np.zeros((2, len(groups)))
        base[:, 0] = 1.0 + scale * start[-1] + signs[:, 0] * start[-2]
        return base, factors[:, slots], others[slots.ravel()]


def coefficient_table(x0: PiecewisePolyMatrix, h_terms, trace_j0: float,
                      order: int) -> AveragedTable:
    """The table of the recursion on labelled H terms up to ``order``, each
    order's monomials in sorted label order, the order an evaluation adds
    them; the monodromy assembly and the determinant's graded expansion run
    on the A_n's coefficients, labelled the same way."""
    a_by_label, u_by_label = run_recursion(h_terms, x0.period, order)
    labels = tuple(tuple(sorted(a)) for a in a_by_label)
    a_coeffs = [np.array([a[m] for m in ms]) for a, ms in zip(a_by_label, labels)]
    with np.errstate(over="ignore", invalid="ignore"):
        f0, f_terms = assemble_monodromy(x0, a_coeffs, labels)
        d_terms = det_series_terms(a_coeffs, x0.period, order, labels)
    return AveragedTable(
        x0, trace_j0, labels,
        np.array([m for ms in labels for m in ms]),
        np.concatenate(a_coeffs),
        np.array([u[m] for u, ms in zip(u_by_label, labels) for m in ms]).reshape(
            -1, x0.dim, x0.dim),
        f0, np.concatenate(f_terms), np.concatenate(d_terms)[:, 0, 0])


def system_table(sys: SeriesSystem, order: int) -> AveragedTable:
    """The table of a series system without parameters: standard form, then
    the recursion on its terms as the one monomial ()."""
    with np.errstate(over="ignore", invalid="ignore"):
        x0, h_terms = standard_form(sys)
        return coefficient_table(x0, [{(): h} for h in h_terms], float(np.trace(sys.J0)), order)


def evaluate_table(table: AveragedTable, values):
    """The averaged expansion at K points from the (M, K) values of the
    table's monomials: ``(A, residuals)``, per order the (K, n, n) A_n and,
    for every order but the last, the (K,) closure residuals ||U_n(T)||_1.

    A_n = sum_m v_m A_n^m and U_n(T) = sum_m v_m U_n^m(T) add their
    monomials one at a time in table order, elementwise, so every point
    gets the arithmetic it gets alone.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.asarray(values)[:, :, None, None]
        a_mats = _order_sums(values * table.A[:, None], table.labels)
        u_ends = _order_sums(values[: len(table.U_end)] * table.U_end[:, None],
                             table.labels[:-1])
        return a_mats, tuple(norm1(u) for u in u_ends)


def evaluate_monodromy(table: AveragedTable, values):
    """The order-N approximation of F at K points from the (M, K) values
    of the table's monomials: ``(F, traces, det)``.

    F = F0 + F_1 + ... + F_N with F_j = sum_m v_m F_m over order j's
    monomials, ``traces`` holds tr F0, tr F_1, ..., tr F_N and their sum
    tr F, each summed from the tabulated traces, and det is the truncation
    exp(T tr J0) (1 + sum_m v_m D_m); (K, n, n) and (K,) arrays.  The
    monomials are added one at a time in table order, elementwise, so every
    point gets the arithmetic it gets alone.  Every order-K margin and
    report ends here: an F, tr F or det F that leaves the float range
    raises :class:`NumericRangeError`.
    """
    start, rows = table._monodromy_rows
    total = start
    with np.errstate(over="ignore", invalid="ignore"):
        sums = _order_sums(np.asarray(values)[:, :, None] * rows[:, None], table.labels)
        for s in sums:
            total = total + s
        det = math.exp(table.trace_j0 * table.x0.period) * total[:, -1]
    n = table.F0.shape[-1]
    f = total[:, :-2].reshape(-1, n, n)
    if not np.isfinite(f).all():
        raise NumericRangeError(
            f"the order-{len(table.labels)} approximation of F leaves the float range")
    _in_range(total[:, -2], det)
    traces = (np.full(len(total), start[-2]),) + tuple(s[:, -2] for s in sums)
    return f, traces + (total[:, -2],), det


def _order_sums(terms, labels) -> tuple:
    """Per order, the sum of its monomials' (K, ...) terms, added one at a
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


def _label_sum(label_x, label_y) -> tuple:
    """The label of a product of two monomials: their exponents added."""
    return tuple(map(sum, zip(label_x, label_y)))


def graded_exp_terms(a_list, period: float, order: int, labels=None):
    """Grade-j terms Z_j(T) of exp((A_1 + A_2 + ...) T), j = 1..order.

    P_m[j], the grade-j part of (A_1 + A_2 + ...)^m, follows the power
    recurrence P_1[j] = A_j, P_m[j] = sum_k A_k @ P_{m-1}[j-k], and
    Z_j(T) = sum_m (T^m / m!) P_m[j]; the scale comes last and matrix order
    is preserved, since the A_j do not commute.  Orders above len(a_list)
    are zero.  (K, n, n) stacks of A_j give stacks of Z_j, and a
    (..., 1, 1) stack of scalars gives the scalar series; a stacked matmul
    multiplies each slice as a lone matrix product would.

    With ``labels``, ``a_list[j-1]`` holds the (L_j, n, n) coefficients of
    A_j's monomials ``labels[j-1]``, and Z_j comes back as the coefficients
    of ``labels[j-1]`` too: a product of two monomials is the monomial whose
    label is the sum of theirs.
    """
    top = min(order, len(a_list))
    # with one monomial per order, as a model without parameters has, the
    # products land on it alone and multiply as unlabelled stacks do
    fold = labels is not None and any(len(ms) > 1 for ms in labels)

    def product(k, i):
        """A_k @ P[i], each coefficient pair landing on its product's monomial."""
        if not fold:
            return a_list[k - 1] @ power[i]
        x, y = a_list[k - 1], power[i]
        where = {label: n for n, label in enumerate(labels[k + i - 1])}
        out = np.zeros((len(where),) + x.shape[1:])
        np.add.at(out, [where[_label_sum(lx, ly)] for lx in labels[k - 1] for ly in labels[i - 1]],
                  (x[:, None] @ y[None]).reshape((-1,) + x.shape[1:]))
        return out

    z_terms = [0.0] * order  # every grade j gets P_j[j], the power of A_1, at least
    power = {j: a_list[j - 1] for j in range(1, top + 1)}  # P_1, by grade
    for m in range(1, order + 1):
        scale = period ** m / math.factorial(m)
        for j, p in power.items():
            z_terms[j - 1] = z_terms[j - 1] + p * scale
        nxt = {}
        for j in range(m + 1, order + 1):
            terms = [product(k, j - k) for k in range(1, top + 1) if j - k in power]
            if terms:
                nxt[j] = sum(terms[1:], terms[0])
        power = nxt
    return z_terms


def assemble_monodromy(x0: PiecewisePolyMatrix, a_list, labels=None):
    """F0 = X0(T) and the graded corrections F_j = F0 @ Z_j(T), j = 1..N, of
    A_1..A_N as :func:`graded_exp_terms` takes them: ``(F0, (F_1, ..F_N))``."""
    f0 = ppoly.pp_eval(x0, x0.period)
    z_terms = graded_exp_terms(a_list, x0.period, len(a_list), labels)
    return f0, tuple(f0 @ z for z in z_terms)


def det_series_terms(a_list, period: float, order: int, labels=None):
    """Grade-j terms of exp((tr A_1 + tr A_2 + ...) T), j = 1..order, as
    (..., 1, 1) arrays: :func:`graded_exp_terms` on the 1x1 matrices
    tr A_j T, labelled as it takes them."""
    # the T is folded into the traces, so the grade-m scale 1/m! is exact
    # through m = 2 and orders 1 and 2 multiply out as (tr A_1 T)(tr A_1 T) / 2
    traces = [(np.trace(a, axis1=-2, axis2=-1) * period)[..., None, None] for a in a_list[:order]]
    return graded_exp_terms(traces, 1.0, order, labels)


def series_total(sys: SeriesSystem) -> PiecewisePolyMatrix:
    """J(t) = J0 + J_1(t) + J_2(t) + ... as one piecewise polynomial; a sum
    that leaves the float range raises :class:`NumericRangeError`."""
    total = PiecewisePolyMatrix.constant(sys.J0, sys.period)
    with np.errstate(over="ignore", invalid="ignore"):
        for term in sys.terms:
            total = ppoly.pp_add(total, term)
    return total

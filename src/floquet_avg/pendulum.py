"""Inverted pendulum with square-wave pivot acceleration and viscous damping.

The pivot acceleration is +/-c, flipping sign every half period (period
normalized to 2*pi).  Linearized about the inverted position the system is
piecewise constant:

    J(t) = [[0, 1], [omega^2 + eps, -beta*omega]]   on [0, pi)
    J(t) = [[0, 1], [omega^2 - eps, -beta*omega]]   on [pi, 2*pi)

with omega^2 = g/l the relative eigenfrequency squared, eps = c/l the
relative excitation acceleration, and beta = b/g the damping coefficient.

The graded split for the averaging engine puts the excitation at order 1
and the restoring/damping block at order 2 (omega^2 and beta*omega each
count as order 2): that is the only assignment under which the constant
block lands in a single term, and the one under which the order-2 and
order-4 boundaries are the paper's closed forms.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import averaging
from .averaging import AveragedTable, SeriesSystem, standard_form
from .errors import ModelError, NumericRangeError
from .ppoly import PiecewisePolyMatrix
from .smallmat import libm_map

PERIOD = 2.0 * math.pi
# durations of the two constant segments, J+ then J-, and their ends
HALF_PERIODS = (math.pi, math.pi)
BREAKPOINTS = (0.0, math.pi, PERIOD)

MODEL_NAME = "meissner-damped"


@dataclass(frozen=True)
class PendulumParams:
    """Dimensionless parameters: eigenfrequency, excitation, damping."""

    omega: float
    eps: float
    beta: float

    def __post_init__(self):
        for name in ("omega", "eps", "beta"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ModelError(f"{name} must be finite and >= 0, got {v!r}")


def jacobians(p: PendulumParams) -> PiecewisePolyMatrix:
    """J(t) as a degree-0 piecewise polynomial: J+ on [0, pi), J- on [pi, 2*pi)."""
    return PiecewisePolyMatrix(PERIOD, np.array(BREAKPOINTS),
                               jacobian_stack([p.omega], [p.eps], p.beta)[0, ..., None])


def jacobian_stack(omegas, epss, beta: float) -> np.ndarray:
    """(K, 2, 2, 2) stack of [J+, J-] for the K points (omega_k, eps_k) at
    one beta of ``omegas`` and ``epss`` broadcast against each other, in C
    order: a grid row of omegas against a column of epss is eps-major.

    Parameters are checked point by point; the first invalid point raises
    what :class:`PendulumParams` raises for it, and the first point with an
    entry that leaves the float range (omega^2 + eps or beta*omega)
    raises :class:`NumericRangeError`.
    """
    omegas, epss, w2, shape = _checked_points(omegas, epss, beta)
    out = np.zeros(shape + (2, 2, 2))
    out[..., :, 0, 1] = 1.0
    with np.errstate(over="ignore"):
        out[..., 0, 1, 0] = w2 + epss
        out[..., 1, 1, 0] = w2 - epss
        out[..., :, 1, 1] = (-beta * omegas)[..., None]
    out = out.reshape(-1, 2, 2, 2)
    bad = ~np.isfinite(out).all(axis=(1, 2, 3))
    if bad.any():
        omega, eps = (np.broadcast_to(x, shape).flat[np.argmax(bad)] for x in (omegas, epss))
        raise NumericRangeError(
            f"J(t) leaves the float range at omega = {omega:g}, eps = {eps:g}, beta = {beta:g}")
    return out


def series_split(p: PendulumParams) -> SeriesSystem:
    """Graded series J0 + J1(t) + J2 feeding the averaging engine.

    J0 is the free drift, J1 the sign-flipping excitation (order 1), J2
    the constant restoring-plus-damping block (order 2).
    """
    return _split(p.eps, p.omega ** 2, -p.beta * p.omega)


def _split(eps, w2, damping) -> SeriesSystem:
    """The graded series of one parameter point."""
    j0 = np.array([[0.0, 1.0], [0.0, 0.0]])
    exc_plus = np.zeros((2, 2, 1))
    exc_plus[1, 0, 0] = eps
    j1 = PiecewisePolyMatrix(PERIOD, np.array(BREAKPOINTS),
                             np.stack((exc_plus, -exc_plus)))
    j2 = PiecewisePolyMatrix.constant(np.array([[0.0, 0.0], [w2, damping]]), PERIOD)
    return SeriesSystem(PERIOD, j0, (j1, j2))


# the tables built so far, by order; each depends on no input
_TABLES = {}


def averaged_table(order: int) -> AveragedTable:
    """The pendulum's coefficient table up to ``order``, built on first use and kept.

    One averaging recursion runs on the unit-parameter terms, each labelled
    by the exponents (a, b, c) of its monomial eps^a (omega^2)^b
    (beta*omega)^c: J1 = eps E(t) with the square wave E, and J2 =
    omega^2 N + (beta*omega) D.  The recursion is multilinear in them, so
    A_n and U_n are exact polynomials in the three monomials, those of A_n
    with a + 2(b + c) = n, and the closure check runs monomial by monomial.
    The monodromy terms F_n and the truncated determinant's grade-n terms
    are polynomials in the same monomials, tabulated in the same build.
    """
    table = _TABLES.get(order)
    if table is None:
        x0, (h_eps, _) = standard_form(_split(1.0, 0.0, 0.0))
        h_w2 = standard_form(_split(0.0, 1.0, 0.0))[1][1]
        h_bw = standard_form(_split(0.0, 0.0, -1.0))[1][1]
        table = averaging.coefficient_table(
            x0, [{(1, 0, 0): h_eps}, {(0, 1, 0): h_w2, (0, 0, 1): h_bw}], 0.0, order)
        _TABLES[order] = table
    return table


def monomial_values(omegas, epss, beta: float, order: int) -> np.ndarray:
    """The (M, K) values of the order-K table's monomials at the K points
    (omega_k, eps_k) at one beta of ``omegas`` and ``epss`` broadcast as
    :func:`jacobian_stack` broadcasts them, at which
    :func:`averaging.evaluate_monodromy` gives the order-K invariants and
    :func:`averaging.evaluate_table` the A_n and closure residuals.

    The values come from :func:`_power_products`, so every point gets the
    arithmetic it gets alone.  Parameters are checked as
    :func:`jacobian_stack` checks them; a monomial that leaves the float
    range raises :class:`NumericRangeError` for the first point it does.
    """
    omegas, epss, w2, shape = _checked_points(omegas, epss, beta)
    exponents = averaged_table(order).exponents
    with np.errstate(over="ignore"):
        damping = beta * omegas
    values = _power_products(exponents, (epss, w2, damping), shape)
    bad = ~np.isfinite(values)
    if bad.any():
        k = int(np.argmax(bad.any(axis=0)))
        a, b, c = exponents[np.argmax(bad[:, k])]
        omega, eps = (np.broadcast_to(x, shape).flat[k] for x in (omegas, epss))
        raise NumericRangeError(
            f"the monomial eps^{a} (omega^2)^{b} (beta*omega)^{c} leaves the float range "
            f"at omega = {omega:g}, eps = {eps:g}, beta = {beta:g}")
    return values


def _power_products(exponents, factors, shape) -> np.ndarray:
    """The (M, K) values of the monomials whose exponents of the ``factors``
    are the rows of ``exponents``, at the K points of ``shape``, to which
    the factors broadcast.  Each power is a product of repeated factors and
    each monomial the product of its powers, elementwise, so every point
    gets the arithmetic it gets alone; a value that leaves the float range
    is left inf or NaN for the caller to report.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = np.empty((len(factors),) + shape)
        for row, factor in zip(stacked, factors):
            row[...] = factor
        stacked = stacked.reshape(len(factors), -1)
        powers = np.ones((len(factors), exponents.max(initial=0) + 1, stacked.shape[1]))
        for k in range(powers.shape[1] - 1):
            powers[:, k + 1] = powers[:, k] * stacked
        values = powers[0, exponents[:, 0]]
        for i in range(1, len(factors)):
            values = values * powers[i, exponents[:, i]]
    return values


def _checked_points(omegas, epss, beta: float):
    """(omegas, epss, omega**2, shape): float arrays that broadcast to the
    points' shape, checked point by point in C order.  omega**2 is taken
    per element of ``omegas``, so a grid's omega row is squared once; a
    square that leaves the float range raises :class:`NumericRangeError`
    for the first omega it does, once every point has passed its check."""
    omegas = np.asarray(omegas, dtype=float)
    epss = np.asarray(epss, dtype=float)
    ok = (np.isfinite(omegas) & (omegas >= 0.0) & np.isfinite(epss) & (epss >= 0.0)
          & bool(np.isfinite(beta) and beta >= 0.0))
    if not ok.all():
        k = int(np.argmin(ok.ravel()))
        omega, eps = (np.broadcast_to(x, ok.shape).flat[k] for x in (omegas, epss))
        PendulumParams(float(omega), float(eps), beta)
    w2 = _squares(omegas)
    if not np.isfinite(w2).all():
        raise NumericRangeError(f"omega^2 leaves the float range at omega = "
                                f"{omegas.flat[np.argmin(np.isfinite(w2))]:g}, beta = {beta:g}")
    return omegas, epss, w2, ok.shape


def _squares(omegas: np.ndarray) -> np.ndarray:
    """omega ** 2 of each element, by libm pow, inf where it leaves the float range.

    Not omega * omega: the two differ in the last bit for about one omega in
    a thousand, and the outputs have always taken omega^2 by pow.
    """
    return libm_map(lambda w: w ** 2, omegas)


def order_roots(omegas, beta: float, order: int, branches: str = "pn") -> np.ndarray:
    """Boundaries of the order-K approximation at K omegas and one beta, in
    one pass: eps indexed [branch, domain, omega], NaN where absent, for
    each of ``branches`` ("p", "n" or both) in the order given.

    At each omega the branch factor 1 + det F + s tr F of the order-K table
    (s = -1 for p, +1 for n) is a polynomial in eps, its coefficients the
    table's tr F_m and D_m summed per power of eps.  tr F and det F are even
    in eps, because eps -> -eps is a half-period shift of time, so the odd
    powers, which the table holds at roundoff, are dropped, and what is
    left is a polynomial in x = eps^2 of degree d = K // 2.  Its roots are
    the eigenvalues of its companion matrix (Edelman and Murakami, Math.
    Comp. 64(210), 1995), one ``np.linalg.eigvals`` call for the branches
    asked for and every omega.  Domain j (max(d, 1) of them) is the square
    root of the j-th real root in ascending order, NaN where that root is
    negative or absent; the smaller bounds the first stability domain.
    Each omega and each branch gets the arithmetic it gets alone.  A
    coefficient that leaves the float range raises
    :class:`NumericRangeError` for the first omega it does.
    """
    if not (branches and set(branches) <= {"p", "n"}):
        raise ModelError(f"branches must be drawn from 'p' and 'n', got {branches!r}")
    omegas, _, w2, shape = _checked_points(omegas, 0.0, beta)
    start, rows, exponents = averaged_table(order)._branch_polynomials
    pick = ["pn".index(b) for b in branches]
    start, rows = start[pick], rows[pick]
    degree = rows.shape[1] - 1
    with np.errstate(all="ignore"):
        values = _power_products(exponents, (w2, beta * omegas), shape)
        terms = rows[..., None] * values.reshape(rows.shape[1:] + (omegas.size,))
        coeffs = start[..., None]
        for g in range(terms.shape[2]):
            coeffs = coeffs + terms[:, :, g]
        # the first row of each companion matrix: the monic coefficients
        # below the leading one, negated, in descending powers
        top = -coeffs[:, -2::-1] / coeffs[:, -1:]
        bad = ~np.isfinite(top).all(axis=(0, 1))
        if bad.any():
            raise NumericRangeError(
                f"the order-{order} boundary polynomial leaves the float range at "
                f"omega = {omegas.flat[np.argmax(bad)]:g}, beta = {beta:g}")
        companion = np.zeros((len(pick), omegas.size, degree, degree))
        companion[..., :1, :] = top.transpose(0, 2, 1)[..., None, :]
        companion[..., np.arange(1, degree), np.arange(degree - 1)] = 1.0
        x = np.linalg.eigvals(companion)
        x = np.sort(np.where(x.imag == 0.0, x.real, np.nan), axis=-1)
        roots = np.full((len(pick), max(degree, 1), omegas.size), np.nan)
        # a negative root gives NaN, and + 0.0 takes the root x = -0.0 of
        # omega = 0 to eps = 0.0
        roots[:, :degree] = np.sqrt(x + 0.0).transpose(0, 2, 1)
    return roots


def order4_root(omega: float, beta: float, branch: str, domain: str = "first") -> Optional[float]:
    """One root of the order-4 :func:`order_roots` at one omega, None where it is absent."""
    eps = order_roots(np.array([omega], dtype=float), beta, 4, branch)[
        0, ("first", "second").index(domain), 0]
    return None if math.isnan(eps) else float(eps)

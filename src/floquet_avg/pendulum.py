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
block lands in a single term, and it is what the closed-form second- and
fourth-order boundary expressions below are derived from.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import averaging
from .averaging import AveragedTable, SeriesSystem, standard_form
from .errors import ModelError, NumericRangeError
from .exactmono import pc_stack_to_ppoly
from .ppoly import PiecewisePolyMatrix

PERIOD = 2.0 * math.pi
# durations of the two constant segments, J+ then J-
HALF_PERIODS = (math.pi, math.pi)

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
    return pc_stack_to_ppoly(PERIOD, HALF_PERIODS, jacobian_stack([p.omega], [p.eps], p.beta)[0])


def jacobian_stack(omegas, epss, beta: float) -> np.ndarray:
    """(K, 2, 2, 2) stack of [J+, J-] for the K points (omega_k, eps_k) at
    one beta of ``omegas`` and ``epss`` broadcast against each other, in C
    order: a grid row of omegas against a column of epss is eps-major.

    Parameters are checked point by point; the first invalid point raises
    what :class:`PendulumParams` raises for it.
    """
    omegas, epss, w2, shape = _checked_points(omegas, epss, beta)
    out = np.zeros(shape + (2, 2, 2))
    out[..., :, 0, 1] = 1.0
    out[..., 0, 1, 0] = w2 + epss
    out[..., 1, 1, 0] = w2 - epss
    out[..., :, 1, 1] = (-beta * omegas)[..., None]
    return out.reshape(-1, 2, 2, 2)


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
    j1 = PiecewisePolyMatrix(PERIOD, np.array([0.0, math.pi, PERIOD]),
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
    :func:`averaging.evaluate_table` the averaged expansion.

    Each power is a product of repeated factors and each monomial the
    product of its three powers, elementwise, so every point gets the
    arithmetic it gets alone.  Parameters are checked as
    :func:`jacobian_stack` checks them; a monomial that leaves the float
    range raises :class:`NumericRangeError` for the first point it does.
    """
    omegas, epss, w2, shape = _checked_points(omegas, epss, beta)
    exponents = averaged_table(order).exponents
    with np.errstate(over="ignore", invalid="ignore"):
        factors = np.empty((3,) + shape)
        factors[0], factors[1], factors[2] = epss, w2, beta * omegas
        factors = factors.reshape(3, -1)
        powers = np.ones((3, order + 1, factors.shape[1]))
        for k in range(order):
            powers[:, k + 1] = powers[:, k] * factors
        a, b, c = exponents.T
        values = powers[0, a] * powers[1, b] * powers[2, c]
    bad = ~np.isfinite(values)
    if bad.any():
        k = int(np.argmax(bad.any(axis=0)))
        a, b, c = exponents[np.argmax(bad[:, k])]
        omega, eps = (np.broadcast_to(x, shape).flat[k] for x in (omegas, epss))
        raise NumericRangeError(
            f"the monomial eps^{a} (omega^2)^{b} (beta*omega)^{c} leaves the float range "
            f"at omega = {omega:g}, eps = {eps:g}, beta = {beta:g}")
    return values


def _checked_points(omegas, epss, beta: float):
    """(omegas, epss, omega**2, shape): float arrays that broadcast to the
    points' shape, checked point by point in C order.  omega**2 is taken
    per element of ``omegas``, so a grid's omega row is squared once."""
    omegas = np.asarray(omegas, dtype=float)
    epss = np.asarray(epss, dtype=float)
    ok = (np.isfinite(omegas) & (omegas >= 0.0) & np.isfinite(epss) & (epss >= 0.0)
          & bool(np.isfinite(beta) and beta >= 0.0))
    if not ok.all():
        k = int(np.argmin(ok.ravel()))
        omega, eps = (np.broadcast_to(x, ok.shape).flat[k] for x in (omegas, epss))
        PendulumParams(float(omega), float(eps), beta)
    return omegas, epss, _squares(omegas), ok.shape


def _squares(omega):
    """omega ** 2 of a float, or of each element of an array, by libm pow.

    Not omega * omega: the two differ in the last bit for about one omega in
    a thousand, and every scalar formula of this module uses pow.
    """
    if isinstance(omega, np.ndarray):
        return np.array([w ** 2 for w in omega.ravel().tolist()]).reshape(omega.shape)
    return omega ** 2


class Order2Boundary(NamedTuple):
    eps_p: float
    eps_n: Optional[float]


def order2_roots(omegas, beta: float) -> np.ndarray:
    """Second-order closed-form boundaries of the first stability domain at
    K omegas and one beta, in one numpy pass: eps indexed [branch (p, n),
    omega], NaN where absent.

    eps_p = (2*sqrt(3)/pi) * omega
    eps_n = (2*sqrt(3)/pi) * sqrt(omega^2 - beta*omega/pi + 1/pi^2)

    A negative radicand (possible only for beta > pi*omega + 1/(pi*omega),
    far outside the expansion's validity) reports the n-boundary as absent.
    Each omega gets the arithmetic it gets alone.
    """
    omegas, _, w2, _ = _checked_points(omegas, np.zeros(np.size(omegas)), beta)
    scale = 2.0 * math.sqrt(3.0) / math.pi
    radicand = w2 - beta * omegas / math.pi + 1.0 / math.pi ** 2
    with np.errstate(invalid="ignore"):
        eps_n = np.where(radicand >= 0.0, scale * np.sqrt(radicand), np.nan)
    return np.stack((scale * omegas, eps_n))


def boundary_order2(omega: float, beta: float) -> Order2Boundary:
    """The one-omega case of :func:`order2_roots`, None where eps_n is absent."""
    eps_p, eps_n = order2_roots(np.array([omega], dtype=float), beta)[:, 0].tolist()
    return Order2Boundary(eps_p, None if math.isnan(eps_n) else eps_n)


def quartic_coefficients(omega, beta: float, branch: str):
    """(a, b, c) of a*x^2 + b*x + c = 0 with x = eps^2 for the branch.

    Both branches share a = pi^8/1260 and the middle coefficient
    b = -(pi^4/3)(1 + 4*pi^2*omega^2/15 - pi*beta*omega); they differ in
    the constant term.  ``omega`` is a float, or an array for which b and c
    are arrays.
    """
    if branch not in ("p", "n"):
        raise ModelError(f"branch must be 'p' or 'n', got {branch!r}")
    a, b, c_p, c_n = _quartics(omega, _squares(omega), beta)
    return a, b, c_p if branch == "p" else c_n


def _quartics(omega, w2, beta: float):
    """(a, b, c_p, c_n) of :func:`quartic_coefficients` from omega and its
    square ``w2``: the shared coefficients and both branches' constant terms."""
    pi = math.pi
    a = pi ** 8 / 1260.0
    b = -(pi ** 4 / 3.0) * (1.0 + 4.0 * pi ** 2 * w2 / 15.0 - pi * beta * omega)
    c_p = 4.0 * pi ** 2 * w2 * (1.0 + pi ** 2 * w2 / 3.0 - beta * omega * pi)
    c_n = 4.0 * (
        1.0
        - beta * pi * omega
        + pi ** 2 * w2 * (1.0 + pi ** 2 * w2 / 3.0 - beta * omega * pi + beta ** 2)
    )
    return a, b, c_p, c_n


def order4_roots(omegas, beta: float) -> np.ndarray:
    """Fourth-order boundaries at K omegas and one beta, in one numpy pass:
    eps indexed [branch (p, n), domain (first, second), omega], NaN where absent.

    Each quartic is a quadratic in eps^2; real roots are labeled by
    magnitude -- the smaller eps^2 root bounds the first stability domain,
    the larger the second.  Complex eps^2 roots mean the branch has no
    boundary at that omega.  Each omega is squared once, and each gets the
    arithmetic it gets alone.
    """
    omegas, _, w2, _ = _checked_points(omegas, np.zeros(np.size(omegas)), beta)
    a, b, c_p, c_n = _quartics(omegas, w2, beta)
    c = np.stack((c_p, c_n))
    with np.errstate(all="ignore"):
        disc = b * b - 4.0 * a * c
        sq = np.sqrt(disc)
        # stable quadratic: larger-magnitude root first, mate via c/(a*x1)
        x1 = np.where(b <= 0.0, (-b + sq) / (2.0 * a), (-b - sq) / (2.0 * a))
        x2 = np.where(x1 != 0.0, c / (a * x1), 0.0)
        # the order sorted((x1, x2)) gives, NaN included
        swap = x2 < x1
        lo, hi = np.where(swap, x2, x1), np.where(swap, x1, x2)
        real = ~(disc < 0.0)
        first = np.where(real & (lo > 0.0), np.sqrt(lo), np.nan)
        second = np.where(real & (hi > 0.0), np.sqrt(hi), np.nan)
    return np.stack((first, second), axis=1)


def order4_root(omega: float, beta: float, branch: str, domain: str = "first") -> Optional[float]:
    """One root of :func:`order4_roots` at one omega, None where it is absent."""
    eps = order4_roots(np.array([omega], dtype=float), beta)[
        ("p", "n").index(branch), ("first", "second").index(domain), 0]
    return None if math.isnan(eps) else float(eps)

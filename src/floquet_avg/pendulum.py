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

from .averaging import AveragedExpansion, SeriesSystem, run_recursion, standard_form
from .errors import ModelError, NumericRangeError
from .exactmono import pc_stack_to_ppoly
from .ppoly import PiecewisePolyMatrix, pp_eval
from .smallmat import norm1

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
    """(K, 2, 2, 2) stack of [J+, J-] for K points (omega_k, eps_k) at one beta.

    Parameters are checked point by point; the first invalid point raises
    what :class:`PendulumParams` raises for it.
    """
    omegas, epss, w2 = _checked_points(omegas, epss, beta)
    d = -beta * omegas
    out = np.zeros((omegas.size, 2, 2, 2))
    out[:, :, 0, 1] = 1.0
    out[:, 0, 1, 0] = w2 + epss
    out[:, 1, 1, 0] = w2 - epss
    out[:, :, 1, 1] = d[:, None]
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
    j1 = PiecewisePolyMatrix(PERIOD, np.array([0.0, math.pi, PERIOD]),
                             np.stack((exc_plus, -exc_plus)))
    j2 = PiecewisePolyMatrix.constant(np.array([[0.0, 0.0], [w2, damping]]), PERIOD)
    return SeriesSystem(PERIOD, j0, (j1, j2))


@dataclass(frozen=True)
class AveragedTable:
    """The pendulum's A_n and U_n(T) as polynomials in its parameters.

    ``labels[n-1]`` holds the exponents (a, b, c) of the monomials
    eps^a (omega^2)^b (beta*omega)^c with a + 2(b + c) = n, and
    ``exponents`` all of them, order after order, as an (M, 3) array.
    ``A[m]`` is the (2, 2) coefficient of monomial m in its order's A_n,
    and ``U_end[m]`` that in U_n(T), for the monomials of every order but
    the last.  ``x0`` is the zero-order fundamental matrix and ``system``
    holds J0 and the period.
    """

    x0: PiecewisePolyMatrix
    system: SeriesSystem
    labels: tuple
    exponents: np.ndarray
    A: np.ndarray
    U_end: np.ndarray


# the tables built so far, by order; each depends on no input
_TABLES = {}


def averaged_table(order: int) -> AveragedTable:
    """The coefficient table up to ``order``, built on first use and kept.

    One averaging recursion runs on the unit-parameter terms, each labelled
    by its monomial: J1 = eps E(t) with the square wave E, and J2 =
    omega^2 N + (beta*omega) D.  The recursion is multilinear in them, so
    A_n and U_n are exact polynomials in the three monomials, and the
    closure check runs monomial by monomial.
    """
    table = _TABLES.get(order)
    if table is None:
        unit = _split(1.0, 0.0, 0.0)
        x0, (h_eps, _) = standard_form(unit)
        h_w2 = standard_form(_split(0.0, 1.0, 0.0))[1][1]
        h_bw = standard_form(_split(0.0, 0.0, -1.0))[1][1]
        avg = run_recursion([{(1, 0, 0): h_eps}, {(0, 1, 0): h_w2, (0, 0, 1): h_bw}],
                            PERIOD, order)
        labels = tuple(tuple(sorted(a)) for a in avg.A)
        table = AveragedTable(
            x0, SeriesSystem(PERIOD, unit.J0, ()), labels,
            np.array([m for ms in labels for m in ms]),
            np.array([a[m] for a, ms in zip(avg.A, labels) for m in ms]),
            np.array([pp_eval(u[m], PERIOD) for u, ms in zip(avg.U, labels)
                      for m in ms]).reshape(-1, 2, 2))
        _TABLES[order] = table
    return table


def averaged_expansion(omegas, epss, beta: float, order: int) -> AveragedExpansion:
    """The order-K averaged expansion at K points (omega_k, eps_k) at one beta,
    from :func:`averaged_table`: A_n = sum_m v_m A_n^m with v_m the value of
    monomial m, and the closure residual ||sum_m v_m U_n^m(T)||_1.

    A_n is (K, 2, 2), each residual (K,), and there are no U functions.
    Each power is a product of repeated factors and each sum adds the
    monomials one at a time in table order, elementwise, so every point
    gets the arithmetic it gets alone.  Parameters are checked as
    :func:`jacobian_stack` checks them; a monomial that leaves the float
    range raises :class:`NumericRangeError` for the first point it does.
    """
    omegas, epss, w2 = _checked_points(omegas, epss, beta)
    table = averaged_table(order)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.ones((3, order + 1, omegas.size))
        factors = np.array([epss, w2, beta * omegas])
        for k in range(order):
            powers[:, k + 1] = powers[:, k] * factors
        a, b, c = table.exponents.T
        values = powers[0, a] * powers[1, b] * powers[2, c]
        bad = ~np.isfinite(values)
        if bad.any():
            k = int(np.argmax(bad.any(axis=0)))
            a, b, c = table.exponents[np.argmax(bad[:, k])]
            raise NumericRangeError(
                f"the monomial eps^{a} (omega^2)^{b} (beta*omega)^{c} leaves the float range "
                f"at omega = {omegas[k]:g}, eps = {epss[k]:g}, beta = {beta:g}")
        values = values[:, :, None, None]
        a_mats = _order_sums(values * table.A[:, None], table.labels)
        u_ends = _order_sums(values[: table.U_end.shape[0]] * table.U_end[:, None],
                             table.labels[:-1])
    return AveragedExpansion(PERIOD, a_mats, (), tuple(norm1(u) for u in u_ends))


def _order_sums(terms, labels) -> tuple:
    """Per order, the sum of its monomials' (K, 2, 2) terms, added one at a
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


def _checked_points(omegas, epss, beta: float):
    """(omegas, epss, omega**2) as float arrays, checked point by point."""
    omegas = np.asarray(omegas, dtype=float)
    epss = np.asarray(epss, dtype=float)
    ok = (np.isfinite(omegas) & (omegas >= 0.0) & np.isfinite(epss) & (epss >= 0.0)
          & bool(np.isfinite(beta) and beta >= 0.0))
    if not ok.all():
        k = int(np.argmin(ok))
        PendulumParams(float(omegas[k]), float(epss[k]), beta)
    return omegas, epss, _squares(omegas)


def _squares(omega):
    """omega ** 2 of a float, or of each element of an array, by libm pow.

    Not omega * omega: the two differ in the last bit for about one omega in
    a thousand, and every scalar formula of this module uses pow.
    """
    if isinstance(omega, np.ndarray):
        return np.array([w ** 2 for w in omega.tolist()])
    return omega ** 2


class Order2Boundary(NamedTuple):
    eps_p: float
    eps_n: Optional[float]


def boundary_order2(omega: float, beta: float) -> Order2Boundary:
    """Second-order closed-form boundaries of the first stability domain.

    eps_p = (2*sqrt(3)/pi) * omega
    eps_n = (2*sqrt(3)/pi) * sqrt(omega^2 - beta*omega/pi + 1/pi^2)

    A negative radicand (possible only for beta > pi*omega + 1/(pi*omega),
    far outside the expansion's validity) reports the n-boundary as absent.
    """
    PendulumParams(omega, 0.0, beta)
    scale = 2.0 * math.sqrt(3.0) / math.pi
    eps_p = scale * omega
    radicand = omega ** 2 - beta * omega / math.pi + 1.0 / math.pi ** 2
    eps_n = scale * math.sqrt(radicand) if radicand >= 0.0 else None
    return Order2Boundary(eps_p, eps_n)


@dataclass(frozen=True)
class BoundaryRoot:
    """One positive eps root of a fourth-order boundary quartic."""

    branch: str  # 'p' or 'n'
    domain: str  # 'first' or 'second'
    eps: float


def quartic_coefficients(omega, beta: float, branch: str):
    """(a, b, c) of a*x^2 + b*x + c = 0 with x = eps^2 for the branch.

    Both branches share a = pi^8/1260 and the middle coefficient
    b = -(pi^4/3)(1 + 4*pi^2*omega^2/15 - pi*beta*omega); they differ in
    the constant term.  ``omega`` is a float, or an array for which b and c
    are arrays.
    """
    if branch not in ("p", "n"):
        raise ModelError(f"branch must be 'p' or 'n', got {branch!r}")
    pi = math.pi
    w2 = _squares(omega)
    a = pi ** 8 / 1260.0
    b = -(pi ** 4 / 3.0) * (1.0 + 4.0 * pi ** 2 * w2 / 15.0 - pi * beta * omega)
    if branch == "p":
        c = 4.0 * pi ** 2 * w2 * (1.0 + pi ** 2 * w2 / 3.0 - beta * omega * pi)
    else:
        c = 4.0 * (
            1.0
            - beta * pi * omega
            + pi ** 2 * w2 * (1.0 + pi ** 2 * w2 / 3.0 - beta * omega * pi + beta ** 2)
        )
    return a, b, c


def order4_roots(omegas, beta: float) -> np.ndarray:
    """Fourth-order boundaries at K omegas and one beta, in one numpy pass:
    eps indexed [branch (p, n), domain (first, second), omega], NaN where absent.

    Each quartic is a quadratic in eps^2; real roots are labeled by
    magnitude -- the smaller eps^2 root bounds the first stability domain,
    the larger the second.  Complex eps^2 roots mean the branch has no
    boundary at that omega.  Each omega gets the arithmetic it gets alone.
    """
    omegas = _checked_points(omegas, np.zeros(np.size(omegas)), beta)[0]
    a, b, c_p = quartic_coefficients(omegas, beta, "p")
    c = np.stack((c_p, quartic_coefficients(omegas, beta, "n")[2]))
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


def boundary_order4(omega: float, beta: float) -> list[BoundaryRoot]:
    """Fourth-order boundaries at one omega: the positive roots of the two
    quartics in eps, from :func:`order4_roots`."""
    roots = order4_roots(np.array([omega], dtype=float), beta)[:, :, 0].tolist()
    return [BoundaryRoot(branch, domain, eps)
            for branch, per_domain in zip(("p", "n"), roots)
            for domain, eps in zip(("first", "second"), per_domain)
            if not math.isnan(eps)]


def order4_root(omega: float, beta: float, branch: str, domain: str = "first") -> Optional[float]:
    """Convenience lookup into :func:`boundary_order4`."""
    for root in boundary_order4(omega, beta):
        if root.branch == branch and root.domain == domain:
            return root.eps
    return None

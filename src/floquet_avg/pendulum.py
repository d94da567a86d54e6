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

from .averaging import SeriesSystem
from .errors import ModelError
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


def series_split_stack(omegas, epss, beta: float) -> SeriesSystem:
    """:func:`series_split` for K points (omega_k, eps_k) at one beta, as one
    system whose terms are stacks of K cells.

    Parameters are checked as :func:`jacobian_stack` checks them.
    """
    omegas, epss, w2 = _checked_points(omegas, epss, beta)
    return _split(epss, w2, -beta * omegas)


def _split(eps, w2, damping) -> SeriesSystem:
    """The graded series from scalars (one system) or (K,) arrays (a stack)."""
    eps = np.asarray(eps, dtype=float)
    j0 = np.array([[0.0, 1.0], [0.0, 0.0]])
    exc_plus = np.zeros(eps.shape + (2, 2, 1))
    exc_plus[..., 1, 0, 0] = eps
    j1 = PiecewisePolyMatrix(PERIOD, np.array([0.0, math.pi, PERIOD]), (exc_plus, -exc_plus))
    j2_mat = np.zeros(eps.shape + (2, 2))
    j2_mat[..., 1, 0] = w2
    j2_mat[..., 1, 1] = damping
    j2 = PiecewisePolyMatrix.constant(j2_mat, PERIOD)
    return SeriesSystem(PERIOD, j0, (j1, j2))


def _checked_points(omegas, epss, beta: float):
    """(omegas, epss, omega**2) as float arrays, checked point by point."""
    omegas = np.asarray(omegas, dtype=float)
    epss = np.asarray(epss, dtype=float)
    ok = (np.isfinite(omegas) & (omegas >= 0.0) & np.isfinite(epss) & (epss >= 0.0)
          & bool(np.isfinite(beta) and beta >= 0.0))
    if not ok.all():
        k = int(np.argmin(ok))
        PendulumParams(omegas[k], epss[k], beta)
    # libm pow, not omega * omega: the two differ in the last bit for about
    # one omega in a thousand, and the exact charts and boundaries use pow
    w2 = np.array([w ** 2 for w in omegas.tolist()])
    return omegas, epss, w2


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


def quartic_coefficients(omega: float, beta: float, branch: str):
    """(a, b, c) of a*x^2 + b*x + c = 0 with x = eps^2 for the branch.

    Both branches share a = pi^8/1260 and the middle coefficient
    b = -(pi^4/3)(1 + 4*pi^2*omega^2/15 - pi*beta*omega); they differ in
    the constant term.
    """
    if branch not in ("p", "n"):
        raise ModelError(f"branch must be 'p' or 'n', got {branch!r}")
    pi = math.pi
    a = pi ** 8 / 1260.0
    b = -(pi ** 4 / 3.0) * (1.0 + 4.0 * pi ** 2 * omega ** 2 / 15.0 - pi * beta * omega)
    if branch == "p":
        c = 4.0 * pi ** 2 * omega ** 2 * (1.0 + pi ** 2 * omega ** 2 / 3.0 - beta * omega * pi)
    else:
        c = 4.0 * (
            1.0
            - beta * pi * omega
            + pi ** 2 * omega ** 2 * (1.0 + pi ** 2 * omega ** 2 / 3.0 - beta * omega * pi + beta ** 2)
        )
    return a, b, c


def boundary_order4(omega: float, beta: float) -> list[BoundaryRoot]:
    """Fourth-order boundaries: positive roots of the two quartics in eps.

    Each quartic is a quadratic in eps^2; real roots are labeled by
    magnitude -- the smaller eps^2 root bounds the first stability domain,
    the larger the second.  Complex eps^2 roots mean the branch has no
    boundary at this omega.
    """
    PendulumParams(omega, 0.0, beta)
    roots = []
    for branch in ("p", "n"):
        a, b, c = quartic_coefficients(omega, beta, branch)
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            continue
        sq = math.sqrt(disc)
        # stable quadratic: larger-magnitude root first, mate via c/(a*x1)
        x1 = (-b + sq) / (2.0 * a) if b <= 0.0 else (-b - sq) / (2.0 * a)
        x2 = c / (a * x1) if x1 != 0.0 else 0.0
        lo, hi = sorted((x1, x2))
        if lo > 0.0:
            roots.append(BoundaryRoot(branch, "first", math.sqrt(lo)))
        if hi > 0.0:
            roots.append(BoundaryRoot(branch, "second", math.sqrt(hi)))
    return roots


def order4_root(omega: float, beta: float, branch: str, domain: str = "first") -> Optional[float]:
    """Convenience lookup into :func:`boundary_order4`."""
    for root in boundary_order4(omega, beta):
        if root.branch == branch and root.domain == domain:
            return root.eps
    return None

"""Order-K and exact-pc invariants against a 40-digit reference.

Scaling eps -> mu eps, omega^2 -> mu^2 omega^2 and beta omega -> mu^2 beta
omega (the grading of ``pendulum.series_split``) makes the averaged
expansion a power series in mu: the order-K trace partial sum is the
degree-K Taylor polynomial in mu of tr F_exact(mu) at mu = 1, and the
truncated determinant the same truncation of exp(-2 pi mu^2 beta omega).
The reference takes that Taylor polynomial of exp(J- pi) exp(J+ pi) by
truncated power-series arithmetic in mpmath at 40 digits, so it checks the
whole averaged layer (recursion, coefficient table, assembly and
truncation) against the exact monodromy alone, with no second recursion.
The exact-pc trace, the Hill discriminant 2 C+ C- + S+ S- tr(N- N+), is
checked against tr(exp(pi J-) exp(pi J+)) from ``mpmath.expm``.
"""

import functools

import numpy as np
import pytest
from mpmath import mp, mpf

from floquet_avg import scan

DEGREE = 6
# the largest error of the order-K trace and determinant over the points,
# K = 1..6: about 2.5 times the largest measured before the monodromy
# assembly moved into the table build (trace 0 / 4.3e-14 / 6.1e-13 /
# 1.2e-11 / 1.6e-10 / 1.3e-10, det 0 / 3.4e-14 / 3.9e-13 / 1.1e-11 /
# 3.2e-11 / 8.7e-11)
TRACE_BOUND = (1e-15, 1e-13, 2e-12, 3e-11, 4e-10, 4e-10)
DET_BOUND = (1e-15, 1e-13, 1e-12, 3e-11, 8e-11, 2.2e-10)


def reference_points():
    """24 seeded points: omega in [0, 0.5], eps in [0, 1.2], beta 0, 0.1 and 0.3."""
    rng = np.random.default_rng(2026)
    omegas, epss = rng.uniform(0.0, 0.5, 24), rng.uniform(0.0, 1.2, 24)
    return [(float(w), float(e), (0.0, 0.1, 0.3)[k % 3])
            for k, (w, e) in enumerate(zip(omegas, epss))]


def _series_mul(x, y):
    """The product of two 2x2 matrices whose entries are power series in mu,
    each a list by power of (m00, m01, m10, m11) or None for zero, to DEGREE."""
    out = []
    for d in range(DEGREE + 1):
        m = [mpf(0)] * 4
        for i in range(d + 1):
            p, q = x[i], y[d - i]
            if p is not None and q is not None:
                m[0] += p[0] * q[0] + p[1] * q[2]
                m[1] += p[0] * q[1] + p[1] * q[3]
                m[2] += p[2] * q[0] + p[3] * q[2]
                m[3] += p[2] * q[1] + p[3] * q[3]
        out.append(tuple(m))
    return out


def _series_expm(m):
    """exp(M) by its Taylor series, every term truncated at mu^DEGREE."""
    one = (mpf(1), mpf(0), mpf(0), mpf(1))
    term = [one] + [None] * DEGREE
    total = [one] + [(mpf(0),) * 4] * DEGREE
    tiny = mpf(10) ** -(mp.dps + 8)
    k = 0
    while True:
        k += 1
        term = [tuple(v / k for v in t) for t in _series_mul(term, m)]
        total = [tuple(u + v for u, v in zip(s, t)) for s, t in zip(total, term)]
        if k > 8 and max(abs(v) for t in term for v in t) < tiny:
            return total


def reference_invariants(omega, eps, beta):
    """(trace, det): the order-K partial sums of tr F and of the truncated
    det F at mu = 1, indexed by K = 0..DEGREE, at 40 digits."""
    with mp.workdps(40):
        w2, bw, pi = mpf(omega) ** 2, mpf(beta) * mpf(omega), mp.pi
        zero = mpf(0)

        def half(sign):  # J(mu) pi = (J0 + mu J1 + mu^2 J2) pi on one half period
            return [(zero, pi, zero, zero), (zero, zero, sign * mpf(eps) * pi, zero),
                    (zero, zero, w2 * pi, -bw * pi)] + [None] * (DEGREE - 2)

        f = _series_mul(_series_expm(half(-1)), _series_expm(half(1)))
        x = -2 * pi * bw
        dets = [x ** (d // 2) / mp.factorial(d // 2) if d % 2 == 0 else zero
                for d in range(DEGREE + 1)]
        return ([float(mp.fsum(t[0] + t[3] for t in f[: k + 1])) for k in range(DEGREE + 1)],
                [float(mp.fsum(dets[: k + 1])) for k in range(DEGREE + 1)])


@functools.lru_cache(maxsize=None)
def _references():
    return [(point, reference_invariants(*point)) for point in reference_points()]


@pytest.mark.parametrize("order", range(1, DEGREE + 1))
def test_order_k_invariants_match_the_40_digit_reference(order):
    for (omega, eps, beta), (trace, det) in _references():
        report = scan.point_report(omega, eps, beta, f"order{order}")
        assert abs(report.trace - trace[order]) <= TRACE_BOUND[order - 1], (omega, eps, beta)
        assert abs(report.determinant - det[order]) <= DET_BOUND[order - 1], (omega, eps, beta)


def exact_pc_points():
    """24 seeded points: omega in [0, 2], eps in [0, 5], beta 0, 0.1 and 0.3."""
    rng = np.random.default_rng(2027)
    omegas, epss = rng.uniform(0.0, 2.0, 24), rng.uniform(0.0, 5.0, 24)
    return [(float(w), float(e), (0.0, 0.1, 0.3)[k % 3])
            for k, (w, e) in enumerate(zip(omegas, epss))]


def reference_hill(omega, eps, beta):
    """(tr F, scale) at 40 digits: tr F of exp(pi J-) exp(pi J+) by
    ``mpmath.expm``, and the size max(1, |C+ C-| + |S+ S-| tr(N- N+)) of the
    closed form's two terms, with C = tr E / 2 and S = E[0, 1] / pi for
    E = exp(pi J) = C I + S N."""
    with mp.workdps(40):
        w2, bw, pi = mpf(omega) ** 2, mpf(beta) * mpf(omega), mp.pi
        e = [mp.expm(mp.matrix([[0, pi], [(w2 + sign * mpf(eps)) * pi, -bw * pi]]))
             for sign in (1, -1)]
        c = [(m[0, 0] + m[1, 1]) / 2 for m in e]
        s = [m[0, 1] / pi for m in e]
        trace_nn = 2 * pi ** 2 * w2 + pi ** 2 * bw ** 2 / 2
        scale = max(1, abs(c[0] * c[1]) + abs(s[0] * s[1]) * trace_nn)
        return float((e[1] * e[0])[0, 0] + (e[1] * e[0])[1, 1]), float(scale)


# the largest |tr F - reference| / scale over the points: 1.7e-15 measured
# for the closed form, 1.9e-15 for the trace of pc_monodromy's F
EXACT_PC_TRACE_BOUND = 4e-15


def test_exact_pc_hill_discriminant_matches_the_40_digit_reference():
    for omega, eps, beta in exact_pc_points():
        trace, scale = reference_hill(omega, eps, beta)
        report = scan.point_report(omega, eps, beta, "exact-pc")
        assert abs(report.trace - trace) <= EXACT_PC_TRACE_BOUND * scale, (omega, eps, beta)

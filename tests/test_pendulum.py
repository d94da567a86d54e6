import math

import numpy as np
import pytest

from conftest import paper_order2, paper_order4, paper_quartic, pendulum_pipeline
from floquet_avg import pendulum, scan
from floquet_avg.errors import ModelError
from floquet_avg.pendulum import (
    PendulumParams,
    jacobians,
    order4_root,
    order_roots,
    series_split,
)
from floquet_avg.ppoly import pp_eval

PI = math.pi
TWO_PI = 2.0 * math.pi


def test_jacobians_segments():
    sys = jacobians(PendulumParams(1.0, 2.0, 0.0))
    assert sys.max_degree == 0 and sys.period == TWO_PI
    assert np.array_equal(sys.breakpoints, [0.0, PI, TWO_PI])
    j_plus, j_minus = sys.coeffs[..., 0]
    assert np.array_equal(j_plus, np.array([[0.0, 1.0], [3.0, 0.0]]))
    assert np.array_equal(j_minus, np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_jacobians_without_excitation():
    # omega = 0.5, beta = 0.25 keep omega^2 and beta*omega exactly representable
    sys = jacobians(PendulumParams(0.5, 0.0, 0.25))
    j_plus, j_minus = sys.coeffs[..., 0]
    assert np.array_equal(j_plus, j_minus)
    assert np.array_equal(j_plus, np.array([[0.0, 1.0], [0.25, -0.125]]))


def test_jacobian_traces():
    for omega, eps, beta in ((0.3, 0.5, 0.2), (1.0, 2.0, 0.5)):
        sys = jacobians(PendulumParams(omega, eps, beta))
        for piece in sys.coeffs:
            assert abs(np.trace(piece[..., 0]) + beta * omega) < 1e-15


def test_params_validation():
    with pytest.raises(ModelError):
        PendulumParams(-0.1, 0.0, 0.0)
    with pytest.raises(ModelError):
        PendulumParams(0.1, math.nan, 0.0)
    # the boundary roots check omega and beta the same way
    for order in (2, 4):
        with pytest.raises(ModelError, match=r"omega must be finite and >= 0, got -0\.1"):
            order_roots([0.1, -0.1], 0.0, order)
        with pytest.raises(ModelError, match="beta must be finite and >= 0, got inf"):
            order_roots([0.1], math.inf, order)


def test_series_split_reconstructs_jacobians():
    p = PendulumParams(0.35, 0.75, 0.15)
    system = series_split(p)
    pc = jacobians(p)
    for t, segment in ((PI / 2, 0), (3 * PI / 2, 1)):
        total = system.J0.copy()
        for term in system.terms:
            total = total + pp_eval(term, t)
        assert np.abs(total - pc.coeffs[segment, ..., 0]).max() < 1e-14


def test_series_split_reconstruction_everywhere():
    p = PendulumParams(0.8, 1.4, 0.4)
    system = series_split(p)
    pc = jacobians(p)
    for t in np.linspace(0.0, TWO_PI, 33):
        segment = 0 if t < PI else 1
        total = system.J0.copy()
        for term in system.terms:
            total = total + pp_eval(term, t)
        assert np.abs(total - pc.coeffs[segment, ..., 0]).max() < 1e-14


def test_series_split_zero_excitation():
    system = series_split(PendulumParams(0.3, 0.0, 0.1))
    assert np.abs(system.terms[0].coeffs).max() == 0.0


def test_series_split_feeds_recursion_to_paper_a2():
    omega, eps, beta = 0.45, 1.1, 0.3
    _, _, _, a_list, _ = pendulum_pipeline(omega, eps, beta, 2)
    # spot-check the (1,1) entry of the order-2 average
    expect_11 = (1.0 / TWO_PI) * ((2.0 / 3.0) * eps ** 2 * PI ** 4 - 2 * PI ** 2 * omega ** 2)
    assert abs(a_list[1][0, 0] - expect_11) < 1e-11


def _order2(omega, beta):
    """(eps_p, eps_n) of order_roots at order 2 for one omega."""
    return order_roots([omega], beta, 2)[:, 0, 0].tolist()


def test_boundary_order2_values():
    p, n = _order2(0.2, 0.0)
    assert abs(p - 2.0 * math.sqrt(3.0) * 0.2 / PI) < 1e-15
    assert abs(p - 0.220532) < 1e-6
    assert abs(n - 0.414519) < 1e-6


def test_boundary_order2_at_zero_omega():
    p, n = _order2(0.0, 0.0)
    assert p == 0.0 and math.copysign(1.0, p) == 1.0
    assert abs(n - 2.0 * math.sqrt(3.0) / PI ** 2) < 1e-15


def test_boundary_order2_with_damping_moves_down():
    # the second-order n-formula decreases with beta; the exact boundary
    # moves the other way (see the order-4 and exact comparisons)
    _, n = _order2(0.2, 0.1)
    expect = (2.0 * math.sqrt(3.0) / PI) * math.sqrt(0.04 - 0.02 / PI + 1.0 / PI ** 2)
    assert abs(n - expect) < 1e-15
    assert abs(n - 0.40507) < 1e-5
    assert n < _order2(0.2, 0.0)[1]


def test_boundary_order2_no_boundary_on_negative_radicand():
    omega = 0.01
    beta = PI * omega + 1.0 / (PI * omega) + 1.0  # beyond the radicand zero
    assert math.isnan(paper_order2(omega, beta)[1])
    assert math.isnan(_order2(omega, beta)[1])


def _branch_polynomials(omega, beta, order):
    """The (2, d+1) coefficients in x = eps^2 of the order-K branch factors
    at one omega, p then n, as order_roots sums them."""
    start, rows, exponents = pendulum.averaged_table(order)._branch_polynomials
    b, c = exponents.reshape(rows.shape[1:] + (2,)).T
    return start + (rows * ((omega ** 2) ** b * (beta * omega) ** c).T).sum(axis=2)


def test_quartic_coefficients_at_reference_point():
    a, b, c = paper_quartic(0.2, 0.0, "p")
    assert abs(a - PI ** 8 / 1260.0) < 1e-12
    assert abs(a - 7.53058) < 1e-5
    assert abs(b + 35.8880) < 1e-3
    assert abs(c - 1.78694) < 1e-5
    # the order-4 p factor is minus the p quartic, the n factor the n quartic
    for omega, beta in ((0.2, 0.0), (0.05, 0.3), (0.45, 0.1), (0.0, 0.0)):
        for sign, branch, coeffs in zip((-1.0, 1.0), "pn", _branch_polynomials(omega, beta, 4)):
            quartic = sign * np.array(paper_quartic(omega, beta, branch)[::-1])
            assert np.abs(coeffs - quartic).max() < 1e-12 * np.abs(quartic).max()


def test_boundary_order4_roots_at_reference_point():
    (p_first, p_second), (n_first, n_second) = order_roots([0.2], 0.0, 4)[:, :, 0]
    assert abs(p_first - 0.224329) < 1e-5
    assert abs(p_second - 2.171476) < 1e-5
    assert np.isfinite(n_first) and np.isfinite(n_second)
    assert order4_root(0.2, 0.0, "p", "second") == p_second
    assert order4_root(0.2, 0.0, "n") == n_first


def test_boundary_order4_roots_satisfy_quartic():
    for omega, beta in ((0.2, 0.0), (0.1, 0.1), (0.3, 0.2)):
        for branch, per_domain in zip("pn", order_roots([omega], beta, 4)[:, :, 0]):
            a, b, c = paper_quartic(omega, beta, branch)
            assert np.isfinite(per_domain).all()
            for eps, closed in zip(per_domain.tolist(), paper_order4(omega, beta, branch)):
                assert abs(eps - closed) < 1e-12 * closed
                x = eps ** 2
                residual = a * x * x + b * x + c
                scale = max(abs(a * x * x), abs(b * x), abs(c))
                assert abs(residual) < 1e-9 * scale


@pytest.mark.parametrize("beta", [0.0, 0.3, 5.0, 50.0])
def test_order_roots_of_a_batch_equal_each_omegas_own_call_bitwise(beta):
    # beta 5 and 50 leave the n-branch without a boundary over part of the range
    omegas = np.concatenate(([0.0], np.random.default_rng(7).uniform(0.0, 20.0, 100)))
    for order in (2, 4, 6):
        roots = order_roots(omegas, beta, order)
        assert roots.shape == (2, order // 2, omegas.size)
        for k, omega in enumerate(omegas.tolist()):
            assert order_roots([omega], beta, order)[..., 0].tobytes() == roots[..., k].tobytes()
        if order == 2:
            closed = np.array([paper_order2(omega, beta) for omega in omegas.tolist()]).T
            present = ~np.isnan(closed)
            assert np.array_equal(~np.isnan(roots[:, 0]), present)
            # measured 1.4e-14 at eps up to 22
            assert np.abs(roots[:, 0][present] - closed[present]).max() < 5e-14
        if order < 6:
            # the odd order adds only odd powers of eps, which are dropped
            assert np.array_equal(order_roots(omegas, beta, order + 1), roots, equal_nan=True)
    if beta >= 5.0:
        assert np.isnan(order_roots(omegas, beta, 2)[1]).any()


@pytest.mark.parametrize("beta", [0.0, 0.3, 5.0])
def test_one_branch_roots_equal_their_row_of_both_branches_bitwise(beta):
    # a boundary command solved both branches' companion matrices and kept one
    omegas = np.concatenate(([0.0], np.random.default_rng(11).uniform(0.0, 20.0, 60)))
    for order in range(1, 7):
        both = order_roots(omegas, beta, order)
        for k, branch in enumerate("pn"):
            one = order_roots(omegas, beta, order, branch)
            assert one.shape == (1,) + both.shape[1:]
            assert one.tobytes() == both[k:k + 1].tobytes()
        assert order_roots(omegas, beta, order, "np").tobytes() == both[::-1].tobytes()
    with pytest.raises(ModelError, match="branches"):
        order_roots(omegas, beta, 2, "x")


def test_boundary_order4_n_constant_term_at_zero_omega():
    _, _, c = paper_quartic(0.0, 0.0, "n")
    assert c == 4.0
    # the n-boundary persists at omega = 0 (high-frequency stabilization ceiling)
    assert order4_root(0.0, 0.0, "n") is not None


def test_order_roots_at_zero_omega_and_order_one():
    # at omega = 0 the p factors have the root eps = 0, which the quartic's
    # stable formula reported as absent; order 1 adds tr F_1 = 0 to tr F0 = 2,
    # so its factors 1 + 1 -+ 2 have no root; neither warns
    omegas = np.array([0.0, 0.2])
    for order in (2, 4, 6):
        roots = order_roots(omegas, 0.1, order)
        assert roots[0, 0, 0] == 0.0 and math.copysign(1.0, roots[0, 0, 0]) == 1.0
        assert np.isfinite(roots[:, 0]).all()
    assert math.isnan(paper_order4(0.0, 0.0, "p")[0])
    assert order4_root(0.0, 0.0, "p") == 0.0
    roots = order_roots(omegas, 0.1, 1)
    assert roots.shape == (2, 1, 2) and np.isnan(roots).all()


# the largest odd-power coefficient of the order-K branch factors, about 2.5
# times the largest measured (0 / 0 / 5.4e-13 / 5.4e-13 / 9.2e-11 / 9.2e-11),
# against even-power coefficients up to 39 / 39 / 130 / 130 / 408 / 408
ODD_COEFFICIENT_BOUNDS = (1e-15, 1e-15, 1.4e-12, 1.4e-12, 2.3e-10, 2.3e-10)


@pytest.mark.parametrize("order", range(1, 7))
def test_odd_eps_coefficients_are_roundoff(order):
    # tr F and det F are even in eps (eps -> -eps is a half-period time
    # shift), so the odd powers order_roots drops carry roundoff only
    table = pendulum.averaged_table(order)
    _, rows = table._monodromy_rows
    factors = np.stack((rows[:, -1] - rows[:, -2], rows[:, -1] + rows[:, -2]))
    odd = table.exponents[:, 0] % 2 == 1
    assert np.abs(factors[:, odd]).max() <= ODD_COEFFICIENT_BOUNDS[order - 1]
    if order > 1:
        assert np.abs(factors[:, ~odd]).max() > 30.0


@pytest.mark.parametrize("order", range(1, 7))
def test_order_roots_are_sign_changes_of_the_scan_branch_factor(order):
    # every root, in every domain, is where the branch factor 1 + det F + s tr F
    # of the order-K cells changes sign, odd powers of eps included
    omegas = np.linspace(0.0, 0.5, 11)
    found = 0
    for beta in (0.0, 0.1, 0.3):
        roots = order_roots(omegas, beta, order)
        for branch, sign in enumerate((-1.0, 1.0)):
            margin = scan._margin_stack(omegas, beta, f"order{order}", np.full(omegas.size, sign))
            for eps in roots[branch]:
                k = np.flatnonzero(eps > 0.0)
                below = margin(k, eps[k] * (1.0 - 1e-9))[0]
                above = margin(k, eps[k] * (1.0 + 1e-9))[0]
                assert ((below < 0.0) != (above < 0.0)).all()
                found += k.size
    assert found == {1: 0, 2: 63, 3: 63, 4: 129, 5: 129, 6: 195}[order]


def test_order4_p_root_close_to_exact_at_small_omega():
    eps4 = order4_root(0.05, 0.0, "p")
    exact = scan.bisect_boundary(0.05, 0.0, (0.7 * eps4, 1.3 * eps4), "exact")
    assert abs(eps4 - exact) < 2e-3


def test_order4_converges_to_order2_as_omega_shrinks():
    omegas = [0.2, 0.1, 0.05, 0.025]
    rel = []
    for omega in omegas:
        e2 = _order2(omega, 0.0)[0]
        e4 = order4_root(omega, 0.0, "p")
        rel.append(abs(e4 - e2) / e2)
    slope = np.polyfit(np.log(omegas), np.log(rel), 1)[0]
    # quadratic approach: measured slope 1.96 on these samples, limit 2
    assert slope >= 1.9
    for coarse, fine in zip(rel[:-1], rel[1:]):
        assert coarse / fine > 3.0


def test_order4_reduces_to_order2_relation():
    # at beta = 0, dropping the omega^2 corrections inside the brackets and
    # the quartic term leaves -(pi^4/3) eps^2 + 4 pi^2 omega^2 = 0
    omega = 0.05
    _, b, c = paper_quartic(omega, 0.0, "p")
    b_reduced = -PI ** 4 / 3.0
    c_reduced = 4.0 * PI ** 2 * omega ** 2
    eps2 = -c_reduced / b_reduced
    assert abs(math.sqrt(eps2) - paper_order2(omega, 0.0)[0]) < 1e-14
    assert abs(math.sqrt(eps2) - _order2(omega, 0.0)[0]) < 1e-14
    # the dropped pieces are O(omega^2) relative corrections
    assert abs(b - b_reduced) / abs(b_reduced) < 2.0 * omega ** 2 * PI ** 2
    assert abs(c - c_reduced) / c_reduced < omega ** 2 * PI ** 2

import math

import numpy as np
import pytest

from conftest import pendulum_pipeline
from floquet_avg import scan
from floquet_avg.errors import ModelError
from floquet_avg.pendulum import (
    PendulumParams,
    boundary_order2,
    boundary_order4,
    jacobians,
    order4_root,
    quartic_coefficients,
    series_split,
)
from floquet_avg.ppoly import pp_eval

PI = math.pi
TWO_PI = 2.0 * math.pi


def test_jacobians_segments():
    sys = jacobians(PendulumParams(1.0, 2.0, 0.0))
    assert sys.max_degree == 0 and sys.period == TWO_PI
    assert np.array_equal(sys.breakpoints, [0.0, PI, TWO_PI])
    j_plus, j_minus = (piece[..., 0] for piece in sys.pieces)
    assert np.array_equal(j_plus, np.array([[0.0, 1.0], [3.0, 0.0]]))
    assert np.array_equal(j_minus, np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_jacobians_without_excitation():
    # omega = 0.5, beta = 0.25 keep omega^2 and beta*omega exactly representable
    sys = jacobians(PendulumParams(0.5, 0.0, 0.25))
    j_plus, j_minus = (piece[..., 0] for piece in sys.pieces)
    assert np.array_equal(j_plus, j_minus)
    assert np.array_equal(j_plus, np.array([[0.0, 1.0], [0.25, -0.125]]))


def test_jacobian_traces():
    for omega, eps, beta in ((0.3, 0.5, 0.2), (1.0, 2.0, 0.5)):
        sys = jacobians(PendulumParams(omega, eps, beta))
        for piece in sys.pieces:
            assert abs(np.trace(piece[..., 0]) + beta * omega) < 1e-15


def test_params_validation():
    with pytest.raises(ModelError):
        PendulumParams(-0.1, 0.0, 0.0)
    with pytest.raises(ModelError):
        PendulumParams(0.1, math.nan, 0.0)
    # the closed-form boundaries check omega and beta the same way
    for closed_form in (boundary_order2, boundary_order4):
        with pytest.raises(ModelError, match=r"omega must be finite and >= 0, got -0\.1"):
            closed_form(-0.1, 0.0)
        with pytest.raises(ModelError, match="beta must be finite and >= 0, got inf"):
            closed_form(0.1, math.inf)


def test_series_split_reconstructs_jacobians():
    p = PendulumParams(0.35, 0.75, 0.15)
    system = series_split(p)
    pc = jacobians(p)
    for t, segment in ((PI / 2, 0), (3 * PI / 2, 1)):
        total = system.J0.copy()
        for term in system.terms:
            total = total + pp_eval(term, t)
        assert np.abs(total - pc.pieces[segment][..., 0]).max() < 1e-14


def test_series_split_reconstruction_everywhere():
    p = PendulumParams(0.8, 1.4, 0.4)
    system = series_split(p)
    pc = jacobians(p)
    for t in np.linspace(0.0, TWO_PI, 33):
        segment = 0 if t < PI else 1
        total = system.J0.copy()
        for term in system.terms:
            total = total + pp_eval(term, t)
        assert np.abs(total - pc.pieces[segment][..., 0]).max() < 1e-14


def test_series_split_zero_excitation():
    system = series_split(PendulumParams(0.3, 0.0, 0.1))
    assert all(np.abs(piece).max() == 0.0 for piece in system.terms[0].pieces)


def test_series_split_feeds_recursion_to_paper_a2():
    omega, eps, beta = 0.45, 1.1, 0.3
    _, _, _, avg, _ = pendulum_pipeline(omega, eps, beta, 2)
    # spot-check the (1,1) entry of the order-2 average
    expect_11 = (1.0 / TWO_PI) * ((2.0 / 3.0) * eps ** 2 * PI ** 4 - 2 * PI ** 2 * omega ** 2)
    assert abs(avg.A[1][0, 0] - expect_11) < 1e-11


def test_boundary_order2_values():
    b = boundary_order2(0.2, 0.0)
    assert abs(b.eps_p - 2.0 * math.sqrt(3.0) * 0.2 / PI) < 1e-15
    assert abs(b.eps_p - 0.220532) < 1e-6
    assert abs(b.eps_n - 0.414519) < 1e-6


def test_boundary_order2_at_zero_omega():
    b = boundary_order2(0.0, 0.0)
    assert b.eps_p == 0.0
    assert abs(b.eps_n - 2.0 * math.sqrt(3.0) / PI ** 2) < 1e-15


def test_boundary_order2_with_damping_moves_down():
    # the second-order n-formula decreases with beta; the exact boundary
    # moves the other way (see the order-4 and exact comparisons)
    b = boundary_order2(0.2, 0.1)
    expect = (2.0 * math.sqrt(3.0) / PI) * math.sqrt(0.04 - 0.02 / PI + 1.0 / PI ** 2)
    assert abs(b.eps_n - expect) < 1e-15
    assert abs(b.eps_n - 0.40507) < 1e-5
    assert b.eps_n < boundary_order2(0.2, 0.0).eps_n


def test_boundary_order2_no_boundary_on_negative_radicand():
    omega = 0.01
    beta = PI * omega + 1.0 / (PI * omega) + 1.0  # beyond the radicand zero
    assert boundary_order2(omega, beta).eps_n is None


def test_quartic_coefficients_at_reference_point():
    a, b, c = quartic_coefficients(0.2, 0.0, "p")
    assert abs(a - PI ** 8 / 1260.0) < 1e-12
    assert abs(a - 7.53058) < 1e-5
    assert abs(b + 35.8880) < 1e-3
    assert abs(c - 1.78694) < 1e-5


def test_boundary_order4_roots_at_reference_point():
    roots = {(r.branch, r.domain): r.eps for r in boundary_order4(0.2, 0.0)}
    assert abs(roots[("p", "first")] - 0.224329) < 1e-5
    assert abs(roots[("p", "second")] - 2.171476) < 1e-5
    assert ("n", "first") in roots and ("n", "second") in roots


def test_boundary_order4_roots_satisfy_quartic():
    for omega, beta in ((0.2, 0.0), (0.1, 0.1), (0.3, 0.2)):
        for root in boundary_order4(omega, beta):
            a, b, c = quartic_coefficients(omega, beta, root.branch)
            x = root.eps ** 2
            residual = a * x * x + b * x + c
            scale = max(abs(a * x * x), abs(b * x), abs(c))
            assert abs(residual) < 1e-9 * scale


def test_boundary_order4_n_constant_term_at_zero_omega():
    _, _, c = quartic_coefficients(0.0, 0.0, "n")
    assert c == 4.0
    # the n-boundary persists at omega = 0 (high-frequency stabilization ceiling)
    assert order4_root(0.0, 0.0, "n") is not None


def test_order4_p_root_close_to_exact_at_small_omega():
    eps4 = order4_root(0.05, 0.0, "p")
    exact = scan.bisect_boundary(0.05, 0.0, (0.7 * eps4, 1.3 * eps4), "exact")
    assert abs(eps4 - exact) < 2e-3


def test_order4_converges_to_order2_as_omega_shrinks():
    omegas = [0.2, 0.1, 0.05, 0.025]
    rel = []
    for omega in omegas:
        e2 = boundary_order2(omega, 0.0).eps_p
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
    _, b, c = quartic_coefficients(omega, 0.0, "p")
    b_reduced = -PI ** 4 / 3.0
    c_reduced = 4.0 * PI ** 2 * omega ** 2
    eps2 = -c_reduced / b_reduced
    assert abs(math.sqrt(eps2) - boundary_order2(omega, 0.0).eps_p) < 1e-14
    # the dropped pieces are O(omega^2) relative corrections
    assert abs(b - b_reduced) / abs(b_reduced) < 2.0 * omega ** 2 * PI ** 2
    assert abs(c - c_reduced) / c_reduced < omega ** 2 * PI ** 2

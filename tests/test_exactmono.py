import math

import numpy as np
import pytest

from floquet_avg import exactmono, pendulum
from floquet_avg.errors import ModelError, NumericRangeError
from floquet_avg.exactmono import (
    RK_MAX_STEPS,
    RK_MAX_TOTAL_STEPS,
    exact_monodromy_pc,
    exact_monodromy_pc_stack,
    exact_monodromy_rk,
    pc_stack_to_ppoly,
)
from floquet_avg.ppoly import PiecewisePolyMatrix, pp_average
from floquet_avg.smallmat import norm1

PI = math.pi
TWO_PI = 2.0 * math.pi
J0 = np.array([[0.0, 1.0], [0.0, 0.0]])


def test_single_segment_free_drift():
    sys = PiecewisePolyMatrix.constant(J0, TWO_PI)
    expect = np.array([[1.0, TWO_PI], [0.0, 1.0]])
    assert np.abs(exact_monodromy_pc(sys) - expect).max() < 1e-14


def test_unexcited_pendulum_trace_is_2cosh_pi():
    f = exact_monodromy_pc(pendulum.jacobians(pendulum.PendulumParams(0.5, 0.0, 0.0)))
    assert abs(np.trace(f) - 2.0 * math.cosh(PI)) < 1e-10
    assert np.trace(f) > 2.0  # unstable without excitation


def test_determinant_closed_form_on_random_triples():
    rng = np.random.default_rng(21)
    for _ in range(50):
        omega, eps, beta = rng.uniform(0.0, 1.0, size=3)
        f = exact_monodromy_pc(pendulum.jacobians(pendulum.PendulumParams(omega, eps, beta)))
        expect = math.exp(-TWO_PI * beta * omega)
        assert abs(np.linalg.det(f) - expect) <= 1e-10 * expect


def test_segment_order_matters():
    # exp(pi J-) exp(pi J+) with distinct blocks is not symmetric in order
    p = pendulum.PendulumParams(0.3, 0.8, 0.0)
    sys = pendulum.jacobians(p)
    f = exact_monodromy_pc(sys)
    swapped = PiecewisePolyMatrix(TWO_PI, sys.breakpoints, sys.pieces[::-1])
    f_swapped = exact_monodromy_pc(swapped)
    assert norm1(f - f_swapped) > 1e-3
    # but the trace is conjugation-invariant
    assert abs(np.trace(f) - np.trace(f_swapped)) < 1e-12


def test_durations_must_sum_to_period():
    with pytest.raises(ModelError, match="sum"):
        pc_stack_to_ppoly(TWO_PI, (PI, PI / 2), [J0, J0])
    with pytest.raises(ModelError):
        pc_stack_to_ppoly(TWO_PI, (TWO_PI, -1.0), [J0, J0])


def test_rk_zero_system_is_identity():
    j = PiecewisePolyMatrix.zero(2, TWO_PI)
    assert np.array_equal(exact_monodromy_rk(j, 64), np.eye(2))


def test_rk_on_polynomial_solution_is_exact():
    # constant J0 gives X(t) = I + J0 t, a polynomial RK4 integrates exactly
    j = PiecewisePolyMatrix.constant(J0, TWO_PI)
    expect = np.array([[1.0, TWO_PI], [0.0, 1.0]])
    assert np.abs(exact_monodromy_rk(j, 64) - expect).max() < 1e-12


def test_rk_requires_minimum_steps():
    with pytest.raises(ModelError):
        exact_monodromy_rk(PiecewisePolyMatrix.zero(2, TWO_PI), 8)


def test_rk_rejects_steps_above_the_cap():
    # 10**8 steps per piece ran for hours instead of failing
    for steps in (RK_MAX_STEPS + 1, 10 ** 8):
        with pytest.raises(ModelError, match="steps_per_piece"):
            exact_monodromy_rk(PiecewisePolyMatrix.zero(2, TWO_PI), steps)


def test_rk_caps_the_steps_over_all_pieces(monkeypatch):
    # a 100-piece model file at 65536 steps per piece ran for minutes
    reached = []
    monkeypatch.setattr(exactmono, "rk4_monodromy_core",
                        lambda breaks, coeffs, steps: reached.append(breaks.size - 1) or np.eye(2))

    def pieces(m):
        return PiecewisePolyMatrix(TWO_PI, np.linspace(0.0, TWO_PI, m + 1),
                                   (np.zeros((2, 2, 1)),) * m)

    for m in (1, 4):
        exact_monodromy_rk(pieces(m), RK_MAX_STEPS)
    exact_monodromy_rk(pieces(100), RK_MAX_TOTAL_STEPS // 100)
    assert reached == [1, 4, 100]
    for m, steps in ((5, RK_MAX_STEPS), (100, RK_MAX_TOTAL_STEPS // 100 + 1)):
        with pytest.raises(ModelError, match=f"{m * steps}.*{RK_MAX_TOTAL_STEPS}"):
            exact_monodromy_rk(pieces(m), steps)


def test_rk_stack_slices_equal_single_systems():
    # pieces of degree 1 and 0 are padded to one dense block per piece
    rng = np.random.default_rng(23)
    linear = rng.uniform(-0.3, 0.3, (5, 2, 2, 2))
    const = rng.uniform(-0.5, 0.5, (5, 2, 2, 1))
    stack = PiecewisePolyMatrix(TWO_PI, np.array([0.0, 2.0, TWO_PI]), (linear, const))
    batched = exact_monodromy_rk(stack, 64)
    for k in range(5):
        alone = PiecewisePolyMatrix(TWO_PI, stack.breakpoints, (linear[k], const[k]))
        assert np.array_equal(batched[k], exact_monodromy_rk(alone, 64))


def test_pc_stack_view_matches_one_system_views():
    params = [(0.1, 0.2), (0.3, 0.4), (0.0, 0.9)]
    jac = pendulum.jacobian_stack([w for w, _ in params], [e for _, e in params], 0.1)
    stack = pc_stack_to_ppoly(TWO_PI, pendulum.HALF_PERIODS, jac)
    batched = exact_monodromy_rk(stack, 32)
    batched_pc = exact_monodromy_pc(stack)
    for k, (omega, eps) in enumerate(params):
        alone = pendulum.jacobians(pendulum.PendulumParams(omega, eps, 0.1))
        assert np.array_equal(stack.breakpoints, alone.breakpoints)
        assert all(np.array_equal(a[k], b) for a, b in zip(stack.pieces, alone.pieces))
        assert np.array_equal(batched[k], exact_monodromy_rk(alone, 32))
        assert np.array_equal(batched_pc[k], exact_monodromy_pc(alone))


def test_rk_agrees_with_exponential_products():
    p = pendulum.PendulumParams(0.3, 0.4, 0.1)
    jac = pendulum.jacobians(p)
    f_pc = exact_monodromy_pc(jac)
    f_rk = exact_monodromy_rk(jac, 512)
    assert norm1(f_rk - f_pc) < 1e-9


def test_rk_fourth_order_convergence():
    p = pendulum.PendulumParams(0.3, 0.4, 0.1)
    jpoly = pendulum.jacobians(p)
    f_pc = exact_monodromy_pc(jpoly)
    errs = [norm1(exact_monodromy_rk(jpoly, steps) - f_pc) for steps in (64, 128, 256)]
    for coarse, fine in zip(errs[:-1], errs[1:]):
        if fine < 1e-11:
            break
        assert coarse / fine >= 12.0


def test_rk_time_varying_coefficients():
    # J(t) = [[0, 1], [t/4, 0]] over [0, 2]: cross-check against a fine
    # reference run of the same integrator at 8x resolution
    block = np.zeros((2, 2, 2))
    block[0, 1, 0] = 1.0
    block[1, 0, 1] = 0.25
    j = PiecewisePolyMatrix(2.0, np.array([0.0, 2.0]), (block,))
    coarse = exact_monodromy_rk(j, 128)
    fine = exact_monodromy_rk(j, 1024)
    assert norm1(coarse - fine) < 1e-9
    # Liouville: trace of J is zero, so det X(T) = 1
    assert abs(np.linalg.det(fine) - 1.0) < 1e-12


def test_liouville_for_both_oracles():
    rng = np.random.default_rng(22)
    for _ in range(10):
        omega, eps, beta = rng.uniform(0.0, 1.0, size=3)
        sys = pendulum.jacobians(pendulum.PendulumParams(omega, eps, beta))
        expect = math.exp(TWO_PI * float(np.trace(pp_average(sys))))
        det_pc = np.linalg.det(exact_monodromy_pc(sys))
        det_rk = np.linalg.det(exact_monodromy_rk(sys, 1024))
        assert abs(det_pc - expect) <= 1e-9 * abs(expect)
        assert abs(det_rk - expect) <= 1e-9 * abs(expect)


def test_pc_ppoly_roundtrip():
    # the degree-0 view keeps the durations and the matrices of the array form
    p = pendulum.PendulumParams(0.2, 0.5, 0.1)
    mats = pendulum.jacobian_stack([p.omega], [p.eps], p.beta)[0]
    sys = pendulum.jacobians(p)
    assert sys.period == TWO_PI
    assert np.array_equal(np.diff(sys.breakpoints), pendulum.HALF_PERIODS)
    assert all(np.array_equal(piece[..., 0], m) for piece, m in zip(sys.pieces, mats))
    assert np.array_equal(exact_monodromy_pc(sys),
                          exact_monodromy_pc_stack(pendulum.HALF_PERIODS, mats[None])[0])


def test_exact_pc_rejects_polynomial_pieces():
    block = np.zeros((2, 2, 2))
    block[0, 1, 1] = 1.0
    with pytest.raises(ModelError, match="degree"):
        exact_monodromy_pc(PiecewisePolyMatrix(2.0, np.array([0.0, 2.0]), (block,)))


@pytest.mark.filterwarnings("error")
def test_overflowed_monodromy_is_a_range_error():
    # exp(2 pi omega) passes the float range from omega ~ 112 while every
    # Jacobian norm stays below the matrix-exponential guard
    mats = pendulum.jacobian_stack([100.0, 150.0], [0.0, 0.0], 0.0)
    assert np.isfinite(exact_monodromy_pc_stack(pendulum.HALF_PERIODS, mats[:1])).all()
    with pytest.raises(NumericRangeError, match="float range"):
        exact_monodromy_pc_stack(pendulum.HALF_PERIODS, mats)
    with pytest.raises(NumericRangeError, match="float range"):
        exact_monodromy_rk(pc_stack_to_ppoly(TWO_PI, pendulum.HALF_PERIODS, mats[1:]), 1024)

import math

import mpmath
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
    exact_monodromy_rk_stack,
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
    swapped = PiecewisePolyMatrix(TWO_PI, sys.breakpoints, sys.coeffs[::-1])
    f_swapped = exact_monodromy_pc(swapped)
    assert norm1(f - f_swapped) > 1e-3
    # but the trace is conjugation-invariant
    assert abs(np.trace(f) - np.trace(f_swapped)) < 1e-12


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


def _zero_pieces(m):
    return PiecewisePolyMatrix(TWO_PI, np.linspace(0.0, TWO_PI, m + 1), np.zeros((m, 2, 2, 1)))


# the one-system front and the stack entry, on a system of m zero pieces
RK_ENTRIES = {
    "one-system": lambda m, steps: exact_monodromy_rk(_zero_pieces(m), steps),
    "stack": lambda m, steps: exact_monodromy_rk_stack(
        _zero_pieces(m).breakpoints, np.zeros((3, m, 2, 2, 1)), steps),
}


@pytest.mark.parametrize("entry", RK_ENTRIES)
def test_rk_rejects_steps_above_the_cap(entry):
    # 10**8 steps per piece ran for hours instead of failing
    for steps in (RK_MAX_STEPS + 1, 10 ** 8):
        with pytest.raises(ModelError, match="steps_per_piece"):
            RK_ENTRIES[entry](1, steps)


@pytest.mark.parametrize("entry", RK_ENTRIES)
def test_rk_caps_the_steps_over_all_pieces(monkeypatch, entry):
    # a 100-piece model file at 65536 steps per piece ran for minutes
    reached = []
    monkeypatch.setattr(exactmono, "rk4_monodromy_core", lambda breaks, coeffs, steps: (
        reached.append((breaks.size - 1, coeffs.ndim)) or np.eye(2)))
    run = RK_ENTRIES[entry]
    for m in (1, 4):
        run(m, RK_MAX_STEPS)
    run(100, RK_MAX_TOTAL_STEPS // 100)
    # one system reaches the kernel as its own (m, n, n, d+1) array, which
    # the benchmark's RK4 step counter reads the piece count from
    ndim = 4 if entry == "one-system" else 5
    assert reached == [(1, ndim), (4, ndim), (100, ndim)]
    for m, steps in ((5, RK_MAX_STEPS), (100, RK_MAX_TOTAL_STEPS // 100 + 1)):
        with pytest.raises(ModelError, match=f"{m * steps}.*{RK_MAX_TOTAL_STEPS}"):
            run(m, steps)


def test_rk_stack_slices_equal_single_systems():
    # a degree-1 piece and a degree-0 piece padded to it, in five systems
    rng = np.random.default_rng(23)
    linear = rng.uniform(-0.3, 0.3, (5, 2, 2, 2))
    const = rng.uniform(-0.5, 0.5, (5, 2, 2, 1))
    breaks = np.array([0.0, 2.0, TWO_PI])
    coeffs = np.zeros((5, 2, 2, 2, 2))
    coeffs[:, 0], coeffs[:, 1, ..., :1] = linear, const
    batched = exact_monodromy_rk_stack(breaks, coeffs, 64)
    for k in range(5):
        alone = PiecewisePolyMatrix.from_blocks(TWO_PI, breaks, (linear[k], const[k]))
        assert alone.degrees == (1, 0) and np.array_equal(alone.coeffs, coeffs[k])
        assert np.array_equal(batched[k], exact_monodromy_rk(alone, 64))


def test_pc_stack_view_matches_one_system_views():
    params = [(0.1, 0.2), (0.3, 0.4), (0.0, 0.9)]
    jac = pendulum.jacobian_stack([w for w, _ in params], [e for _, e in params], 0.1)
    batched = exact_monodromy_rk_stack(pendulum.BREAKPOINTS, jac[..., None], 32)
    batched_pc = exact_monodromy_pc_stack(pendulum.HALF_PERIODS, jac)
    for k, (omega, eps) in enumerate(params):
        alone = pendulum.jacobians(pendulum.PendulumParams(omega, eps, 0.1))
        assert np.array_equal(alone.breakpoints, pendulum.BREAKPOINTS)
        assert np.array_equal(alone.coeffs, jac[k, ..., None])
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
    j = PiecewisePolyMatrix(2.0, np.array([0.0, 2.0]), block[None])
    coarse = exact_monodromy_rk(j, 128)
    fine = exact_monodromy_rk(j, 1024)
    assert norm1(coarse - fine) < 1e-9
    # Liouville: trace of J is zero, so det X(T) = 1
    assert abs(np.linalg.det(fine) - 1.0) < 1e-12


def _liouville_set():
    rng = np.random.default_rng(22)
    for _ in range(10):
        omega, eps, beta = rng.uniform(0.0, 1.0, size=3)
        yield pendulum.jacobians(pendulum.PendulumParams(omega, eps, beta))


def test_liouville_for_both_oracles():
    for sys in _liouville_set():
        expect = math.exp(TWO_PI * float(np.trace(pp_average(sys))))
        det_pc = np.linalg.det(exact_monodromy_pc(sys))
        det_rk = np.linalg.det(exact_monodromy_rk(sys, 1024))
        assert abs(det_pc - expect) <= 1e-9 * abs(expect)
        assert abs(det_rk - expect) <= 1e-9 * abs(expect)


def test_rk_product_keeps_the_liouville_determinant():
    # RK4 as a product of step matrices keeps the identity implicit.
    # Multiplying R = I + D directly rounds every small increment against the
    # diagonal and leaves residuals up to 8.9e-14 of the scale below at 4096
    # steps; the implicit product stays under 1e-15.  The scale is the size of
    # the two terms the 2x2 determinant cancels, up to 6600 times det F on
    # this set: relative to det F alone, even the correctly rounded RK4
    # monodromy misses 5e-13.
    for sys in _liouville_set():
        expect = math.exp(TWO_PI * float(np.trace(pp_average(sys))))
        f = exact_monodromy_rk(sys, 4096)
        scale = abs(f[0, 0] * f[1, 1]) + abs(f[0, 1] * f[1, 0])
        assert abs(np.linalg.det(f) - expect) <= 1e-14 * scale


def test_rk_matches_the_exact_rk4_map():
    # the same 4096 RK4 steps per piece multiplied out in 40-digit arithmetic;
    # multiplying R = I + D directly is 3.9e-13 off on this set
    for sys in _liouville_set():
        with mpmath.workdps(40):
            f = mpmath.eye(2)
            for p, piece in enumerate(sys.coeffs):
                j = mpmath.matrix(piece[..., 0].tolist())
                h = mpmath.mpf(float(sys.breakpoints[p + 1] - sys.breakpoints[p]) / 4096)
                k2 = j + h / 2 * j * j
                k3 = j + h / 2 * j * k2
                k4 = j + h * j * k3
                f = (mpmath.eye(2) + h / 6 * (j + 2 * k2 + 2 * k3 + k4)) ** 4096 * f
            ref = np.array(f.tolist(), dtype=float)
        got = exact_monodromy_rk(sys, 4096)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_pc_ppoly_roundtrip():
    # the degree-0 view keeps the durations and the matrices of the array form
    p = pendulum.PendulumParams(0.2, 0.5, 0.1)
    mats = pendulum.jacobian_stack([p.omega], [p.eps], p.beta)[0]
    sys = pendulum.jacobians(p)
    assert sys.period == TWO_PI
    assert np.array_equal(np.diff(sys.breakpoints), pendulum.HALF_PERIODS)
    assert np.array_equal(sys.coeffs[..., 0], mats)
    assert np.array_equal(exact_monodromy_pc(sys),
                          exact_monodromy_pc_stack(pendulum.HALF_PERIODS, mats[None])[0])


def test_exact_pc_rejects_polynomial_pieces():
    block = np.zeros((2, 2, 2))
    block[0, 1, 1] = 1.0
    with pytest.raises(ModelError, match="degree"):
        exact_monodromy_pc(PiecewisePolyMatrix(2.0, np.array([0.0, 2.0]), block[None]))


@pytest.mark.filterwarnings("error")
def test_overflowed_monodromy_is_a_range_error():
    # exp(2 pi omega) passes the float range from omega ~ 112 while every
    # Jacobian norm stays below the matrix-exponential guard
    mats = pendulum.jacobian_stack([100.0, 150.0], [0.0, 0.0], 0.0)
    assert np.isfinite(exact_monodromy_pc_stack(pendulum.HALF_PERIODS, mats[:1])).all()
    with pytest.raises(NumericRangeError, match="float range"):
        exact_monodromy_pc_stack(pendulum.HALF_PERIODS, mats)
    with pytest.raises(NumericRangeError, match="float range"):
        exact_monodromy_rk_stack(pendulum.BREAKPOINTS, mats[1:, ..., None], 1024)

"""The batched kernels: per-slice arithmetic and stack independence of the
matrix exponentials and the RK4 integrator, and an independent
high-precision oracle for the exponentials."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floquet_avg import _kernels
from floquet_avg.errors import ModelError, NumericRangeError
from floquet_avg.smallmat import matexp, matexp_stack


def _scalar_matexp(a):
    """One-matrix scaling and squaring written as plain loops: the
    arithmetic every slice of ``matexp_core`` must reproduce bit for bit."""
    n = a.shape[0]

    def norm1(x):
        best = 0.0
        for j in range(n):
            col = 0.0
            for i in range(n):
                col += abs(x[i, j])
            if col > best:
                best = col
        return best

    s = 0
    scaled = norm1(a)
    while scaled > 0.5:
        scaled *= 0.5
        s += 1
    b = a / (2.0 ** s)
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, 31):
        term = np.dot(term, b) / k
        out = out + term
        if norm1(term) <= 2.0 ** -53 * norm1(out):
            break
    for _ in range(s):
        out = np.dot(out, out)
    return out


def _mixed_stack(rng, n, count=24):
    # norms from 1e-9 to 1e3, so slices need 0 to about 11 squarings and
    # stop their Taylor series after very different numbers of terms
    mats = rng.standard_normal((count, n, n))
    scales = 10.0 ** rng.uniform(-9.0, 3.0, count)
    return mats * (scales / np.abs(mats).sum(axis=1).max(axis=1))[:, None, None]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_stack_slices_equal_scalar_arithmetic(n):
    stack = _mixed_stack(np.random.default_rng(n), n)
    batched = _kernels.matexp_core(stack)
    for k in range(stack.shape[0]):
        assert np.array_equal(batched[k], _scalar_matexp(stack[k]))


@pytest.mark.parametrize("n", [2, 4])
def test_stack_slices_equal_one_at_a_time_matexp(n):
    rng = np.random.default_rng(10 + n)
    stack = _mixed_stack(rng, n)
    times = rng.uniform(-3.0, 3.0, stack.shape[0])
    batched = matexp_stack(stack, times)
    for k in range(stack.shape[0]):
        assert np.array_equal(batched[k], matexp(stack[k], times[k]))
    # a slice's result does not depend on its neighbours in the stack
    order = rng.permutation(stack.shape[0])
    assert np.array_equal(matexp_stack(stack[order], times[order]), batched[order])
    assert np.array_equal(matexp_stack(stack[:3], times[:3]), batched[:3])


def test_matexp_core_short_series_on_tiny_input():
    # norm below 0.5 means no scaling: series must still hit full precision
    a = np.array([[0.0, 1e-8], [0.0, 0.0]])
    out = _kernels.matexp_core(a)
    assert out[0, 1] == 1e-8 and out[0, 0] == 1.0


def test_matexp_stack_reports_first_failing_slice():
    good = np.array([[0.0, 1.0], [-1.0, 0.0]])
    huge = np.array([[0.0, 1.0], [3e6, 0.0]])
    bad = np.array([[np.nan, 0.0], [0.0, 0.0]])
    with pytest.raises(NumericRangeError, match="3e"):
        matexp_stack(np.stack([good, huge, bad]), 1.0)
    with pytest.raises(ModelError, match="finite"):
        matexp_stack(np.stack([good, bad, huge]), 1.0)
    with pytest.raises(ModelError):
        matexp_stack(good, 1.0)  # a single matrix goes through matexp


def _mp_expm(m, t):
    mpmath.mp.dps = 50
    exact = mpmath.expm(mpmath.matrix(m.tolist()) * mpmath.mpf(float(t)))
    return np.array([[float(exact[i, j]) for j in range(m.shape[1])]
                     for i in range(m.shape[0])])


@pytest.mark.parametrize("m, t", [
    # the pendulum's half-period Jacobians (omega = 0.2, eps = 0.3, beta = 0.1)
    (np.array([[0.0, 1.0], [0.34, -0.02]]), np.pi),
    (np.array([[0.0, 1.0], [-0.26, -0.02]]), np.pi),
    (np.array([[0.0, 1.0], [-4.0, 0.0]]), 2.5),  # a rotation, 5 squarings
    (np.array([[0.1, -0.7], [1.2, 0.3]]), 1.7),
    (np.array([[0.0, 1.0, 0.0, 0.0], [-2.0, -0.1, 0.5, 0.0],
               [0.0, 0.0, 0.0, 1.0], [0.5, 0.0, -3.0, -0.2]]), 2.0),
    (np.array([[-1.0, 0.3, 0.0, 0.2], [0.0, -0.5, 0.8, 0.0],
               [0.1, 0.0, 0.2, -0.4], [0.0, 0.6, 0.0, -0.9]]), 3.0),
])
def test_matexp_against_mpmath_50_digits(m, t):
    ref = _mp_expm(m, t)
    got = matexp(m, t)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("m", [
    np.diag([-1600.0, 0.0]),  # e^mu cosh(s) is 0 * inf = NaN here
    np.array([[-700.0, 3.0], [200.0, -900.0]]),  # e^mu underflows to 0, the result does not
    np.array([[0.0, 1e5], [-1e-5, 0.0]]),  # a rotation through a badly scaled basis
    np.array([[300.0, 1.0], [1.0, -300.0]]),
    np.array([[-400.0, 1e3], [-1e3, -400.0]]),  # complex pair, s = 1000
    np.array([[1.0, 1.0], [-1.0 + 1e-14, -1.0]]),  # near-defective: delta ~ 1e-14
    np.array([[2.0, -4.0], [1.0, -2.0]]),  # nilpotent: exp = I + m
    np.zeros((2, 2)),
])
def test_closed_form_2x2_against_mpmath(m):
    ref = _mp_expm(m, 1.0)
    got = _kernels.expm2_core(m)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.array_equal(matexp(m, 1.0), got)


@pytest.mark.parametrize("seed", [2, 12])
def test_closed_form_2x2_agrees_with_scaling_and_squaring(seed):
    # the stacks of the n = 2 stack tests, norms 1e-9 to 1e3; both kernels err
    # by a few roundoffs times the norm (up to 11 squarings for matexp_core)
    stack = _mixed_stack(np.random.default_rng(seed), 2)
    closed = _kernels.expm2_core(stack)
    series = _kernels.matexp_core(stack)
    norms = np.maximum(1.0, np.abs(stack).sum(axis=1).max(axis=1))
    for k in range(stack.shape[0]):
        bound = 64 * 2.0 ** -53 * norms[k] * np.abs(series[k]).max()
        assert np.abs(closed[k] - series[k]).max() <= bound
    # one slice at a time is the same arithmetic
    for k in range(stack.shape[0]):
        assert np.array_equal(_kernels.expm2_core(stack[k]), closed[k])


_GUARD_EDGES = st.sampled_from([0.0, -0.0, 5e-324, -1e-300, 1e-150, 354.9, 709.0, 710.0,
                                -745.0, 4.9e5, -4.9e5])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(entries=st.lists(st.one_of(st.floats(-1e6, 1e6), _GUARD_EDGES), min_size=4, max_size=4),
       t=st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, 1.0, np.pi])))
def test_closed_form_2x2_raises_no_warning_inside_the_guard(entries, t):
    # overflow (e^(mu + s) beyond the float range, inf * 0 where an entry is
    # 0), underflow and s = 0 stay inside the kernel's errstate
    m = np.array(entries).reshape(1, 2, 2)
    try:
        out = matexp_stack(m, t)
    except NumericRangeError:
        return
    assert out.shape == (1, 2, 2)
    assert np.array_equal(out[0], _kernels.expm2_core(m[0] * t), equal_nan=True)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_closed_form_2x2_overflow_is_silent_and_non_finite():
    out = _kernels.expm2_core(np.array([[[710.0, 0.0], [0.0, -710.0]],
                                        [[1e300, 1e300], [1e300, 1e300]],
                                        [[-1e300, 1.0], [-1.0, -1e300]]]))
    assert not np.isfinite(out[0]).all() and not np.isfinite(out[1]).all()
    assert np.array_equal(out[2], np.zeros((2, 2)))


def _scalar_rk4(breaks, coeffs, steps_per_piece):
    """One-system RK4 written as plain loops with scalar Horner evaluation
    and a Kahan-compensated state update: the reference that every slice of
    ``rk4_monodromy_core``, a product of step matrices, matches to roundoff.
    ``coeffs`` is (m, n, n, d+1)."""
    n, d = coeffs.shape[1], coeffs.shape[3]

    def horner(block, t):
        out = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                acc = block[i, j, d - 1]
                for k in range(d - 2, -1, -1):
                    acc = acc * t + block[i, j, k]
                out[i, j] = acc
        return out

    x = np.eye(n)
    carry = np.zeros((n, n))
    for p in range(coeffs.shape[0]):
        t0, t1 = breaks[p], breaks[p + 1]
        h = (t1 - t0) / steps_per_piece
        for k in range(steps_per_piece):
            t = t0 + k * h
            k1 = np.dot(horner(coeffs[p], t), x)
            jmid = horner(coeffs[p], t + 0.5 * h)
            k2 = np.dot(jmid, x + (0.5 * h) * k1)
            k3 = np.dot(jmid, x + (0.5 * h) * k2)
            k4 = np.dot(horner(coeffs[p], t + h), x + h * k3)
            step = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4) - carry
            updated = x + step
            carry = (updated - x) - step
            x = updated
    return x


RK4_BREAKS = np.array([0.0, 1.3, np.pi, 2.0 * np.pi])


def _random_pieces(rng, n, degree, count):
    # (3 pieces, K, n, n, d+1), with per-system scales from 0.05 to 2
    coeffs = rng.standard_normal((3, count, n, n, degree + 1))
    return coeffs * 10.0 ** rng.uniform(-1.3, 0.3, count)[None, :, None, None, None]


def _assert_matches_scalar_loop(got, coeffs, steps):
    ref = _scalar_rk4(RK4_BREAKS, coeffs, steps)
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("n, degree", [(2, 0), (2, 1), (4, 0), (4, 2)])
def test_rk4_stack_slices_equal_scalar_loop(n, degree):
    rng = np.random.default_rng(100 + 10 * n + degree)
    count = 12
    coeffs = _random_pieces(rng, n, degree, count)
    # 16, 17 and 1000 steps are not powers of two, so the squaring chain
    # multiplies in odd bits and the block trees carry odd leftovers;
    # 1000 steps also end a piece on a short block
    for steps in (16, 17, 20, 1000):
        stacked = _kernels.rk4_monodromy_core(RK4_BREAKS, coeffs, steps)
        assert stacked.shape == (count, n, n)
        # the scalar loop is slow, so at 1000 steps every fourth system
        for k in range(0, count, 1 if steps < 100 else 4):
            _assert_matches_scalar_loop(stacked[k], coeffs[:, k], steps)
        # one system without the cell axis, permuted and truncated stacks
        assert np.array_equal(_kernels.rk4_monodromy_core(RK4_BREAKS, coeffs[:, 5], steps),
                              stacked[5])
        order = rng.permutation(count)
        assert np.array_equal(_kernels.rk4_monodromy_core(RK4_BREAKS, coeffs[:, order], steps),
                              stacked[order])
        assert np.array_equal(_kernels.rk4_monodromy_core(RK4_BREAKS, coeffs[:, :3], steps),
                              stacked[:3])


def test_rk4_mixed_constant_and_linear_pieces():
    # a constant piece takes the squaring chain and a linear one the block
    # trees, decided per system: piece 0 is constant for every system and
    # piece 2 for the first three only
    rng = np.random.default_rng(130)
    coeffs = _random_pieces(rng, 2, 1, 6)
    coeffs[0, ..., 1] = 0.0
    coeffs[2, :3, ..., 1] = 0.0
    for steps in (16, 17, 1000):
        stacked = _kernels.rk4_monodromy_core(RK4_BREAKS, coeffs, steps)
        for k in range(6):
            _assert_matches_scalar_loop(stacked[k], coeffs[:, k], steps)
            assert np.array_equal(_kernels.rk4_monodromy_core(RK4_BREAKS, coeffs[:, k], steps),
                                  stacked[k])


@pytest.mark.parametrize("degree", [0, 1])
def test_rk4_slices_do_not_depend_on_the_stack_size(degree):
    # 600 2x2 systems: blocks of steps sized from the stack (65536 values over
    # 3 stages of K n x n matrices) would hold 27 steps here and give the
    # product trees another shape than a lone system's
    rng = np.random.default_rng(140 + degree)
    count = 600
    coeffs = _random_pieces(rng, 2, degree, count)
    steps = 100
    stacked = _kernels.rk4_monodromy_core(RK4_BREAKS, coeffs, steps)
    for k in range(count):
        assert np.array_equal(stacked[k], _kernels.rk4_monodromy_core(RK4_BREAKS, coeffs[:, k], steps))

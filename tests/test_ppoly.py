import math

import numpy as np
import pytest

from floquet_avg.errors import ModelError, NumericRangeError
from floquet_avg.ppoly import (
    PiecewisePolyMatrix,
    pp_add,
    pp_antiderivative,
    pp_average,
    pp_eval,
    pp_mul,
    pp_sub,
)

PI = math.pi
TWO_PI = 2.0 * math.pi


def pendulum_h1(eps=1.0):
    """H_1 of the pendulum: +/- eps * [[-t, -t^2], [1, t]], sign flip at pi."""
    block = np.zeros((2, 2, 3))
    block[0, 0, 1] = -1.0  # -t
    block[0, 1, 2] = -1.0  # -t^2
    block[1, 0, 0] = 1.0
    block[1, 1, 1] = 1.0
    return PiecewisePolyMatrix(
        TWO_PI, np.array([0.0, PI, TWO_PI]), (eps * block, -eps * block)
    )


def pendulum_a1(eps=1.0):
    return (eps / TWO_PI) * np.array([[PI ** 2, 2 * PI ** 3], [0.0, -PI ** 2]])


def test_identity_times_anything_unchanged():
    a = PiecewisePolyMatrix.constant(np.eye(2), TWO_PI)
    b = pendulum_h1()
    prod = pp_mul(a, b)
    for t in (0.0, 1.0, PI, 4.0, TWO_PI):
        assert np.abs(pp_eval(prod, t) - pp_eval(b, t)).max() < 1e-15


def test_nilpotent_square_is_zero():
    block = np.zeros((2, 2, 2))
    block[0, 1, 1] = 1.0  # [[0, t], [0, 0]]
    a = PiecewisePolyMatrix(TWO_PI, np.array([0.0, TWO_PI]), (block,))
    sq = pp_mul(a, a)
    assert all(np.abs(p).max() == 0.0 for p in sq.pieces)


def test_product_matches_pointwise_oracle():
    # H1+ . H1+ at t=1 against the numeric product of the evaluated matrix
    h1 = pendulum_h1(eps=1.0)
    sq = pp_mul(h1, h1)
    value = pp_eval(h1, 1.0)
    assert np.abs(pp_eval(sq, 1.0) - value @ value).max() < 1e-13


def test_product_pointwise_at_random_times():
    rng = np.random.default_rng(11)
    a = pendulum_h1(eps=0.7)
    blocks = tuple(rng.uniform(-1, 1, size=(2, 2, 4)) for _ in range(2))
    b = PiecewisePolyMatrix(TWO_PI, np.array([0.0, 2.0, TWO_PI]), blocks)
    prod = pp_mul(a, b)
    for lo, hi in zip(prod.breakpoints[:-1], prod.breakpoints[1:]):
        for t in rng.uniform(lo, hi, size=20):
            want = pp_eval(a, t) @ pp_eval(b, t)
            got = pp_eval(prod, t)
            scale = max(np.abs(want).max(), 1.0)
            assert np.abs(got - want).max() < 1e-12 * scale


def test_antiderivative_of_zero_and_constant():
    zero = PiecewisePolyMatrix.zero(2, TWO_PI)
    assert np.abs(pp_eval(pp_antiderivative(zero), TWO_PI)).max() == 0.0
    c = np.array([[1.0, -2.0], [0.5, 3.0]])
    anti = pp_antiderivative(PiecewisePolyMatrix.constant(c, TWO_PI))
    assert np.abs(pp_eval(anti, TWO_PI) - TWO_PI * c).max() < 1e-14
    assert np.abs(pp_eval(anti, 1.25) - 1.25 * c).max() < 1e-14


def test_antiderivative_of_pendulum_h1_over_period():
    # the full integral over one period is T times the average
    anti = pp_antiderivative(pendulum_h1(eps=1.0))
    expect = TWO_PI * pendulum_a1(eps=1.0)
    assert np.abs(pp_eval(anti, TWO_PI) - expect).max() < 1e-12


def test_average_constant_and_ramp():
    c = np.array([[2.0, 0.0], [1.0, -1.0]])
    assert np.abs(pp_average(PiecewisePolyMatrix.constant(c, TWO_PI)) - c).max() < 1e-15
    ramp = np.zeros((1, 1, 2))
    ramp[0, 0, 1] = 1.0  # entry t on [0, 2*pi]: mean is pi
    a = PiecewisePolyMatrix(TWO_PI, np.array([0.0, TWO_PI]), (ramp,))
    assert abs(pp_average(a)[0, 0] - PI) < 1e-14


def test_average_of_pendulum_h1():
    got = pp_average(pendulum_h1(eps=0.85))
    assert np.abs(got - pendulum_a1(eps=0.85)).max() < 1e-14


def test_eval_examples():
    c = np.array([[4.0, 1.0], [0.0, 2.0]])
    cp = PiecewisePolyMatrix.constant(c, TWO_PI)
    assert np.array_equal(pp_eval(cp, 0.3), c)
    h1 = pendulum_h1(eps=1.0)
    assert np.abs(pp_eval(h1, 0.0) - np.array([[0.0, 0.0], [1.0, 0.0]])).max() == 0.0


def test_u1_vanishes_at_period():
    # U1 = antiderivative of (H1 - A1) must close up at t = T
    h1 = pendulum_h1(eps=1.0)
    u1 = pp_antiderivative(pp_sub(h1, PiecewisePolyMatrix.constant(pendulum_a1(), TWO_PI)))
    assert np.abs(pp_eval(u1, TWO_PI)).max() < 1e-12


def test_average_same_code_path_as_antiderivative():
    rng = np.random.default_rng(12)
    blocks = tuple(rng.uniform(-2, 2, size=(3, 3, 5)) for _ in range(3))
    a = PiecewisePolyMatrix(TWO_PI, np.array([0.0, 1.0, 4.0, TWO_PI]), blocks)
    direct = pp_average(a)
    via_anti = pp_eval(pp_antiderivative(a), TWO_PI) / TWO_PI
    assert np.abs(direct - via_anti).max() < 1e-14


def test_antiderivative_is_continuous_at_breakpoints():
    rng = np.random.default_rng(13)
    blocks = tuple(rng.uniform(-5, 5, size=(2, 2, 6)) for _ in range(4))
    a = PiecewisePolyMatrix(TWO_PI, np.array([0.0, 0.9, PI, 5.0, TWO_PI]), blocks)
    anti = pp_antiderivative(a)
    scale = anti.max_coeff()
    for k in range(1, len(anti.breakpoints) - 1):
        t = anti.breakpoints[k]
        left = anti.pieces[k - 1]
        right = anti.pieces[k]
        lv = sum(left[:, :, d] * t ** d for d in range(left.shape[2]))
        rv = sum(right[:, :, d] * t ** d for d in range(right.shape[2]))
        assert np.abs(lv - rv).max() < 1e-12 * scale


def test_eval_outside_period_is_range_error():
    a = PiecewisePolyMatrix.constant(np.eye(2), TWO_PI)
    with pytest.raises(NumericRangeError):
        pp_eval(a, -0.1)
    with pytest.raises(NumericRangeError):
        pp_eval(a, TWO_PI + 0.1)
    # t = T evaluates the last piece
    assert np.array_equal(pp_eval(a, TWO_PI), np.eye(2))


def test_mismatch_errors():
    a = PiecewisePolyMatrix.constant(np.eye(2), TWO_PI)
    b = PiecewisePolyMatrix.constant(np.eye(3), TWO_PI)
    with pytest.raises(ModelError):
        pp_mul(a, b)
    c = PiecewisePolyMatrix.constant(np.eye(2), PI)
    with pytest.raises(ModelError):
        pp_add(a, c)


def test_degree_cap_enforced():
    big = np.zeros((1, 1, 40))
    big[0, 0, -1] = 1.0
    a = PiecewisePolyMatrix(TWO_PI, np.array([0.0, TWO_PI]), (big,))
    with pytest.raises(ModelError):
        pp_mul(a, a)  # degree 78 > 64


def test_breakpoint_validation():
    with pytest.raises(ModelError):
        PiecewisePolyMatrix(TWO_PI, np.array([0.0, 1.0, 1.0, TWO_PI]),
                            tuple(np.zeros((1, 1, 1)) for _ in range(3)))
    with pytest.raises(ModelError):
        PiecewisePolyMatrix(TWO_PI, np.array([0.5, TWO_PI]), (np.zeros((1, 1, 1)),))


def test_non_finite_breakpoints_rejected():
    with pytest.raises(ModelError):
        PiecewisePolyMatrix(TWO_PI, np.array([0.0, math.nan, TWO_PI]),
                            tuple(np.zeros((1, 1, 1)) for _ in range(2)))


# -- the cell axis: a stack of K functions over shared breakpoints ----------

def _convolve_mul(a, b):
    """The product as an i/j/k loop of np.convolve calls on one function:
    the reference the broadcast multiply-accumulate must agree with."""
    breaks = np.union1d(a.breakpoints, b.breakpoints)
    n = a.dim
    pieces = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        mid = 0.5 * (lo + hi)
        pa = a.pieces[min(int(np.searchsorted(a.breakpoints, mid, side="right")) - 1,
                          len(a.pieces) - 1)]
        pb = b.pieces[min(int(np.searchsorted(b.breakpoints, mid, side="right")) - 1,
                          len(b.pieces) - 1)]
        out = np.zeros((n, n, pa.shape[2] + pb.shape[2] - 1))
        for i in range(n):
            for j in range(n):
                acc = np.zeros(out.shape[2])
                for k in range(n):
                    acc += np.convolve(pa[i, k], pb[k, j])
                out[i, j] = acc
        pieces.append(out)
    return PiecewisePolyMatrix(a.period, breaks, tuple(pieces))


def _random_stack(rng, cells, n, degrees, breaks):
    return PiecewisePolyMatrix(TWO_PI, np.asarray(breaks), tuple(
        rng.uniform(-2.0, 2.0, size=(cells, n, n, d + 1)) for d in degrees))


def _cell(a, k):
    """Cell k of a stack as a single function."""
    return PiecewisePolyMatrix(a.period, a.breakpoints, tuple(p[k] for p in a.pieces))


def _take(a, index):
    """The stack of cells ``index`` of a stack, in that order."""
    return PiecewisePolyMatrix(a.period, a.breakpoints, tuple(p[index] for p in a.pieces))


@pytest.mark.parametrize("n", [2, 4])
def test_batched_product_agrees_with_convolve_reference(n):
    rng = np.random.default_rng(40 + n)
    a = _random_stack(rng, 6, n, (2, 7), [0.0, PI, TWO_PI])
    b = _random_stack(rng, 6, n, (5, 0, 3), [0.0, 1.0, 4.0, TWO_PI])
    prod = pp_mul(a, b)
    for k in range(6):
        want = _convolve_mul(_cell(a, k), _cell(b, k))
        assert np.array_equal(prod.breakpoints, want.breakpoints)
        for got, ref in zip(prod.pieces, want.pieces):
            assert got[k].shape == ref.shape
            assert np.abs(got[k] - ref).max() <= 1e-12 * np.abs(ref).max()


def _ops(a, b):
    """Every ppoly operation on a pair of stacks (or single functions)."""
    anti = pp_antiderivative(a)
    return {
        "mul": pp_mul(a, b).pieces,
        "add": pp_add(a, b).pieces,
        "sub": pp_sub(a, b).pieces,
        "antiderivative": anti.pieces,
        "eval": (pp_eval(a, 0.0), pp_eval(a, 2.5), pp_eval(anti, TWO_PI)),
        "average": (pp_average(b),),
        "max_coeff": (np.asarray(a.max_coeff()),),
    }


def test_every_cell_of_a_batch_equals_its_own_run_bitwise():
    rng = np.random.default_rng(7)
    a = _random_stack(rng, 9, 2, (3, 8), [0.0, PI, TWO_PI])
    b = _random_stack(rng, 9, 2, (11, 1, 4), [0.0, 1.0, 4.0, TWO_PI])
    full = _ops(a, b)
    permutation = rng.permutation(9)
    permuted = _ops(_take(a, permutation), _take(b, permutation))
    truncated = _ops(_take(a, np.arange(3)), _take(b, np.arange(3)))
    for k in range(9):
        alone = _ops(_take(a, [k]), _take(b, [k]))
        single = _ops(_cell(a, k), _cell(b, k))
        position = int(np.flatnonzero(permutation == k)[0])
        for name, arrays in full.items():
            for x, x_alone, x_single, x_perm in zip(arrays, alone[name], single[name],
                                                     permuted[name]):
                assert np.array_equal(x[k], x_alone[0]), name
                assert np.array_equal(x[k], x_single), name
                assert np.array_equal(x[k], x_perm[position]), name
            if k < 3:
                for x, x_trunc in zip(arrays, truncated[name]):
                    assert np.array_equal(x[k], x_trunc[k]), name


def test_single_function_broadcasts_against_a_stack():
    rng = np.random.default_rng(8)
    stack = _random_stack(rng, 5, 3, (2, 6), [0.0, 2.0, TWO_PI])
    single = PiecewisePolyMatrix(TWO_PI, np.array([0.0, PI, TWO_PI]),
                                 tuple(rng.uniform(-1, 1, size=(3, 3, d + 1)) for d in (4, 1)))
    assert single.cells is None and stack.cells == 5
    for op in (pp_mul, pp_add, pp_sub):
        left, right = op(single, stack), op(stack, single)
        assert left.cells == right.cells == 5
        for k in range(5):
            for got, want in zip(left.pieces, op(single, _cell(stack, k)).pieces):
                assert np.array_equal(got[k], want)
            for got, want in zip(right.pieces, op(_cell(stack, k), single).pieces):
                assert np.array_equal(got[k], want)


def test_stack_shape_errors():
    rng = np.random.default_rng(9)
    with pytest.raises(ModelError, match="cell count"):
        pp_mul(_random_stack(rng, 3, 2, (1,), [0.0, TWO_PI]),
               _random_stack(rng, 4, 2, (1,), [0.0, TWO_PI]))
    with pytest.raises(ModelError):  # pieces disagree on K
        PiecewisePolyMatrix(TWO_PI, np.array([0.0, PI, TWO_PI]),
                            (np.zeros((3, 2, 2, 1)), np.zeros((4, 2, 2, 1))))
    with pytest.raises(ModelError):  # one stacked piece, one single piece
        PiecewisePolyMatrix(TWO_PI, np.array([0.0, PI, TWO_PI]),
                            (np.zeros((3, 2, 2, 1)), np.zeros((2, 2, 1))))
    stack = PiecewisePolyMatrix.constant(np.ones((3, 2, 2)), TWO_PI)
    assert stack.cells == 3 and stack.pieces[0].shape == (3, 2, 2, 1)
    assert np.array_equal(stack.max_coeff(), np.ones(3))

import math

import numpy as np
import pytest

from floquet_avg import ppoly
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
        TWO_PI, np.array([0.0, PI, TWO_PI]), np.stack((eps * block, -eps * block))
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
    a = PiecewisePolyMatrix(TWO_PI, np.array([0.0, TWO_PI]), block[None])
    sq = pp_mul(a, a)
    assert np.abs(sq.coeffs).max() == 0.0


def test_product_matches_pointwise_oracle():
    # H1+ . H1+ at t=1 against the numeric product of the evaluated matrix
    h1 = pendulum_h1(eps=1.0)
    sq = pp_mul(h1, h1)
    value = pp_eval(h1, 1.0)
    assert np.abs(pp_eval(sq, 1.0) - value @ value).max() < 1e-13


def test_product_pointwise_at_random_times():
    rng = np.random.default_rng(11)
    a = pendulum_h1(eps=0.7)
    b = PiecewisePolyMatrix(TWO_PI, np.array([0.0, 2.0, TWO_PI]),
                            rng.uniform(-1, 1, size=(2, 2, 2, 4)))
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
    a = PiecewisePolyMatrix(TWO_PI, np.array([0.0, TWO_PI]), ramp[None])
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


@pytest.mark.parametrize("breaks", [
    [0.0, 1.0, 4.0, TWO_PI],
    [0.0, 1.0, 4.0, TWO_PI * (1.0 - 5e-13)],
    [0.0, 1.0, 4.0, TWO_PI * (1.0 + 5e-13)],
    # a last piece that starts beyond the period: T lies in the one before it
    [0.0, 1.0, TWO_PI * (1.0 + 2e-13), TWO_PI * (1.0 + 5e-13)],
], ids=["at-T", "short-of-T", "past-T", "last-piece-past-T"])
def test_average_same_code_path_as_antiderivative(breaks):
    # pp_average takes the value at T from the join that sets the constants
    rng = np.random.default_rng(12)
    a = PiecewisePolyMatrix(TWO_PI, np.array(breaks), rng.uniform(-2, 2, size=(3, 3, 3, 5)))
    via_anti = pp_eval(pp_antiderivative(a), TWO_PI) / TWO_PI
    assert pp_average(a).tobytes() == via_anti.tobytes()


def test_antiderivative_is_continuous_at_breakpoints():
    rng = np.random.default_rng(13)
    # pieces of degree 1, 3, 5 and 0, zero-padded to degree 5
    blocks = [rng.uniform(-5, 5, size=(2, 2, d + 1)) for d in (1, 3, 5, 0)]
    a = PiecewisePolyMatrix.from_blocks(TWO_PI, np.array([0.0, 0.9, PI, 5.0, TWO_PI]), blocks)
    assert a.degrees == (1, 3, 5, 0) and a.coeffs.shape == (4, 2, 2, 6)
    anti = pp_antiderivative(a)
    assert anti.degrees == (2, 4, 6, 1)
    scale = np.abs(anti.coeffs).max()
    for k in range(1, len(anti.breakpoints) - 1):
        t = anti.breakpoints[k]
        left = anti.coeffs[k - 1]
        right = anti.coeffs[k]
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


def test_results_that_leave_the_float_range_are_range_errors():
    # finite coefficients whose product, value or antiderivative constant
    # overflows; the constructor's "piece coefficients must be finite" read
    # as a validation error.  numpy's warning is silenced by the caller, as
    # the averaging layer does
    big = PiecewisePolyMatrix(10.0, np.array([0.0, 10.0]),
                              np.array([[[[0.0, 1e308]]]]))  # 1e308 t on [0, 10]
    two = PiecewisePolyMatrix(10.0, np.array([0.0, 5.0, 10.0]),
                              np.array([[[[1e308]]], [[[1e308]]]]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericRangeError, match="float range"):
            pp_mul(big, big)
        with pytest.raises(NumericRangeError, match="float range"):
            pp_eval(big, 10.0)
        with pytest.raises(NumericRangeError, match="float range"):
            pp_antiderivative(two)


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
    a = PiecewisePolyMatrix(TWO_PI, np.array([0.0, TWO_PI]), big[None])
    with pytest.raises(ModelError):
        pp_mul(a, a)  # degree 78 > 64
    # the cap is per interval: degree 39 meets degree 0, then 0 meets 39
    high_low = PiecewisePolyMatrix.from_blocks(TWO_PI, np.array([0.0, PI, TWO_PI]),
                                               [big, np.ones((1, 1, 1))])
    low_high = PiecewisePolyMatrix.from_blocks(TWO_PI, np.array([0.0, PI, TWO_PI]),
                                               [np.ones((1, 1, 1)), big])
    assert pp_mul(high_low, low_high).degrees == (39, 39)
    with pytest.raises(ModelError, match="product degree 78 exceeds cap 64"):
        pp_mul(high_low, high_low)
    with pytest.raises(ModelError, match="polynomial degree 65 exceeds cap 64"):
        PiecewisePolyMatrix.from_blocks(TWO_PI, np.array([0.0, PI, TWO_PI]),
                                        [np.ones((1, 1, 1)), np.ones((1, 1, 66))])


def test_breakpoint_validation():
    with pytest.raises(ModelError):
        PiecewisePolyMatrix(TWO_PI, np.array([0.0, 1.0, 1.0, TWO_PI]), np.zeros((3, 1, 1, 1)))
    with pytest.raises(ModelError):
        PiecewisePolyMatrix(TWO_PI, np.array([0.5, TWO_PI]), np.zeros((1, 1, 1, 1)))


def test_non_finite_breakpoints_rejected():
    with pytest.raises(ModelError):
        PiecewisePolyMatrix(TWO_PI, np.array([0.0, math.nan, TWO_PI]), np.zeros((2, 1, 1, 1)))


# -- each piece at its own degree ------------------------------------------

def _convolve_mul(a, b):
    """The product as an i/j/k loop of np.convolve calls on one function:
    the reference the broadcast multiply-accumulate must agree with."""
    breaks = np.union1d(a.breakpoints, b.breakpoints)
    n = a.dim
    pieces = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        mid = 0.5 * (lo + hi)
        ka = min(int(np.searchsorted(a.breakpoints, mid, side="right")) - 1, len(a.coeffs) - 1)
        kb = min(int(np.searchsorted(b.breakpoints, mid, side="right")) - 1, len(b.coeffs) - 1)
        pa = a.coeffs[ka, ..., : a.degrees[ka] + 1]
        pb = b.coeffs[kb, ..., : b.degrees[kb] + 1]
        out = np.zeros((n, n, pa.shape[2] + pb.shape[2] - 1))
        for i in range(n):
            for j in range(n):
                acc = np.zeros(out.shape[2])
                for k in range(n):
                    acc += np.convolve(pa[i, k], pb[k, j])
                out[i, j] = acc
        pieces.append(out)
    return PiecewisePolyMatrix.from_blocks(a.period, breaks, pieces)


def _random_function(rng, n, degrees, breaks):
    """A function whose pieces have the given degrees, zero-padded to the top one."""
    return PiecewisePolyMatrix.from_blocks(TWO_PI, np.asarray(breaks), [
        rng.uniform(-2.0, 2.0, size=(n, n, d + 1)) for d in degrees])


def test_minus_ramp_is_the_antiderivative_of_the_shifted_function_bitwise():
    # U_n = W - A_n t from the antiderivative W that gave A_n, with its
    # constants set afresh, is bitwise the antiderivative of f - A_n
    rng = np.random.default_rng(7)
    f = _random_function(rng, 2, (3, 0, 5), [0.0, 1.0, PI, TWO_PI])
    w, w_end, partial = ppoly._antiderivative(f.coeffs, f.degrees, f.breakpoints.copy(), TWO_PI)
    slope = w_end / TWO_PI
    assert np.array_equal(slope, pp_average(f))
    (u, degrees, breaks), u_end = ppoly._minus_ramp(w, slope, TWO_PI, partial)
    expect = pp_antiderivative(pp_sub(f, PiecewisePolyMatrix.constant(slope, TWO_PI)))
    assert np.array_equal(u, expect.coeffs) and degrees == expect.degrees
    assert np.array_equal(breaks, expect.breakpoints)
    assert np.array_equal(w[0][..., 2:], u[..., 2:])
    # each join's total at T is the value Horner gives there
    assert np.array_equal(w_end, pp_eval(pp_antiderivative(f), TWO_PI))
    assert np.array_equal(u_end, pp_eval(expect, TWO_PI))


@pytest.mark.parametrize("n", [2, 4])
def test_product_agrees_with_convolve_reference(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(6):
        # pieces of unequal degree, each padded to its function's top degree
        a = _random_function(rng, n, (1, 3), [0.0, PI, TWO_PI])
        b = _random_function(rng, n, (5, 0, 3), [0.0, 1.0, 4.0, TWO_PI])
        prod = pp_mul(a, b)
        # each interval of [0, 1, pi, 4, 2 pi] has its own degree, not the sum
        # of the two top degrees (8); above it the padding stays exact zeros
        assert prod.degrees == (6, 1, 3, 6) and prod.max_degree == 6
        for k, degree in enumerate(prod.degrees):
            assert not prod.coeffs[k, ..., degree + 1:].any()
        want = _convolve_mul(a, b)
        assert np.array_equal(prod.breakpoints, want.breakpoints)
        assert prod.degrees == want.degrees
        for got, ref in zip(prod.coeffs, want.coeffs):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


BREAKS = np.array([0.0, 1.0, PI, 4.0, TWO_PI])


@pytest.mark.parametrize("breaks_a, breaks_b", [
    (BREAKS, BREAKS),
    (BREAKS, BREAKS.copy()),
    # 2 - 3e-12 and 2 are closer than breakpoints merge: one interval edge
    ([0.0, 1.0, 2.0, 4.0, TWO_PI], [0.0, 1.0, 2.0 - 3e-12, 4.0, TWO_PI]),
    ([0.0, PI, TWO_PI], BREAKS),
    # a's piece on [1, 1 + 1e-13] merges away, and b's breakpoint at 2 takes
    # its place in the count: a's piece on [1 + 1e-13, 4] is in force on [1, 2]
    ([0.0, 1.0, 1.0 + 1e-13, 4.0, TWO_PI], [0.0, 2.0, 4.0, TWO_PI]),
], ids=["one-array", "equal-arrays", "near-break", "refined", "short-piece"])
def test_each_piece_equals_its_own_one_piece_run_bitwise(breaks_a, breaks_b):
    # a product adds each coefficient's terms in one order fixed by that
    # coefficient alone, and padding adds only exact zeros: padding a piece
    # to its function's top degree, or meeting pieces of other degrees,
    # changes none of its bits
    rng = np.random.default_rng(14)
    a = _random_function(rng, 3, (1, 5, 0, 3)[:len(breaks_a) - 1], breaks_a)
    b = _random_function(rng, 3, (4, 2, 0, 6)[:len(breaks_b) - 1], breaks_b)

    def alone(f, t):
        """The piece of f in force at t, as a one-piece function."""
        k = np.searchsorted(f.breakpoints, t, side="right") - 1
        block = f.coeffs[k:k + 1, ..., : f.degrees[k] + 1]
        return PiecewisePolyMatrix(TWO_PI, np.array([0.0, TWO_PI]), block)

    for op in (pp_mul, pp_add, pp_sub):
        whole = op(a, b)
        assert whole.breakpoints.size == 5
        for k, t in enumerate(0.5 * (whole.breakpoints[:-1] + whole.breakpoints[1:])):
            piece = op(alone(a, t), alone(b, t))
            assert whole.degrees[k] == piece.max_degree
            assert np.array_equal(whole.coeffs[k:k + 1, ..., : piece.max_degree + 1],
                                  piece.coeffs)
            assert not whole.coeffs[k, ..., piece.max_degree + 1:].any()


def test_shape_errors():
    with pytest.raises(ModelError):  # one (n, n, d+1) block without the piece axis
        PiecewisePolyMatrix(TWO_PI, np.array([0.0, TWO_PI]), np.zeros((2, 2, 1)))
    with pytest.raises(ModelError):  # pieces that are not square
        PiecewisePolyMatrix(TWO_PI, np.array([0.0, PI, TWO_PI]), np.zeros((2, 2, 3, 1)))
    for degrees in ((2,), ()):  # one degree, or none, for two pieces
        with pytest.raises(ModelError):
            PiecewisePolyMatrix(TWO_PI, np.array([0.0, PI, TWO_PI]), np.zeros((2, 2, 2, 3)),
                                degrees)
    with pytest.raises(ModelError):  # a degree beyond the coefficients
        PiecewisePolyMatrix(TWO_PI, np.array([0.0, PI, TWO_PI]), np.zeros((2, 2, 2, 3)), (2, 3))
    with pytest.raises(ModelError):  # pieces disagree on n
        PiecewisePolyMatrix.from_blocks(TWO_PI, np.array([0.0, PI, TWO_PI]),
                                        (np.zeros((2, 2, 1)), np.zeros((3, 3, 1))))


def test_a_stack_of_functions_is_rejected():
    # one function per object: a leading axis of K functions is a shape error
    with pytest.raises(ModelError, match=r"\(m, n, n, d\+1\)"):
        PiecewisePolyMatrix(TWO_PI, np.array([0.0, PI, TWO_PI]), np.zeros((3, 2, 2, 2, 1)))
    with pytest.raises(ModelError, match=r"\(n, n, d\+1\)"):
        PiecewisePolyMatrix.from_blocks(TWO_PI, np.array([0.0, PI, TWO_PI]),
                                        (np.zeros((3, 2, 2, 1)), np.zeros((3, 2, 2, 1))))


# -- one summation order per coefficient ------------------------------------

def _matmul_by_coefficient(pa, pb):
    """pa(t) @ pb(t) piece by piece, one output coefficient at a time, in
    Python floats: the contracted index outermost, then pa's power ascending."""
    m, n, da, db = pa.shape[0], pa.shape[1], pa.shape[-1], pb.shape[-1]
    out = np.zeros((m, n, n, da + db - 1))
    for p, i, j, r in np.ndindex(out.shape):
        acc = 0.0
        for k in range(n):
            for s in range(max(0, r - db + 1), min(da, r + 1)):
                acc += float(pa[p, i, k, s]) * float(pb[p, k, j, r - s])
        out[p, i, j, r] = acc
    return out


@pytest.mark.parametrize("da, db", [(2, 5), (4, 4), (6, 3)])
def test_poly_matmul_sums_each_coefficient_in_one_fixed_order(da, db):
    rng = np.random.default_rng(da * 10 + db)
    pa = rng.uniform(-2.0, 2.0, size=(2, 3, 3, da))
    pb = rng.uniform(-2.0, 2.0, size=(2, 3, 3, db))
    assert ppoly._poly_matmul(pa, pb).tobytes() == _matmul_by_coefficient(pa, pb).tobytes()


def _padded(x, extra):
    """``x`` with ``extra`` zero coefficients appended to every piece."""
    return np.concatenate([x, np.zeros(x.shape[:-1] + (extra,))], axis=-1)


@pytest.mark.parametrize("seed", range(12))
def test_zero_padding_one_factor_changes_no_bit_of_a_product_or_sum(seed):
    # the padded factor goes from the shorter to the longer of the two, its
    # degrees unchanged: a padded coefficient adds only exact zeros.  Even
    # seeds hold every piece at its factor's top degree, odd ones mix degrees
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 5)), 3
    widths = [int(w) for w in rng.choice(np.arange(2, 7), size=2, replace=False)]

    def factor(width, pieces):
        low = width - 1 if seed % 2 == 0 else 0
        degrees = tuple(int(d) for d in rng.integers(low, width, pieces - 1)) + (width - 1,)
        coeffs = rng.uniform(-2.0, 2.0, size=(pieces, n, n, width))
        for k, d in enumerate(degrees):
            coeffs[k, ..., d + 1:] = 0.0
        return coeffs, degrees

    (pa, da), (pb, db) = factor(widths[0], m), factor(widths[1], int(rng.choice((1, m))))
    extra = abs(widths[0] - widths[1]) + int(rng.integers(1, 4))
    cases = ((_padded(pa, extra), da, pb, db) if widths[0] < widths[1]
             else (pa, da, _padded(pb, extra), db))
    for kernel, args in ((ppoly._product, ()), (ppoly._sum, (1.0,)), (ppoly._sum, (-1.0,))):
        want, want_degrees = kernel(pa, da, pb, db, *args)
        got, got_degrees = kernel(*cases, *args)
        assert got_degrees == want_degrees
        assert got[..., : want.shape[-1]].tobytes() == want.tobytes()
        assert got.shape == want.shape

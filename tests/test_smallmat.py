import math

import numpy as np
import pytest

from floquet_avg.errors import ModelError, NumericRangeError
from floquet_avg.smallmat import as_matrix, matexp, norm1
from floquet_avg.stability import classify

J0 = np.array([[0.0, 1.0], [0.0, 0.0]])
TWO_PI = 2.0 * math.pi


def test_matexp_zero_time_is_identity():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3, 5, 8):
        m = rng.uniform(-3, 3, size=(n, n))
        assert np.array_equal(matexp(m, 0.0), np.eye(n))


def test_matexp_nilpotent_generator_over_one_period():
    expect = np.array([[1.0, TWO_PI], [0.0, 1.0]])
    assert np.abs(matexp(J0, TWO_PI) - expect).max() < 1e-14


def test_matexp_hyperbolic_closed_form():
    # analytic exponential of [[0,1],[w^2,0]]: eigenvalues +/- w
    w = 0.5
    m = np.array([[0.0, 1.0], [w * w, 0.0]])
    c, s = math.cosh(TWO_PI * w), math.sinh(TWO_PI * w)
    expect = np.array([[c, s / w], [w * s, c]])
    assert np.abs(matexp(m, TWO_PI) - expect).max() < 1e-10


def test_matexp_semigroup_property():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        m = rng.uniform(-1, 1, size=(n, n))
        m *= 2.0 / max(norm1(m), 2.0)  # ||m||_1 <= 2
        a, b = rng.uniform(0.0, TWO_PI, size=2)
        lhs = matexp(m, a + b)
        rhs = matexp(m, a) @ matexp(m, b)
        assert norm1(lhs - rhs) <= 1e-10 * norm1(lhs)


def test_matexp_liouville_determinant():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        m = rng.uniform(-1, 1, size=(n, n))
        t = float(rng.uniform(0.0, 4.0))
        det = np.linalg.det(matexp(m, t))
        expect = math.exp(t * np.trace(m))
        assert abs(det - expect) <= 1e-10 * abs(expect)


def test_matexp_rejects_nonfinite_and_huge():
    with pytest.raises(ModelError):
        matexp(np.array([[np.nan, 0.0], [0.0, 0.0]]), 1.0)
    with pytest.raises(ModelError):
        matexp(J0, math.inf)
    with pytest.raises(NumericRangeError):
        matexp(np.array([[2e6, 0.0], [0.0, 2e6]]), 1.0)


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(ModelError):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(ModelError):
        as_matrix(np.zeros((9, 9)))  # dimension cap


# the characteristic roots of a 2x2 monodromy matrix are its multipliers
# as classify reports them


def test_char_roots_identity():
    r1, r2 = classify(np.eye(2)).multipliers
    assert r1 == 1.0 and r2 == 1.0


def test_char_roots_unipotent():
    r1, r2 = classify(np.array([[1.0, TWO_PI], [0.0, 1.0]])).multipliers
    assert abs(r1 - 1.0) < 1e-14 and abs(r2 - 1.0) < 1e-14


def test_char_roots_diagonal_larger_first():
    r1, r2 = classify(np.diag([2.0, 0.25])).multipliers
    assert abs(r1 - 2.0) < 1e-14
    assert abs(r2 - 0.25) < 1e-14


def test_char_roots_complex_pair():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])  # multipliers +/- i
    r1, r2 = classify(rot).multipliers
    assert r1 == r2.conjugate()
    assert abs(abs(r1) - 1.0) < 1e-14


def test_char_roots_vieta():
    rng = np.random.default_rng(4)
    for _ in range(50):
        f = rng.uniform(-2, 2, size=(2, 2))
        tr, det = np.trace(f), np.linalg.det(f)
        r1, r2 = classify(f).multipliers
        assert abs(r1 * r2 - det) <= 1e-12 * (1.0 + abs(det))
        assert abs(r1 + r2 - tr) <= 1e-12 * (1.0 + abs(tr))

import math

import numpy as np
import pytest

from conftest import pendulum_pipeline
from floquet_avg import averaging, pendulum
from floquet_avg.averaging import SeriesSystem
from floquet_avg.errors import ModelError, NumericRangeError
from floquet_avg.exactmono import exact_monodromy_pc, exact_monodromy_pc_stack
from floquet_avg.ppoly import PiecewisePolyMatrix
from floquet_avg.stability import (
    Verdict,
    classify,
    det_series,
    det_series_expansion,
    margin_exact,
    order_approximation,
    pc_trace_det,
    report_from_trace_det,
)

PI = math.pi
TWO_PI = 2.0 * math.pi


def test_classify_contraction():
    r = classify(0.5 * np.eye(2))
    assert r.trace == 1.0 and r.determinant == 0.25
    assert abs(r.margin_trace - 0.25) < 1e-15
    assert abs(r.margin_det - 0.75) < 1e-15
    assert r.verdict is Verdict.STABLE


def test_classify_unipotent_is_marginal():
    r = classify(np.array([[1.0, TWO_PI], [0.0, 1.0]]))
    assert r.trace == 2.0 and r.determinant == 1.0
    assert r.margin_trace == 0.0 and r.margin_det == 0.0
    assert r.verdict is Verdict.MARGINAL


def test_classify_pendulum_exact_points():
    def verdict(omega, eps, beta):
        f = exact_monodromy_pc(pendulum.jacobians(pendulum.PendulumParams(omega, eps, beta)))
        return classify(f).verdict

    # beta = 0 keeps det at 1, so stability is never strict
    assert verdict(0.3, 0.4, 0.0) is not Verdict.STABLE
    assert verdict(0.3, 0.4, 0.05) is Verdict.STABLE
    assert verdict(0.3, 0.1, 0.05) is Verdict.UNSTABLE


def test_classify_rejects_other_dimensions():
    with pytest.raises(ModelError):
        classify(np.eye(3))


def test_multiplier_product_matches_determinant():
    rng = np.random.default_rng(31)
    for _ in range(50):
        f = rng.uniform(-3, 3, size=(2, 2))
        r = classify(f)
        prod = r.multipliers[0] * r.multipliers[1]
        assert abs(prod - r.determinant) <= 1e-10 * (1.0 + abs(r.determinant))


def test_margin_trace_is_exactly_zero_on_the_boundary():
    # companion-form F with det = |tr| - 1 sits on the trace boundary
    for tr in (1.25, 1.5, 2.0, -1.75):
        det = abs(tr) - 1.0
        f = np.array([[0.0, -det], [1.0, tr]])
        assert classify(f).margin_trace == 0.0


def test_margin_exact_signs():
    # no excitation: unstable, margin 2 - 2cosh(0.4*pi)
    m0 = margin_exact(pendulum.PendulumParams(0.2, 0.0, 0.0))
    assert abs(m0 - (2.0 - 2.0 * math.cosh(0.4 * PI))) < 1e-12
    assert m0 < 0.0
    assert margin_exact(pendulum.PendulumParams(0.2, 0.3, 0.0)) > 0.0
    assert margin_exact(pendulum.PendulumParams(0.2, 0.6, 0.0)) < 0.0


def test_pc_trace_det_takes_det_from_liouville():
    # unequal durations and traces: det F = exp(0.7 * 0.3 - 1.9 * 0.2)
    durations = (0.7, 1.9)
    mats = np.array([[[[0.1, 1.0], [0.5, 0.2]], [[-0.3, 0.4], [-1.0, 0.1]]]])
    trace, det = pc_trace_det(durations, mats)
    f = exact_monodromy_pc_stack(durations, mats)[0]
    assert trace[0] == f[0, 0] + f[1, 1]
    assert abs(det[0] - math.exp(0.7 * 0.3 - 1.9 * 0.2)) <= 2e-16
    assert abs(det[0] - np.linalg.det(f)) <= 1e-14


def test_pc_det_is_exact_where_the_product_det_is_roundoff():
    # ||F|| ~ 1e27 at omega 10, so f00 f11 - f01 f10 carries a roundoff of
    # order 1e38; Liouville's det F = exp(-2 pi beta omega) carries none
    mats = pendulum.jacobian_stack([10.0], [1.0], 0.01)
    trace, det = pc_trace_det(pendulum.HALF_PERIODS, mats)
    assert abs(trace[0]) > 1e26
    assert abs(det[0] - math.exp(-2.0 * PI * 0.01 * 10.0)) <= 1e-15


def test_margin_exact_is_continuous():
    # no |.| branch jumps: difference quotients stay bounded under small moves
    rng = np.random.default_rng(32)
    delta = 1e-6
    for _ in range(1000):
        omega = rng.uniform(0.05, 1.0)
        eps = rng.uniform(0.0, 2.0)
        beta = rng.uniform(0.0, 0.5)
        base = margin_exact(pendulum.PendulumParams(omega, eps, beta))
        step = rng.normal(size=3)
        step *= delta / np.linalg.norm(step)
        moved = margin_exact(pendulum.PendulumParams(
            max(omega + step[0], 0.0), max(eps + step[1], 0.0), max(beta + step[2], 0.0)))
        assert abs(moved - base) <= 1e4 * delta


def test_det_condition_never_binding_with_damping():
    rng = np.random.default_rng(33)
    for _ in range(100):
        omega = rng.uniform(1e-3, 1.0)
        beta = rng.uniform(1e-3, 0.5)
        eps = rng.uniform(0.0, 2.0)
        f = exact_monodromy_pc(pendulum.jacobians(pendulum.PendulumParams(omega, eps, beta)))
        assert classify(f).margin_det > 0.0


def test_det_series_trivial():
    _, system, _, avg, _ = pendulum_pipeline(0.0, 0.0, 0.0, 2)
    assert abs(det_series(system, avg) - 1.0) < 1e-15


def test_det_series_matches_closed_form_from_order_two():
    rng = np.random.default_rng(34)
    # the order-2 truncation is exact: tr A_1 = 0 and tr A_2 = -beta*omega
    for _ in range(5):
        omega, eps, beta = rng.uniform(0.1, 1.0), rng.uniform(0.0, 2.0), rng.uniform(0.0, 0.5)
        _, system, _, avg, _ = pendulum_pipeline(omega, eps, beta, 2)
        assert abs(det_series(system, avg) - math.exp(-TWO_PI * beta * omega)) < 1e-12
    # orders 3 and 4 add traces that are zero up to cancellation roundoff,
    # which scales with the A-matrix magnitude (large at eps near 2)
    for order in (3, 4):
        omega, eps, beta = rng.uniform(0.1, 1.0), rng.uniform(0.0, 2.0), rng.uniform(0.0, 0.5)
        _, system, _, avg, _ = pendulum_pipeline(omega, eps, beta, order)
        assert abs(det_series(system, avg) - math.exp(-TWO_PI * beta * omega)) < 1e-10


def test_det_series_value():
    _, system, _, avg, _ = pendulum_pipeline(0.5, 0.3, 0.1, 2)
    assert abs(det_series(system, avg) - math.exp(-0.1 * PI)) < 1e-12


def test_det_series_expansion_truncations():
    omega, eps, beta = 0.4, 0.9, 0.3
    _, system, _, avg, _ = pendulum_pipeline(omega, eps, beta, 4)
    x = TWO_PI * beta * omega
    assert abs(det_series_expansion(system, avg, 1) - 1.0) < 1e-13
    assert abs(det_series_expansion(system, avg, 2) - (1.0 - x)) < 1e-12
    assert abs(det_series_expansion(system, avg, 3) - (1.0 - x)) < 1e-12
    assert abs(det_series_expansion(system, avg, 4) - (1.0 - x + 0.5 * x * x)) < 1e-12


def _scalar_det_series(traces, period, order):
    """sum_{j <= order} [s^j] exp(sum_j tr(A_j) T s^j), by scalar series arithmetic."""
    poly = np.zeros(order + 1)
    poly[1:len(traces[:order]) + 1] = np.asarray(traces[:order]) * period
    power = np.zeros(order + 1)
    power[0] = 1.0
    series = power.copy()
    for m in range(1, order + 1):
        power = np.convolve(power, poly)[:order + 1]
        series += power / math.factorial(m)
    return series.sum()


@pytest.mark.parametrize("order", range(1, 7))
def test_det_series_expansion_matches_a_scalar_power_series(order):
    # a model with traces at orders 1..3, and a damped pendulum stack
    rng = np.random.default_rng(order)
    breaks = np.array([0.0, PI, TWO_PI])
    terms = tuple(
        PiecewisePolyMatrix(TWO_PI, breaks, tuple(rng.uniform(-0.3, 0.3, (2, 2, 1)) for _ in range(2)))
        for _ in range(3))
    system = SeriesSystem(TWO_PI, np.array([[0.0, 1.0], [0.0, 0.0]]), terms)
    _, h = averaging.standard_form(system)
    avg = averaging.run_recursion(h, TWO_PI, 6)
    traces = [np.trace(a) for a in avg.A]
    assert abs(traces[0]) > 1e-3
    expect = _scalar_det_series(traces, TWO_PI, order)
    assert abs(det_series_expansion(system, avg, order) - expect) < 1e-13 * abs(expect)

    stack = pendulum.series_split_stack(rng.uniform(0.0, 0.4, 4), rng.uniform(0.0, 1.0, 4), 0.3)
    _, h = averaging.standard_form(stack)
    avg = averaging.run_recursion(h, TWO_PI, order)
    det = det_series_expansion(stack, avg, order)
    assert det.shape == (4,)
    for k in range(4):
        expect = _scalar_det_series([np.trace(a[k]) for a in avg.A], TWO_PI, order)
        assert abs(det[k] - expect) < 1e-13 * abs(expect)


def test_report_tolerance_band():
    r = report_from_trace_det(2.0 + 5e-10, 1.0, tolerance=1e-9)
    assert r.verdict is Verdict.MARGINAL
    r = report_from_trace_det(2.5, 1.0, tolerance=1e-9)
    assert r.verdict is Verdict.UNSTABLE
    r = report_from_trace_det(0.5, 0.5, tolerance=1e-9)
    assert r.verdict is Verdict.STABLE


@pytest.mark.parametrize("period, entry, message", [
    # A_1 = 1e100 over T = 1e100: the grade-2 term T^2 A_1^2 / 2 overflows
    (1e100, [[1e100]], "order-2 approximation of F"),
    # F = I + T A_1 + T^2 A_1^2 / 2 = 1.125e308 I stays finite, tr F and det F do not
    (1.5, [[1e154, 0.0], [0.0, 1e154]], "invariants of F"),
])
def test_order_approximation_that_overflows_is_a_range_error(period, entry, message):
    # every ppoly coefficient is finite here: the overflow is in the graded
    # exponential terms, which gave inf and NaN entries and numpy warnings
    term = PiecewisePolyMatrix.constant(entry, period)
    system = SeriesSystem(period, np.zeros_like(term.pieces[0][..., 0]), (term,))
    with pytest.raises(NumericRangeError, match=message):
        order_approximation(system, 2)

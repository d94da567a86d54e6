import json
import math

import numpy as np
import pytest

from conftest import PC_TRACE_REL, pendulum_expansion, pendulum_pipeline
from floquet_avg import averaging, cli, pendulum, scan, stability
from floquet_avg.averaging import SeriesSystem
from floquet_avg.errors import ModelError, NumericRangeError
from floquet_avg.exactmono import exact_monodromy_pc, exact_monodromy_pc_stack
from floquet_avg.ppoly import PiecewisePolyMatrix
from floquet_avg.stability import (
    PendulumPC,
    Verdict,
    classify,
    det_series,
    det_series_expansion,
    margin_exact,
    pc_monodromy,
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


def test_pc_monodromy_takes_det_from_liouville():
    # unequal durations and traces: det F = exp(0.7 * 0.3 - 1.9 * 0.2)
    durations = (0.7, 1.9)
    mats = np.array([[[[0.1, 1.0], [0.5, 0.2]], [[-0.3, 0.4], [-1.0, 0.1]]]])
    f, trace, det = pc_monodromy(durations, mats)
    assert np.array_equal(f, exact_monodromy_pc_stack(durations, mats))
    f = f[0]
    assert trace[0] == f[0, 0] + f[1, 1]
    assert abs(det[0] - math.exp(0.7 * 0.3 - 1.9 * 0.2)) <= 2e-16
    assert abs(det[0] - np.linalg.det(f)) <= 1e-14


def test_pc_det_takes_one_exp_per_distinct_exponent(monkeypatch):
    # the exponent -2 pi beta omega depends on omega alone: a 50x50 chart
    # took 2,500 math.exp calls for 50 values, and an exact boundary command
    # one per sample at every lockstep step, bitwise the same
    omegas, epss = np.linspace(0.0, 0.5, 50), np.linspace(0.0, 1.2, 50)
    jac = pendulum.jacobian_stack(omegas, epss[:, None], 0.1)
    expect = pc_monodromy(pendulum.HALF_PERIODS, jac)[2].tolist()
    scan.trace_boundary((0.05, 0.3, 26), 0.1, "p", "exact")  # builds the order-4 table
    calls = []
    exp = math.exp

    def counted(x):
        calls.append(x)
        return exp(x)

    monkeypatch.setattr(math, "exp", counted)
    assert PendulumPC(omegas, 0.1)(slice(None), epss[:, None])[1].tolist() == expect
    assert len(calls) == 50
    calls.clear()
    grid = scan.scan_region((0.0, 0.5, 50), (0.0, 1.2, 50), 0.1, "exact-pc")
    assert len(calls) == 50
    assert grid.margin_det.ravel().tolist() == [1.0 - d for d in expect]
    for branch in ("p", "n"):
        calls.clear()
        scan.trace_boundary((0.05, 0.3, 26), 0.1, branch, "exact")
        assert len(calls) == 26


def _pc_outcome(evaluate):
    """The arrays ``evaluate()`` returns as bytes, or the type and message of
    what it raises."""
    try:
        with np.errstate(over="ignore"):
            return tuple(x.tobytes() for x in evaluate())
    except (ModelError, NumericRangeError) as exc:
        return type(exc), str(exc)


def _reference_pc(omegas, epss, beta):
    """pc_monodromy on the Jacobian stack of the points, as exact-pc cells took them."""
    return lambda: pc_monodromy(pendulum.HALF_PERIODS,
                                pendulum.jacobian_stack(omegas, epss, beta))


def _assert_pc_near_reference(got, omegas, epss, beta):
    """Liouville's det F bitwise that of :func:`pc_monodromy`, and the Hill
    discriminant within PC_TRACE_REL of the trace of its F."""
    _, trace, det = _reference_pc(omegas, epss, beta)()
    assert got[1].tobytes() == det.tobytes()
    assert np.all(np.abs(got[0] - trace) <= PC_TRACE_REL * np.maximum(1.0, np.abs(trace)))


@pytest.mark.parametrize("beta", [0.0, 0.1, 0.7])
def test_prepared_pc_is_near_pc_monodromy_and_independent_of_the_batch(beta):
    # beta 0 gives the damping entry -0.0; eps 0 and omega up to 10 included
    rng = np.random.default_rng(5)
    omegas = np.concatenate(([0.0, 10.0], rng.uniform(0.0, 10.0, 30), rng.uniform(0.0, 0.5, 30)))
    epss = np.concatenate(([0.0, 0.0, 0.0], rng.uniform(0.0, 3.0, omegas.size - 3)))
    pc = PendulumPC(omegas, beta)
    batch = pc(slice(None), epss)
    _assert_pc_near_reference(batch, omegas, epss, beta)
    # a grid row of omegas against a column of epss, cells eps-major
    column = np.linspace(0.0, 2.0, 7)[:, None]
    grid = pc(slice(None), column)
    _assert_pc_near_reference(grid, omegas, column, beta)
    # samples gathered by index, and one point at a time, bitwise the batch
    index = rng.permutation(omegas.size)[:20]
    assert _pc_outcome(lambda: pc(index, epss[index])) == tuple(x[index].tobytes() for x in batch)
    cells = np.broadcast_to(omegas, (7, omegas.size)).ravel()
    assert _pc_outcome(lambda: PendulumPC(cells, beta)(slice(None), column.repeat(
        omegas.size))) == _pc_outcome(lambda: grid)
    for k in range(omegas.size):
        alone = PendulumPC([omegas[k]], beta)(slice(None), [epss[k]])
        assert tuple(x.tobytes() for x in alone) == tuple(x[k:k + 1].tobytes() for x in batch)
        assert _pc_outcome(lambda: pc([k], epss[k:k + 1])) == _pc_outcome(lambda: alone)


@pytest.mark.parametrize("beta", [0.0, 0.1, 2.0])
def test_prepared_pc_monodromy_is_pc_monodromys_f_and_the_calls_invariants(beta):
    # F = E- E+ from the closed form's C and S is bitwise pc_monodromy's F,
    # omega 112 among the points taking pc_monodromy itself
    rng = np.random.default_rng(6)
    omegas = np.concatenate(([0.0, 10.0, 112.0], rng.uniform(0.0, 10.0, 40), rng.uniform(0.0, 0.5, 40)))
    epss = np.concatenate(([0.0, 3.0, 0.0], rng.uniform(0.0, 5.0, omegas.size - 3)))
    pc = PendulumPC(omegas, beta)
    f, trace, det = pc.monodromy(slice(None), epss)
    assert f.tobytes() == _reference_pc(omegas, epss, beta)()[0].tobytes()
    assert _pc_outcome(lambda: (trace, det)) == _pc_outcome(lambda: pc(slice(None), epss))
    column = np.linspace(0.0, 2.0, 5)[:, None]
    grid = pc.monodromy(slice(None), column)
    cells = np.broadcast_to(omegas, (5, omegas.size)).ravel()
    assert grid[0].tobytes() == _reference_pc(cells, column.repeat(omegas.size), beta)()[0].tobytes()
    assert _pc_outcome(lambda: grid[1:]) == _pc_outcome(lambda: pc(slice(None), column))


@pytest.mark.parametrize("omegas, epss, beta", [
    # F overflows from omega ~ 112.3
    ([0.2, 112.4, 150.0], [0.5, 0.0, 0.0], 0.0),
    # the guard on ||pi J||_1: through omega^2 + eps, eps, and damping
    ([0.2, 600.0], [0.5, 0.0], 0.1),
    ([0.2, 0.3], [0.5, 5e5], 0.0),
    ([0.2, 0.3], [0.5, 0.1], 1e7),
    # -beta omega leaves the float range: a non-finite J entry
    ([10.0, 0.2], [0.5, 0.1], 1e308),
    # the first invalid point, in C order, before any square is taken
    ([0.2, -1.0], [0.5, 0.1], 0.0),
    ([0.2, 0.3], [0.5, -0.1], 0.0),
    ([0.2, 0.3], [0.5, math.inf], 0.0),
    ([0.2, math.nan], [0.5, 0.1], 0.0),
    ([0.2, 0.3], [0.5, 0.1], -1.0),
    ([0.2, 0.3], [-0.5, 0.1], math.inf),
    ([1e200, 0.3], [0.5, 0.1], 0.0),
    ([1e200, 0.3], [-0.5, 0.1], 0.0),
    ([0.2, 1e200], [-0.5, 0.1], 0.0),
])
def test_prepared_pc_raises_what_pc_monodromy_raises(omegas, epss, beta):
    omegas, epss = np.array(omegas), np.array(epss)
    expect = _pc_outcome(_reference_pc(omegas, epss, beta))
    assert isinstance(expect[0], type)
    assert _pc_outcome(lambda: PendulumPC(omegas, beta)(slice(None), epss)) == expect
    # the failing point's own error when the evaluation takes it alone
    k = 1 if expect == _pc_outcome(_reference_pc(omegas[1:], epss[1:], beta)) else 0
    assert _pc_outcome(lambda: PendulumPC(omegas, beta)([k], epss[k:k + 1])) == expect


def test_points_near_f_overflow_take_pc_monodromy_alone(monkeypatch):
    # at omega 112 and beta 0 tr F ~ 4e305 and the bound on the entries of F
    # leaves the closed form's range: that point takes pc_monodromy, bitwise,
    # and the points beside it keep the closed form, bitwise as when alone;
    # eps 1000 has ||pi J+||_1 ~ 3e3 but |F_ij| ~ 1e43, so it keeps it too
    omegas, epss = np.array([0.2, 112.0, 0.3, 0.3]), np.array([0.5, 0.0, 0.4, 1000.0])
    reference = _reference_pc(omegas, epss, 0.0)()
    taken = []
    monkeypatch.setattr(stability, "pc_monodromy", lambda durations, mats: (
        taken.append(mats[:, 0, 1, 0]) or pc_monodromy(durations, mats)))
    trace, det = PendulumPC(omegas, 0.0)(slice(None), epss)
    assert [m.tolist() for m in taken] == [[112.0 ** 2]]
    assert abs(trace[1]) > 1e305 and trace[1] == reference[1][1]
    assert abs(trace[3] - reference[1][3]) <= PC_TRACE_REL * abs(reference[1][3])
    for k in range(omegas.size):
        alone = PendulumPC(omegas[k:k + 1], 0.0)(slice(None), epss[k:k + 1])
        assert (alone[0][0], alone[1][0]) == (trace[k], det[k])


@pytest.mark.parametrize("beta", [0.0, 0.1, 0.3])
def test_pc_slope_is_the_derivative_of_the_hill_discriminant(beta):
    # d tr F / d eps in closed form from C and S, against a central
    # difference of the closed-form tr F, over omega 0.02-0.5 and eps 0-1.2
    # (measured within 1.4e-9 of max(1, |slope|))
    rng = np.random.default_rng(8)
    omegas, epss = rng.uniform(0.02, 0.5, 200), rng.uniform(0.0, 1.2, 200)
    pc = PendulumPC(omegas, beta)
    trace, det, slope = pc.with_slope(slice(None), epss)
    assert _pc_outcome(lambda: (trace, det)) == _pc_outcome(lambda: pc(slice(None), epss))
    h = 1e-6
    central = (pc(slice(None), epss + h)[0] - pc(slice(None), epss - h)[0]) / (2.0 * h)
    assert np.all(np.abs(slope - central) <= 1e-8 * np.maximum(1.0, np.abs(slope)))
    # each point's slope is the one it gets alone
    for k in range(0, omegas.size, 20):
        alone = PendulumPC(omegas[k:k + 1], beta).with_slope(slice(None), epss[k:k + 1])
        assert _pc_outcome(lambda: alone) == tuple(x[k:k + 1].tobytes() for x in (trace, det, slope))


def test_pc_slope_is_nan_off_the_closed_form_and_where_delta_vanishes():
    # omega 112 takes pc_monodromy; at beta 0 and eps = omega^2, pi J- has
    # delta = 0, where dS / d delta = (C - S) / (2 delta) is 0 / 0
    omegas, epss = np.array([112.0, 0.3, 0.3]), np.array([0.0, 0.3 ** 2, 0.5])
    trace, det, slope = PendulumPC(omegas, 0.0).with_slope(slice(None), epss)
    assert np.isnan(slope[:2]).all() and np.isfinite(slope[2])
    assert _pc_outcome(lambda: (trace, det)) == _pc_outcome(
        lambda: PendulumPC(omegas, 0.0)(slice(None), epss))


def test_pc_det_is_exact_where_the_product_det_is_roundoff():
    # ||F|| ~ 1e27 at omega 10, so f00 f11 - f01 f10 carries a roundoff of
    # order 1e38; Liouville's det F = exp(-2 pi beta omega) carries none
    mats = pendulum.jacobian_stack([10.0], [1.0], 0.01)
    _, trace, det = pc_monodromy(pendulum.HALF_PERIODS, mats)
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
    _, system, _, a_list, _ = pendulum_pipeline(0.0, 0.0, 0.0, 2)
    assert abs(det_series(np.trace(system.J0), a_list, TWO_PI) - 1.0) < 1e-15


def test_det_series_matches_closed_form_from_order_two():
    rng = np.random.default_rng(34)
    # the order-2 truncation is exact: tr A_1 = 0 and tr A_2 = -beta*omega
    for _ in range(5):
        omega, eps, beta = rng.uniform(0.1, 1.0), rng.uniform(0.0, 2.0), rng.uniform(0.0, 0.5)
        _, system, _, a_list, _ = pendulum_pipeline(omega, eps, beta, 2)
        det = det_series(np.trace(system.J0), a_list, TWO_PI)
        assert abs(det - math.exp(-TWO_PI * beta * omega)) < 1e-12
    # orders 3 and 4 add traces that are zero up to cancellation roundoff,
    # which scales with the A-matrix magnitude (large at eps near 2)
    for order in (3, 4):
        omega, eps, beta = rng.uniform(0.1, 1.0), rng.uniform(0.0, 2.0), rng.uniform(0.0, 0.5)
        _, system, _, a_list, _ = pendulum_pipeline(omega, eps, beta, order)
        det = det_series(np.trace(system.J0), a_list, TWO_PI)
        assert abs(det - math.exp(-TWO_PI * beta * omega)) < 1e-10


def test_det_series_value():
    _, system, _, a_list, _ = pendulum_pipeline(0.5, 0.3, 0.1, 2)
    assert abs(det_series(np.trace(system.J0), a_list, TWO_PI) - math.exp(-0.1 * PI)) < 1e-12


def test_det_series_expansion_truncations():
    omega, eps, beta = 0.4, 0.9, 0.3
    _, system, _, a_list, _ = pendulum_pipeline(omega, eps, beta, 4)
    x = TWO_PI * beta * omega
    assert np.trace(system.J0) == 0.0
    assert abs(det_series_expansion(0.0, a_list, TWO_PI, 1) - 1.0) < 1e-13
    assert abs(det_series_expansion(0.0, a_list, TWO_PI, 2) - (1.0 - x)) < 1e-12
    assert abs(det_series_expansion(0.0, a_list, TWO_PI, 3) - (1.0 - x)) < 1e-12
    assert abs(det_series_expansion(0.0, a_list, TWO_PI, 4) - (1.0 - x + 0.5 * x * x)) < 1e-12


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
        PiecewisePolyMatrix(TWO_PI, breaks, rng.uniform(-0.3, 0.3, (2, 2, 2, 1)))
        for _ in range(3))
    system = SeriesSystem(TWO_PI, np.array([[0.0, 1.0], [0.0, 0.0]]), terms)
    table = averaging.system_table(system, 6)
    a_list = [a[0] for a in averaging.evaluate_table(table, np.ones((len(table.A), 1)))[0]]
    traces = [np.trace(a) for a in a_list]
    assert abs(traces[0]) > 1e-3
    expect = _scalar_det_series(traces, TWO_PI, order)
    det = det_series_expansion(table.trace_j0, a_list, TWO_PI, order)
    assert abs(det - expect) < 1e-13 * abs(expect)

    a_stacks, _ = pendulum_expansion(rng.uniform(0.0, 0.4, 4), rng.uniform(0.0, 1.0, 4), 0.3,
                                     order)
    det = det_series_expansion(pendulum.averaged_table(order).trace_j0, a_stacks, TWO_PI, order)
    assert det.shape == (4,)
    for k in range(4):
        expect = _scalar_det_series([np.trace(a[k]) for a in a_stacks], TWO_PI, order)
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
def test_order_approximation_that_overflows_is_a_range_error(tmp_path, capsys, period, entry,
                                                             message):
    # every ppoly coefficient is finite here: the overflow is in the graded
    # exponential terms, which gave inf and NaN entries and numpy warnings
    model = {"name": "custom", "period": period, "J0": np.zeros_like(entry).tolist(),
             "terms": [{"order": 1, "pieces": [{"t_start": 0.0, "t_end": period,
                                                "entries": [[[x] for x in row]
                                                            for row in entry]}]}]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    assert cli.main(["analyze", "--model-file", str(path), "--order", "2"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("floquet-avg: numeric range error: ")
    assert message in err and err.count("\n") == 1

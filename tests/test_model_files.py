"""Model-file ``analyze`` reports pinned at 17 digits, orders 1 to 6.

Two models shaped like the benchmark's: a 4x4 pair of square-wave pendulums
coupled through their springs, and a 2x2 model whose pieces are linear in t.
A third has pieces of mixed degrees on breakpoints its two terms do not
share, so the recursion's functions live on different breakpoint sets, and
a fourth has terms of orders 1 and 3 only, the later one adding a breakpoint;
in a fifth, two terms break within the merging distance of each other.
The pinned fields are everything the averaged approximation writes, so any
change to the model-file path that moves a bit shows here; the error paths
of the recursion are pinned by exit code and message.
"""

import json
import math
import os

import pytest

from floquet_avg import averaging, cli, pendulum, ppoly

PI = math.pi
PERIOD = 2.0 * PI
PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "model_file_pins.json")
PINNED_FIELDS = ("A", "closure_residuals", "trace_by_order", "det_series_truncated", "F_approx")


def _const_piece(t0, t1, mat):
    return {"t_start": t0, "t_end": t1, "entries": [[[float(x)] for x in row] for row in mat]}


def coupled_model():
    e1, e2, w1, w2, k, b1, b2 = 0.31, 0.17, 0.042, 0.071, 0.023, 0.011, 0.037
    j0 = [[0.0, 1.0, 0.0, 0.0], [0.0] * 4, [0.0, 0.0, 0.0, 1.0], [0.0] * 4]
    exc = [[0.0] * 4, [e1, 0.0, 0.5 * k, 0.0], [0.0] * 4, [0.5 * k, 0.0, e2, 0.0]]
    rest = [[0.0] * 4, [w1, -b1, -k, 0.0], [0.0] * 4, [-k, 0.0, w2, -b2]]
    neg = [[-x for x in row] for row in exc]
    return {"name": "custom", "period": PERIOD, "J0": j0, "terms": [
        {"order": 1, "pieces": [_const_piece(0.0, PI, exc), _const_piece(PI, PERIOD, neg)]},
        {"order": 2, "pieces": [_const_piece(0.0, PERIOD, rest)]},
    ]}


def linear_model():
    a, s, w2, d0, d1 = 0.43, 0.27, 0.058, 0.064, 0.0071
    up = [[[0.0], [0.0]], [[a, -a * s / PI], [0.0]]]
    down = [[[0.0], [0.0]], [[-a * (1.0 + s), a * s / PI], [0.0]]]
    return {"name": "custom", "period": PERIOD, "J0": [[0.0, 1.0], [0.0, 0.0]], "terms": [
        {"order": 1, "pieces": [{"t_start": 0.0, "t_end": PI, "entries": up},
                                {"t_start": PI, "t_end": PERIOD, "entries": down}]},
        {"order": 2, "pieces": [{"t_start": 0.0, "t_end": PERIOD,
                                 "entries": [[[0.0], [0.0]], [[w2], [-d0, -d1]]]}]},
    ]}


def many_piece_model():
    # term 1 on 0 / 2 / 4.5 / T at degrees 0 / 2 / 1, term 2 on 0 / pi / T:
    # every product, sum and antiderivative joins pieces the union splits, and
    # at these values a running constant summed over the split pieces rounds
    # differently from one summed over the own pieces, from A_2 on
    a, b, c, w2, d0, d1 = 0.43, 0.071, 0.27, 0.058, 0.064, 0.0071
    return {"name": "custom", "period": PERIOD, "J0": [[0.0, 1.0], [0.0, 0.0]], "terms": [
        {"order": 1, "pieces": [
            {"t_start": 0.0, "t_end": 2.0, "entries": [[[0.0], [0.0]], [[a], [0.0]]]},
            {"t_start": 2.0, "t_end": 4.5,
             "entries": [[[c * b], [0.0]], [[-a, b, -0.5 * b], [-c * b]]]},
            {"t_start": 4.5, "t_end": PERIOD,
             "entries": [[[0.0], [0.0]], [[-0.6 * a, 0.05], [0.0]]]}]},
        {"order": 2, "pieces": [
            {"t_start": 0.0, "t_end": PI, "entries": [[[0.0], [0.0]], [[w2, d1], [-d0]]]},
            {"t_start": PI, "t_end": PERIOD,
             "entries": [[[0.0], [0.0]], [[-w2], [-d0 - d1]]]}]},
    ]}


def late_break_model():
    # terms of orders 1 and 3 only, on 0 / 2 / T and 0 / pi / T: up to order 2
    # no function breaks at pi, and sums that start from the zero of order 2,
    # or from a one-piece A_n, keep the breakpoints of their other operand
    a, b, c, w = 0.43, 0.071, 0.27, 0.058
    return {"name": "custom", "period": PERIOD, "J0": [[0.0, 1.0], [0.0, 0.0]], "terms": [
        {"order": 1, "pieces": [
            {"t_start": 0.0, "t_end": 2.0, "entries": [[[0.0], [0.0]], [[a], [0.0]]]},
            {"t_start": 2.0, "t_end": PERIOD,
             "entries": [[[c * b], [0.0]], [[-a, b], [-c * b]]]}]},
        {"order": 3, "pieces": [
            {"t_start": 0.0, "t_end": PI, "entries": [[[0.0], [0.0]], [[w, b], [-c]]]},
            {"t_start": PI, "t_end": PERIOD, "entries": [[[0.0], [0.0]], [[-w], [-c - b]]]}]},
    ]}


def near_break_model():
    # term 2 breaks 3e-12 before term 1, closer than breakpoints merge (1e-12 T):
    # term 1 alone, and what comes of it alone, keeps its own breakpoint at 2
    return {"name": "custom", "period": PERIOD, "J0": [[0.0, 1.0], [0.0, 0.0]], "terms": [
        {"order": 1, "pieces": [
            {"t_start": 0.0, "t_end": 2.0, "entries": [[[0.0], [0.0]], [[0.43, 0.1], [0.0]]]},
            {"t_start": 2.0, "t_end": PERIOD,
             "entries": [[[0.02], [0.0]], [[-0.43, 0.071], [-0.02]]]}]},
        {"order": 2, "pieces": [
            {"t_start": 0.0, "t_end": 2.0 - 3e-12,
             "entries": [[[0.0], [0.0]], [[0.058, 0.01], [-0.27]]]},
            {"t_start": 2.0 - 3e-12, "t_end": PERIOD,
             "entries": [[[0.0], [0.0]], [[-0.058], [-0.3]]]}]},
    ]}


def zero_j0_model():
    # J0 = 0: X0 is the identity, the H terms the J terms themselves
    a, b, w, d = 0.37, 0.12, 0.049, 0.021
    return {"name": "custom", "period": PERIOD, "J0": [[0.0, 0.0], [0.0, 0.0]], "terms": [
        {"order": 1, "pieces": [
            {"t_start": 0.0, "t_end": PI, "entries": [[[0.0], [1.0]], [[a, -b / PI], [0.0]]]},
            {"t_start": PI, "t_end": PERIOD,
             "entries": [[[0.0], [1.0]], [[-a - b, b / PI], [0.0]]]}]},
        {"order": 2, "pieces": [_const_piece(0.0, PERIOD, [[0.0, 0.0], [w, -d]])]},
    ]}


def jordan3_model():
    # J0 one 3x3 Jordan block, J0^2 != 0: X0 = I + J0 t + J0^2 t^2 / 2 at its full degree
    e, c, w, d = 0.29, 0.13, 0.052, 0.017
    j0 = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
    exc = [[0.0] * 3, [0.0] * 3, [e, 0.5 * c, 0.0]]
    rest = [[0.0] * 3, [0.0] * 3, [-w, -c, -d]]
    neg = [[-x for x in row] for row in exc]
    return {"name": "custom", "period": PERIOD, "J0": j0, "terms": [
        {"order": 1, "pieces": [_const_piece(0.0, PI, exc), _const_piece(PI, PERIOD, neg)]},
        {"order": 2, "pieces": [_const_piece(0.0, PERIOD, rest)]},
    ]}


MODELS = {"coupled": coupled_model, "linear": linear_model, "many-piece": many_piece_model,
          "late-break": late_break_model, "near-break": near_break_model}


def analyze(tmp_path, capsys, model, order=6) -> dict:
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    code = cli.main(["analyze", "--model-file", str(path), "--order", str(order)])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    return json.loads(out)


def pin_key(name, order):
    """A model's order-6 report is pinned under its name, the others under name/orderK."""
    return name if order == 6 else f"{name}/order{order}"


@pytest.mark.parametrize("order", range(1, averaging.MAX_ORDER + 1))
@pytest.mark.parametrize("name", sorted(MODELS))
def test_model_file_analyze_is_pinned(tmp_path, capsys, name, order):
    with open(PINS, encoding="utf-8") as fh:
        pinned = json.load(fh)[pin_key(name, order)]
    doc = analyze(tmp_path, capsys, MODELS[name](), order)
    # floats parsed from 17 significant digits are equal exactly when their texts are
    for field in PINNED_FIELDS:
        assert doc[field] == pinned[field], field


def overflowing_model():
    # finite terms whose order-2 product H_1 U_1 leaves the float range
    model = linear_model()
    model["terms"][0]["pieces"][0]["entries"][1][0] = [1e200]
    return model


def high_degree_model():
    # a degree-12 piece: the order-6 products pass the degree cap
    model = linear_model()
    model["terms"][0]["pieces"][0]["entries"][1][0] = [1e-3] * 13
    return model


def huge_period_model():
    # T = 1e300: the order-2 antiderivative 1e10 t has finite coefficients, its value at T not
    return {"name": "custom", "period": 1e300, "J0": [[0.0, 0.0], [0.0, 0.0]], "terms": [
        {"order": 2, "pieces": [_const_piece(0.0, 1e300, [[1e10, 0.0], [0.0, 0.0]])]}]}


def degree_31_model():
    # a degree-31 entry: H_1 has degree 33, and H_1 U_1 at order 2 degree 67
    model = linear_model()
    model["terms"][0]["pieces"][0]["entries"][1][0] = [1e-3] * 32
    return model


def huge_entry_model():
    model = linear_model()
    model["terms"][0]["pieces"][0]["entries"][1][0] = [1e300]
    return model


def sum_before_degree_cap_model():
    # J0 = 0, so H_j = J_j.  At order 3 the sum H_3 + H_2 U_1 overflows, both
    # finite (1.75e308 t^2 and 2e307 times U_1's t^2 coefficient 5), two
    # products before H_1 U_2 (degree 22 + 46) passes the degree cap
    return {"name": "custom", "period": 1.0, "J0": [[0.0, 0.0], [0.0, 0.0]], "terms": [
        {"order": 1, "pieces": [{"t_start": 0.0, "t_end": 1.0,
                                 "entries": [[[0.0, 10.0] + [0.1] * 21, [0.0]], [[0.3], [0.0]]]}]},
        {"order": 2, "pieces": [_const_piece(0.0, 1.0, [[2e307, 0.0], [0.0, 0.0]])]},
        {"order": 3, "pieces": [{"t_start": 0.0, "t_end": 1.0,
                                 "entries": [[[0.0, 0.0, 1.75e308], [0.0]], [[0.0], [0.0]]]}]},
    ]}


def degree_cap_without_h3_model():
    # the same without H_3: nothing overflows, and H_1 U_2 stops order 3
    model = sum_before_degree_cap_model()
    del model["terms"][2]
    return model


RANGE_ERROR = "floquet-avg: numeric range error: "
COEFFS_OUT = RANGE_ERROR + "piecewise-polynomial coefficients leave the float range\n"


@pytest.mark.parametrize("model, order, closure_tol, code, err", [
    (overflowing_model, 2, None, 3, COEFFS_OUT),
    (high_degree_model, 6, None, 2, "floquet-avg: order 6 too high: product degree 74 exceeds cap 64\n"),
    (linear_model, 3, 1e-300, 2, "floquet-avg: closure residual ||U_1(T)|| = 8.88e-16 indicates a broken "
     "recursion\n"),
    (huge_period_model, 2, None, 3, RANGE_ERROR + "the value at t = 1e+300 leaves the float range\n"),
    (degree_31_model, 3, None, 2, "floquet-avg: order 3 too high: product degree 67 exceeds cap 64\n"),
    (huge_entry_model, 2, None, 3, COEFFS_OUT),
    (sum_before_degree_cap_model, 3, None, 3, COEFFS_OUT),
    (degree_cap_without_h3_model, 3, None, 2,
     "floquet-avg: order 3 too high: product degree 68 exceeds cap 64\n"),
], ids=["overflow", "degree-cap", "closure", "value-at-T", "degree-31", "huge-entry",
        "sum-before-degree-cap", "degree-cap-without-h3"])
def test_model_file_error_paths_are_pinned(tmp_path, capsys, monkeypatch, model, order,
                                           closure_tol, code, err):
    if closure_tol is not None:
        monkeypatch.setattr(averaging, "_CLOSURE_TOL", closure_tol)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model()), encoding="utf-8")
    assert cli.main(["analyze", "--model-file", str(path), "--order", str(order)]) == code
    assert capsys.readouterr() == ("", err)


def test_a_model_files_table_is_built_per_analyze_and_not_kept(tmp_path, capsys, monkeypatch):
    orders = []
    recursion = averaging.run_recursion

    def counted(h_terms, period, order):
        orders.append(order)
        return recursion(h_terms, period, order)

    monkeypatch.setattr(averaging, "run_recursion", counted)
    first = analyze(tmp_path, capsys, linear_model())
    assert analyze(tmp_path, capsys, linear_model()) == first
    # the pendulum's tables depend on no input and are kept; a model's depends on its file
    assert orders == [6, 6] and pendulum._TABLES == {}


def test_coupled_model_carries_x0_at_the_degree_of_j0s_last_nonzero_power(tmp_path, monkeypatch):
    # J0^2 = 0: X0 = I + J0 t, so H_j = X0^-1 J_j X0 has degree 2 and the order-6
    # antiderivative 18, where X0 at degree n - 1 = 3 gave 6 and 42
    path = tmp_path / "model.json"
    path.write_text(json.dumps(coupled_model()), encoding="utf-8")
    system = cli.load_model_file(str(path))
    x0, h_terms = averaging.standard_form(system)
    assert x0.max_degree == 1 and [h.max_degree for h in h_terms] == [2, 2]
    degrees = []
    antiderivative = ppoly._antiderivative

    def recorded(*args):
        # each order's antiderivative: ((coeffs, degrees, breakpoints), value at T, partial)
        anti = antiderivative(*args)
        degrees.append(max(anti[0][1]))
        return anti

    monkeypatch.setattr(ppoly, "_antiderivative", recorded)
    averaging.system_table(system, 6)
    assert degrees, "the recursion no longer integrates through ppoly._antiderivative"
    assert max(degrees) == 18

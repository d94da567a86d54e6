"""Model-file ``analyze`` reports pinned at 17 digits.

Two models shaped like the benchmark's: a 4x4 pair of square-wave pendulums
coupled through their springs, and a 2x2 model whose pieces are linear in t.
The pinned fields are everything the averaged approximation writes, so any
change to the model-file path that moves a bit shows here.
"""

import json
import math
import os

import pytest

from floquet_avg import averaging, cli, pendulum

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


MODELS = {"coupled": coupled_model, "linear": linear_model}


def analyze_order6(tmp_path, capsys, model) -> dict:
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    code = cli.main(["analyze", "--model-file", str(path), "--order", "6"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    return json.loads(out)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_model_file_analyze_order6_is_pinned(tmp_path, capsys, name):
    with open(PINS, encoding="utf-8") as fh:
        pinned = json.load(fh)[name]
    doc = analyze_order6(tmp_path, capsys, MODELS[name]())
    # floats parsed from 17 significant digits are equal exactly when their texts are
    for field in PINNED_FIELDS:
        assert doc[field] == pinned[field], field


def test_a_model_files_table_is_built_per_analyze_and_not_kept(tmp_path, capsys, monkeypatch):
    orders = []
    recursion = averaging.run_recursion

    def counted(h_terms, period, order):
        orders.append(order)
        return recursion(h_terms, period, order)

    monkeypatch.setattr(averaging, "run_recursion", counted)
    first = analyze_order6(tmp_path, capsys, linear_model())
    assert analyze_order6(tmp_path, capsys, linear_model()) == first
    # the pendulum's tables depend on no input and are kept; a model's depends on its file
    assert orders == [6, 6] and pendulum._TABLES == {}

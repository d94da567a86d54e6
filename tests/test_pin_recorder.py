"""The pin recorder measures a synthetic move and rewrites only when asked."""

import gzip
import json
import os

import pytest

import pin_recorder
from conftest import DATA


def _copy_cases(tmp_path, name, keep, edit=None):
    """Copy the cases of ``data/<name>.json.gz`` that ``keep`` accepts into
    ``tmp_path``, in the file's own layout, after ``edit`` changes them."""
    raw, cases = pin_recorder.load(name)
    cases = [case for case in cases if keep(case)]
    original = json.dumps(cases, **pin_recorder._json_layout(raw, json.loads(raw)))
    if edit is not None:
        edit(cases)
    text = json.dumps(cases, **pin_recorder._json_layout(raw, json.loads(raw)))
    with gzip.open(tmp_path / f"{name}.json.gz", "wt", encoding="utf-8") as fh:
        fh.write(text)
    return original, cases


def _replace_in_line(stdout, line, old, new):
    lines = stdout.split("\n")
    assert old in lines[line]
    lines[line] = lines[line].replace(old, new, 1)
    return "\n".join(lines)


def _order2_boundaries(case):
    return case["argv"][0] == "boundary" and case["argv"][-1] == "order2"


def test_an_unmoved_copy_reports_no_move(tmp_path):
    _, cases = _copy_cases(tmp_path, "scan_outputs", _order2_boundaries)
    report, _ = pin_recorder.measure("scan_outputs", str(tmp_path))
    assert report.cases == 8 and report.lines == sum(c["stdout"].count("\n") for c in cases)
    assert report.unchanged and not report.reshaped
    assert all(moves == [0.0, 0.0] for moves in report.moves.values())


def test_one_changed_number_is_one_moved_line_of_its_column(tmp_path):
    def edit(cases):
        # line 4 of the first case: omega 0.08, eps 0.0882126232675
        cases[0]["stdout"] = _replace_in_line(cases[0]["stdout"], 4, "0.0882126232675",
                                              "0.0882126232775")

    _, cases = _copy_cases(tmp_path, "scan_outputs", _order2_boundaries, edit)
    lines = sum(c["stdout"].count("\n") for c in cases)
    before = (tmp_path / "scan_outputs.json.gz").read_bytes()
    report, _ = pin_recorder.measure("scan_outputs", str(tmp_path))
    assert report.moved_lines == 1 and not report.reshaped
    assert not report.exit_changes and not report.stderr_changes
    absolute, relative = report.moves["eps"]
    assert absolute == pytest.approx(1e-11, rel=1e-3)
    assert relative == pytest.approx(1e-11 / 0.0882126232775, rel=1e-3)
    assert report.moves["omega"] == [0.0, 0.0]
    assert f"1 of {lines} lines moved" in report.text()
    assert "eps: largest move 1e-11" in report.text()
    # measuring, and the report without --write, leave the file as it was
    assert pin_recorder.main(["scan_outputs", "--data", str(tmp_path)]) == 1
    assert (tmp_path / "scan_outputs.json.gz").read_bytes() == before


def test_exit_code_and_stderr_changes_are_reported(tmp_path):
    def edit(cases):
        cases[1]["exit"] = 4
        cases[2]["stderr"] = "floquet-avg: recorded\n"

    _copy_cases(tmp_path, "scan_outputs", _order2_boundaries, edit)
    report, _ = pin_recorder.measure("scan_outputs", str(tmp_path))
    assert report.moved_lines == 0
    assert [(old, new) for _, old, new in report.exit_changes] == [(4, 0)]
    assert ([(old, new) for _, old, new in report.stderr_changes]
            == [("floquet-avg: recorded\n", "")])
    assert not report.unchanged


def test_write_rerecords_in_the_files_layout(tmp_path):
    def edit(cases):
        cases[0]["stdout"] = _replace_in_line(cases[0]["stdout"], 2, "0.0661594674506", "0.07")

    original, _ = _copy_cases(tmp_path, "scan_outputs", _order2_boundaries, edit)
    assert pin_recorder.main(["--write", "scan_outputs", "--data", str(tmp_path)]) == 0
    with gzip.open(tmp_path / "scan_outputs.json.gz", "rt", encoding="utf-8") as fh:
        assert fh.read() == original
    assert pin_recorder.measure("scan_outputs", str(tmp_path))[0].unchanged


def test_json_fields_are_named_by_their_enclosing_keys(tmp_path):
    first = []

    def keep(case):
        if not first and "json" in case["argv"]:
            first.append(case)
            return True
        return False

    def edit(cases):
        lines = cases[0]["stdout"].split("\n")
        k = next(i for i, line in enumerate(lines) if line.strip().startswith('"margin_det"')
                 and i > next(j for j, x in enumerate(lines) if '"exact_pc"' in x))
        key, value = lines[k].split(": ")
        comma = "," if value.endswith(",") else ""
        lines[k] = f"{key}: {float(value.rstrip(',')) + 0.5!r}{comma}"
        cases[0]["stdout"] = "\n".join(lines)

    _copy_cases(tmp_path, "analyze_outputs", keep, edit)
    report, _ = pin_recorder.measure("analyze_outputs", str(tmp_path))
    assert report.moved_lines == 1 and not report.reshaped
    moved = {name: moves for name, moves in report.moves.items() if moves != [0.0, 0.0]}
    assert list(moved) == ["exact_pc.margin_det"]
    assert moved["exact_pc.margin_det"][0] == pytest.approx(0.5)


def test_model_file_pins_report_the_moved_report_and_field(tmp_path):
    with open(os.path.join(DATA, "model_file_pins.json"), encoding="utf-8") as fh:
        pins = json.load(fh)
    pins = {key: pins[key] for key in ("linear", "linear/order2")}
    moved = json.loads(json.dumps(pins))
    moved["linear/order2"]["trace_by_order"][1] += 1e-3
    with open(tmp_path / "model_file_pins.json", "w", encoding="utf-8") as fh:
        json.dump(moved, fh)
    report, fresh = pin_recorder.measure("model_file_pins", str(tmp_path))
    assert (report.cases, report.moved_lines) == (2, 1)
    moved = {name: moves for name, moves in report.moves.items() if moves != [0.0, 0.0]}
    assert list(moved) == ["trace_by_order"]
    assert moved["trace_by_order"][0] == pytest.approx(1e-3)
    assert fresh == pins


def test_write_needs_the_files_named():
    with pytest.raises(SystemExit):
        pin_recorder.main(["--write"])


def test_the_report_opens_with_the_host_fingerprint(tmp_path, capsys, monkeypatch):
    import numpy as np

    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    monkeypatch.delenv("NPY_DISABLE_CPU_FEATURES", raising=False)
    config = np.show_config(mode="dicts")
    blas, simd = config["Build Dependencies"]["blas"], config["SIMD Extensions"]
    header = [f"host: numpy {np.__version__}, BLAS {blas['name']} {blas['version']}",
              f"  CPU baseline: {' '.join(simd['baseline'])}",
              f"  CPU dispatch: {' '.join(simd['found'])}",
              "  OPENBLAS_CORETYPE=Haswell"]
    assert pin_recorder.host_fingerprint() == header
    _copy_cases(tmp_path, "scan_outputs", _order2_boundaries)
    assert pin_recorder.main(["scan_outputs", "--data", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == header and lines[4].startswith("scan_outputs: 8 cases")
    # a variable that is set is named, one that is not is left out
    monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", "")
    monkeypatch.delenv("OPENBLAS_CORETYPE")
    assert pin_recorder.host_fingerprint() == header[:3] + ["  NPY_DISABLE_CPU_FEATURES="]

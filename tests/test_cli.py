import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from floquet_avg import cli, scan

PI = math.pi


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_json_document(capsys):
    code, out, err = run_cli(capsys, [
        "analyze", "--model", "meissner-damped", "--omega", "0.2", "--eps", "0.3",
        "--beta", "0", "--order", "4", "--format", "json",
    ])
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["model"] == "meissner-damped"
    assert doc["trace_by_order"][0] == 2
    assert abs(doc["trace_by_order"][3]) < 1e-11
    assert len(doc["A"]) == 4
    assert doc["approx"]["verdict"] in ("stable", "marginal", "unstable")
    assert doc["exact_pc"]["verdict"] in ("stable", "marginal", "unstable")
    assert len(doc["approx"]["multipliers"]) == 2
    assert len(doc["closure_residuals"]) == 3


def test_analyze_json_round_trips_floats(capsys):
    code, out, _ = run_cli(capsys, [
        "analyze", "--omega", "0.21", "--eps", "0.37", "--beta", "0.11", "--order", "3",
    ])
    assert code == 0
    doc = json.loads(out)
    # 17 significant digits round-trip exactly through the text
    again = json.loads(cli.dumps_json(doc))
    assert again == doc


def test_analyze_unexcited_pendulum_unstable(capsys):
    code, out, _ = run_cli(capsys, [
        "analyze", "--omega", "0.2", "--eps", "0", "--beta", "0", "--order", "2",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["exact_pc"]["verdict"] == "unstable"
    assert doc["exact_rk"]["verdict"] == "unstable"


def test_analyze_order_cap(capsys):
    code, out, err = run_cli(capsys, [
        "analyze", "--omega", "0.2", "--eps", "0.3", "--beta", "0", "--order", "7",
    ])
    assert code == 2
    assert out == ""
    assert "6" in err  # message names the cap


def test_analyze_unknown_model(capsys):
    code, _, err = run_cli(capsys, ["analyze", "--model", "nope", "--omega", "1",
                                    "--eps", "1", "--beta", "0"])
    assert code == 2
    assert "unknown model" in err


def test_analyze_text_format(capsys):
    code, out, _ = run_cli(capsys, [
        "analyze", "--omega", "0.2", "--eps", "0.3", "--beta", "0.1", "--format", "text",
    ])
    assert code == 0
    assert "trace_by_order" in out
    assert "verdict" in out


def test_scan_smoke_grid(capsys):
    code, out, err = run_cli(capsys, [
        "scan", "--omega", "0.1:0.3:2", "--eps", "0.1:0.4:2", "--beta", "0",
        "--method", "exact-pc",
    ])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "omega,eps,beta,method,verdict,margin_trace,margin_det"
    assert len(lines) == 5  # header + 4 data rows
    verdicts = {line.split(",")[4] for line in lines[1:]}
    assert verdicts <= {"stable", "marginal", "unstable"}
    # eps-major row order
    eps_col = [float(line.split(",")[1]) for line in lines[1:]]
    assert eps_col == [0.1, 0.1, 0.4, 0.4]


def test_scan_thread_determinism(capsys):
    argv = ["scan", "--omega", "0:0.4:10", "--eps", "0:1:10", "--beta", "0.05",
            "--method", "exact-pc"]
    code1, out1, _ = run_cli(capsys, argv + ["--threads", "1"])
    code8, out8, _ = run_cli(capsys, argv + ["--threads", "8"])
    assert code1 == code8 == 0
    assert out1 == out8


def test_scan_bad_range(capsys):
    code, _, err = run_cli(capsys, ["scan", "--omega", "0.4:0.0:10",
                                    "--eps", "0:1:10"])
    assert code == 2
    assert "range" in err


def test_scan_output_file(tmp_path, capsys):
    path = tmp_path / "grid.csv"
    code, out, _ = run_cli(capsys, [
        "scan", "--omega", "0:0.2:3", "--eps", "0:0.5:3", "--output", str(path),
    ])
    assert code == 0
    assert out == ""
    text = path.read_text()
    assert text.startswith("omega,eps,beta,method,verdict")
    assert "\r" not in text
    assert len(text.strip().split("\n")) == 10


def test_boundary_order2_line(capsys):
    code, out, _ = run_cli(capsys, [
        "boundary", "--beta", "0", "--branch", "p", "--method", "order2",
        "--omega", "0:0.4:41",
    ])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "omega,eps,branch,method"
    assert len(lines) == 42
    scale = 2.0 * math.sqrt(3.0) / PI
    for line in lines[1:]:
        omega, eps, branch, method = line.split(",")
        assert branch == "p" and method == "order2"
        assert abs(float(eps) - scale * float(omega)) < 1e-11


def test_boundary_exact_damping_shift(capsys):
    argv = ["boundary", "--branch", "n", "--method", "exact", "--omega", "0.05:0.3:6"]
    code0, out0, _ = run_cli(capsys, argv + ["--beta", "0"])
    code1, out1, _ = run_cli(capsys, argv + ["--beta", "0.1"])
    assert code0 == code1 == 0
    eps0 = [float(l.split(",")[1]) for l in out0.strip().split("\n")[1:]]
    eps1 = [float(l.split(",")[1]) for l in out1.strip().split("\n")[1:]]
    assert all(b > a for a, b in zip(eps0, eps1))


def test_boundary_partial_failure_exit_code(capsys):
    # above omega ~0.55 the first band has closed: brackets find no sign
    # change, most samples are omitted, and the contract says exit 4
    code, out, err = run_cli(capsys, [
        "boundary", "--beta", "0", "--branch", "p", "--method", "exact",
        "--omega", "0.45:0.7:6",
    ])
    assert code == 4
    assert "omitted" in err
    lines = out.strip().split("\n")
    assert lines[0] == "omega,eps,branch,method"
    assert len(lines) == 3  # 2 surviving samples


def test_scan_threads_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("FLOQUET_AVG_THREADS", "2")
    code, out, _ = run_cli(capsys, [
        "scan", "--omega", "0:0.4:4", "--eps", "0:1:4", "--beta", "0",
    ])
    assert code == 0
    assert len(out.strip().split("\n")) == 17


def test_compare_table(capsys):
    code, out, _ = run_cli(capsys, ["compare", "--beta", "0", "--omega", "0.02:0.3:15"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "omega,branch,eps_exact,eps_order2,eps_order4,err2,err4"
    assert len(lines) == 31  # 15 omegas x 2 branches
    for line in lines[1:]:
        cells = line.split(",")
        if cells[1] == "p" and cells[5] and cells[6]:
            assert float(cells[6]) < float(cells[5])  # err4 < err2


def test_custom_model_file_matches_builtin(tmp_path, capsys):
    # the pendulum split expressed as a custom model document
    omega, eps, beta = 0.25, 0.45, 0.15
    period = 2.0 * PI
    model = {
        "name": "custom",
        "period": period,
        "J0": [[0.0, 1.0], [0.0, 0.0]],
        "terms": [
            {"order": 1, "pieces": [
                {"t_start": 0.0, "t_end": PI,
                 "entries": [[[0.0], [0.0]], [[eps], [0.0]]]},
                {"t_start": PI, "t_end": period,
                 "entries": [[[0.0], [0.0]], [[-eps], [0.0]]]},
            ]},
            {"order": 2, "pieces": [
                {"t_start": 0.0, "t_end": period,
                 "entries": [[[0.0], [0.0]], [[omega ** 2], [-beta * omega]]]},
            ]},
        ],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    code, out_custom, _ = run_cli(capsys, [
        "analyze", "--model-file", str(path), "--order", "3",
    ])
    assert code == 0
    code, out_builtin, _ = run_cli(capsys, [
        "analyze", "--omega", str(omega), "--eps", str(eps), "--beta", str(beta),
        "--order", "3",
    ])
    assert code == 0
    doc_c, doc_b = json.loads(out_custom), json.loads(out_builtin)
    assert doc_c["model"] == "custom"
    assert np.allclose(doc_c["A"], doc_b["A"], atol=1e-13)
    assert doc_c["exact_pc"]["verdict"] == doc_b["exact_pc"]["verdict"]
    assert np.allclose(doc_c["exact_rk"]["F"], doc_b["exact_rk"]["F"], atol=1e-12)


def test_custom_model_with_polynomial_term_skips_pc_oracle(tmp_path, capsys):
    model = {
        "name": "custom",
        "period": 2.0,
        "J0": [[0.0, 1.0], [0.0, 0.0]],
        "terms": [
            {"order": 1, "pieces": [
                {"t_start": 0.0, "t_end": 2.0,
                 "entries": [[[0.0], [0.0]], [[0.0, 0.1], [0.0]]]},  # 0.1*t
            ]},
        ],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    code, out, _ = run_cli(capsys, ["analyze", "--model-file", str(path), "--order", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["exact_pc"] is None
    assert doc["exact_rk"]["F"] is not None


def test_custom_model_validation_errors(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "custom", "period": 2.0,
                                "J0": [[1.0, 0.0], [0.0, 1.0]],
                                "terms": [{"order": 1, "pieces": [
                                    {"t_start": 0.0, "t_end": 2.0,
                                     "entries": [[[0.0], [0.0]], [[0.0], [0.0]]]}]}]}))
    code, _, err = run_cli(capsys, ["analyze", "--model-file", str(path)])
    assert code == 2  # J0 not nilpotent
    assert "nilpotent" in err

    path.write_text("not json")
    code, _, err = run_cli(capsys, ["analyze", "--model-file", str(path)])
    assert code == 2

    path.write_text(json.dumps({"name": "custom", "period": 2.0,
                                "J0": [[0.0, 1.0], [0.0, 0.0]],
                                "terms": [{"order": 1, "pieces": [
                                    {"t_start": 0.5, "t_end": 2.0,
                                     "entries": [[[0.0], [0.0]], [[0.0], [0.0]]]}]}]}))
    code, _, err = run_cli(capsys, ["analyze", "--model-file", str(path)])
    assert code == 2
    assert "tile" in err


def test_numeric_range_exit_code(capsys):
    code, _, err = run_cli(capsys, [
        "analyze", "--omega", "1e4", "--eps", "0", "--beta", "0", "--order", "1",
    ])
    assert code == 3
    assert "range" in err.lower()


def test_format_float_17_digits():
    x = 1.0 / 3.0
    assert float(cli.format_float(x)) == x
    assert cli.format_float(2.0) == "2"


# -- robustness: every input ends in exit 0, 2, 3 or 4, never a hang or a traceback

def _cli_subprocess(argv, timeout=60):
    """Run the CLI in a child process, so a hang fails the test instead of the run."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "floquet_avg.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("argv", [
    ["boundary", "--omega", "0.2:0.2:1", "--beta", "0.1", "--branch", "n", "--tol", "0"],
    ["boundary", "--omega", "0.2:0.2:1", "--beta", "0.1", "--branch", "n", "--tol", "1e-20"],
    ["boundary", "--omega", "0.05:0.3:4", "--branch", "p", "--tol", "nan"],
    ["compare", "--omega", "0.1:0.2:2", "--tol", "1e-20"],
    ["compare", "--omega", "0.1:0.2:2", "--tol=-1e-10"],
])
def test_unresolvable_tol_exits_2_without_hanging(argv):
    proc = _cli_subprocess(argv)
    assert proc.returncode == 2
    assert "tol" in proc.stderr and "Traceback" not in proc.stderr


def test_default_tol_roots_unchanged(capsys):
    # the default tol gives a root within 1e-10 of the tight-tol root
    code, out, _ = run_cli(capsys, ["boundary", "--omega", "0.2:0.2:1", "--beta", "0.1",
                                    "--branch", "n", "--method", "exact"])
    assert code == 0
    code, out_tight, _ = run_cli(capsys, ["boundary", "--omega", "0.2:0.2:1", "--beta", "0.1",
                                          "--branch", "n", "--method", "exact",
                                          "--tol", "1e-15"])
    assert code == 0
    root, tight = float(out.split("\n")[1].split(",")[1]), float(out_tight.split("\n")[1].split(",")[1])
    assert abs(root - tight) < 1e-10


def test_exact_boundary_at_a_tight_tol_finishes_with_sign_changes():
    argv = ["boundary", "--omega", "0.05:0.3:6", "--beta", "0.1", "--branch", "n",
            "--method", "exact", "--tol", "1e-15"]
    proc = _cli_subprocess(argv)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
    assert len(rows) == 6
    for row in rows:
        omega, eps = float(row[0]), float(row[1])
        margin = scan.boundary_margin(omega, 0.1, "exact")
        # the CSV keeps 12 significant digits, so widen the bracket by that rounding
        slack = 1e-15 + 1e-11 * eps
        lo, hi = margin(eps - slack), margin(eps + slack)
        assert (lo <= 0.0) != (hi <= 0.0) or lo == 0.0 or hi == 0.0


@pytest.mark.parametrize("argv", [
    ["boundary", "--omega", "0.1:0.2:3", "--beta", "0.1", "--branch", "n", "--method", "exact"],
    ["boundary", "--omega", "0.1:0.2:3", "--branch", "p", "--tol", "0"],
])
def test_python_dash_m_package_runs_the_cli(capsys, argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "floquet_avg", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    code, out, _ = run_cli(capsys, argv)
    assert (proc.returncode, proc.stdout) == (code, out)


def test_non_integer_threads_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("FLOQUET_AVG_THREADS", "abc")
    code, out, err = run_cli(capsys, ["scan", "--omega", "0:0.4:3", "--eps", "0:1:3"])
    assert code == 2
    assert out == ""
    assert "FLOQUET_AVG_THREADS" in err


def test_zero_threads_means_one(capsys):
    argv = ["scan", "--omega", "0:0.4:4", "--eps", "0:1:4", "--beta", "0.1"]
    code0, out0, _ = run_cli(capsys, argv + ["--threads", "0"])
    code1, out1, _ = run_cli(capsys, argv + ["--threads", "1"])
    assert code0 == code1 == 0
    assert out0 == out1


@pytest.mark.parametrize("value", ["nan", "-1e-9", "inf"])
def test_bad_tolerance_exits_2(capsys, value):
    option = f"--tolerance={value}"
    code, out, err = run_cli(capsys, ["scan", "--omega", "0:0.4:3", "--eps", "0:1:3", option])
    assert code == 2 and out == "" and "tolerance" in err
    code, out, err = run_cli(capsys, ["scan", "--omega", "0:0.4:3", "--eps", "0:1:3",
                                      "--method", "order2", option])
    assert code == 2 and out == "" and "tolerance" in err
    code, out, err = run_cli(capsys, ["analyze", "--omega", "0.2", "--eps", "0.3",
                                      "--beta", "0", option])
    assert code == 2 and out == "" and "tolerance" in err


@pytest.mark.parametrize("missing", ["t_start", "t_end", "entries"])
def test_model_file_piece_without_key_exits_2(tmp_path, capsys, missing):
    piece = {"t_start": 0.0, "t_end": 2.0, "entries": [[[0.0], [0.0]], [[0.3], [0.0]]]}
    del piece[missing]
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"name": "custom", "period": 2.0,
                                "J0": [[0.0, 1.0], [0.0, 0.0]],
                                "terms": [{"order": 1, "pieces": [piece]}]}))
    code, out, err = run_cli(capsys, ["analyze", "--model-file", str(path)])
    assert code == 2 and out == ""
    assert missing in err


def _write_model(tmp_path, terms):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"name": "custom", "period": 2.0,
                                "J0": [[0.0, 1.0], [0.0, 0.0]], "terms": terms}))
    return str(path)


def _piece(entries):
    return {"t_start": 0.0, "t_end": 2.0, "entries": entries}


@pytest.mark.parametrize("terms, message", [
    ([[1, 2]], "term"),  # a term that is not an object
    ({"order": 1}, "terms"),  # terms that are not a list
    ([{"order": 1, "pieces": 5}], "pieces"),
    ([{"order": 1, "pieces": [[0.0, 2.0]]}], "piece"),  # a piece that is not an object
    ([{"order": 1, "pieces": [_piece(5)]}], "entries"),
    ([{"order": 1, "pieces": [_piece([])]}], "entries"),
    ([{"order": 1, "pieces": [_piece([[[0.0], [0.0]], [[0.3]]])]}], "entries"),  # ragged
    ([{"order": 1, "pieces": [_piece([[[0.0], [0.0]], [[0.3], 7]])]}], "entry"),
    ([{"order": 1, "pieces": [_piece([[[0.0], [0.0]], [["x"], [0.0]]])]}], "entry"),
    ([{"order": 1, "pieces": [_piece([[[0.0], [0.0]], [[None], [0.0]]])]}], "entry"),
    ([{"order": 1, "pieces": [_piece([[[0.0], [0.0]], [[], [0.0]]])]}], "entry"),
    ([{"order": 1, "pieces": [_piece([[[0.0], [0.0]], [[10 ** 400], [0.0]]])]}], "coefficient"),
])
def test_malformed_model_file_terms_exit_2(tmp_path, capsys, terms, message):
    path = _write_model(tmp_path, terms)
    code, out, err = run_cli(capsys, ["analyze", "--model-file", path])
    assert code == 2 and out == ""
    assert message in err


def test_boundary_rejects_exact_rk(capsys):
    # exact-rk would find roots of the exponential-product margin under another name
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["boundary", "--omega", "0.1:0.2:2", "--branch", "p", "--method", "exact-rk"])
    assert excinfo.value.code == 2
    assert "exact-rk" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["scan", "--omega", "0:1e200:2", "--eps", "0:1:2"],
    ["scan", "--omega", "0:1e200:2", "--eps", "0:1:2", "--method", "order2"],
    ["analyze", "--omega", "1e200", "--eps", "0", "--beta", "0"],
    ["boundary", "--omega", "1e200:1e200:1", "--branch", "p"],
    ["boundary", "--omega", "0.1:0.1:1", "--beta", "1e200", "--branch", "n"],
])
def test_float_overflow_is_a_range_error(capsys, argv):
    # omega**2 (and beta**2 in the closed forms) overflow in float pow, and a
    # huge period in period**m and math.exp
    code, out, err = run_cli(capsys, argv)
    assert code == 3 and out == ""
    assert "range" in err and "Traceback" not in err


def test_huge_period_is_a_range_error(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"name": "custom", "period": 1e300, "J0": [[0.0]], "terms": [
        {"order": 1, "pieces": [{"t_start": 0.0, "t_end": 1e300, "entries": [[[1.0]]]}]}]}))
    code, out, err = run_cli(capsys, ["analyze", "--model-file", str(path), "--order", "2"])
    assert code == 3 and out == ""
    assert "range" in err


def test_huge_model_file_term_order_exits_2_without_hanging(tmp_path):
    # every order below the highest one was filled with a zero term
    path = _write_model(tmp_path, [{"order": 10 ** 12, "pieces": [
        _piece([[[0.0], [0.0]], [[0.3], [0.0]]])]}])
    proc = _cli_subprocess(["analyze", "--model-file", path])
    assert proc.returncode == 2
    assert "order" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("steps", ["65537", "100000000"])
def test_rk_steps_above_the_cap_exit_2_without_hanging(steps):
    # 10**8 steps per piece kept the RK4 oracle busy for hours
    proc = _cli_subprocess(["analyze", "--omega", "0.2", "--eps", "0.3", "--beta", "0",
                            "--order", "2", "--rk-steps", steps], timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "steps_per_piece" in proc.stderr and "Traceback" not in proc.stderr


def test_many_piece_model_rk_steps_exit_2_without_hanging(tmp_path):
    # 100 pieces at 65536 RK4 steps each ran for minutes; the cap is on the
    # steps over all pieces, and its message names the total and the cap
    bounds = np.linspace(0.0, 2.0, 101).tolist()
    pieces = [{"t_start": lo, "t_end": hi, "entries": [[[0.0], [0.0]], [[0.3], [0.0]]]}
              for lo, hi in zip(bounds[:-1], bounds[1:])]
    path = _write_model(tmp_path, [{"order": 1, "pieces": pieces}])
    proc = _cli_subprocess(["analyze", "--model-file", path, "--order", "1",
                            "--rk-steps", "65536"], timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "6553600" in proc.stderr and "262144" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.filterwarnings("error")
def test_large_omega_exact_pc_cells_are_unstable_with_exact_det(capsys):
    # tr F reaches 7.5e272 at omega 100; det F = exp(-2 pi beta omega) = 1 comes
    # from Liouville's formula, where f00 f11 - f01 f10 overflowed to NaN and
    # the cells printed marginal,NaN,NaN
    code, out, err = run_cli(capsys, ["scan", "--omega", "10:100:4", "--eps", "0:1:2"])
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 8
    for row in rows:
        assert row[4] == "unstable"
        assert float(row[5]) < -1e27 and float(row[6]) == 0.0


@pytest.mark.parametrize("argv, message", [
    (["scan", "--omega", "10:300:2", "--eps", "0:1:2"], "F leave the float range"),
    (["scan", "--omega", "10:300:2", "--eps", "0:1:2", "--method", "exact-rk"],
     "F leave the float range"),
    (["boundary", "--omega", "150:150:1", "--branch", "p"], "F leave the float range"),
    (["analyze", "--omega", "100", "--eps", "0", "--beta", "0", "--order", "2"], "det F = nan"),
])
def test_overflowed_monodromy_exits_3(argv, message):
    # an F that overflows (omega above ~112) ended as the validation error
    # "matrix entries must be finite" with exit 2 and numpy warnings on
    # stderr; analyze's det F = f00 f11 - f01 f10 overflows already at omega
    # 100 and printed a NaN determinant
    proc = _cli_subprocess(argv)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert "numeric range error" in proc.stderr and message in proc.stderr


def _overflowing_models(tmp_path):
    """Model files with finite entries whose averaging intermediates overflow:
    a nilpotent J0 whose square has a 1e400 entry, an order-1 term of 1e200
    whose products with U_1 reach 1e400, and A_1 = 1e100 over T = 1e100,
    whose grade-2 monodromy term T^2 A_1^2 / 2 does."""
    j0 = tmp_path / "j0.json"
    j0.write_text(json.dumps({"name": "custom", "period": 2.0,
                              "J0": [[0.0, 1e200, 0.0], [0.0, 0.0, 1e200], [0.0, 0.0, 0.0]],
                              "terms": [{"order": 1, "pieces": [_piece(
                                  [[[0.0], [0.0], [0.0]], [[0.0], [0.0], [0.0]],
                                   [[0.3], [0.0], [0.0]]])]}]}))
    term = _write_model(tmp_path, [{"order": 1, "pieces": [
        _piece([[[0.0], [0.0]], [[1e200], [0.0]]])]}])
    grade2 = tmp_path / "grade2.json"
    grade2.write_text(json.dumps({"name": "custom", "period": 1e100, "J0": [[0.0]], "terms": [
        {"order": 1, "pieces": [{"t_start": 0.0, "t_end": 1e100, "entries": [[[1e100]]]}]}]}))
    return [str(j0), term, str(grade2)]


@pytest.mark.parametrize("argv", [
    ["analyze", "--omega", "1", "--eps", "0", "--beta", "1e200", "--order", "4"],
    ["scan", "--omega", "0.1:0.2:2", "--eps", "0:1:2", "--beta", "1e200", "--method", "order4"],
    ["scan", "--omega", "0.1:0.2:2", "--eps", "0:1e200:2", "--method", "order2"],
    ["analyze", "--model-file", 0],
    ["analyze", "--model-file", 1],
    ["analyze", "--model-file", 2, "--order", "2"],
])
def test_overflow_in_the_averaging_layer_exits_3(tmp_path, argv):
    # a product of finite ppoly coefficients that overflowed printed a numpy
    # RuntimeWarning and then the validation error "piece coefficients must
    # be finite" with exit 2, and J0's overflowing powers a RuntimeWarning
    argv = [_overflowing_models(tmp_path)[a] if isinstance(a, int) else a for a in argv]
    proc = _cli_subprocess(argv)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("floquet-avg: numeric range error: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv, spec", [
    (["scan", "--omega", "0:0.5:2", "--eps=-inf:0.5:2"], "-inf:0.5:2"),
    (["scan", "--omega=-1e308:1e308:3", "--eps", "0:1:2"], "-1e308:1e308:3"),
    (["scan", "--omega", "nan:1:2", "--eps", "0:1:2"], "nan:1:2"),
    (["boundary", "--omega", "0:inf:3", "--branch", "p"], "0:inf:3"),
    (["boundary", "--omega", "inf:inf:1", "--branch", "p"], "inf:inf:1"),
    (["compare", "--omega=-1.5e308:1.5e308:2"], "-1.5e308:1.5e308:2"),
])
def test_range_with_non_finite_bounds_or_span_exits_2(argv, spec):
    # non-finite bounds and spans that overflow reached np.linspace, which
    # warned and made NaN samples ("omega must be finite ..., got np.float64(nan)")
    proc = _cli_subprocess(argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "Warning" not in proc.stderr
    assert repr(spec) in proc.stderr


def _reference_scan_csv(grid):
    """The scan CSV built cell by cell, every float through format(x, ".12g")."""

    def g12(x):
        return "NaN" if math.isnan(x) else format(float(x), ".12g")

    lines = ["omega,eps,beta,method,verdict,margin_trace,margin_det"]
    for ie, eps in enumerate(grid.eps_samples):
        for io, omega in enumerate(grid.omega_samples):
            lines.append(",".join((g12(omega), g12(eps), g12(grid.beta), grid.method,
                                   str(grid.verdicts[ie, io]), g12(grid.margin_trace[ie, io]),
                                   g12(grid.margin_det[ie, io]))))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("argv", [
    ["scan", "--omega", "0:0.4:7", "--eps", "0:1:5", "--beta", "0.1"],
    ["scan", "--omega", "0.05:0.3:4", "--eps", "0:0.9:3", "--beta", "0.07", "--method", "order4"],
    ["scan", "--omega", "1e-300:3e-300:3", "--eps", "0.123456789012345:2.5:2"],
])
def test_scan_csv_equals_cell_by_cell_formatting(capsys, monkeypatch, argv):
    grids = []
    original = scan.scan_region

    def recorded(*args, **kwargs):
        grids.append(original(*args, **kwargs))
        return grids[-1]

    monkeypatch.setattr(scan, "scan_region", recorded)
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and err == ""
    assert out == _reference_scan_csv(grids[0])


def test_scan_csv_formats_nan_and_signed_margins_cell_by_cell(capsys, monkeypatch):
    # exact and order-K margins are finite; NaN, infinities and -0 reach the
    # CSV writer only from a grid put together here
    original = scan.scan_region
    special = [math.nan, -math.inf, math.inf, -0.0, 5e-324, -1.0 / 3.0]
    grids = []

    def patched(*args, **kwargs):
        grid = original(*args, **kwargs)
        trace = grid.margin_trace.copy()
        det = grid.margin_det.copy()
        trace.flat[:len(special)] = special
        det.flat[-len(special):] = special
        grids.append(scan.ScanGrid(grid.omega_axis, grid.eps_axis, grid.beta, grid.method,
                                   grid.verdicts, trace, det))
        return grids[-1]

    monkeypatch.setattr(scan, "scan_region", patched)
    code, out, err = run_cli(capsys, ["scan", "--omega", "0:0.3:4", "--eps", "0:1:3",
                                      "--beta", "0.05"])
    assert code == 0 and err == ""
    assert out == _reference_scan_csv(grids[0])
    assert ",NaN," in out and out.count("NaN") == 2


@pytest.mark.parametrize("argv, omitted", [
    (["boundary", "--omega", "6:10:5", "--branch", "p"], "omitted 5 of 5 samples"),
    (["boundary", "--omega", "6:10:5", "--branch", "n"], "omitted 5 of 5 samples"),
    (["compare", "--omega", "8:10:3"], "6 of 6 samples lack an exact root"),
])
def test_large_omega_exact_samples_stay_omitted(capsys, argv, omitted):
    # |tr F| ~ 1e27 dwarfs the margin at both bracket ends; a det F taken as
    # f00 f11 - f01 f10 of that F is roundoff of either sign (+-1.7e38 at
    # omega 10) and made up sign changes, so roots were reported at omega 10
    code, out, err = run_cli(capsys, argv)
    assert code == 4 and omitted in err
    if argv[0] == "compare":
        assert all(row.split(",")[2] == "" for row in out.strip().splitlines()[1:])
    else:
        assert out.strip().splitlines() == ["omega,eps,branch,method"]


def test_benchmark_hooks_into_the_program_resolve():
    # the benchmark's tracer wraps program names and its worker reads the
    # thread rule; a name either needs must fail here, not in the benchmark
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((os.path.join(root, "src"),
                                         os.path.join(root, "perfbench"),
                                         env.get("PYTHONPATH", "")))
    code = ("import floquet_avg.cli\n"
            "from floquet_avg import scan\n"
            "import tracer\n"
            "tracer.Tracer().install()\n"
            "print(scan._resolve_threads(None))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) >= 1


_SMALL_COMMANDS = {
    "analyze": ["analyze", "--omega", "0.2", "--eps", "0.3", "--beta", "0", "--order", "2"],
    "scan": ["scan", "--omega", "0:0.2:2", "--eps", "0:0.5:2"],
    "boundary": ["boundary", "--omega", "0.1:0.2:2", "--branch", "p", "--method", "order2"],
    "compare": ["compare", "--omega", "0.1:0.2:2"],
}


@pytest.mark.parametrize("command", sorted(_SMALL_COMMANDS))
@pytest.mark.parametrize("target", ["missing-dir", "dir"])
def test_unwritable_output_exits_2(tmp_path, capsys, command, target):
    # an --output in a missing directory or naming a directory ended in a
    # FileNotFoundError or IsADirectoryError traceback with exit 1
    path = tmp_path / "missing" / "out.txt" if target == "missing-dir" else tmp_path
    code, out, err = run_cli(capsys, _SMALL_COMMANDS[command] + ["--output", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("floquet-avg: cannot write output: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["scan", "--omega", "0:1:100000000000000", "--eps", "0:1:2"],
    ["boundary", "--omega", "0:1:99999999999999", "--branch", "p"],
    ["compare", "--omega", "0:1:100000000000000"],
])
def test_unallocatable_range_exits_3(argv):
    # 1e14 samples cannot be allocated anywhere; numpy's MemoryError ended
    # in a traceback with exit 1
    proc = _cli_subprocess(argv, timeout=60)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("floquet-avg: out of memory") and proc.stderr.count("\n") == 1


def test_parser_is_built_once_and_commands_are_looked_up_per_call(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    calls = []
    original = cli.cmd_scan

    def wrapped(args):
        calls.append(args.command)
        return original(args)

    monkeypatch.setattr(cli, "cmd_scan", wrapped)
    for _ in range(2):
        code, _, _ = run_cli(capsys, _SMALL_COMMANDS["scan"])
        assert code == 0
    assert calls == ["scan", "scan"]

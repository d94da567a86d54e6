import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_dumps_json
from floquet_avg import cli, pendulum, scan, stability

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


@pytest.mark.parametrize("order", ["0", "-3", "7"])
def test_analyze_order_outside_the_range_names_it(capsys, order):
    # --order 0 and -3 printed "--order 0 exceeds the supported cap 6"
    code, out, err = run_cli(capsys, [
        "analyze", "--omega", "0.2", "--eps", "0.3", "--beta", "0", "--order", order,
    ])
    assert code == 2 and out == ""
    assert err == f"floquet-avg: --order must be from 1 to 6, got {order}\n"


def test_analyze_unknown_model(capsys):
    code, _, err = run_cli(capsys, ["analyze", "--model", "nope", "--omega", "1",
                                    "--eps", "1", "--beta", "0"])
    assert code == 2
    assert "unknown model" in err


@pytest.mark.parametrize("flags, name", [
    (["--model", "bogus", "--omega", "5", "--eps", "9", "--beta", "1"], "--model"),
    (["--model", "meissner-damped"], "--model"),
    (["--omega", "5"], "--omega"),
    (["--eps", "9"], "--eps"),
    (["--beta", "1"], "--beta"),
])
def test_analyze_model_file_rejects_the_pendulums_flags(tmp_path, capsys, flags, name):
    # a model file has no parameters: a pendulum flag next to it would be ignored
    path = _write_model(tmp_path, [{"order": 1, "pieces": [_piece([[[0.0], [0.0]], [[0.3], [0.0]]])]}])
    code, out, err = run_cli(capsys, ["analyze", "--model-file", path, *flags])
    assert code == 2 and out == ""
    assert err == f"floquet-avg: {name} cannot be given with --model-file\n"


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
    # from omega ~1.2 the order-4 seed lies more than 30% below the exact
    # root: brackets find no sign change, most samples are omitted, and the
    # contract says exit 4
    code, out, err = run_cli(capsys, [
        "boundary", "--beta", "0", "--branch", "p", "--method", "exact",
        "--omega", "1.0:1.5:6",
    ])
    assert code == 4
    assert "omitted" in err
    lines = out.strip().split("\n")
    assert lines[0] == "omega,eps,branch,method"
    assert len(lines) == 3  # 2 surviving samples


@pytest.mark.parametrize("argv, rows", [
    (["boundary", "--omega", "0.5:1.0:6", "--branch", "p"], 6),
    (["boundary", "--omega", "0.5:1.0:6", "--branch", "n"], 6),
    (["compare", "--omega", "0.02:0.8:15"], 30),
])
def test_exact_boundaries_keep_the_first_domain_past_omega_half(capsys, argv, rows):
    # the order-4 brackets were clipped at the p/n midpoint, which lost every
    # sample from omega ~ 0.55: the boundaries kept 1 of 6 and compare lacked
    # 10 of 30 exact roots, each exiting 4
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and err == ""
    lines = out.strip().splitlines()[1:]
    assert len(lines) == rows
    if argv[0] == "compare":
        assert all(line.split(",")[2] != "" for line in lines)


@pytest.mark.parametrize("beta", ["0", "0.1"])
@pytest.mark.parametrize("branch", ["p", "n"])
def test_exact_boundary_sample_at_omega_zero_is_kept(capsys, branch, beta):
    # at omega = 0 the p branch's order-4 seed is 0, so its bracket is [0, 0];
    # there F = [[1, 2 pi], [0, 1]] and the p factor 1 + det F - tr F is 0
    code, out, err = run_cli(capsys, ["boundary", "--method", "exact", "--branch", branch,
                                      "--omega", "0:0:1", "--beta", beta])
    assert (code, err) == (0, "")
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 1 and rows[0].startswith("0,")
    if branch == "p":
        assert rows[0] == "0,0,p,exact"


@pytest.mark.parametrize("beta", ["0", "0.1"])
def test_compare_at_omega_zero_has_both_exact_roots(capsys, beta):
    code, out, err = run_cli(capsys, ["compare", "--omega", "0:0:1", "--beta", beta])
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [row[1] for row in rows] == ["p", "n"]
    assert rows[0][2] == "0" and float(rows[1][2]) > 0.0


@pytest.mark.parametrize("beta", ["0", "0.1"])
def test_exact_p_boundary_from_omega_zero_omits_no_sample(capsys, beta):
    code, out, err = run_cli(capsys, ["boundary", "--method", "exact", "--branch", "p",
                                      "--omega", "0:0.4:41", "--beta", beta])
    assert (code, err) == (0, "")
    assert len(out.strip().splitlines()) == 42


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


def _graded_piece(t0, t1, degree, scale):
    """A piece on [t0, t1] whose lower row is scale * (0.3, -0.1) * sum (t/2)^k, k <= degree."""
    return {"t_start": t0, "t_end": t1, "entries": [
        [[0.0], [0.0]],
        [[0.3 * scale * 0.5 ** k for k in range(degree + 1)],
         [-0.1 * scale * 0.5 ** k for k in range(degree + 1)]]]}


def test_model_pieces_of_unequal_degree_give_the_pinned_document(tmp_path, capsys):
    # a product adds each coefficient's terms in one order fixed by that
    # coefficient alone, so padding a piece to the top degree of its term
    # changes no bit of these values, which are pinned bitwise
    path = _write_model(tmp_path, [
        {"order": 1, "pieces": [_graded_piece(0.0, 1.0, 5, 1.0), _graded_piece(1.0, 2.0, 0, -1.0)]},
        {"order": 2, "pieces": [_graded_piece(0.0, 1.0, 0, 0.5), _graded_piece(1.0, 2.0, 4, 0.5)]},
    ])
    code, out, _ = run_cli(capsys, ["analyze", "--model-file", path, "--order", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["A"][2] == [[-0.04500465730390743, -0.0028146585853246683],
                           [0.06346383688060066, 0.04500465730390746]]
    assert doc["F_approx"] == [[1.8765745566224643, 2.1852516213098814],
                               [0.7733995231667936, 1.3678197337649518]]
    assert doc["det_series"] == 0.7805875814571113


def test_model_pieces_of_unequal_degree_are_capped_piece_by_piece(tmp_path, capsys):
    # the product cap applies to each interval's own degrees (here at most
    # 60 at order 3), not to the sum of the two terms' top degrees (65)
    path = _write_model(tmp_path, [
        {"order": 1, "pieces": [_graded_piece(0.0, 1.0, 10, 1.0), _graded_piece(1.0, 2.0, 0, 1.0)]},
        {"order": 2, "pieces": [_graded_piece(0.0, 1.0, 0, 1.0), _graded_piece(1.0, 2.0, 55, 1.0)]},
    ])
    code, out, err = run_cli(capsys, ["analyze", "--model-file", path, "--order", "3"])
    assert code == 0 and err == ""
    assert json.loads(out)["order"] == 3
    code, out, err = run_cli(capsys, ["analyze", "--model-file", path, "--order", "4"])
    assert code == 2 and out == ""
    assert err == "floquet-avg: order 4 too high: product degree 115 exceeds cap 64\n"


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


_ODD_FLOATS = st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                                -5e-324, 1e308, 0.1, 1.0 / 3.0])
_FLOATS = _ODD_FLOATS | st.floats(allow_nan=True, allow_infinity=True)
_SCALARS = (_FLOATS | _FLOATS.map(np.float64) | st.floats(width=32).map(np.float32) | st.integers()
            | st.integers(-3, 3).map(np.int64) | st.booleans() | st.none() | st.text(max_size=6))


@settings(max_examples=300, deadline=None)
@given(doc=st.recursive(
    _SCALARS | st.lists(_FLOATS | _FLOATS.map(np.float64), max_size=6),
    lambda children: (st.lists(children, max_size=5) | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(st.text(max_size=4), children, max_size=4)),
    max_leaves=30))
def test_json_writer_prints_the_reference_writers_bytes(doc):
    # rows of floats print through one %.17g template; every other value as before
    assert cli.dumps_json(doc) == reference_dumps_json(doc)


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


_F_RANGE = "the entries of the monodromy matrix F leave the float range"


@pytest.mark.parametrize("argv, message", [
    # omega 150: F overflows; omega 1000: ||pi J||_1 = 3.14e+06 fails the
    # exponential's overflow guard, which a whole batch checks first
    (["scan", "--omega", "150:1000:2", "--eps", "0:1:2"], _F_RANGE),
    # omega 1e77: the order-4 F overflows; omega 1e80: (omega^2)^2 does
    (["scan", "--omega", "1e77:1e80:2", "--eps", "0:1:2", "--method", "order4"],
     "the order-4 approximation of F leaves the float range"),
    (["compare", "--omega", "150:1000:2"], _F_RANGE),
    (["boundary", "--omega", "150:1000:2", "--branch", "p"], _F_RANGE),
])
def test_batched_commands_name_the_first_failing_points_error(capsys, argv, message):
    # the batch raises a later point's error; each point rerun alone names
    # point 0's own, as a point-by-point loop would
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (3, "", f"floquet-avg: numeric range error: {message}\n")


def test_scan_rejects_the_boundary_name_exact(capsys):
    code, out, err = run_cli(capsys, ["scan", "--omega", "0:0.4:3", "--eps", "0:1:3",
                                      "--method", "exact"])
    assert (code, out) == (2, "") and "unknown method 'exact'" in err


@pytest.mark.parametrize("method", ["order2", "order4", "exact"])
@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_boundary_tol_is_checked_for_every_method(capsys, method, tol):
    # the closed forms find no root, but a tol no root finder could meet
    # exited 0 for them while the exact method exited 2
    code, out, err = run_cli(capsys, ["boundary", "--omega", "0:0.4:3", "--branch", "p",
                                      "--method", method, "--tol", tol])
    assert code == 2 and out == ""
    assert err == f"floquet-avg: tol must be finite and > 0, got {float(tol)!r}\n"


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
        # the CSV keeps 12 significant digits, so widen the bracket by that rounding
        slack = 1e-15 + 1e-11 * eps
        lo, hi = (scan.point_report(omega, e, 0.1, "exact-pc").margin_trace
                  for e in (eps - slack, eps + slack))
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


def test_scan_has_no_thread_option(capsys, monkeypatch):
    # the scan is single-threaded: --threads is an unknown argument, and the
    # environment variable that once set the thread count is not read
    argv = ["scan", "--omega", "0:0.4:4", "--eps", "0:1:4", "--beta", "0.1"]
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv + ["--threads", "1"])
    assert excinfo.value.code == 2
    assert "--threads" in capsys.readouterr().err
    code, out, err = run_cli(capsys, argv)
    monkeypatch.setenv("FLOQUET_AVG_THREADS", "abc")
    assert run_cli(capsys, argv) == (code, out, err) == (0, out, "")


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


def _short_piece_model(start, end):
    """A 2x2 model on [0, 2] whose order-1 term holds 0.1 / (end - start) on
    [start, end], an impulse of 0.1, and 0.3 elsewhere."""
    def piece(t0, t1, value):
        return {"t_start": t0, "t_end": t1, "entries": [[[0.0], [0.0]], [[value], [0.0]]]}

    pieces = [piece(0.0, start, 0.3), piece(start, end, 0.1 / (end - start))]
    if end < 2.0:
        pieces.append(piece(end, 2.0, 0.3))
    return {"name": "custom", "period": 2.0, "J0": [[0.0, 1.0], [0.0, 0.0]],
            "terms": [{"order": 1, "pieces": pieces}]}


@pytest.mark.parametrize("start, end", [(1.0, 1.0 + 1e-13), (1.0, 1.0 + 1.5e-12),
                                        (2.0 - 1.5e-12, 2.0)])
def test_model_file_piece_within_the_merging_distance_exits_2(tmp_path, capsys, start, end):
    # breakpoints closer than 1e-12 T merge, so the first product or sum dropped
    # such a piece: its impulse was lost and the report was the file's without it
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_short_piece_model(start, end)))
    code, out, err = run_cli(capsys, ["analyze", "--model-file", str(path), "--order", "2"])
    assert (code, out) == (2, "")
    assert err == (f"floquet-avg: the order-1 term's piece on [{start!r}, {end!r}] "
                   f"spans no more than 1e-12 of the period, where breakpoints merge\n")


@pytest.mark.parametrize("spans, message", [
    # a piece that ends before it starts read as a piece within the merging
    # distance, or as a gap; overlapping pieces, and a piece that starts
    # before 0, as a gap
    ([(0, 3), (3, 2)], "the order-1 term's piece on [3, 2] ends before it starts"),
    ([(0, 1), (1, 0.5), (0.5, 2)], "the order-1 term's piece on [1, 0.5] ends before it starts"),
    ([(0, 1.5), (1, 2)], "term pieces must tile [0, T] contiguously; overlap on [1, 1.5]"),
    ([(0, 2), (0.5, 1)], "term pieces must tile [0, T] contiguously; overlap on [0.5, 1]"),
    ([(0, 1), (1.5, 2)], "term pieces must tile [0, T] contiguously; gap at t = 1.5"),
    ([(-1, 2)], "term pieces start at t = -1, expected 0"),
])
def test_model_file_pieces_that_do_not_tile_the_period_are_named(tmp_path, capsys, spans,
                                                                 message):
    pieces = [{"t_start": t0, "t_end": t1, "entries": [[[0.0], [0.0]], [[0.3], [0.0]]]}
              for t0, t1 in spans]
    path = _write_model(tmp_path, [{"order": 1, "pieces": pieces}])
    code, out, err = run_cli(capsys, ["analyze", "--model-file", path])
    assert (code, out, err) == (2, "", f"floquet-avg: {message}\n")


def test_model_file_piece_just_past_the_merging_distance_is_kept(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_short_piece_model(1.0, 1.0 + 1e-11)))
    code, out, err = run_cli(capsys, ["analyze", "--model-file", str(path), "--order", "1"])
    assert (code, err) == (0, "")
    # the impulse reaches A_1 = (1/T) integral of J_1, (0.3 (2 - 1e-11) + 0.1) / 2, up to
    # the cancellation of the piece's 1e10 antiderivative; without it A_1 is 0.3
    assert json.loads(out)["A"][0][1][0] == pytest.approx(0.35, abs=1e-5)


def _bool_model(field):
    """A valid model on [0, 1] with the JSON boolean that Python reads as the
    same number put in one field."""
    piece = {"t_start": 0.0, "t_end": 1.0, "entries": [[[0.0], [0.0]], [[0.3], [0.0]]]}
    doc = {"name": "custom", "period": 1.0, "J0": [[0.0, 1.0], [0.0, 0.0]],
           "terms": [{"order": 1, "pieces": [piece]}]}
    if field == "J0":
        doc["J0"] = [[False, True], [0, 0]]
    elif field == "order":
        doc["terms"][0]["order"] = True
    elif field == "period":
        doc["period"] = True
    else:
        piece[field] = field == "t_end"
    return doc


@pytest.mark.parametrize("field", ["order", "period", "t_start", "t_end", "J0"])
def test_model_file_boolean_for_a_number_exits_2(tmp_path, capsys, field):
    # true and false were read as 1 and 0, so each of these files ran to exit 0
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_bool_model(field)))
    code, out, err = run_cli(capsys, ["analyze", "--model-file", str(path)])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and field in err


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
    # omega**2 overflows in float pow, (beta*omega)^2 in the boundary
    # polynomial, and a huge period in period**m and math.exp
    code, out, err = run_cli(capsys, argv)
    assert code == 3 and out == ""
    assert "range" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, where", [
    (["boundary", "--omega", "1e200:1e200:1", "--branch", "p"], "omega = 1e+200, beta = 0"),
    (["scan", "--omega", "0:1e200:2", "--eps", "0:1:2", "--beta", "0.5"],
     "omega = 1e+200, beta = 0.5"),
    (["compare", "--omega", "0.1:2e160:3"], "omega = 1e+160, beta = 0"),
    (["analyze", "--omega", "1e160", "--eps", "0.1", "--beta", "0", "--order", "6"],
     "omega = 1e+160, beta = 0"),
])
def test_overflowing_omega_square_names_omega_and_beta(capsys, argv, where):
    # omega ** 2 raised a Python OverflowError from omega ~ 1.3e154, printed as
    # "a floating-point result left the float range" with no omega named
    code, out, err = run_cli(capsys, argv)
    assert code == 3 and out == ""
    assert err == f"floquet-avg: numeric range error: omega^2 leaves the float range at {where}\n"


def test_invalid_point_is_reported_before_an_overflowing_omega_square(capsys):
    # every point is checked before omega is squared, so the first point's
    # negative eps is the error, not the square of the second omega
    code, out, err = run_cli(capsys, ["scan", "--omega", "1e200:2e200:2", "--eps=-1:1:2"])
    assert code == 2 and out == ""
    assert err == "floquet-avg: eps must be finite and >= 0, got -1.0\n"


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


def test_exact_pc_cells_where_only_the_entries_of_f_overflow(capsys):
    # from omega ~ 112.3 at beta 0 tr F ~ exp(2 pi omega) is still finite but
    # F[1, 0] is not: such a cell is a range error, not a finite margin
    code, out, err = run_cli(capsys, ["scan", "--omega", "112.5:112.8:2", "--eps", "0:0.1:2",
                                      "--beta", "0", "--method", "exact-pc"])
    assert (code, out, err) == (3, "", f"floquet-avg: numeric range error: {_F_RANGE}\n")
    # just below the band every entry of F is finite
    code, out, err = run_cli(capsys, ["scan", "--omega", "112:112.2:2", "--eps", "0:0.1:2",
                                      "--beta", "0", "--method", "exact-pc"])
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 4 and all(row[4] == "unstable" and row[6] == "0" for row in rows)
    margins = {(row[0], row[1]): float(row[5]) for row in rows}
    assert abs(margins["112.2", "0"] / -1.46572941004e+306 - 1.0) <= 1e-12


@pytest.mark.parametrize("argv, where", [
    pytest.param(["compare", "--omega", "0:0.3:2", "--beta", "1e300"],
                 "order-4 boundary polynomial leaves the float range at omega = 0.3, "
                 "beta = 1e+300", id="argv0"),
    pytest.param(["boundary", "--omega", "0.1:0.2:2", "--branch", "n", "--method", "order4",
                  "--beta", "1e300"],
                 "order-4 boundary polynomial leaves the float range at omega = 0.1, "
                 "beta = 1e+300", id="argv1"),
    # no monomial overflows: beta*omega times the order-2 coefficient does
    pytest.param(["boundary", "--omega", "0.5:0.5:1", "--branch", "n", "--method", "order2",
                  "--beta", "1e308"],
                 "order-2 boundary polynomial leaves the float range at omega = 0.5, "
                 "beta = 1e+308", id="argv2"),
])
def test_python_float_overflow_is_one_plain_range_error(argv, where):
    # beta ** 2 in the order-4 quartic raised OverflowError, printed as the
    # errno tuple "(34, 'Numerical result out of range')"; the boundary
    # polynomial's range error names the omega and beta it fails at
    proc = _cli_subprocess(argv)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == f"floquet-avg: numeric range error: the {where}\n"


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


@pytest.mark.parametrize("argv", [
    ["scan", "--method", "order6", "--omega", "0:0.3:2", "--eps", "0:1e80:2"],
    ["scan", "--method", "order6", "--beta", "1e200", "--omega", "0:0.3:2", "--eps", "0:1:2"],
    ["scan", "--method", "order4", "--omega", "0:1e100:3", "--eps", "0:1:2"],
    ["analyze", "--omega", "1e160", "--eps", "0.1", "--beta", "0", "--order", "6"],
    ["analyze", "--omega", "0.1", "--eps", "1e80", "--beta", "0.1", "--order", "6"],
])
def test_overflowing_parameter_monomial_exits_3(argv):
    # eps^4, (beta omega)^2, (omega^2)^2 or omega^2 beyond the float range: one
    # range-error line, no RuntimeWarning and no NaN margin on stdout
    proc = _cli_subprocess(argv)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("floquet-avg: numeric range error: ")
    assert proc.stderr.count("\n") == 1 and "Warning" not in proc.stderr


@pytest.mark.parametrize("argv, where", [
    (["analyze", "--omega", "1.34e154", "--eps", "1e307", "--beta", "0", "--order", "1"],
     "omega = 1.34e+154, eps = 1e+307, beta = 0"),
    (["analyze", "--omega", "1e150", "--eps", "0.1", "--beta", "1e200", "--order", "1"],
     "omega = 1e+150, eps = 0.1, beta = 1e+200"),
    (["scan", "--omega", "1.33e154:1.34e154:2", "--eps", "1e307:2e307:2", "--method",
      "exact-rk"], "omega = 1.33e+154, eps = 1e+307, beta = 0"),
    (["scan", "--omega", "1.33e154:1.34e154:2", "--eps", "1e307:2e307:2"],
     "omega = 1.33e+154, eps = 1e+307, beta = 0"),
])
def test_overflowing_jacobian_entry_names_the_point(argv, where):
    # omega^2 + eps or beta*omega beyond the float range built J(t) with an
    # infinite entry: the validation error "piece coefficients must be
    # finite" or "matrix entries must be finite" with exit 2, after a numpy
    # RuntimeWarning
    proc = _cli_subprocess(argv)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == ("floquet-avg: numeric range error: J(t) leaves the float range "
                           f"at {where}\n")


@pytest.mark.parametrize("order, message", [
    ("1", "the invariants of F leave the float range: tr F = 1.06e+164, det F = inf"),
    ("2", "det_series = exp(753.982) leaves the float range"),
])
def test_overflowing_liouville_determinant_is_named(tmp_path, capsys, order, message):
    # tr J = 120 over T = 2 pi: det F = exp(754) leaves the float range while
    # F's entries do not; math.exp raised OverflowError, printed as "a
    # floating-point result left the float range" without naming det F
    piece = {"t_start": 0.0, "t_end": 2.0 * PI, "entries": [[[60.0], [0.0]], [[0.0], [60.0]]]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"name": "custom", "period": 2.0 * PI,
                                "J0": [[0.0, 1.0], [0.0, 0.0]],
                                "terms": [{"order": 2, "pieces": [piece]}]}))
    code, out, err = run_cli(capsys, ["analyze", "--model-file", str(path), "--order", order])
    assert code == 3 and out == ""
    assert err == f"floquet-avg: numeric range error: {message}\n"


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
    # exact-pc margin_det is 1 - exp(-2 pi beta omega), the same down each omega column
    ["scan", "--omega", "0:0.4:50", "--eps", "0:1:50", "--beta", "0.1"],
    ["scan", "--omega", "0:0.4:50", "--eps", "0:1:50", "--beta", "0"],  # margin_det 0 everywhere
    # an order-2 margin_det differs from row to row
    ["scan", "--omega", "0.05:0.3:6", "--eps", "0:0.9:4", "--beta", "0.07", "--method", "order2"],
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


@pytest.mark.parametrize("method", ["exact-pc", "order4"])
def test_scan_builds_each_axis_once(capsys, monkeypatch, method):
    # the grid rebuilt its omega and eps axes with np.linspace on every
    # access, four linspace calls per scan command
    calls = []
    linspace = np.linspace

    def counting(*args, **kwargs):
        calls.append(args)
        return linspace(*args, **kwargs)

    monkeypatch.setattr(np, "linspace", counting)
    code, _, err = run_cli(capsys, ["scan", "--omega", "0:0.3:4", "--eps", "0:1:3",
                                    "--method", method])
    assert code == 0 and err == ""
    assert calls == [(0.0, 0.3, 4), (0.0, 1.0, 3)]


def _patched_scan_csv(capsys, patch):
    """The scan CSV of a grid whose margins ``patch(trace, det)`` edits in
    place, and that grid's cell-by-cell reference CSV."""
    original = scan.scan_region
    grids = []

    def patched(*args, **kwargs):
        grid = original(*args, **kwargs)
        trace = grid.margin_trace.copy()
        det = grid.margin_det.copy()
        patch(trace, det)
        grids.append(scan.ScanGrid(grid.omega_samples, grid.eps_samples, grid.beta, grid.method,
                                   grid.verdicts, trace, det))
        return grids[-1]

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(scan, "scan_region", patched)
        code, out, err = run_cli(capsys, ["scan", "--omega", "0:0.3:4", "--eps", "0:1:3",
                                          "--beta", "0.05"])
    assert code == 0 and err == ""
    return out, _reference_scan_csv(grids[0])


def test_scan_csv_formats_nan_and_signed_margins_cell_by_cell(capsys):
    # exact and order-K margins are finite, or -inf for margin_trace, never
    # NaN, so no NaN is put in; infinities and -0 reach the CSV writer from
    # a grid put together here
    special = [-math.inf, math.inf, -0.0, 5e-324, -1.0 / 3.0]

    def specials(trace, det):
        trace.flat[:len(special)] = special
        det.flat[-len(special):] = special

    out, reference = _patched_scan_csv(capsys, specials)
    assert out == reference
    assert ",-inf," in out and ",inf\n" in out and "NaN" not in out

    # an exact-pc margin_det is the same down each omega column; with one
    # column 0.0 in every row but one, which holds -0.0, a writer that takes
    # the column for constant by == prints 0 where -0 belongs
    def signed_zero(trace, det):
        det[:, 1] = 0.0
        det[1, 1] = -0.0
        trace[2, :2] = math.inf, -math.inf  # both infinities in one row

    out, reference = _patched_scan_csv(capsys, signed_zero)
    assert out == reference
    assert out.count(",-0\n") == 1 and out.count(",0\n") == 5 and "NaN" not in out


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


_ANALYZE_POINTS = [(3.0, 1.0, 0.1)] + [
    tuple(float(x) for x in point) for point in np.column_stack((
        np.random.default_rng(12).uniform(0.0, 8.0, 12),
        np.random.default_rng(13).uniform(0.0, 3.0, 12),
        np.random.default_rng(14).uniform(0.0, 0.3, 12)))]


@pytest.mark.parametrize("omega, eps, beta", _ANALYZE_POINTS)
def test_analyze_exact_pc_report_is_the_scan_cells(capsys, omega, eps, beta):
    # analyze took det F = f00 f11 - f01 f10 of the product, 18% off
    # Liouville's det at (3, 1, 0.1) and 2e5 times it at omega 4, while scan
    # cells and boundaries take det F from Liouville's formula
    code, out, err = run_cli(capsys, ["analyze", "--omega", repr(omega), "--eps", repr(eps),
                                      "--beta", repr(beta), "--order", "2"])
    assert code == 0 and err == ""
    doc = json.loads(out)["exact_pc"]
    cell = scan.point_report(omega, eps, beta, "exact-pc")
    assert doc["trace"] == cell.trace and doc["determinant"] == cell.determinant
    assert doc["margin_trace"] == cell.margin_trace and doc["margin_det"] == cell.margin_det
    assert doc["verdict"] == cell.verdict.value
    assert [complex(m["re"], m["im"]) for m in doc["multipliers"]] == list(cell.multipliers)
    # F is the exponential product's, as for a model file
    f = stability.pc_monodromy(pendulum.HALF_PERIODS, pendulum.jacobian_stack([omega], [eps], beta))
    assert doc["F"] == f[0][0].tolist()


@pytest.mark.parametrize("order", range(1, 7))
@pytest.mark.parametrize("beta", [0.0, 0.2])
def test_analyze_order_margins_are_the_scan_cells(capsys, order, beta):
    # both evaluate the one coefficient table at the point, bitwise alike
    rng = np.random.default_rng(order)
    method = f"order{order}"
    for omega, eps in zip(rng.uniform(0.0, 0.5, 4).tolist(), rng.uniform(0.0, 1.2, 4).tolist()):
        code, out, err = run_cli(capsys, ["analyze", "--omega", repr(omega), "--eps", repr(eps),
                                          "--beta", repr(beta), "--order", str(order)])
        assert code == 0 and err == ""
        doc = json.loads(out)["approx"]
        grid = scan.scan_region((omega, omega + 0.1, 2), (eps, eps + 0.1, 2), beta, method)
        cell = scan.point_report(omega, eps, beta, method)
        assert doc["margin_trace"] == grid.margin_trace[0, 0] == cell.margin_trace
        assert doc["margin_det"] == grid.margin_det[0, 0] == cell.margin_det
        assert doc["verdict"] == grid.verdicts[0, 0] == cell.verdict.value


def _readme_usage_commands():
    """The command lines of the README's CLI usage block, continuations joined."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [line.split()[1:] for line in lines if line.startswith("floquet-avg ")]


_README_COMMANDS = _readme_usage_commands()


def test_readme_usage_block_is_found():
    assert {argv[0] for argv in _README_COMMANDS} == {"analyze", "scan", "boundary", "compare"}


@pytest.mark.parametrize("argv", _README_COMMANDS,
                         ids=[f"{argv[0]}{k}" for k, argv in enumerate(_README_COMMANDS)])
def test_readme_usage_commands_run_cleanly(tmp_path, capsys, argv):
    # a documented command that drops samples exits 4 and writes to stderr
    argv = list(argv)
    target = str(tmp_path / "out.txt")
    if "--output" in argv:
        argv[argv.index("--output") + 1] = target
    else:
        argv += ["--output", target]
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and out == "" and err == ""
    with open(target, encoding="utf-8") as fh:
        assert len(fh.read().splitlines()) > 1


def test_benchmark_hooks_into_the_program_resolve():
    # the benchmark's tracer wraps program names and its worker reads the
    # scan's thread count; a name either needs must fail here, not in the
    # benchmark
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((os.path.join(root, "src"),
                                         os.path.join(root, "perfbench"),
                                         env.get("PYTHONPATH", "")))
    code = ("import json\n"
            "import floquet_avg.cli\n"
            "from floquet_avg import scan\n"
            "import tracer, worker\n"
            "tracer.Tracer().install()\n"
            "print(json.dumps({'threads': scan._resolve_threads(None),\n"
            "                  'env': worker._env()}))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["threads"] == result["env"]["scan_threads"] == 1


def test_benchmark_tracer_runs_the_averaged_commands_unchanged(tmp_path):
    # the tracer reads run_recursion's order as its third positional argument:
    # a signature it cannot read would break traced runs, not name lookups
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((os.path.join(root, "src"),
                                         os.path.join(root, "perfbench"),
                                         env.get("PYTHONPATH", "")))
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "name": "custom", "period": 2.0 * PI, "J0": [[0.0, 1.0], [0.0, 0.0]],
        "terms": [{"order": 1, "pieces": [
            {"t_start": 0.0, "t_end": PI, "entries": [[[0.0], [0.0]], [[0.4, -0.03], [0.0]]]},
            {"t_start": PI, "t_end": 2.0 * PI, "entries": [[[0.0], [0.0]], [[-0.4], [0.0]]]},
        ]}]}), encoding="utf-8")
    code = (
        "import contextlib, io, json, sys\n"
        "from floquet_avg import cli, pendulum\n"
        "import tracer\n"
        f"commands = [['analyze', '--model-file', {str(model)!r}, '--order', '4']]\n"
        "commands += [['scan', '--omega', '0.05:0.3:3', '--eps', '0:0.8:3', '--beta', '0.1',\n"
        "              '--method', f'order{k}'] for k in range(1, 7)]\n"
        "commands += [['analyze', '--omega', '0.2', '--eps', '0.5', '--beta', '0.1',\n"
        "              '--order', '4']]\n"
        "def run(argv):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert cli.main(argv) == 0\n"
        "    return out.getvalue()\n"
        "plain = [run(argv) for argv in commands]\n"
        "pendulum._TABLES.clear()\n"
        "t = tracer.Tracer()\n"
        "t.install()\n"
        "traced = [run(argv) for argv in commands]\n"
        "print(json.dumps({'same': plain == traced, 'counters': t.snapshot()['counters']}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["same"]
    # one recursion for the model file's analyze, one for the order-4 table,
    # which the pendulum analyze reuses; one per order for the other tables
    counters = result["counters"]
    assert counters["averaging.run_recursion.o4.calls"] == 2
    assert counters["averaging.run_recursion.o2.calls"] == 1
    assert counters["averaging.run_recursion.o6.calls"] == 1


@pytest.mark.parametrize("beta", [0.0, 0.3])
def test_scan_cells_and_analyze_approx_margins_are_bitwise_equal(capsys, beta):
    # one evaluation of the table serves both: analyze's margins at 17 digits
    # read back as the scan cell's floats
    grid_omegas, grid_epss = (0.05, 0.45, 3), (0.2, 1.1, 3)
    for order in range(1, 7):
        grid = scan.scan_region(grid_omegas, grid_epss, beta, f"order{order}")
        for ie, eps in enumerate(grid.eps_samples.tolist()):
            for io, omega in enumerate(grid.omega_samples.tolist()):
                code, out, _ = run_cli(capsys, [
                    "analyze", "--omega", repr(omega), "--eps", repr(eps), "--beta", repr(beta),
                    "--order", str(order)])
                assert code == 0
                approx = json.loads(out)["approx"]
                assert approx["margin_trace"] == grid.margin_trace[ie, io]
                assert approx["margin_det"] == grid.margin_det[ie, io]


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

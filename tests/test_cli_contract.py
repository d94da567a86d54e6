"""Property tests of the CLI exit-code contract: whatever the input, a command
ends in exit 0, 2, 3 or 4 and no exception escapes ``cli.main``."""

import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from floquet_avg import cli
from floquet_avg.exactmono import RK_MAX_STEPS

CONTRACT = (0, 2, 3, 4)

SETTINGS = settings(max_examples=100, derandomize=True, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.function_scoped_fixture])

JSON_LEAF = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                      st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3))
JSON_VALUE = st.recursive(JSON_LEAF, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8)
EXTREME = st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 10 ** 400, 0.0, -1.0])


def _spots(node):
    """Every (container, key) of a JSON document, depth first."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _spots(node[key])


@st.composite
def model_docs(draw):
    """A well-formed model file, or one with a single spot replaced by an
    extreme number or arbitrary JSON, so inputs reach the numerical code."""
    n = draw(st.integers(1, 3))
    period = draw(st.one_of(st.floats(0.1, 10.0), st.sampled_from([2.0 * math.pi, 1e-300, 1e300])))
    orders = draw(st.permutations([1, 2, 3]))[:draw(st.integers(1, 2))]
    coeff = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3)
    terms = []
    for order in orders:
        count = draw(st.integers(1, 3))
        cuts = [0.0] + sorted(draw(st.lists(st.floats(0.05, 0.95), min_size=count - 1,
                                            max_size=count - 1, unique=True))) + [1.0]
        pieces = [{"t_start": lo * period, "t_end": hi * period,
                   "entries": draw(st.lists(st.lists(coeff, min_size=n, max_size=n),
                                            min_size=n, max_size=n))}
                  for lo, hi in zip(cuts[:-1], cuts[1:])]
        terms.append({"order": order, "pieces": pieces})
    doc = {"name": "custom", "period": period,
           "J0": [[1.0 if j == i + 1 else 0.0 for j in range(n)] for i in range(n)],
           "terms": terms}
    spot = draw(st.one_of(st.none(), st.sampled_from(list(_spots(doc))[1:])))
    if spot is not None:
        container, key = spot
        container[key] = draw(st.one_of(EXTREME, JSON_VALUE))
    return doc


BETA = st.one_of(st.floats(0.0, 0.5).map(repr), st.sampled_from(
    ["-1", "1e200", "nan", "inf", "-inf", "", "x"]))
VALUE_TOKEN = st.one_of(st.sampled_from(["-1", "1e200", "1e-300", "nan", "inf", "-inf", "", "x"]),
                        st.floats(allow_nan=True, allow_infinity=True).map(repr))
COUNT_TOKEN = st.sampled_from(["1", "0", "-1", "", "x", "2.0"])
PARAM = st.one_of(st.floats(0.0, 1.0).map(repr), VALUE_TOKEN)
RK_STEPS = st.one_of(st.integers(16, 48), st.integers(-10 ** 9, 15),
                     st.integers(RK_MAX_STEPS + 1, 10 ** 12)).map(str)


@st.composite
def range_specs(draw):
    """min:max:count, mostly valid over the documented ranges, else with one
    part replaced or a part missing or extra."""
    lo = draw(st.floats(0.0, 0.5))
    parts = [repr(lo), repr(lo + draw(st.floats(0.01, 0.5))), str(draw(st.integers(2, 4)))]
    pick = draw(st.sampled_from([None, None, None, 0, 1, 2, "drop", "extra"]))
    if pick in (0, 1, 2):
        parts[pick] = draw(COUNT_TOKEN if pick == 2 else VALUE_TOKEN)
    elif pick == "drop":
        parts.pop()
    elif pick == "extra":
        parts.append(draw(COUNT_TOKEN))
    return ":".join(parts)


def _exit_code(argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line with exit 2
        code = exc.code
    assert code in CONTRACT, (argv, code)


@SETTINGS
@given(doc=model_docs(), order=st.integers(1, 7))
def test_analyze_model_file_exit_codes(tmp_path_factory, capsys, doc, order):
    path = tmp_path_factory.mktemp("model") / "model.json"
    path.write_text(json.dumps(doc))
    _exit_code(["analyze", "--model-file", str(path), "--order", str(order), "--rk-steps", "16"])
    capsys.readouterr()


@SETTINGS
@given(omega=range_specs(), eps=range_specs(), beta=BETA,
       method=st.sampled_from(["exact-pc", "order2", "order4", "exact-rk", "order9"]))
def test_scan_range_exit_codes(capsys, omega, eps, beta, method):
    _exit_code(["scan", f"--omega={omega}", f"--eps={eps}", f"--beta={beta}",
                f"--method={method}"])
    capsys.readouterr()


@SETTINGS
@given(omega=range_specs(), beta=BETA, branch=st.sampled_from(["p", "n"]),
       method=st.sampled_from(["exact", "exact-pc", "order2", "order4"]),
       tol=st.sampled_from(["1e-10", "1e-6", "0", "nan"]))
def test_boundary_range_exit_codes(capsys, omega, beta, branch, method, tol):
    _exit_code(["boundary", f"--omega={omega}", f"--beta={beta}", f"--branch={branch}",
                f"--method={method}", f"--tol={tol}"])
    capsys.readouterr()


@SETTINGS
@given(omega=range_specs(), beta=BETA, tol=st.sampled_from(["1e-10", "1e-6", "0", "nan"]))
def test_compare_range_exit_codes(capsys, omega, beta, tol):
    _exit_code(["compare", f"--omega={omega}", f"--beta={beta}", f"--tol={tol}"])
    capsys.readouterr()


@SETTINGS
@given(omega=PARAM, eps=PARAM, beta=BETA, order=st.integers(0, 7), rk_steps=RK_STEPS)
def test_analyze_pendulum_flag_exit_codes(capsys, omega, eps, beta, order, rk_steps):
    _exit_code(["analyze", f"--omega={omega}", f"--eps={eps}", f"--beta={beta}",
                f"--order={order}", f"--rk-steps={rk_steps}"])
    capsys.readouterr()

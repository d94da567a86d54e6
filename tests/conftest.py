import gzip
import itertools
import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from floquet_avg import averaging, cli, pendulum, ppoly
from floquet_avg.smallmat import matexp

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


# the exact-pc Hill discriminant against the trace of pc_monodromy's F:
# |difference| / max(1, |tr F|) measured at most 3.6e-15 (beta 0.7, omega up
# to 10, eps up to 3; test_stability's batch-independence test)
PC_TRACE_REL = 1e-14


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def pendulum_pipeline(omega, eps, beta, order):
    """series split -> standard form -> recursion -> coefficient table ->
    order-N approximation, on the point's own series as a model file's
    analyze runs them: its table, evaluated with its one monomial at 1.

    Returns (params, system, x0, a_list, mono), ``a_list`` the point's
    (n, n) A_1..A_N.  Each order of the table holds the one monomial, so its
    coefficients are the point's own F_j, and ``mono`` holds F0, those F_j,
    the partial sums F0 + F_1 + ... + F_k added as
    :func:`averaging.evaluate_monodromy` adds them, and that approximation's
    traces (tr F0, tr F_1, ..., then tr F) and det F, with the closure
    residuals ||U_1(T)||..||U_{N-1}(T)|| that analyze prints beside them.
    """
    params = pendulum.PendulumParams(omega, eps, beta)
    system = pendulum.series_split(params)
    table = averaging.system_table(system, order)
    values = np.ones((len(table.A), 1))
    a_mats, residuals = averaging.evaluate_table(table, values)
    _, traces, det = averaging.evaluate_monodromy(table, values)
    sums = [table.F0]
    for f in table.F:
        sums.append(sums[-1] + f)
    mono = SimpleNamespace(F0=table.F0, F_terms=tuple(table.F), partial_sums=tuple(sums),
                           trace_by_order=tuple(float(t[0]) for t in traces[:-1]),
                           trace=float(traces[-1][0]), det=float(det[0]),
                           closure_residuals=tuple(float(r[0]) for r in residuals))
    return params, system, table.x0, tuple(a[0] for a in a_mats), mono


def trace_identity_residuals(sys, a_list):
    """|tr(A_j) - (1/T) integral tr(J_j)| for each A_j of ``a_list``, an
    averaged expansion of the series system ``sys``.

    The identity holds in any dimension for every j >= 1; a violation
    points at a broken recursion or a mis-graded input.
    """
    out = []
    for j, a in enumerate(a_list, start=1):
        expect = 0.0
        if j <= len(sys.terms):
            expect = float(np.trace(ppoly.pp_average(sys.terms[j - 1])))
        out.append(abs(float(np.trace(a)) - expect))
    return out


def monodromy_direct(x0, a_list, period):
    """F0 @ exp((A_1 + ... + A_N) T): the un-graded averaged monodromy.

    Agrees with the order-N partial sum of the table's monodromy up to
    terms of order N+1.
    """
    a_sum = np.zeros_like(a_list[0])
    for a in a_list:
        a_sum = a_sum + a
    return ppoly.pp_eval(x0, period) @ matexp(a_sum, period)


def full_degree_standard_form(sys):
    """:func:`averaging.standard_form` as it was before X0 stopped at J0's
    last nonzero power: X0 and X0^-1 held at degree n - 1 whatever J0's
    nilpotency index, the coefficients past it exact zeros."""
    n = sys.dim
    x0_coeff = np.zeros((n, n, n))
    x0inv_coeff = np.zeros((n, n, n))
    power = np.eye(n)
    for k in range(n):
        scale = 1.0 / math.factorial(k)
        x0_coeff[:, :, k] = power * scale
        x0inv_coeff[:, :, k] = power * (scale if k % 2 == 0 else -scale)
        power = power @ sys.J0
    breaks = np.array([0.0, sys.period])
    x0 = ppoly.PiecewisePolyMatrix(sys.period, breaks, x0_coeff[None])
    x0inv = ppoly.PiecewisePolyMatrix(sys.period, breaks.copy(), x0inv_coeff[None])
    return x0, [ppoly.pp_mul(ppoly.pp_mul(x0inv, term), x0) for term in sys.terms]


def reference_dumps_json(obj, indent: int = 0) -> str:
    """The analyze JSON writer as it was before rows of floats went through
    one template: every value formatted on its own, floats by
    :func:`cli.format_float`.  ``cli.dumps_json`` must print its bytes."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": {reference_dumps_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in seq)
        if flat:
            return "[" + ", ".join(reference_dumps_json(v) for v in seq) + "]"
        items = [inner + reference_dumps_json(v, indent + 1) for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return cli.format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def pendulum_expansion(omegas, epss, beta, order):
    """The pendulum's A_n and closure residuals at K points, ``(A, residuals)``
    as :func:`averaging.evaluate_table` gives them from the order-K table."""
    values = pendulum.monomial_values(omegas, epss, beta, order)
    return averaging.evaluate_table(pendulum.averaged_table(order), values)


def paper_order2(omega, beta):
    """The paper's order-2 first-domain boundaries (eps_p, eps_n), one
    float operation at a time, eps_n NaN where its radicand is negative:

    eps_p = (2 sqrt(3)/pi) omega
    eps_n = (2 sqrt(3)/pi) sqrt(omega^2 - beta omega/pi + 1/pi^2)
    """
    scale = 2.0 * math.sqrt(3.0) / math.pi
    radicand = omega ** 2 - beta * omega / math.pi + 1.0 / math.pi ** 2
    return scale * omega, scale * math.sqrt(radicand) if radicand >= 0.0 else math.nan


def paper_quartic(omega, beta, branch):
    """(a, b, c) of the paper's order-4 quartic a x^2 + b x + c = 0 in x = eps^2.

    Both branches share a = pi^8/1260 and
    b = -(pi^4/3)(1 + 4 pi^2 omega^2/15 - pi beta omega); c is c_p or c_n.
    """
    pi = math.pi
    w2 = omega ** 2
    a = pi ** 8 / 1260.0
    b = -(pi ** 4 / 3.0) * (1.0 + 4.0 * pi ** 2 * w2 / 15.0 - pi * beta * omega)
    if branch == "p":
        return a, b, 4.0 * pi ** 2 * w2 * (1.0 + pi ** 2 * w2 / 3.0 - beta * omega * pi)
    return a, b, 4.0 * (1.0 - beta * pi * omega
                        + pi ** 2 * w2 * (1.0 + pi ** 2 * w2 / 3.0 - beta * omega * pi + beta ** 2))


def paper_order4(omega, beta, branch):
    """The paper's order-4 boundaries (first, second) of a branch: the square
    roots of the quartic's x roots in ascending order, NaN where a root is
    complex or not positive.  The larger-magnitude x root comes from the
    quadratic formula and its mate from c / (a x)."""
    a, b, c = paper_quartic(omega, beta, branch)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return math.nan, math.nan
    x1 = (-b + math.sqrt(disc) if b <= 0.0 else -b - math.sqrt(disc)) / (2.0 * a)
    x2 = c / (a * x1) if x1 != 0.0 else 0.0
    return tuple(math.sqrt(x) if x > 0.0 else math.nan for x in sorted((x1, x2)))


@pytest.fixture(autouse=True)
def fresh_coefficient_tables():
    """Every test builds the pendulum's coefficient tables it uses, so a test
    that monkeypatches the averaging layer cannot pass by reading a table
    built earlier, and a table built under its patch does not outlive it."""
    pendulum._TABLES.clear()
    yield
    pendulum._TABLES.clear()


def recorded(name):
    """The cases of the byte pin ``data/<name>.json.gz``: each a command's
    argv and its recorded exit code, stdout and, where recorded, stderr."""
    with gzip.open(os.path.join(DATA, name + ".json.gz"), "rt", encoding="utf-8") as f:
        return json.load(f)


def assert_prints_recorded(capsys, case):
    """Run a recorded case through ``cli.main``: the same exit code and
    stderr, and stdout byte for byte.  A stdout that differs fails with the
    number of lines that moved and the first of them, recorded and printed."""
    code = cli.main(case["argv"])
    out, err = capsys.readouterr()
    assert (code, err) == (case["exit"], case.get("stderr", ""))
    if out == case["stdout"]:
        return
    old, new = case["stdout"].splitlines(True), out.splitlines(True)
    moved = [k for k, (a, b) in enumerate(itertools.zip_longest(old, new)) if a != b]
    k = moved[0]
    first = [lines[k] if k < len(lines) else None for lines in (old, new)]
    pytest.fail(f"{len(moved)} of {max(len(old), len(new))} lines moved; the first, "
                f"line {k + 1}:\n  recorded: {first[0]!r}\n  printed:  {first[1]!r}",
                pytrace=False)

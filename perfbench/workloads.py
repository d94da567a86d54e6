"""Seeded command streams for the four benchmark workloads.

Each workload is an endless stream of CLI commands drawn from a seed: the
same seed gives the same commands in the same order, and no two commands
repeat inputs, so a result cache inside the program cannot turn the
benchmark into a lookup.  The program sees only the argv list and, for
custom models, a JSON model file written before the command is sent.

A command also carries what the output checks need to know about its
inputs (``meta``) and how many work items it stands for (``items``).
"""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

PI = math.pi
PERIOD = 2.0 * PI

WORKLOADS = ("chart-exact", "chart-averaged", "boundaries", "reports")

# Sizes follow the commands documented in the top-level README: a 50x50
# exact-pc chart, 26-sample exact boundary curves and a 15-omega compare
# table.  The README documents no averaged scan; its time per cell is the
# same at 3x3, 5x5 and 10x10 within run-to-run noise, because each cell runs
# its own averaging recursion, so 5x5 grids stand for larger charts.
# Every stream repeats a fixed cycle of command types, damped and undamped,
# so the cost mix of a run does not depend on the seed.
EXACT_GRID = (50, 50)
AVERAGED_GRID = (5, 5)
AVERAGED_CYCLE = ("order2", "order4", "order6")
COMPARE_OMEGAS = 15
BOUNDARY_OMEGAS = 26
REPORT_ORDERS = 6
# the untimed set-up command is the first command at this grid or sample count
SETUP_SIZE = 3
# commands in one cycle, including the damped/undamped alternation
CYCLE = {"chart-exact": 2, "chart-averaged": 6, "boundaries": 6, "reports": 9}


@dataclass
class Command:
    kind: str  # scan, compare, boundary or analyze
    argv: list
    items: int
    meta: dict = field(default_factory=dict)


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _fmt(x: float) -> str:
    return repr(float(x))


def _axis(lo: float, hi: float, count: int) -> str:
    return f"{_fmt(lo)}:{_fmt(hi)}:{count}"


def _damped_beta(rng, index: int, hi: float) -> float:
    """Alternate undamped and damped inputs; the damped beta is seeded."""
    return 0.0 if index % 2 == 0 else float(rng.uniform(0.02, hi))


def _scan(omega, eps, beta, method) -> Command:
    argv = ["scan", "--omega", _axis(*omega), "--eps", _axis(*eps),
            "--beta", _fmt(beta), "--method", method]
    return Command("scan", argv, omega[2] * eps[2],
                   {"omega": omega, "eps": eps, "beta": beta, "method": method})


def chart_exact(rng, grid=EXACT_GRID):
    """Charts around the documented omega 0:0.4, eps 0:1 window."""
    i = 0
    while True:
        lo = rng.uniform(0.0, 0.05)
        omega = (lo, lo + rng.uniform(0.35, 0.45), grid[0])
        lo = rng.uniform(0.0, 0.05)
        eps = (lo, lo + rng.uniform(0.9, 1.1), grid[1])
        yield _scan(omega, eps, _damped_beta(rng, i, 0.3), "exact-pc")
        i += 1


def chart_averaged(rng, grid=AVERAGED_GRID):
    i = 0
    while True:
        method = AVERAGED_CYCLE[i % len(AVERAGED_CYCLE)]
        lo = rng.uniform(0.02, 0.1)
        omega = (lo, lo + rng.uniform(0.15, 0.3), grid[0])
        lo = rng.uniform(0.0, 0.05)
        eps = (lo, lo + rng.uniform(0.5, 0.9), grid[1])
        yield _scan(omega, eps, _damped_beta(rng, i, 0.3), method)
        i += 1


def _omega_range(rng, count):
    """Around the documented omega ranges 0.02:0.3 and 0.05:0.3."""
    lo = rng.uniform(0.02, 0.06)
    return (lo, lo + rng.uniform(0.22, 0.26), count)


def boundaries(rng, compare_omegas=COMPARE_OMEGAS, boundary_omegas=BOUNDARY_OMEGAS):
    """compare (two roots per omega), then both exact branches."""
    cycle = 0
    while True:
        beta = _damped_beta(rng, cycle, 0.2)
        omega = _omega_range(rng, compare_omegas)
        yield Command("compare", ["compare", "--omega", _axis(*omega), "--beta", _fmt(beta)],
                      2 * compare_omegas, {"omega": omega, "beta": beta, "tol": 1e-10})
        for branch in ("p", "n"):
            omega = _omega_range(rng, boundary_omegas)
            argv = ["boundary", "--omega", _axis(*omega), "--beta", _fmt(beta),
                    "--branch", branch, "--method", "exact"]
            yield Command("boundary", argv, boundary_omegas,
                          {"omega": omega, "beta": beta, "branch": branch, "tol": 1e-10})
        cycle += 1


# ---------------------------------------------------------------------------
# custom model files for the reports workload

def _const_piece(t0, t1, mat):
    return {"t_start": t0, "t_end": t1,
            "entries": [[[float(x)] for x in row] for row in mat]}


def linear_model(rng) -> dict:
    """2x2 model whose order-1 term is linear in t on each half period.

    Pieces of degree 1 rule out the exponential-product oracle, so only
    the RK4 oracle runs.  The order-2 damping entry is also linear in t,
    which makes the Liouville integral of tr J non-trivial.
    """
    a = rng.uniform(0.2, 0.6)
    s = rng.uniform(0.1, 0.4)
    w2 = rng.uniform(0.005, 0.1)
    d0, d1 = rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.01)
    half = PI
    # excitation a * (1 - s * t / pi) on [0, pi), -a * (1 - s * (t - pi) / pi) after
    up = [[[0.0], [0.0]], [[a, -a * s / PI], [0.0]]]
    down = [[[0.0], [0.0]], [[-a * (1.0 + s), a * s / PI], [0.0]]]
    return {
        "name": "custom",
        "period": PERIOD,
        "J0": [[0.0, 1.0], [0.0, 0.0]],
        "terms": [
            {"order": 1, "pieces": [
                {"t_start": 0.0, "t_end": half, "entries": up},
                {"t_start": half, "t_end": PERIOD, "entries": down},
            ]},
            {"order": 2, "pieces": [
                {"t_start": 0.0, "t_end": PERIOD,
                 "entries": [[[0.0], [0.0]], [[w2], [-d0, -d1]]]},
            ]},
        ],
    }


def coupled_model(rng) -> dict:
    """4x4 model: two square-wave pendulums coupled through their springs."""
    e1, e2 = rng.uniform(0.1, 0.5, size=2)
    w1, w2 = rng.uniform(0.005, 0.1, size=2)
    k = rng.uniform(0.0, 0.05)
    b1, b2 = rng.uniform(0.0, 0.05, size=2)
    j0 = np.zeros((4, 4))
    j0[0, 1] = j0[2, 3] = 1.0
    exc = np.zeros((4, 4))
    exc[1, 0], exc[3, 2] = e1, e2
    exc[1, 2] = exc[3, 0] = 0.5 * k
    rest = np.zeros((4, 4))
    rest[1, 0], rest[3, 2] = w1, w2
    rest[1, 2] = rest[3, 0] = -k
    rest[1, 1], rest[3, 3] = -b1, -b2
    return {
        "name": "custom",
        "period": PERIOD,
        "J0": j0.tolist(),
        "terms": [
            {"order": 1, "pieces": [_const_piece(0.0, PI, exc), _const_piece(PI, PERIOD, -exc)]},
            {"order": 2, "pieces": [_const_piece(0.0, PERIOD, rest)]},
        ],
    }


def reports(rng, model_dir: str):
    """Pendulum reports at orders 1..6, one linear model and two 4x4 models.

    The custom models step through orders 1..6 from one cycle to the next.
    """
    cycle = 0
    count = 0
    while True:
        for order in range(1, REPORT_ORDERS + 1):
            omega, eps, beta = rng.uniform(0.05, 0.4), rng.uniform(0.0, 0.8), rng.uniform(0.0, 0.3)
            argv = ["analyze", "--omega", _fmt(omega), "--eps", _fmt(eps),
                    "--beta", _fmt(beta), "--order", str(order)]
            yield Command("analyze", argv, 1,
                          {"omega": omega, "eps": eps, "beta": beta, "order": order, "model": None})
        order = 1 + cycle % REPORT_ORDERS
        for build in (linear_model, coupled_model, coupled_model):
            model = build(rng)
            path = os.path.join(model_dir, f"model-{count}.json")
            count += 1
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(model, fh)
            argv = ["analyze", "--model-file", path, "--order", str(order)]
            yield Command("analyze", argv, 1, {"order": order, "model": model})
        cycle += 1


def stream(workload: str, seed: int, model_dir: str, small: bool = False):
    """The endless command stream of a workload; ``small`` shrinks every grid."""
    rng = _rng(seed, workload)
    n = SETUP_SIZE
    if workload == "chart-exact":
        return chart_exact(rng, (n, n)) if small else chart_exact(rng)
    if workload == "chart-averaged":
        return chart_averaged(rng, (n, n)) if small else chart_averaged(rng)
    if workload == "boundaries":
        return boundaries(rng, n, n) if small else boundaries(rng)
    if workload == "reports":
        return reports(rng, model_dir)
    raise ValueError(f"unknown workload {workload!r}")


def first_command(workload: str, seed: int, model_dir: str) -> Command:
    """The untimed command each fresh workload process runs during set-up.

    It is the workload's first command type at the smallest size, so set-up
    time is the import and first-call work rather than one full command.
    """
    return next(stream(workload, seed + 1_000_003, model_dir, small=True))

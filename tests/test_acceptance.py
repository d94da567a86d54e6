"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints an ``ACCEPTANCE <n> <name>: PASS`` line (visible with
``pytest -s``); a failure prints FAIL before the assertion fires.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np

from conftest import paper_order2, paper_order4, paper_quartic, pendulum_pipeline
from floquet_avg import cli, pendulum, scan, stability
from floquet_avg.exactmono import (
    exact_monodromy_pc,
    exact_monodromy_pc_stack,
    exact_monodromy_rk,
    pc_stack_to_ppoly,
)
from floquet_avg.smallmat import norm1
from floquet_avg.stability import trace_identity_residuals

PI = math.pi
TWO_PI = 2.0 * math.pi

RK_GRID_STEPS = 4096

OMEGA_GRID = np.linspace(0.0, 1.0, 10)
EPS_GRID = np.linspace(0.0, 2.0, 10)
BETA_GRID = (0.0, 0.1, 0.3)


def _report(number, name, ok):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


class Check:
    """Collects sub-condition failures so the pass/fail line prints once."""

    def __init__(self):
        self.failures = []

    def expect(self, condition, label):
        if not condition:
            self.failures.append(label)

    @property
    def ok(self):
        return not self.failures


def _paper_fixtures(omega, eps, beta):
    w2, bw = omega ** 2, beta * omega
    a1 = (eps / TWO_PI) * np.array([[PI ** 2, 2 * PI ** 3], [0.0, -PI ** 2]])
    a2 = (1.0 / TWO_PI) * np.array([
        [(2 / 3) * eps ** 2 * PI ** 4 - 2 * PI ** 2 * w2,
         (4 / 15) * eps ** 2 * PI ** 5 - (8 / 3) * PI ** 3 * w2 + 2 * PI ** 2 * bw],
        [-(2 / 3) * eps ** 2 * PI ** 3 + 2 * PI * w2,
         -(2 / 3) * eps ** 2 * PI ** 4 + 2 * PI ** 2 * w2 - 2 * PI * bw],
    ])
    f0 = np.array([[1.0, TWO_PI], [0.0, 1.0]])
    f1 = PI ** 2 * eps * np.diag([1.0, -1.0])
    f2 = np.array([
        [-(1 / 6) * PI ** 4 * eps ** 2 + 2 * PI ** 2 * w2,
         -(1 / 15) * PI ** 5 * eps ** 2 + (4 / 3) * PI ** 3 * w2 - 2 * PI ** 2 * bw],
        [-(2 / 3) * PI ** 3 * eps ** 2 + 2 * PI * w2,
         -(1 / 6) * PI ** 4 * eps ** 2 + 2 * PI ** 2 * w2 - 2 * PI * bw],
    ])
    return a1, a2, f0, f1, f2


def test_criterion_1_symbolic_fixtures():
    tol = 1e-11
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    check = Check()
    for _ in range(20):
        omega = rng.uniform(0.0, 1.0)
        eps = rng.uniform(0.0, 2.0)
        beta = rng.uniform(0.0, 0.5)
        a1, a2, f0, f1, f2 = _paper_fixtures(omega, eps, beta)
        _, _, _, avg, mono = pendulum_pipeline(omega, eps, beta, 3)
        label = f"({omega:.3f},{eps:.3f},{beta:.3f})"
        check.expect(np.abs(avg.A[0] - a1).max() < tol, f"A1 {label}")
        check.expect(np.abs(avg.A[1] - a2).max() < tol, f"A2 {label}")
        check.expect(np.abs(mono.F0 - f0).max() < tol, f"F0 {label}")
        check.expect(np.abs(mono.F_terms[0] - f1).max() < tol, f"F1 {label}")
        check.expect(np.abs(mono.F_terms[1] - f2).max() < tol, f"F2 {label}")
        # the paper's -2*pi*beta*omega is the order-2 trace scaled by T
        check.expect(abs(TWO_PI * np.trace(avg.A[1]) + TWO_PI * beta * omega) < tol,
                     f"tr(A2)T {label}")
        check.expect(abs(np.trace(avg.A[2])) < tol, f"tr(A3) {label}")
        check.expect(abs(mono.trace_by_order[3]) < tol, f"tr(F3) {label}")
    elapsed = time.perf_counter() - start
    check.expect(elapsed < 5.0, f"runtime {elapsed:.2f}s")
    _report(1, "symbolic-fixtures", check.ok)
    assert not check.failures, check.failures


def _criterion_grid():
    """The (omega, eps, beta) points of BETA_GRID x OMEGA_GRID x EPS_GRID and
    both oracles' monodromies there, each oracle run as one stack."""
    omegas, epss = (g.ravel() for g in np.meshgrid(OMEGA_GRID, EPS_GRID, indexing="ij"))
    points = [(omega, eps, beta) for beta in BETA_GRID for omega, eps in zip(omegas, epss)]
    jac = np.concatenate([pendulum.jacobian_stack(omegas, epss, beta) for beta in BETA_GRID])
    f_pc = exact_monodromy_pc_stack(pendulum.HALF_PERIODS, jac)
    f_rk = exact_monodromy_rk(pc_stack_to_ppoly(pendulum.PERIOD, pendulum.HALF_PERIODS, jac),
                              RK_GRID_STEPS)
    return points, f_pc, f_rk


def test_criterion_2_liouville_suite():
    check = Check()
    points, f_pc, f_rk = _criterion_grid()
    for (omega, eps, beta), det_pc, det_rk in zip(points, np.linalg.det(f_pc),
                                                  np.linalg.det(f_rk)):
        expect = math.exp(-TWO_PI * beta * omega)
        check.expect(abs(det_pc - expect) <= 1e-10 * expect,
                     f"pc det ({omega:.2f},{eps:.2f},{beta})")
        check.expect(abs(det_rk - expect) <= 1e-10 * expect,
                     f"rk det ({omega:.2f},{eps:.2f},{beta})")
    rng = np.random.default_rng(102)
    for _ in range(5):
        omega, eps, beta = rng.uniform(0, 1), rng.uniform(0, 2), rng.uniform(0, 0.5)
        _, system, _, avg, _ = pendulum_pipeline(omega, eps, beta, 4)
        for j, res in enumerate(trace_identity_residuals(system, avg), start=1):
            check.expect(res < 1e-11, f"trace identity order {j} at ({omega:.2f},{eps:.2f},{beta:.2f})")
    _report(2, "liouville-suite", check.ok)
    assert not check.failures, check.failures[:5]


def test_criterion_3_oracle_agreement():
    check = Check()
    _, f_pc, f_rk = _criterion_grid()
    worst = float(norm1(f_rk - f_pc).max())
    check.expect(worst <= 1e-9, f"worst oracle gap {worst:.3e}")
    # observed convergence order from step halving at a representative point
    jpoly = pendulum.jacobians(pendulum.PendulumParams(0.3, 0.4, 0.1))
    ref = exact_monodromy_pc(jpoly)
    steps = [64, 128, 256]
    errs = [norm1(exact_monodromy_rk(jpoly, s) - ref) for s in steps]
    order = np.polyfit(np.log(steps), np.log(errs), 1)[0] * -1.0
    check.expect(order >= 3.5, f"observed RK order {order:.2f}")
    _report(3, "oracle-agreement", check.ok)
    assert not check.failures, check.failures


def test_criterion_4_boundary_closed_forms():
    # the paper's order-2 and order-4 closed forms against the one root path
    # of every order, and against the roots of the order-2 margin
    check = Check()
    rng = np.random.default_rng(104)
    for _ in range(10):
        omega = rng.uniform(0.05, 0.3)
        beta = rng.uniform(0.0, 0.3)
        eps_p, eps_n = paper_order2(omega, beta)
        for closed, eps in zip((eps_p, eps_n), pendulum.order_roots([omega], beta, 2)[:, 0, 0]):
            check.expect(abs(eps - closed) < 1e-14 * closed, f"order 2 ({omega:.3f},{beta:.3f})")
        mid = 0.5 * (eps_p + eps_n)
        root_p = scan.bisect_boundary(omega, beta, (0.5 * eps_p, mid), "order2")
        root_n = scan.bisect_boundary(omega, beta, (mid, 1.5 * eps_n), "order2")
        check.expect(abs(root_p - eps_p) < 1e-8, f"p ({omega:.3f},{beta:.3f})")
        check.expect(abs(root_n - eps_n) < 1e-8, f"n ({omega:.3f},{beta:.3f})")
        for branch, per_domain in zip("pn", pendulum.order_roots([omega], beta, 4)[:, :, 0]):
            a, b, c = paper_quartic(omega, beta, branch)
            closed = paper_order4(omega, beta, branch)
            for domain, eps, want in zip(("first", "second"), per_domain.tolist(), closed):
                check.expect(abs(eps - want) < 1e-12 * want, f"quartic root {branch}/{domain}")
                x = eps ** 2
                scale = max(abs(a * x * x), abs(b * x), abs(c))
                check.expect(abs(a * x * x + b * x + c) < 1e-9 * scale,
                             f"quartic residual {branch}/{domain}")
    _report(4, "boundary-closed-forms", check.ok)
    assert not check.failures, check.failures


def test_criterion_5_convergence_order():
    start = time.perf_counter()
    svals = np.array([0.4, 0.2, 0.1, 0.05])
    errs = {k: [] for k in (1, 2, 3, 4)}
    for s in svals:
        params, _, _, _, mono = pendulum_pipeline(0.5 * s, 0.8 * s, 0.2 * s, 4)
        f_exact = exact_monodromy_pc(pendulum.jacobians(params))
        for k in errs:
            errs[k].append(norm1(f_exact - mono.partial_sums[k]))
    check = Check()
    log_s = np.log(svals)
    for k, err in errs.items():
        slope = np.polyfit(log_s, np.log(err), 1)[0]
        check.expect(slope >= k + 0.5, f"k={k} slope {slope:.2f}")
    elapsed = time.perf_counter() - start
    check.expect(elapsed < 10.0, f"runtime {elapsed:.2f}s")
    _report(5, "convergence-order", check.ok)
    assert not check.failures, check.failures


def test_criterion_6_figure_reproduction():
    check = Check()
    # first stability band at omega = 0.2, beta = 0
    lower = scan.bisect_boundary(0.2, 0.0, (0.05, 0.3), "exact")
    upper = scan.bisect_boundary(0.2, 0.0, (0.3, 0.55), "exact")
    check.expect(abs(lower - 0.2205) < 0.01, f"band lower {lower:.4f}")
    check.expect(abs(upper - 0.4145) < 0.01, f"band upper {upper:.4f}")
    # order-4 curves track exact, order-2 strictly beaten on the p-branch
    table = scan.compare_boundaries((0.02, 0.3, 15), 0.0)
    for row in table.rows:
        check.expect(row.eps_exact is not None, f"exact root at {row.omega:.3f}/{row.branch}")
        if row.eps_exact is None:
            continue
        check.expect(row.err4 < 5e-2, f"err4 {row.err4:.3e} at {row.omega:.3f}/{row.branch}")
        if row.branch == "p":
            check.expect(row.err4 < row.err2, f"order4 beats order2 at {row.omega:.3f}")
    # damping shifts both exact boundaries upward
    omegas = (0.05, 0.3, 8)
    for branch in ("p", "n"):
        base = scan.trace_boundary(omegas, 0.0, branch, "exact")
        damped = scan.trace_boundary(omegas, 0.1, branch, "exact")
        check.expect(base.omitted == 0 and damped.omitted == 0, f"{branch} curve complete")
        for (_, e0), (_, e1) in zip(base.points, damped.points):
            check.expect(e1 > e0, f"{branch} shift at eps {e0:.4f}")
    _report(6, "figure-reproduction", check.ok)
    assert not check.failures, check.failures


def test_criterion_7_second_stability_domain():
    check = Check()
    root = pendulum.order4_root(0.2, 0.0, "p", "second")
    check.expect(root is not None, "second p-root exists")
    # frozen from solving the displayed quartic at omega=0.2, beta=0
    check.expect(abs(root - 2.1714759489093716) < 1e-9, f"root value {root:.6f}")
    eps_samples = np.linspace(0.85 * root, 1.15 * root, 400)
    margins = [stability.margin_exact(pendulum.PendulumParams(0.2, e, 0.0))
               for e in eps_samples]
    signs = np.sign(margins)
    check.expect((signs > 0).any() and (signs < 0).any(),
                 "exact margin changes sign within +/-15%")
    _report(7, "second-domain", check.ok)
    assert not check.failures, check.failures


def test_criterion_8_scan_determinism(tmp_path):
    # the scan is single-threaded and batched: one command prints the same
    # bytes each time, here (where the order-4 table may already be built)
    # and in a fresh process (where it is built cold)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    ok = True
    for method in ("exact-pc", "order4"):
        argv = ["scan", "--omega", "0:0.4:50", "--eps", "0:1:50", "--beta", "0.05",
                "--method", method]
        outputs = []
        for k in range(2):
            path = tmp_path / f"{method}-{k}.csv"
            code = cli.main(argv + ["--output", str(path)])
            ok = ok and code == 0
            outputs.append(path.read_bytes())
        fresh = subprocess.run([sys.executable, "-m", "floquet_avg", *argv], env=env,
                               capture_output=True, timeout=120)
        ok = ok and fresh.returncode == 0 and outputs[0] == outputs[1] == fresh.stdout
    _report(8, "scan-determinism", ok)

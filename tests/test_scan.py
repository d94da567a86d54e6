import math

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import PC_TRACE_REL, paper_order2, pendulum_expansion
from floquet_avg import averaging, pendulum, scan, stability
from floquet_avg.errors import BracketError, FloquetError, ModelError
from floquet_avg.exactmono import exact_monodromy_pc
from floquet_avg.scan import (
    bisect_boundary,
    compare_boundaries,
    scan_region,
    trace_boundary,
)

PI = math.pi


def test_unexcited_row_is_all_unstable():
    grid = scan_region((0.1, 0.5, 5), (0.0, 0.4, 2), 0.0, "exact-pc")
    assert (grid.verdicts[0] == "unstable").all()  # eps = 0 row


def test_band_membership_at_reference_omega():
    grid = scan_region((0.2, 0.25, 2), (0.3, 0.6, 2), 0.0, "exact-pc")
    # (omega=0.2, eps=0.3) inside the first band; (0.2, 0.6) outside
    assert grid.verdicts[0, 0] != "unstable"
    assert grid.verdicts[1, 0] == "unstable"


def test_order4_bitmap_close_to_exact():
    axes = ((0.0, 0.4, 50), (0.0, 1.0, 50))
    exact = scan_region(*axes, 0.0, "exact-pc")
    order4 = scan_region(*axes, 0.0, "order4")
    disagreement = (exact.verdicts != order4.verdicts).mean()
    assert disagreement < 0.03


def test_scan_rejects_unknown_method_and_bad_axes():
    with pytest.raises(ModelError):
        scan_region((0.0, 0.4, 5), (0.0, 1.0, 5), 0.0, "order9")
    with pytest.raises(ModelError):
        scan_region((0.4, 0.0, 5), (0.0, 1.0, 5), 0.0, "exact-pc")
    with pytest.raises(ModelError):
        scan_region((0.0, 0.4, 1), (0.0, 1.0, 5), 0.0, "exact-pc")


def test_scan_deterministic_across_schedules():
    axes = ((0.0, 0.4, 12), (0.0, 1.0, 12))
    g1 = scan_region(*axes, 0.1, "exact-pc")
    g2 = scan_region(*axes, 0.1, "exact-pc")
    assert (g1.verdicts == g2.verdicts).all()
    assert np.array_equal(g1.margin_trace, g2.margin_trace)
    assert np.array_equal(g1.margin_det, g2.margin_det)


def test_scan_monotone_refinement():
    # doubling resolution only flips cells adjacent to a boundary: where a
    # coarse point's 3x3 neighborhood is verdict-uniform, the in-between
    # fine samples agree with it
    coarse = scan_region((0.05, 0.45, 11), (0.0, 1.0, 11), 0.0, "exact-pc")
    fine = scan_region((0.05, 0.45, 21), (0.0, 1.0, 21), 0.0, "exact-pc")
    cv, fv = coarse.verdicts, fine.verdicts
    assert (cv == fv[::2, ::2]).all()  # shared points are the same computation
    for ie in range(1, cv.shape[0] - 1):
        for io in range(1, cv.shape[1] - 1):
            block = cv[ie - 1:ie + 2, io - 1:io + 2]
            if (block == cv[ie, io]).all():
                assert (fv[2 * ie - 1:2 * ie + 2, 2 * io - 1:2 * io + 2] == cv[ie, io]).all()


def test_bisect_exact_boundary():
    eps4 = pendulum.order4_root(0.2, 0.0, "p")
    root = bisect_boundary(0.2, 0.0, (0.01, 0.3), "exact")
    assert abs(root - eps4) < 2e-3


def test_bisect_order2_equals_closed_form():
    root = bisect_boundary(0.2, 0.0, (0.01, 0.3), "order2")
    assert abs(root - paper_order2(0.2, 0.0)[0]) < 1e-9
    # with damping, both boundaries of the order-2 margin match the formulas
    eps_p, eps_n = paper_order2(0.15, 0.2)
    root_p = bisect_boundary(0.15, 0.2, (0.5 * eps_p, 0.5 * (eps_p + eps_n)), "order2")
    root_n = bisect_boundary(0.15, 0.2, (0.5 * (eps_p + eps_n), 1.4 * eps_n), "order2")
    assert abs(root_p - eps_p) < 1e-9
    assert abs(root_n - eps_n) < 1e-9


def test_bisect_reports_bracket_failure():
    with pytest.raises(BracketError) as excinfo:
        bisect_boundary(0.2, 0.0, (0.25, 0.30), "exact")
    assert excinfo.value.margin_lo > 0 and excinfo.value.margin_hi > 0


def _expm_margin(omega, eps, beta):
    """exp(-2 pi beta omega) + 1 - |tr F| with F = expm(pi J-) expm(pi J+)
    from scipy: the benchmark's reference margin."""
    w2, d = omega * omega, -beta * omega
    f = (expm(PI * np.array([[0.0, 1.0], [w2 - eps, d]]))
         @ expm(PI * np.array([[0.0, 1.0], [w2 + eps, d]])))
    return math.exp(-2.0 * PI * beta * omega) + 1.0 - abs(f[0, 0] + f[1, 1])


def _changes_sign(below, above):
    return (below <= 0.0) != (above <= 0.0) or 0.0 in (below, above)


def test_bisect_postcondition_sign_change():
    tol = 1e-10
    root = bisect_boundary(0.2, 0.0, (0.01, 0.3), "exact", tol=tol)

    def margin(eps):
        return scan.point_report(0.2, eps, 0.0, "exact-pc").margin_trace

    assert margin(root - tol) * margin(root + tol) <= 0.0
    assert abs(margin(root)) < 1e-8  # Lipschitz constant is O(10) here
    # compare's rows and both branches' curves: each root's branch factor
    # changes sign across root +/- tol, and so does the margin of scipy's
    # expm, the exp(pi J) products that the benchmark checks roots with
    for beta in (0.0, 0.1, 0.3):
        roots = [(row.omega, row.branch, row.eps_exact)
                 for row in compare_boundaries((0.02, 0.3, 15), beta, tol).rows]
        for branch in ("p", "n"):
            curve = trace_boundary((0.05, 0.3, 26), beta, branch, "exact", tol)
            roots += [(omega, branch, eps) for omega, eps in curve.points]
        assert len(roots) == 82 and None not in [eps for _, _, eps in roots]
        for omega, branch, eps in roots:
            sign = -1.0 if branch == "p" else 1.0
            trace, det = stability.PendulumPC([omega], beta)([0, 0], [eps - tol, eps + tol])
            assert _changes_sign(*(1.0 + det + sign * trace))
            assert _changes_sign(_expm_margin(omega, eps - tol, beta),
                                 _expm_margin(omega, eps + tol, beta))


def test_trace_boundary_order2_line():
    curve = trace_boundary((0.0, 0.4, 41), 0.0, "p", "order2")
    assert len(curve.points) == 41
    scale = 2.0 * math.sqrt(3.0) / PI
    for omega, eps in curve.points:
        assert abs(eps - scale * omega) < 1e-14
    omegas = [p[0] for p in curve.points]
    assert all(b > a for a, b in zip(omegas[:-1], omegas[1:]))


def test_trace_boundary_methods_within_tolerance_of_exact():
    for branch in ("p", "n"):
        exact = dict(trace_boundary((0.1, 0.1, 1), 0.0, branch, "exact").points)
        o2 = dict(trace_boundary((0.1, 0.1, 1), 0.0, branch, "order2").points)
        o4 = dict(trace_boundary((0.1, 0.1, 1), 0.0, branch, "order4").points)
        assert abs(o2[0.1] - exact[0.1]) < 5e-2
        assert abs(o4[0.1] - exact[0.1]) < 5e-2
        assert o4[0.1] != o2[0.1]


def test_trace_boundary_damping_shift_upward():
    omegas = (0.05, 0.3, 6)
    for branch in ("p", "n"):
        base = trace_boundary(omegas, 0.0, branch, "exact")
        damped = trace_boundary(omegas, 0.1, branch, "exact")
        assert len(base.points) == 6 and len(damped.points) == 6
        for (_, e0), (_, e1) in zip(base.points, damped.points):
            assert e1 > e0


def test_compare_boundaries_order4_dominates():
    table = compare_boundaries((0.02, 0.3, 8), 0.0)
    p_rows = table.branch_rows("p")
    assert len(p_rows) == 8
    for row in p_rows:
        assert row.err4 < row.err2
    assert max(r.err4 for r in p_rows) < max(r.err2 for r in p_rows)


def test_compare_boundaries_single_omega():
    table = compare_boundaries((0.1, 0.1, 1), 0.0)
    assert len(table.rows) == 2  # one row per branch
    assert {r.branch for r in table.rows} == {"p", "n"}


def test_compare_boundaries_error_shrinks_toward_origin():
    table = compare_boundaries((0.05, 0.3, 2), 0.0)
    for branch in ("p", "n"):
        rows = {r.omega: r for r in table.branch_rows(branch)}
        assert rows[0.05].err4 < rows[0.3].err4


def _paper_trace_order2(omega, eps, beta):
    """tr(F0 + F1 + F2) from the paper's F1/F2 formulas."""
    return 2.0 - PI ** 4 * eps ** 2 / 3.0 + 4.0 * PI ** 2 * omega ** 2 - 2.0 * PI * beta * omega


def test_point_report_order_method_margins():
    # order-K margins use the graded determinant truncation of the table's
    # expansion: against the cell's own assembly of its A_j, the tabulated
    # coefficients move tr F by 1.4e-14 (4 ulp of |tr F| = 18.7) and det F by
    # 3.6e-15 at this point
    report = scan.point_report(0.4, 0.9, 0.3, "order2")
    a_stacks, _ = pendulum_expansion([0.4], [0.9], 0.3, 2)
    table = pendulum.averaged_table(2)
    f0, f_terms = averaging.assemble_monodromy(table.x0, a_stacks)
    expect_trace = sum(np.trace(f, axis1=-2, axis2=-1) for f in (f0,) + f_terms)[0]
    expect_det = stability.det_series_expansion(table.trace_j0, a_stacks, table.x0.period, 2)[0]
    assert abs(report.determinant - expect_det) <= 4e-15
    assert abs(report.trace - expect_trace) <= 1.5e-14
    # the order-2 trace is the paper's, within 5e-14 over these points (the
    # recursion run on each point's own series was within 1.6e-13)
    rng = np.random.default_rng(0)
    for omega, eps, beta in zip(rng.uniform(0.0, 0.5, 300), rng.uniform(0.0, 1.2, 300),
                                rng.uniform(0.0, 0.3, 300)):
        report = scan.point_report(omega, eps, beta, "order2")
        assert abs(report.trace - _paper_trace_order2(omega, eps, beta)) < 1e-13


# -- the batched exact path: every point gets the arithmetic it gets alone --

@pytest.mark.parametrize("beta", [0.0, 0.1])
def test_exact_pc_grid_cells_equal_single_point_paths(beta):
    grid = scan_region((0.0, 0.4, 7), (0.0, 1.0, 6), beta, "exact-pc")
    for ie, eps in enumerate(grid.eps_samples):
        for io, omega in enumerate(grid.omega_samples):
            report = scan.point_report(omega, eps, beta, "exact-pc")
            assert grid.verdicts[ie, io] == report.verdict.value
            assert grid.margin_trace[ie, io] == report.margin_trace
            assert grid.margin_det[ie, io] == report.margin_det
            # the monodromy of the one-system oracle, classified on its own:
            # its trace within PC_TRACE_REL of the cells' Hill discriminant,
            # its det f00 f11 - f01 f10 within the roundoff u ||F||^2 of the
            # cells' Liouville det
            params = pendulum.PendulumParams(omega, eps, beta)
            f = exact_monodromy_pc(pendulum.jacobians(params))
            alone = stability.classify(f)
            assert abs(alone.trace - report.trace) <= PC_TRACE_REL * max(1.0, abs(alone.trace))
            assert abs(alone.determinant - report.determinant) <= 1e-15 * np.abs(f).sum() ** 2


def test_exact_pc_cells_do_not_depend_on_the_grid_around_them():
    fine = scan_region((0.05, 0.45, 9), (0.0, 1.0, 9), 0.1, "exact-pc")
    corner = scan_region((0.05, 0.1, 2), (0.0, 0.125, 2), 0.1, "exact-pc")
    assert np.array_equal(corner.margin_trace, fine.margin_trace[:2, :2])
    assert np.array_equal(corner.margin_det, fine.margin_det[:2, :2])


@pytest.mark.parametrize("beta", [0.0, 0.1])
def test_batched_exact_margins_equal_margin_exact(beta):
    rng = np.random.default_rng(3)
    omegas = rng.uniform(0.0, 0.4, 12)
    epss = rng.uniform(0.0, 1.0, 12)
    batch = scan._margin_stack(omegas, beta, "exact")(np.arange(omegas.size), epss)[0]
    for k in range(omegas.size):
        params = pendulum.PendulumParams(float(omegas[k]), float(epss[k]), beta)
        assert batch[k] == stability.margin_exact(params)
        f = exact_monodromy_pc(pendulum.jacobians(params))
        # Liouville's det F = exp(pi tr J+ + pi tr J-), not f00 f11 - f01 f10,
        # and tr F within PC_TRACE_REL of the trace of F
        d = -beta * float(omegas[k])
        trace = float(f[0, 0] + f[1, 1])
        expect = math.exp(math.pi * d + math.pi * d) + 1.0 - abs(trace)
        assert abs(batch[k] - expect) <= PC_TRACE_REL * max(1.0, abs(trace))


def _serial_bisect(omega, beta, bracket, tol=1e-10):
    """The one-bracket bisection loop on the scalar margin: a reference
    whose root the Newton root must match within tol."""
    def margin(eps):
        return scan.point_report(omega, eps, beta, "exact-pc").margin_trace

    lo, hi = bracket
    m_lo, m_hi = margin(lo), margin(hi)
    if m_lo == 0.0:
        return lo
    if m_hi == 0.0:
        return hi
    assert (m_lo < 0.0) != (m_hi < 0.0)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        m_mid = margin(mid)
        if m_mid == 0.0:
            return mid
        if (m_mid < 0.0) == (m_lo < 0.0):
            lo, m_lo = mid, m_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _serial_newton(margin, lo, hi, tol=1e-10):
    """The one-bracket safeguarded Newton loop on a scalar margin, which
    gives ``(f, f')``, step by step."""
    x = 0.5 * (lo + hi)
    (m_lo, _), (m_hi, _) = margin(lo), margin(hi)
    points = [(x, *margin(x))]
    if m_lo == 0.0:
        return lo
    if m_hi == 0.0:
        return hi
    assert (m_lo < 0.0) != (m_hi < 0.0)
    budget = 0  # the steps bisection would take: the least n with 2^n >= width / tol
    while 2.0 ** budget < (hi - lo) / tol:
        budget += 1
    steps = 1
    while True:
        zero = None
        for p, m_p, slope_p in points:
            if m_p == 0.0:
                zero = p
            elif lo < p < hi:
                if (m_p < 0.0) == (m_lo < 0.0):
                    lo = p
                else:
                    hi = p
                x, f, slope = p, m_p, slope_p
        if zero is not None:
            return zero
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or mid == lo or mid == hi:
            return mid
        with np.errstate(all="ignore"):
            step = float(np.float64(f) / slope)
        newton = x - step
        if abs(step) <= 0.25 * tol and steps + 2 <= budget:
            below, above = max(newton - 0.5 * tol, lo), min(newton + 0.5 * tol, hi)
            if above - below > tol:
                above = math.nextafter(above, below)
            points = [(below, *margin(below)), (above, *margin(above))]
            steps += 2
        else:
            if not (math.isfinite(newton) and lo < newton < hi and steps < budget):
                newton = mid
            points = [(newton, *margin(newton))]
            steps += 1


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13])
@pytest.mark.parametrize("beta", [0.0, 0.1])
@pytest.mark.parametrize("branch", ["p", "n"])
def test_lockstep_roots_equal_single_sample_bisection(beta, branch, tol):
    # _serial_newton closes on a pair of points tol apart, one of which is
    # always the iterate; the lockstep search evaluates only the other
    curve = trace_boundary((0.05, 0.3, 9), beta, branch, "exact", tol)
    assert len(curve.points) == 9
    sign = -1.0 if branch == "p" else 1.0
    for omega, eps in curve.points:

        def factor(e, omega=omega):
            # the branch factor 1 + det F + s tr F of an exact-pc scan cell,
            # and its slope s d(tr F)/d eps
            report = scan.point_report(omega, e, beta, "exact-pc")
            slope = stability.PendulumPC([omega], beta).with_slope([0], [e])[2][0]
            return report.determinant + 1.0 + sign * report.trace, sign * slope

        seed = pendulum.order4_root(omega, beta, branch)
        bracket = ((1.0 - scan._BRACKET_REL) * seed, (1.0 + scan._BRACKET_REL) * seed)
        assert [(omega, eps)] == list(trace_boundary((omega, omega, 1), beta, branch,
                                                     "exact", tol).points)
        assert eps == _serial_newton(factor, *bracket, tol)
        # the cell margin det F + 1 - |tr F| equals the factor only near the
        # root, and changes sign at both branches: its bracket stops halfway
        # to the other branch's order-4 root
        mid = 0.5 * sum(pendulum.order4_root(omega, beta, b) for b in ("p", "n"))
        cell = ((bracket[0], min(bracket[1], mid)) if branch == "p"
                else (max(bracket[0], mid), bracket[1]))
        assert abs(eps - bisect_boundary(omega, beta, cell, "exact", tol)) <= tol
        assert abs(eps - _serial_bisect(omega, beta, cell, tol)) < tol
    table = compare_boundaries((0.05, 0.3, 9), beta, tol)
    assert [r.eps_exact for r in table.branch_rows(branch)] == [e for _, e in curve.points]


@pytest.mark.parametrize("beta", [0.0, 0.2])
@pytest.mark.parametrize("branch", ["p", "n"])
def test_exact_roots_are_the_first_sign_change_of_their_branch_factor(beta, branch):
    # brackets clipped at the p/n midpoint lost every sample from omega ~ 0.55;
    # each root is where a dense exact-pc sweep from eps = 0 first sees its
    # branch factor 1 + det F + s tr F change sign
    tol = 1e-10
    omegas = np.round(np.arange(1, 12) * 0.1, 12)
    curve = trace_boundary(omegas, beta, branch, "exact", tol)
    assert [omega for omega, _ in curve.points] == omegas.tolist()
    sign = -1.0 if branch == "p" else 1.0
    sweep = np.linspace(0.0, 2.5, 2501)

    def factor(omega, eps):
        jac = pendulum.jacobian_stack(np.full(eps.size, omega), eps, beta)
        _, trace, det = stability.pc_monodromy(pendulum.HALF_PERIODS, jac)
        return 1.0 + det + sign * trace

    for omega, root in curve.points:
        below = factor(omega, sweep) < 0.0
        first = int(np.flatnonzero(below[1:] != below[:-1])[0])
        assert sweep[first] - tol <= root <= sweep[first + 1] + tol
        ends = factor(omega, np.array([root - tol, root + tol]))
        assert (ends[0] <= 0.0) != (ends[1] <= 0.0) or 0.0 in ends


def _logging_margin_calls(monkeypatch):
    """The ``(index, eps)`` arguments of every call of a margin that
    scan._margin_stack makes, call by call."""
    calls = []
    margin_stack = scan._margin_stack

    def logging(*args):
        margin = margin_stack(*args)

        def logged(index, eps):
            calls.append((np.array(index), np.array(eps)))
            return margin(index, eps)

        return logged

    monkeypatch.setattr(scan, "_margin_stack", logging)
    return calls


# the documented compare and exact boundary commands, each one margin stack
_EXACT_COMMANDS = [lambda beta: compare_boundaries((0.02, 0.3, 15), beta)] + [
    lambda beta, branch=branch: trace_boundary((0.05, 0.3, 26), beta, branch, "exact")
    for branch in ("p", "n")]


def test_exact_boundaries_take_few_lockstep_margin_calls(monkeypatch):
    # bisection took 32-33 batched margin calls per command at tol 1e-10,
    # the Illinois method 9, and the safeguarded Newton steps take 4-5
    calls = _logging_margin_calls(monkeypatch)
    for beta in (0.0, 0.1):
        for command in _EXACT_COMMANDS:
            calls.clear()
            command(beta)
            assert 0 < len(calls) <= 6


def test_exact_boundaries_evaluate_no_sample_twice_at_one_eps(monkeypatch):
    # a closing pair of points tol apart evaluated the iterate a second time
    calls = _logging_margin_calls(monkeypatch)
    for beta in (0.0, 0.1):
        for command in _EXACT_COMMANDS:
            calls.clear()
            command(beta)
            points = [p for index, eps in calls for p in zip(index.tolist(), eps.tolist())]
            assert len(calls) > 1 and len(set(points)) == len(points)


def _counting_squares(monkeypatch):
    """The sizes of the arguments pendulum._squares receives, call by call."""
    sizes = []
    squares = pendulum._squares

    def counting(omega):
        sizes.append(np.size(omega))
        return squares(omega)

    monkeypatch.setattr(pendulum, "_squares", counting)
    return sizes


@pytest.mark.parametrize("method", ["exact-pc", "exact-rk", "order2"])
def test_scan_grid_squares_each_omega_sample_once(monkeypatch, method):
    # a 50x50 grid took omega**2 by libm pow for all 2,500 cells
    sizes = _counting_squares(monkeypatch)
    count = 50 if method == "exact-pc" else 5
    scan_region((0.0, 0.4, count), (0.0, 1.0, count), 0.1, method)
    assert sizes == [count]


@pytest.mark.parametrize("branch", ["p", "n"])
def test_exact_boundary_squares_one_omega_per_margin_point(monkeypatch, branch):
    # the order-4 seeds square each sample once, and the exact margins square
    # it once more when they are prepared: every lockstep margin call squared
    # one omega per point it took, 284 (p) and 283 (n) in all
    sizes = _counting_squares(monkeypatch)
    calls = _logging_margin_calls(monkeypatch)
    curve = trace_boundary((0.05, 0.3, 26), 0.1, branch, "exact")
    assert len(curve.points) == 26 and len(calls) > 1
    assert sizes == [26, 26]


def _synthetic_margin(cases):
    """margin(index, eps) of (function, slope) pairs of scalar functions,
    one per sample, and a log of every (sample, eps, margin) it evaluates."""
    log = []

    def margin(index, eps):
        out = np.array([cases[i][0](e) for i, e in zip(index.tolist(), eps.tolist())])
        slopes = np.array([cases[i][1](e) for i, e in zip(index.tolist(), eps.tolist())])
        log.extend(zip(index.tolist(), eps.tolist(), out.tolist()))
        return out, slopes

    return margin, log


def _cbrt(x):
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _nan(x):
    return math.nan


# (margin in x, its slope, bracket, tol): hard cases for a Newton method,
# with slopes that are missing, wrong or, for cbrt_exact, exact but sending
# Newton away from the root (x - r -> -2 (x - r)), plus smooth ones with
# exact slopes
_SYNTHETIC = {
    "step": (lambda x: -1.0 if x < 0.3183 else 1.0, _nan, (0.1, 0.9), 1e-10),
    "power7": (lambda x: (x - 0.2718) ** 7, lambda x: -7.0 * (x - 0.2718) ** 6,
               (0.1, 0.9), 1e-10),
    "exp50": (lambda x: math.exp(50.0 * (x - 0.7071)) - 1.0,
              lambda x: 50.0 * math.exp(50.0 * (x - 0.7071)), (0.1, 0.9), 1e-10),
    "cbrt": (lambda x: _cbrt(x - 0.5772), lambda x: 30.0, (0.1, 0.9), 1e-10),
    "cbrt_exact": (lambda x: _cbrt(x - 0.5772), lambda x: abs(x - 0.5772) ** (-2.0 / 3.0) / 3.0,
                   (0.1, 0.9), 1e-10),
    "zero_at_lo": (lambda x: x - 0.25, lambda x: 1.0, (0.25, 0.9), 1e-10),
    "zero_at_hi": (lambda x: 0.75 - x, lambda x: -1.0, (0.1, 0.75), 1e-10),
    "smooth": (lambda x: math.sin(3.0 * (x - 0.4142)), lambda x: 3.0 * math.cos(3.0 * (x - 0.4142)),
               (0.1, 0.9), 1e-10),
    "smooth_tight": (lambda x: x * x - 0.3, lambda x: 2.0 * x, (0.1, 0.9), 1e-15),
    "power7_tight": (lambda x: (0.6931 - x) ** 7, _nan, (0.1, 0.9), 1e-15),
    "step_tight": (lambda x: 1.0 if x < 0.1234 else -1.0, lambda x: -10.0, (0.1, 0.9), 1e-15),
}


def _check_synthetic_sample(func, bracket, tol, root, log):
    lo, hi = bracket
    m_lo = func(lo)
    evals = len(log) - 2
    assert evals <= 2 * math.ceil(math.log2((hi - lo) / tol))
    # no point is evaluated twice
    assert len({x for _, x, _ in log}) == len(log)
    if m_lo == 0.0 or func(hi) == 0.0:
        # the midpoint shares the ends' call and is all that is evaluated
        assert root == (lo if m_lo == 0.0 else hi) and evals == 1
        return
    zeros = [x for _, x, m in log if m == 0.0]
    if zeros:
        assert root == zeros[-1]
        return
    # each margin here is monotone, so the final bracket is the innermost
    # pair of evaluated points on either side of the sign change
    below = max(x for _, x, m in log if (m < 0.0) == (m_lo < 0.0))
    above = min(x for _, x, m in log if (m < 0.0) != (m_lo < 0.0))
    assert below < above and above - below <= tol
    assert root == 0.5 * (below + above)


@pytest.mark.parametrize("name", sorted(_SYNTHETIC))
def test_root_finder_terminates_on_hard_margins(name):
    func, slope, bracket, tol = _SYNTHETIC[name]
    margin, log = _synthetic_margin([(func, slope)])
    root = scan._bisect(margin, [bracket[0]], [bracket[1]], tol)[0][0]
    _check_synthetic_sample(func, bracket, tol, root, log)


@pytest.mark.parametrize("tol", [1e-10, 1e-15])
def test_mixed_batch_roots_equal_their_own_runs(tol):
    names = sorted(_SYNTHETIC)
    cases = [_SYNTHETIC[name][:2] for name in names]
    lo = [_SYNTHETIC[name][2][0] for name in names]
    hi = [_SYNTHETIC[name][2][1] for name in names]
    margin, log = _synthetic_margin(cases)
    roots = scan._bisect(margin, lo, hi, tol)[0]
    for k, case in enumerate(cases):
        alone, alone_log = _synthetic_margin([case])
        assert roots[k] == scan._bisect(alone, [lo[k]], [hi[k]], tol)[0][0]
        assert [entry[1:] for entry in log if entry[0] == k] == [entry[1:] for entry in alone_log]
        _check_synthetic_sample(case[0], (lo[k], hi[k]), tol, roots[k],
                                [entry for entry in log if entry[0] == k])


# tol values that made the root-finding loop spin forever (0, negative, below
# the float spacing) are exercised through the CLI in a child process with
# a timeout (test_cli.py); these two returned at once with a meaningless root
@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_bisection_rejects_non_finite_tol(tol):
    with pytest.raises(ModelError, match="tol"):
        bisect_boundary(0.2, 0.0, (0.01, 0.3), "exact", tol=tol)
    with pytest.raises(ModelError, match="tol"):
        trace_boundary((0.1, 0.2, 3), 0.1, "n", "exact", tol=tol)


def test_bisection_at_the_float_spacing_terminates():
    lo, hi = 0.01, 0.3
    tol = float(np.spacing(hi))
    root = bisect_boundary(0.2, 0.0, (lo, hi), "exact", tol=tol)

    def margin(eps):
        return scan.point_report(0.2, eps, 0.0, "exact-pc").margin_trace

    below, above = np.nextafter(root, 0.0), np.nextafter(root, 1.0)
    assert margin(below) * margin(above) <= 0.0 or margin(root) == 0.0


# -- the batched order-K and exact-rk paths: one batch over the whole grid --

@pytest.mark.parametrize("method", ["order1", "order2", "order4", "order6", "exact-rk"])
@pytest.mark.parametrize("beta", [0.0, 0.3])
def test_order_grid_cells_equal_point_report(method, beta):
    grid = scan_region((0.0, 0.4, 6), (0.0, 1.0, 5), beta, method)
    for ie, eps in enumerate(grid.eps_samples):
        for io, omega in enumerate(grid.omega_samples):
            report = scan.point_report(omega, eps, beta, method)
            assert grid.verdicts[ie, io] == report.verdict.value
            assert grid.margin_trace[ie, io] == report.margin_trace
            assert grid.margin_det[ie, io] == report.margin_det


@pytest.mark.parametrize("method", ["order4", "exact-rk"])
def test_order_cells_do_not_depend_on_the_grid_around_them(method):
    fine = scan_region((0.05, 0.45, 9), (0.0, 1.0, 9), 0.1, method)
    corner = scan_region((0.05, 0.1, 2), (0.0, 0.125, 2), 0.1, method)
    assert np.array_equal(corner.margin_trace, fine.margin_trace[:2, :2])
    assert np.array_equal(corner.margin_det, fine.margin_det[:2, :2])
    assert (corner.verdicts == fine.verdicts[:2, :2]).all()


def _fail_large_omegas(monkeypatch):
    # (omega^2)^2 leaves the float range at the cells from omega 5e99 on, each
    # named in its own range error
    return (0.0, 1e100, 3), (0.0, 0.6, 3)


def _fail_large_traces(monkeypatch):
    # every cell whose |tr F| exceeds 2.5 fails with its own trace in the message
    trace_det = stability.trace_det

    def checked(f):
        trace, det = trace_det(f)
        if (np.abs(trace) > 2.5).any():
            raise FloquetError(f"trace {trace[np.argmax(np.abs(trace) > 2.5)]!r}")
        return trace, det

    monkeypatch.setattr(stability, "trace_det", checked)
    return (0.0, 0.3, 3), (0.0, 0.6, 3)


@pytest.mark.parametrize("method, fail", [("order4", _fail_large_omegas),
                                          ("exact-rk", _fail_large_traces)],
                         ids=["order4", "exact-rk"])
def test_order_scan_raises_the_first_failing_cells_error(monkeypatch, method, fail):
    axes = fail(monkeypatch)
    first = None
    for eps in scan.axis_samples(axes[1]):
        for omega in scan.axis_samples(axes[0]):
            try:
                scan.point_report(omega, eps, 0.1, method)
            except FloquetError as exc:
                first = first or str(exc)
    assert first is not None
    with pytest.raises(FloquetError) as excinfo:
        scan_region(*axes, 0.1, method)
    assert str(excinfo.value) == first


def test_a_failing_grid_finds_its_first_failing_cell_in_log_many_batches(monkeypatch):
    # exact-pc's F leaves the float range from eps ~ 5.4e4 on: the first
    # failing cell is cell 400 of 2,500
    axes = (0.0, 1.0, 50), (0.0, 3.3e5, 50)
    first = None
    for eps in scan.axis_samples(axes[1]):
        for omega in scan.axis_samples(axes[0]):
            try:
                scan.point_report(omega, eps, 0.0, "exact-pc")
            except FloquetError as exc:
                first = first or str(exc)
    assert first is not None
    prepare = scan._invariants
    calls = []

    def counted(method, omegas, beta):
        invariants = prepare(method, omegas, beta)

        def batch(index, eps):
            calls.append(np.size(eps))
            return invariants(index, eps)
        return batch

    monkeypatch.setattr(scan, "_invariants", counted)
    with pytest.raises(FloquetError) as excinfo:
        scan_region(*axes, 0.0, "exact-pc")
    assert str(excinfo.value) == first
    assert len(calls) <= 2 * math.ceil(math.log2(2500)) + 2
    assert calls[-1] == 1  # the first failing cell, alone


@pytest.mark.parametrize("method", ["order2", "order4"])
@pytest.mark.parametrize("beta", [0.0, 0.2])
def test_lockstep_order_roots_equal_single_sample_bisection(method, beta):
    omegas = np.linspace(0.05, 0.3, 4)
    samples = [(omega, branch) for branch in ("p", "n") for omega in omegas]
    order = scan.order_of_method(method)
    expected = pendulum.order_roots(omegas, beta, order)[:, 0].ravel().tolist()
    lo = [0.9 * root for root in expected]
    hi = [1.1 * root for root in expected]
    margin = scan._margin_stack(np.array([omega for omega, _ in samples]), beta, method)
    roots = scan._bisect(margin, lo, hi, 1e-10)[0]
    for i, ((omega, _), root) in enumerate(zip(samples, roots.tolist())):
        assert root == bisect_boundary(omega, beta, (lo[i], hi[i]), method)
        assert abs(root - expected[i]) < 1e-9
        # the scalar margin is the one-point case of the batched one
        at_root = margin(np.array([i]), np.array([root]))[0][0]
        assert scan.point_report(omega, root, beta, method).margin_trace == at_root


def test_exact_is_a_boundary_method_only():
    # "exact" names the exact-pc invariants for boundaries alone
    with pytest.raises(ModelError, match="unknown method 'exact'"):
        scan_region((0.0, 0.4, 3), (0.0, 1.0, 3), 0.0, "exact")
    with pytest.raises(ModelError, match="unknown method 'exact'"):
        scan.point_report(0.2, 0.5, 0.0, "exact")
    with pytest.raises(ModelError, match="unknown method 'exact-rk'"):
        scan._margin_stack(np.array([0.2]), 0.0, "exact-rk")


def test_exact_rk_is_not_a_boundary_method():
    assert "exact-rk" not in scan.EXACT_BOUNDARY_METHODS
    with pytest.raises(ModelError, match="exact-rk"):
        bisect_boundary(0.2, 0.0, (0.01, 0.3), "exact-rk")
    with pytest.raises(ModelError, match="exact-rk"):
        trace_boundary((0.1, 0.2, 3), 0.0, "p", "exact-rk")

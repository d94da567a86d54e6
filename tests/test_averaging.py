import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    full_degree_standard_form,
    monodromy_direct,
    pendulum_expansion,
    pendulum_pipeline,
    trace_identity_residuals,
)
from floquet_avg import averaging, pendulum, scan, stability
from floquet_avg.averaging import SeriesSystem, graded_exp_terms
from floquet_avg.errors import FloquetError, ModelError, NumericRangeError
from floquet_avg.exactmono import exact_monodromy_pc
from floquet_avg.ppoly import PiecewisePolyMatrix, pp_eval
from floquet_avg.smallmat import norm1

PI = math.pi
TWO_PI = 2.0 * math.pi
EPS = np.finfo(float).eps


def paper_a1(eps):
    return (eps / TWO_PI) * np.array([[PI ** 2, 2 * PI ** 3], [0.0, -PI ** 2]])


def paper_a2(omega, eps, beta):
    w2, bw = omega ** 2, beta * omega
    return (1.0 / TWO_PI) * np.array([
        [(2 / 3) * eps ** 2 * PI ** 4 - 2 * PI ** 2 * w2,
         (4 / 15) * eps ** 2 * PI ** 5 - (8 / 3) * PI ** 3 * w2 + 2 * PI ** 2 * bw],
        [-(2 / 3) * eps ** 2 * PI ** 3 + 2 * PI * w2,
         -(2 / 3) * eps ** 2 * PI ** 4 + 2 * PI ** 2 * w2 - 2 * PI * bw],
    ])


def test_standard_form_zero_generator_passthrough():
    term = PiecewisePolyMatrix.constant(np.array([[0.5, 0.2], [0.1, -0.5]]), TWO_PI)
    system = SeriesSystem(TWO_PI, np.zeros((2, 2)), (term,))
    x0, h = averaging.standard_form(system)
    for t in (0.0, 1.0, TWO_PI):
        assert np.array_equal(pp_eval(x0, t), np.eye(2))
        assert np.abs(pp_eval(h[0], t) - pp_eval(term, t)).max() < 1e-15


def test_standard_form_pendulum_x0_and_h1():
    _, system, x0, _, _ = pendulum_pipeline(0.3, 1.0, 0.1, 1)
    for t in (0.0, 1.7, PI, TWO_PI):
        assert np.abs(pp_eval(x0, t) - np.array([[1.0, t], [0.0, 1.0]])).max() < 1e-15
    _, h = averaging.standard_form(system)
    for t in (0.0, 0.5, 2.0):  # on [0, pi): eps * [[-t, -t^2], [1, t]]
        expect = np.array([[-t, -t * t], [1.0, t]])
        assert np.abs(pp_eval(h[0], t) - expect).max() < 1e-13


@st.composite
def _nilpotent_j0(draw, family):
    """J0 of one family: strictly upper-triangular (any index, entries that
    may be zero), two 2x2 Jordan blocks (index 2 in 4x4), zero, or a cyclic
    shift c N + d E_(n-1,0) with J0^n = c^(n-1) d I below 1e-12 but nonzero,
    whose powers below n may be tiny (c down to 1e-7) and are all kept."""
    n = draw(st.integers(2, 4))
    if family == "upper":
        entries = st.sampled_from([0.0, 1.0, -0.5]) | st.floats(-2.0, 2.0)
        return np.triu(draw(arrays(float, (n, n), elements=entries)), 1)
    if family == "jordan-pairs":
        j0 = np.zeros((4, 4))
        j0[0, 1], j0[2, 3] = draw(st.tuples(*[st.floats(0.1, 2.0)] * 2))
        return j0
    if family == "zero":
        return np.zeros((n, n))
    c = draw(st.floats(1e-7, 1.0))
    j0 = np.diag(np.full(n - 1, c), 1)
    j0[n - 1, 0] = draw(st.floats(1e-20, 1e-13)) / c ** (n - 1)
    return j0


@st.composite
def _terms(draw, dim, max_degree):
    """One to three terms on 2 pi, each of one to three pieces of degree up to
    ``max_degree``."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        inner = draw(st.lists(st.sampled_from([0.13, 0.25, 0.5, 0.71]), max_size=2, unique=True))
        breaks = np.array([0.0, *sorted(inner), 1.0]) * TWO_PI
        blocks = [draw(arrays(float, (dim, dim, draw(st.integers(1, max_degree + 1))),
                              elements=st.floats(-1.0, 1.0))) for _ in breaks[1:]]
        terms.append(PiecewisePolyMatrix.from_blocks(TWO_PI, breaks, blocks))
    return tuple(terms)


def _recursion_or_error(h_terms, order):
    try:
        a, u_end = averaging.run_recursion([{(): h} for h in h_terms], TWO_PI, order)
    except (FloquetError, NumericRangeError) as exc:
        return repr(exc)
    return [[m[()].tobytes() for m in group] for group in (a, u_end)]


# piecewise-constant terms sum each product's nonzero terms in one order for
# any J0; with polynomial terms that holds while no entry of X0 carries two
# powers of J0 (index 2 with a zero diagonal, or J0 = 0) and the terms' degrees
# stay within 2.  A strictly upper-triangular J0 of index 3 in 4x4 with
# polynomial terms flips which factor a product loops over, and the results
# move by roundoff.
@pytest.mark.parametrize("family, max_degree", [
    ("upper", 0), ("jordan-pairs", 0), ("zero", 0), ("near", 0),
    ("jordan-pairs", 2), ("zero", 2), ("near", 2),
])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_standard_form_at_j0s_nilpotency_degree_is_the_full_degree_form_bitwise(
        family, max_degree, data):
    j0 = data.draw(_nilpotent_j0(family))
    n = j0.shape[0]
    system = SeriesSystem(TWO_PI, j0, data.draw(_terms(n, max_degree)))
    x0, h_terms = averaging.standard_form(system)
    ref_x0, ref_h = full_degree_standard_form(system)
    powers = [np.linalg.matrix_power(j0, k) for k in range(n)]
    degree = n - 1 if family == "near" else max(k for k, p in enumerate(powers) if p.any())
    assert x0.max_degree == degree
    for new, ref in ((x0, ref_x0), *zip(h_terms, ref_h)):
        top = new.max_degree + 1
        assert np.array_equal(new.breakpoints, ref.breakpoints)
        assert new.coeffs.tobytes() == np.ascontiguousarray(ref.coeffs[..., :top]).tobytes()
        assert not ref.coeffs[..., top:].any()
    assert _recursion_or_error(h_terms, 6) == _recursion_or_error(ref_h, 6)


def test_standard_form_rejects_non_nilpotent():
    with pytest.raises(ModelError):
        SeriesSystem(TWO_PI, np.eye(2), ())


def test_recursion_first_order_average():
    _, _, _, a_list, mono = pendulum_pipeline(0.4, 0.9, 0.3, 1)
    assert np.abs(a_list[0] - paper_a1(0.9)).max() < 1e-13
    assert len(a_list) == 1 and len(mono.closure_residuals) == 0


def test_recursion_second_order_matches_closed_form():
    _, _, _, a_list, _ = pendulum_pipeline(0.25, 0.6, 0.15, 2)
    assert np.abs(a_list[1] - paper_a2(0.25, 0.6, 0.15)).max() < 1e-11
    # the order-2 trace times the period is -2*pi*beta*omega
    assert abs(TWO_PI * np.trace(a_list[1]) + TWO_PI * 0.15 * 0.25) < 1e-12


def test_recursion_third_order_trace_vanishes():
    _, _, _, a_list, _ = pendulum_pipeline(0.2, 0.5, 0.1, 3)
    assert abs(np.trace(a_list[2])) < 1e-12


def test_recursion_structure_and_closure():
    # the residuals analyze prints are the norms of the recursion's U_n(T)
    _, system, _, a_list, mono = pendulum_pipeline(0.3, 0.8, 0.2, 4)
    _, h = averaging.standard_form(system)
    a, u_end = averaging.run_recursion([{(): x} for x in h], TWO_PI, 4)
    assert len(a) == len(a_list) == 4 and len(u_end) == len(mono.closure_residuals) == 3
    for u, res in zip(u_end, mono.closure_residuals):
        assert res == norm1(u[()]) and res < 1e-9


def test_recursion_rejects_bad_order():
    _, system, _, _, _ = pendulum_pipeline(0.2, 0.3, 0.0, 1)
    _, h = averaging.standard_form(system)
    for order in (0, 7):
        with pytest.raises(ModelError):
            averaging.run_recursion([{(): x} for x in h], TWO_PI, order)


def test_missing_orders_treated_as_zero():
    # only an order-1 term: A_2 must still pick up the H1*U1 products
    _, system, _, _, _ = pendulum_pipeline(0.0, 0.5, 0.0, 1)
    _, h = averaging.standard_form(system)
    h = [{(): x} for x in h]
    a_short, _ = averaging.run_recursion(h[:1], TWO_PI, 2)
    a_full, _ = averaging.run_recursion(h, TWO_PI, 2)
    # omega = beta = 0 makes H2 vanish, so both routes agree
    assert np.abs(a_short[1][()] - a_full[1][()]).max() < 1e-13


def test_assemble_first_order_adjustment():
    _, _, _, _, mono = pendulum_pipeline(0.35, 0.45, 0.25, 1)
    expect = PI ** 2 * 0.45 * np.diag([1.0, -1.0])
    assert np.abs(mono.F_terms[0] - expect).max() < 1e-12
    assert np.abs(mono.F0 - np.array([[1.0, TWO_PI], [0.0, 1.0]])).max() < 1e-15


def test_assemble_second_order_trace():
    omega, eps, beta = 0.3, 0.7, 0.2
    _, _, _, _, mono = pendulum_pipeline(omega, eps, beta, 2)
    expect = -PI ** 4 * eps ** 2 / 3 + 4 * PI ** 2 * omega ** 2 - TWO_PI * beta * omega
    assert abs(mono.trace_by_order[2] - expect) < 1e-11


def test_assemble_third_order_trace_vanishes():
    _, _, _, _, mono = pendulum_pipeline(0.3, 0.7, 0.2, 3)
    assert abs(mono.trace_by_order[3]) < 1e-11


def test_partial_sums_are_cumulative():
    # a table's grade-j coefficients do not depend on its order, so the
    # order-k approximation is bitwise the order-4 one's partial sum F0 + F_1
    # + ... + F_k, its traces and determinant those of the shorter table
    _, _, _, _, mono = pendulum_pipeline(0.2, 0.4, 0.1, 4)
    assert len(mono.partial_sums) == 5
    assert np.array_equal(mono.partial_sums[0], np.array([[1.0, TWO_PI], [0.0, 1.0]]))
    for k in range(1, 5):
        _, _, _, _, short = pendulum_pipeline(0.2, 0.4, 0.1, k)
        assert np.array_equal(short.partial_sums[-1], mono.partial_sums[k])
        assert short.trace_by_order == mono.trace_by_order[: k + 1]
        assert short.trace == sum(mono.trace_by_order[: k + 1])
        diff = mono.partial_sums[k] - mono.partial_sums[k - 1]
        # recovery of the increment is exact up to one rounding of the sum
        bound = 2.0 * np.finfo(float).eps * np.abs(mono.partial_sums[k]).max()
        assert np.abs(diff - mono.F_terms[k - 1]).max() <= bound


def test_trace_identity_orders_1_to_4():
    # tr(A_j) equals the averaged trace of J_j for every computed order
    rng = np.random.default_rng(5)
    for _ in range(5):
        omega, eps, beta = rng.uniform(0, 1), rng.uniform(0, 2), rng.uniform(0, 0.5)
        _, system, _, a_list, _ = pendulum_pipeline(omega, eps, beta, 4)
        for res in trace_identity_residuals(system, a_list):
            assert res < 1e-11


def _poly_exp_terms(a_list, period, order):
    """Z_j by truncated power-series arithmetic on the matrix polynomial
    sum_j A_j T s^j, compared coefficient-wise."""
    shape = np.shape(a_list[0])
    m = np.zeros((order + 1,) + shape)
    for j, a in enumerate(a_list[:order], start=1):
        m[j] = a * period
    result = np.zeros_like(m)
    result[0] = np.broadcast_to(np.eye(shape[-1]), shape)
    power = result.copy()
    for k in range(1, order + 1):
        nxt = np.zeros_like(m)
        for i in range(order + 1):
            for j in range(1, order + 1 - i):
                nxt[i + j] += power[i] @ m[j]
        power = nxt
        result += power / math.factorial(k)
    return [result[j] for j in range(1, order + 1)]


def _compositions(total):
    """All ordered tuples of positive integers summing to ``total``."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def _composition_exp_terms(a_list, period, order):
    """Z_j written out term by term: the sum over ordered compositions
    (k_1..k_m) of j of (T^m / m!) A_{k_1} @ ... @ A_{k_m}."""
    z_terms = []
    for j in range(1, order + 1):
        z = np.zeros_like(a_list[0])
        for comp in _compositions(j):
            if any(k > len(a_list) for k in comp):
                continue
            prod = a_list[comp[0] - 1]
            for k in comp[1:]:
                prod = prod @ a_list[k - 1]
            z = z + prod * (period ** len(comp) / math.factorial(len(comp)))
        z_terms.append(z)
    return z_terms


def test_graded_exponential_consistency():
    # the power recurrence against two independent oracles at orders 1..6, on
    # one system, a stack of five and a model whose orders stop at 3
    _, _, _, a_point, _ = pendulum_pipeline(0.3, 0.8, 0.2, 6)
    rng = np.random.default_rng(6)
    omegas, epss = rng.uniform(0.0, 0.4, 5), rng.uniform(0.0, 1.0, 5)
    a_stack, _ = pendulum_expansion(omegas, epss, 0.3, 6)
    for order in range(1, 7):
        for a_list in (a_point[:order], a_stack[:order], a_point[:3]):
            terms = graded_exp_terms(a_list, TWO_PI, order)
            assert len(terms) == order
            # from grade 5 the summands cancel (up to 2e6 for a Z_6 near 2), and the
            # two oracles already differ by 7e-12: there the bound adds u per summand size
            sizes = _composition_exp_terms([np.abs(a) for a in a_list], TWO_PI, order)
            for oracle in (_poly_exp_terms, _composition_exp_terms):
                z_oracles = oracle(a_list, TWO_PI, order)
                for grade, (z, z_oracle, size) in enumerate(zip(terms, z_oracles, sizes), 1):
                    assert z.shape == z_oracle.shape
                    bound = 1e-12 * (1.0 + np.abs(z_oracle).max())
                    if grade >= 5:
                        bound += 4 * EPS * size.max()
                    assert np.abs(z - z_oracle).max() < bound


def test_monodromy_direct_reduces_to_f0():
    # eps = 0 kills A_1, so at order 1 the direct exponential is exactly F0
    _, _, x0, a_list, mono = pendulum_pipeline(0.3, 0.0, 0.2, 1)
    assert norm1(a_list[0]) < 1e-15
    assert np.abs(monodromy_direct(x0, a_list, TWO_PI) - mono.F0).max() < 1e-14


def test_monodromy_direct_deviation_is_high_order():
    # ||direct - partial_sum_N|| scales at least like s^(N+1)
    svals = [0.4, 0.2, 0.1, 0.05]
    errs4, errs2 = [], []
    for s in svals:
        params, system, x0, a_list, mono = pendulum_pipeline(0.5 * s, 0.8 * s, 0.2 * s, 4)
        errs4.append(norm1(monodromy_direct(x0, a_list, TWO_PI) - mono.partial_sums[4]))
        _, _, x0b, a_list2, _ = pendulum_pipeline(0.5 * s, 0.8 * s, 0.2 * s, 2)
        f_exact = exact_monodromy_pc(pendulum.jacobians(params))
        errs2.append(norm1(monodromy_direct(x0b, a_list2, TWO_PI) - f_exact))
    slope4 = np.polyfit(np.log(svals), np.log(errs4), 1)[0]
    slope2 = np.polyfit(np.log(svals), np.log(errs2), 1)[0]
    assert slope4 >= 4.5  # order-5 deviation from the order-4 partial sum
    assert slope2 >= 2.5  # order-3 deviation from the exact monodromy


# -- the coefficient table and its evaluation at a stack of points ------------

def _expansion_invariants(table, values):
    """Everything the order-K path computes at K pendulum points: the A_n
    and residuals analyze prints and the approximation every margin reads."""
    a_mats, residuals = averaging.evaluate_table(table, values)
    f, traces, det = averaging.evaluate_monodromy(table, values)
    return list(a_mats) + list(residuals) + [f] + list(traces) + [det]


@pytest.mark.parametrize("order", [2, 4, 6])
@pytest.mark.parametrize("beta", [0.0, 0.3])
def test_every_cell_of_a_stack_equals_its_own_run_bitwise(order, beta):
    rng = np.random.default_rng(order)
    omegas, epss = rng.uniform(0.0, 0.4, 8), rng.uniform(0.0, 1.0, 8)
    table = pendulum.averaged_table(order)

    def invariants(w, e):
        return _expansion_invariants(table, pendulum.monomial_values(w, e, beta, order))

    full = invariants(omegas, epss)
    permutation = rng.permutation(8)
    permuted = invariants(omegas[permutation], epss[permutation])
    truncated = invariants(omegas[:3], epss[:3])
    for k in range(8):
        alone = invariants(omegas[[k]], epss[[k]])
        # analyze's one-point path: the cell's A_j and residuals, unstacked
        a_mats, residuals = averaging.evaluate_table(table, pendulum.monomial_values(
            [omegas[k]], [epss[k]], beta, order))
        single = [a[0] for a in a_mats] + [float(r[0]) for r in residuals]
        position = int(np.flatnonzero(permutation == k)[0])
        for x, x_alone, x_perm in zip(full, alone, permuted):
            assert np.array_equal(x[k], x_alone[0])
            assert np.array_equal(x[k], x_perm[position])
        for x, x_single in zip(full, single):
            assert np.array_equal(x[k], x_single)
        if k < 3:
            assert all(np.array_equal(x[k], y[k]) for x, y in zip(full, truncated))


@pytest.mark.parametrize("order", range(1, 7))
def test_tabulated_monodromy_agrees_with_each_cells_own_assembly(order):
    # the table's F, tr F_j and determinant against the graded expansion run
    # on each cell's own A_j: they differ by roundoff alone, measured at most
    # 0.64 u, 2.0 u and 0.19 u of the summands' sizes
    rng = np.random.default_rng(40 + order)
    omegas, epss = rng.uniform(0.0, 0.5, 30), rng.uniform(0.0, 1.2, 30)
    table = pendulum.averaged_table(order)
    for beta in (0.0, 0.1, 0.3):
        values = pendulum.monomial_values(omegas, epss, beta, order)
        f, traces, det = averaging.evaluate_monodromy(table, values)
        a_mats, _ = averaging.evaluate_table(table, values)
        f0, f_terms = averaging.assemble_monodromy(table.x0, a_mats)
        assert np.array_equal(table.F0, f0)
        sizes = [np.abs(f0) @ z for z in
                 _composition_exp_terms([np.abs(a) for a in a_mats], TWO_PI, order)]
        for trace, f_cell, size in zip(traces[1:], f_terms, sizes):
            bound = 4 * EPS * (size[:, 0, 0] + size[:, 1, 1])
            assert (np.abs(trace - np.trace(f_cell, axis1=1, axis2=2)) <= bound).all()
        bound = 2 * EPS * (np.abs(f0) + sum(sizes)).max(axis=(1, 2))[:, None, None]
        assert (np.abs(f - f0 - sum(f_terms)) <= bound).all()
        assert traces[-1].tolist() == sum(traces[:-1]).tolist()
        expect = stability.det_series_expansion(table.trace_j0, a_mats, TWO_PI, order)
        diagonals = [(np.abs(a[:, 0, 0]) + np.abs(a[:, 1, 1]))[:, None, None] for a in a_mats]
        size = sum(_composition_exp_terms(diagonals, TWO_PI, order))[:, 0, 0]
        assert (np.abs(det - expect) <= EPS * size).all()


def test_averaged_expansion_matches_the_recursion_on_series_split():
    # the table's sums against the recursion run on each point's own series
    omegas, epss = np.array([0.0, 0.137, 0.29, 0.45]), np.array([0.4, 0.0, 0.93, 1.2])
    for beta in (0.0, 0.2):
        a_stacks, residual_stacks = pendulum_expansion(omegas, epss, beta, 6)
        assert len(a_stacks) == 6 and all(a.shape == (4, 2, 2) for a in a_stacks)
        assert len(residual_stacks) == 5 and all(r.shape == (4,) for r in residual_stacks)
        for k in range(4):
            _, _, _, a_list, mono = pendulum_pipeline(omegas[k], epss[k], beta, 6)
            for a_stack, a in zip(a_stacks, a_list):
                assert np.abs(a_stack[k] - a).max() <= 1e-12 * (1.0 + np.abs(a).max())
            for r_stack, r in zip(residual_stacks, mono.closure_residuals):
                assert r_stack[k] < 1e-9 and r < 1e-9


def test_averaged_expansion_validates_point_by_point():
    with pytest.raises(ModelError, match="eps"):
        pendulum.monomial_values([0.1, 0.2, 0.3], [0.5, -1.0, math.nan], 0.0, 2)
    with pytest.raises(ModelError, match="omega"):
        pendulum.monomial_values([0.1, math.inf], [0.5, 0.5], 0.0, 2)
    with pytest.raises(ModelError, match="beta"):
        pendulum.monomial_values([0.1], [0.5], -0.1, 2)


def test_averaged_expansion_names_the_first_overflowing_point():
    # (omega^2)^2 overflows at the second and third points; the first is named
    with pytest.raises(NumericRangeError) as excinfo:
        pendulum.monomial_values([0.1, 1e100, 2e100], [0.5, 0.5, 0.5], 0.0, 4)
    assert str(excinfo.value) == ("the monomial eps^0 (omega^2)^2 (beta*omega)^0 leaves the "
                                  "float range at omega = 1e+100, eps = 0.5, beta = 0")


@pytest.mark.parametrize("order", range(1, 7))
def test_each_a_n_holds_the_monomials_of_its_grade(order):
    # eps^a (omega^2)^b (beta*omega)^c with a + 2(b + c) = n: 1, 3, 3, 6, 6, 10
    table = pendulum.averaged_table(order)
    counts = (1, 3, 3, 6, 6, 10)[:order]
    assert tuple(map(len, table.labels)) == counts
    for n, labels in enumerate(table.labels, start=1):
        expect = {(a, b, c) for a in range(n + 1) for b in range(n + 1) for c in range(n + 1)
                  if a + 2 * (b + c) == n}
        assert set(labels) == expect
    assert table.exponents.tolist() == [list(m) for ms in table.labels for m in ms]
    assert table.A.shape == (sum(counts), 2, 2)
    assert table.U_end.shape == (sum(counts[:-1]), 2, 2)
    # A_1 = eps * (1/2pi) [[pi^2, 2 pi^3], [0, -pi^2]]
    assert np.abs(table.A[0] - paper_a1(1.0)).max() < 1e-13


def test_two_scans_of_one_order_build_the_table_once(monkeypatch):
    orders = []
    recursion = averaging.run_recursion

    def counted(h_terms, period, order):
        orders.append(order)
        return recursion(h_terms, period, order)

    monkeypatch.setattr(averaging, "run_recursion", counted)
    for _ in range(2):
        scan.scan_region((0.05, 0.3, 3), (0.0, 0.8, 3), 0.1, "order4")
        scan.point_report(0.2, 0.5, 0.1, "order4")
    assert orders == [4]
    scan.scan_region((0.05, 0.3, 3), (0.0, 0.8, 3), 0.1, "order2")
    assert orders == [4, 2]


def test_importing_the_package_builds_no_table():
    src = os.path.dirname(os.path.dirname(os.path.abspath(pendulum.__file__)))
    code = ("import sys, floquet_avg, floquet_avg.cli; "
            "sys.exit(len(sys.modules['floquet_avg.pendulum']._TABLES))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_closure_check_names_the_first_failing_monomial(monkeypatch):
    # with a threshold of 1e-300 every monomial with a nonzero residual fails:
    # the build names the monomial it stops at, and no table is kept
    monkeypatch.setattr(averaging, "_CLOSURE_TOL", 1e-300)
    with pytest.raises(FloquetError, match=r"closure residual \|\|U_\d of monomial \(\d, \d, \d\)"):
        pendulum.averaged_table(3)
    assert 3 not in pendulum._TABLES
    # a plain model is the one-monomial case: its message names no monomial
    _, system, _, _, _ = pendulum_pipeline(0.2, 0.7, 0.1, 1)
    _, h = averaging.standard_form(system)
    with pytest.raises(FloquetError, match=r"closure residual \|\|U_\d\(T\)\|\| = "):
        averaging.run_recursion([{(): x} for x in h], TWO_PI, 3)

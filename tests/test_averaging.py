import math

import numpy as np
import pytest

from conftest import pendulum_pipeline
from floquet_avg import averaging, pendulum, stability
from floquet_avg.averaging import SeriesSystem, graded_exp_terms, monodromy_direct
from floquet_avg.errors import FloquetError, ModelError
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


def test_standard_form_rejects_non_nilpotent():
    with pytest.raises(ModelError):
        SeriesSystem(TWO_PI, np.eye(2), ())


def test_recursion_first_order_average():
    _, _, _, avg, _ = pendulum_pipeline(0.4, 0.9, 0.3, 1)
    assert np.abs(avg.A[0] - paper_a1(0.9)).max() < 1e-13
    assert len(avg.U) == 0 and len(avg.closure_residuals) == 0


def test_recursion_second_order_matches_closed_form():
    _, _, _, avg, _ = pendulum_pipeline(0.25, 0.6, 0.15, 2)
    assert np.abs(avg.A[1] - paper_a2(0.25, 0.6, 0.15)).max() < 1e-11
    # the order-2 trace times the period is -2*pi*beta*omega
    assert abs(TWO_PI * np.trace(avg.A[1]) + TWO_PI * 0.15 * 0.25) < 1e-12


def test_recursion_third_order_trace_vanishes():
    _, _, _, avg, _ = pendulum_pipeline(0.2, 0.5, 0.1, 3)
    assert abs(np.trace(avg.A[2])) < 1e-12


def test_recursion_structure_and_closure():
    _, _, _, avg, _ = pendulum_pipeline(0.3, 0.8, 0.2, 4)
    assert len(avg.A) == 4 and len(avg.U) == 3
    for j, (u, res) in enumerate(zip(avg.U, avg.closure_residuals), start=1):
        assert res < 1e-9 * (1.0 + u.max_coeff())
        assert np.abs(pp_eval(u, TWO_PI)).max() < 1e-9


def test_recursion_rejects_bad_order():
    _, system, _, _, _ = pendulum_pipeline(0.2, 0.3, 0.0, 1)
    _, h = averaging.standard_form(system)
    for order in (0, 7):
        with pytest.raises(ModelError):
            averaging.run_recursion(h, TWO_PI, order)


def test_missing_orders_treated_as_zero():
    # only an order-1 term: A_2 must still pick up the H1*U1 products
    _, system, _, _, _ = pendulum_pipeline(0.0, 0.5, 0.0, 1)
    _, h = averaging.standard_form(system)
    avg_short = averaging.run_recursion(h[:1], TWO_PI, 2)
    avg_full = averaging.run_recursion(h, TWO_PI, 2)
    # omega = beta = 0 makes H2 vanish, so both routes agree
    assert np.abs(avg_short.A[1] - avg_full.A[1]).max() < 1e-13


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
    _, _, _, _, mono = pendulum_pipeline(0.2, 0.4, 0.1, 4)
    assert len(mono.partial_sums) == 5
    for k in range(1, 5):
        diff = mono.partial_sums[k] - mono.partial_sums[k - 1]
        # recovery of the increment is exact up to one rounding of the sum
        bound = 2.0 * np.finfo(float).eps * np.abs(mono.partial_sums[k]).max()
        assert np.abs(diff - mono.F_terms[k - 1]).max() <= bound


def test_trace_identity_orders_1_to_4():
    # tr(A_j) equals the averaged trace of J_j for every computed order
    from floquet_avg.stability import trace_identity_residuals
    rng = np.random.default_rng(5)
    for _ in range(5):
        omega, eps, beta = rng.uniform(0, 1), rng.uniform(0, 2), rng.uniform(0, 0.5)
        _, system, _, avg, _ = pendulum_pipeline(omega, eps, beta, 4)
        for res in trace_identity_residuals(system, avg):
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
    _, _, _, avg, _ = pendulum_pipeline(0.3, 0.8, 0.2, 6)
    rng = np.random.default_rng(6)
    omegas, epss = rng.uniform(0.0, 0.4, 5), rng.uniform(0.0, 1.0, 5)
    _, h = averaging.standard_form(pendulum.series_split_stack(omegas, epss, 0.3))
    avg_stack = averaging.run_recursion(h, TWO_PI, 6)
    for order in range(1, 7):
        for a_list in (avg.A[:order], avg_stack.A[:order], avg.A[:3]):
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
    _, _, x0, avg, mono = pendulum_pipeline(0.3, 0.0, 0.2, 1)
    assert norm1(avg.A[0]) < 1e-15
    assert np.abs(monodromy_direct(x0, avg, TWO_PI) - mono.F0).max() < 1e-14


def test_monodromy_direct_deviation_is_high_order():
    # ||direct - partial_sum_N|| scales at least like s^(N+1)
    svals = [0.4, 0.2, 0.1, 0.05]
    errs4, errs2 = [], []
    for s in svals:
        params, system, x0, avg, mono = pendulum_pipeline(0.5 * s, 0.8 * s, 0.2 * s, 4)
        errs4.append(norm1(monodromy_direct(x0, avg, TWO_PI) - mono.partial_sums[4]))
        _, _, x0b, avg2, _ = pendulum_pipeline(0.5 * s, 0.8 * s, 0.2 * s, 2)
        f_exact = exact_monodromy_pc(pendulum.jacobians(params))
        errs2.append(norm1(monodromy_direct(x0b, avg2, TWO_PI) - f_exact))
    slope4 = np.polyfit(np.log(svals), np.log(errs4), 1)[0]
    slope2 = np.polyfit(np.log(svals), np.log(errs2), 1)[0]
    assert slope4 >= 4.5  # order-5 deviation from the order-4 partial sum
    assert slope2 >= 2.5  # order-3 deviation from the exact monodromy


# -- the averaged path over a stack of systems --------------------------------

def _pipeline_invariants(system, order):
    """Everything the order-K path computes for a system or a stack of them."""
    x0, h = averaging.standard_form(system)
    avg = averaging.run_recursion(h, system.period, order)
    mono = averaging.assemble_monodromy(x0, avg, system.period)
    det = stability.det_series_expansion(system, avg, order)
    arrays = list(avg.A) + [np.asarray(r) for r in avg.closure_residuals]
    arrays += [np.asarray(t) for t in mono.trace_by_order[1:]] + list(mono.F_terms)
    arrays += list(mono.partial_sums[1:]) + [np.asarray(det)]
    arrays += [u.coeffs for u in avg.U]
    return arrays


@pytest.mark.parametrize("order", [2, 4, 6])
@pytest.mark.parametrize("beta", [0.0, 0.3])
def test_every_cell_of_a_stack_equals_its_own_run_bitwise(order, beta):
    rng = np.random.default_rng(order)
    omegas, epss = rng.uniform(0.0, 0.4, 8), rng.uniform(0.0, 1.0, 8)
    full = _pipeline_invariants(pendulum.series_split_stack(omegas, epss, beta), order)
    permutation = rng.permutation(8)
    permuted = _pipeline_invariants(
        pendulum.series_split_stack(omegas[permutation], epss[permutation], beta), order)
    truncated = _pipeline_invariants(pendulum.series_split_stack(omegas[:3], epss[:3], beta), order)
    for k in range(8):
        alone = _pipeline_invariants(pendulum.series_split_stack(omegas[[k]], epss[[k]], beta), order)
        single = _pipeline_invariants(
            pendulum.series_split(pendulum.PendulumParams(omegas[k], epss[k], beta)), order)
        position = int(np.flatnonzero(permutation == k)[0])
        for x, x_alone, x_single, x_perm in zip(full, alone, single, permuted):
            assert np.array_equal(x[k], x_alone[0])
            assert np.array_equal(x[k], x_single)
            assert np.array_equal(x[k], x_perm[position])
        if k < 3:
            assert all(np.array_equal(x[k], y[k]) for x, y in zip(full, truncated))


def test_series_split_stack_matches_series_split():
    omegas, epss, beta = np.array([0.0, 0.137, 0.29]), np.array([0.4, 0.0, 0.93]), 0.2
    stack = pendulum.series_split_stack(omegas, epss, beta)
    assert np.array_equal(stack.J0, np.array([[0.0, 1.0], [0.0, 0.0]]))
    for k in range(3):
        single = pendulum.series_split(pendulum.PendulumParams(omegas[k], epss[k], beta))
        for term_stack, term in zip(stack.terms, single.terms):
            assert np.array_equal(term_stack.breakpoints, term.breakpoints)
            assert np.array_equal(term_stack.coeffs[k], term.coeffs)
        # omega**2 is libm pow, as in the exact path's Jacobians
        assert stack.terms[1].coeffs[k, 0, 1, 0, 0] == float(omegas[k]) ** 2


def test_series_split_stack_validates_point_by_point():
    with pytest.raises(ModelError, match="eps"):
        pendulum.series_split_stack([0.1, 0.2, 0.3], [0.5, -1.0, math.nan], 0.0)
    with pytest.raises(ModelError, match="omega"):
        pendulum.series_split_stack([0.1, math.inf], [0.5, 0.5], 0.0)
    with pytest.raises(ModelError, match="beta"):
        pendulum.series_split_stack([0.1], [0.5], -0.1)


def test_batched_closure_check_names_a_failing_cell(monkeypatch):
    # with a threshold of 1e-300 every cell with a nonzero residual fails;
    # the stack reports the first such cell's residual, as that cell would alone
    monkeypatch.setattr(averaging, "_CLOSURE_TOL", 1e-300)
    omegas, epss = np.array([0.0, 0.2, 0.3]), np.array([0.0, 0.7, 0.4])
    errors = []
    for k in range(3):
        _, h = averaging.standard_form(pendulum.series_split_stack(omegas[[k]], epss[[k]], 0.1))
        try:
            averaging.run_recursion(h, TWO_PI, 3)
            errors.append(None)
        except FloquetError as exc:
            errors.append(str(exc))
    assert errors[0] is None and errors[1] is not None and errors[2] not in (None, errors[1])
    _, h = averaging.standard_form(pendulum.series_split_stack(omegas, epss, 0.1))
    with pytest.raises(FloquetError) as excinfo:
        averaging.run_recursion(h, TWO_PI, 3)
    assert str(excinfo.value) == errors[1]

"""The recursion and RK4 against reference loops, bit for bit.

``averaging.run_recursion`` refines its H terms onto one exact union of
their breakpoints once, runs one product and one sum at a time on it, and
takes A_n and U_n(T) from the joins that set its antiderivatives'
constants.  ``_serial_recursion`` below carries every function on its own
breakpoints instead: one ``ppoly._on_union`` product and sum per term, and
Horner at T for every value there.  On terms that share one breakpoint
array both run the same arithmetic, so they must agree in every bit, and
on failing inputs the recursion must raise what the loop raises first.
``_kernels.rk4_monodromy_core`` evaluates and multiplies all blocks of
steps of a polynomial piece in one pass; ``_blockwise_rk4`` takes one block
at a time, and the two must agree in every bit too.
"""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import test_model_files
from floquet_avg import _kernels, averaging, cli, exactmono, pendulum, ppoly
from floquet_avg.averaging import SeriesSystem
from floquet_avg.errors import FloquetError, ModelError
from floquet_avg.ppoly import PiecewisePolyMatrix
from floquet_avg.smallmat import norm1

TWO_PI = 2.0 * math.pi
CLOSE = ppoly._PERIOD_END_TOL * TWO_PI  # the end-point tolerance, as a distance


def _value(period, coeffs, breaks, t):
    if not (0.0 <= t <= period):
        raise ppoly.NumericRangeError(f"t = {t:g} outside [0, {period:g}]")
    idx = int(np.searchsorted(breaks, t, side="right")) - 1
    idx = min(max(idx, 0), len(coeffs) - 1)
    value = ppoly._eval_block(coeffs[idx], t)
    if not np.isfinite(value).all():
        raise ppoly.NumericRangeError(f"the value at t = {t:g} leaves the float range")
    return value


def _joined(anti, breaks):
    at_lo, at_hi = ppoly._eval_block(anti, np.array((breaks[:-1], breaks[1:]))[..., None, None])
    consts = np.empty_like(at_lo)
    running = 0.0
    for k in range(len(consts)):
        const = consts[k] = running - at_lo[k]
        running = at_hi[k] + const
    anti[..., 0] = consts
    return anti, breaks


def _antiderivative(coeffs, breaks):
    d = coeffs.shape[-1]
    anti = np.zeros(coeffs.shape[:-1] + (d + 1,))
    anti[..., 1:] = coeffs / np.arange(1, d + 1)
    return _joined(anti, breaks)


def _minus_ramp(coeffs, breaks, slope):
    anti = coeffs.copy()
    anti[..., 1] -= slope
    anti[..., 0] = 0.0
    return _joined(anti, breaks)


def _checked(f):
    """A function ``(coeffs, breakpoints)`` with its coefficients checked."""
    return ppoly._checked(f[0]), f[1]


def _serial_recursion(h_terms, period, order):
    """The recursion one product and one sum at a time, Horner at T for A_n and U_n(T)."""
    funcs = [f for term in h_terms for f in term.values()]
    span = funcs[0].period
    h_terms = [{label: (f.coeffs, f.breakpoints) for label, f in term.items()}
               for term in h_terms]
    zero = (np.zeros((1, funcs[0].dim, funcs[0].dim, 1)), np.array([0.0, period]))
    a_mats, a_consts, u_funcs, u_ends = [], [], [], []

    def apply(kernel, x, y, *args):
        return _checked(ppoly._on_union(x, y, kernel, *args))

    def accumulate(sign, label_x, label_y, product):
        label = averaging._label_sum(label_x, label_y)
        coll[label] = apply(ppoly._sum, coll.get(label, zero), product, sign)

    try:
        for n in range(1, order + 1):
            coll = dict(h_terms[n - 1]) if n <= len(h_terms) else {}
            for i in range(1, n):
                if n - i <= len(h_terms):
                    for lh, h in h_terms[n - i - 1].items():
                        for lu, u in u_funcs[i - 1].items():
                            accumulate(1.0, lh, lu, apply(ppoly._product, h, u))
                for lu, u in u_funcs[i - 1].items():
                    for la, a in a_consts[n - i - 1].items():
                        accumulate(-1.0, lu, la, apply(ppoly._product, u, a))
            anti = {label: _checked(_antiderivative(*f)) for label, f in coll.items()}
            a_n = {label: _value(span, *w, period) / period for label, w in anti.items()}
            if not all(np.isfinite(a).all() for a in a_n.values()):
                raise ModelError("piece coefficients must be finite")
            a_mats.append(a_n)
            a_consts.append({label: (a[..., None, :, :, None], zero[1])
                             for label, a in a_n.items()})
            if n < order:
                u_n, end_n = {}, {}
                for label, w in anti.items():
                    u = _checked(_minus_ramp(*w, a_n[label]))
                    end = _value(span, *u, period)
                    res = float(norm1(end))
                    if res >= averaging._CLOSURE_TOL * (1.0 + float(np.abs(u[0]).max())):
                        where = f" of monomial {label}" if label else ""
                        raise FloquetError(f"closure residual ||U_{n}{where}(T)|| = "
                                           f"{res:.3g} indicates a broken recursion")
                    u_n[label], end_n[label] = u, end
                u_funcs.append(u_n)
                u_ends.append(end_n)
    except ModelError as exc:
        if "degree" in str(exc):
            raise ModelError(f"order {order} too high: {exc}") from exc
        raise
    return tuple(a_mats), tuple(u_ends)


def _bits(result):
    """A recursion's (A, U_end) as bytes by label, in dict order."""
    return [[(label, m.tobytes()) for label, m in group.items()]
            for part in result for group in part]


def _both(h_terms, order, period=TWO_PI):
    """Both recursions' results, or the error each raised, as comparable values."""
    out = []
    for run in (averaging.run_recursion, _serial_recursion):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                out.append(_bits(run(h_terms, period, order)))
        except FloquetError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


def _table_bits(table):
    return [x.tobytes() for x in (table.A, table.U_end, table.F0, table.F, table.D)]


def _on_one_array(h_terms, period, order):
    """The serial recursion on the H terms refined onto the exact union of
    their breakpoints, the one array the recursion itself runs on."""
    funcs = [f for term in h_terms for f in term.values()]
    breaks = np.unique(np.concatenate([f.breakpoints for f in funcs]))

    def refined(f):
        if len(f.coeffs) == 1:
            return f
        idx = np.searchsorted(f.breakpoints, breaks[:-1], side="right") - 1
        return PiecewisePolyMatrix(f.period, breaks, f.coeffs[idx])

    return _serial_recursion([{label: refined(f) for label, f in term.items()}
                              for term in h_terms], period, order)


def _assert_tables_equal(build, monkeypatch):
    """A table built by ``build`` equals, in A, U_end, F and D, the one the
    serial recursion gives on the same terms on one breakpoint array."""
    one_array = build()
    with monkeypatch.context() as m:
        m.setattr(averaging, "run_recursion", _on_one_array)
        serial = build()
    assert one_array.labels == serial.labels
    assert _table_bits(one_array) == _table_bits(serial)


@pytest.mark.parametrize("order", range(1, averaging.MAX_ORDER + 1))
def test_pendulum_tables_equal_the_serial_recursion_bitwise(order, monkeypatch):
    def build():
        pendulum._TABLES.pop(order, None)
        return pendulum.averaged_table(order)

    try:
        _assert_tables_equal(build, monkeypatch)
    finally:
        pendulum._TABLES.pop(order, None)


@pytest.mark.parametrize("order", range(1, averaging.MAX_ORDER + 1))
@pytest.mark.parametrize("name", sorted(test_model_files.MODELS))
def test_model_file_tables_equal_the_serial_recursion_bitwise(tmp_path, name, order, monkeypatch):
    # coupled and linear share one array as written; the others break on
    # arrays of their own, which the reference refines onto their union
    path = tmp_path / "model.json"
    path.write_text(json.dumps(test_model_files.MODELS[name]()), encoding="utf-8")
    system = cli.load_model_file(str(path))
    _assert_tables_equal(lambda: averaging.system_table(system, order), monkeypatch)


@st.composite
def _systems(draw, scales):
    """A graded system of dimension 2 to 4: a strictly upper-triangular J0 and
    one to three terms of degree 0 to 2 per piece, each term of one piece or
    of the one to six pieces of a breakpoint array all terms share, the
    pieces' entries drawn from ``scales`` times [-1, 1]."""
    n = draw(st.integers(2, 4))
    j0 = np.triu(np.array(draw(st.lists(st.sampled_from([0.0, 1.0, -0.5, 0.3]),
                                        min_size=n * n, max_size=n * n))).reshape(n, n), 1)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pieces = draw(st.integers(1, 6))
    inner = np.sort(rng.choice(np.arange(1, 40), size=pieces - 1, replace=False)) / 40.0
    shared = np.concatenate(([0.0], inner, [1.0])) * TWO_PI
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        breaks = shared if draw(st.booleans()) else np.array([0.0, TWO_PI])
        blocks = [rng.uniform(-1.0, 1.0, (n, n, int(rng.integers(1, 4))))
                  * draw(st.sampled_from(scales)) for _ in range(len(breaks) - 1)]
        terms.append(PiecewisePolyMatrix.from_blocks(TWO_PI, breaks, blocks))
    return SeriesSystem(TWO_PI, j0, tuple(terms)), draw(st.integers(1, averaging.MAX_ORDER))


def _h_terms(system):
    with np.errstate(over="ignore", invalid="ignore"):
        return [{(): h} for h in averaging.standard_form(system)[1]]


@seed(20261021)
@settings(max_examples=60, deadline=None)
@given(case=_systems([1.0]))
def test_random_systems_equal_the_serial_recursion_bitwise(case):
    system, order = case
    one_array, serial = _both(_h_terms(system), order)
    assert one_array == serial


@seed(20261022)
@settings(max_examples=60, deadline=None)
@given(case=_systems([1.0, 1e100, 1e154, 1e200, 1e300]))
def test_random_failing_systems_raise_the_serial_recursions_first_error(case):
    # magnitudes up to 1e300 overflow products, partial sums, antiderivatives
    # and values at T in every order: the first failure of the serial loop wins
    system, order = case
    try:
        h_terms = _h_terms(system)
    except FloquetError:
        return
    one_array, serial = _both(h_terms, order)
    assert one_array == serial


def test_a_sum_that_overflows_raises_the_serial_recursions_error(tmp_path):
    # every product finite and within the degree cap, and H_3 + H_2 U_1 out of range
    model = test_model_files.sum_before_degree_cap_model()
    model["terms"][0]["pieces"][0]["entries"][0][0] = [0.0, 10.0, 0.1]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    system = cli.load_model_file(str(path))
    h_terms = [{(): h} for h in averaging.standard_form(system)[1]]
    one_array, serial = [], []
    for order in (2, 3):
        one_array, serial = _both(h_terms, order, system.period)
        assert one_array == serial
    assert one_array == ("NumericRangeError: piecewise-polynomial coefficients leave the "
                         "float range")


CHAIN = [2.0, 2.0 + 0.6 * CLOSE, 2.0 + 1.2 * CLOSE]


@pytest.mark.parametrize("permutation", list(itertools.permutations(range(3))))
def test_each_breakpoint_of_a_close_chain_survives_in_any_term_order(permutation, monkeypatch):
    # the order-1, 2 and 3 terms break at 2, 2 + 0.6 d and 2 + 1.2 d, d the
    # end-point tolerance as a distance: every antiderivative of more than one
    # piece runs on all five breakpoints, whichever term comes first
    rng = np.random.default_rng(31)
    terms = [PiecewisePolyMatrix.from_blocks(
        TWO_PI, [0.0, CHAIN[k], TWO_PI],
        [rng.uniform(-1.0, 1.0, (2, 2, 2)), rng.uniform(-1.0, 1.0, (2, 2, 3))])
        for k in permutation]
    system = SeriesSystem(TWO_PI, np.array([[0.0, 1.0], [0.0, 0.0]]), tuple(terms))
    arrays = []
    antiderivative = ppoly._antiderivative

    def recorded(coeffs, breaks, end):
        arrays.append(breaks)
        return antiderivative(coeffs, breaks, end)

    monkeypatch.setattr(ppoly, "_antiderivative", recorded)
    h_terms = _h_terms(system)
    result = averaging.run_recursion(h_terms, TWO_PI, averaging.MAX_ORDER)
    assert _bits(result) == _bits(_on_one_array(h_terms, TWO_PI, averaging.MAX_ORDER))
    assert len(arrays) == averaging.MAX_ORDER
    for breaks in arrays:
        assert breaks.tolist() == [0.0] + CHAIN + [TWO_PI]


def _blockwise_piece(x, coeffs, t0, h, steps, constant):
    """One piece of RK4 one block of steps at a time."""
    if constant:
        j = coeffs[..., 0]
        d = _kernels._power(_kernels._step_increments(j, j, j, h), steps)
        return x + np.matmul(d, x)
    for first in range(0, steps, _kernels._RK4_BLOCK_STEPS):
        t = t0 + np.arange(first, min(first + _kernels._RK4_BLOCK_STEPS, steps)) * h
        stages = np.stack((t, t + 0.5 * h, t + h))[..., None, None, None]
        j = ppoly._eval_block(coeffs, stages)
        d = _kernels._step_increments(j[0], j[1], j[2], h)
        while d.shape[0] > 1:
            pairs = d.shape[0] // 2
            merged = _kernels._compose(d[1:2 * pairs:2], d[0:2 * pairs:2])
            d = np.concatenate((merged, d[2 * pairs:])) if d.shape[0] % 2 else merged
        x = x + np.matmul(d[0], x)
    return x


def _blockwise_rk4(breaks, coeffs, steps_per_piece):
    single = coeffs.ndim == 4
    if single:
        coeffs = coeffs[None]
    k, m, n = coeffs.shape[:3]
    x = np.repeat(np.eye(n)[None], k, axis=0)
    for p in range(m):
        h = (breaks[p + 1] - breaks[p]) / steps_per_piece
        constant = ~coeffs[:, p, ..., 1:].any(axis=(1, 2, 3))
        for route in (True, False):
            rows = np.flatnonzero(constant == route)
            if rows.size:
                x[rows] = _blockwise_piece(x[rows], coeffs[rows, p], breaks[p], h,
                                           steps_per_piece, route)
    return x[0] if single else x


RK4_BREAKS = np.array([0.0, 1.3, math.pi, TWO_PI])


@pytest.mark.parametrize("steps", [16, 63, 64, 65, 100, 512, 4096, 65536])
def test_rk4_equals_the_blockwise_loop_bitwise(steps):
    rng = np.random.default_rng(steps)
    # one 2x2 system of linear pieces, and a stack of five whose first piece
    # is constant in all, the second in two of them and the third in none
    one = rng.uniform(-0.5, 0.5, (3, 2, 2, 2))
    stack = rng.uniform(-0.5, 0.5, (5, 3, 2, 2, 3))
    stack[:, 0, ..., 1:] = 0.0
    stack[:2, 1, ..., 1:] = 0.0
    for coeffs in (one, stack):
        got = _kernels.rk4_monodromy_core(RK4_BREAKS, coeffs, steps)
        assert got.tobytes() == _blockwise_rk4(RK4_BREAKS, coeffs, steps).tobytes()


def test_rk4_pass_memory_stays_bounded(tmp_path):
    # a pass holds at most _RK4_PASS_MATRICES step matrices, steps times
    # systems: at 65,536 steps per piece of the linear model the peak was
    # 0.79 MB, where one pass over a whole piece would hold about 20 MB, and a
    # stack of 32 systems takes one block per pass, not 32 blocks each
    path = tmp_path / "model.json"
    path.write_text(json.dumps(test_model_files.linear_model()), encoding="utf-8")
    j = averaging.series_total(cli.load_model_file(str(path)))
    stack = np.repeat(j.coeffs[None], 32, axis=0)
    runs = {"one system": lambda: exactmono.exact_monodromy_rk(j, exactmono.RK_MAX_STEPS),
            "32 systems": lambda: exactmono.exact_monodromy_rk_stack(j.breakpoints, stack, 8192)}
    for name, run in runs.items():
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.0e6, (name, peak)

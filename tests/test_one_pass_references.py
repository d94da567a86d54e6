"""The one-pass recursion and RK4 against the loops they replaced, bit for bit.

``averaging.run_recursion`` computes each order's products as stacks and
adds each label's terms in one ordered pass, and takes A_n and U_n(T) from
the joins that set its antiderivatives' constants.  ``_serial_recursion``
below is the loop it replaced: one ``ppoly._on_union`` product and one
``_pad_add`` sum per term, and Horner at T for every value there.
``_kernels.rk4_monodromy_core`` evaluates and multiplies all blocks of
steps of a polynomial piece in one pass; ``_blockwise_rk4`` takes one block
at a time.  Each pair must agree in every bit, and on failing inputs the
recursion must raise what the loop raises first.
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
MERGE = ppoly._BREAK_MERGE_REL * TWO_PI  # breakpoints closer than this are one


def _value(period, coeffs, degrees, breaks, t):
    if not (0.0 <= t <= period):
        raise ppoly.NumericRangeError(f"t = {t:g} outside [0, {period:g}]")
    idx = int(np.searchsorted(breaks, t, side="right")) - 1
    idx = min(max(idx, 0), len(coeffs) - 1)
    value = ppoly._eval_block(coeffs[idx, ..., : degrees[idx] + 1], t)
    if not np.isfinite(value).all():
        raise ppoly.NumericRangeError(f"the value at t = {t:g} leaves the float range")
    return value


def _joined(anti, degrees, breaks):
    at_lo, at_hi = ppoly._eval_block(anti, np.array((breaks[:-1], breaks[1:]))[..., None, None])
    consts = np.empty_like(at_lo)
    running = 0.0
    for k in range(len(consts)):
        const = consts[k] = running - at_lo[k]
        running = at_hi[k] + const
    anti[..., 0] = consts
    return anti, degrees, breaks


def _antiderivative(coeffs, degrees, breaks):
    d = coeffs.shape[-1]
    anti = np.zeros(coeffs.shape[:-1] + (d + 1,))
    anti[..., 1:] = coeffs / np.arange(1, d + 1)
    return _joined(anti, tuple(k + 1 for k in degrees), breaks)


def _minus_ramp(coeffs, degrees, breaks, slope):
    anti = coeffs.copy()
    anti[..., 1] -= slope
    anti[..., 0] = 0.0
    return _joined(anti, degrees, breaks)


def _serial_recursion(h_terms, period, order):
    """The recursion one product and one sum at a time, Horner at T for A_n and U_n(T)."""
    funcs = [f for term in h_terms for f in term.values()]
    span = funcs[0].period
    h_terms = [{label: (f.coeffs, f.degrees, f.breakpoints) for label, f in term.items()}
               for term in h_terms]
    zero = (np.zeros((1, funcs[0].dim, funcs[0].dim, 1)), (0,), np.array([0.0, period]))
    a_mats, a_consts, u_funcs, u_ends = [], [], [], []

    def apply(kernel, x, y, *args):
        return ppoly._checked(*ppoly._on_union(span, x, y, kernel, *args))

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
            anti = {label: ppoly._checked(*_antiderivative(*f)) for label, f in coll.items()}
            a_n = {label: _value(span, *w, period) / period for label, w in anti.items()}
            if not all(np.isfinite(a).all() for a in a_n.values()):
                raise ModelError("piece coefficients must be finite")
            a_mats.append(a_n)
            a_consts.append({label: (a[..., None, :, :, None], *zero[1:])
                             for label, a in a_n.items()})
            if n < order:
                u_n, end_n = {}, {}
                for label, w in anti.items():
                    u = ppoly._checked(*_minus_ramp(*w, a_n[label]))
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


def _assert_tables_equal(build, monkeypatch):
    """A table built by ``build`` equals, in A, U_end, F and D, the one the
    serial recursion gives."""
    one_pass = build()
    with monkeypatch.context() as m:
        m.setattr(averaging, "run_recursion", _serial_recursion)
        serial = build()
    assert one_pass.labels == serial.labels
    assert _table_bits(one_pass) == _table_bits(serial)


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
    path = tmp_path / "model.json"
    path.write_text(json.dumps(test_model_files.MODELS[name]()), encoding="utf-8")
    system = cli.load_model_file(str(path))
    _assert_tables_equal(lambda: averaging.system_table(system, order), monkeypatch)


@st.composite
def _systems(draw, scales):
    """A graded system of dimension 2 to 4: a strictly upper-triangular J0 and
    one to three terms of one to six pieces of degree 0 to 2, the pieces'
    entries drawn from ``scales`` times [-1, 1]."""
    n = draw(st.integers(2, 4))
    j0 = np.triu(np.array(draw(st.lists(st.sampled_from([0.0, 1.0, -0.5, 0.3]),
                                        min_size=n * n, max_size=n * n))).reshape(n, n), 1)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        pieces = draw(st.integers(1, 6))
        inner = np.sort(rng.choice(np.arange(1, 40), size=pieces - 1, replace=False)) / 40.0
        breaks = np.concatenate(([0.0], inner, [1.0])) * TWO_PI
        blocks = [rng.uniform(-1.0, 1.0, (n, n, int(rng.integers(1, 4))))
                  * draw(st.sampled_from(scales)) for _ in range(pieces)]
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
    one_pass, serial = _both(_h_terms(system), order)
    assert one_pass == serial


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
    one_pass, serial = _both(h_terms, order)
    assert one_pass == serial


def test_a_sum_that_overflows_raises_the_serial_recursions_error(tmp_path):
    # every product finite and within the degree cap, and H_3 + H_2 U_1 out of range
    model = test_model_files.sum_before_degree_cap_model()
    model["terms"][0]["pieces"][0]["entries"][0][0] = [0.0, 10.0, 0.1]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    system = cli.load_model_file(str(path))
    h_terms = [{(): h} for h in averaging.standard_form(system)[1]]
    one_pass, serial = [], []
    for order in (2, 3):
        one_pass, serial = _both(h_terms, order, system.period)
        assert one_pass == serial
    assert one_pass == ("NumericRangeError: piecewise-polynomial coefficients leave the "
                        "float range")


def _chain_terms():
    # the order-1, 2 and 3 terms break at 2, 2 + 0.6 d and 2 + 1.2 d, d the
    # merging distance: merged one at a time in the sums' order, the first two
    # become one breakpoint and the third stays apart, or the last two merge
    # and the first then absorbs them, depending on which comes first
    rng = np.random.default_rng(31)
    return [PiecewisePolyMatrix.from_blocks(
        TWO_PI, [0.0, 2.0 + shift * MERGE, TWO_PI],
        [rng.uniform(-1.0, 1.0, (2, 2, 2)), rng.uniform(-1.0, 1.0, (2, 2, 3))])
        for shift in (0.0, 0.6, 1.2)]


@pytest.mark.parametrize("permutation", [(0, 1, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)])
def test_a_chain_of_near_breakpoints_equals_the_serial_recursion_bitwise(permutation):
    terms = [_chain_terms()[k] for k in permutation]
    system = SeriesSystem(TWO_PI, np.array([[0.0, 1.0], [0.0, 0.0]]), tuple(terms))
    for order in range(1, averaging.MAX_ORDER + 1):
        one_pass, serial = _both(_h_terms(system), order)
        assert one_pass == serial


def _loop_sum(first, terms):
    for sign, f in terms:
        first = ppoly._on_union(TWO_PI, first, f, ppoly._sum, sign)
    return first


def _assert_same_function(got, want):
    assert got is not None and got[1] == want[1]
    assert got[2].tobytes() == want[2].tobytes() and got[0].tobytes() == want[0].tobytes()


def test_an_ordered_sum_ends_on_the_loops_breakpoints_and_bits():
    fs = [(f.coeffs, f.degrees, f.breakpoints) for f in _chain_terms()]
    counts = set()
    for permutation in itertools.permutations(range(3)):
        first, *rest = (fs[k] for k in permutation)
        terms = list(zip((1.0, -1.0), rest))
        got = ppoly._ordered_sum(TWO_PI, first, terms)
        _assert_same_function(got, _loop_sum(first, terms))
        counts.add(len(got[2]))
    # the order of the merges decides whether the chain leaves one breakpoint or two
    assert counts == {3, 4}


def test_an_ordered_sum_keeps_the_loops_signed_zeros():
    # where a term is too short to reach a coefficient the loop adds nothing,
    # so a -0.0 there stays; where the sum so far is too short, the loop adds
    # to 0.0, so a term's -0.0 becomes 0.0
    breaks = np.array([0.0, 1.0, TWO_PI])
    wide = np.full((2, 2, 2, 4), -0.0)
    wide[..., :2] = 0.5
    narrow = np.full((2, 2, 2, 2), -0.0)
    for first, term in ((wide, narrow), (narrow, wide)):
        f, g = (first, (3, 3) if first is wide else (1, 1), breaks), (term, (1, 1), breaks)
        for sign in (1.0, -1.0):
            _assert_same_function(ppoly._ordered_sum(TWO_PI, f, [(sign, g), (sign, g)]),
                                  _loop_sum(f, [(sign, g), (sign, g)]))


@pytest.mark.parametrize("shape", [(2,), (3, 2, 2, 5), (1, 2, 2, 2), (4, 3, 3, 1)])
def test_a_reduce_over_the_leading_axis_adds_in_order(shape):
    # terms over 30 decades, so a coefficient's sum depends on the order of its
    # adds, and signed zeros, which a reduce from 0.0 rather than -0.0 would flip
    rng = np.random.default_rng(len(shape))
    for count in (2, 3, 9, 40):
        size = (count,) + shape
        stack = rng.standard_normal(size) * 10.0 ** rng.uniform(-15, 15, size)
        stack[rng.uniform(size=size) < 0.2] = -0.0
        stack[:, ..., 0] = -0.0
        total = stack[0]
        for row in stack[1:]:
            total = total + row
        assert np.add.reduce(stack, axis=0, initial=-0.0).tobytes() == total.tobytes()


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

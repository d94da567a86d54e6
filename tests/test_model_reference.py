"""Model-file ``analyze`` against a 40-digit reference, orders 1 to 6.

For dX/dt = (J0 + mu J_1(t) + mu^2 J_2(t) + ...) X the grade-k monodromy
term F_k is the mu^k Taylor coefficient of X(T; mu).  By variation of
constants X = X0 Y, with X0(t) = exp(J0 t), a polynomial since J0 is
nilpotent, Y_0 = I and

    Y_k(t) = integral from 0 to t of sum_j H_j(s) Y_{k-j}(s) ds,
    H_j = X0^-1 J_j X0,

so F_k = X0(T) Y_k(T).  On the union of a file's breakpoints every Y_k is
a polynomial per piece in the file's global t, computed here in decimal
arithmetic at 40 significant digits: the standard library's C decimal
took 0.4 us per multiply-add on a 2-core Xeon host, mpmath's pure-Python
floats 3.3 us, too slow for the 4x4 models.  tr F_k is ``analyze``'s
``trace_by_order[k]`` and F0 + F_1 + ... + F_K its order-K ``F_approx``,
so this checks the model-file path (standard form, recursion, table and
assembly) against nothing the program computed itself.  Models whose pieces break closer than the
merging distance, or carry short pieces of large magnitude, are left out:
their cancellation is a property of the global time variable.
"""

import decimal
import functools
import itertools
import json
from decimal import Decimal

import numpy as np
import pytest

from floquet_avg import averaging, cli
from test_cli import _graded_piece
from test_model_files import MODELS

ORDERS = range(1, averaging.MAX_ORDER + 1)
PRECISION = 40


def unequal_degree_model():
    # the model of test_cli's unequal-degree pin: pieces of degrees 5 / 0 and 0 / 4
    return {"name": "custom", "period": 2.0, "J0": [[0.0, 1.0], [0.0, 0.0]], "terms": [
        {"order": 1, "pieces": [_graded_piece(0.0, 1.0, 5, 1.0), _graded_piece(1.0, 2.0, 0, -1.0)]},
        {"order": 2, "pieces": [_graded_piece(0.0, 1.0, 0, 0.5), _graded_piece(1.0, 2.0, 4, 0.5)]},
    ]}


def random_model(seed):
    """A seeded n x n model, n = 2..4: J0 strictly upper triangular, terms of
    orders 1 and 2 on their own breakpoints, pieces of degrees 0 to 2 whose
    coefficient of t^m is of size 0.3 / T^m."""
    rng = np.random.default_rng(seed)
    n = 2 + seed % 3
    period = float(rng.uniform(2.0, 6.5))
    j0 = np.triu(rng.uniform(-0.8, 0.8, (n, n)), 1)
    terms = []
    for order in (1, 2):
        inner = np.sort(rng.choice(np.arange(1, 20), int(rng.integers(0, 3)), replace=False))
        breaks = [0.0] + [period * k / 20 for k in inner] + [period]
        pieces = []
        for t0, t1 in zip(breaks[:-1], breaks[1:]):
            degree = int(rng.integers(0, 3))
            scale = 0.6 / period ** np.arange(degree + 1)
            entries = rng.uniform(-1.0, 1.0, (n, n, degree + 1)) * scale
            pieces.append({"t_start": t0, "t_end": t1, "entries": entries.tolist()})
        terms.append({"order": order, "pieces": pieces})
    return {"name": "custom", "period": period, "J0": j0.tolist(), "terms": terms}


REFERENCE_MODELS = (
    {name: MODELS[name] for name in ("coupled", "linear", "many-piece", "late-break")}
    | {"unequal-degree": unequal_degree_model}
    | {f"random-{seed}": functools.partial(random_model, seed) for seed in range(8)})

# the largest |trace_by_order[k] - reference| and largest entry of
# |F_approx - reference| at order k over the models, k = 1..6, each relative
# to its model's scale, max(1, largest |entry| of the order-6 F_approx):
# about 2.5 times the largest measured (trace 2.5e-16 / 2.5e-15 / 1.7e-14 /
# 1.3e-13 / 3.6e-13 / 9.0e-13, F 5.5e-15 / 2.2e-14 / 9.4e-14 / 5.0e-13 /
# 4.9e-13 / 1.6e-12)
TRACE_BOUND = (6e-16, 6e-15, 4.5e-14, 3.2e-13, 9e-13, 2.3e-12)
F_BOUND = (1.4e-14, 5.5e-14, 2.4e-13, 1.3e-12, 1.3e-12, 4e-12)


# -- matrix polynomials in global t: (n, n, d+1) object arrays of Decimal ----

def _zeros(n, width):
    return np.full((n, n, width), Decimal(0), dtype=object)


def _poly(entries):
    """A file piece's ``entries`` as a matrix polynomial, floats converted exactly."""
    out = _zeros(len(entries), max(len(e) for row in entries for e in row))
    for i, row in enumerate(entries):
        for j, e in enumerate(row):
            out[i, j, : len(e)] = [Decimal(v) for v in e]
    return out


def _add(x, y):
    if x.shape[2] < y.shape[2]:
        x, y = y, x
    out = x.copy()
    out[:, :, : y.shape[2]] += y
    return out


def _mul(x, y):
    """x(t) @ y(t)."""
    out = _zeros(x.shape[0], x.shape[2] + y.shape[2] - 1)
    stacked = y.transpose(2, 0, 1)
    for s in range(x.shape[2]):
        out[:, :, s:s + y.shape[2]] += np.matmul(x[:, :, s], stacked).transpose(1, 2, 0)
    return out


def _at(x, t):
    """x(t), an (n, n) object array."""
    acc = x[:, :, -1].copy()
    for k in range(x.shape[2] - 2, -1, -1):
        acc = acc * t + x[:, :, k]
    return acc


def _integral(x, a, start):
    """The antiderivative of x equal to ``start`` at t = a."""
    out = _zeros(x.shape[0], x.shape[2] + 1)
    out[:, :, 1:] = x / np.array([Decimal(k) for k in range(1, x.shape[2] + 1)], dtype=object)
    out[:, :, 0] = start - _at(out, a)
    return out


def _exp_j0(j0, sign):
    """exp(sign J0 t), the sum of (sign J0)^m t^m / m! up to J0's last nonzero power."""
    powers = [_zeros(len(j0), 1)[..., 0] + np.identity(len(j0), dtype=int)]
    while True:
        power = powers[-1] @ j0 * sign / len(powers)
        if not any(power.flat):
            return np.stack(powers, axis=-1)
        powers.append(power)


def reference_terms(model, top=averaging.MAX_ORDER):
    """[F_0, F_1, ..., F_top] of a model file's dict, (n, n) object arrays of Decimal."""
    with decimal.localcontext(prec=PRECISION):
        j0 = np.array([[Decimal(v) for v in row] for row in model["J0"]], dtype=object)
        n, period = len(j0), Decimal(model["period"])
        x0, x0_inv = _exp_j0(j0, 1), _exp_j0(j0, -1)
        terms = {term["order"]: term["pieces"] for term in model["terms"]}
        breaks = sorted({p[key] for pieces in terms.values() for p in pieces
                         for key in ("t_start", "t_end")})
        # per interval of the union, H_j of each term order j
        h = []
        for a, b in zip(breaks[:-1], breaks[1:]):
            h.append({j: _mul(_mul(x0_inv, _poly(p["entries"])), x0)
                      for j, pieces in terms.items() for p in pieces
                      if p["t_start"] <= 0.5 * (a + b) < p["t_end"]})
        y = [[x0[:, :, :1]] * len(h)]  # Y_0 = I on every interval
        for k in range(1, top + 1):
            pieces, value = [], _zeros(n, 1)[..., 0]  # Y_k on each interval; Y_k(0) = 0
            for p, (a, b) in enumerate(zip(breaks[:-1], breaks[1:])):
                integrand = functools.reduce(_add, [_mul(hj, y[k - j][p])
                                                    for j, hj in h[p].items() if j <= k])
                pieces.append(_integral(integrand, Decimal(a), value))
                value = _at(pieces[-1], Decimal(b))
            y.append(pieces)
        x0_end = _at(x0, period)
        return [x0_end @ _at(y_k[-1], period) for y_k in y]


def _reference(name):
    """The model's dict, its scale and its reference tr F_k and partial sums
    F0 + F_1 + ... + F_K, k and K = 0..6, as floats."""
    model = REFERENCE_MODELS[name]()
    terms = reference_terms(model)
    with decimal.localcontext(prec=PRECISION):
        traces = [float(sum(np.diagonal(f))) for f in terms]
        partial = [np.array(f, dtype=float) for f in itertools.accumulate(terms)]
    return model, max(1.0, float(np.abs(partial[-1]).max())), traces, partial


@pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
def test_model_file_analyze_matches_the_40_digit_reference(tmp_path, capsys, name):
    model, scale, traces, partial = _reference(name)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    for order in ORDERS:
        assert cli.main(["analyze", "--model-file", str(path), "--order", str(order)]) == 0
        doc = json.loads(capsys.readouterr().out)
        for k in range(1, order + 1):
            error = abs(doc["trace_by_order"][k] - traces[k]) / scale
            assert error <= TRACE_BOUND[k - 1], (order, k)
        error = np.abs(np.array(doc["F_approx"]) - partial[order]).max() / scale
        assert error <= F_BOUND[order - 1], order

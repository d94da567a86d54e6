"""Exact calculus on piecewise-polynomial matrix functions of time.

A T-periodic matrix function is stored as breakpoints 0 = t0 < ... < tm = T,
the degree of each piece, and one (m, n, n, d+1) array of polynomial
coefficients in the *global* time variable (ascending degree), every piece
zero-padded to the top degree d.  Using the global variable keeps
refinement trivial (a piece restricted to a sub-interval reuses the same
coefficients) and makes antiderivative constants a running-sum fixup.

The arithmetic is kernels on bare (coeffs, degrees) arrays over one set of
intervals, each run once on the whole arrays.  A product adds each
coefficient's terms in one order fixed by that coefficient alone, so zero
padding adds only exact zeros and no piece's result depends on the degrees
of the others.  _on_union runs a kernel on two functions held as (coeffs,
degrees, breakpoints) over their breakpoints' union, for the pp_* wrappers.
The averaging recursion takes many at once: _products multiplies the
pairs whose unions share breakpoints as one stack, and _ordered_sum adds a
sequence of terms in one reduce, each bitwise what _on_union one pair at a
time gives.  An antiderivative's join, the Horner pass that sets its
constants, also gives its value at the period, from which pp_average and
the recursion take it.  All of it is closed-form.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NumericRangeError

DEGREE_CAP = 64

# breakpoints (and periods) closer than this, relative to the period, are one
_BREAK_MERGE_REL = 1e-12


@dataclass(frozen=True)
class PiecewisePolyMatrix:
    """Piecewise-polynomial n x n matrix function on [0, T].

    Attributes
    ----------
    period : float
        The period T.
    breakpoints : np.ndarray
        Strictly increasing, shape (m+1,), first 0, last T.
    coeffs : np.ndarray
        Ascending powers of global t, shape (m, n, n, d+1), every piece
        padded to the top degree d.  Right-continuous at interior breakpoints.
    degrees : tuple of int, optional
        The degree of each piece, d for all by default; coefficients above
        it must be zero, and d is cut to the largest.
    """

    period: float
    breakpoints: np.ndarray
    coeffs: np.ndarray
    degrees: tuple = None

    def __post_init__(self):
        bp = _checked_breakpoints(self.period, self.breakpoints)
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 4 or c.shape[0] != bp.size - 1 or c.shape[1] != c.shape[2] or c.shape[3] == 0:
            raise ModelError("coefficients must be (m, n, n, d+1), with one piece per interval")
        deg = (c.shape[-1] - 1,) * (bp.size - 1) if self.degrees is None \
            else tuple(map(int, self.degrees))
        if len(deg) != bp.size - 1 or min(deg) < 0 or max(deg) >= c.shape[-1]:
            raise ModelError("degrees must give each piece a degree within its coefficients")
        top = max(deg)
        if top > DEGREE_CAP:
            raise ModelError(f"polynomial degree {top} exceeds cap {DEGREE_CAP}")
        if top + 1 < c.shape[-1]:
            c = c[..., : top + 1]
        if not np.isfinite(c).all():
            raise ModelError("piece coefficients must be finite")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "degrees", deg)

    @classmethod
    def from_blocks(cls, period: float, breakpoints, blocks) -> "PiecewisePolyMatrix":
        """One function from per-piece (n, n, d_k+1) coefficient blocks,
        checked in piece order, then padded."""
        bp = _checked_breakpoints(period, breakpoints)
        blocks = [np.asarray(p, dtype=float) for p in blocks]
        if len(blocks) != bp.size - 1:
            raise ModelError("number of pieces must match interval count")
        for p in blocks:
            if (p.ndim != 3 or p.shape[:-1] != blocks[0].shape[:-1] or p.shape[0] != p.shape[1]
                    or p.shape[2] == 0):
                raise ModelError("all pieces must be (n, n, d+1), with one common n")
            if p.shape[-1] - 1 > DEGREE_CAP:
                raise ModelError(f"polynomial degree {p.shape[-1] - 1} exceeds cap {DEGREE_CAP}")
            if not np.isfinite(p).all():
                raise ModelError("piece coefficients must be finite")
        degrees = tuple(p.shape[-1] - 1 for p in blocks)
        coeffs = np.zeros((len(blocks),) + blocks[0].shape[:-1] + (max(degrees) + 1,))
        for k, p in enumerate(blocks):
            coeffs[k, :, :, : p.shape[-1]] = p
        return cls(period, bp, coeffs, degrees)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[-2]

    @property
    def max_degree(self) -> int:
        return self.coeffs.shape[-1] - 1

    @classmethod
    def constant(cls, m, period: float) -> "PiecewisePolyMatrix":
        """Degree-0 function equal to the matrix ``m`` on [0, T]."""
        return cls(period, np.array([0.0, period]), np.array(m, dtype=float)[None, :, :, None])

    @classmethod
    def zero(cls, dim: int, period: float) -> "PiecewisePolyMatrix":
        return cls.constant(np.zeros((dim, dim)), period)


def _checked_breakpoints(period: float, breakpoints) -> np.ndarray:
    if not (np.isfinite(period) and period > 0):
        raise ModelError("period must be positive and finite")
    bp = np.asarray(breakpoints, dtype=float)
    if bp.ndim != 1 or bp.size < 2:
        raise ModelError("need at least two breakpoints")
    if not np.isfinite(bp).all():
        raise ModelError("breakpoints must be finite")
    if abs(bp[0]) > _BREAK_MERGE_REL * period:
        raise ModelError("first breakpoint must be 0")
    if abs(bp[-1] - period) > _BREAK_MERGE_REL * period:
        raise ModelError("last breakpoint must equal the period")
    if not (bp[1:] > bp[:-1]).all():
        raise ModelError("breakpoints must be strictly increasing")
    return bp


def _check_compatible(a: PiecewisePolyMatrix, b: PiecewisePolyMatrix):
    if a.dim != b.dim:
        raise ModelError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if abs(a.period - b.period) > _BREAK_MERGE_REL * max(a.period, b.period):
        raise ModelError(f"period mismatch: {a.period} vs {b.period}")


def _union_breakpoints(period: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    tol = _BREAK_MERGE_REL * period
    for p, q in ((x, y), (y, x)):
        # q adds no breakpoint to p (the common case): the merge below would return p itself
        if ((q.size == 2 and q[0] == p[0] and q[-1] == p[-1]) or q is p or np.array_equal(p, q)) \
                and (p[1:] - p[:-1] > tol).all():
            return p
    merged = np.union1d(x, y)
    keep = [merged[0]]
    for t in merged[1:]:
        if t - keep[-1] > tol:
            keep.append(t)
    keep[-1] = x[-1]
    return np.asarray(keep)


def _piece_index(points: np.ndarray, m: int, breaks: np.ndarray) -> np.ndarray:
    """For each interval of ``breaks``, the piece of a function of ``m`` pieces
    on ``points`` that holds the interval's midpoint."""
    if m == 1:
        return np.zeros(len(breaks) - 1, dtype=np.intp)
    if points is breaks or np.array_equal(points, breaks):
        return np.arange(m)
    mids = 0.5 * (breaks[:-1] + breaks[1:])
    return np.clip(np.searchsorted(points, mids, side="right") - 1, 0, m - 1)


def _refined(f, breaks: np.ndarray):
    """``f = (coeffs, degrees, breakpoints)`` on the intervals of ``breaks``, which
    refine its breakpoints (one piece broadcasts): ``(coeffs, degrees)``."""
    coeffs, degrees, points = f
    m = len(degrees)
    if m == 1 or points is breaks or np.array_equal(points, breaks):
        return coeffs, degrees
    idx = _piece_index(points, m, breaks)
    return coeffs[idx], tuple(degrees[i] for i in idx.tolist())


def _checked(coeffs: np.ndarray, degrees: tuple, *rest):
    """An operation's result, checked as the constructor would, and returned
    with ``rest``: a non-finite coefficient left the float range, which comes
    before the degree cap."""
    if not np.isfinite(coeffs).all():
        raise NumericRangeError("piecewise-polynomial coefficients leave the float range")
    if max(degrees) > DEGREE_CAP:
        raise ModelError(f"polynomial degree {max(degrees)} exceeds cap {DEGREE_CAP}")
    return (coeffs, degrees, *rest)


def _derived(period: float, coeffs: np.ndarray, degrees: tuple,
             breaks: np.ndarray) -> PiecewisePolyMatrix:
    """An operation's result as a function, checked once, by the constructor;
    a failure is named as :func:`_checked` names it."""
    try:
        return PiecewisePolyMatrix(period, breaks, coeffs, degrees)
    except ModelError:
        _checked(coeffs, degrees)
        raise


def _poly_matmul(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Coefficients of the matrix-polynomial product pa(t) @ pb(t).

    A broadcast multiply-accumulate over the degree axis, looping over the
    contracted index and the powers of the shorter factor.  Every output
    coefficient adds its products in one order, the contracted index
    outermost and then pa's power ascending, so a zero-padded coefficient
    adds only exact zeros and padding changes no bit.
    """
    n, da, db = pa.shape[-2], pa.shape[-1], pb.shape[-1]
    lead = np.broadcast_shapes(pa.shape[:-3], pb.shape[:-3])
    out = np.zeros(lead + (n, n, da + db - 1))
    for k in range(n):
        if da <= db:
            for s in range(da):
                out[..., s:s + db] += pa[..., :, k, s, None, None] * pb[..., None, k, :, :]
        else:
            for s in reversed(range(db)):  # pb's power descending: pa's ascending
                out[..., s:s + da] += pa[..., :, k, None, :] * pb[..., None, k, :, s, None]
    return out


def _pad_add(x: np.ndarray, y: np.ndarray, sign: float) -> np.ndarray:
    d = max(x.shape[-1], y.shape[-1])
    out = np.zeros(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]) + (d,))
    out[..., : x.shape[-1]] = x
    out[..., : y.shape[-1]] += sign * y
    return out


def _paired(da: tuple, db: tuple, out_degree) -> tuple:
    """The result's degree on each interval; a single piece stands for every interval."""
    m = max(len(da), len(db))
    return tuple(map(out_degree, da * (m // len(da)), db * (m // len(db))))


def _product(pa, da, pb, db):
    """pa(t) @ pb(t) on one set of intervals: ``(coeffs, degrees)``, capped per piece."""
    deg = _paired(da, db, operator.add)
    for d in deg:
        if d > DEGREE_CAP:
            raise ModelError(f"product degree {d} exceeds cap {DEGREE_CAP}")
    return _poly_matmul(pa, pb)[..., : max(deg) + 1], deg


def _sum(pa, da, pb, db, sign):
    """pa(t) + sign pb(t) on one set of intervals: ``(coeffs, degrees)``."""
    deg = _paired(da, db, max)
    return _pad_add(pa, pb, sign)[..., : max(deg) + 1], deg


def _on_union(period: float, x, y, kernel, *args):
    """``kernel`` on the pieces of the functions ``x`` and ``y``, each
    ``(coeffs, degrees, breakpoints)``, over their breakpoints' union: the
    result as such a function, unchecked."""
    breaks = _union_breakpoints(period, x[2], y[2])
    return (*kernel(*_refined(x, breaks), *_refined(y, breaks), *args), breaks)


def _products(period: float, pairs):
    """x(t) @ y(t) for each pair of functions ``(x, y)``, each held as
    ``(coeffs, degrees, breakpoints)``, over their breakpoints' union: a list
    of such functions, each bitwise what ``_on_union(period, x, y, _product)``
    gives, or None when a product passes the degree cap or leaves the float
    range.

    The pairs whose unions are the same breakpoints multiply as one stack in
    one :func:`_poly_matmul`, their factors zero-padded to the stack's widest,
    which changes no bit; each product keeps the width of its own degrees.
    """
    groups, slots = {}, []
    for x, y in pairs:
        breaks = _union_breakpoints(period, x[2], y[2])
        (cx, dx), (cy, dy) = _refined(x, breaks), _refined(y, breaks)
        degrees = _paired(dx, dy, operator.add)
        if max(degrees) > DEGREE_CAP:
            return None
        key = breaks.tobytes()
        members = groups.setdefault(key, (breaks, []))[1]
        slots.append((key, len(members)))
        members.append((cx, cy, degrees))
    made = {}
    for key, (breaks, members) in groups.items():
        if len(members) == 1:
            out = _poly_matmul(*members[0][:2])[None]
        else:
            shape = (len(members), len(breaks) - 1) + members[0][0].shape[1:-1]
            pa = np.zeros(shape + (max(cx.shape[-1] for cx, _, _ in members),))
            pb = np.zeros(shape + (max(cy.shape[-1] for _, cy, _ in members),))
            for g, (cx, cy, _) in enumerate(members):
                pa[g, ..., : cx.shape[-1]] = cx
                pb[g, ..., : cy.shape[-1]] = cy
            out = _poly_matmul(pa, pb)
        if not np.isfinite(out).all():
            return None
        made[key] = [(out[g, ..., : max(degrees) + 1], degrees, breaks)
                     for g, (_, _, degrees) in enumerate(members)]
    return [made[key][g] for key, g in slots]


def _ordered_sum(period: float, first, terms):
    """first + s_1 f_1 + s_2 f_2 + ... for ``terms`` of signs and functions,
    each function held as ``(coeffs, degrees, breakpoints)``: such a function,
    bitwise what adding the terms one at a time with ``_on_union(period, ...,
    _sum, s_k)`` gives, or None when the sum leaves the float range or a
    piece of a partial sum would be dropped by a later merge.

    The breakpoints merge one term at a time, as that loop merges them, and
    each term's pieces are traced through every merge onto the last one.
    Every term then lands in one row of a stack and one ``np.add.reduce``
    over it adds each coefficient's terms in their order.  A term pads its
    missing top coefficients with -0.0, the identity of addition, where the
    loop adds nothing; the first pads with 0.0, where the loop starts.
    """
    if not terms:
        return first
    breaks, index = first[2], [np.arange(len(first[1]))]
    for _, (_, degrees, points) in terms:
        merged = _union_breakpoints(period, breaks, points)
        if merged is not breaks:
            back = _piece_index(breaks, len(breaks) - 1, merged)
            # a piece of the partial sum that the merge drops: only the loop checks its range
            if back[0] != 0 or back[-1] != len(breaks) - 2 or (np.diff(back) > 1).any():
                return None
            index = [i[back] for i in index]
            breaks = merged
        index.append(_piece_index(points, len(degrees), breaks))
    rows = [(1.0, first)] + list(terms)
    width = max(f[0].shape[-1] for _, f in rows)
    stack = np.full((len(rows), len(breaks) - 1) + first[0].shape[1:-1] + (width,), -0.0)
    stack[0] = 0.0
    stack[0, ..., : first[0].shape[-1]] = first[0][index[0]]
    for row, idx, (sign, (coeffs, _, _)) in zip(stack[1:], index[1:], terms):
        row[..., : coeffs.shape[-1]] = sign * coeffs[idx]
    pieces = zip(*(map(f[1].__getitem__, idx.tolist()) for idx, (_, f) in zip(index, rows)))
    degrees = tuple(map(max, pieces))
    # -0.0, not the default 0.0, starts the reduce, so the first row is added exactly
    total = np.add.reduce(stack, axis=0, initial=-0.0)[..., : max(degrees) + 1]
    return (total, degrees, breaks) if np.isfinite(total).all() else None


def _combine(a: PiecewisePolyMatrix, b: PiecewisePolyMatrix, kernel, *args):
    _check_compatible(a, b)
    return _derived(a.period, *_on_union(a.period, (a.coeffs, a.degrees, a.breakpoints),
                                         (b.coeffs, b.degrees, b.breakpoints), kernel, *args))


def pp_mul(a: PiecewisePolyMatrix, b: PiecewisePolyMatrix) -> PiecewisePolyMatrix:
    """Pointwise matrix product a(t) @ b(t) as a piecewise polynomial."""
    return _combine(a, b, _product)


def pp_add(a: PiecewisePolyMatrix, b: PiecewisePolyMatrix) -> PiecewisePolyMatrix:
    return _combine(a, b, _sum, 1.0)


def pp_sub(a: PiecewisePolyMatrix, b: PiecewisePolyMatrix) -> PiecewisePolyMatrix:
    return _combine(a, b, _sum, -1.0)


def _eval_block(piece: np.ndarray, t: float) -> np.ndarray:
    """Horner evaluation of (..., n, n, d+1) coefficients at (broadcast) time t."""
    acc = piece[..., -1].copy()
    for k in range(piece.shape[-1] - 2, -1, -1):
        acc = acc * t + piece[..., k]
    return acc


def _piece_at(breaks: np.ndarray, t: float) -> int:
    """The piece that holds t, the first or the last one for a t beyond the ends."""
    return min(max(int(np.searchsorted(breaks, t, side="right")) - 1, 0), len(breaks) - 2)


def _value(period: float, coeffs: np.ndarray, degrees: tuple, breaks: np.ndarray, t: float):
    """The value at t of the function of pieces ``coeffs`` on ``breaks``."""
    _check_time(period, t)
    idx = _piece_at(breaks, t)
    return _finite_value(_eval_block(coeffs[idx, ..., : degrees[idx] + 1], t), t)


def _check_time(period: float, t: float):
    if not (0.0 <= t <= period):
        raise NumericRangeError(f"t = {t:g} outside [0, {period:g}]")


def _finite_value(value: np.ndarray, t: float) -> np.ndarray:
    if not np.isfinite(value).all():
        raise NumericRangeError(f"the value at t = {t:g} leaves the float range")
    return value


def _end_value(period: float, value: np.ndarray, t: float) -> np.ndarray:
    """``value``, a function's value at t from its join, checked as :func:`_value` checks it."""
    _check_time(period, t)
    return _finite_value(value, t)


def pp_eval(a: PiecewisePolyMatrix, t: float) -> np.ndarray:
    """Value a(t), (n, n), for 0 <= t <= T, right-continuous at interior breakpoints."""
    return _value(a.period, a.coeffs, a.degrees, a.breakpoints, t)


def _antiderivative(coeffs: np.ndarray, degrees: tuple, breaks: np.ndarray, end: float):
    """The antiderivative w from 0 of the function of pieces ``coeffs``:
    ``(w, w(end), partial)``, w as ``(coeffs, degrees, breaks)``, its value
    at ``end`` from :func:`_joined`, and ``partial`` that join's times and
    Horner partial, which w's ramp-shifted copies (:func:`_minus_ramp`) share."""
    d = coeffs.shape[-1]
    anti = np.zeros(coeffs.shape[:-1] + (d + 1,))
    anti[..., 1:] = coeffs / np.arange(1, d + 1)
    # Horner from the top coefficient down to degree 2, the part no ramp changes
    times = _end_times(breaks, end)
    partial = times, (_eval_block(anti[..., 2:], times) if d > 1 else None)
    return (*_joined(anti, tuple(k + 1 for k in degrees), breaks, end, partial), partial)


def pp_antiderivative(a: PiecewisePolyMatrix) -> PiecewisePolyMatrix:
    """t -> integral of a from 0 to t, continuous across breakpoints."""
    return _derived(a.period, *_antiderivative(a.coeffs, a.degrees, a.breakpoints.copy(),
                                               a.period)[0])


def _minus_ramp(w, slope, end: float, partial):
    """w(t) - slope t for the antiderivative ``w = (coeffs, degrees, breaks)``
    from 0, with ``end`` and ``partial`` as :func:`_antiderivative` gave them:
    ``(w - slope t, its value at end)``.  Each linear coefficient drops by
    the slope and the constants are set afresh."""
    coeffs, degrees, breaks = w
    anti = coeffs.copy()
    anti[..., 1] -= slope
    anti[..., 0] = 0.0
    return _joined(anti, degrees, breaks, end, partial)


def _end_times(breaks: np.ndarray, end: float) -> np.ndarray:
    """Both ends of every piece, the last piece's right end moved to ``end``:
    (2, m, 1, 1), the times :func:`_joined` evaluates at."""
    right = breaks[1:].copy()
    right[-1] = end
    return np.array((breaks[:-1], right))[..., None, None]


def _joined(anti: np.ndarray, degrees: tuple, breaks: np.ndarray, end: float, partial):
    """``anti`` with its zero constant terms set in place, so that it is 0 at
    t = 0 and continuous: ``((anti, degrees, breaks), its value at end)``.

    One Horner pass evaluates every piece at both of its ends before the
    constants are set, finishing ``partial = (times, upper)``: the times
    :func:`_end_times` gives and the pass's partial over the coefficients
    of degree 2 and up (None for degree 1).  The running total at the last
    piece's right end, ``end``, is then the value there, bitwise what
    Horner on the piece with its constant gives.
    """
    times, upper = partial
    acc = anti[..., 1] if upper is None else upper * times + anti[..., 1]
    at_lo, at_hi = acc * times + anti[..., 0]
    consts = np.empty_like(at_lo)
    running = 0.0  # cumulative integral at the left breakpoint
    for k in range(len(consts)):
        # a loop, not a cumsum of at_hi - at_lo, which would round differently
        const = consts[k] = running - at_lo[k]
        running = at_hi[k] + const
    anti[..., 0] = consts
    if breaks[-2] > end:  # a last piece beyond the end: the value on the piece holding it
        idx = _piece_at(breaks, end)
        running = _eval_block(anti[idx, ..., : degrees[idx] + 1], end)
    return (anti, degrees, breaks), running


def pp_average(a: PiecewisePolyMatrix) -> np.ndarray:
    """(1/T) * integral of a over one period, from exact antiderivatives."""
    w, total, _ = _antiderivative(a.coeffs, a.degrees, a.breakpoints, a.period)
    _checked(*w)
    return _end_value(a.period, total, a.period) / a.period

"""Exact calculus on piecewise-polynomial matrix functions of time.

A T-periodic matrix function is stored as breakpoints 0 = t0 < ... < tm = T
and one (m, n, n, d+1) array of polynomial coefficients in the *global*
time variable (ascending degree), one degree d for every piece, a piece of
lower degree zero-padded to it (de Boor's pp-form).  Using the global
variable keeps refinement trivial (a piece restricted to a sub-interval
reuses the same coefficients) and makes antiderivative constants a
running-sum fixup.

The arithmetic is kernels on bare coefficient arrays over one set of
intervals, each run once on the whole arrays, a one-piece operand
broadcasting against the pieces of the other.  A product adds each
coefficient's terms in one order fixed by that coefficient alone, so zero
padding adds only exact zeros and no piece's result depends on the degree
of another.  The degree cap reads the coefficients: an array past it is
cut to its highest column that is non-zero on some piece, and only a
non-zero coefficient past the cap fails.  Breakpoints never merge, however
close: _on_union runs a kernel on two functions held as (coeffs,
breakpoints) over the exact union of their breakpoints, for the pp_*
wrappers, and the averaging recursion refines its terms onto one such
union once and runs every kernel on it.  An antiderivative's join, the
Horner pass that sets its constants, also gives its value at the period,
from which pp_average and the recursion take it.  All of it is
closed-form.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NumericRangeError

DEGREE_CAP = 64

# two periods, or an end breakpoint and 0 or the period, that differ by no
# more than this relative to the period count as equal
_PERIOD_END_TOL = 1e-12


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
        Ascending powers of global t, shape (m, n, n, d+1), one degree d at
        most :data:`DEGREE_CAP` for every piece, a piece of lower degree
        zero-padded to it.  Right-continuous at interior breakpoints.
    """

    period: float
    breakpoints: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        bp = _checked_breakpoints(self.period, self.breakpoints)
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 4 or c.shape[0] != bp.size - 1 or c.shape[1] != c.shape[2] or c.shape[3] == 0:
            raise ModelError("coefficients must be (m, n, n, d+1), with one piece per interval")
        if c.shape[-1] - 1 > DEGREE_CAP:
            raise ModelError(f"polynomial degree {c.shape[-1] - 1} exceeds cap {DEGREE_CAP}")
        if not np.isfinite(c).all():
            raise ModelError("piece coefficients must be finite")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_blocks(cls, period: float, breakpoints, blocks) -> "PiecewisePolyMatrix":
        """One function from per-piece (n, n, d_k+1) coefficient blocks,
        their shapes checked in piece order, padded to the top degree; the
        constructor then checks the degree cap and finiteness."""
        bp = _checked_breakpoints(period, breakpoints)
        blocks = [np.asarray(p, dtype=float) for p in blocks]
        if len(blocks) != bp.size - 1:
            raise ModelError("number of pieces must match interval count")
        for p in blocks:
            if (p.ndim != 3 or p.shape[:-1] != blocks[0].shape[:-1] or p.shape[0] != p.shape[1]
                    or p.shape[2] == 0):
                raise ModelError("all pieces must be (n, n, d+1), with one common n")
        coeffs = np.zeros((len(blocks),) + blocks[0].shape[:-1]
                          + (max(p.shape[-1] for p in blocks),))
        for k, p in enumerate(blocks):
            coeffs[k, :, :, : p.shape[-1]] = p
        return cls(period, bp, coeffs)

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
    if abs(bp[0]) > _PERIOD_END_TOL * period:
        raise ModelError("first breakpoint must be 0")
    if abs(bp[-1] - period) > _PERIOD_END_TOL * period:
        raise ModelError("last breakpoint must equal the period")
    if not (bp[1:] > bp[:-1]).all():
        raise ModelError("breakpoints must be strictly increasing")
    return bp


def _check_compatible(a: PiecewisePolyMatrix, b: PiecewisePolyMatrix):
    if a.dim != b.dim:
        raise ModelError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if abs(a.period - b.period) > _PERIOD_END_TOL * max(a.period, b.period):
        raise ModelError(f"period mismatch: {a.period} vs {b.period}")


def _union_breakpoints(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Every breakpoint of ``x`` and ``y``, however close, between ``x``'s
    own ends: the ends of ``y`` may differ from those only within
    :data:`_PERIOD_END_TOL`, and are dropped."""
    if y.size == 2 or np.array_equal(x, y):
        return x
    if x.size == 2 and x[0] == y[0] and x[-1] == y[-1]:
        return y
    # a sort and a drop of repeats, which np.union1d is, without the
    # numpy.ma import np.unique makes on its first call
    inner = np.sort(np.concatenate((x[1:-1], y[1:-1])))
    inner = inner[np.append(True, inner[1:] != inner[:-1])]
    return np.concatenate((x[:1], inner[(inner > x[0]) & (inner < x[-1])], x[-1:]))


def _refined(f, breaks: np.ndarray) -> np.ndarray:
    """The coefficients of ``f = (coeffs, breakpoints)`` on the intervals of
    ``breaks``, which refine its breakpoints (one piece broadcasts).  Each
    interval takes the piece in force at its left end."""
    coeffs, points = f
    if len(coeffs) == 1 or np.array_equal(points, breaks):
        return coeffs
    return coeffs[np.clip(np.searchsorted(points, breaks[:-1], side="right") - 1,
                          0, len(coeffs) - 1)]


def _capped(coeffs: np.ndarray, what: str) -> np.ndarray:
    """``coeffs`` within the degree cap: an array past it is cut to its
    highest column that is non-zero on some piece, the degree of its
    highest piece, and fails only if that column is still past the cap."""
    if coeffs.shape[-1] - 1 <= DEGREE_CAP:
        return coeffs
    nonzero = np.flatnonzero(coeffs.reshape(-1, coeffs.shape[-1]).any(axis=0))
    degree = int(nonzero[-1]) if nonzero.size else 0
    if degree > DEGREE_CAP:
        raise ModelError(f"{what} degree {degree} exceeds cap {DEGREE_CAP}")
    return coeffs[..., : degree + 1]


def _checked(coeffs: np.ndarray) -> np.ndarray:
    """An operation's result, checked as the constructor would: a non-finite
    coefficient left the float range, which comes before the degree cap."""
    if not np.isfinite(coeffs).all():
        raise NumericRangeError("piecewise-polynomial coefficients leave the float range")
    return _capped(coeffs, "polynomial")


def _derived(period: float, coeffs: np.ndarray, breaks: np.ndarray) -> PiecewisePolyMatrix:
    """An operation's result as a function, checked by :func:`_checked`."""
    return PiecewisePolyMatrix(period, breaks, _checked(coeffs))


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


def _product(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """pa(t) @ pb(t) on one set of intervals, within the degree cap."""
    return _capped(_poly_matmul(pa, pb), "product")


def _sum(pa: np.ndarray, pb: np.ndarray, sign: float) -> np.ndarray:
    """pa(t) + sign pb(t) on one set of intervals, at the higher degree of the two."""
    out = np.zeros(np.broadcast_shapes(pa.shape[:-1], pb.shape[:-1])
                   + (max(pa.shape[-1], pb.shape[-1]),))
    out[..., : pa.shape[-1]] = pa
    out[..., : pb.shape[-1]] += sign * pb
    return out


def _on_union(x, y, kernel, *args):
    """``kernel`` on the pieces of the functions ``x`` and ``y``, each
    ``(coeffs, breakpoints)``, over the exact union of their breakpoints:
    the result as such a function, unchecked."""
    breaks = _union_breakpoints(x[1], y[1])
    return kernel(_refined(x, breaks), _refined(y, breaks), *args), breaks


def _combine(a: PiecewisePolyMatrix, b: PiecewisePolyMatrix, kernel, *args):
    _check_compatible(a, b)
    return _derived(a.period, *_on_union((a.coeffs, a.breakpoints), (b.coeffs, b.breakpoints),
                                         kernel, *args))


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


def _value(period: float, coeffs: np.ndarray, breaks: np.ndarray, t: float):
    """The value at t of the function of pieces ``coeffs`` on ``breaks``."""
    _check_time(period, t)
    return _finite_value(_eval_block(coeffs[_piece_at(breaks, t)], t), t)


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
    return _value(a.period, a.coeffs, a.breakpoints, t)


def _antiderivative(coeffs: np.ndarray, breaks: np.ndarray, end: float):
    """The antiderivative w from 0 of the function of pieces ``coeffs``:
    ``(w, w(end), partial)``, w as ``(coeffs, breaks)``, its value
    at ``end`` from :func:`_joined`, and ``partial`` that join's times and
    Horner partial, which w's ramp-shifted copies (:func:`_minus_ramp`) share."""
    d = coeffs.shape[-1]
    anti = np.zeros(coeffs.shape[:-1] + (d + 1,))
    anti[..., 1:] = coeffs / np.arange(1, d + 1)
    # Horner from the top coefficient down to degree 2, the part no ramp changes
    times = _end_times(breaks, end)
    partial = times, (_eval_block(anti[..., 2:], times) if d > 1 else None)
    return (*_joined(anti, breaks, end, partial), partial)


def pp_antiderivative(a: PiecewisePolyMatrix) -> PiecewisePolyMatrix:
    """t -> integral of a from 0 to t, continuous across breakpoints."""
    return _derived(a.period, *_antiderivative(a.coeffs, a.breakpoints.copy(), a.period)[0])


def _minus_ramp(w, slope, end: float, partial):
    """w(t) - slope t for the antiderivative ``w = (coeffs, breaks)``
    from 0, with ``end`` and ``partial`` as :func:`_antiderivative` gave them:
    ``(w - slope t, its value at end)``.  Each linear coefficient drops by
    the slope and the constants are set afresh."""
    coeffs, breaks = w
    anti = coeffs.copy()
    anti[..., 1] -= slope
    anti[..., 0] = 0.0
    return _joined(anti, breaks, end, partial)


def _end_times(breaks: np.ndarray, end: float) -> np.ndarray:
    """Both ends of every piece, the last piece's right end moved to ``end``:
    (2, m, 1, 1), the times :func:`_joined` evaluates at."""
    right = breaks[1:].copy()
    right[-1] = end
    return np.array((breaks[:-1], right))[..., None, None]


def _joined(anti: np.ndarray, breaks: np.ndarray, end: float, partial):
    """``anti`` with its zero constant terms set in place, so that it is 0 at
    t = 0 and continuous: ``((anti, breaks), its value at end)``.

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
        running = _eval_block(anti[_piece_at(breaks, end)], end)
    return (anti, breaks), running


def pp_average(a: PiecewisePolyMatrix) -> np.ndarray:
    """(1/T) * integral of a over one period, from exact antiderivatives."""
    w, total, _ = _antiderivative(a.coeffs, a.breakpoints, a.period)
    _checked(w[0])
    return _end_value(a.period, total, a.period) / a.period

"""Exact calculus on piecewise-polynomial matrix functions of time.

A T-periodic matrix function is stored as breakpoints 0 = t0 < ... < tm = T
plus, per interval, an (n, n, d+1) array of polynomial coefficients in the
*global* time variable (ascending degree).  Using the global variable keeps
refinement trivial (a piece restricted to a sub-interval reuses the same
coefficients) and makes antiderivative constants a running-sum fixup.

A stack of K such functions over shared breakpoints -- one per cell of a
parameter grid -- carries a leading cell axis: each piece is then
(K, n, n, d+1), and a single function is the case without the axis.  Every
operation broadcasts over the cell axis (a single function combines with a
stack as if repeated K times) and computes each coefficient by the same
elementwise operations in the same order, so a cell's result does not
depend on the other cells of the batch.

Products, antiderivatives, averages and point evaluation are all closed-form
polynomial operations, so the averaging integrals downstream carry no
quadrature error.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NumericRangeError

DEGREE_CAP = 64

# breakpoints closer than this (relative to the period) are merged
_BREAK_MERGE_REL = 1e-12


@dataclass(frozen=True)
class PiecewisePolyMatrix:
    """Piecewise-polynomial n x n matrix function on [0, T], or a stack of K.

    Attributes
    ----------
    period : float
        The period T.
    breakpoints : np.ndarray
        Strictly increasing, shape (m+1,), first 0, last T.
    pieces : tuple of np.ndarray
        One coefficient block per interval, ascending powers of global t:
        (n, n, d_k+1) for one function, (K, n, n, d_k+1) for a stack of K.
        Right-continuous at interior breakpoints.
    """

    period: float
    breakpoints: np.ndarray
    pieces: tuple

    def __post_init__(self):
        if not (np.isfinite(self.period) and self.period > 0):
            raise ModelError("period must be positive and finite")
        bp = np.asarray(self.breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise ModelError("need at least two breakpoints")
        if not np.isfinite(bp).all():
            raise ModelError("breakpoints must be finite")
        if abs(bp[0]) > _BREAK_MERGE_REL * self.period:
            raise ModelError("first breakpoint must be 0")
        if abs(bp[-1] - self.period) > _BREAK_MERGE_REL * self.period:
            raise ModelError("last breakpoint must equal the period")
        if not (bp[1:] > bp[:-1]).all():
            raise ModelError("breakpoints must be strictly increasing")
        pieces = tuple(np.asarray(p, dtype=float) for p in self.pieces)
        if len(pieces) != bp.size - 1:
            raise ModelError("number of pieces must match interval count")
        shape = pieces[0].shape[:-1]
        for p in pieces:
            if (p.ndim not in (3, 4) or p.shape[:-1] != shape or p.shape[-3] != p.shape[-2]
                    or p.shape[-1] == 0):
                raise ModelError("all pieces must be (n, n, d+1), or (K, n, n, d+1) for a "
                                 "stack, with one common n and K")
            if p.shape[-1] - 1 > DEGREE_CAP:
                raise ModelError(f"polynomial degree {p.shape[-1] - 1} exceeds cap {DEGREE_CAP}")
            if not np.isfinite(p).all():
                raise ModelError("piece coefficients must be finite")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "pieces", pieces)

    @property
    def dim(self) -> int:
        return self.pieces[0].shape[-2]

    @property
    def cells(self):
        """K for a stack of K functions, None for a single function."""
        return self.pieces[0].shape[0] if self.pieces[0].ndim == 4 else None

    @property
    def max_degree(self) -> int:
        return max(p.shape[-1] - 1 for p in self.pieces)

    @classmethod
    def constant(cls, m, period: float) -> "PiecewisePolyMatrix":
        """Degree-0 function equal to the matrix ``m`` on [0, T]; a (K, n, n)
        ``m`` gives a stack of K constants."""
        m = np.asarray(m, dtype=float)
        return cls(period, np.array([0.0, period]), (m[..., None].copy(),))

    @classmethod
    def zero(cls, dim: int, period: float) -> "PiecewisePolyMatrix":
        return cls.constant(np.zeros((dim, dim)), period)

    def max_coeff(self):
        """Largest coefficient magnitude over all pieces (scaling reference);
        a (K,) array, one per cell, for a stack."""
        per_piece = [np.abs(p).max(axis=(-3, -2, -1), initial=0.0) for p in self.pieces]
        out = np.max(per_piece, axis=0)
        return float(out) if self.cells is None else out


def _check_compatible(a: PiecewisePolyMatrix, b: PiecewisePolyMatrix):
    if a.dim != b.dim:
        raise ModelError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if abs(a.period - b.period) > _BREAK_MERGE_REL * max(a.period, b.period):
        raise ModelError(f"period mismatch: {a.period} vs {b.period}")
    if None not in (a.cells, b.cells) and a.cells != b.cells:
        raise ModelError(f"cell count mismatch: {a.cells} vs {b.cells}")


def _union_breakpoints(a: PiecewisePolyMatrix, b: PiecewisePolyMatrix) -> np.ndarray:
    tol = _BREAK_MERGE_REL * a.period
    for x, y in ((a.breakpoints, b.breakpoints), (b.breakpoints, a.breakpoints)):
        # y adds no breakpoint to x (the common case in the recursion): the
        # merge below would return x itself
        if ((y.size == 2 and y[0] == x[0] and y[-1] == x[-1]) or np.array_equal(x, y)) \
                and (x[1:] - x[:-1] > tol).all():
            return x
    merged = np.union1d(a.breakpoints, b.breakpoints)
    keep = [merged[0]]
    for x in merged[1:]:
        if x - keep[-1] > tol:
            keep.append(x)
    keep[-1] = a.breakpoints[-1]
    return np.asarray(keep)


def _pieces_on(a: PiecewisePolyMatrix, breaks: np.ndarray):
    """The piece of ``a`` in force on each interval of ``breaks``."""
    if a.breakpoints is breaks:
        return a.pieces
    if len(a.pieces) == 1:
        return a.pieces * (breaks.size - 1)
    mids = 0.5 * (breaks[:-1] + breaks[1:])
    idx = np.searchsorted(a.breakpoints, mids, side="right") - 1
    return [a.pieces[min(max(i, 0), len(a.pieces) - 1)] for i in idx.tolist()]


def _combine(a: PiecewisePolyMatrix, b: PiecewisePolyMatrix, op) -> PiecewisePolyMatrix:
    """``op`` applied piece by piece over the union of the two breakpoint sets."""
    _check_compatible(a, b)
    breaks = _union_breakpoints(a, b)
    pieces = tuple(op(pa, pb) for pa, pb in zip(_pieces_on(a, breaks), _pieces_on(b, breaks)))
    return PiecewisePolyMatrix(a.period, breaks, pieces)


def _poly_matmul(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Coefficients of the matrix-polynomial product pa(t) @ pb(t).

    A broadcast multiply-accumulate over the degree axis: the loop runs
    over the contracted index and the degrees of the shorter factor, so
    every output coefficient sums its products in an order fixed by the
    shapes alone.
    """
    n, da, db = pa.shape[-2], pa.shape[-1], pb.shape[-1]
    if da + db - 2 > DEGREE_CAP:
        raise ModelError(f"product degree {da + db - 2} exceeds cap {DEGREE_CAP}")
    lead = np.broadcast_shapes(pa.shape[:-3], pb.shape[:-3])
    out = np.zeros(lead + (n, n, da + db - 1))
    for k in range(n):
        if da <= db:
            for s in range(da):
                out[..., s:s + db] += pa[..., :, k, s, None, None] * pb[..., None, k, :, :]
        else:
            for s in range(db):
                out[..., s:s + da] += pa[..., :, k, None, :] * pb[..., None, k, :, s, None]
    return out


def pp_mul(a: PiecewisePolyMatrix, b: PiecewisePolyMatrix) -> PiecewisePolyMatrix:
    """Pointwise matrix product a(t) @ b(t) as a piecewise polynomial."""
    return _combine(a, b, _poly_matmul)


def _pad_add(x: np.ndarray, y: np.ndarray, sign: float) -> np.ndarray:
    d = max(x.shape[-1], y.shape[-1])
    out = np.zeros(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]) + (d,))
    out[..., : x.shape[-1]] = x
    out[..., : y.shape[-1]] += sign * y
    return out


def pp_add(a: PiecewisePolyMatrix, b: PiecewisePolyMatrix) -> PiecewisePolyMatrix:
    return _combine(a, b, lambda x, y: _pad_add(x, y, 1.0))


def pp_sub(a: PiecewisePolyMatrix, b: PiecewisePolyMatrix) -> PiecewisePolyMatrix:
    return _combine(a, b, lambda x, y: _pad_add(x, y, -1.0))


def _eval_block(piece: np.ndarray, t: float) -> np.ndarray:
    """Horner evaluation of one (..., n, n, d+1) block at global time t."""
    acc = piece[..., -1].copy()
    for k in range(piece.shape[-1] - 2, -1, -1):
        acc = acc * t + piece[..., k]
    return acc


def pp_eval(a: PiecewisePolyMatrix, t: float) -> np.ndarray:
    """Value a(t) for 0 <= t <= T; right-continuous at interior breakpoints.

    (n, n) for one function, (K, n, n) for a stack.
    """
    if not (0.0 <= t <= a.period):
        raise NumericRangeError(f"t = {t:g} outside [0, {a.period:g}]")
    idx = int(np.searchsorted(a.breakpoints, t, side="right")) - 1
    idx = min(max(idx, 0), len(a.pieces) - 1)
    return _eval_block(a.pieces[idx], t)


def pp_antiderivative(a: PiecewisePolyMatrix) -> PiecewisePolyMatrix:
    """t -> integral of a from 0 to t, continuous across breakpoints."""
    pieces = []
    running = 0.0  # cumulative integral at the left breakpoint
    for k, piece in enumerate(a.pieces):
        lo = a.breakpoints[k]
        hi = a.breakpoints[k + 1]
        d = piece.shape[-1]
        anti = np.zeros(piece.shape[:-1] + (d + 1,))
        anti[..., 1:] = piece / np.arange(1, d + 1)
        # adjust the constant so the cumulative value matches at lo
        anti[..., 0] = running - _eval_block(anti, lo)
        pieces.append(anti)
        running = _eval_block(anti, hi)
    return PiecewisePolyMatrix(a.period, a.breakpoints.copy(), tuple(pieces))


def pp_average(a: PiecewisePolyMatrix) -> np.ndarray:
    """(1/T) * integral of a over one period, from exact antiderivatives."""
    return pp_eval(pp_antiderivative(a), a.period) / a.period


def to_dense(a: PiecewisePolyMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Pack into (breaks, coeffs) for kernels, every piece zero-padded to the
    largest degree: coeffs is (m, n, n, dmax+1) for one function and
    (m, K, n, n, dmax+1) for a stack of K."""
    coeffs = np.zeros((len(a.pieces),) + a.pieces[0].shape[:-1] + (a.max_degree + 1,))
    for k, p in enumerate(a.pieces):
        coeffs[k, ..., : p.shape[-1]] = p
    return a.breakpoints.copy(), coeffs

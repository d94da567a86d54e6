"""Exact calculus on piecewise-polynomial matrix functions of time.

A T-periodic matrix function is stored as breakpoints 0 = t0 < ... < tm = T
plus, per interval, an (n, n, d+1) array of polynomial coefficients in the
*global* time variable (ascending degree).  Using the global variable keeps
refinement trivial (a piece restricted to a sub-interval reuses the same
coefficients) and makes antiderivative constants a running-sum fixup.

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
    """Piecewise-polynomial n x n matrix function on [0, T].

    Attributes
    ----------
    period : float
        The period T.
    breakpoints : np.ndarray
        Strictly increasing, shape (m+1,), first 0, last T.
    pieces : tuple of np.ndarray
        One (n, n, d_k+1) coefficient block per interval, ascending powers
        of global t.  Right-continuous at interior breakpoints.
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
        if abs(bp[0]) > _BREAK_MERGE_REL * self.period:
            raise ModelError("first breakpoint must be 0")
        if abs(bp[-1] - self.period) > _BREAK_MERGE_REL * self.period:
            raise ModelError("last breakpoint must equal the period")
        if np.any(np.diff(bp) <= 0):
            raise ModelError("breakpoints must be strictly increasing")
        pieces = tuple(np.asarray(p, dtype=float) for p in self.pieces)
        if len(pieces) != bp.size - 1:
            raise ModelError("number of pieces must match interval count")
        n = pieces[0].shape[0]
        for p in pieces:
            if p.ndim != 3 or p.shape[0] != p.shape[1] or p.shape[0] != n:
                raise ModelError("all pieces must be (n, n, d+1) with one common n")
            if p.shape[2] - 1 > DEGREE_CAP:
                raise ModelError(f"polynomial degree {p.shape[2] - 1} exceeds cap {DEGREE_CAP}")
            if not np.all(np.isfinite(p)):
                raise ModelError("piece coefficients must be finite")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "pieces", pieces)

    @property
    def dim(self) -> int:
        return self.pieces[0].shape[0]

    @property
    def max_degree(self) -> int:
        return max(p.shape[2] - 1 for p in self.pieces)

    @classmethod
    def constant(cls, m, period: float) -> "PiecewisePolyMatrix":
        """Degree-0 function equal to the matrix ``m`` on [0, T]."""
        m = np.asarray(m, dtype=float)
        return cls(period, np.array([0.0, period]), (m[:, :, None].copy(),))

    @classmethod
    def zero(cls, dim: int, period: float) -> "PiecewisePolyMatrix":
        return cls.constant(np.zeros((dim, dim)), period)

    def max_coeff(self) -> float:
        """Largest coefficient magnitude over all pieces (scaling reference)."""
        return max(float(np.abs(p).max()) for p in self.pieces)


def _check_compatible(a: PiecewisePolyMatrix, b: PiecewisePolyMatrix):
    if a.dim != b.dim:
        raise ModelError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if abs(a.period - b.period) > _BREAK_MERGE_REL * max(a.period, b.period):
        raise ModelError(f"period mismatch: {a.period} vs {b.period}")


def _union_breakpoints(a: PiecewisePolyMatrix, b: PiecewisePolyMatrix) -> np.ndarray:
    merged = np.union1d(a.breakpoints, b.breakpoints)
    tol = _BREAK_MERGE_REL * a.period
    keep = [merged[0]]
    for x in merged[1:]:
        if x - keep[-1] > tol:
            keep.append(x)
    keep[-1] = a.breakpoints[-1]
    return np.asarray(keep)


def _piece_at(a: PiecewisePolyMatrix, t_mid: float) -> np.ndarray:
    idx = int(np.searchsorted(a.breakpoints, t_mid, side="right")) - 1
    idx = min(max(idx, 0), len(a.pieces) - 1)
    return a.pieces[idx]


def pp_mul(a: PiecewisePolyMatrix, b: PiecewisePolyMatrix) -> PiecewisePolyMatrix:
    """Pointwise matrix product a(t) @ b(t) as a piecewise polynomial."""
    _check_compatible(a, b)
    breaks = _union_breakpoints(a, b)
    n = a.dim
    pieces = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        mid = 0.5 * (lo + hi)
        pa = _piece_at(a, mid)
        pb = _piece_at(b, mid)
        da, db = pa.shape[2], pb.shape[2]
        dout = da + db - 1
        if dout - 1 > DEGREE_CAP:
            raise ModelError(f"product degree {dout - 1} exceeds cap {DEGREE_CAP}")
        out = np.zeros((n, n, dout))
        for i in range(n):
            for j in range(n):
                acc = np.zeros(dout)
                for k in range(n):
                    acc += np.convolve(pa[i, k], pb[k, j])
                out[i, j] = acc
        pieces.append(out)
    return PiecewisePolyMatrix(a.period, breaks, tuple(pieces))


def _pad_add(x: np.ndarray, y: np.ndarray, sign: float) -> np.ndarray:
    d = max(x.shape[2], y.shape[2])
    out = np.zeros((x.shape[0], x.shape[1], d))
    out[:, :, : x.shape[2]] = x
    out[:, :, : y.shape[2]] += sign * y
    return out


def pp_add(a: PiecewisePolyMatrix, b: PiecewisePolyMatrix) -> PiecewisePolyMatrix:
    _check_compatible(a, b)
    breaks = _union_breakpoints(a, b)
    pieces = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        mid = 0.5 * (lo + hi)
        pieces.append(_pad_add(_piece_at(a, mid), _piece_at(b, mid), 1.0))
    return PiecewisePolyMatrix(a.period, breaks, tuple(pieces))


def pp_sub(a: PiecewisePolyMatrix, b: PiecewisePolyMatrix) -> PiecewisePolyMatrix:
    _check_compatible(a, b)
    breaks = _union_breakpoints(a, b)
    pieces = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        mid = 0.5 * (lo + hi)
        pieces.append(_pad_add(_piece_at(a, mid), _piece_at(b, mid), -1.0))
    return PiecewisePolyMatrix(a.period, breaks, tuple(pieces))


def _eval_block(piece: np.ndarray, t: float) -> np.ndarray:
    """Horner evaluation of one (n, n, d+1) block at global time t."""
    acc = piece[:, :, -1].copy()
    for k in range(piece.shape[2] - 2, -1, -1):
        acc = acc * t + piece[:, :, k]
    return acc


def pp_eval(a: PiecewisePolyMatrix, t: float) -> np.ndarray:
    """Value a(t) for 0 <= t <= T; right-continuous at interior breakpoints."""
    if not (0.0 <= t <= a.period):
        raise NumericRangeError(f"t = {t:g} outside [0, {a.period:g}]")
    idx = int(np.searchsorted(a.breakpoints, t, side="right")) - 1
    idx = min(max(idx, 0), len(a.pieces) - 1)
    return _eval_block(a.pieces[idx], t)


def pp_antiderivative(a: PiecewisePolyMatrix) -> PiecewisePolyMatrix:
    """t -> integral of a from 0 to t, continuous across breakpoints."""
    n = a.dim
    pieces = []
    running = np.zeros((n, n))  # cumulative integral at the left breakpoint
    for k, piece in enumerate(a.pieces):
        lo = a.breakpoints[k]
        hi = a.breakpoints[k + 1]
        d = piece.shape[2]
        anti = np.zeros((n, n, d + 1))
        anti[:, :, 1:] = piece / np.arange(1, d + 1)
        # adjust the constant so the cumulative value matches at lo
        anti[:, :, 0] = running - _eval_block(anti, lo)
        pieces.append(anti)
        running = _eval_block(anti, hi)
    return PiecewisePolyMatrix(a.period, a.breakpoints.copy(), tuple(pieces))


def pp_average(a: PiecewisePolyMatrix) -> np.ndarray:
    """(1/T) * integral of a over one period, from exact antiderivatives."""
    return pp_eval(pp_antiderivative(a), a.period) / a.period


def to_dense(a: PiecewisePolyMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Pack into (breaks, coeffs) with coeffs (m, n, n, dmax+1) for kernels."""
    n = a.dim
    dmax = a.max_degree
    coeffs = np.zeros((len(a.pieces), n, n, dmax + 1))
    for k, p in enumerate(a.pieces):
        coeffs[k, :, :, : p.shape[2]] = p
    return a.breakpoints.copy(), coeffs

"""Dense real square-matrix arithmetic for small dimensions (n <= 8).

Matrices are plain float64 numpy arrays of shape (n, n), or (K, n, n)
stacks of them.  The two operations that matter for Floquet analysis live
here: the matrix exponential (in closed form for 2x2 matrices, by
scaling and squaring for larger ones) and the eigenvalues of a 2x2
monodromy matrix from its trace and determinant.
"""

import math

import numpy as np

from ._kernels import column_sums, expm2_core, matexp_core
from .errors import ModelError, NumericRangeError

MAX_DIM = 8
MATEXP_NORM_GUARD = 1.0e6


def as_matrix(entries) -> np.ndarray:
    """Coerce to a finite square float64 array of dimension 1..8."""
    m = np.asarray(entries, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ModelError(f"expected a square matrix, got shape {m.shape}")
    if not 1 <= m.shape[0] <= MAX_DIM:
        raise ModelError(f"dimension {m.shape[0]} outside supported range 1..{MAX_DIM}")
    if not np.all(np.isfinite(m)):
        raise ModelError("matrix entries must be finite")
    return m


def norm1(m):
    """Matrix 1-norm (maximum absolute column sum) of an (n, n) matrix, or
    of each slice of a (K, n, n) stack; a NaN entry gives NaN."""
    m = np.asarray(m)
    sums = np.abs(m).sum(axis=0) if m.ndim == 2 else column_sums(m)
    return sums.max(axis=0, initial=0.0)


def matexp(m, t: float) -> np.ndarray:
    """exp(m * t): in closed form for a 2x2 matrix, by scaling and squaring
    for a larger one.

    A 2x2 exponential is cosh/sinh or cos/sin of the square root of the
    discriminant of ``m * t`` (:func:`_kernels.expm2_core`).  For n != 2
    the argument is scaled so its 1-norm is at most 0.5, the Taylor
    series is summed until the next term drops below 2**-53 of the
    partial sum (at most 30 terms), and the result is squared back
    (:func:`_kernels.matexp_core`).  This is the one-matrix case of
    :func:`matexp_stack`.

    Parameters
    ----------
    m : array_like
        Square matrix, dimension 1..8, finite entries.
    t : float
        Time; the exponential of ``m * t`` is returned.
    """
    return matexp_stack(as_matrix(m)[None], t)[0]


def matexp_stack(m, t) -> np.ndarray:
    """exp(m[k] * t[k]) for every slice of a (K, n, n) stack.

    ``t`` is one time for all slices or one per slice.  Each slice gets
    exactly the arithmetic :func:`matexp` gives it alone.  The error raised
    is the one of the first slice that fails, as a loop of :func:`matexp`
    calls would raise.
    The kernel follows the dimension: the closed form for n == 2, scaling
    and squaring otherwise.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ModelError(f"expected a (K, n, n) stack of square matrices, got shape {m.shape}")
    if not 1 <= m.shape[1] <= MAX_DIM:
        raise ModelError(f"dimension {m.shape[1]} outside supported range 1..{MAX_DIM}")
    t = np.broadcast_to(np.asarray(t, dtype=float), m.shape[:1])
    if not np.all(np.isfinite(t)):
        raise ModelError("time must be finite")
    a = m * t[:, None, None]
    check_norms(norm1(a), m)
    return expm2_core(a) if a.shape[1] == 2 else matexp_core(a)


def check_norms(norms, m):
    """The overflow guard of :func:`matexp_stack`, given the 1-norms
    ``norms`` of the K slices m[k] * t[k] and the (K, n, n) stack ``m``.

    The first slice whose norm is above :data:`MATEXP_NORM_GUARD` or NaN
    raises: :class:`ModelError` where m[k] has a non-finite entry,
    :class:`NumericRangeError` otherwise.  A slice with a non-finite entry
    has a NaN or infinite norm, so one pass over the norms finds the first
    failing slice of either kind.
    """
    bad = ~(norms <= MATEXP_NORM_GUARD)
    if bad.any():
        k = int(np.argmax(bad))
        if not np.isfinite(m[k]).all():
            raise ModelError("matrix entries must be finite")
        raise NumericRangeError(
            f"||M*t||_1 = {norms[k]:.3g} exceeds the overflow guard {MATEXP_NORM_GUARD:g}"
        )


def libm_map(f, x) -> np.ndarray:
    """``f`` of each element of the array ``x`` in Python floats, inf where
    it raises OverflowError: libm's results, from which numpy's vectorised
    functions can differ in the last bit."""
    values = x.ravel().tolist()
    try:
        out = [f(v) for v in values]
    except OverflowError:
        out = [_inf_on_overflow(f, v) for v in values]
    return np.array(out).reshape(x.shape)


def _inf_on_overflow(f, v: float) -> float:
    try:
        return f(v)
    except OverflowError:
        return math.inf


def roots_from_trace_det(tr: float, det: float) -> tuple[complex, complex]:
    """Both roots of rho^2 - tr*rho + det = 0, larger magnitude first.

    Real case uses the cancellation-avoiding form: the larger-magnitude
    root from the quadratic formula, the other as det / rho1.
    """
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        sq = math.sqrt(disc)
        r1 = 0.5 * (tr + sq) if tr >= 0.0 else 0.5 * (tr - sq)
        if r1 != 0.0:
            r2 = det / r1
        else:
            r2 = 0.5 * tr  # tr = det = 0: double root at zero
        return complex(r1), complex(r2)
    sq = math.sqrt(-disc)
    r1 = complex(0.5 * tr, 0.5 * sq)
    r2 = complex(0.5 * tr, -0.5 * sq)
    return r1, r2


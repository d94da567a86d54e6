"""Hot numeric kernels: matrix exponential and the RK4 fundamental-matrix
integrator.

Both work on a whole stack at once: ``matexp_core`` on a ``(K, n, n)`` stack
of matrices, ``rk4_monodromy_core`` on K systems over shared breakpoints (a
single matrix or system is the case without the stack axis).  Every slice
runs the arithmetic it would get alone -- for the exponential its own
scaling exponent, Taylor stop and number of squarings -- so a slice's
result does not depend on what else is in the stack.
"""

import numpy as np

from .ppoly import _eval_block

_EPS_53 = 2.0 ** -53
_MAX_TAYLOR_TERMS = 30
# coefficient values per block of RK4 steps evaluated at once (x3 stages)
_RK4_BLOCK_VALUES = 1 << 16


def _norm1(a):
    """1-norm (maximum absolute column sum) of each slice of a (K, n, n) stack.

    Columns are summed top to bottom and NaN columns are skipped, as a
    scalar ``best = max(best, col)`` loop from 0 would.
    """
    mag = np.abs(a)
    col = mag[:, 0, :]
    for i in range(1, a.shape[1]):
        col = col + mag[:, i, :]
    return np.fmax.reduce(col, axis=1, initial=0.0)


def matexp_core(a):
    """exp(a) of an (n, n) matrix or of each slice of a (K, n, n) stack.

    Scaling and squaring with an adaptive Taylor series (Moler & Van Loan,
    SIAM Review 45(1), 2003).  Each slice is scaled by the smallest power
    of two that brings its 1-norm to <= 0.5, so its series gains at least
    one binary digit per term and the term cap is never the binding stop in
    double precision.  A slice leaves the Taylor loop once its next term
    drops below 2**-53 of its partial sum, and is then squared back as
    often as it was halved.
    """
    a = np.asarray(a, dtype=float)
    single = a.ndim == 2
    if single:
        a = a[None]
    n = a.shape[-1]
    nrm = _norm1(a)
    # halvings until the norm is <= 0.5: nrm = frac * 2**expo, frac in [0.5, 1)
    frac, expo = np.frexp(nrm)
    squarings = np.where(nrm > 0.5, expo + (frac > 0.5), 0)
    b = a / np.ldexp(1.0, squarings)[:, None, None]
    out = np.repeat(np.eye(n)[None], a.shape[0], axis=0)
    term = out.copy()
    result = np.empty_like(a)
    live = np.arange(a.shape[0])
    for k in range(1, _MAX_TAYLOR_TERMS + 1):
        term = np.matmul(term, b) / k
        out = out + term
        done = _norm1(term) <= _EPS_53 * _norm1(out)
        if k == _MAX_TAYLOR_TERMS:
            done[:] = True
        if done.any():
            result[live[done]] = out[done]
            keep = ~done
            live, term, out, b = live[keep], term[keep], out[keep], b[keep]
            if live.size == 0:
                break
    for r in range(int(squarings.max(initial=0))):
        sel = np.flatnonzero(squarings > r)
        block = result[sel]
        result[sel] = np.matmul(block, block)
    return result[0] if single else result


def rk4_monodromy_core(breaks, coeffs, steps_per_piece):
    """Integrate dX/dt = J(t) X, X(0) = I, across the polynomial pieces.

    ``coeffs`` holds ascending powers of global t: (m, n, n, d+1) for one
    system, (m, K, n, n, d+1) for K systems stepping together, each stage
    one stacked ``np.matmul``.  Steps are confined to one piece at a time
    so no RK4 stage ever straddles a breakpoint.  The state update is
    Kahan-compensated: without it the accumulation roundoff (steps * eps *
    ||X||) dominates the determinant identity once ||X(T)|| is large.
    """
    single = coeffs.ndim == 4
    if single:
        coeffs = coeffs[:, None]
    m, k, n = coeffs.shape[:3]
    x = np.repeat(np.eye(n)[None], k, axis=0)
    carry = np.zeros((k, n, n))
    # J at the start, middle and end of a block of steps in one Horner pass
    block = max(1, _RK4_BLOCK_VALUES // x.size)
    for p in range(m):
        t0 = breaks[p]
        h = (breaks[p + 1] - t0) / steps_per_piece
        half, sixth = 0.5 * h, h / 6.0
        for first in range(0, steps_per_piece, block):
            t = t0 + np.arange(first, min(first + block, steps_per_piece)) * h
            stages = np.stack((t, t + half, t + h))[..., None, None, None]
            j = np.broadcast_to(_eval_block(coeffs[p], stages), (3, t.size, k, n, n))
            for j_start, j_mid, j_end in zip(j[0], j[1], j[2]):
                k1 = np.matmul(j_start, x)
                k2 = np.matmul(j_mid, x + half * k1)
                k3 = np.matmul(j_mid, x + half * k2)
                k4 = np.matmul(j_end, x + h * k3)
                step = sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4) - carry
                updated = x + step
                carry = (updated - x) - step
                x = updated
    return x[0] if single else x

"""Hot numeric kernels: matrix exponential and the RK4 fundamental-matrix
integrator.

``matexp_core`` works on a whole ``(K, n, n)`` stack at once (a single
``(n, n)`` matrix is the K = 1 case).  Every slice runs the arithmetic of a
one-matrix scaling-and-squaring exponential -- its own scaling exponent,
its own Taylor stop, its own number of squarings -- so a slice's result
does not depend on what else is in the stack.  The RK4 integrator is a
plain loop over one small dense system.
"""

import numpy as np

_EPS_53 = 2.0 ** -53
_MAX_TAYLOR_TERMS = 30


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


def _poly_eval_into(coeffs, t, out):
    """Horner evaluation of an (n, n, d+1) ascending-coefficient block."""
    n = coeffs.shape[0]
    d = coeffs.shape[2]
    for i in range(n):
        for j in range(n):
            acc = coeffs[i, j, d - 1]
            for k in range(d - 2, -1, -1):
                acc = acc * t + coeffs[i, j, k]
            out[i, j] = acc


def rk4_monodromy_core(breaks, coeffs, steps_per_piece):
    """Integrate dX/dt = J(t) X, X(0) = I, across the polynomial pieces.

    Steps are confined to one piece at a time so no RK4 stage ever
    straddles a breakpoint.  ``coeffs`` is (pieces, n, n, d+1) in the
    global time variable.  The state update is Kahan-compensated: without
    it the accumulation roundoff (steps * eps * ||X||) dominates the
    determinant identity once ||X(T)|| is large.
    """
    m = coeffs.shape[0]
    n = coeffs.shape[1]
    x = np.eye(n)
    carry = np.zeros((n, n))
    jmat = np.empty((n, n))
    for p in range(m):
        t0 = breaks[p]
        t1 = breaks[p + 1]
        h = (t1 - t0) / steps_per_piece
        for k in range(steps_per_piece):
            t = t0 + k * h
            _poly_eval_into(coeffs[p], t, jmat)
            k1 = np.dot(jmat, x)
            _poly_eval_into(coeffs[p], t + 0.5 * h, jmat)
            k2 = np.dot(jmat, x + (0.5 * h) * k1)
            k3 = np.dot(jmat, x + (0.5 * h) * k2)
            _poly_eval_into(coeffs[p], t + h, jmat)
            k4 = np.dot(jmat, x + h * k3)
            step = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4) - carry
            updated = x + step
            carry = (updated - x) - step
            x = updated
    return x

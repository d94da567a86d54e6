"""Hot numeric kernels: matrix exponentials and the RK4 fundamental-matrix
integrator.

All of them work on a whole stack at once: ``expm2_core`` and
``matexp_core`` on a ``(K, n, n)`` stack of matrices, ``rk4_monodromy_core``
on K systems over shared breakpoints (a single matrix or system is the case
without the stack axis).  ``expm2_core`` is the closed-form exponential of
2x2 matrices, a handful of elementwise ufuncs; ``matexp_core`` is scaling
and squaring for any n.  The RK4
integrator multiplies step matrices I + D rather than looping over steps: a
squaring chain for each constant piece, a pairwise product tree for each
fixed-size block of steps of a polynomial piece.  Every slice runs the
arithmetic it would get alone -- for the exponential its own scaling
exponent, Taylor stop and number of squarings, for RK4 its own route and
tree shapes -- so a slice's result does not depend on what else is in the
stack.
"""

import numpy as np

from .ppoly import _eval_block

_EPS_53 = 2.0 ** -53
_MAX_TAYLOR_TERMS = 30
# RK4 steps of a polynomial piece evaluated and multiplied as one block
_RK4_BLOCK_STEPS = 64


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


def expm2_core(a):
    """exp(a) of a (2, 2) matrix or of each slice of a (K, 2, 2) stack, in
    closed form (Bernstein & So, IEEE TAC 38(8), 1993).

    With mu = (a00 + a11)/2, b = (a00 - a11)/2 and the traceless part
    N = a - mu I, N^2 = delta I for delta = b^2 + a01 a10, so
    exp(a) = C I + S N with, for s = sqrt(|delta|),

    * delta > 0: C = e^mu cosh s and S = e^mu sinh(s)/s, taken from
      g = e^(mu + s) as C = g (1 + e^(-2s))/2 and S = -g expm1(-2s)/(2s):
      g is the larger eigenvalue of exp(a), so it overflows only when the
      result does (to within a factor 2), and expm1 does not cancel for
      small s;
    * delta < 0: C = e^mu cos s and S = e^mu sin(s)/s;
    * s = 0: C = S = e^mu.

    Every operation is elementwise, so a slice's result does not depend on
    the stack.  Overflow, and the NaN of inf * 0 it can bring, stays silent
    here and shows as non-finite entries.
    """
    a = np.asarray(a, dtype=float)
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    with np.errstate(all="ignore"):
        mu = 0.5 * (a00 + a11)
        b = 0.5 * (a00 - a11)
        delta = b * b + a01 * a10
        s = np.sqrt(np.abs(delta))
        two_s = 2.0 * s
        hyper = delta > 0.0
        g = np.exp(np.where(hyper, mu + s, mu))
        c = np.where(hyper, 0.5 * g * (1.0 + np.exp(-two_s)), g * np.cos(s))
        sinc = np.where(hyper, -np.expm1(-two_s) / two_s, np.sin(s) / s)
        sc = np.where(s == 0.0, g, g * sinc)
        out = np.empty(a.shape)
        out[..., 0, 0] = c + sc * b
        out[..., 0, 1] = sc * a01
        out[..., 1, 0] = sc * a10
        out[..., 1, 1] = c - sc * b
    return out


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


def _compose(later, earlier):
    """(I + later)(I + earlier) - I: a product of near-identity matrices with
    the identity kept implicit, so the small increments are never rounded
    against the 1s on the diagonal."""
    return later + earlier + np.matmul(later, earlier)


def _step_increments(j_start, j_mid, j_end, h):
    """D of one RK4 step X <- (I + D) X of dX/dt = J X, from J at the step's
    start, middle and end (stacks of them give a stack of D)."""
    k2 = j_mid + (0.5 * h) * np.matmul(j_mid, j_start)
    k3 = j_mid + (0.5 * h) * np.matmul(j_mid, k2)
    k4 = j_end + h * np.matmul(j_end, k3)
    return (h / 6.0) * (j_start + 2.0 * k2 + 2.0 * k3 + k4)


def _power(d, count):
    """(I + d)**count - I by binary powering, most significant bit first."""
    out = d
    for bit in bin(count)[3:]:
        out = _compose(out, out)
        if bit == "1":
            out = _compose(d, out)
    return out


def _product_tree(d):
    """(I + d[-1]) ... (I + d[0]) - I of a (b, ...) stack, later steps on the
    left, reduced pairwise: the tree's shape depends only on b."""
    while d.shape[0] > 1:
        pairs = d.shape[0] // 2
        merged = _compose(d[1:2 * pairs:2], d[0:2 * pairs:2])
        d = np.concatenate((merged, d[2 * pairs:])) if d.shape[0] % 2 else merged
    return d[0]


def _advance_piece(x, coeffs, t0, h, steps):
    """X at the end of one piece from X at its start, for a (K, n, n, d+1) stack."""
    if not coeffs[..., 1:].any():
        j = coeffs[..., 0]
        d = _power(_step_increments(j, j, j, h), steps)
        return x + np.matmul(d, x)
    for first in range(0, steps, _RK4_BLOCK_STEPS):
        t = t0 + np.arange(first, min(first + _RK4_BLOCK_STEPS, steps)) * h
        stages = np.stack((t, t + 0.5 * h, t + h))[..., None, None, None]
        j = _eval_block(coeffs, stages)
        d = _product_tree(_step_increments(j[0], j[1], j[2], h))
        x = x + np.matmul(d, x)
    return x


def rk4_monodromy_core(breaks, coeffs, steps_per_piece):
    """Classical RK4 for dX/dt = J(t) X, X(0) = I, across the polynomial pieces.

    ``coeffs`` holds ascending powers of global t: (m, n, n, d+1) for one
    system, (m, K, n, n, d+1) for K systems stepping together.  Steps are
    confined to one piece at a time so no RK4 stage ever straddles a
    breakpoint.

    For a linear system one RK4 step is X <- (I + D) X, with D built from J
    at the step's start, middle and end in three stacked matmuls, so the
    monodromy is the ordered product of the step matrices.  Every product
    keeps the identity implicit, (I + A)(I + B) = I + (A + B + AB): without
    that, rounding the tiny increments against the diagonal 1s costs about
    two digits of the determinant identity at 4096 steps.  A system whose
    piece is constant has one D there, raised to the step count by binary
    powering; otherwise the piece's steps are taken in blocks of a fixed
    ``_RK4_BLOCK_STEPS``, each block's D stack reduced by a pairwise tree
    with later steps on the left.  Each piece or block then updates the
    state as X <- X + D X.  Which route a system takes and the shape of
    every tree depend only on its own coefficients and the step count,
    never on the stack, so each slice is bitwise what it would be alone.
    """
    single = coeffs.ndim == 4
    if single:
        coeffs = coeffs[:, None]
    m, k, n = coeffs.shape[:3]
    x = np.repeat(np.eye(n)[None], k, axis=0)
    for p in range(m):
        t0 = breaks[p]
        h = (breaks[p + 1] - t0) / steps_per_piece
        constant = ~coeffs[p, ..., 1:].any(axis=(1, 2, 3))
        for rows in (np.flatnonzero(constant), np.flatnonzero(~constant)):
            if rows.size:
                x[rows] = _advance_piece(x[rows], coeffs[p, rows], t0, h, steps_per_piece)
    return x[0] if single else x

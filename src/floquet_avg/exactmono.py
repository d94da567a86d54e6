"""Exact monodromy oracles.

Two independent routes to X(T) for a linear T-periodic system whose
coefficient matrix J(t) is a :class:`PiecewisePolyMatrix` (one system, or
a stack of K over shared breakpoints):

* closed-form products of matrix exponentials when every piece of J has
  degree 0, and
* a fixed-step classical RK4 integrator of dX/dt = J(t) X for any
  piecewise-polynomial J, with steps confined to each smooth piece so no
  stage straddles a discontinuity.
"""

import numpy as np

from ._kernels import rk4_monodromy_core
from .errors import ModelError, NumericRangeError
from .ppoly import PiecewisePolyMatrix, to_dense
from .smallmat import matexp_stack

# steps per piece of the RK4 oracle; at the cap one system takes about a second per piece
RK_MIN_STEPS = 16
RK_MAX_STEPS = 65536
# steps per system over all pieces: models of up to four pieces keep the whole
# per-piece range, and a many-piece model file cannot run for minutes
RK_MAX_TOTAL_STEPS = 4 * RK_MAX_STEPS


def exact_monodromy_pc(j: PiecewisePolyMatrix) -> np.ndarray:
    """Product of piece exponentials; later pieces multiply on the left.

    Every piece of ``j`` must have degree 0.  For two half-period pieces
    this is exp(d2*M2) @ exp(d1*M1) -- the order matters and getting it
    backwards is the classic Floquet sign error, hence the explicit
    left-multiplication in :func:`exact_monodromy_pc_stack`, of which this
    is the front.  (n, n) for one system, (K, n, n) for a stack of K.
    """
    if j.max_degree > 0:
        raise ModelError("system is not piecewise constant (degree > 0 pieces)")
    mats = np.stack([piece[..., 0] for piece in j.pieces], axis=-3)
    if j.cells is None:
        return exact_monodromy_pc_stack(np.diff(j.breakpoints), mats[None])[0]
    return exact_monodromy_pc_stack(np.diff(j.breakpoints), mats)


def exact_monodromy_pc_stack(durations, mats) -> np.ndarray:
    """Monodromies of K piecewise-constant systems that share segment durations.

    ``mats`` is (K, S, n, n): system k holds the matrix ``mats[k, s]`` for
    ``durations[s]``.  All K*S exponentials run as one stack, system by
    system and segment by segment, so the first failing exponential is the
    one a loop over the systems would meet first.
    """
    mats = np.asarray(mats, dtype=float)
    k, s, n = mats.shape[:3]
    times = np.broadcast_to(np.asarray(durations, dtype=float), (k, s)).reshape(k * s)
    with np.errstate(over="ignore", invalid="ignore"):
        exps = matexp_stack(mats.reshape(k * s, n, n), times).reshape(k, s, n, n)
        # the first segment's exponential is the product so far: I @ E has E's entries
        f = np.ascontiguousarray(exps[:, 0])
        for seg in range(1, s):
            f = np.matmul(np.ascontiguousarray(exps[:, seg]), f)
    return _in_range(f)


def exact_monodromy_rk(j: PiecewisePolyMatrix, steps_per_piece: int) -> np.ndarray:
    """RK4 fundamental matrix at t = T for dX/dt = J(t) X, X(0) = I.

    (n, n) for one system; a stack of K systems integrates as one stack and
    gives (K, n, n), each slice equal to the system's own integration.
    """
    if not RK_MIN_STEPS <= steps_per_piece <= RK_MAX_STEPS:
        raise ModelError(f"steps_per_piece must be in {RK_MIN_STEPS}..{RK_MAX_STEPS}, "
                         f"got {steps_per_piece}")
    total = len(j.pieces) * steps_per_piece
    if total > RK_MAX_TOTAL_STEPS:
        raise ModelError(f"steps_per_piece {steps_per_piece} over {len(j.pieces)} pieces makes "
                         f"{total} RK4 steps per system, above the cap of {RK_MAX_TOTAL_STEPS}")
    breaks, coeffs = to_dense(j)
    with np.errstate(over="ignore", invalid="ignore"):
        return _in_range(rk4_monodromy_core(breaks, coeffs, steps_per_piece))


def _in_range(f):
    """A monodromy of a finite J is finite unless it left the float range."""
    if not np.isfinite(f).all():
        raise NumericRangeError("the entries of the monodromy matrix F leave the float range")
    return f


def pc_stack_to_ppoly(period: float, durations, mats) -> PiecewisePolyMatrix:
    """Degree-0 view of K piecewise-constant systems that share segment durations.

    ``mats`` is (K, S, n, n) as for :func:`exact_monodromy_pc_stack`, or
    (S, n, n) for one system.  The durations must sum to the period.
    """
    breaks = np.concatenate(([0.0], np.cumsum(durations)))
    if abs(breaks[-1] - period) > 1e-12 * period:
        raise ModelError(f"segment durations sum to {breaks[-1]:g}, expected the period {period:g}")
    breaks[-1] = period
    mats = np.asarray(mats, dtype=float)
    return PiecewisePolyMatrix(period, breaks,
                               tuple(mats[..., s, :, :, None] for s in range(mats.shape[-3])))

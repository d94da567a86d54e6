"""Exact monodromy oracles.

Two independent routes to X(T) for a linear T-periodic system whose
coefficient matrix J(t) is a :class:`PiecewisePolyMatrix`:

* closed-form products of matrix exponentials when every piece of J has
  degree 0, and
* a fixed-step classical RK4 integrator of dX/dt = J(t) X for any
  piecewise-polynomial J, with steps confined to each smooth piece so no
  stage straddles a discontinuity.

Each is a one-system front on a :class:`PiecewisePolyMatrix` over a stack
entry on bare arrays of K systems that share their pieces' times.
"""

import numpy as np

from ._kernels import rk4_monodromy_core
from .errors import ModelError, NumericRangeError
from .ppoly import PiecewisePolyMatrix
from .smallmat import matexp_stack

# steps per piece of the RK4 oracle, for `analyze --rk-steps` and exact-rk scans
RK_STEPS_DEFAULT = 512
# input guards on the steps per piece: a polynomial piece still evaluates J at
# every step, so a model file cannot ask for unbounded work
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
    is the one-system front.
    """
    if j.max_degree > 0:
        raise ModelError("system is not piecewise constant (degree > 0 pieces)")
    return exact_monodromy_pc_stack(np.diff(j.breakpoints), j.coeffs[None, ..., 0])[0]


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
    """RK4 fundamental matrix at t = T for dX/dt = J(t) X, X(0) = I: the
    one-system front of :func:`exact_monodromy_rk_stack`."""
    return exact_monodromy_rk_stack(j.breakpoints, j.coeffs, steps_per_piece)


def exact_monodromy_rk_stack(breakpoints, coeffs, steps_per_piece: int) -> np.ndarray:
    """RK4 monodromies of the systems whose coefficients ``coeffs`` holds as
    :func:`rk4_monodromy_core` takes them: one system's (m, n, n, d+1) array
    gives its (n, n) matrix, and a leading axis of K systems over the shared
    ``breakpoints`` gives (K, n, n), integrated as one stack, each slice
    equal to the system's own integration.  The step guards apply per system.
    """
    if not RK_MIN_STEPS <= steps_per_piece <= RK_MAX_STEPS:
        raise ModelError(f"steps_per_piece must be in {RK_MIN_STEPS}..{RK_MAX_STEPS}, "
                         f"got {steps_per_piece}")
    pieces = coeffs.shape[-4]
    total = pieces * steps_per_piece
    if total > RK_MAX_TOTAL_STEPS:
        raise ModelError(f"steps_per_piece {steps_per_piece} over {pieces} pieces makes "
                         f"{total} RK4 steps per system, above the cap of {RK_MAX_TOTAL_STEPS}")
    with np.errstate(over="ignore", invalid="ignore"):
        return _in_range(rk4_monodromy_core(breakpoints, coeffs, steps_per_piece))


def _in_range(f):
    """A monodromy of a finite J is finite unless it left the float range."""
    if not np.isfinite(f).all():
        raise NumericRangeError("the entries of the monodromy matrix F leave the float range")
    return f


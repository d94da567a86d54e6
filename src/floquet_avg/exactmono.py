"""Exact monodromy oracles.

Two independent routes to X(T) for a linear T-periodic system:

* closed-form products of matrix exponentials when the coefficient matrix
  is piecewise constant, and
* a fixed-step classical RK4 integrator of dX/dt = J(t) X for any
  piecewise-polynomial J, with steps confined to each smooth piece so no
  stage straddles a discontinuity.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import rk4_monodromy_core
from .errors import ModelError
from .ppoly import PiecewisePolyMatrix, to_dense
from .smallmat import as_matrix, matexp_stack

# steps per piece of the RK4 oracle; at the cap one system takes about a second per piece
RK_MIN_STEPS = 16
RK_MAX_STEPS = 65536


@dataclass(frozen=True)
class PiecewiseConstantSystem:
    """T-periodic system with a constant coefficient matrix per segment."""

    period: float
    segments: tuple  # ((duration, matrix), ...)

    def __post_init__(self):
        if not (np.isfinite(self.period) and self.period > 0):
            raise ModelError("period must be positive and finite")
        segs = []
        total = 0.0
        dim = None
        for duration, mat in self.segments:
            duration = float(duration)
            if not (np.isfinite(duration) and duration > 0):
                raise ModelError("segment durations must be positive")
            mat = as_matrix(mat)
            if dim is None:
                dim = mat.shape[0]
            elif mat.shape[0] != dim:
                raise ModelError("all segment matrices must share one dimension")
            segs.append((duration, mat))
            total += duration
        if abs(total - self.period) > 1e-12 * self.period:
            raise ModelError(
                f"segment durations sum to {total:g}, expected the period {self.period:g}"
            )
        object.__setattr__(self, "segments", tuple(segs))

    @property
    def dim(self) -> int:
        return self.segments[0][1].shape[0]


def exact_monodromy_pc(sys: PiecewiseConstantSystem) -> np.ndarray:
    """Product of segment exponentials; later segments multiply on the left.

    For two half-period segments this is exp(d2*M2) @ exp(d1*M1) -- the
    order matters and getting it backwards is the classic Floquet sign
    error, hence the explicit left-multiplication here.  This is the
    one-system case of :func:`exact_monodromy_pc_stack`.
    """
    durations = [d for d, _ in sys.segments]
    mats = np.stack([m for _, m in sys.segments])[None]
    return exact_monodromy_pc_stack(durations, mats)[0]


def exact_monodromy_pc_stack(durations, mats) -> np.ndarray:
    """Monodromies of K piecewise-constant systems that share segment durations.

    ``mats`` is (K, S, n, n): system k holds the matrix ``mats[k, s]`` for
    ``durations[s]``.  All K*S exponentials run as one stack, system by
    system and segment by segment, so the first failing exponential is the
    one a loop over the systems would meet first.
    """
    mats = np.asarray(mats, dtype=float)
    k, s, n = mats.shape[:3]
    times = np.tile(np.asarray(durations, dtype=float), k)
    exps = matexp_stack(mats.reshape(k * s, n, n), times).reshape(k, s, n, n)
    f = np.repeat(np.eye(n)[None], k, axis=0)
    for seg in range(s):
        f = np.matmul(np.ascontiguousarray(exps[:, seg]), f)
    return f


def exact_monodromy_rk(j: PiecewisePolyMatrix, steps_per_piece: int) -> np.ndarray:
    """RK4 fundamental matrix at t = T for dX/dt = J(t) X, X(0) = I.

    (n, n) for one system; a stack of K systems integrates as one stack and
    gives (K, n, n), each slice equal to the system's own integration.
    """
    if not RK_MIN_STEPS <= steps_per_piece <= RK_MAX_STEPS:
        raise ModelError(f"steps_per_piece must be in {RK_MIN_STEPS}..{RK_MAX_STEPS}, "
                         f"got {steps_per_piece}")
    breaks, coeffs = to_dense(j)
    return rk4_monodromy_core(breaks, coeffs, steps_per_piece)


def pc_to_ppoly(sys: PiecewiseConstantSystem) -> PiecewisePolyMatrix:
    """Degree-0 piecewise-polynomial view of a piecewise-constant system."""
    return pc_stack_to_ppoly(sys.period, [d for d, _ in sys.segments],
                             np.stack([m for _, m in sys.segments]))


def pc_stack_to_ppoly(period: float, durations, mats) -> PiecewisePolyMatrix:
    """Degree-0 view of K piecewise-constant systems that share segment durations.

    ``mats`` is (K, S, n, n) as for :func:`exact_monodromy_pc_stack`, or
    (S, n, n) for one system.
    """
    breaks = np.concatenate(([0.0], np.cumsum(durations)))
    breaks[-1] = period
    mats = np.asarray(mats, dtype=float)
    return PiecewisePolyMatrix(period, breaks,
                               tuple(mats[..., s, :, :, None] for s in range(mats.shape[-3])))


def pc_from_ppoly(j: PiecewisePolyMatrix) -> PiecewiseConstantSystem:
    """Inverse view when every piece has degree 0."""
    if j.max_degree > 0:
        raise ModelError("system is not piecewise constant (degree > 0 pieces)")
    segments = []
    for k, piece in enumerate(j.pieces):
        duration = j.breakpoints[k + 1] - j.breakpoints[k]
        segments.append((float(duration), piece[:, :, 0].copy()))
    return PiecewiseConstantSystem(j.period, tuple(segments))

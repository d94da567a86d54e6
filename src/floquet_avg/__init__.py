"""Averaged monodromy-matrix approximations and stability-boundary tracing
for linear ODE systems with periodic coefficients."""

from .averaging import (
    AveragedExpansion,
    SeriesSystem,
    assemble_monodromy,
    monodromy_direct,
    run_recursion,
    standard_form,
)
from .errors import BracketError, FloquetError, ModelError, NumericRangeError
from .exactmono import exact_monodromy_pc, exact_monodromy_rk
from .pendulum import (
    PendulumParams,
    jacobians,
    order_roots,
    series_split,
)
from .ppoly import (
    PiecewisePolyMatrix,
    pp_antiderivative,
    pp_average,
    pp_eval,
    pp_mul,
)
from .scan import (
    BoundaryCurve,
    ScanGrid,
    bisect_boundary,
    compare_boundaries,
    scan_region,
    trace_boundary,
)
from .smallmat import matexp
from .stability import (
    StabilityReport,
    Verdict,
    classify,
    det_series,
    det_series_expansion,
    margin_exact,
)

__version__ = "0.1.0"

__all__ = [
    "AveragedExpansion",
    "BoundaryCurve",
    "BracketError",
    "FloquetError",
    "ModelError",
    "NumericRangeError",
    "PendulumParams",
    "PiecewisePolyMatrix",
    "ScanGrid",
    "SeriesSystem",
    "StabilityReport",
    "Verdict",
    "assemble_monodromy",
    "bisect_boundary",
    "classify",
    "compare_boundaries",
    "det_series",
    "det_series_expansion",
    "exact_monodromy_pc",
    "exact_monodromy_rk",
    "jacobians",
    "margin_exact",
    "matexp",
    "monodromy_direct",
    "order_roots",
    "pp_antiderivative",
    "pp_average",
    "pp_eval",
    "pp_mul",
    "run_recursion",
    "scan_region",
    "series_split",
    "standard_form",
    "trace_boundary",
]

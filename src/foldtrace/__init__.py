"""foldtrace: implicit-curve tracing that survives turning points and cusps.

Marches axis-aligned steps along f(x, y) = 0, detects folds when the
transverse solve stalls, and continues past them by scanning the boundary
of a half-disk around the turning point.
"""

from .astroid import SweepResult, astroid_field, run_sweep, trace_astroid
from .errors import (
    CurveTerminated,
    ExpressionError,
    FieldEvaluationError,
    FoldtraceError,
    InsufficientHistory,
    NoConvergence,
    NonpositiveThickness,
    SingularJacobian,
    SingularMatrix,
    TraceError,
    ZeroVector,
)
from .expressions import expression_field
from .fields import circle_field
from .geometry import (
    MINUS_X,
    MINUS_Y,
    PLUS_X,
    PLUS_Y,
    Axis,
    Box,
    Point2,
    StepDirection,
    TurningPointKind,
    cbrt,
)
from .lubrication import (
    BifurcationField,
    LubricationState,
    SpectralGrid,
    fourier_diff_matrix,
    residual_fixed_Q,
    solve_at_M,
    trace_bifurcation,
)
from .rootfind import solve_scalar, solve_vector
from .tracer import (
    SolutionPath,
    Stalled,
    Termination,
    TraceConfig,
    TurningPointEvent,
    polish_transverse,
    step,
    trace,
)
from .turnpoint import (
    Candidate,
    CandidateSet,
    choose_reference_point,
    mesh_half_circle,
    new_direction,
    scan_boundary,
    select_exit_point,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Exception types shared across the package."""

from __future__ import annotations


class FoldtraceError(Exception):
    """Base class for all package-specific errors."""


class FieldEvaluationError(FoldtraceError):
    """The residual field could not be evaluated at the requested point."""


class NonpositiveThickness(FoldtraceError):
    """A film-thickness vector contained a value <= 0."""


class ExpressionError(FoldtraceError):
    """A user-supplied formula could not be parsed."""


class SingularMatrix(FoldtraceError):
    """A dense factorization hit a round-off-level pivot or gave a non-finite solve."""


class NoConvergence(FoldtraceError):
    """An iterative solve ran out of iterations or stagnated.

    Carries the last iterate and residual so callers (notably the tracer,
    which uses this as its turning-point trigger) can inspect how the solve
    failed instead of just that it failed.
    """

    def __init__(self, message, last_iterate=None, residual=None, iterations=0):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual
        self.iterations = iterations


class TraceError(FoldtraceError):
    """A trace aborted; carries the partial path built so far."""

    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path

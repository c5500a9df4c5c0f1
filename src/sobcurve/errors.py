"""Exception types shared across the package.

Each error carries a short machine-readable ``code`` used by the command line
interface to produce stable exit diagnostics.
"""

from __future__ import annotations


class SobcurveError(Exception):
    """Base class for all package-specific errors."""

    code = "error"


class DegenerateCurve(SobcurveError):
    """Curve speed |c'| fell below the immersion floor at some node."""

    code = "degenerate-curve"


class InsufficientSamples(SobcurveError):
    """Too few grid nodes to resolve the requested number of modes (need M > 2N)."""

    code = "insufficient-samples"


class NonPositiveLowerBound(SobcurveError):
    """Smoothed lower length bound hit zero; epsilon too large or tangents reversed."""

    code = "nonpositive-lower-bound"


class NonPositiveQ(SobcurveError):
    """Tangent correlation q = c_hat' . c_check' is not positive at some node."""

    code = "nonpositive-q"


class DegenerateInit(SobcurveError):
    """Initial path for the boundary value problem leaves the immersed chart."""

    code = "degenerate-init"


class MaxIters(SobcurveError):
    """Iterative solver exhausted its iteration budget above tolerance."""

    code = "max-iters"


class InfiniteEnergy(SobcurveError):
    """Path energy is infinite and no descent step could repair it."""

    code = "infinite-energy"


class NoConvergence(SobcurveError):
    """A fixed-point or Newton solve stalled above its tolerance.

    ``partial`` holds the work finished before the stall when the raising
    solver keeps any (the path of ``exp_k``, the vectors of
    ``transport_path``), else None.
    """

    code = "no-convergence"
    partial = None


class DegeneratePlane(SobcurveError):
    """Tangent pair is (numerically) linearly dependent; no 2-plane spanned."""

    code = "degenerate-plane"

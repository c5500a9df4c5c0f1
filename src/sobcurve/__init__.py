"""Discrete Riemannian calculus on Sobolev spaces of immersed closed curves.

Curves are represented by truncated Fourier series; the metric is a
constant-coefficient Sobolev metric of order m >= 2 in arc length.  The
package provides consistent squared-distance energies between nearby curves,
discrete geodesics (boundary-value and initial-value problems), Schild's
ladder parallel transport, covariant difference quotients, a discrete
curvature tensor, and exact analytic oracles at the circle for all of it.
"""

from .curve import (
    FourierCurve,
    grid,
    load_curve,
    min_speed,
    pad,
    sample_jet,
    save_curve,
    truncate,
)
from .energy import (
    EnergyKind,
    hessian_at_diagonal,
    length_bounds,
    rational_time_integrals,
    smooth_max_min,
    w_bar_oracle,
    w_eval,
    w_grad,
    w_value_and_grad,
)
from .errors import (
    DegenerateCurve,
    DegenerateInit,
    DegeneratePlane,
    InfiniteEnergy,
    InsufficientSamples,
    MaxIters,
    NoConvergence,
    NonPositiveLowerBound,
    NonPositiveQ,
    SobcurveError,
)
from .geodesic import (
    DiscretePath,
    SolverOptions,
    bvp_ladder,
    discrete_path_energy,
    el_midpoint,
    el_step,
    exp2,
    exp_k,
    log2,
    resample_path,
    segment_energies,
    solve_bvp,
)
from .metric import (
    MetricWeights,
    metric_eval,
    sobolev_norm,
    w_lin_oracle,
)
from .oracle import (
    TrigPolynomial,
    christoffel_circle,
    curvature_numerator_circle,
    metric_derivatives_unit_speed,
    sectional_curvature_circle,
)
from .transport import (
    CurvatureSchedule,
    cov_deriv,
    inverse_transport,
    riemann_tensor,
    schild_step,
    sectional_curvature,
    transport_inner_products,
    transport_path,
)

__version__ = "0.1.0"

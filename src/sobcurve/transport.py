"""Schild's-ladder parallel transport, covariant difference quotients, and
discrete curvature.

One rung of Schild's ladder transports a vector w from a curve c to the
displaced curve c + tau*v through a geodesic parallelogram: the midpoint s of
the two-segment discrete geodesic between the corners c + tau*w and c + tau*v
is the parallelogram center, and extending the geodesic from c through s by
one step yields the fourth corner z, so (z - c - tau*v)/tau is the
transported vector.  Inverting the same parallelogram gives inverse
transport, and first-order / central covariant difference quotients

    (P^{-1} tau w(c + tau v) - tau w(c)) / tau^2,
    (P^{-1} tau w(c + tau v) + P^{-1}(-tau w(c - tau v))) / (2 tau^2)

follow.  Nesting two covariant quotients with a smaller inner step tau^beta
approximates the Riemann curvature tensor, and with it the sectional
curvature of the Sobolev metric.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .curve import FourierCurve, pad
from .energy import EnergyKind, hessian_at_diagonal
from .errors import DegeneratePlane, NoConvergence
from .geodesic import DiscretePath, SolverOptions, el_midpoint, el_step
from .metric import MetricWeights, metric_eval

__all__ = [
    "CurvatureSchedule",
    "schild_step",
    "transport_path",
    "transport_inner_products",
    "inverse_transport",
    "cov_deriv",
    "riemann_tensor",
    "sectional_curvature",
]


@dataclasses.dataclass(frozen=True)
class CurvatureSchedule:
    """Step-size and regularization schedule for nested covariant quotients.

    beta is the exponent of the inner quotient step (tau**beta); eps_out and
    eps_in are the regularization parameters used by the outer and inner
    quotients when the energy is the regularized one (they are ignored for
    the rational energy).  The consistency analysis requires beta > 1 so that
    the inner step vanishes faster than the outer one.
    """

    beta: float
    eps_out: float
    eps_in: float
    centered: bool = False

    def __post_init__(self):
        if not self.beta > 1.0:
            raise ValueError("inner-step exponent beta must exceed 1")
        if not (self.eps_out > 0.0 and self.eps_in > 0.0):
            raise ValueError("regularization parameters must be positive")

    @classmethod
    def one_sided(cls, tau: float) -> "CurvatureSchedule":
        """Optimal one-sided schedule: beta=2, eps_out=tau, eps_in=tau^2."""
        return cls(beta=2.0, eps_out=tau, eps_in=tau**2, centered=False)

    @classmethod
    def central(cls, tau: float, scale: float = 1.0) -> "CurvatureSchedule":
        """Optimal central schedule: beta=3/2, eps_out=tau^2/scale,
        eps_in=tau^3/scale."""
        return cls(beta=1.5, eps_out=tau**2 / scale, eps_in=tau**3 / scale, centered=True)

    def inner_step(self, tau: float) -> float:
        return tau**self.beta

    def kinds(self, kind: EnergyKind) -> tuple[EnergyKind, EnergyKind]:
        """(outer, inner) energy kinds; the rational energy has no epsilon."""
        if kind.is_rat:
            return kind, kind
        return EnergyKind.reg(self.eps_out), EnergyKind.reg(self.eps_in)


def schild_step(
    c: FourierCurve,
    v: FourierCurve,
    w: FourierCurve,
    tau: float,
    weights: MetricWeights,
    kind: EnergyKind,
    num_nodes: int,
    opts: SolverOptions | None = None,
) -> FourierCurve:
    """One rung of Schild's ladder: transport w from c to c + tau*v.

    Builds the geodesic parallelogram with corners c, c + tau*w, c + tau*v:
    s is the discrete-geodesic midpoint of the far corners and z the
    extension of the geodesic c -> s by one more step.  Returns
    (z - c - tau*v)/tau, the transported vector at the displaced curve.
    """
    if tau <= 0.0:
        raise ValueError("step size tau must be positive")
    corner_w = c + w * tau
    corner_v = c + v * tau
    s = el_midpoint(corner_w, corner_v, weights, kind, num_nodes, opts)
    z = el_step(c, s, weights, kind, num_nodes, opts)
    return (z - corner_v) * (1.0 / tau)


def transport_path(
    path: DiscretePath,
    w0: FourierCurve,
    weights: MetricWeights,
    kind: EnergyKind,
    num_nodes: int,
    opts: SolverOptions | None = None,
    return_all: bool = False,
):
    """Iterate Schild's ladder along a discrete path.

    Each rung transports with direction v_k = (c_{k+1} - c_k)/tau, so the
    displaced curve of rung k is exactly c_{k+1}.  Returns the vector at the
    final curve, or the whole list w_0..w_K with ``return_all``.  A stalled
    rung raises NoConvergence whose ``partial`` is the list w_0..w_k
    finished before it.
    """
    tau = path.step
    vectors = [w0]
    for k in range(path.num_segments):
        v_k = (path[k + 1] - path[k]) * (1.0 / tau)
        try:
            vectors.append(
                schild_step(path[k], v_k, vectors[-1], tau, weights, kind, num_nodes, opts)
            )
        except NoConvergence as err:
            stalled = NoConvergence(
                f"transport stalled at rung {k + 1}/{path.num_segments}: {err}"
            )
            stalled.partial = vectors
            raise stalled from err
    return vectors if return_all else vectors[-1]


def transport_inner_products(
    path: DiscretePath,
    w0: FourierCurve,
    weights: MetricWeights,
    kind: EnergyKind,
    num_nodes: int,
    opts: SolverOptions | None = None,
) -> np.ndarray:
    """Inner products 0.5 * W_{,11}[c_k, c_k](K (c_{k+1} - c_k), w_k) along a
    transported family -- constant along exact parallel transport of a
    geodesic's velocity, so their drift diagnoses transport quality."""
    vectors = transport_path(path, w0, weights, kind, num_nodes, opts, return_all=True)
    k = path.num_segments
    out = np.empty(k)
    for i in range(k):
        u = (path[i + 1] - path[i]) * float(k)
        n = max(path.order, u.order, vectors[i].order)
        hess = hessian_at_diagonal(pad(path[i], n), weights, kind, num_nodes)
        out[i] = 0.5 * float(
            pad(u, n).coeffs.ravel() @ hess @ pad(vectors[i], n).coeffs.ravel()
        )
    return out


def inverse_transport(
    c: FourierCurve,
    v: FourierCurve,
    tau: float,
    w_end: FourierCurve,
    weights: MetricWeights,
    kind: EnergyKind,
    num_nodes: int,
    opts: SolverOptions | None = None,
) -> FourierCurve:
    """Inverse Schild rung: bring w_end, given at c + tau*v, back to c.

    The same parallelogram is solved from the other side: s is the midpoint
    of the discrete geodesic from c to c + tau*(v + w_end), and the unknown
    corner z extends the geodesic from c + tau*v through s.  Returns
    (z - c)/tau.  First-order inverse of :func:`schild_step`: the round trip
    reproduces w up to O(tau^2).
    """
    if tau <= 0.0:
        raise ValueError("step size tau must be positive")
    far = c + (v + w_end) * tau
    s = el_midpoint(c, far, weights, kind, num_nodes, opts)
    z = el_step(c + v * tau, s, weights, kind, num_nodes, opts)
    return (z - c) * (1.0 / tau)


def _as_field(w_field):
    if callable(w_field):
        return w_field
    return lambda _c: w_field


def cov_deriv(
    c: FourierCurve,
    v: FourierCurve,
    w_field,
    tau: float,
    weights: MetricWeights,
    kind: EnergyKind,
    num_nodes: int,
    opts: SolverOptions | None = None,
    centered: bool = False,
) -> FourierCurve:
    """Covariant difference quotient of a tangent field along v at c.

    ``w_field`` is either a callable curve -> tangent or a plain tangent
    (treated as a constant field, for which the quotient approximates the
    Christoffel operator).  One-sided quotient by default; ``centered``
    averages the +tau and -tau inverse transports for second-order accuracy.
    """
    field = _as_field(w_field)
    plus = inverse_transport(
        c, v, tau, field(c + v * tau), weights, kind, num_nodes, opts
    )
    if not centered:
        return (plus - field(c)) * (1.0 / tau)
    minus = inverse_transport(
        c, v * (-1.0), tau, field(c - v * tau) * (-1.0), weights, kind, num_nodes, opts
    )
    return (plus + minus) * (1.0 / (2.0 * tau))


def riemann_tensor(
    c: FourierCurve,
    v: FourierCurve,
    w: FourierCurve,
    z: FourierCurve,
    tau: float,
    schedule: CurvatureSchedule,
    weights: MetricWeights,
    kind: EnergyKind,
    num_nodes: int,
    opts: SolverOptions | None = None,
) -> FourierCurve:
    """Discrete Riemann curvature tensor R(v, w)z at c via nested covariant
    difference quotients.

    The inner quotient differentiates the constant field z along the second
    direction with the smaller step tau**beta, evaluated at the displaced
    curves the outer quotient visits; the outer quotient differentiates that
    field along the first direction with step tau.  The two nested terms are
    combined antisymmetrically, so swapping v and w flips the sign exactly.
    """
    kind_out, kind_in = schedule.kinds(kind)
    sigma = schedule.inner_step(tau)

    def nested(first, second):
        def inner_field(x):
            return cov_deriv(
                x, second, z, sigma, weights, kind_in, num_nodes, opts,
                centered=schedule.centered,
            )

        return cov_deriv(
            c, first, inner_field, tau, weights, kind_out, num_nodes, opts,
            centered=schedule.centered,
        )

    return nested(v, w) - nested(w, v)


def sectional_curvature(
    c: FourierCurve,
    v: FourierCurve,
    w: FourierCurve,
    tau: float,
    schedule: CurvatureSchedule,
    weights: MetricWeights,
    kind: EnergyKind,
    num_nodes: int,
    opts: SolverOptions | None = None,
) -> float:
    """Discrete sectional curvature of the plane spanned by v and w at c:

        g(v, R(v, w)w) / (g(v,v) g(w,w) - g(v,w)^2).

    Raises DegeneratePlane when v and w are (numerically) linearly dependent,
    i.e. the Gram determinant in the denominator is not positive.
    """
    gvv = metric_eval(c, v, v, weights, num_nodes)
    gww = metric_eval(c, w, w, weights, num_nodes)
    gvw = metric_eval(c, v, w, weights, num_nodes)
    denom = gvv * gww - gvw**2
    if denom <= 1e-12 * max(gvv * gww, np.finfo(float).tiny):
        raise DegeneratePlane("v and w do not span a plane (Gram determinant <= 0)")
    r = riemann_tensor(c, v, w, w, tau, schedule, weights, kind, num_nodes, opts)
    return metric_eval(c, v, r, weights, num_nodes) / denom

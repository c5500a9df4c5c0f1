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

Along a path the rungs change slowly, so ``transport_path`` starts each
rung's midpoint and extension solves from an extrapolation (quadratic once
three rungs are done) of how far the previous rungs' solutions lay from
their simple guesses, the corner average and 2s - c.  Every solve still
polishes to the rounding floor: the warm start saves sweeps without
stopping any solve earlier.  The other entry points solve each
parallelogram from scratch.  Every entry point rejects a step size tau
that is not finite and positive.

The parallelograms of one covariant quotient are independent, and so are
those of each level of a nested one.  ``cov_deriv`` and both levels of
``riemann_tensor`` therefore run through one stacked quotient that solves
them in lockstep: first the stack of all midpoint solves, then the stack of
all extension solves, each sweep of a stack one energy call.  A centered
(one-sided) Riemann tensor thus runs its 24 (12) solves as four stacks,
8, 8, 4 and 4 (4, 4, 2 and 2): the inner quotients' midpoints and
extensions, then the outer ones'.  Every member of a stack still stops by
its own rule.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .curve import FourierCurve, _stack, pad
from .energy import EnergyKind, hessian_at_diagonal
from .errors import DegeneratePlane, NoConvergence
from .geodesic import (
    DiscretePath,
    SolverOptions,
    _el_midpoints,
    _el_steps,
    _extrapolate,
    el_midpoint,
    el_step,
)
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
        if not (0.0 < self.eps_out < np.inf and 0.0 < self.eps_in < np.inf):
            raise ValueError("regularization parameters must be finite and positive")

    @classmethod
    def one_sided(cls, tau: float) -> "CurvatureSchedule":
        """Optimal one-sided schedule: beta=2, eps_out=tau, eps_in=tau^2."""
        return cls(beta=2.0, eps_out=tau, eps_in=tau**2, centered=False)

    @classmethod
    def central(cls, tau: float, scale: float = 1.0) -> "CurvatureSchedule":
        """Optimal central schedule: beta=3/2, eps_out=tau^2/scale,
        eps_in=tau^3/scale; ``scale`` must be finite and positive."""
        if not 0.0 < scale < np.inf:
            raise ValueError("curvature schedule scale must be finite and positive")
        return cls(beta=1.5, eps_out=tau**2 / scale, eps_in=tau**3 / scale, centered=True)

    def inner_step(self, tau: float) -> float:
        return tau**self.beta

    def kinds(self, kind: EnergyKind) -> tuple[EnergyKind, EnergyKind]:
        """(outer, inner) energy kinds; the rational energy has no epsilon."""
        if kind.is_rat:
            return kind, kind
        return EnergyKind.reg(self.eps_out), EnergyKind.reg(self.eps_in)


def _require_step(tau):
    if not 0.0 < tau < np.inf:
        raise ValueError("step size tau must be finite and positive")


def schild_step(
    c: FourierCurve,
    v: FourierCurve,
    w: FourierCurve,
    tau: float,
    weights: MetricWeights,
    kind: EnergyKind,
    num_nodes: int,
    opts: SolverOptions | None = None,
    *,
    _history: list | None = None,
) -> FourierCurve:
    """One rung of Schild's ladder: transport w from c to c + tau*v.

    Builds the geodesic parallelogram with corners c, c + tau*w, c + tau*v:
    s is the discrete-geodesic midpoint of the far corners and z the
    extension of the geodesic c -> s by one more step.  Returns
    (z - c - tau*v)/tau, the transported vector at the displaced curve.

    ``_history`` serves ``transport_path``: a list of the previous rungs'
    corrections (s - avg, z - (2s - c)), oldest first, where avg is the
    mean of the far corners.  A nonempty list starts s from avg and z from
    2s - c, each plus the extrapolated correction; on exit the list holds
    this rung's corrections last and at most three entries.
    """
    _require_step(tau)
    corner_w = c + w * tau
    corner_v = c + v * tau
    avg = (corner_w + corner_v) * 0.5
    past = _history or ()
    init = avg + _extrapolate([d for d, _ in past]) if past else None
    s = el_midpoint(corner_w, corner_v, weights, kind, num_nodes, opts, init)
    ext = s * 2.0 - c
    init = ext + _extrapolate([e for _, e in past]) if past else None
    z = el_step(c, s, weights, kind, num_nodes, opts, init)
    if _history is not None:
        _history.append((s - avg, z - ext))
        del _history[:-3]
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
    displaced curve of rung k is exactly c_{k+1}.  From the second rung on,
    the midpoint and extension solves start from their simple guesses (the
    corner average and 2s - c) plus an extrapolation of the corrections the
    previous rungs needed over the same guesses: constant after one rung,
    linear after two, quadratic from then on.  Each solve still polishes to
    the rounding floor.  Returns the vector at the final curve, or the
    whole list w_0..w_K with ``return_all``.  A stalled rung raises
    NoConvergence whose ``partial`` is the list w_0..w_k finished before it.
    """
    tau = path.step
    vectors = [w0]
    history = []
    for k in range(path.num_segments):
        v_k = (path[k + 1] - path[k]) * (1.0 / tau)
        try:
            vectors.append(
                schild_step(path[k], v_k, vectors[-1], tau, weights, kind, num_nodes, opts,
                            _history=history)
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
    vectors,
    weights: MetricWeights,
    kind: EnergyKind,
    num_nodes: int,
) -> np.ndarray:
    """Inner products 0.5 * W_{,11}[c_k, c_k](K (c_{k+1} - c_k), w_k) along a
    transported family w_0..w_K, e.g. ``transport_path(..., return_all=True)``
    -- constant along exact parallel transport of a geodesic's velocity, so
    their drift diagnoses transport quality."""
    k = path.num_segments
    if len(vectors) != k + 1:
        raise ValueError(f"expected {k + 1} transported vectors, got {len(vectors)}")
    out = np.empty(k)
    for i in range(k):
        u, w = _stack([(path[i + 1] - path[i]) * float(k), vectors[i]])
        hess = hessian_at_diagonal(pad(path[i], len(u) // 2), weights, kind, num_nodes)
        out[i] = 0.5 * float(u.ravel() @ hess @ w.ravel())
    return out


def _inverse_transports(c, v, w_end, tau, weights, kind, num_nodes, opts, phase, blocks=None):
    """Inverse Schild rungs of a stack of independent problems, in lockstep.

    ``c``, ``v`` and ``w_end`` are coefficient stacks (S, 2N+1, d); problem
    i brings w_end[i], given at c[i] + tau*v[i], back to c[i].  The S
    midpoint solves run as one lockstep stack, then the S extension solves
    as another.  A member that stalls raises NoConvergence naming ``phase``,
    the solver and the member; ``blocks`` is as in ``geodesic._preconditioners``.
    Returns the stack of (z - c)/tau.
    """
    far = c + (v + w_end) * tau
    args = weights, kind, num_nodes, opts
    s = _el_midpoints(c, far, *args, label=f"{phase}: el_midpoint", blocks=blocks)
    z, _ = _el_steps(c + v * tau, s, *args, label=f"{phase}: el_step", blocks=blocks)
    return (z - c) * (1.0 / tau)


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
    _require_step(tau)
    moved = _inverse_transports(
        *np.split(_stack([c, v, w_end]), 3), tau, weights, kind, num_nodes, opts,
        "inverse_transport",
    )
    return FourierCurve.from_coeffs(moved[0])


def _quotients(points, dirs, ends, base, tau, centered, weights, kind, num_nodes, opts, phase,
               blocks=None):
    """Covariant difference quotients of S independent problems, in lockstep.

    Problem i differentiates a field along dirs[i] at points[i] with step
    tau.  ``ends`` broadcasts to (S, 2, 2N+1, d), the field at points[i] +
    tau*dirs[i] and at points[i] - tau*dirs[i], when ``centered``, else to
    (S, 1, 2N+1, d); ``base`` is the field at the points.  The inverse
    transports m+ and m- of all problems, ordered by problem and then by
    sign, run as one ``_inverse_transports`` stack.  Returns the stack of
    (m+ + m-)/(2 tau) centered, (m+ - base)/tau one-sided.
    """
    signs = np.array((1.0, -1.0) if centered else (1.0,))[:, None, None]
    shape = points.shape[1:]
    signed = np.broadcast_to(ends * signs, (len(points), len(signs), *shape))
    moved = _inverse_transports(
        np.repeat(points, len(signs), axis=0), (dirs[:, None] * signs).reshape(-1, *shape),
        signed.reshape(-1, *shape), tau, weights, kind, num_nodes, opts, phase, blocks,
    ).reshape(len(points), len(signs), *shape)
    if centered:
        return (moved[:, 0] + moved[:, 1]) * (1.0 / (2.0 * tau))
    return (moved[:, 0] - base) * (1.0 / tau)


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
    Christoffel operator).  One-sided quotient by default,

        (P^{-1} w(c + tau v) - w(c)) / tau;

    ``centered`` averages the +tau and -tau inverse transports for
    second-order accuracy.  Every field value, w(c) included, is computed
    first; the one or two inverse transports then run as one lockstep
    stack, at the highest order among c, v and those values.
    """
    _require_step(tau)
    sides = (c + v * tau, c - v * tau if centered else c)
    values = [w_field(x) for x in sides] if callable(w_field) else [w_field] * 2
    c_arr, v_arr, ahead, back = _stack([c, v, *values])
    ends = np.stack((ahead, back) if centered else (ahead,))
    moved = _quotients(c_arr[None], v_arr[None], ends, back, tau, centered, weights, kind,
                       num_nodes, opts, "cov_deriv")
    return FourierCurve.from_coeffs(moved[0])


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

    R(v, w)z = D(v, w) - D(w, v), where the nested quotient D(first, second)
    differentiates along ``first``, with step tau, the field x -> (inner
    quotient of the constant field z along ``second`` at x, with the smaller
    step tau**beta).  The inner quotients are needed at the displaced curves
    c + tau*first and c - tau*first (centered) or c (one-sided).

    All inverse transports run in four lockstep stacks: the midpoint solves
    of every inner quotient, then their extension solves, then the outer
    quotients' midpoint and extension solves -- 8, 8, 4 and 4 solves
    centered, 4, 4, 2 and 2 one-sided.  The two nested halves are stacked
    in the order of their directions' coefficient bytes and looked up by
    them, so the stacks do not depend on the argument order: swapping v and
    w flips the sign exactly, and R(v, v)z is exactly zero.  The stacks share
    their preconditioners' Hessian blocks (13 for the 24 solves of a centered
    tensor on the rational energy).
    """
    _require_step(tau)
    kind_out, kind_in = schedule.kinds(kind)
    centered = schedule.centered
    c_arr, v_arr, w_arr, z_arr = _stack([c, v, w, z])
    key_vw, key_wv = (v_arr.tobytes(), w_arr.tobytes()), (w_arr.tobytes(), v_arr.tobytes())
    halves = {key_vw: (v_arr, w_arr), key_wv: (w_arr, v_arr)}
    keys = sorted(halves)
    firsts, seconds = (np.stack(h) for h in zip(*(halves[key] for key in keys)))
    blocks = {}  # the outer extensions start where the inner midpoints do
    # the inner quotients of z along second, ordered by half and then by point
    steps = np.array((tau, -tau) if centered else (tau, 0.0))[:, None, None]
    points = (c_arr + firsts[:, None] * steps).reshape(-1, *c_arr.shape)
    inner = _quotients(points, np.repeat(seconds, 2, axis=0), z_arr, z_arr,
                       schedule.inner_step(tau), centered, weights, kind_in, num_nodes, opts,
                       "riemann_tensor", blocks).reshape(len(keys), 2, *c_arr.shape)
    # the outer quotients of those fields along first, at c
    nested = _quotients(np.broadcast_to(c_arr, firsts.shape), firsts,
                        inner if centered else inner[:, :1], inner[:, 1], tau, centered, weights,
                        kind_out, num_nodes, opts, "riemann_tensor", blocks)
    return FourierCurve.from_coeffs(nested[keys.index(key_vw)] - nested[keys.index(key_wv)])


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
    _require_step(tau)
    gvv = metric_eval(c, v, v, weights, num_nodes)
    gww = metric_eval(c, w, w, weights, num_nodes)
    gvw = metric_eval(c, v, w, weights, num_nodes)
    denom = gvv * gww - gvw**2
    if denom <= 1e-12 * max(gvv * gww, np.finfo(float).tiny):
        raise DegeneratePlane("v and w do not span a plane (Gram determinant <= 0)")
    r = riemann_tensor(c, v, w, w, tau, schedule, weights, kind, num_nodes, opts)
    return metric_eval(c, v, r, weights, num_nodes) / denom

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

Every rung, forward or inverse, is one geodesic parallelogram, and one
private core solves a stack of them in lockstep: one ``el_midpoint`` call
on the stack of diagonals, then one ``el_step`` call on the stack of
extensions, each sweep one energy call.  ``schild_step``,
``transport_path`` and ``inverse_transport`` hand it one parallelogram at
a time.  The parallelograms of one covariant quotient are independent, and
so are those of each level of a nested one, so ``cov_deriv`` and both
levels of ``riemann_tensor`` run through one stacked quotient that hands
the core all of them at once.  A centered (one-sided) Riemann tensor thus
runs its 24 (12) solves as four stacks, 8, 8, 4 and 4 (4, 4, 2 and 2):
the inner quotients' midpoints and extensions, then the outer ones'.
Every member of a stack still stops by its own rule, and ends where its
own solve ends, bit for bit, whatever its place in the stack.

Along a path the rungs change slowly, so ``transport_path`` starts each
rung's midpoint and extension solves from an extrapolation of how far the
previous rungs' solutions lay from their simple guesses, the corner
average and 2s - c.  A path resampled r-fold has a kink every r rungs,
which a plain extrapolation mispredicts, so the quadratic extrapolation is
taken through every s-th rung, s = 1, 2, 4 or 8, whichever predicted the
last rungs best.  Each of the two solve types also reuses one
preconditioner inverse from rung to rung while the fixed point keeps
contracting as it did on a new one.  Every solve still polishes to the
rounding floor: the warm start saves sweeps and the reused inverses save
Hessian blocks without stopping any solve earlier.  The other entry
points solve each parallelogram from scratch, on inverses built at its
own anchors, and all of them work on coefficient arrays, building one
curve per returned vector.  Every entry point rejects a step size tau
that is not finite and positive.
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
    _FactorCache,
    _predict,
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
    the inner step vanishes faster than the outer one; beta must be finite.
    """

    beta: float
    eps_out: float
    eps_in: float
    centered: bool = False

    def __post_init__(self):
        if not 1.0 < self.beta < np.inf:
            raise ValueError("inner-step exponent beta must be finite and exceed 1")
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


def _require_step(tau, what="step size tau"):
    if not 0.0 < tau < np.inf:
        raise ValueError(f"{what} must be finite and positive")


def _parallelogram(a, b, corner, weights, kind, num_nodes, opts, phase, shifts=None,
                   blocks=(None, None)):
    """Fourth corners z of a stack (S, 2N+1, d) of geodesic parallelograms:
    s = el_midpoint(a, b) is each one's center, and z = el_step(corner, s)
    extends the geodesic from the corner through it.  Each solve starts from
    its simple guess, (a + b)/2 or 2s - corner, plus the matching stack of
    ``shifts`` when given; ``blocks`` holds the midpoint and extension
    solves' ``_blocks``.  A stall raises NoConvergence prefixed with
    ``phase``.  Returns z and the corrections (s - (a + b)/2,
    z - (2s - corner)) over the simple guesses.
    """
    mid = (a + b) * 0.5
    try:
        s = el_midpoint(a, b, weights, kind, num_nodes, opts,
                        None if shifts is None else mid + shifts[0], _blocks=blocks[0])
        ext = s * 2.0 - corner
        z = el_step(corner, s, weights, kind, num_nodes, opts,
                    None if shifts is None else ext + shifts[1], _blocks=blocks[1])
    except NoConvergence as err:
        raise NoConvergence(f"{phase}: {err}") from err
    return z, (s - mid, z - ext)


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
    _require_step(tau)
    c, v, w = _stack([c, v, w])[:, None]
    corner_v = c + v * tau
    z, _ = _parallelogram(c + w * tau, corner_v, c, weights, kind, num_nodes, opts,
                          "schild_step")
    return FourierCurve.from_coeffs((z[0] - corner_v[0]) * (1.0 / tau))


#: Strides of the extrapolations that start each rung of transport_path: a
#: path resampled r-fold (r = 2, 4, 8) has a kink every r rungs.
_STRIDES = (1, 2, 4, 8)


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
    linear after two, quadratic after three.  From then on the quadratic
    runs through every s-th of the last 25 rungs (all that ``_predict``
    reads), for the stride s of 1, 2, 4 or 8 that predicted the last max(s)
    rungs best, which follows the kinks of a path resampled 2, 4 or 8-fold.
    Each solve type reuses its preconditioner's inverse from rung to rung
    (see ``geodesic._FactorCache``), and each solve still polishes to the
    rounding floor.  The rungs run on coefficient arrays at the higher
    order of the path and w0.  Returns the vector at the final curve, or
    the whole list w_0..w_K with ``return_all``.  A stalled rung raises
    NoConvergence whose ``partial`` is the list w_0..w_k finished before it.
    """
    tau, steps = path.step, path.num_segments
    w, *curves = _stack([w0, *path.curves])[:, None]
    vectors = [w0]
    # each rung's midpoint and extension corrections, rung k at row steps-1-k:
    # the rungs before k are one contiguous newest-first block, which
    # _predict scores through BLAS (a reversed view would round differently)
    history = np.empty((2, steps, *w.shape))
    factors = (_FactorCache(), _FactorCache())
    for k in range(steps):
        c = curves[k]
        # c + tau*v_k, rounded as a rung of direction v_k = (c_{k+1} - c_k)/tau
        corner_v = c + (curves[k + 1] - c) * (1.0 / tau) * tau
        shifts = [_predict(past[steps - k :], _STRIDES, (2,)) for past in history] if k else None
        try:
            z, corrections = _parallelogram(
                c + w * tau, corner_v, c, weights, kind, num_nodes, opts,
                f"transport stalled at rung {k + 1}/{steps}", shifts, factors,
            )
        except NoConvergence as err:
            err.partial = vectors
            raise
        history[:, steps - 1 - k] = corrections
        w = (z - corner_v) * (1.0 / tau)
        vectors.append(FourierCurve.from_coeffs(w[0]))
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
    c, v, w_end = _stack([c, v, w_end])[:, None]
    z, _ = _parallelogram(c, c + (v + w_end) * tau, c + v * tau, weights, kind, num_nodes, opts,
                          "inverse_transport")
    return FourierCurve.from_coeffs((z[0] - c[0]) * (1.0 / tau))


def _quotients(points, dirs, ends, base, tau, centered, weights, kind, num_nodes, opts, phase,
               blocks=None):
    """Covariant difference quotients of S independent problems, in lockstep.

    Problem i differentiates a field along dirs[i] at points[i] with step
    tau.  ``ends`` broadcasts to (S, 2, 2N+1, d), the field at points[i] +
    tau*dirs[i] and at points[i] - tau*dirs[i], when ``centered``, else to
    (S, 1, 2N+1, d); ``base`` is the field at the points.  The inverse
    transports m+ and m- of all problems, ordered by problem and then by
    sign, run as one stack of inverse rungs (see :func:`inverse_transport`)
    through ``_parallelogram``, whose stalls name ``phase``.  Returns the
    stack of (m+ + m-)/(2 tau) centered, (m+ - base)/tau one-sided.
    """
    signs = np.array((1.0, -1.0) if centered else (1.0,))[:, None, None]
    shape = points.shape[1:]
    signed = np.broadcast_to(ends * signs, (len(points), len(signs), *shape))
    c = np.repeat(points, len(signs), axis=0)
    v = (dirs[:, None] * signs).reshape(-1, *shape)
    z, _ = _parallelogram(c, c + (v + signed.reshape(-1, *shape)) * tau, c + v * tau, weights,
                          kind, num_nodes, opts, phase, blocks=(blocks, blocks))
    moved = ((z - c) * (1.0 / tau)).reshape(len(points), len(signs), *shape)
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
    centered, 4, 4, 2 and 2 one-sided.  The halves D(v, w) and D(w, v) are
    stacked in that order; a stack member's solve does not depend on its
    position, so swapping v and w flips the sign exactly, and R(v, v)z is
    exactly zero.  The stacks share
    their preconditioners' Hessian blocks (13 for the 24 solves of a centered
    tensor on the rational energy).  Raises ValueError, before any solve,
    when the inner step underflows to zero, or when the rounding of the
    coefficients alone swamps the nested quotient: tau * tau**beta <= eps.
    """
    _require_step(tau)
    tau_in = schedule.inner_step(tau)
    what = f"inner step tau**beta = {tau!r}**{schedule.beta!r}"
    _require_step(tau_in, what)
    if tau * tau_in <= np.finfo(float).eps:
        raise ValueError(f"{what} leaves no digit: tau * tau**beta = {tau * tau_in:.3e} is at or "
                         "below machine epsilon")
    kind_out, kind_in = schedule.kinds(kind)
    centered = schedule.centered
    c_arr, v_arr, w_arr, z_arr = _stack([c, v, w, z])
    firsts, seconds = np.stack((v_arr, w_arr)), np.stack((w_arr, v_arr))
    blocks = {}  # the outer extensions start where the inner midpoints do
    # the inner quotients of z along second, ordered by half and then by point
    steps = np.array((tau, -tau) if centered else (tau, 0.0))[:, None, None]
    points = (c_arr + firsts[:, None] * steps).reshape(-1, *c_arr.shape)
    inner = _quotients(points, np.repeat(seconds, 2, axis=0), z_arr, z_arr,
                       tau_in, centered, weights, kind_in, num_nodes, opts,
                       "riemann_tensor", blocks).reshape(2, 2, *c_arr.shape)
    # the outer quotients of those fields along first, at c
    nested = _quotients(np.broadcast_to(c_arr, firsts.shape), firsts,
                        inner if centered else inner[:, :1], inner[:, 1], tau, centered, weights,
                        kind_out, num_nodes, opts, "riemann_tensor", blocks)
    return FourierCurve.from_coeffs(nested[0] - nested[1])


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

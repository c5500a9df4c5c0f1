"""Discrete path energy, the geodesic boundary value problem, and the
discrete exponential and logarithm maps.

A discrete path is a tuple (c_0, ..., c_K) of immersed curves; its energy is

    E[c_0..c_K] = K * sum_k W[c_{k-1}, c_k],

where W is one of the squared-distance energies.  Minimizers with fixed
endpoints (discrete geodesics) satisfy the interior stationarity conditions

    W_{,2}[c_{k-1}, c_k] + W_{,1}[c_k, c_{k+1}] = 0.

Solving that condition *forward* -- for c_{k+1} given the previous two curves
-- steps the initial value problem and yields the discrete exponential map;
solving it for the middle curve given the outer two inverts it (the discrete
logarithm).  Both reduce to the same preconditioned fixed-point solver, with
twice the diagonal energy Hessian as the preconditioner and a
finite-difference Newton polish whenever the fixed point stalls above its
tolerance.  The solver takes a stack of independent problems and runs them
in lockstep, one stacked energy call per sweep.  ``el_step`` and
``el_midpoint`` take two curves and return a curve, or take coefficient
stacks (S, 2N+1, d) and return the stack of solutions, as ``w_eval`` and
``w_grad`` do; ``exp_k`` and every Schild rung call them on stacks.  The
boundary value problem is solved by preconditioned L-BFGS with an Armijo
line search.  One damped-trial loop, ``_trial_steps``, halves the steps of
the fixed point, of the Newton polish and of that line search, and
evaluates each trial point once.

Every preconditioner is built from one Hessian block helper,
``_hessian_block``.  The Euler-Lagrange solves apply the explicit inverse
of their block.  The L-BFGS iteration applies the inverse Cholesky
factors of the two endpoints' blocks, blended along the path, one
interior curve at a time, and reduces path vectors with numpy's own
loops.  Its vectors reach OpenBLAS's threading thresholds at sizes the
solver meets (10 206 entries at N = 40, K = 64), and on a host with few
cores the workers that a threaded call leaves spinning take more of the
solver's time than the split call saves.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers

import numpy as np

from .curve import FourierCurve, _min_speeds, _stack, _stacks, min_speed, pad
from .energy import (
    EnergyKind,
    _require_kind,
    hessian_scalar_at_diagonal,
    w_eval,
    w_grad,
    w_value_and_grad,
)
from .errors import (
    DegenerateCurve,
    DegenerateInit,
    InfiniteEnergy,
    MaxIters,
    NoConvergence,
    NonPositiveLowerBound,
    SobcurveError,
)
from .metric import SPEED_FLOOR, MetricWeights, gram_scalar

__all__ = [
    "DiscretePath",
    "SolverOptions",
    "discrete_path_energy",
    "segment_energies",
    "el_step",
    "exp2",
    "log2",
    "el_midpoint",
    "exp_k",
    "solve_bvp",
    "bvp_ladder",
    "resample_path",
]


def _default_nodes(order: int) -> int:
    """Default grid size M = 4N (at least 16) for curves of order N: the
    CLI's quadrature default and the immersion-check grid of paths."""
    return max(16, 4 * order)


def _first_degenerate(stack, num_nodes):
    """Index of the first curve of a coefficient stack (S, 2N+1, d) whose
    speed reaches the immersion floor on the grid, or None."""
    bad = _min_speeds(stack, num_nodes) <= SPEED_FLOOR
    return int(np.argmax(bad)) if bad.any() else None


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DiscretePath:
    """Immutable sequence of K+1 curves sampling a path at times k/K."""

    curves: tuple

    def __post_init__(self):
        curves = tuple(self.curves)
        if len(curves) < 2:
            raise ValueError("a discrete path needs at least two curves (K >= 1)")
        first = curves[0]
        for c in curves:
            if not isinstance(c, FourierCurve):
                raise ValueError("path members must be FourierCurve instances")
            if c.dim != first.dim or c.order != first.order:
                raise ValueError("path curves must share dim and order")
        k = _first_degenerate(_stack(curves), _default_nodes(first.order))
        if k is not None:
            raise DegenerateCurve(f"path curve {k} is not immersed")
        object.__setattr__(self, "curves", curves)

    @property
    def num_segments(self) -> int:
        return len(self.curves) - 1

    @property
    def step(self) -> float:
        """Time step tau = 1/K."""
        return 1.0 / self.num_segments

    @property
    def dim(self) -> int:
        return self.curves[0].dim

    @property
    def order(self) -> int:
        return self.curves[0].order

    def __len__(self) -> int:
        return len(self.curves)

    def __getitem__(self, k):
        return self.curves[k]

    def __iter__(self):
        return iter(self.curves)

    @classmethod
    def linear(cls, c_a: FourierCurve, c_b: FourierCurve, num_segments: int) -> "DiscretePath":
        """Linear interpolation between the endpoints in coefficient space."""
        _require_count(num_segments, "num_segments")
        return _path_of(_linear_stack(*_stack([c_a, c_b]), num_segments))


def _linear_stack(a, b, num_segments):
    """The coefficient-linear path a + (b - a) k/K, k = 0..K, between two
    coefficient arrays (2N+1, d), as a stack (K+1, 2N+1, d)."""
    return a + (b - a) * np.linspace(0.0, 1.0, num_segments + 1)[:, None, None]


def _path_of(stack) -> DiscretePath:
    """The discrete path whose curves are the rows of a coefficient stack
    (K+1, 2N+1, d)."""
    return DiscretePath(tuple(FourierCurve.from_coeffs(c) for c in stack))


def resample_path(path: DiscretePath, num_segments: int) -> DiscretePath:
    """Linear-in-time resampling of a path onto ``num_segments`` segments:
    the curve at old time i + lam is (1 - lam) c_i + lam c_{i+1}, and c_i
    exactly at lam = 0."""
    _require_count(num_segments, "num_segments")
    k_old = path.num_segments
    t = np.arange(num_segments + 1) / num_segments * k_old
    i = np.minimum(np.floor(t).astype(int), k_old - 1)
    lam = (t - i)[:, None, None]
    stack = _stack(path.curves)
    return _path_of(np.where(lam == 0.0, stack[i], stack[i] * (1.0 - lam) + stack[i + 1] * lam))


@dataclasses.dataclass(frozen=True)
class SolverOptions:
    """Tolerances and budgets for the path solvers.

    grad_tol is relative: the boundary value solver stops at
    grad_tol * (1 + initial gradient norm).  fixed_point_tol bounds the
    preconditioned residual of the Euler-Lagrange step solver, again relative
    to 1 + the initial residual.  How far below it a solve goes depends on
    the caller: ``exp_k`` stops each of its K steps as soon as the residual
    is at most fixed_point_tol / K (a position error in one step becomes a
    velocity error K times larger), and starts each step from the
    extrapolation through the last 7 curves, of degree 2 to 5, that best
    predicted the step before.  Every other caller -- ``el_step`` and ``el_midpoint``
    called directly, ``exp2`` / ``log2`` and the Schild rungs of
    ``schild_step``, ``transport_path``, ``inverse_transport``,
    ``cov_deriv`` and ``riemann_tensor`` -- accepts at fixed_point_tol but
    keeps iterating to the rounding floor while each sweep still gains a
    digit, because those results get divided by small step sizes.
    ``transport_path`` starts the two solves of each rung from the last 25
    rungs' corrections, extrapolated, so they need fewer sweeps to reach the
    same floor.  ``exp_k`` and ``transport_path`` also reuse one inverse
    of the preconditioner over consecutive solves while the fixed point
    keeps contracting as it did on a new one; their tolerances are then
    measured with the reused inverse, and a to-the-floor solve that a
    reused inverse leaves short of the floor goes on on a new one.
    fixed_point_max_iters caps the sweeps of one solve; a solve
    that stalls or runs out of sweeps above its tolerance always hands its
    best iterate to a finite-difference Newton polish, and raises
    NoConvergence only when that stalls too, or when its initial guess is
    not admissible.  When ``el_step`` or ``el_midpoint`` gets a stack of
    several problems (the parallelograms of ``cov_deriv`` and
    ``riemann_tensor``), every member stops, polishes and fails by its own
    rule, as it would alone.
    """

    grad_tol: float = 1e-8
    max_iters: int = 500
    fixed_point_tol: float = 1e-10
    fixed_point_max_iters: int = 50

    def __post_init__(self):
        for name in ("grad_tol", "fixed_point_tol"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive")
        for name in ("max_iters", "fixed_point_max_iters"):
            _require_count(getattr(self, name), name)


def _require_count(value, name):
    """Raise ValueError unless ``value`` is an integer >= 1 (bools are rejected)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


_DEFAULT_OPTIONS = SolverOptions()


# ---------------------------------------------------------------------------
# Path energy
# ---------------------------------------------------------------------------


def segment_energies(
    path: DiscretePath,
    weights: MetricWeights,
    kind: EnergyKind,
    num_nodes: int,
) -> np.ndarray:
    """Per-segment contributions K*W[c_{k-1}, c_k] (a diagnostic: they are
    equal along a converged discrete geodesic)."""
    stack = _stack(path.curves)
    return path.num_segments * w_eval(stack[:-1], stack[1:], weights, kind, num_nodes)


def discrete_path_energy(
    path: DiscretePath,
    weights: MetricWeights,
    kind: EnergyKind,
    num_nodes: int,
) -> float:
    """Discrete path energy K * sum_k W[c_{k-1}, c_k]; +inf propagates."""
    return float(np.sum(segment_energies(path, weights, kind, num_nodes)))


# ---------------------------------------------------------------------------
# Euler-Lagrange step solver
# ---------------------------------------------------------------------------
#
# Both the forward step and the midpoint problem are root problems
# R(y) = 0 for a coefficient-space residual assembled from energy gradients.
# The solver below runs a stack of independent problems in lockstep: one
# stacked energy call per sweep evaluates every member still active, and each
# member iterates y <- y + sign * P^{-1} R(y) with its own P^{-1}, the inverse
# of (a multiple of) the diagonal energy Hessian, monitoring its
# preconditioned residual norm sqrt(R . P^{-1} R).  A member whose fixed point
# stalls above its tolerance is polished on its own with damped Newton on a
# finite-difference Jacobian.  Both halve a member's step until the trial
# point is admissible and its residual finite.


def _hessian_block(a, weights, kind, num_nodes):
    """The scalar block H of the diagonal energy Hessian at the anchor
    coefficient array ``a`` (2N+1, d), and its Cholesky factor L, H = L L^T;
    a block that is not positive definite raises LinAlgError.  When epsilon
    is too large for the smoothed form, twice the metric Gram block, an
    equivalent preconditioner, stands in for H."""
    anchor = FourierCurve.from_coeffs(a)
    try:
        block = hessian_scalar_at_diagonal(anchor, weights, kind, num_nodes)
    except NonPositiveLowerBound:
        block = 2.0 * gram_scalar(anchor, weights, num_nodes)
    return block, np.linalg.cholesky(block)


def _preconditioners(anchors, weights, kind, num_nodes, scale=1.0, blocks=None):
    """Read-only inverses of ``scale`` times the ``_hessian_block`` at each
    anchor of a coefficient stack, one per distinct anchor.  ``blocks``
    maps (anchor bytes, kind) to the blocks that other stacks of one
    computation already built, and gains the new ones.  A
    ``_FactorCache`` in its place lends its inverse to a one-member stack,
    and builds it at that member's anchor when it holds none."""
    if isinstance(blocks, _FactorCache):
        if blocks.inverse is None:
            blocks.inverse = _preconditioners(anchors, weights, kind, num_nodes, scale)[0]
            blocks.base = None
        return [blocks.inverse]
    blocks = {} if blocks is None else blocks
    keys = [(a.tobytes(), kind) for a in anchors]
    for key, a in zip(keys, anchors):
        if key not in blocks:
            blocks[key] = _hessian_block(a, weights, kind, num_nodes)[0]
    inverses = {}
    for key in dict.fromkeys(keys):
        # one thread, where L^-T L^-1 would thread
        inverses[key] = np.linalg.inv(scale * blocks[key])
        inverses[key].setflags(write=False)
    return [inverses[key] for key in keys]


def _residual_norm(res_arr, precond):
    """P^{-1} R and its norm sqrt(R . P^{-1} R), ``precond`` being P^{-1}."""
    eta = precond @ res_arr
    return eta, float(np.sqrt(max(np.sum(res_arr * eta), 0.0)))


def _member_residual(residual, i):
    """Member ``i`` of a stacked residual on its own: one point (2N+1, d)
    gives one residual, a stack of points (P, 2N+1, d) a stack of them."""

    def member(y):
        if y.ndim == 2:
            return residual(y[None], np.array([i]))[0]
        return residual(y, np.full(len(y), i))

    return member


def _residuals(residual, ys, idx):
    """Residuals of the members ``idx`` at the points ``ys`` (one row each)
    from one stacked call: per member its residual array, or a string that
    says why its point is not admissible.  When the stacked call raises a
    package error, a stack of several members is evaluated again one member
    at a time, so that only the inadmissible members are rejected."""
    try:
        outs = residual(ys, idx)
    except SobcurveError as err:
        if len(idx) == 1:
            return [str(err)]
        return [_residuals(residual, ys[j : j + 1], idx[j : j + 1])[0] for j in range(len(idx))]
    return [out if np.all(np.isfinite(out)) else "residual not finite" for out in outs]


def _trial_steps(residual, y, step, tries):
    """Yield (alpha, y + alpha step, its residual) for alpha = 1, 1/2, ...,
    2^(1 - tries), skipping the trial points that leave the admissible set
    or give a non-finite residual.  The module's one damped-trial loop: the
    fixed point of ``_solve_roots`` takes its first yield, ``_newton_polish``
    the first that lowers the preconditioned residual, and ``solve_bvp`` the
    first that passes its Armijo test (its residual ends in the energy)."""
    alpha = 1.0
    for _ in range(tries):
        y_new = y + step
        try:
            res_arr = residual(y_new)
        except SobcurveError:
            res_arr = None
        if res_arr is not None and np.all(np.isfinite(res_arr)):
            yield alpha, y_new, res_arr
        step, alpha = 0.5 * step, 0.5 * alpha


#: Preconditioned residual, relative to 1 + the initial one, at which a
#: to-the-floor solve has reached the rounding floor.  The residuals of the
#: Euler-Lagrange problems level off at 1e-16 to 6e-16; a sweep from there
#: moves the iterate by rounding only, and the digit it seems to gain now
#: and then is noise.
_ROUNDING_FLOOR = 1e-15


class _Member:
    """One root problem of a lockstep stack: its iterate, residual and stop
    state.  ``tol`` is the member's own tolerance, relative to 1 + its
    initial residual; with ``to_floor`` it keeps iterating past it while
    each sweep still gains a digit, until a sweep ends at or below
    ``_ROUNDING_FLOOR``.  ``history`` holds the preconditioned residual at
    the start and after each accepted sweep, and ``polished`` says whether
    the member ended in the Newton polish."""

    def __init__(self, y, res_arr, precond, tol, to_floor):
        self.precond, self.to_floor = precond, to_floor
        self.y = y
        self.eta, self.res = _residual_norm(res_arr, precond)
        self.tol = tol * (1.0 + self.res)
        self.floor = _ROUNDING_FLOOR * (1.0 + self.res)
        self.best = y, res_arr, self.res
        self.stall = 0
        self.rapid = to_floor and self.res > 0.0
        self.active = True
        self.history = [self.res]
        self.polished = False

    def wants_sweep(self) -> bool:
        """Whether the member takes another sweep; clears ``active`` when not."""
        self.active = self.active and (self.best[2] > self.tol or self.rapid)
        return self.active

    def accept(self, y, res_arr):
        """Move to the admissible trial point ``y`` with residual ``res_arr``."""
        prev = self.res
        self.y = y
        self.eta, self.res = _residual_norm(res_arr, self.precond)
        self.history.append(self.res)
        self.rapid = self.to_floor and self.floor < self.res <= 0.1 * prev
        if self.res < self.best[2]:
            self.stall = 0 if self.res < 0.9 * self.best[2] else self.stall + 1
            self.best = y, res_arr, self.res
        else:
            self.stall += 1
        self.active = self.stall < 2


def _solve_roots(residual, ys0, preconds, sign, opts, label, stop_tol=None):
    """Drive a stack of independent root problems to zero in lockstep.

    ``residual(ys, idx)`` returns the residuals of the members ``idx`` (an
    index array into the stack) at the points ``ys``, one row each, from one
    stacked energy call; it may raise a package error when a point leaves
    the admissible set.  ``ys0`` holds one initial guess per member and
    ``preconds`` one preconditioner.  Returns the solutions, shaped like
    ``ys0``, and the members (``_Member``), whose ``history`` and
    ``polished`` say how each solve went.

    Every member stops by its own rule, and only the active members enter
    the next stacked call.  With ``stop_tol`` a member stops as soon as its
    preconditioned residual is at most stop_tol * (1 + its initial
    residual); without it, it accepts at opts.fixed_point_tol but polishes
    on towards the rounding floor.  A member whose fixed point stalls above
    its tolerance hands its best iterate to ``_newton_polish``.
    NoConvergence, labelled ``label`` (plus "problem i/S" in a stack of
    several), is raised when that stalls too, or when a member's initial
    guess is not admissible.
    """
    opts = opts or _DEFAULT_OPTIONS
    count = len(ys0)

    def name(i):
        return f"{label} problem {i + 1}/{count}" if count > 1 else label

    # non-finite residuals are handled explicitly, so overflow in wildly
    # inadmissible trial steps is expected and silenced
    with np.errstate(over="ignore", invalid="ignore"):
        # Without a stop tolerance, keep polishing past the tolerance down to
        # the rounding floor while consecutive sweeps gain a full digit (the
        # map is strongly contractive for nearby curves): exp2 / log2 and the
        # Schild rungs behind transport_path, cov_deriv and riemann_tensor
        # divide their answer by small step sizes and need every digit that
        # comes this cheap.  transport_path saves sweeps by warm-starting its
        # rungs, not by stopping early.  exp_k passes
        # stop_tol = fixed_point_tol / K and stops at it instead.
        to_floor = stop_tol is None
        tol = opts.fixed_point_tol if to_floor else stop_tol
        members = []
        for i, out in enumerate(_residuals(residual, ys0, np.arange(count))):
            if isinstance(out, str):
                raise NoConvergence(f"{name(i)}: initial guess not admissible: {out}")
            members.append(_Member(ys0[i], out, preconds[i], tol, to_floor))
        for _ in range(opts.fixed_point_max_iters):
            active = [i for i, m in enumerate(members) if m.wants_sweep()]
            if not active:
                break
            steps = [sign * members[i].eta for i in active]
            trials = np.stack([members[i].y + step for i, step in zip(active, steps)])
            outs = _residuals(residual, trials, np.array(active))
            for i, step, y_new, out in zip(active, steps, trials, outs):
                m = members[i]
                if isinstance(out, str):
                    # damp this member alone, from half its step
                    trial = next(
                        _trial_steps(_member_residual(residual, i), m.y, 0.5 * step, 7), None
                    )
                    if trial is None:
                        m.active = False  # hand over to the Newton polish
                        continue
                    _, y_new, out = trial
                m.accept(y_new, out)

        sols = np.empty_like(ys0)
        for i, m in enumerate(members):
            y, res_arr, res = m.best
            if res > m.tol:
                m.polished = True
                y, res = _newton_polish(_member_residual(residual, i), y, res_arr, m.precond, m.tol)
                if y is None:
                    raise NoConvergence(
                        f"{name(i)}: preconditioned residual {res:.3e} above "
                        f"tolerance {m.tol:.3e}"
                    )
            sols[i] = y
        return sols, members


class _FactorCache:
    """The preconditioner of one solve type along a sequential loop, its
    inverse reused from solve to solve (a chord method; Kelley, "Iterative
    Methods for Linear and Nonlinear Equations", SIAM 1995, ch. 5).

    ``exp_k`` passes one instance to its steps and ``transport_path`` one to
    each of its two solves per rung, as ``_blocks`` of one-member solves.
    Consecutive anchors differ by O(1/K), so an inverse built at one anchor
    serves the next solves nearly as well.  The solve on a new inverse sets
    the reference: its sweep count and its first sweep's contraction, the
    ratio of the preconditioned residual after that sweep to the one
    before.  A solve on the reused inverse drops it, to be built again at
    the next solve's anchor, when it ends in the Newton polish, takes more
    than one sweep beyond the reference, or contracts in its first sweep by
    more than twice the reference's ratio.  Sweeps that end at or below
    ``FLOOR`` (relative to 1 + the initial residual, as the tolerances are)
    sit on the rounding floor and are not counted.

    A reused preconditioner P' also changes the norm sqrt(R . P'^-1 R) that
    the stop rules measure.  With rho and rho' the contractions of the
    fixed point on a new preconditioner P and on P', the map I - P'^-1 P is
    of order rho + rho', and the two norms agree to a factor
    1 + O(rho + rho'); the ratio rule keeps rho' <= 2 rho, so a stop
    tolerance measured with P' is the same one up to that factor.  The
    floor rule, which keeps a solve going while each sweep gains a digit,
    is what a stale preconditioner can still fool: at rho' near 0.1 it
    stops a to-the-floor solve at fixed_point_tol, digits short of where a
    new one takes it.  So a to-the-floor solve that ends above ``FLOOR`` on
    a reused inverse goes on from where it stopped on a new inverse built
    at its own anchor (see ``_solve_anchored``).
    """

    FLOOR = 1e-14

    def __init__(self):
        self.inverse = None
        self.base = None  # (sweeps, first-sweep contraction) of the reference solve

    def observe(self, members):
        """Take in the one member of a solve on the inverse; False when the
        solve must go on, on a new inverse, because it ended short of the
        rounding floor on a reused one."""
        (member,) = members
        history = member.history
        floor = self.FLOOR * (1.0 + history[0])
        sweeps = sum(res > floor for res in history[1:])
        ratio = history[1] / history[0] if sweeps and history[1] > floor else None
        if self.base is None:
            self.base = sweeps, ratio
            return True
        base_sweeps, base_ratio = self.base
        slower = ratio is not None and base_ratio is not None and ratio > 2.0 * base_ratio
        short = member.to_floor and history[-1] > floor
        if member.polished or sweeps > base_sweeps + 1 or slower or short:
            self.inverse = None
        return not short


def _solve_anchored(residual, ys0, anchors, sign, opts, label, setting, scale=1.0,
                    stop_tol=None, blocks=None):
    """``_solve_roots`` on the inverses that ``_preconditioners`` gives at
    ``anchors`` with ``setting`` = (weights, kind, num_nodes), ``scale``
    and ``blocks``.  With a ``_FactorCache`` as ``blocks``, a solve that
    ends short of the rounding floor on its reused inverse goes on from its
    solution on a new inverse (see ``_FactorCache``).  Returns the
    solutions."""
    preconds = _preconditioners(anchors, *setting, scale, blocks)
    sols, members = _solve_roots(residual, ys0, preconds, sign, opts, label, stop_tol)
    if not isinstance(blocks, _FactorCache) or blocks.observe(members):
        return sols
    return _solve_anchored(residual, sols, anchors, sign, opts, label, setting, scale, stop_tol,
                           blocks)


#: Coefficient increment of the finite-difference Jacobian in _newton_polish,
#: relative to the largest coefficient of the iterate.
_FD_STEP = 1e-6

#: Finite-difference probes per stacked residual call in _newton_polish.
_FD_BLOCK = 32


def _newton_polish(residual, y, res_arr, precond, tol):
    """Damped Newton with a finite-difference Jacobian from the admissible
    iterate ``y``, whose residual ``res_arr`` is given.  Returns the last
    accepted iterate and its preconditioned residual norm, with None in
    place of the iterate when that norm stalls above ``tol``.

    ``residual`` takes one point or a stack of points; the Jacobian's
    probes are evaluated in stacks of at most ``_FD_BLOCK``.  Their
    increment is ``_FD_STEP`` times the largest coefficient of ``y`` (or
    ``_FD_STEP`` when ``y`` is zero), so a problem scaled by lambda takes
    the same steps, scaled by lambda.
    """
    shape = y.shape
    n = y.size
    h = _FD_STEP * (float(np.max(np.abs(y))) or 1.0)
    _, res = _residual_norm(res_arr, precond)
    for _ in range(15):
        if res <= tol:
            return y, res
        jac = np.empty((n, n))
        try:
            for start in range(0, n, _FD_BLOCK):
                cols = np.arange(start, min(start + _FD_BLOCK, n))
                probes = np.repeat(y.reshape(1, n), len(cols), axis=0)
                probes[np.arange(len(cols)), cols] += h
                diffs = residual(probes.reshape(len(cols), *shape)) - res_arr
                jac[:, cols] = diffs.reshape(len(cols), n).T / h
            if not np.all(np.isfinite(jac)):
                return None, res
            delta = np.linalg.solve(jac, -res_arr.ravel()).reshape(shape)
        except (SobcurveError, np.linalg.LinAlgError):
            return None, res
        for _, y_new, cand_arr in _trial_steps(residual, y, delta, 10):
            _, cand_res = _residual_norm(cand_arr, precond)
            if cand_res < res:
                y, res_arr, res = y_new, cand_arr, cand_res
                break
        else:
            return None, res
    return (y if res <= tol else None), res


def el_step(
    prev,
    cur,
    weights: MetricWeights,
    kind: EnergyKind,
    num_nodes: int,
    opts: SolverOptions | None = None,
    init=None,
    *,
    _stop_tol: float | None = None,
    _carry: list | None = None,
    _blocks: dict | None = None,
):
    """One forward Euler-Lagrange step: the curve ``next`` solving

        W_{,2}[prev, cur] + W_{,1}[cur, next] = 0.

    ``prev``, ``cur`` and ``init`` are curves (returns a curve) or coefficient
    stacks of one shape (S, 2N+1, d), S independent problems solved in
    lockstep (returns the stack of their solutions).  The default initial
    guess extrapolates linearly (2 cur - prev); the preconditioner is the
    diagonal Hessian at ``prev``.

    ``_stop_tol`` and ``_carry`` serve ``exp_k``: the first is the solver's
    stop tolerance (see ``_solve_roots``); the second is a one-element list
    holding the stack of partials W_{,2}[prev, cur] or None on entry, and
    the stack of W_{,2}[cur, next] on exit when every member's last gradient
    call was at its accepted ``next`` (None otherwise), so consecutive steps
    share those partials.  ``_blocks`` is as in ``_preconditioners``.
    """
    stacks, curves = _stacks((prev, cur) if init is None else (prev, cur, init),
                             "el_step arguments")
    prev, cur = stacks[:2]
    fixed = _carry[0] if _carry is not None else None
    if fixed is None:
        fixed = w_grad(prev, cur, weights, kind, num_nodes)[1]
    last = {}  # member -> its latest iterate and W_{,2}[cur, iterate]

    def residual(ys, idx):
        g_cur, g_next = w_grad(cur[idx], ys, weights, kind, num_nodes)
        for row, i in enumerate(idx):
            last[i] = ys[row], g_next[row]
        return fixed[idx] + g_cur

    y0 = stacks[2] if init is not None else 2.0 * cur - prev
    sols = _solve_anchored(residual, y0, prev, +1.0, opts, "el_step", (weights, kind, num_nodes),
                           stop_tol=_stop_tol, blocks=_blocks)
    if _carry is not None:
        carried = all(np.array_equal(last[i][0], sol) for i, sol in enumerate(sols))
        _carry[0] = np.array([last[i][1] for i in range(len(sols))]) if carried else None
    return FourierCurve.from_coeffs(sols[0]) if curves else sols


def el_midpoint(
    c_a,
    c_b,
    weights: MetricWeights,
    kind: EnergyKind,
    num_nodes: int,
    opts: SolverOptions | None = None,
    init=None,
    *,
    _blocks: dict | None = None,
):
    """The middle curve x of the two-segment discrete geodesic from c_a to
    c_b, i.e. the solution of W_{,2}[c_a, x] + W_{,1}[x, c_b] = 0, from
    ``init`` or the corner average.

    Curves give a curve; coefficient stacks of one shape (S, 2N+1, d) give
    the stack of the S solutions, solved in lockstep.  ``_blocks`` is as in
    ``_preconditioners``.
    """
    stacks, curves = _stacks((c_a, c_b) if init is None else (c_a, c_b, init),
                             "el_midpoint arguments")
    c_a, c_b = stacks[:2]

    def residual(xs, idx):
        # both segments a -> x -> b of every member in one stacked call
        gh, gc = w_grad(
            np.concatenate((c_a[idx], xs)), np.concatenate((xs, c_b[idx])),
            weights, kind, num_nodes,
        )
        return gc[: len(xs)] + gh[len(xs):]

    y0 = stacks[2] if init is not None else 0.5 * (c_a + c_b)
    sols = _solve_anchored(residual, y0, c_a, -1.0, opts, "el_midpoint", (weights, kind, num_nodes),
                           scale=2.0, blocks=_blocks)
    return FourierCurve.from_coeffs(sols[0]) if curves else sols


def exp2(
    c0: FourierCurve,
    v: FourierCurve,
    weights: MetricWeights,
    kind: EnergyKind,
    num_nodes: int,
    opts: SolverOptions | None = None,
) -> FourierCurve:
    """Single-step discrete exponential: the endpoint c2 of the two-segment
    discrete geodesic leaving c0 with initial velocity v (so c1 = c0 + v/2)."""
    return el_step(c0, c0 + v * 0.5, weights, kind, num_nodes, opts)


def log2(
    c0: FourierCurve,
    c2: FourierCurve,
    weights: MetricWeights,
    kind: EnergyKind,
    num_nodes: int,
    opts: SolverOptions | None = None,
) -> FourierCurve:
    """Single-step discrete logarithm: v = 2 (c1 - c0) with c1 the midpoint
    curve of the two-segment discrete geodesic from c0 to c2.  Inverse of
    exp2 up to solver tolerance."""
    mid = el_midpoint(c0, c2, weights, kind, num_nodes, opts)
    return (mid - c0) * 2.0


#: Row p: the weights (-1)^j C(p+1, j+1), newest sample first (j = 0..p),
#: of the degree-p polynomial extrapolation one step ahead from p + 1
#: equally spaced samples, e.g. 3, -3, 1 for p = 2; zero for j > p.
_BINOMIAL = np.array(
    [[(-1) ** j * math.comb(p + 1, j + 1) for j in range(6)] for p in range(6)], dtype=float
)


@functools.lru_cache(maxsize=None)
def _scoring(count, strides, degrees):
    """The candidates (stride, degree) that ``count`` samples let
    ``_predict`` score, and the matrix whose product with the flattened
    samples gives their errors.  Candidate (s, p) predicts each of the
    newest min(max(strides), count - (p + 1) s) samples from the samples
    s, 2s, .., (p + 1)s places older; its rows of the matrix are the
    newest samples minus those predictions, one row per scored sample.
    Returns the candidates, the index of each one's first row, and the
    read-only matrix."""
    window = max(strides)
    candidates, starts, rows = [], [], []
    for s in strides:
        for p in degrees:
            span = (p + 1) * s
            if count <= span:
                continue
            candidates.append((s, p))
            starts.append(len(rows))
            for i in range(min(window, count - span)):
                row = np.zeros(count)
                row[i] = 1.0
                row[i + s : i + span + 1 : s] = -_BINOMIAL[p, : p + 1]
                rows.append(row)
    matrix = np.array(rows).reshape(len(rows), count)
    matrix.setflags(write=False)
    return candidates, starts, matrix


def _predict(history, strides=(1,), degrees=(2, 3, 4, 5)):
    """Start for the next member of a sequence, from the coefficient stack
    ``history`` of its members so far, newest first.

    The candidates are the polynomial extrapolations of each degree p in
    ``degrees`` (at most 5) through every s-th sample, for each stride s in
    ``strides``: s = 1 extrapolates the sequence itself, and a larger s the
    samples in the same phase of a sequence with a kink every s members.
    It reads the newest max(strides) (max(degrees) + 1) + 1 members, 7 for
    the default candidates, and scores each candidate they allow by how
    well it predicted the newest max(strides) samples it can reach (the
    max-abs error over coefficients and samples); the best one, the lowest
    stride and degree on a tie, predicts the next member.  With no
    candidate to score, one, two or three samples or more give the
    constant, linear (2 c_1 - c_0) or quadratic extrapolation.  Returns the
    predicted coefficient array.
    """
    samples = history[: max(strides) * (max(degrees) + 1) + 1]
    candidates, starts, matrix = _scoring(len(samples), tuple(strides), tuple(degrees))
    stride, degree = 1, min(len(samples), 3) - 1
    if candidates:
        errors = np.max(np.abs(matrix @ samples.reshape(len(samples), -1)), axis=1)
        stride, degree = candidates[int(np.argmin(np.maximum.reduceat(errors, starts)))]
    terms = [x * w for x, w in zip(samples[stride - 1 :: stride], _BINOMIAL[degree, : degree + 1])]
    return sum(terms[1:], terms[0])


def exp_k(
    c0: FourierCurve,
    v: FourierCurve,
    num_segments: int,
    weights: MetricWeights,
    kind: EnergyKind,
    num_nodes: int,
    opts: SolverOptions | None = None,
) -> DiscretePath:
    """K-step discrete exponential: c1 = c0 + v/K, then forward EL steps.

    Returns the whole path; its final curve approximates the time-1 geodesic
    endpoint with initial velocity v.  A stalled step raises NoConvergence
    whose ``partial`` is the path c_0..c_k finished before it.

    Each step stops at the preconditioned residual fixed_point_tol / K
    (relative), so the velocity error K * (position error) stays at
    fixed_point_tol.  Each step starts from ``_predict`` of the curves so
    far: the polynomial extrapolation of degree 2 to 5 through the last
    curves that best predicted the step just solved, high degrees where the
    path is smooth and low ones where rounding dominates the differences;
    before there is a step to score, the first step starts from 2 c_1 - c_0
    and the second from 3 c_2 - 3 c_1 + c_0.  Each step reuses the
    partial W_{,2}[c_{k-1}, c_k] the previous step already computed, and
    the inverse of an earlier step's preconditioner until a step on it
    needs more than one sweep beyond the step that built it, contracts in
    its first sweep by more than twice that step's ratio, or ends in the
    Newton polish (see ``_FactorCache``); the stop tolerance is measured
    with the inverse the step used.
    """
    _require_count(num_segments, "num_segments")
    opts = opts or _DEFAULT_OPTIONS
    stop_tol = opts.fixed_point_tol / num_segments
    c0, v = _stack([c0, v])
    curves = np.empty((num_segments + 1, *c0.shape))
    curves[0], curves[1] = c0, c0 + v * (1.0 / num_segments)
    carry, factors = [None], _FactorCache()
    for k in range(1, num_segments):
        init = _predict(curves[k::-1])[None]
        try:
            curves[k + 1] = el_step(curves[k - 1 : k], curves[k : k + 1], weights, kind,
                                    num_nodes, opts, init, _stop_tol=stop_tol, _carry=carry,
                                    _blocks=factors)[0]
        except NoConvergence as err:
            stalled = NoConvergence(f"exp_k stalled at step {k + 1}/{num_segments}: {err}")
            stalled.partial = _path_of(curves[: k + 1])
            raise stalled from err
    return _path_of(curves)


# ---------------------------------------------------------------------------
# Boundary value problem
# ---------------------------------------------------------------------------


def _path_preconditioner(a, b, weights, kind, num_nodes, shape):
    """The function that applies the initial inverse Hessian of the
    interior-point optimization to a flat path vector of ``shape`` (K-1, 2N+1, d),
    between the endpoint coefficient arrays ``a`` and ``b``.

    Near the linear path the energy Hessian is approximately
    K * (T kron H kron I_d) with T = tridiag(-1, 2, -1) over the interior
    time indices and H the scalar block of the diagonal energy Hessian, so
    its inverse factorizes into a time solve and a coefficient solve.  H
    changes along the path, so the coefficient solve blends the endpoints'
    blocks: with H_a = L_a L_a^T and H_b = L_b L_b^T from ``_hessian_block``
    and the lower-triangular F_a = L_a^-1, F_b = L_b^-1, interior curve i
    takes S_i = (1 - i/K) F_a + (i/K) F_b, and

        P^-1 = S^T (T^-1 kron I) S / K,   S = diag(S_1, .., S_{K-1}).

    Every S_i is lower triangular with a positive diagonal, so P^-1 is
    symmetric positive definite for any endpoints; at H_a = H_b it is
    T^-1 kron H^-1 / K, the inverse of the Kronecker Hessian at one block.
    S and S^T are applied as blends of two batched matmuls of (2N+1) x d
    blocks, each below OpenBLAS's threading size, so no blended factor is
    ever formed.  The time solve is T's discrete Green's function, worked
    out with two cumulative sums:

        q_i = [(K - i) sum_{j <= i} j f_j + i sum_{j > i} (K - j) f_j] / K.
    """
    f_a, f_b = (np.tril(np.linalg.inv(_hessian_block(c, weights, kind, num_nodes)[1]))
                for c in (a, b))
    k = shape[0] + 1
    i = np.arange(1.0, k)[:, None, None]  # the interior time indices
    theta = i / k

    def blend(x, fa, fb):
        return (1.0 - theta) * np.matmul(fa, x) + theta * np.matmul(fb, x)

    def apply(flat):
        f = blend(flat.reshape(shape), f_a, f_b)
        below = np.cumsum(i * f, axis=0)
        above = np.zeros_like(f)  # sum_{j > i} (K - j) f_j; zero at i = K - 1
        above[:-1] = np.cumsum(((k - i) * f)[:0:-1], axis=0)[::-1]
        return blend(((k - i) * below + i * above) / k**2, f_a.T, f_b.T).ravel()

    return apply


def _dot(a, b):
    """Inner product of two path vectors in numpy's own loop: OpenBLAS's
    ddot splits vectors above 10 000 entries over its thread pool, which
    the boundary value solver's path vectors reach at N = 40, K = 64."""
    return float(np.einsum("i,i->", a, b))


def _norm(a):
    return float(np.sqrt(_dot(a, a)))


def _two_loop(memory, h0_apply, g):
    q = g.copy()
    alphas = []
    for s, yv, rho in reversed(memory):
        a = rho * _dot(s, q)
        alphas.append(a)
        q -= a * yv
    r = h0_apply(q)
    for (s, yv, rho), a in zip(memory, reversed(alphas)):
        b = rho * _dot(yv, r)
        r += (a - b) * s
    return r


def solve_bvp(
    c_a: FourierCurve,
    c_b: FourierCurve,
    num_segments: int,
    weights: MetricWeights,
    kind: EnergyKind,
    num_nodes: int,
    opts: SolverOptions | None = None,
    init_path: DiscretePath | None = None,
    return_info: bool = False,
):
    """Discrete geodesic between fixed endpoints: minimize the discrete path
    energy over the interior curves with limited-memory quasi-Newton descent.

    The initialization is the coefficient-linear path unless ``init_path``
    supplies a warm start (its endpoints are replaced by c_a, c_b).  The
    Armijo line search halves the step through ``_trial_steps``: each trial
    point gets one value+grad pass, and an accepted step keeps its gradient.
    Steps that leave the immersed set or hit an infinite energy are
    rejected, so the returned energy never exceeds the initial one.  An
    initial path of infinite energy raises InfiniteEnergy, at K = 1 too.  With
    ``return_info`` the result is (path, info dict with iterations / energy /
    grad_norm).

    The initial inverse Hessian of the L-BFGS two-loop recursion (Nocedal
    & Wright, "Numerical Optimization", 2nd ed., section 7.2) is
    ``_path_preconditioner`` between the padded endpoints: the time
    solve of the linear path's Hessian, with the inverse Cholesky factors
    of the endpoints' Hessian blocks blended from c_a to c_b.
    """
    opts = opts or _DEFAULT_OPTIONS
    if c_a.dim != c_b.dim:
        raise ValueError("endpoints must share the ambient dimension")
    if init_path is not None and init_path.dim != c_a.dim:
        raise ValueError("init_path must share the endpoints' ambient dimension")
    n = max(c_a.order, c_b.order, init_path.order if init_path is not None else 0)
    c_a, c_b = pad(c_a, n), pad(c_b, n)
    check_m = max(_default_nodes(c_a.order), num_nodes)
    for label, c in (("c_a", c_a), ("c_b", c_b)):
        if min_speed(c, check_m) <= SPEED_FLOOR:
            raise DegenerateCurve(f"endpoint {label} is not immersed")
    _require_count(num_segments, "num_segments")
    k = num_segments

    a_arr, b_arr = c_a.coeffs, c_b.coeffs
    if init_path is not None:
        if init_path.num_segments != k:
            raise ValueError("init_path has the wrong number of segments")
        interior = _stack(init_path.curves, n)[1:-1]
    else:
        interior = _linear_stack(a_arr, b_arr, k)[1:-1]  # (0, 2N+1, d) at K = 1
    j = _first_degenerate(interior, check_m)
    if j is not None:
        raise DegenerateInit(f"initial interior curve {j + 1} is not immersed")

    shape = interior.shape

    def stack_of(flat):
        return np.concatenate((a_arr[None], flat.reshape(shape), b_arr[None]))

    def energy_and_grad(flat):
        # one vector: the gradient over the interior curves, then the energy
        stack = stack_of(flat)
        val, gh, gc = w_value_and_grad(stack[:-1], stack[1:], weights, kind, num_nodes)
        # interior curve j ends segment j-1 and starts segment j
        return np.append(k * (gh[1:] + gc[:-1]), k * float(np.sum(val)))

    x = interior.ravel()
    stack = stack_of(x)  # the one value pass; it reads q <= 0 as +inf
    f0 = k * float(np.sum(w_eval(stack[:-1], stack[1:], weights, kind, num_nodes)))
    if not np.isfinite(f0):
        raise InfiniteEnergy(
            "initial path has infinite energy (tangent correlation q <= 0)"
        )
    if k == 1:
        path = DiscretePath((c_a, c_b))
        return (path, {"iterations": 0, "energy": f0, "grad_norm": 0.0}) if return_info else path
    fg = energy_and_grad(x)
    f, g = float(fg[-1]), fg[:-1]
    gnorm = _norm(g)
    tol = opts.grad_tol * (1.0 + gnorm)
    h0 = _path_preconditioner(a_arr, b_arr, weights, kind, num_nodes, shape)
    memory = []
    iters = 0

    while gnorm > tol:
        if iters >= opts.max_iters:
            raise MaxIters(
                f"boundary value solver: gradient norm {gnorm:.3e} above "
                f"tolerance {tol:.3e} after {iters} iterations"
            )
        direction = -_two_loop(memory, h0, g)
        slope = _dot(g, direction)
        if slope >= 0.0:
            memory.clear()
            direction = -h0(g)
            slope = _dot(g, direction)
        # Each segment energy is assembled from O(1)-magnitude integrands
        # that cancel down to O(1/K^2), so the total energy carries an
        # absolute rounding noise of roughly eps * K^(3/2); descent smaller
        # than that is invisible to the Armijo test even though the gradient
        # (whose noise does not grow with the energy scale) still resolves it.
        noise = 64.0 * np.finfo(float).eps * (1.0 + abs(f)) * k**1.5
        resolved = -slope > noise
        full = step = None
        for alpha, x_new, fg in _trial_steps(energy_and_grad, x, direction, 30 if resolved else 1):
            full = (x_new, fg) if alpha == 1.0 else full
            if resolved and fg[-1] <= f + 1e-4 * alpha * slope:
                step = x_new, fg
                break
        if step is None and full and not (resolved and memory):
            # the energy cannot resolve the descent, or no trial passed and
            # there is no memory to drop; take the full step if it still
            # contracts the gradient (the preconditioned fixed-point map is
            # contractive near the minimizer)
            step = full if _norm(full[1][:-1]) < gnorm else None
        if step is None:
            if not memory:
                raise MaxIters(
                    f"boundary value solver: stalled at gradient norm "
                    f"{gnorm:.3e} above tolerance {tol:.3e}"
                )
            memory.clear()  # retry from the preconditioned gradient
            iters += 1
            continue
        x_new, fg = step
        s, yv = x_new - x, fg[:-1] - g
        sy = _dot(s, yv)
        if sy > 1e-12 * _norm(s) * _norm(yv):
            memory.append((s, yv, 1.0 / sy))
            if len(memory) > 10:
                memory.pop(0)
        x, f, g = x_new, float(fg[-1]), fg[:-1]
        gnorm = _norm(g)
        iters += 1

    path = _path_of(stack_of(x))
    if return_info:
        return path, {"iterations": iters, "energy": f if iters else f0, "grad_norm": gnorm}
    return path


def bvp_ladder(
    c_a: FourierCurve,
    c_b: FourierCurve,
    k_values,
    weights: MetricWeights,
    kind_for,
    num_nodes: int,
    opts: SolverOptions | None = None,
):
    """Solve the boundary value problem for each K in ascending ``k_values``,
    warm-starting every solve from the previous solution resampled in time.

    ``kind_for`` is either a fixed EnergyKind or a callable K -> EnergyKind
    (for epsilon rules tied to the time step).  Every K must be an integer
    >= 1, and its kind an EnergyKind; a bad one raises ValueError or
    TypeError before the first solve.  Returns {K: DiscretePath}.
    """
    k_values = list(k_values)
    for k in k_values:
        _require_count(k, "each K of k_values")
    ks = sorted(set(int(k) for k in k_values))
    pick = kind_for if callable(kind_for) else (lambda _k: kind_for)
    kinds = {k: _require_kind(pick(k), f"kind_for at K = {k}") for k in ks}
    out = {}
    prev = None
    for k in ks:
        init = resample_path(prev, k) if prev is not None else None
        out[k] = solve_bvp(
            c_a, c_b, k, weights, kinds[k], num_nodes, opts, init_path=init
        )
        prev = out[k]
    return out

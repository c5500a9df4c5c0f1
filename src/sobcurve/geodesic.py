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
twice the diagonal energy Hessian as the preconditioner and an optional
finite-difference Newton polish when the contraction is too slow.
"""

from __future__ import annotations

import dataclasses
import numbers

import numpy as np
import scipy.linalg

from .curve import FourierCurve, _min_speeds, min_speed, pad
from .energy import (
    EnergyKind,
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


def _check_nodes(order: int) -> int:
    """Grid size used for immersion validation (matches the M = 4N default)."""
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
        stack = np.stack([c.coeffs for c in curves])
        k = _first_degenerate(stack, _check_nodes(first.order))
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
        ts = np.linspace(0.0, 1.0, num_segments + 1)
        return cls(tuple(c_a + (c_b - c_a) * float(t) for t in ts))

    def refine(self) -> "DiscretePath":
        """Insert coefficient midpoints, doubling the number of segments."""
        out = []
        for a, b in zip(self.curves[:-1], self.curves[1:]):
            out.append(a)
            out.append((a + b) * 0.5)
        out.append(self.curves[-1])
        return DiscretePath(tuple(out))


def resample_path(path: DiscretePath, num_segments: int) -> DiscretePath:
    """Linear-in-time resampling of a path onto ``num_segments`` segments."""
    _require_count(num_segments, "num_segments")
    k_old = path.num_segments
    out = []
    for j in range(num_segments + 1):
        t = j / num_segments * k_old
        i = min(int(np.floor(t)), k_old - 1)
        lam = t - i
        if lam == 0.0:
            out.append(path[i])
        else:
            out.append(path[i] * (1.0 - lam) + path[i + 1] * lam)
    return DiscretePath(tuple(out))


@dataclasses.dataclass(frozen=True)
class SolverOptions:
    """Tolerances and budgets for the path solvers.

    grad_tol is relative: the boundary value solver stops at
    grad_tol * (1 + initial gradient norm).  fixed_point_tol bounds the
    preconditioned residual of the Euler-Lagrange step solver, again relative
    to 1 + the initial residual.  How far below it a solve goes depends on
    the caller: ``exp_k`` stops each of its K steps as soon as the residual
    is at most fixed_point_tol / K (a position error in one step becomes a
    velocity error K times larger).  Every other caller -- ``el_step`` and
    ``el_midpoint`` called directly, ``exp2`` / ``log2`` and the Schild
    rungs of ``transport_path``, ``cov_deriv`` and ``riemann_tensor`` --
    accepts at fixed_point_tol but keeps iterating to the rounding floor
    while each sweep still gains a digit, because those results get divided
    by small step sizes.
    """

    grad_tol: float = 1e-8
    max_iters: int = 500
    fixed_point_tol: float = 1e-10
    fixed_point_max_iters: int = 50
    newton_fallback: bool = True

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
    stack = np.stack([c.coeffs for c in path.curves])
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
# The solver below iterates y <- y + sign * P^{-1} R(y) with P a Cholesky
# factorization of (a multiple of) the diagonal energy Hessian, monitoring
# the preconditioned residual norm sqrt(R . P^{-1} R).  When the fixed point
# stalls, it optionally polishes with damped Newton on a finite-difference
# Jacobian.


def _hessian_block(anchor, weights, kind, num_nodes):
    """Scalar block of the diagonal energy Hessian at ``anchor``."""
    try:
        return hessian_scalar_at_diagonal(anchor, weights, kind, num_nodes)
    except SobcurveError:
        # epsilon too large for the kind-specific form; the metric Gram
        # block is an equivalent preconditioner
        return 2.0 * gram_scalar(anchor, weights, anchor.order, num_nodes)


class _Preconditioner:
    """Cholesky solve with the scalar block of the diagonal energy Hessian."""

    def __init__(self, anchor, weights, kind, num_nodes, scale=1.0):
        block = _hessian_block(anchor, weights, kind, num_nodes)
        self._factor = scipy.linalg.cho_factor(scale * block)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Apply to a stacked-coefficient array of shape (2N+1, d)."""
        return scipy.linalg.cho_solve(self._factor, rhs)


def _residual_norm(res_arr, precond):
    eta = precond.solve(res_arr)
    return eta, float(np.sqrt(max(np.sum(res_arr * eta), 0.0)))


def _solve_root(residual, y0, precond, sign, opts, label, stop_tol=None):
    """Drive ``residual`` to zero starting from coefficient array ``y0``.

    residual(y) -> array, may raise a package error when y leaves the
    admissible set (the step is then damped).  Returns the solution array.
    With ``stop_tol`` the solve stops as soon as the preconditioned residual
    is at most stop_tol * (1 + initial residual); without it, it accepts at
    opts.fixed_point_tol but polishes on towards the rounding floor.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _solve_root_impl(residual, y0, precond, sign, opts, label, stop_tol)


def _solve_root_impl(residual, y0, precond, sign, opts, label, stop_tol):
    # non-finite residuals are handled explicitly, so overflow in wildly
    # inadmissible probe steps is expected and silenced by the caller
    y = y0
    res_arr = residual(y)
    if not np.all(np.isfinite(res_arr)):
        raise NoConvergence(f"{label}: residual not finite at the initial guess")
    eta, res = _residual_norm(res_arr, precond)
    polish = stop_tol is None
    tol = (opts.fixed_point_tol if polish else stop_tol) * (1.0 + res)
    best_y, best_res = y, res
    stall = 0
    # Without a stop tolerance, keep polishing past the tolerance down to the
    # rounding floor while consecutive sweeps gain a full digit (the map is
    # strongly contractive for nearby curves): exp2 / log2 and the Schild
    # rungs behind transport_path, cov_deriv and riemann_tensor divide their
    # answer by small step sizes and need every digit that comes this cheap.
    # exp_k passes stop_tol = fixed_point_tol / K and stops at it instead.
    rapid = polish and res > 0.0
    for _ in range(opts.fixed_point_max_iters):
        if best_res <= tol and not rapid:
            break
        step = sign * eta
        y_new = y + step
        for _ in range(8):
            try:
                res_arr = residual(y_new)
            except SobcurveError:
                res_arr = None
            if res_arr is not None and np.all(np.isfinite(res_arr)):
                break
            # inadmissible or overflowing step: damp it
            step = 0.5 * step
            y_new = y + step
        else:
            break  # hand over to the fallback from the best iterate
        y = y_new
        prev = res
        eta, res = _residual_norm(res_arr, precond)
        rapid = polish and res <= 0.1 * prev
        if res < best_res:
            improved = res < 0.9 * best_res
            best_y, best_res = y, res
            stall = 0 if improved else stall + 1
        else:
            stall += 1
        if stall >= 2:
            break

    if best_res <= tol:
        return best_y
    if opts.newton_fallback:
        polished = _newton_polish(residual, best_y, precond, tol, opts, label)
        if polished is not None:
            return polished
    raise NoConvergence(
        f"{label}: preconditioned residual {best_res:.3e} above tolerance {tol:.3e}"
    )


def _newton_polish(residual, y, precond, tol, opts, label, fd_step=1e-6):
    """Damped Newton with a finite-difference Jacobian; None when it stalls."""
    shape = y.shape
    n = y.size
    try:
        res_arr = residual(y)
    except SobcurveError:
        return None
    if not np.all(np.isfinite(res_arr)):
        return None
    _, res = _residual_norm(res_arr, precond)
    for _ in range(15):
        if res <= tol:
            return y
        jac = np.empty((n, n))
        flat = y.ravel()
        try:
            for i in range(n):
                probe = flat.copy()
                probe[i] += fd_step
                jac[:, i] = (residual(probe.reshape(shape)) - res_arr).ravel() / fd_step
            if not np.all(np.isfinite(jac)):
                return None
            delta = np.linalg.solve(jac, -res_arr.ravel()).reshape(shape)
        except (SobcurveError, np.linalg.LinAlgError):
            return None
        accepted = False
        for _ in range(10):
            try:
                cand_arr = residual(y + delta)
            except SobcurveError:
                delta = 0.5 * delta
                continue
            if not np.all(np.isfinite(cand_arr)):
                delta = 0.5 * delta
                continue
            _, cand_res = _residual_norm(cand_arr, precond)
            if cand_res < res:
                y, res_arr, res = y + delta, cand_arr, cand_res
                accepted = True
                break
            delta = 0.5 * delta
        if not accepted:
            return y if res <= tol else None
    return y if res <= tol else None


def el_step(
    prev: FourierCurve,
    cur: FourierCurve,
    weights: MetricWeights,
    kind: EnergyKind,
    num_nodes: int,
    opts: SolverOptions | None = None,
    init: FourierCurve | None = None,
    *,
    _stop_tol: float | None = None,
    _carry: list | None = None,
) -> FourierCurve:
    """One forward Euler-Lagrange step: the curve ``next`` solving

        W_{,2}[prev, cur] + W_{,1}[cur, next] = 0.

    The default initial guess extrapolates linearly (2 cur - prev); the
    preconditioner is the diagonal Hessian at ``prev``.

    ``_stop_tol`` and ``_carry`` serve ``exp_k``: the first is the solver's
    stop tolerance (see ``_solve_root``); the second is a one-element list
    holding W_{,2}[prev, cur] or None on entry, and W_{,2}[cur, next] on
    exit when the solver's last gradient call was at the accepted ``next``
    (None otherwise), so consecutive steps share that partial.
    """
    opts = opts or _DEFAULT_OPTIONS
    n = max(prev.order, cur.order, init.order if init is not None else 0)
    prev, cur = pad(prev, n), pad(cur, n)
    base = cur.coeffs
    fixed = _carry[0] if _carry is not None else None
    if fixed is None:
        fixed = w_grad(prev.coeffs[None], base[None], weights, kind, num_nodes)[1][0]
    last = [None, None]  # the latest iterate and its W_{,2}[cur, iterate]

    def residual(y):
        g_cur, g_next = w_grad(base[None], y[None], weights, kind, num_nodes)
        last[:] = y, g_next[0]
        return fixed + g_cur[0]

    precond = _Preconditioner(prev, weights, kind, num_nodes)
    y0 = (pad(init, n).coeffs if init is not None else 2.0 * base - prev.coeffs).copy()
    sol = _solve_root(residual, y0, precond, +1.0, opts, "el_step", _stop_tol)
    if _carry is not None:
        _carry[0] = last[1] if np.array_equal(last[0], sol) else None
    return FourierCurve.from_coeffs(sol)


def el_midpoint(
    c_a: FourierCurve,
    c_b: FourierCurve,
    weights: MetricWeights,
    kind: EnergyKind,
    num_nodes: int,
    opts: SolverOptions | None = None,
    init: FourierCurve | None = None,
) -> FourierCurve:
    """The middle curve x of the two-segment discrete geodesic from c_a to
    c_b, i.e. the solution of W_{,2}[c_a, x] + W_{,1}[x, c_b] = 0."""
    opts = opts or _DEFAULT_OPTIONS
    n = max(c_a.order, c_b.order, init.order if init is not None else 0)
    c_a, c_b = pad(c_a, n), pad(c_b, n)
    a_arr, b_arr = c_a.coeffs, c_b.coeffs

    def residual(x_arr):
        # both segments a -> x -> b in one stacked call
        gh, gc = w_grad(
            np.stack((a_arr, x_arr)), np.stack((x_arr, b_arr)), weights, kind, num_nodes
        )
        return gc[0] + gh[1]

    precond = _Preconditioner(c_a, weights, kind, num_nodes, scale=2.0)
    y0 = (pad(init, n).coeffs if init is not None else 0.5 * (c_a.coeffs + c_b.coeffs)).copy()
    sol = _solve_root(residual, y0, precond, -1.0, opts, "el_midpoint")
    return FourierCurve.from_coeffs(sol)


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
    fixed_point_tol.  From the second step on it starts from the quadratic
    extrapolation 3 c_k - 3 c_{k-1} + c_{k-2}, and it reuses the partial
    W_{,2}[c_{k-1}, c_k] the previous step already computed.
    """
    _require_count(num_segments, "num_segments")
    opts = opts or _DEFAULT_OPTIONS
    stop_tol = opts.fixed_point_tol / num_segments
    c0 = pad(c0, v.order)
    curves = [c0, c0 + v * (1.0 / num_segments)]
    carry = [None]
    for k in range(1, num_segments):
        init = curves[-1] * 3.0 - curves[-2] * 3.0 + curves[-3] if k >= 2 else None
        try:
            curves.append(
                el_step(curves[-2], curves[-1], weights, kind, num_nodes, opts, init,
                        _stop_tol=stop_tol, _carry=carry)
            )
        except NoConvergence as err:
            stalled = NoConvergence(f"exp_k stalled at step {k + 1}/{num_segments}: {err}")
            stalled.partial = DiscretePath(tuple(curves))
            raise stalled from err
    return DiscretePath(tuple(curves))


# ---------------------------------------------------------------------------
# Boundary value problem
# ---------------------------------------------------------------------------


class _PathPreconditioner:
    """Initial inverse Hessian for the interior-point optimization.

    Near the linear path the energy Hessian is approximately
    K * (T kron H) with T the second-difference matrix over interior time
    indices and H the diagonal energy Hessian at a representative curve, so
    its inverse factorizes into a banded time solve and a Cholesky
    coefficient solve.
    """

    def __init__(self, anchor, weights, kind, num_nodes, num_segments):
        k = num_segments
        self._factor = scipy.linalg.cho_factor(
            _hessian_block(anchor, weights, kind, num_nodes)
        )
        if k - 1 == 1:
            bands = np.array([[2.0]])
        else:
            bands = np.zeros((2, k - 1))
            bands[0, 1:] = -1.0
            bands[1, :] = 2.0
        self._bands = bands
        self._k = k

    def __call__(self, flat, shape):
        interior, rows, dim = shape
        q = flat.reshape(interior, rows, dim)
        q = scipy.linalg.cho_solve(
            self._factor, q.transpose(1, 0, 2).reshape(rows, interior * dim)
        ).reshape(rows, interior, dim).transpose(1, 0, 2)
        q = scipy.linalg.solveh_banded(
            self._bands, q.reshape(interior, rows * dim)
        ).reshape(interior, rows, dim)
        return (q / self._k).ravel()


def _two_loop(memory, h0_apply, g):
    q = g.copy()
    alphas = []
    for s, yv, rho in reversed(memory):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * yv
    r = h0_apply(q)
    for (s, yv, rho), a in zip(memory, reversed(alphas)):
        b = rho * float(yv @ r)
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
    supplies a warm start (its endpoints are replaced by c_a, c_b).  Steps
    that leave the immersed set or hit an infinite energy are rejected by the
    backtracking line search, so the returned energy never exceeds the
    initial one.  With ``return_info`` the result is (path, info dict with
    iterations / energy / grad_norm).
    """
    opts = opts or _DEFAULT_OPTIONS
    if c_a.dim != c_b.dim:
        raise ValueError("endpoints must share the ambient dimension")
    n = max(c_a.order, c_b.order, init_path.order if init_path is not None else 0)
    c_a, c_b = pad(c_a, n), pad(c_b, n)
    check_m = max(_check_nodes(c_a.order), num_nodes)
    for label, c in (("c_a", c_a), ("c_b", c_b)):
        if min_speed(c, check_m) <= SPEED_FLOOR:
            raise DegenerateCurve(f"endpoint {label} is not immersed")
    _require_count(num_segments, "num_segments")
    k = num_segments

    a_arr, b_arr = c_a.coeffs, c_b.coeffs
    if init_path is not None:
        if init_path.num_segments != k:
            raise ValueError("init_path has the wrong number of segments")
        interior = np.array([pad(init_path[j], n).coeffs for j in range(1, k)])
    else:
        ts = np.linspace(0.0, 1.0, k + 1)[1:-1]
        interior = np.array([a_arr + (b_arr - a_arr) * t for t in ts])
    if k > 1:
        j = _first_degenerate(interior, check_m)
        if j is not None:
            raise DegenerateInit(f"initial interior curve {j + 1} is not immersed")

    if k == 1:
        path = DiscretePath((c_a, c_b))
        if return_info:
            energy = discrete_path_energy(path, weights, kind, num_nodes)
            return path, {"iterations": 0, "energy": energy, "grad_norm": 0.0}
        return path

    shape = interior.shape

    def stack_of(flat):
        return np.concatenate((a_arr[None], flat.reshape(shape), b_arr[None]))

    def energy_of(flat):
        stack = stack_of(flat)
        return k * float(np.sum(w_eval(stack[:-1], stack[1:], weights, kind, num_nodes)))

    def energy_and_grad(flat):
        stack = stack_of(flat)
        val, gh, gc = w_value_and_grad(stack[:-1], stack[1:], weights, kind, num_nodes)
        # interior curve j ends segment j-1 and starts segment j
        return k * float(np.sum(val)), (k * (gh[1:] + gc[:-1])).ravel()

    x = interior.ravel()
    f0 = energy_of(x)  # package errors (degenerate init data) propagate
    if not np.isfinite(f0):
        raise InfiniteEnergy(
            "initial path has infinite energy (tangent correlation q <= 0)"
        )
    f, g = energy_and_grad(x)
    gnorm = float(np.linalg.norm(g))
    tol = opts.grad_tol * (1.0 + gnorm)
    anchor = FourierCurve.from_coeffs(interior[len(interior) // 2])
    h0 = _PathPreconditioner(anchor, weights, kind, num_nodes, k)
    memory = []
    iters = 0

    while gnorm > tol:
        if iters >= opts.max_iters:
            raise MaxIters(
                f"boundary value solver: gradient norm {gnorm:.3e} above "
                f"tolerance {tol:.3e} after {iters} iterations"
            )
        direction = -_two_loop(memory, lambda q: h0(q, shape), g)
        slope = float(g @ direction)
        if slope >= 0.0:
            memory.clear()
            direction = -h0(g, shape)
            slope = float(g @ direction)
        # Each segment energy is assembled from O(1)-magnitude integrands
        # that cancel down to O(1/K^2), so the total energy carries an
        # absolute rounding noise of roughly eps * K^(3/2); descent smaller
        # than that is invisible to the Armijo test even though the gradient
        # (whose noise does not grow with the energy scale) still resolves it.
        noise = 64.0 * np.finfo(float).eps * (1.0 + abs(f)) * k**1.5
        x_new = None
        if -slope > noise:
            alpha, accepted = 1.0, False
            for _ in range(30):
                try:
                    f_trial = energy_of(x + alpha * direction)
                except SobcurveError:
                    f_trial = np.inf
                if np.isfinite(f_trial) and f_trial <= f + 1e-4 * alpha * slope:
                    accepted = True
                    break
                alpha *= 0.5
            if accepted:
                x_new = x + alpha * direction
                f_new, g_new = energy_and_grad(x_new)
            elif memory:
                memory.clear()  # retry from the preconditioned gradient
                iters += 1
                continue
        if x_new is None:
            # the energy cannot resolve the remaining descent; take the full
            # step if it still contracts the gradient (the preconditioned
            # fixed-point map is contractive near the minimizer)
            try:
                f_cand, g_cand = energy_and_grad(x + direction)
            except SobcurveError:
                f_cand, g_cand = np.inf, None
            if g_cand is None or float(np.linalg.norm(g_cand)) >= gnorm:
                if memory:
                    memory.clear()
                    iters += 1
                    continue
                raise MaxIters(
                    f"boundary value solver: stalled at gradient norm "
                    f"{gnorm:.3e} above tolerance {tol:.3e}"
                )
            x_new, f_new, g_new = x + direction, f_cand, g_cand
        s, yv = x_new - x, g_new - g
        sy = float(s @ yv)
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(yv)):
            memory.append((s, yv, 1.0 / sy))
            if len(memory) > 10:
                memory.pop(0)
        x, f, g = x_new, f_new, g_new
        gnorm = float(np.linalg.norm(g))
        iters += 1

    inner = x.reshape(shape)
    path = DiscretePath((c_a, *(FourierCurve.from_coeffs(c) for c in inner), c_b))
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
    (for epsilon rules tied to the time step).  Returns {K: DiscretePath}.
    """
    ks = sorted(set(int(k) for k in k_values))
    pick = kind_for if callable(kind_for) else (lambda _k: kind_for)
    out = {}
    prev = None
    for k in ks:
        init = resample_path(prev, k) if prev is not None else None
        out[k] = solve_bvp(
            c_a, c_b, k, weights, pick(k), num_nodes, opts, init_path=init
        )
        prev = out[k]
    return out

"""Squared-distance energies between nearby immersed curves.

Two one-parameter families approximate the squared Riemannian distance
``dist(c_hat, c_check)^2`` of the order-m Sobolev metric to second order at
the diagonal.  :class:`EnergyKind` selects one, and ``w_eval``, ``w_grad``
and ``w_value_and_grad`` evaluate either:

* ``EnergyKind.reg(eps)`` (any m >= 2): the blended-metric integrand with
  the curve speed replaced by smoothed upper/lower length bounds
  ``L^{+,eps}, L^{-,eps}``.  The remaining time integrand is polynomial in
  t, integrated exactly by Gauss-Legendre at 2m-1 nodes.  The kernel's jets
  carry those time nodes as one array axis, so a call runs the P_j
  recursion and its reverse sweep once for all nodes.

* ``EnergyKind.rat()`` (m = 2 only): fully closed-form rational/trigonometric
  expression, finite exactly when the tangent correlation
  ``q = c_hat' . c_check'`` is positive at every node, +inf otherwise.

``w_bar_oracle`` is the sharp closed-form bound that keeps the exact
inverse-sinc factor V; it sits between the blended-metric value and the
rational energy and serves as a cross-check oracle.

All energies are evaluated by the trapezium rule on the uniform theta grid
and are exact functions of the sampled jets; ``w_grad`` returns the exact
gradient of the *discrete* value with respect to both curves' Fourier
coefficients.  Both gradients are closed-form reverse sweeps in real
arithmetic.  For the rational energy one pass through the per-node
integrand also yields its six partials in the scalar pairings
(r, p, q, rho, sigma, tau), through every branch: the Taylor guards, the
direct inverse-sinc forms and the tiny-v quadrature fallback.  Those
partials are then chained to the sampled jets and pulled back to the
coefficients.

The three entry points take two curves or two coefficient stacks of one
shape (S, 2N+1, d), the S segments (c_hat[s], c_check[s]) of a discrete
path, and then return S values and (S, 2N+1, d) gradients from one call.
The kernels work on stacks throughout: a batched matmul against the cached
jet matrix samples every derivative order of each member by its own
product, the per-node formulas are elementwise with the segments on an
axis that no reduction crosses, and a batched matmul with the transposed
matrix pulls each member's cotangents back.  A pair of curves is the S = 1
call.  Long stacks are walked in blocks of at most 2048 grid nodes
(2048 // M segments, at least one), which bounds the temporaries.  Each
segment's value, gradients, +inf and error are bit for bit those its own
per-pair call gives, whatever the stack around it, its place in it and
the block walk; a stack raises the error of its first failing segment.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curve import FourierCurve, _jet_matrix_t, _stacks, sample_jet, truncate
from .errors import DegenerateCurve, NonPositiveLowerBound, NonPositiveQ
from .metric import (
    SPEED_FLOOR,
    MetricWeights,
    _gauss01,
    _require_m2,
    _scalar_arclength_ops,
    _weighted_gram,
    gram_scalar,
)

__all__ = [
    "EnergyKind",
    "smooth_max_min",
    "length_bounds",
    "rational_time_integrals",
    "w_bar_oracle",
    "w_eval",
    "w_grad",
    "w_value_and_grad",
    "hessian_at_diagonal",
]


@dataclass(frozen=True)
class EnergyKind:
    """Which squared-distance family to use, with its parameter.

    ``EnergyKind.reg(epsilon)`` selects the smoothed-bound energy;
    ``EnergyKind.rat()`` the closed-form rational one (order m = 2 only).
    """

    name: str
    epsilon: float | None = None

    def __post_init__(self):
        if self.name not in ("reg", "rat"):
            raise ValueError(f"unknown energy kind {self.name!r}")
        if self.name == "reg":
            if self.epsilon is None or not 0.0 < self.epsilon < math.inf:
                raise ValueError("reg energy needs a finite epsilon > 0")
        elif self.epsilon is not None:
            raise ValueError("rat energy takes no epsilon")

    @classmethod
    def reg(cls, epsilon: float) -> "EnergyKind":
        return cls("reg", float(epsilon))

    @classmethod
    def rat(cls) -> "EnergyKind":
        return cls("rat")

    @property
    def is_rat(self) -> bool:
        return self.name == "rat"


def _require_kind(kind, name):
    """Return ``kind``; TypeError naming the argument ``name`` unless it is
    an EnergyKind."""
    if not isinstance(kind, EnergyKind):
        raise TypeError(f"{name} must be an EnergyKind, got {kind!r}")
    return kind


# ---------------------------------------------------------------------------
# Smoothed length bounds
# ---------------------------------------------------------------------------


def _dot(a, b):
    """Inner products over the leading (ambient) axis, the layout of the
    kernels' vectors (d, ...); broadcasts the other axes."""
    return np.einsum("i...,i...->...", a, b)


def _norm(a):
    """Euclidean norms over the leading (ambient) axis."""
    return np.sqrt(_dot(a, a))


def smooth_max_min(alpha, beta, epsilon):
    """Smooth approximations of max/min:

        max_eps = alpha + ((beta-alpha) + hyp)/2,  hyp = sqrt((beta-alpha)^2+eps^2)
        min_eps = alpha + ((beta-alpha) - hyp)/2

    satisfying max_eps(a, a) = a + eps/2 and min_eps(a, a) = a - eps/2.
    """
    return _smooth_max_min(alpha, beta, epsilon)[:2]


def _smooth_max_min(alpha, beta, epsilon):
    """:func:`smooth_max_min` and the slope (beta-alpha)/hyp, which gives
    d max_eps/d beta = d min_eps/d alpha = (1 + slope)/2 and
    d max_eps/d alpha = d min_eps/d beta = (1 - slope)/2."""
    diff = beta - alpha
    hyp = np.sqrt(diff * diff + epsilon * epsilon)
    return alpha + 0.5 * (diff + hyp), alpha + 0.5 * (diff - hyp), diff / hyp


def _length_bound_arrays(hat_prime, check_prime, r, p, epsilon):
    """L^{+,eps} and L^{-,eps} from tangent samples (d, ...), ambient axis
    first, and their speeds r, p (...), for one segment (M,) or a stack
    (S, M); the third result is the tape :func:`_length_bound_grads` reads.

    L^+ is the smoothed maximum of the two speeds.  L^- multiplies the
    clipped smoothed minimum by the mean-direction factor |u/|u| + v/|v||/2,
    which vanishes on tangent reversal.
    """
    lplus, smin, slope = _smooth_max_min(r, p, epsilon)
    units = (hat_prime / r, check_prime / p)
    wsum = units[0] + units[1]
    mean_dir = 0.5 * np.sqrt(_dot(wsum, wsum))
    clipped = np.maximum(smin, 0.0)
    return lplus, mean_dir * clipped, (units, wsum, mean_dir, clipped, slope)


def _length_bound_grads(tape, r, p, bar_lplus, bar_lminus):
    """Propagate cotangents of (L^+, L^-) back to the two tangent samples,
    from the tape of :func:`_length_bound_arrays`.

    Valid where L^- > 0 at every node, which the energy requires: there the
    clip is inactive and w = u/|u| + v/|v| is nonzero, with
    |w| = 2 mean_dir and <u/|u|, w> = <v/|v|, w> = |w|^2 / 2.
    """
    (uhat, vhat), wsum, mean_dir, clipped, slope = tape
    lo, hi = 0.5 * (1.0 - slope), 0.5 * (1.0 + slope)
    lm_dir = bar_lminus * mean_dir
    half_clip = 0.5 * clipped
    # d mean_dir / d hat' = (I - uhat uhat^T) w / (2 |w| r), likewise for check'
    w_coef = bar_lminus * clipped / (4.0 * mean_dir)
    bh = (bar_lplus * lo + lm_dir * (hi - half_clip / r)) * uhat + (w_coef / r) * wsum
    bc = (bar_lplus * hi + lm_dir * (lo - half_clip / p)) * vhat + (w_coef / p) * wsum
    return bh, bc


def length_bounds(
    c_hat: FourierCurve,
    c_check: FourierCurve,
    epsilon: float,
    num_nodes: int,
):
    """Smoothed upper/lower length bounds on the grid; returns (L_plus, L_minus).

    Raises ValueError unless epsilon is finite and positive, as
    ``EnergyKind.reg`` does, and warns when it is so large that the clipped
    minimum can kink (epsilon >= 2 min speed).
    """
    epsilon = EnergyKind.reg(epsilon).epsilon
    hp = sample_jet(c_hat, num_nodes, 1)[1].T
    cp = sample_jet(c_check, num_nodes, 1)[1].T
    r, p = _norm(hp), _norm(cp)
    _check_epsilon(epsilon, _require_immersed(r, p))
    return _length_bound_arrays(hp, cp, r, p, epsilon)[:2]


# ---------------------------------------------------------------------------
# Segment checks
# ---------------------------------------------------------------------------
#
# A stack is checked segment by segment in the order one per-pair call tests
# its pair (speed floor, epsilon warning, then the kind's own condition), so
# the first failing segment raises what its own call would have raised.


def _require_immersed(r, p, earlier=None):
    """Per-segment least speed of the speed samples r, p ((M,) or (S, M)).

    Raises DegenerateCurve for the first segment i whose least speed reaches
    the immersion floor, or is not finite, as any NaN or infinite coefficient
    makes it; ``earlier(i)`` first evaluates the segments before it, so that
    an error of theirs comes first.
    """
    r_min, p_min = r.min(axis=-1), p.min(axis=-1)
    least = np.atleast_1d(np.minimum(r_min, p_min))
    finite = np.isfinite(np.atleast_1d(r_min + p_min))
    first = _first_failure(~finite | (least <= SPEED_FLOOR))
    if first is not None:
        if first:
            earlier(first)
        if not finite[first]:
            raise DegenerateCurve("curve speed not finite: the coefficients hold NaN or infinity")
        raise DegenerateCurve(
            f"curve speed {least[first]:.3e} at or below floor {SPEED_FLOOR:.1e}"
        )
    return least


#: Path prefix of the package's own source files.
_PACKAGE = os.path.dirname(__file__) + os.sep


def _check_epsilon(epsilon, least):
    """Warn when epsilon is so large that the clipped minimum can kink
    (epsilon >= 2 min speed on some segment).  The warning names the first
    caller outside the package, however deep inside it the check ran."""
    if epsilon >= 2.0 * least.min():
        level, frame = 1, sys._getframe()
        while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE):
            level, frame = level + 1, frame.f_back
        warnings.warn(
            f"epsilon {epsilon:.3e} >= twice the minimal speed {least.min():.3e}; "
            "the clipped lower bound may be active",
            RuntimeWarning,
            stacklevel=level,
        )


def _first_failure(bad):
    """Index of the first True entry of a per-segment mask, or None."""
    return int(np.argmax(bad)) if bad.any() else None


# ---------------------------------------------------------------------------
# Truncated jet arithmetic for the P_j recursion (smoothed-bound energy)
# ---------------------------------------------------------------------------
#
# Along the linear blend c_t = (1-t) c_hat + t c_check, the j-th arc-length
# derivative of the velocity field delta = c_check - c_hat obeys
#
#     d_s^j delta = |c_t'|^{2-3j} P_j,   P_1 = delta',
#     P_{j+1} = |c_t'|^2 (P_j)' - (3j-2) (c_t' . c_t'') P_j,
#
# with all primes in theta, so P_j is polynomial in the jets of both curves.
# A "jet" below is the sequence over theta-derivative orders 0..R of a
# quantity on the grid, carried at all Gauss-Legendre time nodes at once:
# vectors have shape (d, T, S, M), ambient axis first, and scalars
# (T, S, M), so a scalar times a vector broadcasts over d with the grid
# axis contiguous.  delta' does not depend on t; its jet keeps a size-1 node
# axis, (d, 1, S, M).  The recursion consumes one derivative order per
# level, which is why leaves are carried to order m-1.
#
# With s2 = |c_t'|^2 and c_t'.c_t'' = s2'/2, the Leibniz rule gives one sum
#
#     P_{j+1}[r] = sum_k kappa_j(r, k) s2[k] P_j[r+1-k],
#     kappa_j(r, k) = C(r, k) - (3j-2)/2 C(r, k-1),
#
# and the jet of s2 is formed from its symmetric half, D[0] = s2[0] and
# D[k] = s2[k]/2 for k >= 1, so each pair <c_l, c_{k-l}> = <c_{k-l}, c_l>
# is formed once.


def _sum(terms):
    """Sum of an iterable of freshly computed arrays, started from the first."""
    terms = iter(terms)
    out = next(terms)
    for term in terms:
        out += term
    return out


def _scaled(c, x):
    """c * x, skipping the multiplication by one."""
    return x if c == 1.0 else c * x


@lru_cache(maxsize=None)
def _pjet_table(m):
    """Terms of the P_j recursion up to order m, with scalar factors folded.

    Entry j-1 lists, for each order r of P_{j+1}, the nonzero terms
    (c, k, 2 kappa) of P_{j+1}[r] = sum c D[k] P_j[r+1-k], where c = kappa
    times the factor (1 or 2) that makes s2[k] of D[k].
    """
    table = []
    for j in range(1, m):
        rows = []
        for r in range(m - j):
            row = []
            for k in range(r + 2):
                kappa = math.comb(r, k) - (1.5 * j - 1.0) * (math.comb(r, k - 1) if k else 0)
                if kappa:
                    row.append((kappa * (2.0 if k else 1.0), k, 2.0 * kappa))
            rows.append(tuple(row))
        table.append(tuple(rows))
    return tuple(table)


def _half_square_jet(cp):
    """The symmetric half D of the jet of |c_t'|^2 from the jet cp of c_t'."""
    return [
        _sum(
            _scaled(math.comb(k, l) / (2.0 if 0 < k == 2 * l else 1.0), _dot(cp[l], cp[k - l]))
            for l in range(k // 2 + 1)
        )
        for k in range(len(cp))
    ]


def _pjet_forward(cp, up, m):
    """P_j jets for j = 1..m from the leaves.

    cp, up: vector jets of c_t' and delta' carried to order m-1.  Returns
    (pjets, scaled): pjets[j-1] is the jet of P_j (orders 0..m-j) and
    ``scaled`` maps each (c, k) of :func:`_pjet_table` to c D[k], which the
    reverse sweep reuses.
    """
    half = _half_square_jet(cp)
    table = _pjet_table(m)
    scaled = {(c, k): _scaled(c, half[k]) for rows in table for row in rows for c, k, _ in row}
    pjets = [up]
    for rows in table:
        prev = pjets[-1]
        pjets.append(
            [_sum(scaled[c, k] * prev[r + 1 - k] for c, k, _ in row) for r, row in enumerate(rows)]
        )
    return pjets, scaled


def _pjet_reverse(cp, m, pjets, scaled, seeds):
    """Adjoint of :func:`_pjet_forward`.

    seeds[j-2] is the cotangent of the order-0 entry of P_j for j = 2..m,
    shape (d, T, S, M); P_1's own seed does not depend on the node and is
    the caller's.  Returns the cotangent jets of c_t' (with the node axis)
    and of P_1 = delta' (summed over the nodes).
    """
    table = _pjet_table(m)
    half_terms = [[] for _ in range(m)]  # terms of 2 * cotangent of s2[k]
    bar = [seeds[-1]]
    for j in range(m - 1, 0, -1):
        prev = pjets[j - 1]
        terms = [[] for _ in range(m - j + 1)]
        if j > 1:
            terms[0].append(seeds[j - 2])
        for r, row in enumerate(table[j - 1]):
            for c, k, twice_kappa in row:
                if j > 1:
                    terms[r + 1 - k].append(scaled[c, k] * bar[r])
                else:  # the t-free leaf takes the node sum at once
                    terms[r + 1 - k].append(np.einsum("t...,it...->i...", scaled[c, k], bar[r]))
                half_terms[k].append(_scaled(twice_kappa, _dot(bar[r], prev[r + 1 - k])))
        bar = [_sum(t) for t in terms]
    bar_half = [_sum(t) for t in half_terms]
    bar_cp = [
        _sum(_scaled(math.comb(k, l), bar_half[k]) * cp[k - l] for k in range(l, m))
        for l in range(m)
    ]
    return bar_cp, bar


@lru_cache(maxsize=None)
def _time_nodes(n: int):
    """The n Gauss-Legendre nodes t and weights on [0, 1] as (n, 1, 1)
    columns ahead of the grid axes (S, M), and the blend weights
    (1 - t, t) as rows of shape (2, n); cached read-only."""
    t, w = _gauss01(n)
    out = (t[:, None, None], w[:, None, None], np.stack((1.0 - t, t)))
    for x in out:
        x.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Smoothed-bound energy (any order m >= 2)
# ---------------------------------------------------------------------------


def _reg_core(hat_c, chk_c, weights, epsilon, num_nodes, want_grad):
    """Smoothed-bound energies of a block of segments, stacks (S, 2N+1, d):
    (values (S,), grad_hat, grad_check), the gradients None unless
    ``want_grad``."""
    m = weights.order
    a = weights.coefficients
    hat, chk = _sample(hat_c, chk_c, num_nodes, m)
    r, p = _norm(hat[1]), _norm(chk[1])
    least = _require_immersed(
        r, p, lambda i: _reg_core(hat_c[:i], chk_c[:i], weights, epsilon, num_nodes, want_grad)
    )
    lplus, lminus, bounds = _length_bound_arrays(hat[1], chk[1], r, p, epsilon)
    first = _first_failure(lminus.min(axis=-1) <= 0.0)
    # the per-pair calls up to the failing one would each have warned
    _check_epsilon(epsilon, least if first is None else least[: first + 1])
    if first is not None:
        raise NonPositiveLowerBound(
            "lower length bound hit zero (epsilon too large or tangents reversed)"
        )
    tw = 2.0 * np.pi / num_nodes
    t, tweights, blend = _time_nodes(2 * m - 1)

    delta0 = chk[0] - hat[0]
    sq0 = _dot(delta0, delta0)
    up = (chk[1:] - hat[1:])[:, :, None]
    cp = hat[1:, :, None] + t * up
    pjets, scaled = _pjet_forward(cp, up, m)
    # Gauss-Legendre time integrals of |P_j|^2; P_1 = delta' is t-free
    qint = [_dot(up[0, :, 0], up[0, :, 0])]
    qint += [np.einsum("t...,it...,it...->...", tweights, pj[0], pj[0]) for pj in pjets[1:]]
    lm_pow = [lminus ** (5 - 6 * j) for j in range(1, m + 1)]
    terms = [a[j] * lm_pow[j - 1] * qint[j - 1] for j in range(1, m + 1)]
    value = tw * np.sum(_sum([a[0] * lplus * sq0] + terms), axis=-1)

    if not want_grad:
        return value, None, None

    bar_lplus = (a[0] * tw) * sq0
    bar_lminus = (tw / lminus) * _sum((5.0 - 6.0 * j) * e for j, e in enumerate(terms, 1))
    bar_h1, bar_c1 = _length_bound_grads(bounds, r, p, bar_lplus, bar_lminus)

    seeds = [
        ((2.0 * a[j] * tw) * lm_pow[j - 1] * tweights) * pjets[j - 1][0]
        for j in range(2, m + 1)
    ]
    bar_cp, bar_up = _pjet_reverse(cp, m, pjets, scaled, seeds)
    bar_up[0] += ((2.0 * a[1] * tw) * lm_pow[0]) * up[0, :, 0]  # P_1's t-free seed
    # c_t' = (1-t) hat' + t check' and P_1 = check' - hat'
    bar_hat, bar_chk = bar = _cotangents(hat)
    bar_chk[0] = ((2.0 * a[0] * tw) * lplus) * delta0
    bar_hat[0] = -bar_chk[0]
    for l in range(m):
        sides = np.einsum("qt,it...->qi...", blend, bar_cp[l])
        bar_hat[l + 1] = sides[0] - bar_up[l]
        bar_chk[l + 1] = sides[1] + bar_up[l]
    bar_hat[1] += bar_h1
    bar_chk[1] += bar_c1

    order = hat_c.shape[1] // 2
    return (value, *_pull_back(bar, order, num_nodes))


# ---------------------------------------------------------------------------
# Stacked sampling
# ---------------------------------------------------------------------------
#
# A block of S segments is the pair of coefficient stacks (hat, check), each
# of shape (S, 2N+1, d).  Batched matmuls sample each member, and pull its
# cotangents back, by its own product with the cached jet matrix.  The
# kernels keep one C-contiguous layout at every S, jets (m+1, d, S, M), so
# numpy runs each reduction over the ambient and time-node axes in one order
# for every member, and every sum over the M grid nodes runs along one
# member's row: a member's numbers are those of its own S = 1 call.


def _sample(hat_c, chk_c, num_nodes, max_order):
    """Jets of orders 0..max_order of two coefficient stacks (S, 2N+1, d),
    shape (max_order+1, d, S, M) each."""
    count, rows, dim = hat_c.shape
    mat = _jet_matrix_t(rows // 2, num_nodes, max_order)
    with np.errstate(invalid="ignore"):  # non-finite speeds fail the segment check
        jets = np.matmul(np.concatenate((hat_c, chk_c)).swapaxes(1, 2), mat)
    jets = jets.reshape(2, count, dim, max_order + 1, num_nodes).transpose(0, 3, 2, 1, 4)
    return tuple(np.ascontiguousarray(jets))


def _cotangents(jets):
    """An empty pair of arrays of the shape of ``jets``, for the cotangents of
    both stacks, stored member by member as :func:`_pull_back` reads them."""
    orders, dim, count, num_nodes = jets.shape
    return np.empty((2, count, dim, orders, num_nodes)).transpose(0, 3, 2, 1, 4)


def _pull_back(bar, order, num_nodes):
    """Pull the cotangents (2, m+1, d, S, M) of both stacks' jets back to
    their coefficient gradients (2, S, 2N+1, d)."""
    _, orders, dim, count, _ = bar.shape
    mat = _jet_matrix_t(order, num_nodes, orders - 1)
    blocks = bar.transpose(0, 3, 2, 1, 4).reshape(2, count, dim, orders * num_nodes)
    return np.matmul(mat, blocks.swapaxes(2, 3))


# ---------------------------------------------------------------------------
# Rational closed forms (order m = 2)
# ---------------------------------------------------------------------------
#
# Notation per grid node: r = |c_hat'|, p = |c_check'|, q = c_hat'.c_check',
# rho = c_hat'.c_hat'', sigma = c_check'.c_check'',
# tau = (c_hat'.c_check'' + c_check'.c_hat'')/2, v = q/(rp) in (0, 1],
# xi = 1 - v^2, and V = v * arcsin(sqrt(xi))/sqrt(xi) = v * arccos(v)/sqrt(xi).
#
# The time integrals below are of L/D-type rational functions along the
# blend; closed forms come in a Phi' Xi Theta sandwich whose ingredients
# cancel near v = 1 and v = 0.  Taylor guards (series in xi) keep everything
# accurate through the diagonal; tiny-v cases fall back to Gauss-Legendre
# quadrature of the raw integrands, which is spectrally exact there.

# arcsin(x)/x = sum C(2n,n)/(4^n (2n+1)) x^{2n}; coefficients in xi = x^2
_ASINC_SERIES = np.array(
    [math.comb(2 * n, n) / (4.0**n * (2 * n + 1)) for n in range(12)]
)
# (V-1)/xi around xi = 0
_PHI1_SERIES = np.array(
    [
        -1 / 3, -2 / 15, -8 / 105, -16 / 315, -128 / 3465,
        -256 / 9009, -1024 / 45045, -2048 / 109395,
        -32768 / 2078505, -65536 / 4849845,
    ]
)
# (V - 1 + xi/(3(1-xi)))/xi^2 around xi = 0
_PHI2_SERIES = np.array(
    [
        1 / 5, 9 / 35, 89 / 315, 1027 / 3465, 2747 / 9009,
        13991 / 45045, 34417 / 109395, 660067 / 2078505,
        1551079 / 4849845, 7174285 / 22309287,
    ]
)
# Both tails and their xi-derivatives (term by term, zero-padded to the same
# length) as columns, so one Horner pass evaluates all four.
_PHI_SERIES = np.stack(
    [
        _PHI1_SERIES,
        _PHI2_SERIES,
        np.append(np.arange(1, _PHI1_SERIES.size) * _PHI1_SERIES[1:], 0.0),
        np.append(np.arange(1, _PHI2_SERIES.size) * _PHI2_SERIES[1:], 0.0),
    ],
    axis=1,
)

_SERIES_CUT = 0.05


def _polyval(coeffs, x):
    """Horner evaluation, lowest order first; coefficient rows may be arrays
    that broadcast against ``x`` (several polynomials at once)."""
    out = coeffs[-1]
    for c in coeffs[-2::-1]:
        out = out * x + c
    return out


def _asinc(xi):
    """arcsin(sqrt(xi))/sqrt(xi), stable through xi = 0."""
    small = xi < _SERIES_CUT
    with np.errstate(invalid="ignore"):
        s = np.sqrt(np.where(small, 0.25, xi))
        direct = np.arcsin(s) / s
    return np.where(small, _polyval(_ASINC_SERIES, xi), direct)


def _phi_series(xi, v, want_grad):
    series = _PHI_SERIES[(...,) + (None,) * np.ndim(xi)]  # broadcast over xi
    if not want_grad:
        t1, t2 = _polyval(series[:, :2], xi)
        return t1, t2
    t1, t2, dt1, dt2 = _polyval(series, xi)
    # d xi / d v = -2 v
    return t1, t2, -2.0 * v * dt1, -2.0 * v * dt2


def _phi_direct(xi, v, want_grad):
    s = np.sqrt(xi)
    asinc = np.arcsin(s) / s
    vm1 = v * asinc - 1.0
    t1 = vm1 / xi
    t2 = (vm1 + xi / (3.0 * v**2)) / xi**2
    if not want_grad:
        return t1, t2
    # asinc'(xi) = (1/v - asinc) / (2 xi), so d(vm1)/dv = asinc + v t1
    dvm1 = asinc + v * t1
    return (
        t1,
        t2,
        (dvm1 + 2.0 * v * t1) / xi,
        (dvm1 - 2.0 / (3.0 * v**3)) / xi**2 + 4.0 * v * t2 / xi,
    )


def _phi_tails(xi, v, want_grad=False):
    """The cancellation-prone second entries (V-1)/xi and
    (V - 1 + xi/(3 v^2))/xi^2, with Taylor guards near the diagonal.

    ``v`` is passed so 1 - xi = v^2 is formed without cancellation.  With
    ``want_grad`` their total derivatives in v (along xi = 1 - v^2) follow.
    Each branch runs only where some node needs it.
    """
    small = xi < _SERIES_CUT
    if small.all():
        return _phi_series(xi, v, want_grad)
    if not small.any():
        return _phi_direct(xi, v, want_grad)
    series = _phi_series(xi, v, want_grad)
    direct = _phi_direct(
        np.where(small, 0.25, xi), np.where(small, np.sqrt(0.75), v), want_grad
    )
    return tuple(np.where(small, s, d) for s, d in zip(series, direct))


def _rat_jets(hat_c, chk_c, num_nodes, earlier=None):
    """Sampled 2-jets of two coefficient stacks and their six scalar
    pairings (r, p, q, rho, sigma, tau), each of shape (S, M).  Raises
    DegenerateCurve as :func:`_require_immersed` does, with ``earlier``."""
    hat, chk = _sample(hat_c, chk_c, num_nodes, 2)
    r = _norm(hat[1])
    p = _norm(chk[1])
    _require_immersed(r, p, earlier)
    q = _dot(hat[1], chk[1])
    rho = _dot(hat[1], hat[2])
    sigma = _dot(chk[1], chk[2])
    tau = 0.5 * (_dot(hat[1], chk[2]) + _dot(chk[1], hat[2]))
    return hat, chk, (r, p, q, rho, sigma, tau)


def _require_positive_q(q):
    """Raise NonPositiveQ for the first segment whose tangent correlation
    (S, M) is nonpositive at some node."""
    least = q.min(axis=-1)
    first = _first_failure(least <= 0.0)
    if first is not None:
        raise NonPositiveQ(
            f"tangent correlation q = {least[first]:.3e} <= 0 at some node"
        )


def _oracle_jets(c_hat, c_check, num_nodes):
    """:func:`_rat_jets` of one curve pair, squeezed to (3, d, M) jets and
    (M,) pairings, for the closed-form oracles; raises DegenerateCurve and
    NonPositiveQ."""
    hat, chk, pairings = _rat_jets(*_stacks((c_hat, c_check), "oracle arguments")[0], num_nodes)
    _require_positive_q(pairings[2])
    return hat[:, :, 0], chk[:, :, 0], tuple(x[0] for x in pairings)


def _raw_2bc_quadrature(r, p, q, rho, sigma, tau, seeds=None):
    """Gauss-Legendre values of int L Q / D^3 and int L Q^2 / D^4 dt.

    Fallback for tiny v where the closed forms cancel; the integrands are
    smooth there, so 96 nodes are exact to machine precision.  With
    ``seeds = (bar_b, bar_c)`` the third result holds the partials of
    bar_b * I2b + bar_c * I2c in (r, p, q, rho, sigma, tau), differentiated
    under the sum; otherwise it is None.  Each grid node sums its own row of
    time nodes, whatever else is evaluated beside it.
    """
    t, w = _gauss01(96)
    r, p, q, rho, sigma, tau = (np.asarray(x)[..., None] for x in (r, p, q, rho, sigma, tau))
    s = 1.0 - t
    L = s * r + t * p
    D = s * s * r * r + 2.0 * s * t * q + t * t * p * p
    Q = s * s * rho + 2.0 * s * t * tau + t * t * sigma
    i2b = np.sum(w * L * Q / D**3, axis=-1)
    i2c = np.sum(w * L * Q * Q / D**4, axis=-1)
    if seeds is None:
        return i2b, i2c, None
    bar_b, bar_c = (np.asarray(x)[..., None] for x in seeds)
    wd3 = w / D**3
    qd = Q / D
    bar_l = wd3 * Q * (bar_b + bar_c * qd)
    bar_q = wd3 * L * (bar_b + 2.0 * bar_c * qd)
    bar_d = -wd3 * L * qd * (3.0 * bar_b + 4.0 * bar_c * qd)
    st2 = 2.0 * s * t
    grad = (
        np.sum(s * bar_l + 2.0 * s * s * r * bar_d, axis=-1),
        np.sum(t * bar_l + 2.0 * t * t * p * bar_d, axis=-1),
        np.sum(st2 * bar_d, axis=-1),
        np.sum(s * s * bar_q, axis=-1),
        np.sum(t * t * bar_q, axis=-1),
        np.sum(st2 * bar_q, axis=-1),
    )
    return i2b, i2c, grad


def _sandwich_2bc(r, p, q, rho, sigma, tau, v, seeds=None):
    """Closed forms of the two curvature-weighted time integrals
    (Phi' Xi Theta sandwiches), with quadrature fallback for tiny v.

    Returns (I2b, I2c, grad).  With ``seeds = (bar_b, bar_c)``, ``grad``
    holds the partials of bar_b * I2b + bar_c * I2c in
    (r, p, q, rho, sigma, tau), from one reverse sweep through the same
    expressions; otherwise it is None.
    """
    want_grad = seeds is not None
    grad = None
    xi = (1.0 - v) * (1.0 + v)
    rp = r * p
    v2 = v**2
    v3 = v**3
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tails = _phi_tails(xi, v, want_grad)
        phi1_tail, phi2_tail = tails[:2]
        rp4 = rp**4
        th1_a = (sigma * r**3 + rho * p**3) / rp4
        th1_b = (rp * ((sigma + 2 * tau) * r + (rho + 2 * tau) * p)) / rp4
        pref1 = 1.0 / (8.0 * v * (1.0 + v))
        x1_a = (3.0 + 2.0 * v) * th1_a + th1_b
        x1_b = 3.0 * th1_a + (1.0 - 2.0 * v) * th1_b
        i2b = pref1 * (x1_a + phi1_tail * x1_b)

        rp6 = rp**6
        th2_a = (sigma**2 * r**5 + rho**2 * p**5) / rp6
        th2_b = (rp * (sigma * (sigma + 4 * tau) * r**3 + rho * (rho + 4 * tau) * p**3)) / rp6
        th2_c = (
            2.0
            * rp**2
            * ((rho * sigma + 2 * tau**2) * (r + p) + 2 * tau * (sigma * r + rho * p))
        ) / rp6
        pref2 = 1.0 / (48.0 * v3 * (1.0 + v))
        # x2_a, x2_b are (k2a, k2b) . (th2_a, th2_b, th2_c)
        k2a = (8 * v3 + 10 * v2 - 5, 2 * v2 + 4 * v - 1, 2 * v - 1)
        k2b = (15 * v2, -12 * v3 + 3 * v2, 6 * v**4 - 6 * v3 + 3 * v2)
        x2_a = k2a[0] * th2_a + k2a[1] * th2_b + k2a[2] * th2_c
        x2_b = k2b[0] * th2_a + k2b[1] * th2_b + k2b[2] * th2_c
        i2c = pref2 * (x2_a + phi2_tail * x2_b)

        need_b = v < 1e-5
        need_c = v < 0.02
        any_c = np.any(need_c)
        if want_grad:
            bar_b, bar_c = seeds
            if any_c:
                bar_c = np.where(need_c, 0.0, bar_c)
            grad = _sandwich_reverse(
                r, p, rho, sigma, tau, v, bar_b, bar_c, tails,
                (pref1, th1_a, th1_b, x1_b, i2b),
                (pref2, th2_a, th2_b, th2_c, x2_b, i2c, k2a, k2b),
            )

    if any_c:
        idx = np.nonzero(need_c)
        sub_b = need_b[idx]
        sub_seeds = None
        if want_grad:
            sub_seeds = (np.where(sub_b, seeds[0][idx], 0.0), seeds[1][idx])
        qb, qc, qgrad = _raw_2bc_quadrature(
            r[idx], p[idx], q[idx], rho[idx], sigma[idx], tau[idx], sub_seeds
        )
        i2c = np.array(i2c)
        i2c[idx] = qc
        if np.any(need_b):
            i2b = np.array(i2b)
            i2b[need_b] = qb[sub_b]
            if want_grad:
                # closed-form contributions there may be inf or nan
                grad = [np.where(need_b, 0.0, g) for g in grad]
        if want_grad:
            for g, qg in zip(grad, qgrad):
                g[idx] += qg
    return i2b, i2c, grad


def _sandwich_reverse(r, p, rho, sigma, tau, v, bar_b, bar_c, tails, part_b, part_c):
    """Reverse sweep of the closed-form sandwiches: partials of
    bar_b * I2b + bar_c * I2c in (r, p, q, rho, sigma, tau), as a list."""
    phi1_tail, phi2_tail, dphi1, dphi2 = tails
    pref1, th1_a, th1_b, x1_b, i2b = part_b
    pref2, th2_a, th2_b, th2_c, x2_b, i2c, k2a, k2b = part_c
    gb = bar_b * pref1
    gc = bar_c * pref2
    # cotangents of the five Theta entries
    a1a = gb * (3.0 + 2.0 * v + 3.0 * phi1_tail)
    a1b = gb * (1.0 + (1.0 - 2.0 * v) * phi1_tail)
    a2a = gc * (k2a[0] + k2b[0] * phi2_tail)
    a2b = gc * (k2a[1] + k2b[1] * phi2_tail)
    a2c = gc * (k2a[2] + k2b[2] * phi2_tail)
    # cotangent of v through the prefactors, the Xi entries and the tails
    v2 = v * v
    bar_v = (
        -(bar_b * i2b * (1.0 + 2.0 * v) + bar_c * i2c * (3.0 + 4.0 * v))
        / (v * (1.0 + v))
        + gb * (2.0 * th1_a - 2.0 * phi1_tail * th1_b + dphi1 * x1_b)
        + gc
        * (
            (24.0 * v2 + 20.0 * v) * th2_a
            + (4.0 * v + 4.0) * th2_b
            + 2.0 * th2_c
            + phi2_tail
            * (
                30.0 * v * th2_a
                + (6.0 * v - 36.0 * v2) * th2_b
                + (24.0 * v2 * v - 18.0 * v2 + 6.0 * v) * th2_c
            )
            + dphi2 * x2_b
        )
    )

    # Each Theta entry is a sum of monomials in (sigma, rho, tau, 1/r, 1/p)
    # symmetric under (r, sigma) <-> (p, rho).  Row 0 of each pair array
    # below holds the sigma-side monomial, row 1 its mirror.
    x = np.stack((sigma, rho))
    inv = np.stack((1.0 / r, 1.0 / p))
    mir = inv[::-1]
    mir2 = mir * mir
    m23 = inv * inv * mir2 * mir            # r^-2 p^-3 | r^-3 p^-2
    m14 = inv * mir2 * mir2                 # r^-1 p^-4 | r^-4 p^-1
    m16 = m14 * mir2                        # r^-1 p^-6 | r^-6 p^-1
    m25 = m23 * mir2                        # r^-2 p^-5 | r^-5 p^-2
    m33 = (inv[0] * inv[1]) ** 3
    x4t = x + 4.0 * tau
    # th1_a = sum(x m14), th1_b = sum((x + 2 tau) m23), th2_a = sum(x^2 m16),
    # th2_b = sum(x (x + 4 tau) m25),
    # th2_c = 2 m33 sum(mir (rho sigma + 2 tau^2 + 2 tau x))
    t1a = x * m14
    t1b = (x + 2.0 * tau) * m23
    t2a = x * x * m16
    t2b = x * x4t * m25
    t2c = 2.0 * m33 * mir * (rho * sigma + 2.0 * tau * tau + 2.0 * tau * x)
    # row 0: r d/dr, row 1: p d/dp (monomial exponents swap between rows)
    scaled = -(
        a1a * (t1a + 4.0 * t1a[::-1])
        + a1b * (2.0 * t1b + 3.0 * t1b[::-1])
        + a2a * (t2a + 6.0 * t2a[::-1])
        + a2b * (2.0 * t2b + 5.0 * t2b[::-1])
        + a2c * (3.0 * t2c + 4.0 * t2c[::-1])
    )
    # row 0: d/dsigma, row 1: d/drho
    d_x = (
        a1a * m14
        + a1b * m23
        + 2.0 * a2a * x * m16
        + a2b * (x + x4t) * m25
        + 2.0 * a2c * m33 * (x[::-1] * (inv[0] + inv[1]) + 2.0 * tau * mir)
    )
    d_tau = (
        2.0 * a1b * (m23[0] + m23[1])
        + 4.0 * a2b * (x[0] * m25[0] + x[1] * m25[1])
        + 4.0 * a2c * m33 * (2.0 * tau * (inv[0] + inv[1]) + x[0] * mir[0] + x[1] * mir[1])
    )
    # v = q / (r p): r dv/dr = p dv/dp = -v
    v_bar_v = v * bar_v
    return [
        (scaled[0] - v_bar_v) * inv[0],
        (scaled[1] - v_bar_v) * inv[1],
        bar_v * inv[0] * inv[1],
        d_x[1],
        d_x[0],
        d_tau,
    ]


def _sharp_integrals(r, p, q, rho, sigma, tau):
    """I1 |delta'|^2 = I1 (r^2 + p^2 - 2q), I2a, I2b, I2c with the exact
    inverse-sinc factor (the sharp-bound flavor)."""
    rp = r * p
    v = q / rp
    xi = (1.0 - v) * (1.0 + v)
    asinc = _asinc(xi)
    i1_s11 = (r + p) * (1.0 - v) * asinc + (r - p) * np.log1p((r - p) / p)
    i2a = ((r + p) * asinc / rp + 1.0 / r + 1.0 / p) / (2.0 * (rp + q))
    i2b, i2c, _ = _sandwich_2bc(r, p, q, rho, sigma, tau, v)
    return i1_s11, i2a, i2b, i2c


def rational_time_integrals(r, p, q, rho, sigma, tau):
    """The five closed-form time integrals (I0, I1, I2a, I2b, I2c) of the
    raw integrands L, L/D, L/D^2, LQ/D^3, LQ^2/D^4 over t in [0, 1].

    Vectorized over node arrays; requires 0 < q < r p elementwise.  Exact
    inverse-sinc factor V throughout (this is the sharp-bound flavor).
    """
    r, p, q = map(np.asarray, (r, p, q))
    rho, sigma, tau = map(np.asarray, (rho, sigma, tau))
    i1_s11, i2a, i2b, i2c = _sharp_integrals(r, p, q, rho, sigma, tau)
    i1 = i1_s11 / (r * r + p * p - 2.0 * q)
    return 0.5 * (r + p), i1, i2a, i2b, i2c


def _deltas(hat, chk):
    """delta = c_check - c_hat and delta'' on the grid, with the squared
    norms s0 = |delta|^2 and s22 = |delta''|^2."""
    d0 = chk[0] - hat[0]
    d2 = chk[2] - hat[2]
    return d0, d2, _dot(d0, d0), _dot(d2, d2)


def w_bar_oracle(
    c_hat: FourierCurve,
    c_check: FourierCurve,
    weights: MetricWeights,
    num_nodes: int,
) -> float:
    """Sharp closed-form squared-distance bound keeping the exact factor V.

    Sits between the blended-metric quadrature value and the rational
    energy ``EnergyKind.rat()``; requires a positive tangent correlation
    (raises NonPositiveQ otherwise) and metric order m = 2.
    """
    _require_m2(weights)
    a0, a1, a2 = weights.coefficients
    hat, chk, (r, p, q, rho, sigma, tau) = _oracle_jets(c_hat, c_check, num_nodes)
    _, _, s0, s22 = _deltas(hat, chk)
    i1_s11, i2a, i2b, i2c = _sharp_integrals(r, p, q, rho, sigma, tau)
    s1 = rho + sigma - 2.0 * tau          # delta'.delta''
    s11 = r * r + p * p - 2.0 * q         # |delta'|^2
    integrand = (
        a0 * 0.5 * (r + p) * s0
        + a1 * i1_s11
        + a2 * (i2a * s22 - 2.0 * i2b * s1 + i2c * s11)
    )
    return float(2.0 * np.pi / num_nodes * np.sum(integrand))


def _rat_node_scalar(r, p, q, rho, sigma, tau, a, s0, s22, want_grad=False):
    """Per-node rational-energy integrand as a function of the six scalar
    pairings.

    s0 = |delta|^2 and s22 = |delta''|^2 enter as fixed parameters (their
    own dependence on the samples is handled by the caller); everything
    else, including |delta'|^2 = r^2+p^2-2q and delta'.delta'' =
    rho+sigma-2 tau, flows through the scalars.  Returns (integrand, grad):
    with ``want_grad``, ``grad`` is the tuple of closed-form partials
    (d_r, d_p, d_q, d_rho, d_sigma, d_tau), from one reverse sweep through
    the same expressions; otherwise it is None.
    """
    a0, a1, a2 = a
    rp = r * p
    v = q / rp
    log_rp = np.log1p((r - p) / p)
    b_repl = (r + p) * (1.0 - v) / v + (r - p) * log_rp
    c_repl = 0.5 * (1.0 / (r * q) + 1.0 / (p * q))
    s1 = rho + sigma - 2.0 * tau
    s11 = r * r + p * p - 2.0 * q
    seeds = (-2.0 * a2 * s1, a2 * s11) if want_grad else None
    i2b, i2c, grad = _sandwich_2bc(r, p, q, rho, sigma, tau, v, seeds)
    integrand = (
        a0 * 0.5 * (r + p) * s0
        + a1 * b_repl
        + a2 * (c_repl * s22 - 2.0 * i2b * s1 + i2c * s11)
    )
    if not want_grad:
        return integrand, None
    g_r, g_p, g_q, g_rho, g_sigma, g_tau = grad
    # b_repl = (r+p) (rp/q - 1) + (r-p) log(r/p); c_repl = (1/r + 1/p) / (2q)
    w1 = (1.0 - v) / v
    d_len = 0.5 * a0 * s0
    c_s22 = a2 * s22
    i2b_2 = 2.0 * a2 * i2b
    return integrand, (
        d_len + a1 * (w1 + (r + p) * p / q + log_rp + (r - p) / r)
        - 0.5 * c_s22 / (r * r * q) + 2.0 * a2 * r * i2c + g_r,
        d_len + a1 * (w1 + (r + p) * r / q - log_rp - (r - p) / p)
        - 0.5 * c_s22 / (p * p * q) + 2.0 * a2 * p * i2c + g_p,
        -a1 * (r + p) / (v * q) - c_s22 * c_repl / q - 2.0 * a2 * i2c + g_q,
        g_rho - i2b_2,
        g_sigma - i2b_2,
        g_tau + 2.0 * i2b_2,
    )


def _rat_core(hat_c, chk_c, weights, num_nodes, want_grad):
    """Rational energies of a block of segments, stacks (S, 2N+1, d):
    (values (S,), grad_hat, grad_check), the gradients None unless
    ``want_grad``.  The values are +inf on segments with a nonpositive
    tangent correlation; the gradient raises NonPositiveQ there."""
    a0, a1, a2 = a = weights.coefficients
    hat, chk, pairings = _rat_jets(
        hat_c, chk_c, num_nodes,
        lambda i: _rat_core(hat_c[:i], chk_c[:i], weights, num_nodes, want_grad),
    )
    r, p, q = pairings[:3]
    tw = 2.0 * np.pi / num_nodes
    if not want_grad:
        ok = q.min(axis=-1) > 0.0
        if not ok.all():
            values = np.full(ok.shape, np.inf)
            if ok.any():
                values[ok] = _rat_core(hat_c[ok], chk_c[ok], weights, num_nodes, False)[0]
            return values, None, None
        _, _, s0, s22 = _deltas(hat, chk)
        integrand, _ = _rat_node_scalar(*pairings, a, s0, s22)
        return tw * np.sum(integrand, axis=-1), None, None

    _require_positive_q(q)
    delta0, delta2, s0, s22 = _deltas(hat, chk)
    integrand, partials = _rat_node_scalar(*pairings, a, s0, s22, want_grad=True)
    value = tw * np.sum(integrand, axis=-1)
    d_r, d_p, d_q, d_rho, d_sigma, d_tau = partials

    # chain the six pairings and s0, s22 to the sampled jets
    h_tau = 0.5 * d_tau
    bar_hat, bar_chk = bar = _cotangents(hat)
    bar_chk[0] = (a0 * (r + p)) * delta0
    bar_hat[0] = -bar_chk[0]
    bar_hat[1] = (d_r / r) * hat[1] + d_q * chk[1] + d_rho * hat[2] + h_tau * chk[2]
    bar_chk[1] = (d_p / p) * chk[1] + d_q * hat[1] + d_sigma * chk[2] + h_tau * hat[2]
    s22_bar = (a2 * (1.0 / (r * q) + 1.0 / (p * q))) * delta2
    bar_hat[2] = d_rho * hat[1] + h_tau * chk[1] - s22_bar
    bar_chk[2] = d_sigma * chk[1] + h_tau * hat[1] + s22_bar
    bar *= tw
    order = hat_c.shape[1] // 2
    return (value, *_pull_back(bar, order, num_nodes))


# ---------------------------------------------------------------------------
# Common entry points
# ---------------------------------------------------------------------------

# Largest number of grid nodes (segments x M) one kernel call works on: a
# longer stack is walked in blocks, which bounds the numpy temporaries.
_BLOCK_NODES = 2048


def _evaluate(c_hat, c_check, weights, kind, num_nodes, want_grad):
    """Energies of the given kind between two curves or two stacks, walked
    in blocks of at most ``_BLOCK_NODES`` grid nodes.

    Curves give the value (float), or (value, grad_hat, grad_check) as
    curves of their own orders; stacks give arrays (S,) and (S, 2N+1, d).
    """
    _require_kind(kind, "kind")
    (hat, chk), curves = _stacks((c_hat, c_check), "energy arguments")
    if kind.is_rat:
        _require_m2(weights)
        core, args = _rat_core, (weights, num_nodes, want_grad)
    else:
        core, args = _reg_core, (weights, kind.epsilon, num_nodes, want_grad)
    # a grid of M <= 2N nodes, M <= 0 included, raises InsufficientSamples
    # when the first block is sampled, and a non-integer M a ValueError
    step = max(1, int(_BLOCK_NODES // max(num_nodes, 1)))
    if len(hat) <= step:
        values, gh, gc = core(hat, chk, *args)
    else:
        parts = [core(hat[i : i + step], chk[i : i + step], *args) for i in range(0, len(hat), step)]
        values, gh, gc = (None if p[0] is None else np.concatenate(p) for p in zip(*parts))
    if not curves:
        return (values, gh, gc) if want_grad else values
    if not want_grad:
        return float(values[0])
    return (
        float(values[0]),
        truncate(FourierCurve.from_coeffs(gh[0]), c_hat.order),
        truncate(FourierCurve.from_coeffs(gc[0]), c_check.order),
    )


def w_eval(c_hat, c_check, weights: MetricWeights, kind: EnergyKind, num_nodes: int):
    """Energy value for the selected kind.

    ``c_hat, c_check`` are two curves (returns a float) or two coefficient
    stacks of one shape (S, 2N+1, d), the segments (c_hat[s], c_check[s]) of
    a path (returns the S values).  Each segment's value, +inf and errors
    are bit for bit those of its own per-pair call.
    """
    return _evaluate(c_hat, c_check, weights, kind, num_nodes, False)


def w_value_and_grad(c_hat, c_check, weights: MetricWeights, kind: EnergyKind, num_nodes: int):
    """Energy value and its exact coefficient gradients (grad_hat, grad_check).

    The gradient is the exact derivative of the trapezium-rule energy:
    per-node integrand partials with respect to the sampled jet values,
    pulled back by the transposed spectral evaluation operators.  Curves
    give (float, curve, curve); stacks (S, 2N+1, d) give arrays of shapes
    (S,), (S, 2N+1, d) and (S, 2N+1, d).
    """
    return _evaluate(c_hat, c_check, weights, kind, num_nodes, True)


def w_grad(c_hat, c_check, weights: MetricWeights, kind: EnergyKind, num_nodes: int):
    """Gradients of the discrete energy with respect to both arguments
    (curves or stacks, as in :func:`w_value_and_grad`)."""
    _, gh, gc = w_value_and_grad(c_hat, c_check, weights, kind, num_nodes)
    return gh, gc


def hessian_scalar_at_diagonal(
    curve: FourierCurve,
    weights: MetricWeights,
    kind: EnergyKind,
    num_nodes: int,
) -> np.ndarray:
    """Scalar-component block of the coefficient Hessian of s -> W[c, c+s u]
    at s = 0 (one half per component; the full Hessian is the kron with I_d).

    For the rational kind this is exactly twice the metric Gram block.  For
    the smoothed kind the length bounds contribute their diagonal values
    |c'| +- eps/2, giving a matrix sandwiched between 2 Gram and
    (1 - eps/(2 min|c'|))^{5-6m} 2 Gram.
    """
    _require_kind(kind, "kind")
    if kind.is_rat:
        _require_m2(weights)
        return 2.0 * gram_scalar(curve, weights, num_nodes)
    ops, speed = _scalar_arclength_ops(curve, weights, num_nodes)
    eps = kind.epsilon
    if np.min(speed) <= eps / 2.0:
        raise NonPositiveLowerBound(
            "diagonal lower bound |c'| - eps/2 is nonpositive"
        )
    tw = 2.0 * np.pi / num_nodes
    factors = [speed + eps / 2.0]
    for j in range(1, weights.order + 1):
        factors.append((speed - eps / 2.0) ** (5 - 6 * j) * speed ** (6 * j - 4))
    return 2.0 * _weighted_gram(ops, weights.coefficients, [tw * f for f in factors])


def hessian_at_diagonal(
    curve: FourierCurve,
    weights: MetricWeights,
    kind: EnergyKind,
    num_nodes: int,
) -> np.ndarray:
    """Full coefficient Hessian of W[c, c + s u] in u at the diagonal,
    shape ((2N+1) d, (2N+1) d)."""
    return np.kron(
        hessian_scalar_at_diagonal(curve, weights, kind, num_nodes),
        np.eye(curve.dim),
    )

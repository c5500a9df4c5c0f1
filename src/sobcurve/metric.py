"""Sobolev metrics of integer order on immersed closed curves.

The metric at a curve ``c`` acting on tangent fields ``xi, zeta`` is

    g_c(xi, zeta) = int_{S^1} sum_{j=0..m} a_j <d_s^j xi, d_s^j zeta> ds,

with arc-length differentiation ``d_s = |c'|^{-1} d_theta`` and measure
``ds = |c'| dtheta``.  Constant coefficients a_0, a_m > 0, a_j >= 0.

Discretely, one arc-length chain serves every use of the metric: grid
samples of shape (M, cols) are differentiated order by order, each d_s
application being one exact spectral theta-derivative (through the
alias-free modes <= floor((M-1)/2)) followed by pointwise division by the
speed.  :func:`metric_eval` runs it on the samples of both fields side by
side; the Gram operators run it on the columns of the evaluation matrix and
sum their weighted products in one helper, which the smoothed diagonal
Hessian shares.  Integrals use the trapezium rule, which is spectrally
accurate here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curve import FourierCurve, _eval_matrix, sample_jet
from .errors import DegenerateCurve

__all__ = [
    "SPEED_FLOOR",
    "MetricWeights",
    "metric_eval",
    "w_lin_oracle",
    "sobolev_norm",
]

#: Immersion floor: operations refuse to divide by speeds at or below this.
SPEED_FLOOR = 1e-10


@dataclass(frozen=True)
class MetricWeights:
    """Order and constant coefficients (a_0, ..., a_m) of the metric."""

    coefficients: tuple

    def __post_init__(self):
        coeff = tuple(float(a) for a in self.coefficients)
        if len(coeff) < 3:
            raise ValueError("metric order must be at least 2 (need a_0..a_m, m >= 2)")
        if not all(np.isfinite(coeff)):
            raise ValueError("metric coefficients must be finite (got NaN or infinity)")
        if coeff[0] <= 0.0 or coeff[-1] <= 0.0:
            raise ValueError("a_0 and a_m must be positive")
        if any(a < 0.0 for a in coeff):
            raise ValueError("metric coefficients must be nonnegative")
        object.__setattr__(self, "coefficients", coeff)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @classmethod
    def of(cls, *coefficients: float) -> "MetricWeights":
        return cls(tuple(coefficients))


def _require_m2(weights: MetricWeights) -> MetricWeights:
    """The weights, checked to be of order m = 2, the order every closed form
    (rational energy, circle oracle) is derived for."""
    if weights.order != 2:
        raise ValueError(f"closed forms require metric order m = 2, got m = {weights.order}")
    return weights


def spectral_theta_deriv(values: np.ndarray) -> np.ndarray:
    """Theta-derivative of grid samples through their trigonometric interpolant.

    Projects onto the alias-free modes <= floor((M-1)/2) (the Nyquist mode of
    an even grid is dropped), differentiates in coefficient space, resamples.
    Operates along axis 0; exact for trig polynomials below the cutoff.
    """
    m = values.shape[0]
    spec = np.fft.rfft(values, axis=0)
    k = np.arange(spec.shape[0])
    ik = 1j * k
    if m % 2 == 0:
        ik[-1] = 0.0  # drop the ambiguous Nyquist mode
    shape = [1] * values.ndim
    shape[0] = -1
    return np.fft.irfft(spec * ik.reshape(shape), n=m, axis=0)


def _speed(base: FourierCurve, num_nodes: int) -> np.ndarray:
    speed = np.linalg.norm(sample_jet(base, num_nodes, 1)[1], axis=1)
    if np.min(speed) <= SPEED_FLOOR:
        raise DegenerateCurve(
            f"curve speed {np.min(speed):.3e} at or below floor {SPEED_FLOOR:.1e}"
        )
    return speed


def _arclength_chain(samples: np.ndarray, speed: np.ndarray, max_order: int) -> list:
    """The arc-length chain [x, d_s x, ..., d_s^max_order x] of grid samples
    x of shape (M, cols), column by column, along a base of grid speed ``speed``."""
    chain = [samples]
    for _ in range(max_order):
        chain.append(spectral_theta_deriv(chain[-1]) / speed[:, None])
    return chain


def metric_eval(
    base: FourierCurve,
    xi: FourierCurve,
    zeta: FourierCurve,
    weights: MetricWeights,
    num_nodes: int,
) -> float:
    """Evaluate g_base(xi, zeta) by trapezium quadrature on ``num_nodes`` nodes.

    Raises
    ------
    ValueError
        If a field's ambient dimension differs from the base curve's.
    DegenerateCurve
        If min |base'| on the grid is at or below :data:`SPEED_FLOOR`.
    """
    if {xi.dim, zeta.dim} != {base.dim}:
        raise ValueError(
            f"fields of dimension {xi.dim} and {zeta.dim} along a curve in R^{base.dim}"
        )
    speed = _speed(base, num_nodes)
    both = np.hstack([sample_jet(xi, num_nodes, 0)[0], sample_jet(zeta, num_nodes, 0)[0]])
    d = base.dim
    integrand = np.zeros(num_nodes)
    for a, ds in zip(weights.coefficients, _arclength_chain(both, speed, weights.order)):
        if a != 0.0:
            integrand += a * np.sum(ds[:, :d] * ds[:, d:], axis=1)
    return float(2.0 * np.pi / num_nodes * np.sum(integrand * speed))


# ---------------------------------------------------------------------------
# Gram matrices over the truncated Fourier basis
# ---------------------------------------------------------------------------


def _scalar_arclength_ops(base: FourierCurve, weights: MetricWeights, num_nodes: int):
    """Operators A_j taking scalar coefficients of the base's order to grid
    samples of d_s^j, j = 0..m, plus the base speed: the arc-length chain of
    the evaluation matrix's columns.
    """
    speed = _speed(base, num_nodes)
    return _arclength_chain(_eval_matrix(base.order, num_nodes, 0), speed, weights.order), speed


#: Multiply-adds per matmul in _weighted_gram: OpenBLAS keeps a product of
#: at most this many on the calling thread.
_GEMM_ONE_THREAD = 2**18


def _weighted_gram(ops: list, coefficients: tuple, node_weights: list) -> np.ndarray:
    """Symmetrised sum_j a_j A_j^T diag(w_j) A_j over the nonzero a_j, for
    operators A_j and node weights w_j of order j = 0..m.  Each product is
    formed in blocks of Gram rows small enough to stay on one thread."""
    nodes, size = ops[0].shape
    block = max(1, _GEMM_ONE_THREAD // (nodes * size))
    gram = np.zeros((size, size))
    for a, op, w in zip(coefficients, ops, node_weights):
        if a != 0.0:
            weighted = op * w[:, None]
            gram += a * np.vstack([op[:, i:i + block].T @ weighted for i in range(0, size, block)])
    return 0.5 * (gram + gram.T)


def gram_scalar(base: FourierCurve, weights: MetricWeights, num_nodes: int) -> np.ndarray:
    """Scalar-component Gram matrix of the metric over the Fourier basis of
    the base's order N, shape (2N+1, 2N+1); over a larger basis of order n
    it is ``gram_scalar(pad(base, n), ...)``.

    The metric couples vector components independently, so the full matrix
    over R^d-valued coefficients is this block kron'd with the identity.
    """
    ops, speed = _scalar_arclength_ops(base, weights, num_nodes)
    node_weight = 2.0 * np.pi / num_nodes * speed
    return _weighted_gram(ops, weights.coefficients, [node_weight] * len(ops))


@lru_cache(maxsize=None)
def _gauss01(n: int):
    """The n-node Gauss-Legendre rule on [0, 1]: nodes t and weights w,
    cached read-only."""
    nodes, w = np.polynomial.legendre.leggauss(n)
    t = 0.5 * (nodes + 1.0)
    t.setflags(write=False)
    w = 0.5 * w
    w.setflags(write=False)
    return t, w


def w_lin_oracle(
    c_hat: FourierCurve,
    c_check: FourierCurve,
    weights: MetricWeights,
    num_nodes: int,
) -> float:
    """Quadrature of the blended-metric energy int_0^1 g_{c_t}(delta, delta) dt.

    Here c_t = (1-t) c_hat + t c_check and delta = c_check - c_hat; the time
    integral uses 16 Gauss-Legendre nodes.  This is the reference value the
    closed-form energies are bounded below by.
    """
    t, glw = _gauss01(16)
    delta = c_check - c_hat
    total = 0.0
    for ti, wi in zip(t, glw):
        blend = (1.0 - ti) * c_hat + ti * c_check
        total += wi * metric_eval(blend, delta, delta, weights, num_nodes)
    return float(total)


def sobolev_norm(curve: FourierCurve, order: int) -> float:
    """W^r norm in theta of a coefficient curve, sqrt(sum_{j <= r} ||c^(j)||_L2^2):
    computed exactly from the coefficients (Parseval).

    Raises ValueError unless the order r is an integer >= 0.
    """
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)) or order < 0:
        raise ValueError(f"Sobolev order must be an integer >= 0, got {order!r}")
    sq = 0.0
    a, b = curve.cos_coeffs, curve.sin_coeffs
    sq += 2.0 * np.pi * float(np.sum(a[0] ** 2))
    k = np.arange(1, curve.order + 1, dtype=float)
    mode_sq = np.sum(a[1:] ** 2, axis=1) + np.sum(b**2, axis=1)
    for j in range(order + 1):
        sq += np.pi * float(np.sum(k ** (2 * j) * mode_sq))
    return float(np.sqrt(sq))

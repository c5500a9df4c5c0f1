"""Sobolev metrics of integer order on immersed closed curves.

The metric at a curve ``c`` acting on tangent fields ``xi, zeta`` is

    g_c(xi, zeta) = int_{S^1} sum_{j=0..m} a_j <d_s^j xi, d_s^j zeta> ds,

with arc-length differentiation ``d_s = |c'|^{-1} d_theta`` and measure
``ds = |c'| dtheta``.  Constant coefficients a_0, a_m > 0, a_j >= 0.

Discretely, a tangent field is pushed to the uniform grid, and each d_s
application is one exact spectral theta-derivative (through the alias-free
modes <= floor((M-1)/2)) followed by pointwise division by the speed.
Integrals use the trapezium rule, which is spectrally accurate here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curve import FourierCurve, _eval_matrix, sample_jet
from .errors import DegenerateCurve

__all__ = [
    "SPEED_FLOOR",
    "MetricWeights",
    "ArclengthJet",
    "arclength_jet",
    "metric_eval",
    "gram_matrix",
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


def _speed(base: FourierCurve, num_nodes: int, floor: float) -> np.ndarray:
    cp = sample_jet(base, num_nodes, 1).deriv(1)
    speed = np.linalg.norm(cp, axis=1)
    if np.min(speed) <= floor:
        raise DegenerateCurve(
            f"curve speed {np.min(speed):.3e} at or below floor {floor:.1e}"
        )
    return speed


@dataclass(frozen=True)
class ArclengthJet:
    """Grid samples of d_s^j xi for j = 0..m along a base curve.

    ``values[j, i]`` is (d_s^j xi)(theta_i); ``speed[i]`` is |c'(theta_i)| of
    the base curve the jet was formed along.
    """

    values: np.ndarray
    speed: np.ndarray

    @property
    def max_order(self) -> int:
        return self.values.shape[0] - 1

    def deriv(self, j: int) -> np.ndarray:
        return self.values[j]


def arclength_jet(
    base: FourierCurve,
    field: FourierCurve,
    num_nodes: int,
    max_order: int,
    floor: float = SPEED_FLOOR,
) -> ArclengthJet:
    """Arc-length derivatives of ``field`` along ``base`` on the uniform grid.

    Raises
    ------
    DegenerateCurve
        If min |base'| <= floor.
    """
    speed = _speed(base, num_nodes, floor)
    vals = np.empty((max_order + 1, num_nodes, field.dim))
    vals[0] = sample_jet(field, num_nodes, 0).deriv(0)
    for j in range(max_order):
        vals[j + 1] = spectral_theta_deriv(vals[j]) / speed[:, None]
    return ArclengthJet(vals, speed)


def metric_eval(
    base: FourierCurve,
    xi: FourierCurve,
    zeta: FourierCurve,
    weights: MetricWeights,
    num_nodes: int,
) -> float:
    """Evaluate g_base(xi, zeta) by trapezium quadrature on ``num_nodes`` nodes."""
    jx = arclength_jet(base, xi, num_nodes, weights.order)
    jz = arclength_jet(base, zeta, num_nodes, weights.order)
    integrand = np.zeros(num_nodes)
    for j, a in enumerate(weights.coefficients):
        if a == 0.0:
            continue
        integrand += a * np.sum(jx.deriv(j) * jz.deriv(j), axis=1)
    return float(2.0 * np.pi / num_nodes * np.sum(integrand * jx.speed))


# ---------------------------------------------------------------------------
# Gram matrices over the truncated Fourier basis
# ---------------------------------------------------------------------------


def _scalar_arclength_ops(
    base: FourierCurve,
    weights: MetricWeights,
    order: int,
    num_nodes: int,
    floor: float = SPEED_FLOOR,
):
    """Operators A_j taking stacked scalar coefficients to grid samples of
    d_s^j, j = 0..m, plus the base speed.  A_0 is the plain evaluation matrix;
    each further step is one spectral derivative and a pointwise division.
    """
    speed = _speed(base, num_nodes, floor)
    ops = [np.asarray(_eval_matrix(order, num_nodes, 0))]
    for _ in range(weights.order):
        ops.append(spectral_theta_deriv(ops[-1]) / speed[:, None])
    return ops, speed


def gram_scalar(
    base: FourierCurve,
    weights: MetricWeights,
    order: int,
    num_nodes: int,
) -> np.ndarray:
    """Scalar-component Gram matrix of the metric, shape (2N+1, 2N+1).

    The metric couples vector components independently, so the full matrix
    over R^d-valued coefficients is this block kron'd with the identity.
    """
    ops, speed = _scalar_arclength_ops(base, weights, order, num_nodes)
    tw = 2.0 * np.pi / num_nodes
    n = 2 * order + 1
    gram = np.zeros((n, n))
    for j, a in enumerate(weights.coefficients):
        if a == 0.0:
            continue
        gram += a * (ops[j].T @ (ops[j] * (tw * speed)[:, None]))
    return 0.5 * (gram + gram.T)


def gram_matrix(
    base: FourierCurve,
    weights: MetricWeights,
    order: int,
    num_nodes: int,
) -> np.ndarray:
    """Gram matrix of g_base over the order-N basis of R^d-valued curves.

    Coefficient layout: stacked [a_0..a_N, b_1..b_N] rows, each in R^d,
    flattened row-major, so the matrix is kron(scalar Gram, I_d) with shape
    ((2N+1) d, (2N+1) d).
    """
    return np.kron(gram_scalar(base, weights, order, num_nodes), np.eye(base.dim))


def w_lin_oracle(
    c_hat: FourierCurve,
    c_check: FourierCurve,
    weights: MetricWeights,
    num_nodes: int,
    num_t_nodes: int = 16,
) -> float:
    """Quadrature of the blended-metric energy int_0^1 g_{c_t}(delta, delta) dt.

    Here c_t = (1-t) c_hat + t c_check and delta = c_check - c_hat; the time
    integral uses Gauss-Legendre nodes.  This is the reference value the
    closed-form energies are bounded below by.
    """
    nodes, glw = np.polynomial.legendre.leggauss(num_t_nodes)
    t = 0.5 * (nodes + 1.0)
    glw = 0.5 * glw
    delta = c_check - c_hat
    total = 0.0
    for ti, wi in zip(t, glw):
        blend = (1.0 - ti) * c_hat + ti * c_check
        total += wi * metric_eval(blend, delta, delta, weights, num_nodes)
    return float(total)


def sobolev_norm(curve: FourierCurve, order: int) -> float:
    """W^r norm in theta of a coefficient curve: sum of L^2 norms of
    derivatives 0..r, computed exactly from the coefficients (Parseval)."""
    sq = 0.0
    a, b = curve.cos_coeffs, curve.sin_coeffs
    sq += 2.0 * np.pi * float(np.sum(a[0] ** 2))
    k = np.arange(1, curve.order + 1, dtype=float)
    mode_sq = np.sum(a[1:] ** 2, axis=1) + np.sum(b**2, axis=1)
    for j in range(order + 1):
        sq += np.pi * float(np.sum(k ** (2 * j) * mode_sq))
    return float(np.sqrt(sq))

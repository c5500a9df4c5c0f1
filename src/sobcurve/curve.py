"""Fourier representation of closed plane/space curves and spectral sampling.

A closed curve ``c : S^1 -> R^d`` is stored through its real Fourier
coefficients,

    c(theta) = a_0 + sum_{k=1..N} a_k cos(k theta) + b_k sin(k theta),

with vector coefficients ``a_k, b_k in R^d``.  Differentiation in theta is
performed in coefficient space (multiply mode ``k`` by the exact factors), so
the jets :func:`sample_jet` returns, plain read-only arrays of shape
(m+1, M, d), carry no differentiation error beyond round-off.  Grids are
always the uniform nodes ``theta_i = 2 pi i / M``.

Curves are immutable value objects; the arithmetic operators return new
curves and are used pervasively by the solvers.  Tangent vectors share the
type, and so does :class:`sobcurve.oracle.TrigPolynomial`, the subclass that
adds exact products and allows scalar (d = 1) polynomials; arithmetic keeps
the type of its left operand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InsufficientSamples

__all__ = [
    "FourierCurve",
    "sample_jet",
    "truncate",
    "pad",
    "min_speed",
    "grid",
    "load_curve",
    "save_curve",
    "curve_from_dict",
    "curve_to_dict",
]


def grid(num_nodes: int) -> np.ndarray:
    """Uniform angular grid ``theta_i = 2 pi i / M``, endpoint excluded."""
    return 2.0 * np.pi * np.arange(num_nodes) / num_nodes


def _basis(theta: np.ndarray, order: int, deriv: int) -> np.ndarray:
    """Matrix taking stacked coefficients [a_0..a_N, b_1..b_N] to samples of
    the ``deriv``-th theta-derivative at angles ``theta``.  Shape (len, 2N+1)."""
    k = np.arange(order + 1, dtype=float)
    # d^j/dtheta^j cos(k t) = k^j cos(k t + j pi/2), same phase shift for sin
    phase = deriv * np.pi / 2.0
    arg = np.outer(theta, k) + phase
    factor = k**deriv
    cos_block = factor * np.cos(arg)
    sin_block = (factor * np.sin(arg))[:, 1:]
    return np.hstack([cos_block, sin_block])


@lru_cache(maxsize=None)
def _eval_matrix(order: int, num_nodes: int, deriv: int) -> np.ndarray:
    """:func:`_basis` on the uniform M-point grid, cached read-only.

    Raises InsufficientSamples unless M > 2N: coarser grids alias the top
    modes, and every sampled quantity built on them would be quietly wrong.
    """
    if num_nodes <= 2 * order:
        raise InsufficientSamples(
            f"{num_nodes} grid nodes cannot resolve {order} modes (need M > 2N)"
        )
    mat = _basis(grid(num_nodes), order, deriv)
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=None)
def _jet_matrix(order: int, num_nodes: int, max_order: int) -> np.ndarray:
    """The :func:`_eval_matrix` blocks of derivative orders 0..max_order
    stacked row-wise, shape ((max_order+1) M, 2N+1), cached read-only: one
    matmul samples a whole jet, and its transpose pulls jet cotangents back."""
    mat = np.vstack([_eval_matrix(order, num_nodes, j) for j in range(max_order + 1)])
    mat.setflags(write=False)
    return mat


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FourierCurve:
    """Closed curve (or tangent field along one) in Fourier coefficients.

    Attributes
    ----------
    cos_coeffs : ndarray, shape (N+1, d)
        Vector coefficients a_0 .. a_N.
    sin_coeffs : ndarray, shape (N, d)
        Vector coefficients b_1 .. b_N.
    """

    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray
    min_dim = 2  # curves live in R^d with d >= 2

    def __post_init__(self):
        cos = _as_readonly(np.atleast_2d(self.cos_coeffs))
        sin = np.asarray(self.sin_coeffs, dtype=float)
        if sin.size == 0:
            sin = np.zeros((0, cos.shape[1]))
        sin = _as_readonly(np.atleast_2d(sin))
        if cos.ndim != 2 or sin.ndim != 2:
            raise ValueError("coefficient arrays must be 2-d (modes x dim)")
        if sin.shape[0] != cos.shape[0] - 1:
            raise ValueError(
                f"expected {cos.shape[0] - 1} sine rows for order "
                f"{cos.shape[0] - 1}, got {sin.shape[0]}"
            )
        if sin.shape[0] > 0 and sin.shape[1] != cos.shape[1]:
            raise ValueError("cos/sin coefficient dimensions disagree")
        if cos.shape[1] < self.min_dim:
            raise ValueError(f"expected dimension d >= {self.min_dim}, got {cos.shape[1]}")
        if not (np.isfinite(cos).all() and np.isfinite(sin).all()):
            raise ValueError("curve coefficients must be finite (got NaN or infinity)")
        object.__setattr__(self, "cos_coeffs", cos)
        object.__setattr__(self, "sin_coeffs", sin)

    # -- basic descriptors -------------------------------------------------

    @property
    def dim(self) -> int:
        return self.cos_coeffs.shape[1]

    @property
    def order(self) -> int:
        return self.cos_coeffs.shape[0] - 1

    @property
    def coeffs(self) -> np.ndarray:
        """Stacked coefficients [a_0..a_N, b_1..b_N], shape (2N+1, d)."""
        return np.vstack([self.cos_coeffs, self.sin_coeffs])

    @classmethod
    def from_coeffs(cls, stacked: np.ndarray) -> "FourierCurve":
        """Inverse of :attr:`coeffs`; stacked has shape (2N+1, d)."""
        stacked = np.asarray(stacked, dtype=float)
        n = (stacked.shape[0] - 1) // 2
        if stacked.shape[0] != 2 * n + 1:
            raise ValueError("stacked coefficient array must have 2N+1 rows")
        return cls(stacked[: n + 1], stacked[n + 1 :])

    @classmethod
    def zeros(cls, order: int, dim: int) -> "FourierCurve":
        return cls(np.zeros((order + 1, dim)), np.zeros((order, dim)))

    # -- evaluation --------------------------------------------------------

    def eval(self, theta: np.ndarray, deriv: int = 0) -> np.ndarray:
        """Evaluate the ``deriv``-th theta-derivative at angles ``theta``."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        return _basis(theta, self.order, deriv) @ self.coeffs

    # -- arithmetic (pads to the larger order, keeps the left operand's type)

    def __add__(self, other: "FourierCurve") -> "FourierCurve":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        n = max(self.order, other.order)
        return type(self).from_coeffs(pad(self, n).coeffs + pad(other, n).coeffs)

    def __sub__(self, other: "FourierCurve") -> "FourierCurve":
        return self + (-1.0) * other

    def __mul__(self, scalar: float) -> "FourierCurve":
        return type(self)(self.cos_coeffs * scalar, self.sin_coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "FourierCurve":
        return self * (-1.0)


def sample_jet(curve: FourierCurve, num_nodes: int, max_order: int) -> np.ndarray:
    """Sample ``curve`` and its theta-derivatives up to ``max_order``.

    Returns a read-only array of shape (max_order+1, M, d) whose entry
    ``[j, i]`` is c^{(j)}(theta_i) on the uniform M-point grid.
    Differentiation happens on the coefficients (mode k picks up the exact
    factor k^j and phase shift), so every entry is exact to round-off.
    """
    vals = _jet_matrix(curve.order, num_nodes, max_order) @ curve.coeffs
    vals = vals.reshape(max_order + 1, num_nodes, curve.dim)
    vals.setflags(write=False)
    return vals


def truncate(curve: FourierCurve, order: int) -> FourierCurve:
    """Drop modes above ``order``; idempotent, no-op when already short enough."""
    if order >= curve.order:
        return curve
    return type(curve)(curve.cos_coeffs[: order + 1], curve.sin_coeffs[:order])


def pad(curve: FourierCurve, order: int) -> FourierCurve:
    """Zero-extend to ``order`` modes; no-op when already long enough."""
    if order <= curve.order:
        return curve
    cos = np.zeros((order + 1, curve.dim))
    sin = np.zeros((order, curve.dim))
    cos[: curve.order + 1] = curve.cos_coeffs
    sin[: curve.order] = curve.sin_coeffs
    return type(curve)(cos, sin)


def min_speed(curve: FourierCurve, num_nodes: int) -> float:
    """Minimum of |c'(theta_i)| over the uniform grid."""
    return float(_min_speeds(curve.coeffs[None], num_nodes)[0])


def _min_speeds(stack: np.ndarray, num_nodes: int) -> np.ndarray:
    """Per-curve minimum of |c'(theta_i)| over the uniform grid for a stack
    of coefficient arrays, shape (S, 2N+1, d); one matmul samples them all."""
    count, rows, dim = stack.shape
    flat = stack.transpose(1, 0, 2).reshape(rows, count * dim)
    tangents = (_eval_matrix(rows // 2, num_nodes, 1) @ flat).reshape(num_nodes, count, dim)
    return np.sqrt(np.sum(tangents * tangents, axis=-1)).min(axis=0)


# ---------------------------------------------------------------------------
# JSON persistence
# ---------------------------------------------------------------------------


def curve_to_dict(curve: FourierCurve) -> dict:
    return {
        "dim": curve.dim,
        "order": curve.order,
        "cos": curve.cos_coeffs.tolist(),
        "sin": curve.sin_coeffs.tolist(),
    }


def curve_from_dict(data: dict) -> FourierCurve:
    try:
        dim = int(data["dim"])
        order = int(data["order"])
        cos = data["cos"]
        sin = data["sin"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed curve record: {exc}") from exc
    if len(cos) != order + 1:
        raise ValueError(
            f"cos coefficient count {len(cos)} does not match order {order}"
        )
    if len(sin) != order:
        raise ValueError(
            f"sin coefficient count {len(sin)} does not match order {order}"
        )
    for row in list(cos) + list(sin):
        if len(row) != dim:
            raise ValueError(f"coefficient row of length {len(row)} != dim {dim}")
    return FourierCurve(np.asarray(cos, float), np.asarray(sin, float).reshape(order, dim))


def save_curve(curve: FourierCurve, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(curve_to_dict(curve), fh, indent=1)
        fh.write("\n")


def load_curve(path: str) -> FourierCurve:
    with open(path) as fh:
        return curve_from_dict(json.load(fh))

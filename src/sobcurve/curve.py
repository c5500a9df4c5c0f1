"""Fourier representation of closed plane/space curves and spectral sampling.

A closed curve ``c : S^1 -> R^d`` is stored through its real Fourier
coefficients,

    c(theta) = a_0 + sum_{k=1..N} a_k cos(k theta) + b_k sin(k theta),

with vector coefficients ``a_k, b_k in R^d``.  A curve is one read-only
array, the stack [a_0..a_N, b_1..b_N] of shape (2N+1, d) that the solvers
compute on, with read-only views of its two blocks.  Differentiation in
theta is performed in coefficient space (multiply mode ``k`` by the exact
factors), so the jets :func:`sample_jet` returns, plain read-only arrays of
shape (m+1, M, d), carry no differentiation error beyond round-off.  Grids
are always the uniform nodes ``theta_i = 2 pi i / M``, M an integer.

Curves are immutable value objects; the arithmetic operators return new
curves and are used pervasively by the solvers.  Tangent vectors share the
type, and so does :class:`sobcurve.oracle.TrigPolynomial`, the subclass that
adds exact products and allows scalar (d = 1) polynomials; arithmetic keeps
the type of its left operand.
"""

from __future__ import annotations

import json
import numbers
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
    """Uniform angular grid ``theta_i = 2 pi i / M`` for an integer M >= 1."""
    if isinstance(num_nodes, bool) or not isinstance(num_nodes, numbers.Integral):
        raise ValueError(f"the grid size M must be an integer, got {num_nodes!r}")
    if num_nodes < 1:
        raise InsufficientSamples(f"a grid needs at least one node, got M = {num_nodes}")
    return 2.0 * np.pi * np.arange(num_nodes) / num_nodes


def _require_order(order, what: str) -> None:
    """Raise ValueError unless a derivative order is a nonnegative integer."""
    if isinstance(order, bool) or not isinstance(order, numbers.Integral) or order < 0:
        raise ValueError(f"the {what} must be a nonnegative integer, got {order!r}")


def _basis(theta: np.ndarray, order: int, deriv: int) -> np.ndarray:
    """Matrix taking stacked coefficients [a_0..a_N, b_1..b_N] to samples of
    the ``deriv``-th theta-derivative at angles ``theta``.  Shape (len, 2N+1)."""
    _require_order(deriv, "derivative order")
    k = np.arange(order + 1, dtype=float)
    # d^j/dtheta^j cos(k t) = k^j cos(k t + j pi/2), same phase shift for sin
    phase = deriv * np.pi / 2.0
    arg = np.outer(theta, k) + phase
    factor = k**deriv
    cos_block = factor * np.cos(arg)
    sin_block = (factor * np.sin(arg))[:, 1:]
    return np.hstack([cos_block, sin_block])


# The grid-matrix caches are typed: as plain cache keys 120.0 == 120 and
# True == 1, and the grid-size and order checks would not see them.
@lru_cache(maxsize=None, typed=True)
def _eval_matrix(order: int, num_nodes: int, deriv: int) -> np.ndarray:
    """:func:`_basis` on the uniform M-point grid, cached read-only.

    Raises as :func:`grid` does, and InsufficientSamples unless M > 2N:
    coarser grids alias the top modes, and every sampled quantity built on
    them would be quietly wrong.
    """
    theta = grid(num_nodes)
    if num_nodes <= 2 * order:
        raise InsufficientSamples(
            f"{num_nodes} grid nodes cannot resolve {order} modes (need M > 2N)"
        )
    mat = _basis(theta, order, deriv)
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=None, typed=True)
def _jet_matrix(order: int, num_nodes: int, max_order: int) -> np.ndarray:
    """The :func:`_eval_matrix` blocks of derivative orders 0..max_order
    stacked row-wise, shape ((max_order+1) M, 2N+1), cached read-only: one
    matmul samples a whole jet."""
    _require_order(max_order, "jet order max_order")
    mat = np.vstack([_eval_matrix(order, num_nodes, j) for j in range(max_order + 1)])
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=None, typed=True)
def _jet_matrix_t(order: int, num_nodes: int, max_order: int) -> np.ndarray:
    """:func:`_jet_matrix` transposed and stored contiguous, cached read-only:
    the energy kernels sample a curve with it and pull cotangents back through
    it, one curve per product, 2-3x faster in BLAS than on a view."""
    mat = np.ascontiguousarray(_jet_matrix(order, num_nodes, max_order).T)
    mat.setflags(write=False)
    return mat


class FourierCurve:
    """Closed curve (or tangent field along one) in Fourier coefficients.

    ``FourierCurve(cos_coeffs, sin_coeffs)`` takes the blocks a_0 .. a_N,
    shape (N+1, d), and b_1 .. b_N, shape (N, d); :meth:`from_coeffs` takes
    their stack.  Either way the curve keeps one read-only copy of the
    stack, :attr:`coeffs`, and :attr:`cos_coeffs` / :attr:`sin_coeffs` are
    views of its two blocks.
    """

    __slots__ = ("_coeffs",)
    min_dim = 2  # curves live in R^d with d >= 2

    def __init__(self, cos_coeffs, sin_coeffs):
        cos = np.atleast_2d(np.asarray(cos_coeffs, dtype=float))
        sin = np.asarray(sin_coeffs, dtype=float)
        if sin.size == 0:
            sin = np.zeros((0, cos.shape[1]))
        sin = np.atleast_2d(sin)
        if cos.ndim != 2 or sin.ndim != 2:
            raise ValueError("coefficient arrays must be 2-d (modes x dim)")
        if sin.shape[0] != cos.shape[0] - 1:
            raise ValueError(
                f"expected {cos.shape[0] - 1} sine rows for order "
                f"{cos.shape[0] - 1}, got {sin.shape[0]}"
            )
        if sin.shape[0] > 0 and sin.shape[1] != cos.shape[1]:
            raise ValueError("cos/sin coefficient dimensions disagree")
        self._set(np.concatenate((cos, sin)))

    @classmethod
    def _of(cls, stacked: np.ndarray) -> "FourierCurve":
        """The curve that stores ``stacked``, a new float array (2N+1, d)."""
        return cls.__new__(cls)._set(stacked)

    def _set(self, stacked: np.ndarray) -> "FourierCurve":
        """Check ``stacked`` and keep it, made read-only and not copied."""
        if stacked.ndim != 2 or stacked.shape[0] % 2 == 0:
            raise ValueError("stacked coefficient array must have 2N+1 rows (modes x dim)")
        if stacked.shape[1] < self.min_dim:
            raise ValueError(f"expected dimension d >= {self.min_dim}, got {stacked.shape[1]}")
        if not np.isfinite(stacked).all():
            raise ValueError("curve coefficients must be finite (got NaN or infinity)")
        stacked.setflags(write=False)
        self._coeffs = stacked
        return self

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.cos_coeffs!r}, {self.sin_coeffs!r})"

    # -- basic descriptors -------------------------------------------------

    @property
    def coeffs(self) -> np.ndarray:
        """Stacked coefficients [a_0..a_N, b_1..b_N], shape (2N+1, d), not copied."""
        return self._coeffs

    @property
    def cos_coeffs(self) -> np.ndarray:
        """Read-only view of a_0 .. a_N, shape (N+1, d)."""
        return self._coeffs[: self.order + 1]

    @property
    def sin_coeffs(self) -> np.ndarray:
        """Read-only view of b_1 .. b_N, shape (N, d)."""
        return self._coeffs[self.order + 1 :]

    @property
    def dim(self) -> int:
        return self._coeffs.shape[1]

    @property
    def order(self) -> int:
        return self._coeffs.shape[0] // 2

    @classmethod
    def from_coeffs(cls, stacked: np.ndarray) -> "FourierCurve":
        """Inverse of :attr:`coeffs`; stacked has shape (2N+1, d) and is copied."""
        return cls._of(np.array(stacked, dtype=float))

    @classmethod
    def zeros(cls, order: int, dim: int) -> "FourierCurve":
        return cls._of(np.zeros((2 * order + 1, dim)))

    # -- evaluation --------------------------------------------------------

    def eval(self, theta: np.ndarray, deriv: int = 0) -> np.ndarray:
        """Evaluate the ``deriv``-th theta-derivative at angles ``theta``."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        return _basis(theta, self.order, deriv) @ self._coeffs

    # -- arithmetic (pads to the larger order, keeps the left operand's type)

    def __add__(self, other: "FourierCurve") -> "FourierCurve":
        return type(self)._of(np.add(*_stack([self, other])))

    def __sub__(self, other: "FourierCurve") -> "FourierCurve":
        return type(self)._of(np.subtract(*_stack([self, other])))

    def __mul__(self, scalar: float) -> "FourierCurve":
        return type(self)._of(self._coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "FourierCurve":
        return self * (-1.0)


def _stack(curves, order: int = 0) -> np.ndarray:
    """Coefficient stack (S, 2N+1, d) of a sequence of curves, each
    zero-padded to N, the larger of ``order`` and their highest order; a
    new writable array.  Raises ValueError if their dimensions differ."""
    n = max(order, *(c.order for c in curves))
    if any(c.dim != curves[0].dim for c in curves):
        raise ValueError("dimension mismatch")
    return np.array([pad(c, n).coeffs for c in curves])


def _stacks(args, what: str):
    """``args`` as coefficient stacks (S, 2N+1, d), and whether they came as
    curves (then S = 1, padded to a common order).  Raises ValueError naming
    ``what`` unless all are curves or all are stacks of one shape, S >= 1."""
    if all(isinstance(a, FourierCurve) for a in args):
        return _stack(args)[:, None], True
    stacks = [np.asarray(a, dtype=float) for a in args if not isinstance(a, FourierCurve)]
    shape = stacks[0].shape
    if (len(stacks) < len(args) or len(shape) != 3 or not shape[0] or shape[1] % 2 == 0
            or any(s.shape != shape for s in stacks)):
        raise ValueError(
            f"{what} must be curves or coefficient stacks of one shape (S, 2N+1, d) with S >= 1"
        )
    return stacks, False


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
    a, n = curve.coeffs, curve.order
    return type(curve)._of(np.concatenate((a[: order + 1], a[n + 1 : n + 1 + order])))


def pad(curve: FourierCurve, order: int) -> FourierCurve:
    """Zero-extend to ``order`` modes; no-op when already long enough."""
    if order <= curve.order:
        return curve
    out = np.zeros((2 * order + 1, curve.dim))
    out[: curve.order + 1] = curve.cos_coeffs
    out[order + 1 : order + 1 + curve.order] = curve.sin_coeffs
    return type(curve)._of(out)


def min_speed(curve: FourierCurve, num_nodes: int) -> float:
    """Minimum of |c'(theta_i)| over the uniform grid."""
    return float(_min_speeds(curve.coeffs[None], num_nodes)[0])


def _min_speeds(stack: np.ndarray, num_nodes: int) -> np.ndarray:
    """Per-curve minimum of |c'(theta_i)| over the uniform grid for a stack
    of coefficient arrays, shape (S, 2N+1, d).  One batched matmul samples
    them curve by curve: a single product over a whole path would reach
    OpenBLAS's thread pool."""
    tangents = np.matmul(_eval_matrix(stack.shape[1] // 2, num_nodes, 1), stack)
    return np.sqrt(np.sum(tangents * tangents, axis=-1)).min(axis=1)


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

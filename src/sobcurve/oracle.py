"""Analytic reference values at the unit-speed circle (order m = 2).

Everything in this module works on exact Fourier coefficients of
trigonometric polynomials: products are coefficient convolutions
(product-to-sum identities), derivatives act mode by mode, and integrals
over S^1 keep only the constant mode.  No quadrature grid is involved, so
these routines are independent of the sampled machinery in
:mod:`sobcurve.metric` and :mod:`sobcurve.energy` and can be used to
validate it.

At a unit-speed parameterization ``|c'| = 1`` the order-two metric and its
first two derivatives with respect to the base curve reduce to integrals of
trigonometric polynomials, and the Christoffel operator diagonalizes over
Fourier modes: mode k of ``2 g_c(Gamma(xi, zeta), .)`` is divided by the
metric symbol ``a0 + a1 k^2 + a2 k^4``.  The only closed unit-speed curves
with finite Fourier order are circles, so the public entry points fix the
base curve to the unit circle ``c(theta) = (cos theta, sin theta)``.

The entry points take tangent fields as ordinary
:class:`~sobcurve.curve.FourierCurve` objects and convert them once to
:class:`TrigPolynomial`, the subclass that adds the exact products.  Field
results are :class:`TrigPolynomial` and combine with curves directly:
``quotient - christoffel_circle(v, w, weights)`` is a curve.
"""

from __future__ import annotations

import numpy as np

from .curve import FourierCurve
from .errors import DegeneratePlane
from .metric import MetricWeights, _require_m2

__all__ = [
    "TrigPolynomial",
    "circle_tangent",
    "christoffel_rhs",
    "christoffel_circle",
    "metric_derivatives_unit_speed",
    "curvature_numerator_circle",
    "sectional_curvature_circle",
]


# ---------------------------------------------------------------------------
# Trigonometric polynomials with exact coefficient arithmetic
# ---------------------------------------------------------------------------


class TrigPolynomial(FourierCurve):
    """Vector-valued trigonometric polynomial with exact pointwise products.

    A :class:`~sobcurve.curve.FourierCurve` (same coefficient layout,
    arithmetic, padding and evaluation) that also allows d = 1 for scalar
    intermediates and multiplies by coefficient convolution, so products
    grow the order instead of aliasing.
    """

    min_dim = 1

    # -- complex exponential representation --------------------------------
    #
    # f = sum_k  hat(f)_k e^{ik theta}  with hat(f)_k = (a_k - i b_k)/2 for
    # k > 0, hat(f)_0 = a_0, hat(f)_{-k} = conj(hat(f)_k).  Stored as an
    # array of shape (2N+1, d) indexed by k = -N .. N.

    def _spectrum(self) -> np.ndarray:
        n, d = self.order, self.dim
        spec = np.zeros((2 * n + 1, d), dtype=complex)
        spec[n] = self.cos_coeffs[0]
        if n:
            pos = (self.cos_coeffs[1:] - 1j * self.sin_coeffs) / 2.0
            spec[n + 1 :] = pos
            spec[:n] = np.conj(pos[::-1])
        return spec

    @classmethod
    def _from_spectrum(cls, spec: np.ndarray) -> "TrigPolynomial":
        n = (spec.shape[0] - 1) // 2
        cos = np.empty((n + 1, spec.shape[1]))
        cos[0] = spec[n].real
        if n:
            pos, neg = spec[n + 1 :], spec[:n][::-1]
            cos[1:] = (pos + neg).real
            sin = (neg - pos).imag
        else:
            sin = np.zeros((0, spec.shape[1]))
        return cls(cos, sin)

    # -- calculus -----------------------------------------------------------

    def derivative(self, order: int = 1) -> "TrigPolynomial":
        """Theta-derivative, applied ``order`` times (exact, mode by mode)."""
        cos, sin = self.cos_coeffs, self.sin_coeffs
        for _ in range(order):
            k = np.arange(1.0, cos.shape[0])[:, None]
            cos, sin = np.vstack([np.zeros((1, self.dim)), k * sin]), -k * cos[1:]
        return TrigPolynomial(cos, sin)

    def integral(self) -> np.ndarray:
        """Integral over S^1, one value per component: 2*pi*a_0."""
        return 2.0 * np.pi * self.cos_coeffs[0].copy()

    def dot(self, other: "TrigPolynomial") -> "TrigPolynomial":
        """Pointwise Euclidean inner product; scalar (d = 1) result."""
        if other.dim != self.dim:
            raise ValueError("dimension mismatch in dot product")
        a, b = self._spectrum(), other._spectrum()
        out = np.zeros(a.shape[0] + b.shape[0] - 1, dtype=complex)
        for i in range(self.dim):
            out += np.convolve(a[:, i], b[:, i])
        return TrigPolynomial._from_spectrum(out[:, None])

    def scale_by(self, scalar_poly: "TrigPolynomial") -> "TrigPolynomial":
        """Pointwise product with a scalar trig polynomial."""
        if scalar_poly.dim != 1:
            raise ValueError("scale_by expects a scalar (d = 1) polynomial")
        s = scalar_poly._spectrum()[:, 0]
        a = self._spectrum()
        out = np.empty((a.shape[0] + s.shape[0] - 1, self.dim), dtype=complex)
        for i in range(self.dim):
            out[:, i] = np.convolve(a[:, i], s)
        return TrigPolynomial._from_spectrum(out)


def _trig(*fields: FourierCurve):
    """The fields as :class:`TrigPolynomial` (same coefficients)."""
    return tuple(
        f if isinstance(f, TrigPolynomial) else TrigPolynomial(f.cos_coeffs, f.sin_coeffs)
        for f in fields
    )


def circle_tangent() -> TrigPolynomial:
    """Derivative of the unit circle, c'(theta) = (-sin theta, cos theta)."""
    return TrigPolynomial(
        np.array([[0.0, 0.0], [0.0, 1.0]]), np.array([[-1.0, 0.0]])
    )


# ---------------------------------------------------------------------------
# Metric and its first two base-curve derivatives at unit speed
# ---------------------------------------------------------------------------


def _g(xi: TrigPolynomial, zeta: TrigPolynomial, w: MetricWeights) -> float:
    a0, a1, a2 = w.coefficients
    x1, z1 = xi.derivative(), zeta.derivative()
    total = a0 * xi.dot(zeta).integral()
    total += a1 * x1.dot(z1).integral()
    total += a2 * x1.derivative().dot(z1.derivative()).integral()
    return float(total[0])


def _dg(nu, xi, zeta, w: MetricWeights) -> float:
    a0, a1, a2 = w.coefficients
    cp = circle_tangent()
    s = cp.dot(nu.derivative())  # c'.nu'
    x1, z1 = xi.derivative(), zeta.derivative()
    inner = (
        a0 * xi.dot(zeta) - a1 * x1.dot(z1) - 3.0 * a2 * x1.derivative().dot(z1.derivative())
    )
    out = inner.scale_by(s).integral()
    out -= a2 * x1.dot(z1).derivative().scale_by(s.derivative()).integral()
    return float(out[0])


def _d2g(nu, eta, xi, zeta, w: MetricWeights) -> float:
    a0, a1, a2 = w.coefficients
    cp = circle_tangent()
    n1, e1 = nu.derivative(), eta.derivative()
    p = n1.dot(e1)
    q = cp.dot(n1).scale_by(cp.dot(e1))
    x1, z1 = xi.derivative(), zeta.derivative()
    dz = x1.dot(z1)
    term = xi.dot(zeta).scale_by(a0 * p - a0 * q)
    term = term - dz.scale_by(a1 * p - 3.0 * a1 * q)
    x2z2 = x1.derivative().dot(z1.derivative())
    term = term - x2z2.scale_by(3.0 * a2 * p - 15.0 * a2 * q)
    term = term + dz.scale_by(cp.dot(n1).derivative()).scale_by(
        2.0 * a2 * cp.dot(e1).derivative()
    )
    term = term - dz.derivative().scale_by(a2 * (p.derivative() - 5.0 * q.derivative()))
    return float(term.integral()[0])


def metric_derivatives_unit_speed(nu, eta, xi, zeta, weights):
    """g, D_c g(nu), and D^2_c g(nu, eta) applied to (xi, zeta) at the circle.

    Returns the triple ``(g(xi, zeta), Dg(nu)(xi, zeta),
    D2g(nu, eta)(xi, zeta))`` for the order-two metric at the unit-speed
    unit circle.  The four fields are tangent fields of dimension 2, any
    :class:`~sobcurve.curve.FourierCurve` (a :class:`TrigPolynomial` included).
    """
    w = _require_m2(weights)
    nu, eta, xi, zeta = _trig(nu, eta, xi, zeta)
    return _g(xi, zeta, w), _dg(nu, xi, zeta, w), _d2g(nu, eta, xi, zeta, w)


# ---------------------------------------------------------------------------
# Christoffel operator via Fourier division
# ---------------------------------------------------------------------------


def christoffel_rhs(xi, zeta, weights) -> TrigPolynomial:
    """The field F with int F.z = Dg(zeta)(xi,z) + Dg(xi)(zeta,z) - Dg(z)(xi,zeta).

    2 g_c(Gamma(xi, zeta), .) equals integration against this field, so the
    Christoffel operator is F/2 divided mode-wise by the metric symbol.
    """
    a0, a1, a2 = _require_m2(weights).coefficients
    xi, zeta = _trig(xi, zeta)
    cp = circle_tangent()

    def one_sided(u, vfield):
        # a0 (c'.u') v + a1 ((c'.u') v')' - 3 a2 ((c'.u') v'')'' - a2 ((c'.u')'' v')'
        s = cp.dot(u.derivative())
        v1 = vfield.derivative()
        out = a0 * vfield.scale_by(s)
        out = out + a1 * v1.scale_by(s).derivative()
        out = out - 3.0 * a2 * v1.derivative().scale_by(s).derivative().derivative()
        out = out - a2 * v1.scale_by(s.derivative(2)).derivative()
        return out

    x1, z1 = xi.derivative(), zeta.derivative()
    f = one_sided(zeta, xi) + one_sided(xi, zeta)
    f = f + a0 * cp.scale_by(xi.dot(zeta)).derivative()
    f = f - a1 * cp.scale_by(x1.dot(z1)).derivative()
    f = f - 3.0 * a2 * cp.scale_by(x1.derivative().dot(z1.derivative())).derivative()
    f = f + a2 * cp.scale_by(x1.dot(z1).derivative(2)).derivative()
    return f


def christoffel_circle(xi, zeta, weights) -> TrigPolynomial:
    """Christoffel operator Gamma_c(xi, zeta) at the unit-speed unit circle.

    Mode k of the right-hand side field, halved, is divided by the symbol
    ``a0 + a1 k^2 + a2 k^4`` of the order-two metric.
    """
    w = _require_m2(weights)
    a0, a1, a2 = w.coefficients
    f = christoffel_rhs(xi, zeta, w)
    k = np.arange(-f.order, f.order + 1, dtype=float)[:, None]
    symbol = a0 + a1 * k**2 + a2 * k**4
    return TrigPolynomial._from_spectrum(f._spectrum() / (2.0 * symbol))


# ---------------------------------------------------------------------------
# Sectional curvature
# ---------------------------------------------------------------------------


def _dgamma_inner(z, v, w, nu, weights) -> float:
    """g(z, D_c Gamma(v, w)(nu)) via second metric derivatives."""
    d2 = _d2g
    val = 0.5 * (
        d2(nu, w, v, z, weights) + d2(nu, v, w, z, weights) - d2(nu, z, v, w, weights)
    )
    return val - _dg(nu, christoffel_circle(v, w, weights), z, weights)


def curvature_numerator_circle(v, w, z, weights) -> float:
    """g_c(v, R_c(v, w) z) at the unit circle, from Christoffel data alone."""
    wt = _require_m2(weights)
    v, w, z = _trig(v, w, z)
    g_zw = christoffel_circle(z, w, wt)
    g_zv = christoffel_circle(z, v, wt)
    out = _dgamma_inner(v, z, w, v, wt) - _dgamma_inner(v, z, v, w, wt)
    out += 0.5 * _dg(g_zw, v, v, wt)
    out += 0.5 * _dg(v, g_zv, w, wt)
    out -= 0.5 * _dg(w, g_zv, v, wt)
    out -= 0.5 * _dg(g_zv, w, v, wt)
    return out


def sectional_curvature_circle(v, w, weights) -> float:
    """Sectional curvature of span(v, w) at the unit circle.

    Raises
    ------
    DegeneratePlane
        If v and w are linearly dependent (Gram determinant ~ 0).
    """
    wt = _require_m2(weights)
    v, w = _trig(v, w)
    gvv = _g(v, v, wt)
    gww = _g(w, w, wt)
    gvw = _g(v, w, wt)
    denom = gvv * gww - gvw**2
    if denom <= 1e-12 * max(gvv * gww, 1e-300):
        raise DegeneratePlane(
            "tangent fields span a degenerate plane (Gram determinant ~ 0)"
        )
    return curvature_numerator_circle(v, w, w, wt) / denom

"""Exact Fourier-side reference computations at the unit circle.

The golden fractions in here were cross-checked three independent ways:
coefficient-convolution assembly, a first-principles Gram solve of the
defining identity against finite differences of the quadrature metric, and
a fully symbolic computation from the metric definition (exact rationals).
"""

import numpy as np
import pytest

from sobcurve.curve import FourierCurve, pad
from sobcurve.errors import DegeneratePlane
from sobcurve.metric import MetricWeights, metric_eval
from sobcurve.oracle import (
    TrigPolynomial,
    christoffel_circle,
    christoffel_rhs,
    circle_tangent,
    curvature_numerator_circle,
    metric_derivatives_unit_speed,
    sectional_curvature_circle,
)

UNIT = MetricWeights.of(1.0, 1.0, 1.0)
WEIGHTED = MetricWeights.of(1e-4, 1.0, 1e-2)

# tangent fields of the two worked examples
V_UNIT = TrigPolynomial([[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0]])  # (cos, 0)
W_UNIT = TrigPolynomial([[0.0, 0.0], [0.0, 1.0]], [[0.0, 0.0]])  # (0, cos)
V_WTD = TrigPolynomial([[0.0, 0.0], [-0.5, 0.0]], [[0.0, 1.0]])  # (-cos/2, sin)
W_WTD = TrigPolynomial([[0.0, 0.0], [1.0, 0.0]], [[0.0, -0.5]])  # (cos, -sin/2)


def rand_field(rng, order=2, scale=0.5):
    return TrigPolynomial(
        rng.normal(size=(order + 1, 2)) * scale, rng.normal(size=(order, 2)) * scale
    )


# ---------------------------------------------------------------------------
# TrigPolynomial arithmetic
# ---------------------------------------------------------------------------


def test_product_to_sum_cos_squared():
    # cos^2 = 1/2 + cos(2 theta)/2, exactly
    f = TrigPolynomial([[0.0], [1.0]], [[0.0]])
    sq = f.scale_by(f)
    assert sq.order == 2
    np.testing.assert_allclose(sq.cos_coeffs[:, 0], [0.5, 0.0, 0.5], atol=1e-16)
    np.testing.assert_allclose(sq.sin_coeffs[:, 0], 0.0, atol=1e-16)


def test_product_order_growth_and_sampling():
    rng = np.random.default_rng(7)
    a, b = rand_field(rng, order=3), rand_field(rng, order=2)
    d = a.dot(b)
    assert d.order <= a.order + b.order
    theta = np.linspace(0.0, 2.0 * np.pi, 17, endpoint=False)
    np.testing.assert_allclose(
        d.eval(theta)[:, 0],
        np.sum(a.eval(theta) * b.eval(theta), axis=1),
        atol=1e-13,
    )


def test_derivative_and_integral():
    f = TrigPolynomial([[1.0], [0.0], [0.0]], [[2.0], [0.5]])  # 1 + 2 sin + .5 sin2
    df = f.derivative()
    np.testing.assert_allclose(df.cos_coeffs[:, 0], [0.0, 2.0, 1.0], atol=1e-16)
    np.testing.assert_allclose(df.sin_coeffs[:, 0], 0.0, atol=1e-16)
    assert f.integral()[0] == pytest.approx(2.0 * np.pi)
    assert df.integral()[0] == pytest.approx(0.0, abs=1e-16)


def test_linear_ops_and_pad():
    rng = np.random.default_rng(3)
    a, b = rand_field(rng, 2), rand_field(rng, 4)
    s = a + 2.0 * b - b
    theta = np.linspace(0.0, 2.0 * np.pi, 11)
    np.testing.assert_allclose(s.eval(theta), a.eval(theta) + b.eval(theta), atol=1e-14)
    assert isinstance(s, TrigPolynomial)
    assert isinstance(pad(a, 6), TrigPolynomial) and pad(a, 6).order == 6
    np.testing.assert_allclose(pad(a, 6).eval(theta), a.eval(theta), atol=1e-15)
    assert pad(a, 1) is a


def test_circle_tangent_values():
    theta = np.linspace(0.0, 2.0 * np.pi, 9)
    vals = circle_tangent().eval(theta)
    np.testing.assert_allclose(vals, np.stack([-np.sin(theta), np.cos(theta)], 1), atol=1e-15)


# ---------------------------------------------------------------------------
# Golden values: unit-weight worked example
# ---------------------------------------------------------------------------


def test_christoffel_rhs_matches_polynomial_form():
    # F(c,v,w) = (30 cos^2 sin - 11 sin^3, -33 cos sin^2 + 8 cos^3)
    f = christoffel_rhs(V_UNIT, W_UNIT, UNIT)
    theta = np.linspace(0.0, 2.0 * np.pi, 23, endpoint=False)
    expected = np.stack(
        [
            30 * np.cos(theta) ** 2 * np.sin(theta) - 11 * np.sin(theta) ** 3,
            -33 * np.cos(theta) * np.sin(theta) ** 2 + 8 * np.cos(theta) ** 3,
        ],
        axis=1,
    )
    np.testing.assert_allclose(f.eval(theta), expected, atol=1e-12)


def test_christoffel_golden_unit_weights():
    g = pad(christoffel_circle(V_UNIT, W_UNIT, UNIT), 4)
    np.testing.assert_allclose(g.sin_coeffs[:, 0], [-1 / 8, 0, 41 / 728, 0], atol=1e-12)
    np.testing.assert_allclose(
        g.cos_coeffs[:, 1], [0, -3 / 8, 0, 41 / 728, 0], atol=1e-12
    )
    np.testing.assert_allclose(g.cos_coeffs[:, 0], 0.0, atol=1e-12)
    np.testing.assert_allclose(g.sin_coeffs[:, 1], 0.0, atol=1e-12)

    gww = pad(christoffel_circle(W_UNIT, W_UNIT, UNIT), 4)
    np.testing.assert_allclose(
        gww.cos_coeffs[:, 0], [0, 3 / 8, 0, -9 / 728, 0], atol=1e-12
    )
    np.testing.assert_allclose(gww.sin_coeffs[:, 1], [-1 / 8, 0, 73 / 728, 0], atol=1e-12)


def test_christoffel_golden_weighted():
    g = pad(christoffel_circle(V_WTD, W_WTD, WEIGHTED), 4)
    np.testing.assert_allclose(
        g.cos_coeffs[:, 0], [0, -4027 / 107744, 0, -305091 / 3139232, 0], atol=1e-12
    )
    np.testing.assert_allclose(
        g.sin_coeffs[:, 1], [-4027 / 107744, 0, 305091 / 3139232, 0], atol=1e-12
    )
    np.testing.assert_allclose(g.sin_coeffs[:, 0], 0.0, atol=1e-12)
    np.testing.assert_allclose(g.cos_coeffs[:, 1], 0.0, atol=1e-12)


def test_christoffel_symmetric_and_bilinear():
    rng = np.random.default_rng(11)
    xi, zeta = rand_field(rng), rand_field(rng)
    theta = np.linspace(0.0, 2.0 * np.pi, 13)
    ab = christoffel_circle(xi, zeta, WEIGHTED).eval(theta)
    ba = christoffel_circle(zeta, xi, WEIGHTED).eval(theta)
    np.testing.assert_allclose(ab, ba, atol=1e-13)
    zero = christoffel_circle(xi, TrigPolynomial.zeros(2, 2), WEIGHTED)
    np.testing.assert_allclose(zero.eval(theta), 0.0, atol=1e-15)
    two = christoffel_circle(2.0 * xi, zeta, WEIGHTED).eval(theta)
    np.testing.assert_allclose(two, 2.0 * ab, atol=1e-13)


@pytest.mark.parametrize("weights", [UNIT, WEIGHTED])
def test_christoffel_defining_identity(weights):
    # 2 g(Gamma(xi, zeta), z) = Dg(zeta)(xi, z) + Dg(xi)(zeta, z) - Dg(z)(xi, zeta)
    rng = np.random.default_rng(17)
    xi, zeta = rand_field(rng), rand_field(rng)
    gamma = christoffel_circle(xi, zeta, weights)
    for _ in range(20):
        z = rand_field(rng, order=3)
        lhs = 2.0 * metric_derivatives_unit_speed(z, z, gamma, z, weights)[0]
        d1 = metric_derivatives_unit_speed(zeta, z, xi, z, weights)[1]
        d2 = metric_derivatives_unit_speed(xi, z, zeta, z, weights)[1]
        d3 = metric_derivatives_unit_speed(z, z, xi, zeta, weights)[1]
        assert lhs == pytest.approx(d1 + d2 - d3, abs=1e-10)


# ---------------------------------------------------------------------------
# Metric derivatives
# ---------------------------------------------------------------------------


def test_metric_values_of_example_fields():
    g_vv = metric_derivatives_unit_speed(V_UNIT, V_UNIT, V_UNIT, V_UNIT, UNIT)[0]
    g_ww = metric_derivatives_unit_speed(W_UNIT, W_UNIT, W_UNIT, W_UNIT, UNIT)[0]
    g_vw = metric_derivatives_unit_speed(V_UNIT, V_UNIT, V_UNIT, W_UNIT, UNIT)[0]
    assert g_vv == pytest.approx(3.0 * np.pi, abs=1e-12)
    assert g_ww == pytest.approx(3.0 * np.pi, abs=1e-12)
    assert g_vw == pytest.approx(0.0, abs=1e-14)


def test_first_derivative_vanishes_for_constant_direction():
    rng = np.random.default_rng(23)
    xi, zeta = rand_field(rng), rand_field(rng)
    const = TrigPolynomial([[0.7, -1.3]], np.zeros((0, 2)))
    dg = metric_derivatives_unit_speed(const, const, xi, zeta, WEIGHTED)[1]
    assert dg == pytest.approx(0.0, abs=1e-14)


def _circle_curve():
    return FourierCurve(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 1.0]]))


@pytest.mark.parametrize("weights", [UNIT, WEIGHTED])
def test_metric_derivatives_match_finite_differences(weights):
    rng = np.random.default_rng(29)
    circle = _circle_curve()
    h, nodes = 1e-4, 512
    for _ in range(3):
        nu, eta, xi, zeta = (rand_field(rng) for _ in range(4))
        g, dg, d2g = metric_derivatives_unit_speed(nu, eta, xi, zeta, weights)
        cn, ce, cx, cz = (pad(f, 6) for f in (nu, eta, xi, zeta))
        assert g == pytest.approx(metric_eval(circle, cx, cz, weights, nodes), rel=1e-10)
        fd1 = (
            metric_eval(circle + cn * h, cx, cz, weights, nodes)
            - metric_eval(circle + cn * (-h), cx, cz, weights, nodes)
        ) / (2.0 * h)
        assert dg == pytest.approx(fd1, abs=1e-6 * (1.0 + abs(dg)))
        fd2 = (
            metric_eval(circle + cn * h + ce * h, cx, cz, weights, nodes)
            - metric_eval(circle + cn * h + ce * (-h), cx, cz, weights, nodes)
            - metric_eval(circle + cn * (-h) + ce * h, cx, cz, weights, nodes)
            + metric_eval(circle + cn * (-h) + ce * (-h), cx, cz, weights, nodes)
        ) / (4.0 * h * h)
        assert d2g == pytest.approx(fd2, abs=1e-6 * (1.0 + abs(d2g)))


def test_second_derivative_symmetric_in_directions():
    rng = np.random.default_rng(31)
    nu, eta, xi, zeta = (rand_field(rng) for _ in range(4))
    ab = metric_derivatives_unit_speed(nu, eta, xi, zeta, WEIGHTED)[2]
    ba = metric_derivatives_unit_speed(eta, nu, xi, zeta, WEIGHTED)[2]
    assert ab == pytest.approx(ba, rel=1e-12)


# ---------------------------------------------------------------------------
# Sectional curvature
# ---------------------------------------------------------------------------


def test_curvature_golden_values():
    numerator = curvature_numerator_circle(V_UNIT, W_UNIT, W_UNIT, UNIT)
    assert numerator == pytest.approx(-31.0 * np.pi / 13.0, abs=1e-12)
    kappa = sectional_curvature_circle(V_UNIT, W_UNIT, UNIT)
    assert kappa == pytest.approx(-31.0 / (117.0 * np.pi), abs=1e-12)


def test_curvature_symmetries():
    assert sectional_curvature_circle(W_UNIT, V_UNIT, UNIT) == pytest.approx(
        sectional_curvature_circle(V_UNIT, W_UNIT, UNIT), rel=1e-12
    )
    # antisymmetry of R in its first two arguments: numerator with w=v vanishes
    assert curvature_numerator_circle(V_UNIT, V_UNIT, W_UNIT, UNIT) == pytest.approx(
        0.0, abs=1e-12
    )


def test_degenerate_plane_raises():
    with pytest.raises(DegeneratePlane):
        sectional_curvature_circle(V_UNIT, V_UNIT, UNIT)
    with pytest.raises(DegeneratePlane):
        sectional_curvature_circle(V_UNIT, -2.0 * V_UNIT, UNIT)


def test_plain_curves_match_trig_polynomials_exactly():
    # the entry points take any FourierCurve; converting first changes no bit
    rng = np.random.default_rng(37)
    polys = [rand_field(rng, order=k % 3 + 1) for k in range(4)]
    curves = [FourierCurve(p.cos_coeffs, p.sin_coeffs) for p in polys]
    v, w, z, u = curves
    for weights in (UNIT, WEIGHTED):
        gam = christoffel_circle(v, w, weights)
        assert isinstance(gam, TrigPolynomial)
        for got, want in (
            (christoffel_rhs(v, w, weights), christoffel_rhs(*polys[:2], weights)),
            (gam, christoffel_circle(*polys[:2], weights)),
        ):
            assert np.array_equal(got.coeffs, want.coeffs)
        assert metric_derivatives_unit_speed(*curves, weights) == (
            metric_derivatives_unit_speed(*polys, weights)
        )
        assert curvature_numerator_circle(v, w, z, weights) == (
            curvature_numerator_circle(*polys[:3], weights)
        )
        assert sectional_curvature_circle(v, w, weights) == (
            sectional_curvature_circle(*polys[:2], weights)
        )
        # a curve minus an oracle field is a curve of the larger order
        diff = u - gam
        n = max(u.order, gam.order)
        assert type(diff) is FourierCurve and diff.order == n
        assert np.array_equal(diff.coeffs, pad(u, n).coeffs - pad(gam, n).coeffs)


def test_order_restriction():
    with pytest.raises(ValueError):
        sectional_curvature_circle(V_UNIT, W_UNIT, MetricWeights.of(1.0, 0.0, 1.0, 1.0))

import math

import numpy as np
import pytest

from conftest import circle, nearby_pair, perturbed_circle, rotate, tangent_field, translate
from sobcurve.curve import FourierCurve, grid
from sobcurve.errors import DegenerateCurve
from sobcurve.metric import (
    MetricWeights,
    _scalar_arclength_ops,
    gram_scalar,
    metric_eval,
    sobolev_norm,
    spectral_theta_deriv,
    w_lin_oracle,
)

W2 = MetricWeights.of(1.0, 1.0, 1.0)
W3 = MetricWeights.of(1.0, 0.0, 0.5, 0.25)  # a zero coefficient and a third order


class TestWeights:
    def test_order(self):
        assert MetricWeights.of(1.0, 0.0, 2.0).order == 2
        assert MetricWeights.of(1.0, 0.0, 0.0, 2.0).order == 3

    @pytest.mark.parametrize(
        "coeffs",
        [(1.0,), (1.0, 1.0), (0.0, 1.0, 1.0), (1.0, 1.0, 0.0), (1.0, -1.0, 1.0),
         (1.0, math.nan, 1.0), (1.0, 1.0, math.inf)],
    )
    def test_validation(self, coeffs):
        with pytest.raises(ValueError):
            MetricWeights.of(*coeffs)


@pytest.mark.parametrize("num_nodes", [32, 33])
def test_spectral_derivative_exact(num_nodes):
    theta = grid(num_nodes)
    vals = np.stack([np.cos(3 * theta) + 0.5 * np.sin(7 * theta), np.sin(theta)], 1)
    expected = np.stack([-3 * np.sin(3 * theta) + 3.5 * np.cos(7 * theta), np.cos(theta)], 1)
    np.testing.assert_allclose(spectral_theta_deriv(vals), expected, atol=1e-12)


def test_arclength_chain_is_theta_jet_at_unit_circle():
    # unit speed makes d_s = d_theta, so the chain applied to the columns of
    # the evaluation matrix gives the theta-jet of any field
    rng = np.random.default_rng(0)
    field = tangent_field(rng, 3)
    ops, speed = _scalar_arclength_ops(circle(), W3, field.order, 64)
    theta = grid(64)
    np.testing.assert_allclose(speed, 1.0, atol=1e-14)
    for j in range(4):
        np.testing.assert_allclose(ops[j] @ field.coeffs, field.eval(theta, deriv=j), atol=1e-10)


def test_degenerate_base_is_rejected():
    flat = FourierCurve(np.array([[0.3, -0.1]]), np.zeros((0, 2)))  # a point
    with pytest.raises(DegenerateCurve):
        metric_eval(flat, circle(), circle(), W2, 16)
    with pytest.raises(DegenerateCurve):
        gram_scalar(flat, W2, 1, 16)


def test_metric_rejects_fields_of_another_dimension():
    field = FourierCurve(np.array([[0.0, 0.0, 1.0]]), np.zeros((0, 3)))
    with pytest.raises(ValueError, match="dimension"):
        metric_eval(circle(), field, field, W2, 16)
    with pytest.raises(ValueError, match="dimension"):
        metric_eval(circle(), circle(), field, W2, 16)


@pytest.mark.parametrize("mode", range(1, 4))
@pytest.mark.parametrize("part", ["cos", "sin"])
def test_metric_symbol_on_fourier_basis(mode, part):
    # at the unit circle, g(e, e) = pi (a0 + a1 k^2 + a2 k^4) for e = cos/sin(k.) e_i
    cos = np.zeros((mode + 1, 2))
    sin = np.zeros((mode, 2))
    if part == "cos":
        cos[mode, 0] = 1.0
    else:
        sin[mode - 1, 0] = 1.0
    e = FourierCurve(cos, sin)
    expected = np.pi * (1.0 + mode**2 + mode**4)
    assert metric_eval(circle(), e, e, W2, 128) == pytest.approx(expected, rel=1e-12)


def test_metric_scaling_with_radius():
    # constant field: g = a0 * length; cos(k.) field picks up R^(1-2j) factors
    r = 1.7
    const = FourierCurve(np.array([[1.0, 0.0]]), np.zeros((0, 2)))
    val = metric_eval(circle(radius=r), const, const, W2, 64)
    assert val == pytest.approx(2.0 * np.pi * r, rel=1e-12)
    k = 2
    cos = np.zeros((k + 1, 2))
    cos[k, 0] = 1.0
    e = FourierCurve(cos, np.zeros((k, 2)))
    expected = np.pi * r * (1.0 + k**2 / r**2 + k**4 / r**4)
    assert metric_eval(circle(radius=r), e, e, W2, 128) == pytest.approx(expected, rel=1e-12)


def test_metric_symmetric_bilinear():
    rng = np.random.default_rng(1)
    base = perturbed_circle(rng)
    xi, zeta, eta = (tangent_field(rng, 3) for _ in range(3))
    g = lambda a, b: metric_eval(base, a, b, W2, 128)
    assert g(xi, zeta) == pytest.approx(g(zeta, xi), rel=1e-13)
    assert g(xi + eta, zeta) == pytest.approx(g(xi, zeta) + g(eta, zeta), rel=1e-12)
    assert g(xi * 2.5, zeta) == pytest.approx(2.5 * g(xi, zeta), rel=1e-13)


def test_metric_rigid_motion_invariance():
    rng = np.random.default_rng(2)
    base = perturbed_circle(rng)
    xi, zeta = tangent_field(rng, 3), tangent_field(rng, 3)
    ref = metric_eval(base, xi, zeta, W2, 128)
    shifted = metric_eval(translate(base, (3.0, -1.0)), xi, zeta, W2, 128)
    assert shifted == pytest.approx(ref, rel=1e-13)
    ang = 0.83
    rotated = metric_eval(rotate(base, ang), rotate(xi, ang), rotate(zeta, ang), W2, 128)
    assert rotated == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("weights", [W2, W3], ids=["m2", "m3"])
def test_gram_reproduces_metric(weights):
    rng = np.random.default_rng(3)
    base = perturbed_circle(rng, order=3)
    order = 4
    G = np.kron(gram_scalar(base, weights, order, 128), np.eye(base.dim))
    for _ in range(5):
        xi, zeta = tangent_field(rng, order), tangent_field(rng, order)
        quad = xi.coeffs.ravel() @ G @ zeta.coeffs.ravel()
        assert quad == pytest.approx(metric_eval(base, xi, zeta, weights, 128), rel=1e-11)
    np.testing.assert_allclose(G, G.T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(G) > 0.0)


def test_sobolev_norm_circle():
    # each derivative order contributes pi (1 + 1) = 2 pi
    assert sobolev_norm(circle(), 2) == pytest.approx(np.sqrt(6.0 * np.pi), rel=1e-14)
    assert sobolev_norm(circle(), 1) == pytest.approx(np.sqrt(4.0 * np.pi), rel=1e-14)


@pytest.mark.parametrize("order", [-1, -2, 1.5, 2.0, True, "2"])
def test_sobolev_norm_rejects_bad_orders(order):
    # -1 used to return the norm of the mean alone, 1.5 a bare TypeError
    with pytest.raises(ValueError, match="integer >= 0"):
        sobolev_norm(circle(), order)


class TestWLin:
    def test_zero_on_diagonal(self):
        rng = np.random.default_rng(4)
        c = perturbed_circle(rng)
        assert w_lin_oracle(c, c, W2, 64) == pytest.approx(0.0, abs=1e-15)

    def test_symmetric(self):
        rng = np.random.default_rng(5)
        a, b = nearby_pair(rng)
        assert w_lin_oracle(a, b, W2, 64) == pytest.approx(
            w_lin_oracle(b, a, W2, 64), rel=1e-12
        )

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        a, b = nearby_pair(rng)
        ref = w_lin_oracle(a, b, W2, 64)
        moved = w_lin_oracle(translate(a, (2.0, 5.0)), translate(b, (2.0, 5.0)), W2, 64)
        assert moved == pytest.approx(ref, rel=1e-13)

    def test_circle_pair_self_convergence(self):
        # doubling both quadrature knobs, M and the 16 Gauss-Legendre time
        # nodes, changes the value below 1e-8; the fine value is summed here
        a, b = circle(1.0), circle(1.1)
        coarse = w_lin_oracle(a, b, W2, 32)
        delta = b - a
        nodes, node_weights = np.polynomial.legendre.leggauss(32)
        fine = sum(
            0.5 * wt * metric_eval(a + delta * (0.5 * (x + 1.0)), delta, delta, W2, 64)
            for x, wt in zip(nodes, node_weights)
        )
        assert coarse == pytest.approx(fine, abs=1e-8)

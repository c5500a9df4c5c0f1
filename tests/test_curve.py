import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import circle, perturbed_circle
from sobcurve.curve import (
    FourierCurve,
    _min_speeds,
    grid,
    load_curve,
    min_speed,
    project_samples,
    sample_jet,
    save_curve,
    truncate,
    curve_from_dict,
    curve_to_dict,
)
from sobcurve.errors import InsufficientSamples


def test_grid_spacing():
    theta = grid(8)
    assert theta.shape == (8,)
    assert theta[0] == 0.0
    np.testing.assert_allclose(np.diff(theta), 2.0 * np.pi / 8)


class TestConstruction:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FourierCurve(np.zeros((3, 2)), np.zeros((3, 2)))  # needs N sin rows
        with pytest.raises(ValueError):
            FourierCurve(np.zeros((2, 1)), np.zeros((1, 1)))  # d >= 2

    def test_descriptors(self):
        c = circle(order=3)
        assert c.order == 3
        assert c.dim == 2
        assert c.coeffs.shape == (7, 2)

    def test_coeffs_round_trip(self):
        rng = np.random.default_rng(0)
        c = perturbed_circle(rng, order=5)
        again = FourierCurve.from_coeffs(c.coeffs)
        np.testing.assert_array_equal(again.cos_coeffs, c.cos_coeffs)
        np.testing.assert_array_equal(again.sin_coeffs, c.sin_coeffs)

    def test_coefficients_read_only(self):
        c = circle()
        with pytest.raises(ValueError):
            c.cos_coeffs[0, 0] = 1.0


def test_eval_circle_derivatives():
    c = circle(radius=2.0)
    theta = np.linspace(0.0, 2.0 * np.pi, 13)
    np.testing.assert_allclose(
        c.eval(theta), 2.0 * np.stack([np.cos(theta), np.sin(theta)], 1), atol=1e-14
    )
    np.testing.assert_allclose(
        c.eval(theta, deriv=1),
        2.0 * np.stack([-np.sin(theta), np.cos(theta)], 1),
        atol=1e-14,
    )
    np.testing.assert_allclose(c.eval(theta, deriv=2), -c.eval(theta), atol=1e-13)


def test_arithmetic_matches_pointwise():
    rng = np.random.default_rng(1)
    a, b = perturbed_circle(rng, 3), perturbed_circle(rng, 5)
    theta = grid(16)
    np.testing.assert_allclose(
        (a + b).eval(theta), a.eval(theta) + b.eval(theta), atol=1e-14
    )
    np.testing.assert_allclose(
        (a - b * 0.5).eval(theta), a.eval(theta) - 0.5 * b.eval(theta), atol=1e-14
    )
    np.testing.assert_allclose((-a).eval(theta), -a.eval(theta), atol=1e-15)


def test_sample_jet_matches_eval():
    rng = np.random.default_rng(2)
    c = perturbed_circle(rng, order=4)
    jet = sample_jet(c, 32, 3)
    theta = grid(32)
    for j in range(4):
        np.testing.assert_allclose(jet.deriv(j), c.eval(theta, deriv=j), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(order=st.integers(0, 6), extra=st.integers(1, 9), seed=st.integers(0, 2**31))
def test_projection_recovers_coefficients(order, extra, seed):
    rng = np.random.default_rng(seed)
    stacked = rng.normal(size=(2 * order + 1, 2))
    c = FourierCurve.from_coeffs(stacked)
    samples = c.eval(grid(2 * order + 1 + extra))
    back = project_samples(samples, order)
    np.testing.assert_allclose(back.coeffs, stacked, atol=1e-12)


def test_projection_needs_enough_samples():
    c = circle(order=4)
    with pytest.raises(InsufficientSamples):
        project_samples(c.eval(grid(8)), 4)  # 8 <= 2*4


def test_truncate():
    rng = np.random.default_rng(3)
    c = perturbed_circle(rng, order=6)
    t = truncate(c, 2)
    assert t.order == 2
    np.testing.assert_array_equal(t.cos_coeffs, c.cos_coeffs[:3])
    assert truncate(c, 9) is c  # no-op when already short enough


def test_min_speed():
    assert min_speed(circle(radius=0.7), 64) == pytest.approx(0.7, rel=1e-12)
    rng = np.random.default_rng(4)
    c = perturbed_circle(rng)
    speeds = np.linalg.norm(sample_jet(c, 256, 1).deriv(1), axis=1)
    assert min_speed(c, 256) == pytest.approx(np.min(speeds))


def test_min_speeds_of_a_stack_match_each_curve():
    rng = np.random.default_rng(6)
    curves = [perturbed_circle(rng) for _ in range(5)] + [FourierCurve.zeros(4, 2)]
    speeds = _min_speeds(np.stack([c.coeffs for c in curves]), 32)
    np.testing.assert_allclose(speeds, [min_speed(c, 32) for c in curves], rtol=1e-15, atol=0.0)
    assert speeds[-1] == 0.0


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        c = perturbed_circle(rng, order=3)
        path = tmp_path / "curve.json"
        save_curve(c, str(path))
        back = load_curve(str(path))
        np.testing.assert_array_equal(back.cos_coeffs, c.cos_coeffs)
        np.testing.assert_array_equal(back.sin_coeffs, c.sin_coeffs)
        # file is plain json
        data = json.loads(path.read_text())
        assert "cos" in data and "sin" in data

    def test_dict_round_trip(self):
        c = circle(order=2)
        np.testing.assert_array_equal(
            curve_from_dict(curve_to_dict(c)).coeffs, c.coeffs
        )

    def test_dict_validation(self):
        bad = curve_to_dict(circle(order=2))
        bad["sin"] = bad["sin"][:-1]
        with pytest.raises(ValueError):
            curve_from_dict(bad)

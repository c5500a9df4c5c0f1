import json

import numpy as np
import pytest

from conftest import MALFORMED, circle, perturbed_circle
from sobcurve.curve import (
    FourierCurve,
    _min_speeds,
    grid,
    load_curve,
    min_speed,
    sample_jet,
    save_curve,
    truncate,
    curve_from_dict,
    curve_to_dict,
)
from sobcurve.energy import EnergyKind, w_eval, w_value_and_grad
from sobcurve.metric import MetricWeights, metric_eval
from sobcurve.oracle import TrigPolynomial


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
        # from_coeffs keeps its own copy of the stack it is given
        stacked = c.coeffs.copy()
        kept = FourierCurve.from_coeffs(stacked)
        stacked[0, 0] = 7.0
        np.testing.assert_array_equal(kept.coeffs, c.coeffs)

    @pytest.mark.parametrize("cls", [FourierCurve, TrigPolynomial])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("block", ["cos", "sin"])
    def test_non_finite_coefficients_rejected(self, cls, bad, block):
        coeffs = {"cos": np.ones((3, 2)), "sin": np.ones((2, 2))}
        coeffs[block][-1, 1] = bad
        with pytest.raises(ValueError, match="must be finite"):
            cls(coeffs["cos"], coeffs["sin"])

    def test_coefficients_read_only(self):
        # one stored stack, returned without a copy; the blocks are views of it
        for cls in (FourierCurve, TrigPolynomial):
            c = cls(circle(order=3).cos_coeffs, circle(order=3).sin_coeffs)
            assert c.coeffs is c.coeffs
            for block in (c.coeffs, c.cos_coeffs, c.sin_coeffs):
                assert not block.flags.writeable
                assert np.shares_memory(block, c.coeffs)
                with pytest.raises(ValueError):
                    block[0, 0] = 1.0
            with pytest.raises(AttributeError):
                c.coeffs = np.zeros((7, 2))


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
    # arithmetic keeps the left operand's type, also between the two types
    for cls, other_cls in [(TrigPolynomial, FourierCurve), (FourierCurve, TrigPolynomial)]:
        x, y = cls(a.cos_coeffs, a.sin_coeffs), other_cls(b.cos_coeffs, b.sin_coeffs)
        for result in (x + y, x - y * 0.5, -x, 2.0 * x):
            assert type(result) is cls
        np.testing.assert_array_equal((x + y).coeffs, (a + b).coeffs)


def test_sample_jet_matches_eval():
    rng = np.random.default_rng(2)
    c = perturbed_circle(rng, order=4)
    jet = sample_jet(c, 32, 3)
    assert jet.shape == (4, 32, 2) and not jet.flags.writeable
    theta = grid(32)
    for j in range(4):
        np.testing.assert_allclose(jet[j], c.eval(theta, deriv=j), atol=1e-12)


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
    speeds = np.linalg.norm(sample_jet(c, 256, 1)[1], axis=1)
    assert min_speed(c, 256) == pytest.approx(np.min(speeds))


def test_min_speeds_of_a_stack_match_each_curve():
    rng = np.random.default_rng(6)
    curves = [perturbed_circle(rng) for _ in range(5)] + [FourierCurve.zeros(4, 2)]
    speeds = _min_speeds(np.stack([c.coeffs for c in curves]), 32)
    np.testing.assert_allclose(speeds, [min_speed(c, 32) for c in curves], rtol=1e-15, atol=0.0)
    assert speeds[-1] == 0.0


def test_min_speeds_of_a_whole_path_match_each_curve():
    # 129 curves of order 30: one product over the whole stack would be
    # above OpenBLAS's threading size
    rng = np.random.default_rng(9)
    curves = [perturbed_circle(rng, order=30) for _ in range(129)]
    speeds = _min_speeds(np.stack([c.coeffs for c in curves]), 120)
    np.testing.assert_allclose(speeds, [min_speed(c, 120) for c in curves], rtol=1e-14, atol=0.0)


_C, _W, _RAT = circle(order=3), MetricWeights.of(1.0, 1.0, 1.0), EnergyKind.rat()
_PATH = np.stack([_C.coeffs] * 20)  # more segments than one block of 120-node grids
GRID_CALLS = {
    "w_eval": lambda m: w_eval(_C, _C * 1.1, _W, _RAT, m),
    "w_eval_stack": lambda m: w_eval(_PATH, _PATH * 1.1, _W, _RAT, m),
    "w_value_and_grad": lambda m: w_value_and_grad(_C, _C * 1.1, _W, _RAT, m)[1].coeffs,
    "sample_jet": lambda m: sample_jet(_C, m, 2),
    "min_speed": lambda m: min_speed(_C, m),
    "metric_eval": lambda m: metric_eval(_C, _C, _C, _W, m),
}


@pytest.mark.parametrize("name", GRID_CALLS)
@pytest.mark.parametrize("bad", [120.0, True])
def test_grid_size_must_be_an_integer(name, bad):
    # as plain cache keys 120.0 == 120 and True == 1: the bad size must be
    # rejected also after call(120) has filled the grid-matrix caches
    call = GRID_CALLS[name]
    expected = call(120)
    with pytest.raises(ValueError, match="grid size M must be an integer"):
        call(bad)
    np.testing.assert_array_equal(call(np.int64(120)), expected)


ORDER_CALLS = {
    "eval": lambda j: _C.eval(np.linspace(0.0, 1.0, 5), j),
    "sample_jet": lambda j: sample_jet(_C, 16, j),
}


@pytest.mark.parametrize("name", ORDER_CALLS)
@pytest.mark.parametrize("bad", [-1, 1.5, 1.0, True], ids=["negative", "fractional", "float",
                                                           "bool"])
def test_derivative_order_must_be_a_nonnegative_integer(name, bad):
    # once -1 gave NaN, 1.5 a "fractional derivative", and sample_jet raised
    # bare numpy errors; the order-2 result fills the caches first
    call = ORDER_CALLS[name]
    expected = call(2)
    with pytest.raises(ValueError, match=f"must be a nonnegative integer, got {bad!r}$"):
        call(bad)
    np.testing.assert_array_equal(call(np.int64(2)), expected)


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


@pytest.mark.parametrize("mutate, message", MALFORMED, ids=[m.__name__ for m, _ in MALFORMED])
def test_load_curve_rejects_malformed_records(mutate, message, tmp_path):
    record = curve_to_dict(circle(order=2))
    mutate(record)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(record))
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_curve(str(path))

import numpy as np
import pytest

from conftest import circle, perturbed_circle, tangent_field
from sobcurve import transport
from sobcurve.curve import FourierCurve, pad
from sobcurve.energy import EnergyKind
from sobcurve.errors import DegeneratePlane, NoConvergence
from sobcurve.geodesic import DiscretePath, SolverOptions, solve_bvp
from sobcurve.metric import MetricWeights, metric_eval
from sobcurve.oracle import christoffel_circle, sectional_curvature_circle
from sobcurve.transport import (
    CurvatureSchedule,
    cov_deriv,
    inverse_transport,
    riemann_tensor,
    schild_step,
    sectional_curvature,
    transport_inner_products,
    transport_path,
)

W = MetricWeights.of(1e-4, 1.0, 1e-2)
UNIT = MetricWeights.of(1.0, 1.0, 1.0)
M = 64
RAT = EnergyKind.rat()


def field_xy(cx, sy):
    """Order-1 tangent field cx*cos(theta) e_x-ish building helper."""
    cos = np.zeros((2, 2))
    sin = np.zeros((1, 2))
    cos[1, 0] = cx
    sin[0, 1] = sy
    return FourierCurve(cos, sin)


V_UNIT = FourierCurve(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 0.0]]))
W_UNIT = FourierCurve(np.array([[0.0, 0.0], [0.0, 1.0]]), np.array([[0.0, 0.0]]))


def max_coeff_diff(a, b):
    n = max(a.order, b.order)
    return np.max(np.abs(pad(a, n).coeffs - pad(b, n).coeffs))


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


class TestCurvatureSchedule:
    def test_one_sided_defaults(self):
        sch = CurvatureSchedule.one_sided(0.1)
        assert sch.beta == 2.0
        assert sch.eps_out == pytest.approx(0.1)
        assert sch.eps_in == pytest.approx(0.01)
        assert not sch.centered
        assert sch.inner_step(0.1) == pytest.approx(0.01)

    def test_central_defaults(self):
        sch = CurvatureSchedule.central(0.1, scale=2.0)
        assert sch.beta == 1.5
        assert sch.eps_out == pytest.approx(0.005)
        assert sch.eps_in == pytest.approx(0.0005)
        assert sch.centered

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            CurvatureSchedule(beta=1.0, eps_out=0.1, eps_in=0.01)
        with pytest.raises(ValueError):
            CurvatureSchedule(beta=2.0, eps_out=0.0, eps_in=0.01)

    def test_kinds_resolution(self):
        sch = CurvatureSchedule.one_sided(0.25)
        outer, inner = sch.kinds(RAT)
        assert outer.is_rat and inner.is_rat
        outer, inner = sch.kinds(EnergyKind.reg(1.0))
        assert outer.epsilon == pytest.approx(0.25)
        assert inner.epsilon == pytest.approx(0.0625)


# ---------------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------------


class TestSchildStep:
    def test_zero_vector_transports_to_zero(self):
        out = schild_step(circle(), V_UNIT, FourierCurve.zeros(1, 2), 0.1, W, RAT, M)
        assert np.max(np.abs(out.coeffs)) <= 1e-12

    def test_zero_direction_is_identity(self):
        out = schild_step(circle(), FourierCurve.zeros(1, 2), W_UNIT, 0.1, W, RAT, M)
        assert max_coeff_diff(out, W_UNIT) <= 1e-12

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(ValueError):
            schild_step(circle(), V_UNIT, W_UNIT, 0.0, W, RAT, M)
        with pytest.raises(ValueError):
            inverse_transport(circle(), V_UNIT, -0.1, W_UNIT, W, RAT, M)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(5)
        c = perturbed_circle(rng)
        v = tangent_field(rng, order=3, scale=0.6)
        w = tangent_field(rng, order=3, scale=0.8)
        for tau in (0.2, 0.1):
            moved = schild_step(c, v, w, tau, W, RAT, M)
            back = inverse_transport(c, v, tau, moved, W, RAT, M)
            assert max_coeff_diff(back, w) <= 1e-8

    def test_inverse_zero_cases(self):
        c = circle()
        out = inverse_transport(c, V_UNIT, 0.1, FourierCurve.zeros(1, 2), W, RAT, M)
        assert np.max(np.abs(out.coeffs)) <= 1e-12
        out = inverse_transport(c, FourierCurve.zeros(1, 2), 0.1, W_UNIT, W, RAT, M)
        assert max_coeff_diff(out, W_UNIT) <= 1e-12


class TestTransportPath:
    def test_zero_vector_stays_zero(self):
        path = solve_bvp(circle(1.0), circle(1.2), 4, W, RAT, M)
        out = transport_path(path, FourierCurve.zeros(1, 2), W, RAT, M)
        assert np.max(np.abs(out.coeffs)) <= 1e-12

    def test_constant_path_is_identity(self):
        c = circle()
        path = DiscretePath((c, c, c))
        out = transport_path(path, W_UNIT, W, RAT, M)
        assert max_coeff_diff(out, W_UNIT) <= 1e-9

    def test_return_all_includes_endpoints(self):
        path = solve_bvp(circle(1.0), circle(1.2), 4, W, RAT, M)
        vectors = transport_path(path, W_UNIT, W, RAT, M, return_all=True)
        assert len(vectors) == 5
        assert vectors[0] is W_UNIT

    def test_approximately_isometric_along_geodesic(self):
        path = solve_bvp(circle(1.0), circle(1.2), 8, W, RAT, M)
        moved = transport_path(path, W_UNIT, W, RAT, M)
        n0 = np.sqrt(metric_eval(path[0], W_UNIT, W_UNIT, W, M))
        n1 = np.sqrt(metric_eval(path[-1], moved, moved, W, M))
        assert abs(n1 - n0) / n0 <= 2e-2

    def test_inner_product_drift_is_tame(self):
        path = solve_bvp(circle(1.0), circle(1.2), 8, W, RAT, M)
        alphas = transport_inner_products(path, W_UNIT, W, RAT, M)
        assert alphas.shape == (8,)
        drift = np.abs(np.diff(alphas)) * path.num_segments
        assert drift.max() <= 10.0 * np.median(drift)

    def test_stall_reports_rung(self):
        path = solve_bvp(circle(1.0), circle(1.2), 2, W, RAT, M)
        opts = SolverOptions(
            fixed_point_tol=1e-30, fixed_point_max_iters=1, newton_fallback=False
        )
        with pytest.raises(NoConvergence, match="rung 1/2"):
            transport_path(path, W_UNIT, W, RAT, M, opts=opts)

    def test_stall_keeps_the_finished_vectors(self, monkeypatch):
        path = solve_bvp(circle(1.0), circle(1.2), 4, W, RAT, M)
        full = transport_path(path, W_UNIT, W, RAT, M, return_all=True)
        real_step, calls = transport.schild_step, []

        def stalls_third(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise NoConvergence("el_midpoint: stalled")
            return real_step(*args, **kwargs)

        monkeypatch.setattr(transport, "schild_step", stalls_third)
        with pytest.raises(NoConvergence) as info:
            transport_path(path, W_UNIT, W, RAT, M)
        assert str(info.value) == "transport stalled at rung 3/4: el_midpoint: stalled"
        partial = info.value.partial
        assert len(partial) == 3
        for got, want in zip(partial, full):
            np.testing.assert_array_equal(got.coeffs, want.coeffs)


# ---------------------------------------------------------------------------
# Covariant difference quotients
# ---------------------------------------------------------------------------


class TestCovDeriv:
    def test_zero_field(self):
        out = cov_deriv(circle(), V_UNIT, FourierCurve.zeros(1, 2), 0.05, W, RAT, M)
        assert np.max(np.abs(out.coeffs)) <= 1e-10

    def test_constant_and_callable_agree(self):
        c = pad(circle(), 4)
        direct = cov_deriv(c, V_UNIT, W_UNIT, 0.02, UNIT, RAT, M)
        wrapped = cov_deriv(c, V_UNIT, lambda _c: W_UNIT, 0.02, UNIT, RAT, M)
        assert np.array_equal(direct.coeffs, wrapped.coeffs)

    def test_one_sided_approximates_christoffel(self):
        c = pad(circle(), 6)
        gamma = christoffel_circle(V_UNIT, W_UNIT, UNIT)
        out = cov_deriv(c, V_UNIT, W_UNIT, 1e-2, UNIT, RAT, M)
        assert max_coeff_diff(out, gamma) <= 1e-2

    def test_central_approximates_christoffel(self):
        c = pad(circle(), 6)
        gamma = christoffel_circle(V_UNIT, W_UNIT, UNIT)
        out = cov_deriv(c, V_UNIT, W_UNIT, 1e-2, UNIT, RAT, M, centered=True)
        assert max_coeff_diff(out, gamma) <= 5e-4

    def test_central_weighted_metric(self):
        # mixed-mode fields at the weighted metric, against the analytic
        # Christoffel operator; central quotient converges at second order
        c = pad(circle(), 6)
        v = field_xy(-0.5, 1.0)
        w = field_xy(1.0, -0.5)
        gamma = christoffel_circle(v, w, W)
        out = cov_deriv(c, v, w, 1e-2, W, RAT, M, centered=True)
        assert max_coeff_diff(out, gamma) <= 1e-5

    def test_one_sided_rate_regularized(self):
        # error is O(tau + eps); with eps = tau it halves per octave, with
        # eps = sqrt(tau) it only drops by sqrt(2)
        c = pad(circle(), 6)
        gamma = christoffel_circle(V_UNIT, W_UNIT, UNIT)

        def err(tau, eps):
            out = cov_deriv(c, V_UNIT, W_UNIT, tau, UNIT, EnergyKind.reg(eps), M)
            return max_coeff_diff(out, gamma)

        ratio_linear = err(0.05, 0.05) / err(0.025, 0.025)
        assert 1.7 <= ratio_linear <= 2.4
        ratio_half = err(0.05, np.sqrt(0.05)) / err(0.025, np.sqrt(0.025))
        assert 1.25 <= ratio_half <= 1.6


# ---------------------------------------------------------------------------
# Curvature
# ---------------------------------------------------------------------------


class TestCurvature:
    def test_riemann_zero_field(self):
        c = pad(circle(), 4)
        sch = CurvatureSchedule.central(1.0 / 16)
        out = riemann_tensor(
            c, V_UNIT, W_UNIT, FourierCurve.zeros(1, 2), 1.0 / 16, sch, UNIT, RAT, M
        )
        assert np.max(np.abs(out.coeffs)) <= 1e-6

    def test_riemann_antisymmetry_is_exact(self):
        c = pad(circle(), 4)
        sch = CurvatureSchedule.central(1.0 / 16)
        same = riemann_tensor(c, V_UNIT, V_UNIT, W_UNIT, 1.0 / 16, sch, UNIT, RAT, M)
        assert np.all(same.coeffs == 0.0)
        fwd = riemann_tensor(c, V_UNIT, W_UNIT, W_UNIT, 1.0 / 16, sch, UNIT, RAT, M)
        bwd = riemann_tensor(c, W_UNIT, V_UNIT, W_UNIT, 1.0 / 16, sch, UNIT, RAT, M)
        assert np.all((fwd + bwd).coeffs == 0.0)

    def test_sectional_curvature_circle(self):
        c = pad(circle(), 6)
        tau = 1.0 / 16
        kappa = sectional_curvature(
            c, V_UNIT, W_UNIT, tau, CurvatureSchedule.central(tau), UNIT, RAT, M
        )
        exact = sectional_curvature_circle(V_UNIT, W_UNIT, UNIT)
        assert exact == pytest.approx(-31.0 / (117.0 * np.pi), abs=1e-15)
        assert abs(kappa - exact) <= 3e-3

    def test_sectional_curvature_symmetric_in_arguments(self):
        c = pad(circle(), 6)
        tau = 1.0 / 16
        sch = CurvatureSchedule.central(tau)
        k_vw = sectional_curvature(c, V_UNIT, W_UNIT, tau, sch, UNIT, RAT, M)
        k_wv = sectional_curvature(c, W_UNIT, V_UNIT, tau, sch, UNIT, RAT, M)
        assert abs(k_vw - k_wv) <= 2e-3

    def test_degenerate_plane_rejected(self):
        c = pad(circle(), 4)
        sch = CurvatureSchedule.one_sided(0.1)
        with pytest.raises(DegeneratePlane):
            sectional_curvature(c, V_UNIT, V_UNIT, 0.1, sch, UNIT, RAT, M)
        with pytest.raises(DegeneratePlane):
            sectional_curvature(c, V_UNIT, V_UNIT * 2.0, 0.1, sch, UNIT, RAT, M)

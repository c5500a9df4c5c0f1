from collections import Counter

import numpy as np
import pytest

from conftest import circle, perturbed_circle, rotate, tangent_field
from sobcurve import geodesic, transport
from sobcurve.cli import resolve_curve
from sobcurve.curve import FourierCurve, pad
from sobcurve.energy import EnergyKind
from sobcurve.errors import DegenerateCurve, DegeneratePlane, NoConvergence
from sobcurve.geodesic import DiscretePath, SolverOptions, resample_path, solve_bvp
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
        with pytest.raises(ValueError):
            CurvatureSchedule(beta=2.0, eps_out=np.inf, eps_in=0.01)
        with pytest.raises(ValueError):
            CurvatureSchedule(beta=2.0, eps_out=0.1, eps_in=np.inf)
        with pytest.raises(ValueError, match="beta must be finite and exceed 1"):
            CurvatureSchedule(beta=np.inf, eps_out=0.1, eps_in=0.01)

    @pytest.mark.parametrize("centered", [False, True])
    def test_underflowing_inner_step_is_rejected_before_any_solve(self, centered, monkeypatch):
        # (1/8)**400 is 0.0 in double precision: the inner quotients would
        # divide by it after their solves.  (1/4)**400 = 1.5e-241 is not, but
        # the nested quotient divides by tau * tau**beta = 3.7e-242, which the
        # rounding of the coefficients alone swamps
        real_midpoint, calls = transport.el_midpoint, []

        def counted(*args, **kwargs):
            calls.append(1)
            return real_midpoint(*args, **kwargs)

        monkeypatch.setattr(transport, "el_midpoint", counted)
        schedule = CurvatureSchedule(beta=400.0, eps_out=0.1, eps_in=0.01, centered=centered)
        assert schedule.inner_step(1.0 / 8) == 0.0 < schedule.inner_step(1.0 / 4)
        for tau, message in [
            (1.0 / 8, r"inner step tau\*\*beta .* must be finite and positive"),
            (1.0 / 4, r"^inner step tau\*\*beta = 0\.25\*\*400\.0 leaves no digit: "
                      r"tau \* tau\*\*beta = 3\.749e-242 is at or below machine epsilon$"),
        ]:
            with pytest.raises(ValueError, match=message):
                sectional_curvature(circle(), V_UNIT, W_UNIT, tau, schedule, UNIT, RAT, M)
        assert calls == []

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

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -1.0, 0.0])
    @pytest.mark.parametrize(
        "entry",
        [
            lambda tau: schild_step(circle(), V_UNIT, W_UNIT, tau, W, RAT, M),
            lambda tau: inverse_transport(circle(), V_UNIT, tau, W_UNIT, W, RAT, M),
            lambda tau: cov_deriv(circle(), V_UNIT, W_UNIT, tau, W, RAT, M),
            lambda tau: riemann_tensor(
                circle(), V_UNIT, W_UNIT, W_UNIT, tau, CurvatureSchedule.central(0.1),
                UNIT, RAT, M,
            ),
            lambda tau: sectional_curvature(
                circle(), V_UNIT, W_UNIT, tau, CurvatureSchedule.central(0.1), UNIT, RAT, M
            ),
        ],
        ids=["schild_step", "inverse_transport", "cov_deriv", "riemann_tensor",
             "sectional_curvature"],
    )
    def test_step_size_must_be_finite_and_positive(self, entry, tau, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking tau")

        monkeypatch.setattr(transport, "el_midpoint", no_solve)
        monkeypatch.setattr(transport, "el_step", no_solve)
        with pytest.raises(ValueError, match="step size tau must be finite and positive"):
            entry(tau)

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


def cold_chain(path, w0, kind=RAT):
    """transport_path without the warm start: every rung starts afresh, on
    new preconditioner factors."""
    vectors = [w0]
    for k in range(path.num_segments):
        v_k = (path[k + 1] - path[k]) * (1.0 / path.step)
        vectors.append(schild_step(path[k], v_k, vectors[-1], path.step, W, kind, M))
    return vectors


@pytest.fixture(scope="module")
def path16():
    return solve_bvp(circle(1.0), circle(1.2), 16, W, RAT, M)


#: The transport benchmark's kind of input at order 8: a normal field moved
#: along a geodesic from a circle to a perturbed larger one.
NORMAL5 = resolve_curve("normal5")


@pytest.fixture(scope="module")
def order8_path16():
    c_b = pad(perturbed_circle(np.random.default_rng(3), 4, 0.02) * 1.2, 8)
    return solve_bvp(pad(circle(1.0), 8), c_b, 16, W, RAT, M)


def counting(monkeypatch, *names):
    """Rebind geodesic functions to counted wrappers; returns the counter."""
    calls = Counter()
    for name in names:
        def counted(*args, _real=getattr(geodesic, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(geodesic, name, counted)
    return calls


class TestTransportPath:
    def test_warm_start_matches_a_cold_chain(self, path16):
        warm = transport_path(path16, W_UNIT, W, RAT, M, return_all=True)
        cold = cold_chain(path16, W_UNIT)
        assert len(warm) == len(cold) == 17
        for got, want in zip(warm, cold):
            assert max_coeff_diff(got, want) <= 1e-12

    def test_warm_start_saves_gradient_calls(self, path16, monkeypatch):
        calls = counting(monkeypatch, "w_grad")
        transport_path(path16, W_UNIT, W, RAT, M)
        warm = calls["w_grad"]
        calls.clear()
        cold_chain(path16, W_UNIT)
        # the quadratic extrapolation, on factors reused from rung to rung,
        # takes 0.686 of the cold calls here (0.655 on a new factor at every
        # rung); linear and constant extrapolation take 0.78 and 0.85
        assert warm <= 0.7 * calls["w_grad"]

    def test_resampled_path_reuses_its_factors(self, order8_path16, monkeypatch):
        # a path resampled 4-fold has a kink every 4 rungs; the quadratic
        # extrapolation at stride 1 with a new factor at every rung made
        # 1006 gradient calls here and built a block for each of the 128
        # solves, the stride-scored one on reused factors makes 926 and 6
        calls = counting(monkeypatch, "w_grad", "hessian_scalar_at_diagonal")
        transport_path(resample_path(order8_path16, 64), NORMAL5, W, EnergyKind.reg(1.0 / 64), M)
        assert calls["hessian_scalar_at_diagonal"] < 64 / 4
        assert calls["w_grad"] < 1006

    def test_reused_factors_match_a_cold_chain(self, order8_path16):
        # a 2-fold resampled path, smoothed energy: within the solver
        # tolerance divided by the step, fixed_point_tol * K
        path = resample_path(order8_path16, 32)
        kind = EnergyKind.reg(1.0 / 32)
        warm = transport_path(path, NORMAL5, W, kind, M, return_all=True)
        for got, want in zip(warm, cold_chain(path, NORMAL5, kind), strict=True):
            assert max_coeff_diff(got, want) <= 1e-10 * 32 * np.max(np.abs(want.coeffs))

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
        vectors = transport_path(path, W_UNIT, W, RAT, M, return_all=True)
        alphas = transport_inner_products(path, vectors, W, RAT, M)
        assert alphas.shape == (8,)
        drift = np.abs(np.diff(alphas)) * path.num_segments
        assert drift.max() <= 10.0 * np.median(drift)

    def test_inner_products_need_one_vector_per_curve(self):
        path = solve_bvp(circle(1.0), circle(1.2), 2, W, RAT, M)
        with pytest.raises(ValueError, match="expected 3 transported vectors, got 2"):
            transport_inner_products(path, [W_UNIT, W_UNIT], W, RAT, M)

    def test_stall_reports_rung(self, monkeypatch):
        path = solve_bvp(circle(1.0), circle(1.2), 2, W, RAT, M)
        opts = SolverOptions(fixed_point_tol=1e-30, fixed_point_max_iters=1)
        monkeypatch.setattr(geodesic, "_newton_polish", lambda *args: (None, np.inf))
        with pytest.raises(NoConvergence, match="rung 1/2"):
            transport_path(path, W_UNIT, W, RAT, M, opts=opts)

    def test_stall_keeps_the_finished_vectors(self, monkeypatch):
        path = solve_bvp(circle(1.0), circle(1.2), 4, W, RAT, M)
        full = transport_path(path, W_UNIT, W, RAT, M, return_all=True)
        real_midpoint, calls = transport.el_midpoint, []

        def stalls_third(*args, **kwargs):
            # each rung makes one midpoint solve: the third is rung 3's
            calls.append(None)
            if len(calls) == 3:
                raise NoConvergence("el_midpoint: stalled")
            return real_midpoint(*args, **kwargs)

        monkeypatch.setattr(transport, "el_midpoint", stalls_third)
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
        # and both equal the one-sided quotient spelled out
        moved = inverse_transport(c, V_UNIT, 0.02, W_UNIT, UNIT, RAT, M)
        assert np.array_equal(direct.coeffs, ((moved - W_UNIT) * (1.0 / 0.02)).coeffs)

    @pytest.mark.parametrize("centered", [False, True], ids=["one_sided", "centered"])
    def test_field_is_evaluated_before_any_solve(self, centered, monkeypatch):
        # w(c + tau v) and w(c - tau v) or w(c), then the stacked solves
        events = []

        def recorded(real):
            def call(*args, **kwargs):
                events.append("energy")
                return real(*args, **kwargs)

            return call

        for name in ("w_eval", "w_grad", "w_value_and_grad", "hessian_scalar_at_diagonal"):
            monkeypatch.setattr(geodesic, name, recorded(getattr(geodesic, name)))

        def field(x):
            events.append("field")
            return x * 0.5

        cov_deriv(pad(circle(), 4), V_UNIT, field, 0.02, UNIT, RAT, M, centered=centered)
        assert events[:2] == ["field", "field"]
        assert "field" not in events[2:] and "energy" in events

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

    def test_riemann_antisymmetry_is_exact_on_a_finer_grid(self):
        # the stacked energy kernel rounds a member by its stack position
        # here, so both argument orders must build the same stacks
        c = pad(circle(), 12)
        sch = CurvatureSchedule.central(1.0 / 16)
        fwd = riemann_tensor(c, V_UNIT, W_UNIT, W_UNIT, 1.0 / 16, sch, UNIT, RAT, 48)
        bwd = riemann_tensor(c, W_UNIT, V_UNIT, W_UNIT, 1.0 / 16, sch, UNIT, RAT, 48)
        assert np.all((fwd + bwd).coeffs == 0.0)

    @pytest.mark.parametrize("kind", [RAT, EnergyKind.reg(1.0)], ids=["rat", "reg"])
    @pytest.mark.parametrize("schedule", [CurvatureSchedule.central, CurvatureSchedule.one_sided],
                             ids=["central", "one_sided"])
    def test_riemann_matches_nested_covariant_quotients(self, schedule, kind):
        # the lockstep stacks against the definition: cov_deriv of the
        # field x -> cov_deriv(x, second, z) along first, for both halves
        c, tau = pad(circle(), 4), 1.0 / 8
        sch = schedule(tau)
        kind_out, kind_in = sch.kinds(kind)

        def nested(first, second):
            def inner(x):
                return cov_deriv(x, second, W_UNIT, sch.inner_step(tau), UNIT, kind_in, M,
                                 centered=sch.centered)

            return cov_deriv(c, first, inner, tau, UNIT, kind_out, M, centered=sch.centered)

        want = nested(V_UNIT, W_UNIT) - nested(W_UNIT, V_UNIT)
        got = riemann_tensor(c, V_UNIT, W_UNIT, W_UNIT, tau, sch, UNIT, kind, M)
        assert max_coeff_diff(got, want) <= 1e-9 * np.max(np.abs(want.coeffs))

    def test_sectional_curvature_circle(self):
        c = pad(circle(), 6)
        tau = 1.0 / 16
        kappa = sectional_curvature(
            c, V_UNIT, W_UNIT, tau, CurvatureSchedule.central(tau), UNIT, RAT, M
        )
        exact = sectional_curvature_circle(V_UNIT, W_UNIT, UNIT)
        assert exact == pytest.approx(-31.0 / (117.0 * np.pi), abs=1e-15)
        assert abs(kappa - exact) <= 3e-3

    def test_sectional_curvature_rounding_floor_under_rotation(self):
        # A rigid rotation of (c, v, w) leaves kappa exact and changes only
        # its rounding, so the spread over angles reads the floor that
        # acceptance 04's K = 64..512 slope sits on.
        c = pad(circle(), 20)
        tau = 1.0 / 256
        sch = CurvatureSchedule.central(tau)
        kappas = [
            sectional_curvature(
                rotate(c, a), rotate(V_UNIT, a), rotate(W_UNIT, a), tau, sch, UNIT, RAT, 80
            )
            for a in np.linspace(0.0, 2.5, 6)
        ]
        spread = max(kappas) - min(kappas)
        assert spread <= 5e-7, (
            f"kappa rotation spread {spread:.2e} at K = 256 exceeds 5e-7: the rounding "
            "floor rose, and acceptance 04's K = 64..512 slope fits on that floor"
        )

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


# ---------------------------------------------------------------------------
# Lockstep solves
# ---------------------------------------------------------------------------


def lockstep_problems(count=4, order=6):
    """Coefficient stacks (c, v, w_end) of independent inverse transports."""
    rng = np.random.default_rng(60)
    c = [perturbed_circle(rng, order=order) for _ in range(count)]
    v = [tangent_field(rng, order, scale=0.6) for _ in range(count)]
    w = [tangent_field(rng, order, scale=0.8) for _ in range(count)]
    return tuple(np.stack([x.coeffs for x in xs]) for xs in (c, v, w))


def stacked_inverse_transports(c, v, w, tau, kind):
    """The problems of lockstep_problems as one stack of inverse Schild
    rungs: one parallelogram per problem, through the transport core."""
    z, _ = transport._parallelogram(c, c + (v + w) * tau, c + v * tau, W, kind, M, None, "stack")
    return (z - c) * (1.0 / tau)


def solo_inverse_transports(c, v, w, tau, kind):
    """The problems of lockstep_problems solved one at a time."""
    return [
        inverse_transport(
            FourierCurve.from_coeffs(c[i]), FourierCurve.from_coeffs(v[i]), tau,
            FourierCurve.from_coeffs(w[i]), W, kind, M,
        ).coeffs
        for i in range(len(c))
    ]


def assert_members_close(stacked, solos):
    for got, want in zip(stacked, solos, strict=True):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestLockstep:
    @pytest.mark.parametrize("kind", [RAT, EnergyKind.reg(1e-2)], ids=["rat", "reg"])
    def test_stacked_inverse_transports_match_solo_solves(self, kind):
        c, v, w = lockstep_problems()
        moved = stacked_inverse_transports(c, v, w, 0.1, kind)
        assert_members_close(moved, solo_inverse_transports(c, v, w, 0.1, kind))

    def test_inadmissible_trial_damps_only_its_member(self, monkeypatch):
        c, v, w = lockstep_problems()
        solos = solo_inverse_transports(c, v, w, 0.1, RAT)
        real_grad, sizes = geodesic.w_grad, []

        def rejects_first_trial_of_member_1(c_hat, c_check, *args):
            # the midpoint residual stacks every member's corner c before
            # the iterates; member 1's first trial is its second such call
            if any(np.array_equal(row, c[1]) for row in c_hat):
                sizes.append(len(c_hat))
                if len(sizes) in (2, 3):
                    raise DegenerateCurve("trial point rejected")
            return real_grad(c_hat, c_check, *args)

        monkeypatch.setattr(geodesic, "w_grad", rejects_first_trial_of_member_1)
        moved = stacked_inverse_transports(c, v, w, 0.1, RAT)
        # initial guesses and first trials of all four members, then member 1
        # alone: again at its full step, then at half of it
        assert sizes[:4] == [8, 8, 2, 2]
        others = [0, 2, 3]
        assert_members_close(moved[others], [solos[i] for i in others])
        # the damped member takes another path to the solver tolerance
        assert max_coeff_diff(FourierCurve.from_coeffs(moved[1]),
                              FourierCurve.from_coeffs(solos[1])) <= 1e-8

    def test_stalled_member_names_phase_and_member(self, monkeypatch):
        polishes = []

        def third_stalls(residual, y, *args):
            polishes.append(None)
            return (None, np.inf) if len(polishes) == 3 else (y, 0.0)

        monkeypatch.setattr(geodesic, "_newton_polish", third_stalls)
        opts = SolverOptions(fixed_point_tol=1e-30, fixed_point_max_iters=1)
        sch = CurvatureSchedule.central(1.0 / 16)
        with pytest.raises(
            NoConvergence, match=r"^riemann_tensor: el_midpoint problem 3/8: preconditioned"
        ):
            riemann_tensor(pad(circle(), 4), V_UNIT, W_UNIT, W_UNIT, 1.0 / 16, sch, UNIT, RAT,
                           M, opts)

    def test_centered_sectional_curvature_gradient_calls(self, monkeypatch):
        # its 24 solves run as four lockstep stacks: 48 calls, where solving
        # them one at a time took 232
        real_grad, calls = geodesic.w_grad, []

        def counted(*args, **kwargs):
            calls.append(None)
            return real_grad(*args, **kwargs)

        monkeypatch.setattr(geodesic, "w_grad", counted)
        tau = 1.0 / 16
        sectional_curvature(
            pad(circle(), 6), V_UNIT, W_UNIT, tau, CurvatureSchedule.central(tau), UNIT, RAT, M
        )
        assert len(calls) <= 64

    @pytest.mark.parametrize("kind, builds", [(RAT, 13), (EnergyKind.reg(1.0), 17)],
                             ids=["rat", "reg"])
    def test_centered_sectional_curvature_builds_each_block_once(self, kind, builds, monkeypatch):
        # 24 solves, 13 distinct anchors: the four outer midpoint solves
        # start at c, and the outer extensions at the inner midpoints' anchors
        # c +- tau v, c +- tau w, which share a block only where the inner
        # and outer energies agree (the smoothed ones have two epsilons)
        real_block, blocks = geodesic.hessian_scalar_at_diagonal, []

        def counted(*args, **kwargs):
            blocks.append(None)
            return real_block(*args, **kwargs)

        monkeypatch.setattr(geodesic, "hessian_scalar_at_diagonal", counted)
        tau = 1.0 / 16
        sectional_curvature(pad(circle(), 20), V_UNIT, W_UNIT, tau,
                            CurvatureSchedule.central(tau), UNIT, kind, 80)
        assert len(blocks) == builds


# ---------------------------------------------------------------------------
# Solver names
# ---------------------------------------------------------------------------

SOLVER_NAMES = [(geodesic, "el_step"), (transport, "el_midpoint"), (transport, "el_step")]


@pytest.mark.parametrize("compute, counts", [
    (lambda: geodesic.exp_k(circle(), V_UNIT * 0.3, 6, W, RAT, M), (5, 0, 0)),
    # solve_bvp minimizes the path energy and calls no step solver
    (lambda: transport_path(solve_bvp(circle(1.0), circle(1.2), 4, W, RAT, M), W_UNIT, W, RAT,
                            M), (0, 4, 4)),
    (lambda: cov_deriv(circle(), V_UNIT, W_UNIT, 0.1, W, RAT, M, centered=True), (0, 1, 1)),
    (lambda: riemann_tensor(pad(circle(), 4), V_UNIT, W_UNIT, W_UNIT, 1.0 / 16,
                            CurvatureSchedule.central(1.0 / 16), UNIT, RAT, M), (0, 2, 2)),
], ids=["exp_k", "transport_path", "cov_deriv", "riemann_tensor"])
def test_solves_go_through_the_module_solver_names(compute, counts, monkeypatch):
    # exp_k makes one geodesic.el_step call per step; every Schild rung or
    # lockstep stack of rungs calls transport.el_midpoint, then
    # transport.el_step, so rebinding those names sees every solve
    calls = Counter()
    for module, name in SOLVER_NAMES:
        def counted(*args, _real=getattr(module, name), _key=(module, name), **kwargs):
            calls[_key] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    compute()
    assert tuple(calls[key] for key in SOLVER_NAMES) == counts

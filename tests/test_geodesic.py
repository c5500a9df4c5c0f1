import numpy as np
import pytest

from conftest import circle, perturbed_circle, rotate, tangent_field
from sobcurve import geodesic
from sobcurve.curve import FourierCurve
from sobcurve.energy import EnergyKind, w_eval, w_value_and_grad
from sobcurve.errors import (
    DegenerateCurve,
    DegenerateInit,
    InfiniteEnergy,
    MaxIters,
    NoConvergence,
)
from sobcurve.geodesic import (
    DiscretePath,
    SolverOptions,
    bvp_ladder,
    discrete_path_energy,
    el_midpoint,
    el_step,
    exp2,
    exp_k,
    log2,
    resample_path,
    segment_energies,
    solve_bvp,
)
from sobcurve.metric import MetricWeights, sobolev_norm

W = MetricWeights.of(1e-4, 1.0, 1e-2)
M = 64
KINDS = [EnergyKind.rat(), EnergyKind.reg(1e-3)]


def kind_id(kind):
    return kind.name if kind.is_rat else f"reg{kind.epsilon}"


def circle3d(radius=1.0):
    cos = np.zeros((2, 3))
    sin = np.zeros((1, 3))
    cos[1, 0] = radius
    sin[0, 1] = radius
    return FourierCurve(cos, sin)


def reversed_circle(radius=1.0):
    """Unit circle traversed clockwise (opposite orientation)."""
    cos = np.zeros((2, 2))
    sin = np.zeros((1, 2))
    cos[1, 0] = radius
    sin[0, 1] = -radius
    return FourierCurve(cos, sin)


# ---------------------------------------------------------------------------
# Discrete paths
# ---------------------------------------------------------------------------


class TestDiscretePath:
    def test_needs_two_curves(self):
        with pytest.raises(ValueError):
            DiscretePath((circle(),))

    def test_mixed_dim_rejected(self):
        with pytest.raises(ValueError):
            DiscretePath((circle(), circle3d()))

    def test_mixed_order_rejected(self):
        with pytest.raises(ValueError):
            DiscretePath((circle(order=1), circle(order=2)))

    def test_degenerate_member_rejected(self):
        with pytest.raises(DegenerateCurve):
            DiscretePath((circle(), FourierCurve.zeros(1, 2)))

    def test_degenerate_members_report_the_first_index(self):
        c, z = circle(), FourierCurve.zeros(1, 2)
        with pytest.raises(DegenerateCurve, match="path curve 2 is not immersed"):
            DiscretePath((c, c, z, c, z))

    def test_properties_and_iteration(self):
        path = DiscretePath.linear(circle(1.0), circle(1.2), 4)
        assert len(path) == 5
        assert path.num_segments == 4
        assert path.step == 0.25
        assert path.dim == 2
        assert path.order == 1
        assert np.array_equal(path[0].coeffs, circle(1.0).coeffs)
        assert np.array_equal(path[-1].coeffs, circle(1.2).coeffs)
        assert sum(1 for _ in path) == 5

    def test_linear_interpolates_coefficients(self):
        c_a, c_b = circle(1.0), circle(1.5)
        path = DiscretePath.linear(c_a, c_b, 2)
        mid = 0.5 * (c_a.coeffs + c_b.coeffs)
        assert np.allclose(path[1].coeffs, mid, atol=1e-15)

    def test_refine_inserts_midpoints(self):
        path = DiscretePath.linear(circle(1.0), circle(1.3), 3)
        fine = path.refine()
        assert fine.num_segments == 6
        for j in range(4):
            assert np.array_equal(fine[2 * j].coeffs, path[j].coeffs)
        for j in range(3):
            mid = 0.5 * (path[j].coeffs + path[j + 1].coeffs)
            assert np.allclose(fine[2 * j + 1].coeffs, mid, atol=1e-15)

    def test_resample_matches_refine_and_inverts(self):
        path = DiscretePath.linear(circle(1.0), circle(1.3), 4)
        up = resample_path(path, 8)
        assert up.num_segments == 8
        fine = path.refine()
        for j in range(9):
            assert np.allclose(up[j].coeffs, fine[j].coeffs, atol=1e-14)
        back = resample_path(up, 4)
        for j in range(5):
            assert np.allclose(back[j].coeffs, path[j].coeffs, atol=1e-14)

    def test_resample_same_size_is_identity(self):
        path = DiscretePath.linear(circle(1.0), circle(1.2), 4)
        same = resample_path(path, 4)
        for j in range(5):
            assert np.allclose(same[j].coeffs, path[j].coeffs, atol=1e-15)


SEGMENT_COUNT_TAKERS = {
    "exp_k": lambda k: exp_k(circle(1.0), FourierCurve.zeros(1, 2), k, W, EnergyKind.rat(), M),
    "solve_bvp": lambda k: solve_bvp(circle(1.0), circle(1.2), k, W, EnergyKind.rat(), M),
    "resample_path": lambda k: resample_path(DiscretePath.linear(circle(), circle(1.2), 4), k),
    "linear": lambda k: DiscretePath.linear(circle(1.0), circle(1.2), k),
}


@pytest.mark.parametrize("bad", [True, 2.5, 0, np.float64(4.0)])
@pytest.mark.parametrize("name", SEGMENT_COUNT_TAKERS)
def test_segment_counts_must_be_integers(name, bad):
    with pytest.raises(ValueError, match="num_segments"):
        SEGMENT_COUNT_TAKERS[name](bad)


class TestSolverOptions:
    def test_defaults_valid(self):
        opts = SolverOptions()
        assert opts.grad_tol > 0 and opts.max_iters >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grad_tol": 0.0},
            {"fixed_point_tol": -1e-10},
            {"max_iters": 0},
            {"fixed_point_max_iters": 0},
            {"grad_tol": np.inf},
            {"fixed_point_tol": np.inf},
            {"grad_tol": np.nan},
            {"max_iters": 2.5},
            {"max_iters": True},
            {"fixed_point_max_iters": 3.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverOptions(**kwargs)


# ---------------------------------------------------------------------------
# Path energy
# ---------------------------------------------------------------------------


class TestPathEnergy:
    @pytest.mark.parametrize("kind", KINDS, ids=kind_id)
    def test_constant_path_has_zero_energy(self, kind):
        c = perturbed_circle(np.random.default_rng(0))
        path = DiscretePath((c, c, c))
        assert abs(discrete_path_energy(path, W, kind, M)) <= 1e-14

    @pytest.mark.parametrize("kind", KINDS, ids=kind_id)
    def test_single_segment_equals_w(self, kind):
        c_a, c_b = circle(1.0), circle(1.2)
        path = DiscretePath((c_a, c_b))
        expected = w_eval(c_a, c_b, W, kind, M)
        assert discrete_path_energy(path, W, kind, M) == pytest.approx(expected, rel=1e-14)

    def test_segment_energies_scale_with_k(self):
        kind = EnergyKind.rat()
        path = DiscretePath.linear(circle(1.0), circle(1.2), 2)
        seg = segment_energies(path, W, kind, M)
        assert seg.shape == (2,)
        direct = [2.0 * w_eval(path[j], path[j + 1], W, kind, M) for j in range(2)]
        assert np.allclose(seg, direct, rtol=1e-14)
        assert discrete_path_energy(path, W, kind, M) == pytest.approx(seg.sum(), rel=1e-15)

    def test_infinite_energy_propagates(self):
        # opposite orientations have negatively correlated tangents somewhere,
        # which the rational energy flags as infinite
        path = DiscretePath((circle(), reversed_circle()))
        assert discrete_path_energy(path, W, EnergyKind.rat(), M) == np.inf


# ---------------------------------------------------------------------------
# Boundary value problem
# ---------------------------------------------------------------------------


class TestSolveBvp:
    @pytest.mark.parametrize("kind", KINDS, ids=kind_id)
    def test_identical_endpoints(self, kind):
        c = circle(1.0)
        path, info = solve_bvp(c, c, 4, W, kind, M, return_info=True)
        assert info["iterations"] == 0
        assert abs(info["energy"]) <= 1e-14
        for member in path:
            assert np.allclose(member.coeffs, c.coeffs, atol=1e-15)

    @pytest.mark.parametrize("kind,spread_tol", [
        (EnergyKind.rat(), 1e-4),
        (EnergyKind.reg(1e-3), 1e-2),
    ], ids=["rat", "reg0.001"])
    def test_concentric_circles(self, kind, spread_tol):
        c_a, c_b = circle(1.0), circle(1.2)
        init = DiscretePath.linear(c_a, c_b, 8)
        init_energy = discrete_path_energy(init, W, kind, M)
        path, info = solve_bvp(c_a, c_b, 8, W, kind, M, return_info=True)
        assert np.array_equal(path[0].coeffs, c_a.coeffs)
        assert np.array_equal(path[-1].coeffs, c_b.coeffs)
        assert info["energy"] <= init_energy + 1e-12
        assert info["iterations"] >= 1
        # converged discrete geodesics distribute energy equally over segments
        seg = segment_energies(path, W, kind, M)
        assert (seg.max() - seg.min()) / seg.mean() <= spread_tol

    def test_two_segments_match_midpoint_solve(self):
        kind = EnergyKind.rat()
        c_a, c_b = circle(1.0), circle(1.2)
        path = solve_bvp(c_a, c_b, 2, W, kind, M)
        mid = el_midpoint(c_a, c_b, W, kind, M)
        assert np.allclose(path[1].coeffs, mid.coeffs, atol=1e-6)

    def test_rotation_equivariance(self):
        kind = EnergyKind.rat()
        rng = np.random.default_rng(3)
        c_a = perturbed_circle(rng)
        c_b = perturbed_circle(rng, scale=0.08)
        path = solve_bvp(c_a, c_b, 4, W, kind, M)
        angle = 0.7
        rot_path = solve_bvp(rotate(c_a, angle), rotate(c_b, angle), 4, W, kind, M)
        for j in range(5):
            assert np.allclose(
                rot_path[j].coeffs, rotate(path[j], angle).coeffs, atol=1e-6
            )

    def test_wrong_init_segments_rejected(self):
        init = DiscretePath.linear(circle(1.0), circle(1.2), 4)
        with pytest.raises(ValueError):
            solve_bvp(circle(1.0), circle(1.2), 8, W, EnergyKind.rat(), M, init_path=init)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_bvp(circle(), circle3d(), 4, W, EnergyKind.rat(), M)

    def test_degenerate_endpoint_rejected(self):
        with pytest.raises(DegenerateCurve):
            solve_bvp(circle(), FourierCurve.zeros(1, 2), 4, W, EnergyKind.rat(), M)

    def test_degenerate_linear_init_rejected(self):
        # the straight line between opposite-signed circles passes through the
        # zero curve, so the default initialization leaves the immersed set
        with pytest.raises(DegenerateInit):
            solve_bvp(circle(1.0), circle(-1.0), 2, W, EnergyKind.rat(), M)

    def test_infinite_initial_energy_rejected(self):
        # with an odd segment count the linear init between orientations stays
        # immersed, but a middle segment has q <= 0 and infinite rational energy
        with pytest.raises(InfiniteEnergy):
            solve_bvp(circle(), reversed_circle(), 3, W, EnergyKind.rat(), M)

    def test_max_iters_raises(self):
        opts = SolverOptions(max_iters=1)
        with pytest.raises(MaxIters):
            solve_bvp(circle(1.0), circle(1.2), 8, W, EnergyKind.rat(), M, opts=opts)

    def test_return_info(self):
        path, info = solve_bvp(circle(1.0), circle(1.2), 4, W, EnergyKind.rat(), M, return_info=True)
        assert isinstance(path, DiscretePath)
        assert set(info) == {"iterations", "energy", "grad_norm"}
        assert np.isfinite(info["energy"]) and info["grad_norm"] >= 0.0
        bare = solve_bvp(circle(1.0), circle(1.2), 4, W, EnergyKind.rat(), M)
        assert isinstance(bare, DiscretePath)

    def test_warm_start_is_already_converged(self):
        kind = EnergyKind.rat()
        c_a, c_b = circle(1.0), circle(1.2)
        path = solve_bvp(c_a, c_b, 8, W, kind, M)
        repath, info = solve_bvp(
            c_a, c_b, 8, W, kind, M, init_path=path, return_info=True
        )
        assert info["iterations"] <= 2
        for j in range(9):
            assert np.allclose(repath[j].coeffs, path[j].coeffs, atol=1e-7)


# ---------------------------------------------------------------------------
# Exponential and logarithm
# ---------------------------------------------------------------------------


def per_segment_w_eval(hat, chk, weights, kind, num_nodes):
    """One energy call per segment: the reference for the stacked call."""
    return np.array([
        w_eval(FourierCurve.from_coeffs(h), FourierCurve.from_coeffs(c), weights, kind, num_nodes)
        for h, c in zip(hat, chk)
    ])


def per_segment_w_value_and_grad(hat, chk, weights, kind, num_nodes):
    parts = [
        w_value_and_grad(FourierCurve.from_coeffs(h), FourierCurve.from_coeffs(c), weights, kind, num_nodes)
        for h, c in zip(hat, chk)
    ]
    return (
        np.array([value for value, _, _ in parts]),
        np.stack([gh.coeffs for _, gh, _ in parts]),
        np.stack([gc.coeffs for _, _, gc in parts]),
    )


@pytest.mark.parametrize("kind", KINDS, ids=kind_id)
def test_stacked_solve_matches_a_per_segment_solve(kind, monkeypatch):
    rng = np.random.default_rng(50)
    c_a, c_b = perturbed_circle(rng), perturbed_circle(rng) * 1.2
    stacked, info = solve_bvp(c_a, c_b, 16, W, kind, M, return_info=True)
    monkeypatch.setattr(geodesic, "w_eval", per_segment_w_eval)
    monkeypatch.setattr(geodesic, "w_value_and_grad", per_segment_w_value_and_grad)
    reference, ref_info = solve_bvp(c_a, c_b, 16, W, kind, M, return_info=True)
    assert info["iterations"] == ref_info["iterations"]
    for got, want in zip(stacked, reference):
        np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=0.0, atol=1e-12)


class TestExpLog:
    @pytest.mark.parametrize("kind", KINDS, ids=kind_id)
    def test_exp2_zero_velocity(self, kind):
        c0 = circle(1.0)
        c2 = exp2(c0, FourierCurve.zeros(1, 2), W, kind, M)
        assert np.allclose(c2.coeffs, c0.coeffs, atol=1e-12)

    @pytest.mark.parametrize("kind", KINDS, ids=kind_id)
    def test_log2_at_identical_curves(self, kind):
        c0 = circle(1.0)
        v = log2(c0, c0, W, kind, M)
        assert np.max(np.abs(v.coeffs)) <= 1e-12

    def test_el_step_fixed_point_at_constant(self):
        c0 = circle(1.0)
        nxt = el_step(c0, c0, W, EnergyKind.rat(), M)
        assert np.allclose(nxt.coeffs, c0.coeffs, atol=1e-12)

    @pytest.mark.parametrize("kind", KINDS, ids=kind_id)
    def test_exp_log_roundtrip(self, kind):
        rng = np.random.default_rng(11)
        c0 = circle(1.0)
        v = tangent_field(rng, order=3, scale=0.05)
        c2 = exp2(c0, v, W, kind, M)
        v_back = log2(c0, c2, W, kind, M)
        assert np.max(np.abs(v_back.coeffs - v.coeffs)) <= 1e-8

    @pytest.mark.parametrize("kind", KINDS, ids=kind_id)
    def test_log_exp_roundtrip(self, kind):
        rng = np.random.default_rng(12)
        c0 = circle(1.0, order=4)
        c2 = perturbed_circle(rng, order=4, scale=0.04)
        v = log2(c0, c2, W, kind, M)
        c2_back = exp2(c0, v, W, kind, M)
        assert np.max(np.abs(c2_back.coeffs - c2.coeffs)) <= 1e-8

    def test_el_midpoint_orientation_symmetry(self):
        # W is symmetric, so the midpoint problem reads the same both ways
        kind = EnergyKind.rat()
        c_a, c_b = circle(1.0), circle(1.15)
        fwd = el_midpoint(c_a, c_b, W, kind, M)
        bwd = el_midpoint(c_b, c_a, W, kind, M)
        assert np.allclose(fwd.coeffs, bwd.coeffs, atol=1e-8)

    def test_exp2_deviation_is_second_order(self):
        kind = EnergyKind.rat()
        rng = np.random.default_rng(13)
        c0 = circle(1.0)
        v = tangent_field(rng, order=2, scale=1.0)

        def deviation(s):
            c2 = exp2(c0, v * s, W, kind, M)
            straight = c0 + v * s
            return np.max(np.abs(c2.coeffs - straight.coeffs))

        err_coarse, err_fine = deviation(0.2), deviation(0.1)
        assert err_fine <= 0.35 * err_coarse  # quadratic decay would give 0.25
        assert err_coarse <= 0.1

    def test_exp_k_zero_velocity(self):
        c0 = circle(1.0)
        path = exp_k(c0, FourierCurve.zeros(1, 2), 4, W, EnergyKind.rat(), M)
        for member in path:
            assert np.allclose(member.coeffs, c0.coeffs, atol=1e-12)

    def test_exp_k_two_segments_matches_exp2(self):
        kind = EnergyKind.rat()
        rng = np.random.default_rng(14)
        c0 = circle(1.0)
        v = tangent_field(rng, order=2, scale=0.1)
        path = exp_k(c0, v, 2, W, kind, M)
        c2 = exp2(c0, v, W, kind, M)
        assert np.allclose(path[2].coeffs, c2.coeffs, atol=1e-12)

    def test_exp_k_stall_keeps_the_finished_path(self, monkeypatch):
        c0 = circle()
        v = tangent_field(np.random.default_rng(51), 1, scale=0.3)
        full = exp_k(c0, v, 6, W, EnergyKind.rat(), M)
        real_step, calls = geodesic.el_step, []

        def stalls_third(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise NoConvergence("el_step: stalled")
            return real_step(*args, **kwargs)

        monkeypatch.setattr(geodesic, "el_step", stalls_third)
        with pytest.raises(NoConvergence) as info:
            exp_k(c0, v, 6, W, EnergyKind.rat(), M)
        assert str(info.value) == "exp_k stalled at step 4/6: el_step: stalled"
        partial = info.value.partial
        assert isinstance(partial, DiscretePath) and partial.num_segments == 3
        for got, want in zip(partial, full):
            np.testing.assert_array_equal(got.coeffs, want.coeffs)

    def test_exp_k_matches_a_floor_polished_el_step_chain(self):
        # exp_k stops each step at fixed_point_tol / K; plain el_step calls
        # from the linear start polish every step to the rounding floor
        c0, v = self._shot()
        path = exp_k(c0, v, 64, W, EnergyKind.rat(), M)
        curves = [c0, c0 + v * (1.0 / 64)]
        for _ in range(63):
            curves.append(el_step(curves[-2], curves[-1], W, EnergyKind.rat(), M))
        assert sobolev_norm(path[-1] - curves[-1], 2) <= 1e-8

    def test_exp_k_gradient_calls_per_step(self, monkeypatch):
        # 4.05 calls per step; polishing every step to the floor took 9.0
        c0, v = self._shot()
        real_grad, calls = geodesic.w_grad, []

        def counted(*args, **kwargs):
            calls.append(None)
            return real_grad(*args, **kwargs)

        monkeypatch.setattr(geodesic, "w_grad", counted)
        exp_k(c0, v, 64, W, EnergyKind.rat(), M)
        assert len(calls) / 63 <= 5.5

    def test_exp_k_carried_partial_equals_a_recomputed_one(self, monkeypatch):
        c0, v = self._shot()
        carried = exp_k(c0, v, 16, W, EnergyKind.rat(), M)
        real_step = geodesic.el_step

        def recomputing(*args, _carry=None, **kwargs):
            return real_step(*args, **kwargs)

        monkeypatch.setattr(geodesic, "el_step", recomputing)
        fresh = exp_k(c0, v, 16, W, EnergyKind.rat(), M)
        for got, want in zip(carried, fresh):
            np.testing.assert_array_equal(got.coeffs, want.coeffs)

    def test_exp_k_partial_after_a_newton_polish(self, monkeypatch):
        # one fixed-point sweep never reaches the tolerance, so every step
        # ends in the Newton polish
        c0, v = self._shot()
        opts = SolverOptions(fixed_point_max_iters=1)
        default = exp_k(c0, v, 64, W, EnergyKind.rat(), M)
        real_polish, polishes = geodesic._newton_polish, []

        def counted(*args, **kwargs):
            polishes.append(None)
            return real_polish(*args, **kwargs)

        monkeypatch.setattr(geodesic, "_newton_polish", counted)
        polished = exp_k(c0, v, 64, W, EnergyKind.rat(), M, opts)
        assert len(polishes) == 63
        assert sobolev_norm(polished[-1] - default[-1], 2) <= 1e-8

        def probes_after(residual, y, *args, **kwargs):
            out = real_polish(residual, y, *args, **kwargs)
            residual(2.0 * y)  # the last gradient call is off the accepted iterate
            return out

        # so the next step must recompute W_{,2} rather than carry it
        monkeypatch.setattr(geodesic, "_newton_polish", probes_after)
        recomputed = exp_k(c0, v, 64, W, EnergyKind.rat(), M, opts)
        for got, want in zip(recomputed, polished):
            np.testing.assert_array_equal(got.coeffs, want.coeffs)

    @staticmethod
    def _shot():
        rng = np.random.default_rng(52)
        c0 = perturbed_circle(rng, order=4, scale=0.02)
        return c0, tangent_field(rng, order=3, scale=0.3)

    def test_exp_k_refeeds_geodesic(self):
        # shooting with the first step of a solved boundary value problem must
        # regenerate the remaining nodes to solver accuracy
        kind = EnergyKind.rat()
        c_a, c_b = circle(1.0), circle(1.2)
        path = solve_bvp(c_a, c_b, 8, W, kind, M)
        v0 = (path[1] - path[0]) * 8.0
        repath = exp_k(path[0], v0, 8, W, kind, M)
        err = max(
            np.max(np.abs(repath[j].coeffs - path[j].coeffs)) for j in range(9)
        )
        assert err <= 1e-7


# ---------------------------------------------------------------------------
# Refinement ladder
# ---------------------------------------------------------------------------


class TestBvpLadder:
    def test_energies_decrease_with_refinement(self):
        kind = EnergyKind.rat()
        ladder = bvp_ladder(circle(1.0), circle(1.2), [2, 4, 8], W, kind, M)
        assert set(ladder) == {2, 4, 8}
        energies = [discrete_path_energy(ladder[k], W, kind, M) for k in (2, 4, 8)]
        for k in (2, 4, 8):
            assert ladder[k].num_segments == k
        assert energies[0] >= energies[1] - 1e-10
        assert energies[1] >= energies[2] - 1e-10

    def test_matches_direct_solve(self):
        kind = EnergyKind.rat()
        ladder = bvp_ladder(circle(1.0), circle(1.2), [4, 8], W, kind, M)
        direct = solve_bvp(circle(1.0), circle(1.2), 8, W, kind, M)
        e_ladder = discrete_path_energy(ladder[8], W, kind, M)
        e_direct = discrete_path_energy(direct, W, kind, M)
        assert e_ladder == pytest.approx(e_direct, abs=1e-9)

    def test_callable_kind_per_level(self):
        seen = []

        def kind_for(k):
            seen.append(k)
            return EnergyKind.reg(1.0 / k)

        ladder = bvp_ladder(circle(1.0), circle(1.2), [2, 4], W, kind_for, M)
        assert sorted(seen) == [2, 4]
        for k in (2, 4):
            energy = discrete_path_energy(ladder[k], W, EnergyKind.reg(1.0 / k), M)
            assert np.isfinite(energy)

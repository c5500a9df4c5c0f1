import numpy as np
import pytest

from conftest import circle, perturbed_circle, rotate, run_fresh, tangent_field
from sobcurve import geodesic, transport
from sobcurve.cli import resolve_curve
from sobcurve.curve import FourierCurve, pad
from sobcurve.energy import EnergyKind, hessian_scalar_at_diagonal, w_eval, w_value_and_grad
from sobcurve.errors import (
    DegenerateCurve,
    DegenerateInit,
    InfiniteEnergy,
    MaxIters,
    NoConvergence,
    NonPositiveLowerBound,
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
from sobcurve.metric import MetricWeights, gram_scalar, sobolev_norm

W = MetricWeights.of(1e-4, 1.0, 1e-2)
M = 64
KINDS = [EnergyKind.rat(), EnergyKind.reg(1e-3)]
#: (order, M) of a grid finer than M, on which a kernel that rounds a stack
#: member by its position moves the solutions of the stack-versus-solo tests
FINE_GRID = (12, 48)


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

    def test_non_curve_member_rejected(self):
        with pytest.raises(ValueError, match="path members must be FourierCurve instances"):
            DiscretePath((circle(), circle().coeffs))

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
        # doubling the segment count inserts the coefficient midpoints
        path = DiscretePath.linear(circle(1.0), circle(1.3), 3)
        fine = resample_path(path, 6)
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
        for j in range(9):
            lo, hi = path[j // 2].coeffs, path[(j + 1) // 2].coeffs
            assert np.allclose(up[j].coeffs, 0.5 * (lo + hi), atol=1e-14)
        back = resample_path(up, 4)
        for j in range(5):
            assert np.allclose(back[j].coeffs, path[j].coeffs, atol=1e-14)

    def test_linear_and_resample_follow_their_formulas_exactly(self):
        rng = np.random.default_rng(11)
        c_a, c_b = perturbed_circle(rng), perturbed_circle(rng, order=3)
        a, b = c_a.coeffs, pad(c_b, 4).coeffs
        path = DiscretePath.linear(c_a, c_b, 3)
        for k, curve in enumerate(path):
            assert np.array_equal(curve.coeffs, a + (b - a) * (k / 3))
        bent = DiscretePath(tuple(perturbed_circle(rng) for _ in range(4)))
        for j, curve in enumerate(resample_path(bent, 7)):
            t = j / 7 * 3
            i = min(int(t), 2)
            lam = t - i
            expected = (bent[i].coeffs if lam == 0.0
                        else bent[i].coeffs * (1.0 - lam) + bent[i + 1].coeffs * lam)
            assert np.array_equal(curve.coeffs, expected)

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

    def test_init_path_dim_mismatch_rejected(self):
        init = DiscretePath.linear(circle3d(1.0), circle3d(1.2), 4)
        with pytest.raises(ValueError, match="init_path"):
            solve_bvp(circle(1.0), circle(1.2), 4, W, EnergyKind.rat(), M, init_path=init)

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
        # immersed, but a middle segment has q <= 0 and infinite rational
        # energy; at K = 1 that segment is the whole path
        for k in (1, 3):
            with pytest.raises(InfiniteEnergy):
                solve_bvp(circle(), reversed_circle(), k, W, EnergyKind.rat(), M)

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

    def test_single_segment_return_info(self):
        c_a, c_b = circle(1.0), circle(1.2)
        path, info = solve_bvp(c_a, c_b, 1, W, EnergyKind.rat(), M, return_info=True)
        assert [c.coeffs.tobytes() for c in path] == [c_a.coeffs.tobytes(), c_b.coeffs.tobytes()]
        energy = discrete_path_energy(path, W, EnergyKind.rat(), M)
        assert info == {"iterations": 0, "energy": energy, "grad_norm": 0.0}
        bare = solve_bvp(c_a, c_b, 1, W, EnergyKind.rat(), M)
        assert [c.coeffs.tobytes() for c in bare] == [c.coeffs.tobytes() for c in path]

    def test_path_vector_above_the_blas_threading_size(self):
        # N = 40, K = 64: the path vector has 63 * 81 * 2 = 10206 entries,
        # above the 10000 from which OpenBLAS splits a dot product over
        # threads
        kind, k, m = EnergyKind.rat(), 64, 160
        c_a = pad(circle(), 40)
        c_b = pad(perturbed_circle(np.random.default_rng(7), order=6, scale=0.3), 40)
        linear = DiscretePath.linear(c_a, c_b, k)
        stack = np.stack([c.coeffs for c in linear])
        _, gh, gc = w_value_and_grad(stack[:-1], stack[1:], W, kind, m)
        g0 = np.linalg.norm(k * (gh[1:] + gc[:-1]))
        assert (k - 1) * c_a.coeffs.size > 10_000
        path, info = solve_bvp(c_a, c_b, k, W, kind, m, return_info=True)
        assert info["iterations"] == 7
        assert info["grad_norm"] <= SolverOptions().grad_tol * (1.0 + g0)
        assert info["energy"] < discrete_path_energy(linear, W, kind, m)
        assert info["energy"] == pytest.approx(discrete_path_energy(path, W, kind, m), rel=1e-12)

    def test_ladder_at_n40_stays_on_one_thread(self):
        # the boundary value ladder of the geodesic benchmark (N = 40,
        # M = 160, K = 4..64): its Gram blocks, preconditioner inverses and
        # whole-path immersion checks stay below OpenBLAS's threading sizes,
        # so the process spends no more CPU time than wall time; OpenBLAS
        # workers left spinning after threaded calls read about 1.8
        ratio = run_fresh(
            "import time\n"
            "from sobcurve import EnergyKind, MetricWeights, bvp_ladder\n"
            "from sobcurve.cli import resolve_curve\n"
            "from sobcurve.curve import pad\n"
            "a, b = (pad(resolve_curve(name), 40) for name in ('circle', 'star'))\n"
            "wall, cpu = time.perf_counter(), time.process_time()\n"
            "bvp_ladder(a, b, [4, 8, 16, 32, 64], MetricWeights.of(1e-4, 1.0, 1e-2),\n"
            "           EnergyKind.rat(), 160)\n"
            "print((time.process_time() - cpu) / (time.perf_counter() - wall))"
        )
        assert float(ratio) <= 1.3

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


def fail_value_and_grad(monkeypatch, fails):
    """Make geodesic.w_value_and_grad raise DegenerateCurve on the calls
    whose 1-based number ``fails`` accepts; returns the points evaluated."""
    real, points = geodesic.w_value_and_grad, []

    def failing(c_hat, c_check, *args):
        points.append(c_check[:-1].copy())  # the interior curves
        if fails(len(points)):
            raise DegenerateCurve("trial point rejected")
        return real(c_hat, c_check, *args)

    monkeypatch.setattr(geodesic, "w_value_and_grad", failing)
    return points


class TestBvpLineSearch:
    """Each value+grad call of solve_bvp is one trial point: the first
    evaluates the initial path, and here every iteration but a forced one
    takes its full step, so call i + 1 is the full step of iteration i."""

    @staticmethod
    def solve(radius=1.2):
        return solve_bvp(circle(1.0), circle(radius), 8, W, EnergyKind.rat(), M,
                         return_info=True)

    def test_inadmissible_full_step_is_halved(self, monkeypatch):
        free, _ = self.solve()
        points = fail_value_and_grad(monkeypatch, lambda n: n == 2)
        path, _ = self.solve()
        start, full, half = points[:3]
        np.testing.assert_allclose(half - start, 0.5 * (full - start), rtol=1e-12, atol=1e-15)
        for got, want in zip(path, free):
            assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-8

    def test_failed_line_search_drops_the_memory_and_retries(self, monkeypatch):
        # iteration 3 has two curvature pairs in memory; all 30 of its trial
        # points are rejected, so it restarts from the preconditioned gradient.
        # To circle(2) its descent (1.2e-8) is above the energy's noise; to
        # circle(1.2) it is not, and one trial is all it takes
        free, _ = self.solve(2.0)
        points = fail_value_and_grad(monkeypatch, lambda n: 4 <= n <= 33)
        path, _ = self.solve(2.0)
        x = points[2]  # where iteration 2's full step ended
        for j, trial in enumerate(points[3:33]):
            np.testing.assert_allclose(trial - x, (points[3] - x) / 2**j, rtol=1e-12, atol=1e-15)
        assert len(points) > 34
        for got, want in zip(path, free):
            assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-8

    def test_stall_without_memory_raises(self, monkeypatch):
        points = fail_value_and_grad(monkeypatch, lambda n: n >= 2)
        with pytest.raises(MaxIters, match="stalled at gradient norm"):
            self.solve()
        assert len(points) == 1 + 30  # the initial path, then each trial once

    def test_ascent_direction_drops_the_memory(self, monkeypatch):
        # a two-loop direction that is not a descent direction is replaced by
        # the preconditioned gradient step, with the memory cleared, so every
        # iteration here is preconditioned gradient descent
        free, _ = self.solve()
        real, sizes = geodesic._two_loop, []

        def ascent(memory, h0_apply, g):
            sizes.append(len(memory))
            return -real(memory, h0_apply, g)

        monkeypatch.setattr(geodesic, "_two_loop", ascent)
        path, _ = self.solve()
        assert sizes[0] == 0 and set(sizes[1:]) == {1}  # cleared each time
        for got, want in zip(path, free):
            assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-8

    def test_memory_keeps_the_ten_newest_pairs(self, monkeypatch):
        # circle to star at a tight tolerance takes 13 iterations: from the
        # twelfth on the oldest curvature pair makes room for the newest
        real, sizes = geodesic._two_loop, []

        def recorded(memory, h0_apply, g):
            sizes.append(len(memory))
            return real(memory, h0_apply, g)

        monkeypatch.setattr(geodesic, "_two_loop", recorded)
        solve_bvp(pad(circle(), 6), resolve_curve("star"), 8, W, EnergyKind.rat(), M,
                  SolverOptions(grad_tol=1e-11))
        assert len(sizes) > 11
        assert sizes == list(range(11)) + [10] * (len(sizes) - 11)


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
    for order, num_nodes in ((4, M), FINE_GRID):
        c_a, c_b = perturbed_circle(rng, order), perturbed_circle(rng, order) * 1.2
        stacked, info = solve_bvp(c_a, c_b, 16, W, kind, num_nodes, return_info=True)
        with monkeypatch.context() as patch:
            patch.setattr(geodesic, "w_eval", per_segment_w_eval)
            patch.setattr(geodesic, "w_value_and_grad", per_segment_w_value_and_grad)
            reference, ref_info = solve_bvp(c_a, c_b, 16, W, kind, num_nodes, return_info=True)
        assert info == ref_info
        for got, want in zip(stacked, reference):
            np.testing.assert_array_equal(got.coeffs, want.coeffs)



class TestDampedTrials:
    """The Euler-Lagrange solver's damped trials on a scalar root problem
    whose admissible set is y <= 1.2: outside it the residual raises."""

    @staticmethod
    def solve(func, sign, points):
        def residual(ys, idx):
            points.extend(ys.ravel().tolist())
            if np.any(ys > 1.2):
                raise DegenerateCurve("outside the admissible set")
            return func(ys)

        sols, _ = geodesic._solve_roots(
            residual, np.zeros((1, 1, 1)), [np.eye(1)], sign, None, "toy", stop_tol=1e-12
        )
        return float(sols[0, 0, 0])

    def test_step_halved_twice(self):
        # y <- y + 4 (1 - y) from 0 overshoots to 4; 2 is still outside, 1 is the root
        points = []
        assert self.solve(lambda ys: 4.0 * (1.0 - ys), 1.0, points) == 1.0
        assert points == [0.0, 4.0, 2.0, 1.0]

    def test_no_admissible_trial_hands_over_to_the_polish(self, monkeypatch):
        # the fixed-point step 1e4 (1 - y) leaves the admissible set even
        # halved six times; Newton's step is the root
        real_polish, polishes = geodesic._newton_polish, []

        def counted(*args, **kwargs):
            polishes.append(None)
            return real_polish(*args, **kwargs)

        monkeypatch.setattr(geodesic, "_newton_polish", counted)
        points = []
        assert self.solve(lambda ys: 1e4 * (1.0 - ys), 1.0, points) == pytest.approx(1.0, abs=1e-10)
        assert points[:9] == [0.0, 1e4] + [1e4 / 2**j for j in range(1, 8)]
        assert len(polishes) == 1

    @pytest.mark.parametrize("func, sign", [
        (lambda ys: np.ones_like(ys), 1.0),  # no root: a singular Jacobian
        (lambda ys: 1.0 + ys**2, -1.0),  # no root: no Newton trial lowers the residual
        (lambda ys: np.where(ys > 0.0, np.inf, 1.0), -1.0),  # probes beyond 0 are infinite
    ], ids=["singular-jacobian", "no-descent", "non-finite-jacobian"])
    def test_failed_polish_is_no_convergence(self, func, sign):
        with pytest.raises(NoConvergence, match=r"^toy: preconditioned residual 1\.000e\+00"):
            self.solve(func, sign, [])

    def test_polish_that_runs_out_of_newton_steps_is_no_convergence(self):
        # at the triple root of (1/2 - y)^3 the fixed point stalls, and each
        # Newton step cuts the error only to 2/3: all 15 steps are taken (one
        # probe and one accepted trial each) and the residual stays above
        # the tolerance; the message gives the last Newton iterate's
        # residual, not the fixed point's (5.132e-03)
        points = []
        with pytest.raises(NoConvergence, match=r"^toy: preconditioned residual .* above") as err:
            self.solve(lambda ys: (0.5 - ys) ** 3, 1.0, points)
        errors = np.abs(0.5 - np.array(points[-29::2]))  # the accepted Newton iterates
        assert len(errors) == 15
        np.testing.assert_allclose(errors[1:] / errors[:-1], 2.0 / 3.0, rtol=1e-3)
        assert f"preconditioned residual {errors[-1] ** 3:.3e} above" in str(err.value)


def test_preconditioner_falls_back_to_twice_the_gram_block():
    # epsilon / 2 exceeds the unit circle's speed, so the smoothed Hessian
    # block does not exist; the metric Gram block stands in for it
    c, kind = circle(order=3), EnergyKind.reg(2.5)
    with pytest.raises(NonPositiveLowerBound):
        hessian_scalar_at_diagonal(c, W, kind, M)
    (inverse,) = geodesic._preconditioners(c.coeffs[None], W, kind, M)
    expected = np.linalg.inv(2.0 * gram_scalar(c, W, M))
    np.testing.assert_array_equal(inverse, expected)


def test_preconditioner_of_a_block_that_is_not_positive_definite_raises(monkeypatch):
    monkeypatch.setattr(geodesic, "hessian_scalar_at_diagonal",
                        lambda anchor, *args: -np.eye(len(anchor.coeffs)))
    with pytest.raises(np.linalg.LinAlgError):
        geodesic._preconditioners(circle(order=3).coeffs[None], W, EnergyKind.rat(), M)


@pytest.mark.parametrize("kind", KINDS, ids=kind_id)
def test_preconditioner_falls_back_only_for_a_large_epsilon(kind, monkeypatch):
    # a non-immersed anchor has no Gram block either: its DegenerateCurve
    # propagates without a retry through geodesic.gram_scalar
    real_gram, grams = geodesic.gram_scalar, []

    def counted(*args, **kwargs):
        grams.append(None)
        return real_gram(*args, **kwargs)

    monkeypatch.setattr(geodesic, "gram_scalar", counted)
    flat = FourierCurve(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]), np.zeros((2, 2)))
    with pytest.raises(DegenerateCurve):
        geodesic._preconditioners(flat.coeffs[None], W, kind, M)
    assert grams == []


@pytest.mark.parametrize("k", [2, 3, 8, 64])
def test_path_preconditioner_inverts_the_kronecker_hessian(k):
    # K (T kron H kron I_d) with T the interior second-difference matrix
    # (the single entry 2 at K = 2) and H the diagonal Hessian's scalar
    # block, when both endpoints have the block H
    kind, anchor = EnergyKind.rat(), perturbed_circle(np.random.default_rng(3), order=6)
    shape = (k - 1, *anchor.coeffs.shape)
    h0 = geodesic._path_preconditioner(anchor.coeffs, anchor.coeffs, W, kind, M, shape)
    block = hessian_scalar_at_diagonal(anchor, W, kind, M)
    t = 2.0 * np.eye(k - 1) - np.eye(k - 1, k=1) - np.eye(k - 1, k=-1)
    dense = k * np.kron(t, np.kron(block, np.eye(2)))
    vec = np.random.default_rng(k).normal(size=dense.shape[0])
    expected = np.linalg.solve(dense, vec)
    got = h0(vec)
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


def test_blended_path_preconditioner_is_symmetric_positive_definite():
    # distinct endpoints: interior curve i applies S_i = (1 - i/K) F_a + (i/K) F_b,
    # F = L^-1 of each endpoint block's Cholesky factor, and the whole
    # application is S^T (T^-1 kron I) S / K
    kind, k = EnergyKind.rat(), 8
    c_a = pad(circle(), 6)
    c_b = perturbed_circle(np.random.default_rng(3), order=6, scale=0.3)
    shape = (k - 1, *c_a.coeffs.shape)
    h0 = geodesic._path_preconditioner(c_a.coeffs, c_b.coeffs, W, kind, M, shape)
    size, per_curve = int(np.prod(shape)), shape[1] * shape[2]
    f_a, f_b = (np.linalg.inv(np.linalg.cholesky(hessian_scalar_at_diagonal(c, W, kind, M)))
                for c in (c_a, c_b))
    s = np.zeros((size, size))
    for i in range(1, k):
        rows = slice((i - 1) * per_curve, i * per_curve)
        s[rows, rows] = np.kron((1.0 - i / k) * f_a + (i / k) * f_b, np.eye(2))
    t = 2.0 * np.eye(k - 1) - np.eye(k - 1, k=1) - np.eye(k - 1, k=-1)
    expected = s.T @ np.kron(np.linalg.inv(t), np.eye(per_curve)) @ s / k
    got = np.stack([h0(e) for e in np.eye(size)], axis=1)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
    x, y = np.random.default_rng(4).normal(size=(2, size))
    assert abs(x @ h0(y) - y @ h0(x)) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(h0(y))
    assert np.linalg.eigvalsh(0.5 * (got + got.T))[0] > 0.0


def test_builtin_ladder_iterations():
    # circle to star at the geodesic benchmark's size (N = 40, M = 160),
    # warm-started level by level as bvp_ladder does; with the Hessian
    # block of one middle curve the levels took 14, 16, 17, 17, 17 = 81
    kind, m = EnergyKind.rat(), 160
    c_a, c_b = (pad(resolve_curve(name), 40) for name in ("circle", "star"))
    iterations, path = [], None
    for k in (4, 8, 16, 32, 64):
        init = resample_path(path, k) if path is not None else None
        path, info = solve_bvp(c_a, c_b, k, W, kind, m, init_path=init, return_info=True)
        iterations.append(info["iterations"])
    assert iterations == [12, 11, 11, 10, 10]
    assert sum(iterations) == 54


@pytest.mark.parametrize("call", [
    lambda kind: w_eval(circle(), circle(1.1), W, kind, M),
    lambda kind: w_value_and_grad(circle(), circle(1.1), W, kind, M),
    lambda kind: hessian_scalar_at_diagonal(circle(), W, kind, M),
    lambda kind: el_step(circle(), circle(1.1), W, kind, M),
    lambda kind: el_midpoint(circle(), circle(1.1), W, kind, M),
    lambda kind: exp_k(circle(), tangent_field(np.random.default_rng(1), 1, scale=0.1), 4, W,
                       kind, M),
    lambda kind: solve_bvp(circle(), circle(1.2), 4, W, kind, M),
    lambda kind: bvp_ladder(circle(), circle(1.2), [2, 4], W, kind, M),
    lambda kind: bvp_ladder(circle(), circle(1.2), [2, 4], W, lambda k: kind, M),
], ids=["w_eval", "w_value_and_grad", "hessian_scalar_at_diagonal", "el_step", "el_midpoint",
        "exp_k", "solve_bvp", "bvp_ladder", "bvp_ladder-callable"])
def test_a_kind_that_is_not_an_energy_kind_is_a_type_error(call):
    with pytest.raises(TypeError, match=r"^kind(_for at K = 2)? must be an EnergyKind, got 'rat'$"):
        call("rat")


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
        # 2.17 calls per step; a fixed quadratic start takes 4.05, and
        # polishing every step to the floor 9.0
        c0, v = self._shot()
        real_grad, calls = geodesic.w_grad, []

        def counted(*args, **kwargs):
            calls.append(None)
            return real_grad(*args, **kwargs)

        monkeypatch.setattr(geodesic, "w_grad", counted)
        exp_k(c0, v, 64, W, EnergyKind.rat(), M)
        assert len(calls) / 63 <= 3.0

    def test_solve_bvp_energy_calls_per_iteration(self, monkeypatch):
        # one value pass per solve, and one value+grad pass per iteration
        # (each trial point is evaluated once; an accepted step keeps its
        # gradient); a value pass per trial and again per step made 5
        calls = {"w_eval": 0, "w_value_and_grad": 0}
        for name in calls:
            def counted(*args, _real=getattr(geodesic, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(geodesic, name, counted)
        _, info = solve_bvp(circle(1.0), circle(1.2), 8, W, EnergyKind.rat(), M, return_info=True)
        assert info["iterations"] == 3
        assert calls == {"w_eval": 1, "w_value_and_grad": info["iterations"] + 1}

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
        # a step that one fixed-point sweep leaves above the tolerance ends
        # in the Newton polish; from the adaptive-order start that happens
        # on 5 of the 63 steps
        c0, v = self._shot()
        opts = SolverOptions(fixed_point_max_iters=1)
        default = exp_k(c0, v, 64, W, EnergyKind.rat(), M)
        real_polish, polishes = geodesic._newton_polish, []

        def counted(*args, **kwargs):
            polishes.append(None)
            return real_polish(*args, **kwargs)

        monkeypatch.setattr(geodesic, "_newton_polish", counted)
        polished = exp_k(c0, v, 64, W, EnergyKind.rat(), M, opts)
        assert len(polishes) == 5
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

    def test_exp_k_polish_is_scale_equivariant(self):
        # x -> lam x maps the problem with weights (a0, a1, a2) to the one
        # with weights (lam^3 a0, lam a1, a2 / lam) at unit size; here every
        # step ends in the Newton polish, whose finite-difference step must
        # scale with the curves
        lam = 1e-3
        rng = np.random.default_rng(5)
        c0 = pad(perturbed_circle(rng, 6, 0.05), 12)
        v = tangent_field(rng, 6, scale=0.5)
        unit = exp_k(c0, v, 16, MetricWeights.of(1e-4 * lam**3, lam, 1e-2 / lam),
                     EnergyKind.rat(), M)[-1].coeffs * lam
        scaled = exp_k(c0 * lam, v * lam, 16, W, EnergyKind.rat(), M)[-1].coeffs
        assert np.max(np.abs(scaled - unit)) <= 1e-10 * np.max(np.abs(unit))

    def test_forced_polish_evaluates_no_point_twice(self, monkeypatch):
        # one sweep leaves the step above tolerance, and the polish starts
        # from the residual the fixed point already holds at its best iterate
        c0, v = self._shot()
        real_grad, real_polish = geodesic.w_grad, geodesic._newton_polish
        points, polishes = [], []

        def recorded(c_hat, c_check, *args, **kwargs):
            points.append((c_hat.tobytes(), c_check.tobytes()))
            return real_grad(c_hat, c_check, *args, **kwargs)

        def counted(*args, **kwargs):
            polishes.append(None)
            return real_polish(*args, **kwargs)

        monkeypatch.setattr(geodesic, "w_grad", recorded)
        monkeypatch.setattr(geodesic, "_newton_polish", counted)
        opts = SolverOptions(fixed_point_max_iters=1)
        el_step(c0, c0 + v * (1.0 / 16), W, EnergyKind.rat(), M, opts)
        assert len(polishes) == 1
        assert len(set(points)) == len(points)

    @pytest.mark.parametrize("solve", [el_step, el_midpoint], ids=["el_step", "el_midpoint"])
    def test_inadmissible_initial_guess_is_no_convergence(self, solve):
        c0 = circle(1.0)
        with pytest.raises(
            NoConvergence,
            match=rf"^{solve.__name__}: initial guess not admissible: curve speed",
        ):
            solve(c0, c0 * 1.1, W, EnergyKind.rat(), M, init=FourierCurve.zeros(1, 2))

    def test_exp_k_keeps_the_path_when_a_guess_is_not_admissible(self, monkeypatch):
        c0 = circle()
        v = tangent_field(np.random.default_rng(51), 1, scale=0.3)
        full = exp_k(c0, v, 6, W, EnergyKind.rat(), M)
        monkeypatch.setattr(geodesic, "_predict", lambda history: np.zeros_like(history[0]))
        with pytest.raises(
            NoConvergence,
            match=r"^exp_k stalled at step 2/6: el_step: initial guess not admissible",
        ) as info:
            exp_k(c0, v, 6, W, EnergyKind.rat(), M)
        partial = info.value.partial
        assert isinstance(partial, DiscretePath) and partial.num_segments == 1
        for got, want in zip(partial, full):
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
# Coefficient stacks in the Euler-Lagrange solvers
# ---------------------------------------------------------------------------


def stack_problems(count, order=4):
    """Coefficient stacks (a, b) of ``count`` nearby curve pairs."""
    rng = np.random.default_rng(70)
    pairs = [(c, c + tangent_field(rng, order, scale=0.02))
             for c in (perturbed_circle(rng, order) for _ in range(count))]
    return tuple(np.stack([x.coeffs for x in xs]) for xs in zip(*pairs))


@pytest.mark.parametrize("solve", [el_step, el_midpoint], ids=["el_step", "el_midpoint"])
class TestStacks:
    @pytest.mark.parametrize("kind", KINDS, ids=kind_id)
    def test_one_member_stack_is_the_curve_call(self, solve, kind):
        # mixed orders: the curve call pads both curves to order 4
        rng = np.random.default_rng(71)
        a = perturbed_circle(rng, order=4)
        b = circle(1.02, order=2)
        stack = np.stack([a.coeffs, pad(b, 4).coeffs])[:, None]
        got = solve(stack[0], stack[1], W, kind, M)
        assert got.shape == (1, 9, 2)
        np.testing.assert_array_equal(got[0], solve(a, b, W, kind, M).coeffs)
        init = stack[0] * 0.5 + stack[1] * 0.5
        np.testing.assert_array_equal(
            solve(stack[0], stack[1], W, kind, M, init=init)[0],
            solve(a, b, W, kind, M, init=FourierCurve.from_coeffs(init[0])).coeffs,
        )

    def test_stack_members_match_their_own_calls(self, solve):
        for order, num_nodes in ((4, M), FINE_GRID):
            a, b = stack_problems(3, order)
            got = solve(a, b, W, EnergyKind.rat(), num_nodes)
            for i in range(3):
                want = solve(FourierCurve.from_coeffs(a[i]), FourierCurve.from_coeffs(b[i]), W,
                             EnergyKind.rat(), num_nodes).coeffs
                np.testing.assert_array_equal(got[i], want)

    def test_malformed_or_mixed_arguments_raise(self, solve):
        a, b = stack_problems(2)
        curve = FourierCurve.from_coeffs(a[0])
        for args, init in (
            ((curve, b), None),  # a curve and a stack
            ((a, curve), None),
            ((a, b), curve),
            ((curve, FourierCurve.from_coeffs(b[0])), a),
            ((a, b[:, :-2]), None),  # orders differ
            ((a, b[:1]), None),  # stack sizes differ
            ((a, b), b[:, :-2]),
            ((a[:, :-1], b[:, :-1]), None),  # an even number of rows
            ((a[:0], b[:0]), None),  # no members
            ((a[0], b[0]), None),  # one coefficient array is no stack
        ):
            with pytest.raises(ValueError, match="must be curves or coefficient stacks"):
                solve(*args, W, EnergyKind.rat(), M, init=init)


def test_carry_passes_a_stack_of_partials():
    # W_{,2}[cur, next] of every member, ready to be W_{,2}[prev, cur] of
    # the next lockstep step
    for order, num_nodes in ((4, M), FINE_GRID):
        prev, cur = stack_problems(3, order)
        carry = [None]
        nxt = el_step(prev, cur, W, EnergyKind.rat(), num_nodes, _carry=carry)
        assert carry[0].shape == nxt.shape
        want = geodesic.w_grad(cur, nxt, W, EnergyKind.rat(), num_nodes)[1]
        np.testing.assert_array_equal(carry[0], want)
        again = el_step(cur, nxt, W, EnergyKind.rat(), num_nodes, _carry=carry)
        np.testing.assert_array_equal(
            again, el_step(cur, nxt, W, EnergyKind.rat(), num_nodes, _carry=[want])
        )


def test_a_solve_left_short_of_the_floor_goes_on_on_a_new_factor(monkeypatch):
    # on a factor built at curves 10% larger the fixed point contracts by
    # about 0.27 per sweep, so the floor rule stops the solve at 4.5e-11;
    # it goes on from there on a factor built at its own anchor
    rng = np.random.default_rng(3)
    a = pad(perturbed_circle(rng, 4, 0.05), 6).coeffs[None]
    b = a * 1.05 + 0.01
    kind = EnergyKind.reg(0.05)
    factors = geodesic._FactorCache()
    el_midpoint(a * 1.1, b * 1.1, W, kind, M, _blocks=factors)
    real_block, real_solve = geodesic.hessian_scalar_at_diagonal, geodesic._solve_roots
    anchors, ends = [], []

    def block(anchor, *args):
        anchors.append(anchor.coeffs)
        return real_block(anchor, *args)

    def solve(*args, **kwargs):
        sols, members = real_solve(*args, **kwargs)
        ends.append(members[0].history[-1])
        return sols, members

    monkeypatch.setattr(geodesic, "hessian_scalar_at_diagonal", block)
    monkeypatch.setattr(geodesic, "_solve_roots", solve)
    el_midpoint(a, b, W, kind, M, _blocks=factors)
    assert len(ends) == 2 and ends[1] < ends[0]
    assert ends[0] > 1e-11 > geodesic._FactorCache.FLOOR
    np.testing.assert_array_equal(anchors, a)


def _polynomial_sequence(coeffs, count):
    """Members t = 0..count-1 of sum_j coeffs[j] t^j, stacked."""
    return np.array([sum(c * float(t) ** j for j, c in enumerate(coeffs)) for t in range(count)])


@pytest.mark.parametrize("degree", range(6))
def test_predict_extrapolates_polynomial_sequences(degree):
    # degree p <= 2 is exact from 3 samples; a higher one once p + 2 samples
    # let the predictor score degree p against the newest sample
    coeffs = np.random.default_rng(degree).uniform(-1.0, 1.0, size=(degree + 1, 9, 2))
    seq = _polynomial_sequence(coeffs, 8)
    for n in range(max(degree + 2, 3), 8):
        got = geodesic._predict(seq[n - 1 :: -1])
        assert np.max(np.abs(got - seq[n])) <= 1e-12 * np.max(np.abs(seq[n]))


def test_predict_starts_a_cubic_exactly():
    # integer samples keep every difference exact: the quadratic misses the
    # cubic by 6 * its leading coefficient, the cubic and above by nothing
    coeffs = np.random.default_rng(3).integers(-5, 6, size=(4, 9, 2)).astype(float)
    coeffs[3] = np.where(coeffs[3] == 0.0, 1.0, coeffs[3])
    seq = _polynomial_sequence(coeffs, 8)
    quadratic = geodesic._predict(seq[3:0:-1])  # three samples: the quadratic
    assert np.array_equal(seq[4] - quadratic, 6.0 * coeffs[3])
    for n in range(5, 8):
        assert np.array_equal(geodesic._predict(seq[n - 1 :: -1]), seq[n])


@pytest.mark.parametrize("r", [2, 4, 8])
def test_predict_matches_the_kinks_of_a_resampled_sequence(r):
    # resampling r-fold interpolates linearly between coarse members, so the
    # sequence has a kink every r members; its members in one phase of the
    # kinks lie on the coarse quadratic, which the stride-r quadratic
    # continues exactly once it can be scored (3r + 1 samples)
    coarse = _polynomial_sequence(np.random.default_rng(r).uniform(-1.0, 1.0, size=(3, 9, 2)), 7)
    lam = np.arange(r)[:, None, None] / r
    seq = np.concatenate([(1.0 - lam) * a + lam * b for a, b in zip(coarse, coarse[1:])])
    for n in range(3 * r + 1, len(seq)):
        got = geodesic._predict(seq[n - 1 :: -1], transport._STRIDES, (2,))
        assert np.max(np.abs(got - seq[n])) <= 1e-12 * np.max(np.abs(seq[n]))


def test_predict_reads_its_own_window():
    # the default candidates reach 7 samples back, so a longer history
    # predicts as its newest 7 do, and histories of any length share the
    # scoring matrices of 2..7 samples; two samples give 2 c_1 - c_0, bitwise
    # el_step's default guess
    seq = np.random.default_rng(7).normal(size=(120, 9, 2))
    geodesic._scoring.cache_clear()
    for n in range(2, len(seq) + 1):
        history = seq[n - 1 :: -1]
        assert np.array_equal(geodesic._predict(history), geodesic._predict(history[:7]))
    assert geodesic._scoring.cache_info().currsize <= 7
    assert np.array_equal(geodesic._predict(seq[1::-1]), 2.0 * seq[1] - seq[0])


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

    @pytest.mark.parametrize("bad", [2.7, True, 0])
    def test_bad_segment_counts_rejected_before_any_solve(self, bad, monkeypatch):
        solves = []
        monkeypatch.setattr(geodesic, "solve_bvp", lambda *a, **kw: solves.append(a))
        with pytest.raises(ValueError, match="k_values"):
            bvp_ladder(circle(1.0), circle(1.2), [4, bad], W, EnergyKind.rat(), M)
        assert solves == []

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

"""Tests of the benchmark itself: seeded inputs, checks that reject corrupted
results, the tracer, and agreement with ``BENCHMARK.json``.

    python3 -m pytest bench/test_bench.py

The check tests solve each workload once (about half a minute in all).
"""

import json
import os
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from sobcurve import curve, geodesic  # noqa: E402
from sobcurve.energy import EnergyKind  # noqa: E402

SEED = 3
CURVES = {"shoot": ("c0",), "geodesic": ("c_a", "c_b"), "transport": ("c_a", "c_b")}


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_inputs_are_deterministic_per_seed(name):
    for seed in range(8):
        first, again = wl.make_inputs(name, seed), wl.make_inputs(name, seed)
        assert first.keys() == again.keys()
        for key in first:
            assert np.array_equal(first[key].coeffs, again[key].coeffs)
    a, b = wl.make_inputs(name, 1), wl.make_inputs(name, 2)
    assert any(not np.array_equal(a[k].coeffs, b[k].coeffs) for k in a)


@pytest.mark.parametrize("name", sorted(CURVES))
def test_seeded_curves_stay_immersed(name):
    for seed in range(50):
        inputs = wl.make_inputs(name, seed)
        for key in CURVES[name]:
            c = inputs[key]
            assert curve.min_speed(c, 8 * c.order + 16) >= wl.MIN_SPEED


def test_immersion_guard_rejects_a_collapsed_curve():
    with pytest.raises(ValueError):
        wl.immersed(wl.builtin("circle", 4) * 0.1)


# ---------------------------------------------------------------------------
# Checks accept the solver's results and reject corrupted ones
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """name -> (state, outputs) of one round of each workload."""
    cache = {}

    def get(name):
        if name not in cache:
            work = wl.WORKLOADS[name]
            state = work.setup(SEED, str(tmp_path_factory.mktemp(name)))
            cache[name] = state, work.body(state)
            assert state["failed"] == 0
        return cache[name]

    return get


def _failures(name, state, out):
    measured, failed = wl.WORKLOADS[name].verify(state, out)
    assert measured  # a check with nothing to measure would pass vacuously
    return failed


def _assert_rejected(failed, *fragments):
    assert failed
    for fragment in fragments:
        assert any(fragment in f for f in failed), (fragment, failed)


def _replace(path, index, new_curve):
    curves = list(path.curves)
    curves[index] = new_curve
    return geodesic.DiscretePath(tuple(curves))


def _nudge(c, size, seed=0):
    """c plus a random field of W^2 norm ``size``."""
    d = wl.perturbation(np.random.default_rng(seed), 4, c.order, 1.0)
    return c + d * (size / wl.w2(d))


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_checks_pass_on_solver_output(solved, name):
    state, out = solved(name)
    assert _failures(name, state, out) == []


def test_shoot_checks_reject_corruption(solved):
    state, out = solved("shoot")
    err = wl.w2(out[64][-1] - out[128][-1])
    moved_end = {**out, 128: _replace(out[128], -1, _nudge(out[128][-1], err))}
    _assert_rejected(_failures("shoot", state, moved_end), "Richardson")

    kinked = {**out, 64: _replace(out[64], 20, _nudge(out[64][20], 1e-3))}
    _assert_rejected(_failures("shoot", state, kinked), "K=64 segment-energy spread")

    shifted = {**out, 32: _replace(out[32], -1, _nudge(out[32][-1], 1e-3))}
    _assert_rejected(_failures("shoot", state, shifted), "node 31 first/second")


def test_geodesic_checks_reject_corruption(solved):
    state, out = solved("geodesic")
    moved = {**out, 8: _replace(out[8], -1, _nudge(out[8][-1], 1e-6))}
    _assert_rejected(_failures("geodesic", state, moved), "K=8 endpoint offset")

    bumped = {**out, 64: _replace(out[64], 32, _nudge(out[64][32], 1e-2))}
    _assert_rejected(_failures("geodesic", state, bumped), "Richardson")

    linear = geodesic.DiscretePath.linear(state["c_a"], state["c_b"], 64)
    _assert_rejected(_failures("geodesic", state, {**out, 64: linear}), "linear-path")


def test_transport_checks_reject_scaled_vector(solved):
    state, out = solved("transport")
    scaled = {k: w * 1.05 for k, w in out.items()}
    _assert_rejected(_failures("transport", state, scaled), "defect ratio", "defect at")


def test_curvature_checks_reject_kappa_off_by_one_percent(solved):
    state, out = solved("curvature")
    off = {k: kappa * 1.01 for k, kappa in out.items()}
    _assert_rejected(_failures("curvature", state, off), "error ratio", "relative error")
    missing = {k: kappa for k, kappa in out.items() if k != 64}
    _assert_rejected(_failures("curvature", state, missing), "sweep rows")


def test_default_seed_curvature_uses_the_closed_circle_value(tmp_path):
    state = wl.setup_curvature(0, str(tmp_path))
    assert state["exact"] == pytest.approx(-31.0 / (117.0 * np.pi), abs=1e-15)


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


def test_tracer_counts_exactly_and_restores_bindings():
    originals = [getattr(m, a) for m, a, _ in tracing.SITES]
    c0 = wl.builtin("circle", 6)
    v = wl.builtin("mixv", 6)
    tracer = tracing.Tracer()
    with tracer.round():
        geodesic.exp_k(c0, v, 4, wl.WEIGHTED, EnergyKind.rat(), 32)
        path = geodesic.bvp_ladder(c0, c0 + v * 0.2, [2, 4], wl.WEIGHTED,
                                   EnergyKind.rat(), 32)[4]
    assert [getattr(m, a) for m, a, _ in tracing.SITES] == originals
    assert isinstance(path, geodesic.DiscretePath)  # solve_bvp returns the path alone

    names = [s[2] for s in tracer.spans]
    values = tracing.layer_metrics(tracer.spans, 1, {}, 0.0)
    assert values["geodesic.el_step.calls"] == 3  # K - 1 forward steps
    # el_step makes one fixed gradient plus one per residual evaluation
    assert values["geodesic.grads_per_el_step"] >= 2.0
    assert values["geodesic.solve_bvp.calls"] == 2
    assert values["geodesic.solve_bvp.iters"] > 0
    assert values["energy.grad_rat.calls"] == names.count("energy.grad_rat")
    assert values["energy.value_rat.calls"] > 0
    assert values["geodesic.el_step.self_s"] < values["geodesic.el_step.time_s"]
    assert 0.0 < values["energy.grad_rat.us_per_node"]
    assert tracing.setup_metrics(tracer.spans)["setup.geodesic.solve_bvp.calls"] == 2


# ---------------------------------------------------------------------------
# BENCHMARK.json
# ---------------------------------------------------------------------------


def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert all(0.0 < m["bound"] <= 0.25 for m in spec["end_to_end"])

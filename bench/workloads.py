"""The four benchmark workloads: seeded inputs, timed body, correctness checks.

Each workload is driven only through the public API of ``sobcurve``
(``sobcurve.cli.main`` for ``curvature``).  Calls go through module
attributes at call time (``geodesic.exp_k`` rather than a name imported
once), so the outside-in tracer in ``tracing.py`` sees them when it rebinds
those attributes.

Every check compares against a computation made apart from the solver (the
closed-form circle curvature, the exact Fourier-arithmetic oracle, the
linear path) or against a property the method must have (convergence
order, equal segment energies, stationarity, metric preservation).  None
compares against stored output.  A check returns its measurements as
``(name, value, lo, hi)``; ``failures`` lists those outside their band.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os

import numpy as np

from sobcurve import cli, curve, energy, geodesic, metric, oracle, transport
from sobcurve.curve import FourierCurve
from sobcurve.energy import EnergyKind
from sobcurve.errors import MaxIters, NoConvergence
from sobcurve.metric import MetricWeights

#: Solver calls that count as failed operations rather than broken runs.
SOLVER_FAILURES = (NoConvergence, MaxIters)

WEIGHTED = MetricWeights.of(1e-4, 1.0, 1e-2)
UNIT = MetricWeights.of(1.0, 1.0, 1.0)
RAT = EnergyKind.rat()

# Stream tags keep the four workloads' random inputs independent per seed.
_TAGS = {"shoot": 1, "geodesic": 2, "transport": 3, "curvature": 4}


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def _rng(workload: str, seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([int(seed), _TAGS[workload], stream])


def perturbation(rng, order: int, pad_to: int, scale: float) -> FourierCurve:
    """Random planar field on modes 0..order with 1/(1+k)^2 decay, padded."""
    decay = 1.0 / (1.0 + np.arange(order + 1)[:, None]) ** 2
    cos = rng.normal(size=(order + 1, 2)) * scale * decay
    sin = rng.normal(size=(order, 2)) * scale * decay[1:]
    return curve.pad(FourierCurve(cos, sin), pad_to)


def builtin(name: str, order: int) -> FourierCurve:
    return curve.pad(cli.resolve_curve(name), order)


#: Seeded curves must keep at least this speed on a fine grid.
MIN_SPEED = 0.5


def immersed(c: FourierCurve) -> FourierCurve:
    speed = curve.min_speed(c, 8 * c.order + 16)
    if not speed >= MIN_SPEED:
        raise ValueError(f"seeded curve has speed {speed:.3g} < {MIN_SPEED}")
    return c


def make_inputs(workload: str, seed: int) -> dict:
    """The curves a workload feeds to ``sobcurve``, determined by the seed."""
    rng = _rng(workload, seed)
    if workload == "shoot":
        return {
            "c0": immersed(builtin("circle", 30) + perturbation(rng, 4, 30, 0.02)),
            "v": builtin("mixv", 30) + perturbation(rng, 3, 30, 0.05),
        }
    if workload == "geodesic":
        return {
            "c_a": builtin("circle", 40),
            "c_b": immersed(builtin("star", 40) + perturbation(rng, 6, 40, 0.02)),
        }
    if workload == "transport":
        return {
            "c_a": builtin("circle", 30),
            "c_b": immersed(builtin("circle:1.2", 30) + perturbation(rng, 4, 30, 0.02)),
            "w0": builtin("normal5", 30) + perturbation(rng, 6, 30, 0.05),
        }
    if workload == "curvature":
        # the closed-form circle example on the default seed
        if seed == 0:
            return {"v": builtin("cosx", 2), "w": builtin("cosy", 2)}
        return {
            "v": builtin("cosx", 2) + perturbation(rng, 2, 2, 0.1),
            "w": builtin("cosy", 2) + perturbation(rng, 2, 2, 0.1),
        }
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Segment:
    """A workload's own first segment: warm-up and energy probe input."""

    c_hat: FourierCurve
    c_check: FourierCurve
    weights: MetricWeights
    num_nodes: int
    epsilon: float  # for the smoothed kind


def warm_up(seg: Segment) -> None:
    """Fill the spectral-matrix and Gauss-node caches for both kinds."""
    for kind in (RAT, EnergyKind.reg(seg.epsilon)):
        energy.w_value_and_grad(seg.c_hat, seg.c_check, seg.weights, kind, seg.num_nodes)
        energy.hessian_at_diagonal(seg.c_hat, seg.weights, kind, seg.num_nodes)


def w2(c: FourierCurve) -> float:
    return metric.sobolev_norm(c, 2)


def failures(measurements):
    return [f"{name} = {value:.6g} outside [{lo:g}, {hi:g}]"
            for name, value, lo, hi in measurements if not lo <= value <= hi]


@dataclasses.dataclass
class Workload:
    """One workload: ``setup(seed, workdir) -> state``, ``body(state) -> outputs``
    (failed operations are left out of ``outputs`` and counted in
    ``state['failed']``), ``check(state, outputs) -> measurements``."""

    ops_per_round: int
    setup: object
    body: object
    check: object

    def verify(self, state, outputs):
        """(measurements, failures) of the check on one round's outputs."""
        measured = self.check(state, outputs)
        return measured, failures(measured)


def _attempt(state, key, outputs, fn, *args):
    try:
        outputs[key] = fn(*args)
    except SOLVER_FAILURES:
        state["failed"] += 1


# ---------------------------------------------------------------------------
# shoot: exp_k with the rational energy at K = 32, 64, 128
# ---------------------------------------------------------------------------

SHOOT_N, SHOOT_M, SHOOT_KS = 30, 120, (32, 64, 128)


def setup_shoot(seed, workdir):
    inp = make_inputs("shoot", seed)
    k0 = SHOOT_KS[0]
    seg = Segment(inp["c0"], inp["c0"] + inp["v"] * (1.0 / k0), WEIGHTED, SHOOT_M, 1.0 / k0)
    warm_up(seg)
    fd_rng = _rng("shoot", seed, stream=1)
    return {
        **inp,
        "segment": seg,
        "failed": 0,
        # seeded stationarity probes on the K=32 path: node and direction
        "fd_node": int(fd_rng.integers(2, k0 - 1)),
        "fd_dirs": [perturbation(fd_rng, 4, SHOOT_N, 1.0) for _ in range(3)],
    }


def body_shoot(state):
    out = {}
    for k in SHOOT_KS:
        _attempt(state, k, out, geodesic.exp_k,
                 state["c0"], state["v"], k, WEIGHTED, RAT, SHOOT_M)
    return out


def fd_stationarity(path, node, direction, weights, kind, num_nodes, h=1e-3):
    """|E(+h) - E(-h)| / |E(+h) - 2E(0) + E(-h)| for a perturbation of one
    interior node: small exactly when the path energy is stationary there."""
    def energy_at(t):
        curves = list(path.curves)
        curves[node] = curves[node] + direction * t
        return geodesic.discrete_path_energy(
            geodesic.DiscretePath(tuple(curves)), weights, kind, num_nodes)

    plus, zero, minus = energy_at(h), energy_at(0.0), energy_at(-h)
    return abs(plus - minus) / abs(plus - 2.0 * zero + minus)


def check_shoot(state, out):
    ends = {k: out[k][-1] for k in SHOOT_KS}
    k1, k2, k3 = SHOOT_KS
    got = [("Richardson ratio |c32-c128|/|c64-c128| (first order: 3)",
            w2(ends[k1] - ends[k3]) / w2(ends[k2] - ends[k3]), 2.5, 3.5)]
    for k in SHOOT_KS:
        seg = geodesic.segment_energies(out[k], WEIGHTED, RAT, SHOOT_M)
        got.append((f"K={k} segment-energy spread", (seg.max() - seg.min()) / seg.mean(),
                    0.0, 1e-3))
    for node, d in zip((1, state["fd_node"], k1 - 1), state["fd_dirs"]):
        got.append((f"K={k1} node {node} first/second energy difference",
                    fd_stationarity(out[k1], node, d, WEIGHTED, RAT, SHOOT_M), 0.0, 5e-3))
    return got


# ---------------------------------------------------------------------------
# geodesic: bvp_ladder circle -> perturbed star, K = 4..64 warm-started
# ---------------------------------------------------------------------------

GEO_N, GEO_M, GEO_KS = 40, 160, (4, 8, 16, 32, 64)


def setup_geodesic(seed, workdir):
    inp = make_inputs("geodesic", seed)
    c_a, c_b = inp["c_a"], inp["c_b"]
    k0 = GEO_KS[0]
    seg = Segment(c_a, c_a + (c_b - c_a) * (1.0 / k0), WEIGHTED, GEO_M, 1.0 / k0)
    warm_up(seg)
    linear = geodesic.discrete_path_energy(
        geodesic.DiscretePath.linear(c_a, c_b, GEO_KS[-1]), WEIGHTED, RAT, GEO_M)
    return {**inp, "segment": seg, "failed": 0, "linear_energy": linear}


def body_geodesic(state):
    out = {}
    _attempt(state, "ladder", out, geodesic.bvp_ladder,
             state["c_a"], state["c_b"], GEO_KS, WEIGHTED, RAT, GEO_M)
    return out.get("ladder", {})


def check_geodesic(state, out):
    got = [(f"K={k} endpoint offset", w2(p[0] - state["c_a"]) + w2(p[-1] - state["c_b"]),
            0.0, 0.0) for k, p in out.items()]
    e = {k: geodesic.discrete_path_energy(out[k], WEIGHTED, RAT, GEO_M) for k in GEO_KS}
    got.append(("energy Richardson ratio (E16-E32)/(E32-E64) (second order: 4)",
                (e[16] - e[32]) / (e[32] - e[64]), 3.5, 4.5))
    got.append(("K=64 energy over linear-path energy", e[64] / state["linear_energy"],
                0.0, 1.0 - 1e-9))
    return got


# ---------------------------------------------------------------------------
# transport: Schild's ladder with eps = 1/K along a rational geodesic
# ---------------------------------------------------------------------------

TP_N, TP_M, TP_KS = 30, 120, (32, 64, 128)
TP_LADDER = (4, 16, 32)  # the base geodesic, solved once in set-up


def setup_transport(seed, workdir):
    inp = make_inputs("transport", seed)
    base = geodesic.bvp_ladder(
        inp["c_a"], inp["c_b"], TP_LADDER, WEIGHTED, RAT, TP_M)[TP_LADDER[-1]]
    k0 = TP_KS[0]
    first = geodesic.resample_path(base, k0)
    seg = Segment(first[0], first[1], WEIGHTED, TP_M, 1.0 / k0)
    warm_up(seg)
    w0 = inp["w0"]
    return {**inp, "base": base, "segment": seg, "failed": 0,
            "g0": metric.metric_eval(base[0], w0, w0, WEIGHTED, TP_M)}


def body_transport(state):
    out = {}
    for k in TP_KS:
        path = geodesic.resample_path(state["base"], k)
        _attempt(state, k, out, transport.transport_path,
                 path, state["w0"], WEIGHTED, EnergyKind.reg(1.0 / k), TP_M)
    return out


def check_transport(state, out):
    end, g0 = state["base"][-1], state["g0"]
    defect = {k: abs(metric.metric_eval(end, out[k], out[k], WEIGHTED, TP_M) - g0) / g0
              for k in TP_KS}
    got = [(f"metric defect ratio K={k1}/K={k2} (halves: 2)", defect[k1] / defect[k2], 1.6, 2.6)
           for k1, k2 in zip(TP_KS, TP_KS[1:])]
    got.append((f"metric defect at K={TP_KS[-1]}", defect[TP_KS[-1]], 0.0, 0.01))
    return got


# ---------------------------------------------------------------------------
# curvature: sobcurve sweep-curvature through cli.main, in-process
# ---------------------------------------------------------------------------

CURV_N, CURV_M, CURV_KS = 20, 80, (8, 16, 32, 64)


def setup_curvature(seed, workdir):
    inp = make_inputs("curvature", seed)
    v, w = inp["v"], inp["w"]
    if seed == 0:
        exact = -31.0 / (117.0 * math.pi)  # the circle example, cosx/cosy, weights 1,1,1
    else:
        exact = oracle.sectional_curvature_circle(
            oracle.TrigPolynomial(v.cos_coeffs, v.sin_coeffs),
            oracle.TrigPolynomial(w.cos_coeffs, w.sin_coeffs),
            UNIT,
        )
    paths = {}
    for name, c in (("v", v), ("w", w)):
        paths[name] = os.path.join(workdir, f"{name}.json")
        curve.save_curve(c, paths[name])
    circle = builtin("circle", CURV_N)
    k0 = CURV_KS[0]
    seg = Segment(circle, circle + curve.pad(v, CURV_N) * (1.0 / k0), UNIT, CURV_M, 1.0 / k0)
    warm_up(seg)
    return {**inp, "segment": seg, "failed": 0, "exact": exact,
            "workdir": workdir, "paths": paths}


def body_curvature(state):
    out_dir = os.path.join(state["workdir"], "sweep")
    argv = ["sweep-curvature", "--in-v", state["paths"]["v"], "--in-w", state["paths"]["w"],
            "--weights", "1,1,1", "-N", str(CURV_N), "-M", str(CURV_M),
            "--K-list", ",".join(map(str, CURV_KS)), "--centered", "--out", out_dir]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        if not any(f"error[{e.code}]" in err.getvalue() for e in SOLVER_FAILURES):
            raise RuntimeError(f"sobcurve sweep-curvature exited {code}: {err.getvalue()}")
        state["failed"] += 1
        return {}
    with open(os.path.join(out_dir, "sweep_curvature.csv")) as fh:
        rows = [line.split(",") for line in fh if not line.startswith("#")][1:]
    return {int(k): float(kappa) for k, kappa, _ in rows}


def check_curvature(state, out):
    if sorted(out) != list(CURV_KS):
        return [("sweep rows with the requested K", len(set(out) & set(CURV_KS)),
                 len(CURV_KS), len(CURV_KS))]
    exact = state["exact"]
    err = {k: abs(out[k] - exact) for k in CURV_KS}
    got = [(f"error ratio K={k1}/K={k2} (second order: 4)", err[k1] / err[k2], 3.2, 4.8)
           for k1, k2 in zip(CURV_KS[1:], CURV_KS[2:])]
    got.append((f"relative error at K={CURV_KS[-1]}", err[CURV_KS[-1]] / abs(exact), 0.0, 3e-3))
    return got


WORKLOADS = {
    "shoot": Workload(len(SHOOT_KS), setup_shoot, body_shoot, check_shoot),
    "geodesic": Workload(1, setup_geodesic, body_geodesic, check_geodesic),
    "transport": Workload(len(TP_KS), setup_transport, body_transport, check_transport),
    "curvature": Workload(1, setup_curvature, body_curvature, check_curvature),
}

"""Command-line driver: curve I/O, single geodesic-calculus computations, and
convergence sweeps emitting CSV.

Curve inputs (``--in-a``/``--in-b``/``--in-v``/``--in-w``) are either paths to
curve JSON files or builtin shape names (``circle[:r]``, ``ellipse[:a,b]``,
``star``, and the tangent fields ``cosx``, ``cosy``, ``mixv``, ``mixw``,
``normal5``).  Sweeps write one CSV with a leading comment line that embeds
the configuration, a header row, one row per K flushed as soon as it is
computed, and a trailing comment with the fitted log-log slope over the final
half of the K range.  Outputs carry no timestamps, so identical invocations
produce byte-identical files.  The SOBCURVE_THREADS environment variable caps
the worker pool used for independent sweep entries.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .curve import FourierCurve, curve_to_dict, load_curve, min_speed, pad, truncate
from .energy import EnergyKind
from .errors import SobcurveError
from .geodesic import (
    SolverOptions,
    bvp_ladder,
    discrete_path_energy,
    exp_k,
    log2,
    resample_path,
    solve_bvp,
)
from .metric import MetricWeights, metric_eval, sobolev_norm
from .oracle import TrigPolynomial, christoffel_circle, sectional_curvature_circle
from .transport import (
    CurvatureSchedule,
    cov_deriv,
    sectional_curvature,
    transport_inner_products,
    transport_path,
)

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Builtin shapes and tangent fields
# ---------------------------------------------------------------------------


def _curve(entries_cos, entries_sin, order):
    cos = np.zeros((order + 1, 2))
    sin = np.zeros((order, 2))
    for k, x, y in entries_cos:
        cos[k] = (x, y)
    for k, x, y in entries_sin:
        sin[k - 1] = (x, y)
    return FourierCurve(cos, sin)


def _shape_circle(radius=1.0):
    return _curve([(1, radius, 0.0)], [(1, 0.0, radius)], 1)


def _shape_ellipse(a=1.5, b=1.0):
    return _curve([(1, a, 0.0)], [(1, 0.0, b)], 1)


def _shape_star():
    # r(theta) = 1 + 0.3 cos(5 theta) written out in Fourier modes
    return _curve(
        [(1, 1.0, 0.0), (4, 0.15, 0.0), (6, 0.15, 0.0)],
        [(1, 0.0, 1.0), (4, 0.0, -0.15), (6, 0.0, 0.15)],
        6,
    )


def _field_cosx():
    return _curve([(1, 1.0, 0.0)], [], 1)


def _field_cosy():
    return _curve([(1, 0.0, 1.0)], [], 1)


def _field_mixv():
    return _curve([(1, -0.5, 0.0)], [(1, 0.0, 1.0)], 1)


def _field_mixw():
    return _curve([(1, 1.0, 0.0)], [(1, 0.0, -0.5)], 1)


def _field_normal5():
    # sin(5 theta) times the outer normal (cos, sin) of the unit circle
    return _curve(
        [(4, 0.0, 0.5), (6, 0.0, -0.5)],
        [(4, 0.5, 0.0), (6, 0.5, 0.0)],
        6,
    )


_SHAPES = {
    "circle": _shape_circle,
    "ellipse": _shape_ellipse,
    "star": _shape_star,
    "cosx": _field_cosx,
    "cosy": _field_cosy,
    "mixv": _field_mixv,
    "mixw": _field_mixw,
    "normal5": _field_normal5,
}


def resolve_curve(spec: str) -> FourierCurve:
    """A curve JSON file path, or a builtin name with optional :params."""
    if os.path.exists(spec):
        return load_curve(spec)
    name, _, params = spec.partition(":")
    if name in _SHAPES:
        args = [float(p) for p in params.split(",")] if params else []
        return _SHAPES[name](*args)
    raise ValueError(f"no such curve file or builtin shape: {spec!r}")


# ---------------------------------------------------------------------------
# Flag parsing helpers
# ---------------------------------------------------------------------------


def parse_weights(text: str) -> MetricWeights:
    return MetricWeights.of(*(float(p) for p in text.split(",")))


def parse_eps_rule(text: str):
    """Epsilon as a function of the segment count K.

    Accepts a float, ``1/K``, ``1/sqrt(K)``, or ``c*K^-3/2`` (also written
    ``c*K^-1.5``).
    """
    t = text.strip().lower().replace(" ", "")
    if t == "1/k":
        return lambda k: 1.0 / k
    if t in ("1/sqrt(k)", "1/k^0.5", "k^-0.5"):
        return lambda k: 1.0 / math.sqrt(k)
    m = re.fullmatch(r"([0-9.eE+-]+)\*k\^\(?(?:-3/2|-1\.5)\)?", t)
    if m:
        c = float(m.group(1))
        return lambda k: c * k**-1.5
    value = float(t)  # raises ValueError on anything else
    if value <= 0.0:
        raise ValueError("epsilon must be positive")
    return lambda k: value


def parse_tau_rule(text: str):
    """Schedule entries as functions of the step tau.

    Accepts a float, ``tau``, ``tau^p``, or ``tau^p/c``.
    """
    t = text.strip().lower().replace(" ", "")
    m = re.fullmatch(r"tau(?:\^([0-9.]+))?(?:/([0-9.eE+-]+))?", t)
    if m:
        power = float(m.group(1)) if m.group(1) else 1.0
        denom = float(m.group(2)) if m.group(2) else 1.0
        return lambda tau: tau**power / denom
    value = float(t)
    if value <= 0.0:
        raise ValueError("schedule epsilon must be positive")
    return lambda tau: value


def _kind_rule(args):
    """(description, K -> EnergyKind) from --kind / --epsilon."""
    if args.kind == "rat":
        if args.epsilon is not None:
            raise ValueError("--epsilon only applies to --kind reg")
        return "rat", lambda k: EnergyKind.rat()
    if args.epsilon is None:
        raise ValueError("--kind reg requires --epsilon (a value or a rule)")
    rule = parse_eps_rule(args.epsilon)
    return f"reg(eps={args.epsilon})", lambda k: EnergyKind.reg(rule(k))


def _kind_flavor(args) -> tuple[str, EnergyKind]:
    """Energy family for schedule-driven commands, whose regularization
    parameters come from the curvature schedule rather than --epsilon."""
    if args.epsilon is not None:
        raise ValueError(
            "curvature commands take --eps-out/--eps-in schedule rules, not --epsilon"
        )
    if args.kind == "rat":
        return "rat", EnergyKind.rat()
    return "reg", EnergyKind.reg(1.0)  # placeholder, replaced per quotient


def _schedule_for(args, tau: float) -> CurvatureSchedule:
    base = (
        CurvatureSchedule.central(tau, scale=args.curv_scale)
        if args.centered
        else CurvatureSchedule.one_sided(tau)
    )
    updates = {}
    if args.beta is not None:
        updates["beta"] = args.beta
    if args.eps_out is not None:
        updates["eps_out"] = parse_tau_rule(args.eps_out)(tau)
    if args.eps_in is not None:
        updates["eps_in"] = parse_tau_rule(args.eps_in)(tau)
    return dataclasses.replace(base, **updates) if updates else base


def _solver_options(args) -> SolverOptions:
    return SolverOptions(grad_tol=args.tol, max_iters=args.max_iters)


def _resolve_input(args, attr, discretize=True):
    curve = resolve_curve(getattr(args, attr))
    if discretize and args.N is not None:
        curve = pad(truncate(curve, args.N), args.N)
    return curve


def _num_nodes(args, *curves) -> int:
    order = args.N if args.N is not None else max(c.order for c in curves)
    if args.M is not None:
        if args.M <= 2 * order:
            raise ValueError(
                f"need M > 2N quadrature nodes (M={args.M}, N={order})"
            )
        return args.M
    return max(16, 4 * order)


def _parse_k_list(text: str):
    ks = [int(p) for p in text.split(",")]
    if any(k < 1 for k in ks):
        raise ValueError("segment counts must be at least 1")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("--K-list must be strictly increasing")
    return ks


def _parse_ref(text, default_k):
    if text is None:
        return "self", default_k
    if text.startswith("self:"):
        return "self", int(text[len("self:"):])
    return "file", text


def _workers(num_entries: int) -> int:
    env = os.environ.get("SOBCURVE_THREADS")
    cap = int(env) if env else (os.cpu_count() or 1)
    return max(1, min(cap, num_entries))


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _config_line(args) -> str:
    pairs = []
    for key in sorted(vars(args)):
        if key in ("func", "out"):  # where output lands is not computation config
            continue
        value = getattr(args, key)
        if value is None:
            continue
        pairs.append(f"{key}={value}")
    return " ".join(pairs)


class _CsvWriter:
    """Deterministic CSV: config comment, header, rows flushed one by one."""

    def __init__(self, path, columns, config):
        self._fh = open(path, "w")
        self._fh.write(f"# {config}\n")
        self._fh.write(",".join(columns) + "\n")
        self._fh.flush()

    def row(self, values):
        self._fh.write(",".join(_fmt(v) for v in values) + "\n")
        self._fh.flush()

    def comment(self, text):
        self._fh.write(f"# {text}\n")
        self._fh.flush()

    def close(self):
        self._fh.close()


def fitted_slope(ks, errors) -> float:
    """Observed order: minus the log-log slope over the final half of the
    K range (at least the last two entries)."""
    ks = np.asarray(ks, dtype=float)
    errors = np.maximum(np.asarray(errors, dtype=float), 1e-300)
    start = min(len(ks) // 2, len(ks) - 2)
    coeffs = np.polyfit(np.log(ks[start:]), np.log(errors[start:]), 1)
    return float(-coeffs[0])


def _out_dir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _save_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _run_sweep(writer, ks, worker):
    """Evaluate worker(K) for each K on a thread pool, writing rows in K
    order as soon as each row's predecessors are done."""
    with ThreadPoolExecutor(max_workers=_workers(len(ks))) as pool:
        futures = {k: pool.submit(worker, k) for k in ks}
        rows = []
        for k in ks:
            row = futures[k].result()
            writer.row(row)
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Single computations
# ---------------------------------------------------------------------------


def cmd_geodesic(args) -> int:
    c_a = _resolve_input(args, "in_a")
    c_b = _resolve_input(args, "in_b")
    weights = parse_weights(args.weights)
    _, kind_of = _kind_rule(args)
    nodes = _num_nodes(args, c_a, c_b)
    path, info = solve_bvp(
        c_a, c_b, args.K, weights, kind_of(args.K), nodes,
        opts=_solver_options(args), return_info=True,
    )
    out = _out_dir(args)
    node_files = []
    for j, curve in enumerate(path):
        name = f"node_{j:04d}.json"
        _save_json(os.path.join(out, name), curve_to_dict(curve))
        node_files.append(name)
    _save_json(
        os.path.join(out, "manifest.json"),
        {
            "config": _config_line(args),
            "nodes": node_files,
            "energy": info["energy"],
            "iterations": info["iterations"],
            "grad_norm": info["grad_norm"],
        },
    )
    print(
        f"energy={_fmt(info['energy'])} iterations={info['iterations']} "
        f"grad_norm={_fmt(info['grad_norm'])}"
    )
    return 0


def cmd_exp(args) -> int:
    c0 = _resolve_input(args, "in_a")
    v = _resolve_input(args, "in_v")
    weights = parse_weights(args.weights)
    _, kind_of = _kind_rule(args)
    nodes = _num_nodes(args, c0, v)
    path = exp_k(c0, v, args.K, weights, kind_of(args.K), nodes, _solver_options(args))
    endpoint = path[-1]
    out = _out_dir(args)
    _save_json(os.path.join(out, "exp_result.json"), curve_to_dict(endpoint))
    print(f"segments={args.K} endpoint_min_speed={_fmt(min_speed(endpoint, nodes))}")
    return 0


def cmd_log(args) -> int:
    c0 = _resolve_input(args, "in_a")
    c2 = _resolve_input(args, "in_b")
    weights = parse_weights(args.weights)
    _, kind_of = _kind_rule(args)
    nodes = _num_nodes(args, c0, c2)
    v = log2(c0, c2, weights, kind_of(2), nodes, _solver_options(args))
    out = _out_dir(args)
    _save_json(os.path.join(out, "log_result.json"), curve_to_dict(v))
    gnorm = math.sqrt(max(metric_eval(c0, v, v, weights, nodes), 0.0))
    print(f"gnorm={_fmt(gnorm)}")
    return 0


def cmd_transport(args) -> int:
    c_a = _resolve_input(args, "in_a")
    c_b = _resolve_input(args, "in_b")
    w0 = _resolve_input(args, "in_v")
    weights = parse_weights(args.weights)
    _, kind_of = _kind_rule(args)
    kind = kind_of(args.K)
    nodes = _num_nodes(args, c_a, c_b, w0)
    opts = _solver_options(args)
    path = solve_bvp(c_a, c_b, args.K, weights, kind, nodes, opts=opts)
    moved = transport_path(path, w0, weights, kind, nodes, opts)
    alphas = transport_inner_products(path, w0, weights, kind, nodes, opts)
    out = _out_dir(args)
    _save_json(os.path.join(out, "transport_result.json"), curve_to_dict(moved))
    writer = _CsvWriter(
        os.path.join(out, "transport_alphas.csv"), ["k", "alpha"], _config_line(args)
    )
    for k, alpha in enumerate(alphas):
        writer.row([k, alpha])
    writer.close()
    drift = np.abs(np.diff(alphas)) * args.K
    if drift.size:
        print(
            f"alpha_drift_max={_fmt(drift.max())} "
            f"alpha_drift_median={_fmt(np.median(drift))}"
        )
    else:
        print("alpha_drift_max=0.0 alpha_drift_median=0.0")
    return 0


def cmd_covderiv(args) -> int:
    c = _resolve_input(args, "in_a")
    v = _resolve_input(args, "in_v")
    w = _resolve_input(args, "in_w")
    weights = parse_weights(args.weights)
    _, kind_of = _kind_rule(args)
    nodes = _num_nodes(args, c, v, w)
    tau = 1.0 / args.K
    result = cov_deriv(
        c, v, w, tau, weights, kind_of(args.K), nodes,
        _solver_options(args), centered=args.centered,
    )
    out = _out_dir(args)
    _save_json(os.path.join(out, "covderiv_result.json"), curve_to_dict(result))
    print(f"tau={_fmt(tau)} norm_w2={_fmt(sobolev_norm(result, 2))}")
    return 0


def cmd_curvature(args) -> int:
    c = _resolve_input(args, "in_a")
    v = _resolve_input(args, "in_v")
    w = _resolve_input(args, "in_w")
    weights = parse_weights(args.weights)
    _, kind = _kind_flavor(args)
    nodes = _num_nodes(args, c, v, w)
    tau = 1.0 / args.K
    kappa = sectional_curvature(
        c, v, w, tau, _schedule_for(args, tau), weights, kind, nodes,
        _solver_options(args),
    )
    out = _out_dir(args)
    _save_json(os.path.join(out, "curvature_result.json"), {"tau": tau, "kappa": kappa})
    print(f"tau={_fmt(tau)} kappa={_fmt(kappa)}")
    return 0


# ---------------------------------------------------------------------------
# Convergence sweeps
# ---------------------------------------------------------------------------


def _path_error(path, reference, order):
    """Time-discrete L^2-in-time Sobolev-in-theta distance of two paths with
    equal segment counts."""
    k = path.num_segments
    total = sum(
        sobolev_norm(path[j] - reference[j], order) ** 2 for j in range(k + 1)
    )
    return math.sqrt(total / (k + 1))


def cmd_sweep_geodesic(args) -> int:
    c_a = _resolve_input(args, "in_a")
    c_b = _resolve_input(args, "in_b")
    weights = parse_weights(args.weights)
    desc, kind_of = _kind_rule(args)
    nodes = _num_nodes(args, c_a, c_b)
    ks = _parse_k_list(args.K_list)
    mode, ref_spec = _parse_ref(args.ref, default_k=2048)
    if mode != "self":
        raise ValueError("sweep-geodesic supports only self:K references")
    k_ref = int(ref_spec)
    if k_ref <= ks[-1]:
        raise ValueError("reference segment count must exceed the sweep range")
    opts = _solver_options(args)

    # Warm-started ladders: one for the swept kind, one rational ladder
    # continued to the reference resolution.
    paths = bvp_ladder(c_a, c_b, ks, weights, kind_of, nodes, opts)
    ref_path = bvp_ladder(
        c_a, c_b, sorted(set(ks + [k_ref])), weights, EnergyKind.rat(), nodes, opts
    )[k_ref]

    out = _out_dir(args)
    writer = _CsvWriter(
        os.path.join(out, "sweep_geodesic.csv"),
        ["K", "err_L2", "err_W1", "err_W2"],
        _config_line(args),
    )
    rows = []
    for k in ks:
        ref_k = resample_path(ref_path, k)
        row = [k] + [_path_error(paths[k], ref_k, r) for r in (0, 1, 2)]
        writer.row(row)
        rows.append(row)
    slope = fitted_slope([r[0] for r in rows], [r[3] for r in rows])
    writer.comment(f"fitted_slope_final_half={_fmt(slope)}")
    writer.close()
    print(f"kind={desc} fitted_slope={_fmt(slope)}")
    return 0


def cmd_sweep_exp(args) -> int:
    c0 = _resolve_input(args, "in_a")
    v = _resolve_input(args, "in_v")
    weights = parse_weights(args.weights)
    desc, kind_of = _kind_rule(args)
    nodes = _num_nodes(args, c0, v)
    ks = _parse_k_list(args.K_list)
    opts = _solver_options(args)
    mode, ref_spec = _parse_ref(args.ref, default_k=8192)
    if mode == "file":
        reference = resolve_curve(ref_spec)
    else:
        k_ref = int(ref_spec)
        reference = exp_k(c0, v, k_ref, weights, EnergyKind.rat(), nodes, opts)[-1]

    out = _out_dir(args)
    writer = _CsvWriter(
        os.path.join(out, "sweep_exp.csv"), ["K", "err_W2"], _config_line(args)
    )

    def worker(k):
        endpoint = exp_k(c0, v, k, weights, kind_of(k), nodes, opts)[-1]
        return [k, sobolev_norm(endpoint - reference, 2)]

    rows = _run_sweep(writer, ks, worker)
    slope = fitted_slope([r[0] for r in rows], [r[1] for r in rows])
    writer.comment(f"fitted_slope_final_half={_fmt(slope)}")
    writer.close()
    print(f"kind={desc} fitted_slope={_fmt(slope)}")
    return 0


def cmd_sweep_transport(args) -> int:
    c_a = _resolve_input(args, "in_a")
    c_b = _resolve_input(args, "in_b")
    w0 = _resolve_input(args, "in_v")
    weights = parse_weights(args.weights)
    desc, kind_of = _kind_rule(args)
    nodes = _num_nodes(args, c_a, c_b, w0)
    ks = _parse_k_list(args.K_list)
    opts = _solver_options(args)
    mode, ref_spec = _parse_ref(args.ref, default_k=8192)

    # One fixed rational geodesic supplies the transport path at every K;
    # rung counts are varied by resampling it in time.
    k_path = max(ks[-1], min(int(ref_spec) if mode == "self" else 1024, 1024))
    base_path = bvp_ladder(
        c_a, c_b,
        [k for k in (4, 16, 64, 256, 1024) if k < k_path] + [k_path],
        weights, EnergyKind.rat(), nodes, opts,
    )[k_path]

    if mode == "file":
        reference = resolve_curve(ref_spec)
    else:
        k_ref = int(ref_spec)
        ref_path = resample_path(base_path, k_ref)
        reference = transport_path(ref_path, w0, weights, EnergyKind.rat(), nodes, opts)

    out = _out_dir(args)
    writer = _CsvWriter(
        os.path.join(out, "sweep_transport.csv"), ["K", "err_W2"], _config_line(args)
    )

    def worker(k):
        moved = transport_path(
            resample_path(base_path, k), w0, weights, kind_of(k), nodes, opts
        )
        return [k, sobolev_norm(moved - reference, 2)]

    rows = _run_sweep(writer, ks, worker)
    slope = fitted_slope([r[0] for r in rows], [r[1] for r in rows])
    writer.comment(f"fitted_slope_final_half={_fmt(slope)}")
    writer.close()
    print(f"kind={desc} fitted_slope={_fmt(slope)}")
    return 0


def _require_unit_circle(curve, what):
    probe = pad(_shape_circle(), curve.order)
    if curve.order < 1 or not np.allclose(probe.coeffs, curve.coeffs, atol=1e-12):
        raise ValueError(f"{what} compares against the analytic circle oracle; "
                         "--in-a must be the unit circle")


def cmd_sweep_covderiv(args) -> int:
    c = _resolve_input(args, "in_a")
    v = _resolve_input(args, "in_v")
    w = _resolve_input(args, "in_w")
    _require_unit_circle(c, "sweep-covderiv")
    weights = parse_weights(args.weights)
    desc, kind_of = _kind_rule(args)
    nodes = _num_nodes(args, c, v, w)
    ks = _parse_k_list(args.K_list)
    opts = _solver_options(args)
    gamma = christoffel_circle(
        TrigPolynomial(v.cos_coeffs, v.sin_coeffs),
        TrigPolynomial(w.cos_coeffs, w.sin_coeffs),
        weights,
    )
    oracle = FourierCurve(gamma.cos_coeffs, gamma.sin_coeffs)

    out = _out_dir(args)
    writer = _CsvWriter(
        os.path.join(out, "sweep_covderiv.csv"), ["K", "err_W2"], _config_line(args)
    )

    def worker(k):
        tau = 1.0 / k
        quotient = cov_deriv(
            c, v, w, tau, weights, kind_of(k), nodes, opts, centered=args.centered
        )
        return [k, sobolev_norm(quotient - oracle, 2)]

    rows = _run_sweep(writer, ks, worker)
    slope = fitted_slope([r[0] for r in rows], [r[1] for r in rows])
    writer.comment(f"fitted_slope_final_half={_fmt(slope)}")
    writer.close()
    print(f"kind={desc} fitted_slope={_fmt(slope)}")
    return 0


def cmd_sweep_curvature(args) -> int:
    c = _resolve_input(args, "in_a")
    v = _resolve_input(args, "in_v")
    w = _resolve_input(args, "in_w")
    _require_unit_circle(c, "sweep-curvature")
    weights = parse_weights(args.weights)
    desc, kind = _kind_flavor(args)
    nodes = _num_nodes(args, c, v, w)
    ks = _parse_k_list(args.K_list)
    opts = _solver_options(args)
    exact = sectional_curvature_circle(
        TrigPolynomial(v.cos_coeffs, v.sin_coeffs),
        TrigPolynomial(w.cos_coeffs, w.sin_coeffs),
        weights,
    )

    out = _out_dir(args)
    writer = _CsvWriter(
        os.path.join(out, "sweep_curvature.csv"),
        ["K", "kappa", "err"],
        _config_line(args),
    )

    def worker(k):
        tau = 1.0 / k
        kappa = sectional_curvature(
            c, v, w, tau, _schedule_for(args, tau), weights, kind, nodes, opts
        )
        return [k, kappa, abs(kappa - exact)]

    rows = _run_sweep(writer, ks, worker)
    slope = fitted_slope([r[0] for r in rows], [r[2] for r in rows])
    writer.comment(f"kappa_exact={_fmt(exact)}")
    writer.comment(f"fitted_slope_final_half={_fmt(slope)}")
    writer.close()
    print(f"kind={desc} kappa_exact={_fmt(exact)} fitted_slope={_fmt(slope)}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--kind", choices=("reg", "rat"), default="rat",
                        help="energy flavor (default rat)")
    parser.add_argument("--epsilon", default=None,
                        help="regularization for --kind reg: a float, 1/K, "
                             "1/sqrt(K), or c*K^-3/2")
    parser.add_argument("--weights", default="1e-4,1,1e-2",
                        help="metric weights a0,a1,...,am")
    parser.add_argument("--m", type=int, default=None,
                        help="metric order (validated against --weights)")
    parser.add_argument("-N", type=int, default=None,
                        help="Fourier modes; inputs are truncated/padded to N")
    parser.add_argument("-M", type=int, default=None,
                        help="quadrature nodes (default 4N, must exceed 2N)")
    parser.add_argument("--tol", type=float, default=1e-8,
                        help="solver gradient tolerance (relative)")
    parser.add_argument("--max-iters", type=int, default=500)
    parser.add_argument("--out", default=".", help="output directory")


def _add_schedule(parser):
    parser.add_argument("--centered", action="store_true",
                        help="central difference quotients")
    parser.add_argument("--beta", type=float, default=None,
                        help="inner-step exponent (default 2 one-sided, 1.5 central)")
    parser.add_argument("--eps-out", default=None,
                        help="outer-quotient epsilon rule in tau, e.g. tau or tau^2")
    parser.add_argument("--eps-in", default=None,
                        help="inner-quotient epsilon rule in tau, e.g. tau^2 or tau^3")
    parser.add_argument("--curv-scale", type=float, default=1.0,
                        help="divisor C in the central schedule tau^2/C, tau^3/C")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sobcurve",
        description="Discrete Riemannian calculus on Sobolev immersed curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("geodesic", help="solve the boundary value problem")
    p.add_argument("--in-a", required=True, dest="in_a")
    p.add_argument("--in-b", required=True, dest="in_b")
    p.add_argument("-K", type=int, required=True, help="segment count")
    _add_common(p)
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("exp", help="shoot the discrete exponential")
    p.add_argument("--in-a", required=True, dest="in_a")
    p.add_argument("--in-v", required=True, dest="in_v")
    p.add_argument("-K", type=int, default=2, help="segment count (default 2)")
    _add_common(p)
    p.set_defaults(func=cmd_exp)

    p = sub.add_parser("log", help="discrete logarithm between two curves")
    p.add_argument("--in-a", required=True, dest="in_a")
    p.add_argument("--in-b", required=True, dest="in_b")
    _add_common(p)
    p.set_defaults(func=cmd_log)

    p = sub.add_parser("transport", help="parallel transport along a geodesic")
    p.add_argument("--in-a", required=True, dest="in_a")
    p.add_argument("--in-b", required=True, dest="in_b")
    p.add_argument("--in-v", required=True, dest="in_v",
                   help="vector to transport")
    p.add_argument("-K", type=int, required=True, help="rung count")
    _add_common(p)
    p.set_defaults(func=cmd_transport)

    p = sub.add_parser("covderiv", help="covariant difference quotient")
    p.add_argument("--in-a", required=True, dest="in_a")
    p.add_argument("--in-v", required=True, dest="in_v", help="direction")
    p.add_argument("--in-w", required=True, dest="in_w", help="constant field")
    p.add_argument("-K", type=int, default=64, help="tau = 1/K (default 64)")
    _add_common(p)
    _add_schedule(p)
    p.set_defaults(func=cmd_covderiv)

    p = sub.add_parser("curvature", help="discrete sectional curvature")
    p.add_argument("--in-a", required=True, dest="in_a")
    p.add_argument("--in-v", required=True, dest="in_v")
    p.add_argument("--in-w", required=True, dest="in_w")
    p.add_argument("-K", type=int, default=64, help="tau = 1/K (default 64)")
    _add_common(p)
    _add_schedule(p)
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("sweep-geodesic", help="BVP self-convergence sweep")
    p.add_argument("--in-a", required=True, dest="in_a")
    p.add_argument("--in-b", required=True, dest="in_b")
    p.add_argument("--K-list", required=True, dest="K_list")
    p.add_argument("--ref", default=None, help="self:K (default self:2048)")
    _add_common(p)
    p.set_defaults(func=cmd_sweep_geodesic)

    p = sub.add_parser("sweep-exp", help="exponential-map convergence sweep")
    p.add_argument("--in-a", required=True, dest="in_a")
    p.add_argument("--in-v", required=True, dest="in_v")
    p.add_argument("--K-list", required=True, dest="K_list")
    p.add_argument("--ref", default=None,
                   help="curve file or self:K (default self:8192)")
    _add_common(p)
    p.set_defaults(func=cmd_sweep_exp)

    p = sub.add_parser("sweep-transport", help="parallel-transport convergence sweep")
    p.add_argument("--in-a", required=True, dest="in_a")
    p.add_argument("--in-b", required=True, dest="in_b")
    p.add_argument("--in-v", required=True, dest="in_v")
    p.add_argument("--K-list", required=True, dest="K_list")
    p.add_argument("--ref", default=None,
                   help="tangent file or self:K (default self:8192)")
    _add_common(p)
    p.set_defaults(func=cmd_sweep_transport)

    p = sub.add_parser("sweep-covderiv",
                       help="covariant-derivative convergence sweep (circle oracle)")
    p.add_argument("--in-a", default="circle", dest="in_a")
    p.add_argument("--in-v", required=True, dest="in_v")
    p.add_argument("--in-w", required=True, dest="in_w")
    p.add_argument("--K-list", required=True, dest="K_list")
    _add_common(p)
    _add_schedule(p)
    p.set_defaults(func=cmd_sweep_covderiv)

    p = sub.add_parser("sweep-curvature",
                       help="sectional-curvature convergence sweep (circle oracle)")
    p.add_argument("--in-a", default="circle", dest="in_a")
    p.add_argument("--in-v", required=True, dest="in_v")
    p.add_argument("--in-w", required=True, dest="in_w")
    p.add_argument("--K-list", required=True, dest="K_list")
    _add_common(p)
    _add_schedule(p)
    p.set_defaults(func=cmd_sweep_curvature)

    return parser


def _validate(args):
    if args.m is not None:
        weights = parse_weights(args.weights)
        if weights.order != args.m:
            raise ValueError(
                f"--m {args.m} does not match the {len(weights.coefficients)} "
                "weights given"
            )
    if args.N is not None and args.N < 1:
        raise ValueError("need at least one Fourier mode")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
        return args.func(args)
    except SobcurveError as err:
        print(f"sobcurve: error[{err.code}]: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"sobcurve: error[config]: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

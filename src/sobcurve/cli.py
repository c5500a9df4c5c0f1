"""Command-line driver: curve I/O, single geodesic-calculus computations, and
convergence sweeps emitting CSV.

Each subcommand is one entry of the ``COMMANDS`` table, which names its
arguments and handler; ``main`` builds the set-up every handler shares
(inputs, weights, energy kind, node count, solver options) once.

Curve inputs (``--in-a``/``--in-b``/``--in-v``/``--in-w``) are either paths to
curve JSON files or builtin shape names (``circle[:r]``, ``ellipse[:a,b]``,
``star``, and the tangent fields ``cosx``, ``cosy``, ``mixv``, ``mixw``,
``normal5``).  Sweeps evaluate the segment counts in order and write one CSV
with a leading comment line that embeds the configuration, a header row, one
row per K flushed as soon as it is computed, and a trailing comment with the
fitted log-log slope of the last column over the final half of the K range.
Outputs carry no timestamps, so identical invocations produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from typing import Callable

import numpy as np

from .curve import FourierCurve, curve_to_dict, load_curve, min_speed, pad, truncate
from .energy import EnergyKind
from .errors import SobcurveError
from .geodesic import (
    SolverOptions,
    _default_nodes,
    bvp_ladder,
    exp_k,
    log2,
    resample_path,
    solve_bvp,
)
from .metric import MetricWeights, metric_eval, sobolev_norm
from .oracle import christoffel_circle, sectional_curvature_circle
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


def _finite_positive(value: float, what: str) -> float:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{what} must be finite and positive")
    return value


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
        c = _finite_positive(float(m.group(1)), "the factor c of c*K^-3/2")
        return lambda k: c * k**-1.5
    value = _finite_positive(float(t), "epsilon")  # float raises on anything else
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
        _finite_positive(denom, "the divisor c of tau^p/c")
        return lambda tau: tau**power / denom
    value = _finite_positive(float(t), "schedule epsilon")
    return lambda tau: value


def _kind_rule(args, scheduled):
    """(description, K -> EnergyKind) from --kind / --epsilon.  Scheduled
    (curvature) commands take their regularization from the schedule instead,
    so their smoothed kind is a placeholder replaced per quotient."""
    if scheduled:
        if args.epsilon is not None:
            raise ValueError(
                "curvature commands take --eps-out/--eps-in schedule rules, not --epsilon"
            )
        kind = EnergyKind.rat() if args.kind == "rat" else EnergyKind.reg(1.0)
        return args.kind, lambda k: kind
    if args.kind == "rat":
        if args.epsilon is not None:
            raise ValueError("--epsilon only applies to --kind reg")
        return "rat", lambda k: EnergyKind.rat()
    if args.epsilon is None:
        raise ValueError("--kind reg requires --epsilon (a value or a rule)")
    rule = parse_eps_rule(args.epsilon)
    return f"reg(eps={args.epsilon})", lambda k: EnergyKind.reg(rule(k))


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


def _num_nodes(args, *curves) -> int:
    order = args.N if args.N is not None else max(c.order for c in curves)
    if args.M is not None:
        if args.M <= 2 * order:
            raise ValueError(
                f"need M > 2N quadrature nodes (M={args.M}, N={order})"
            )
        return args.M
    return _default_nodes(order)


def _parse_k_list(text: str):
    ks = [int(p) for p in text.split(",")]
    if len(ks) < 2:
        raise ValueError("--K-list needs at least two segment counts to fit a slope")
    if any(k < 1 for k in ks):
        raise ValueError("segment counts must be at least 1")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("--K-list must be strictly increasing")
    return ks


def _parse_ref(text, default_k, ks):
    """("file", path) or ("self", K) from --ref; a self reference must be
    finer than every swept segment count in ``ks``."""
    if text is not None and not text.startswith("self:"):
        return "file", text
    k_ref = default_k if text is None else int(text[len("self:"):])
    if k_ref <= ks[-1]:
        raise ValueError("reference segment count must exceed the sweep range")
    return "self", k_ref


def _require_unit_circle(curve, what):
    probe = pad(_shape_circle(), curve.order)
    if curve.order < 1 or not np.allclose(probe.coeffs, curve.coeffs, atol=1e-12):
        raise ValueError(f"{what} compares against the analytic circle oracle; "
                         "--in-a must be the unit circle")


@dataclasses.dataclass(frozen=True)
class _Setup:
    """What every command builds from its arguments before computing."""

    curves: tuple  # resolved --in-* curves, in the command's input order
    weights: MetricWeights
    desc: str  # energy description printed by the sweeps
    kind_of: Callable[[int], EnergyKind]
    nodes: int
    opts: SolverOptions
    ks: list | None  # the sweep's --K-list


def _setup(args, command) -> _Setup:
    if args.N is not None and args.N < 1:
        raise ValueError("need at least one Fourier mode")
    if command.k is not None and args.K < 1:
        raise ValueError("-K must be at least 1")
    curves = tuple(resolve_curve(getattr(args, f"in_{x}")) for x in command.inputs)
    if args.N is not None:
        curves = tuple(pad(truncate(c, args.N), args.N) for c in curves)
    if command.oracle:
        _require_unit_circle(curves[0], command.name)
    weights = parse_weights(args.weights)
    desc, kind_of = _kind_rule(args, scheduled=command.schedule == "full")
    nodes = _num_nodes(args, *curves)
    ks = _parse_k_list(args.K_list) if command.sweep else None
    return _Setup(curves, weights, desc, kind_of, nodes,
                  SolverOptions(grad_tol=args.tol, max_iters=args.max_iters), ks)


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
        if key == "out":  # where output lands is not computation config
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

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def fitted_slope(ks, errors) -> float:
    """Observed order: minus the log-log slope over the final half of the
    K range (at least the last two entries)."""
    ks = np.asarray(ks, dtype=float)
    errors = np.maximum(np.asarray(errors, dtype=float), 1e-300)
    start = min(len(ks) // 2, len(ks) - 2)
    coeffs = np.polyfit(np.log(ks[start:]), np.log(errors[start:]), 1)
    return float(-coeffs[0])


def _out_path(args, name) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _save_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _sweep(args, s, columns, row, notes=()) -> int:
    """One CSV row ``row(K)`` per K in order, then the fitted slope of the
    last (error) column.  ``notes`` are extra ``key=value`` results, written
    as trailing comments and printed before the slope."""
    path = _out_path(args, args.command.replace("-", "_") + ".csv")
    with _CsvWriter(path, columns, _config_line(args)) as writer:
        errors = []
        for k in s.ks:
            values = row(k)
            writer.row(values)
            errors.append(values[-1])
        slope = fitted_slope(s.ks, errors)
        for note in notes:
            writer.comment(note)
        writer.comment(f"fitted_slope_final_half={_fmt(slope)}")
    print(" ".join([f"kind={s.desc}", *notes, f"fitted_slope={_fmt(slope)}"]))
    return 0


# ---------------------------------------------------------------------------
# Single computations
# ---------------------------------------------------------------------------


def cmd_geodesic(args, s) -> int:
    c_a, c_b = s.curves
    path, info = solve_bvp(
        c_a, c_b, args.K, s.weights, s.kind_of(args.K), s.nodes,
        opts=s.opts, return_info=True,
    )
    node_files = []
    for j, curve in enumerate(path):
        name = f"node_{j:04d}.json"
        _save_json(_out_path(args, name), curve_to_dict(curve))
        node_files.append(name)
    _save_json(
        _out_path(args, "manifest.json"),
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


def cmd_exp(args, s) -> int:
    c0, v = s.curves
    endpoint = exp_k(c0, v, args.K, s.weights, s.kind_of(args.K), s.nodes, s.opts)[-1]
    _save_json(_out_path(args, "exp_result.json"), curve_to_dict(endpoint))
    print(f"segments={args.K} endpoint_min_speed={_fmt(min_speed(endpoint, s.nodes))}")
    return 0


def cmd_log(args, s) -> int:
    c0, c2 = s.curves
    v = log2(c0, c2, s.weights, s.kind_of(2), s.nodes, s.opts)
    _save_json(_out_path(args, "log_result.json"), curve_to_dict(v))
    gnorm = math.sqrt(max(metric_eval(c0, v, v, s.weights, s.nodes), 0.0))
    print(f"gnorm={_fmt(gnorm)}")
    return 0


def cmd_transport(args, s) -> int:
    c_a, c_b, w0 = s.curves
    kind = s.kind_of(args.K)
    path = solve_bvp(c_a, c_b, args.K, s.weights, kind, s.nodes, opts=s.opts)
    vectors = transport_path(path, w0, s.weights, kind, s.nodes, s.opts, return_all=True)
    alphas = transport_inner_products(path, vectors, s.weights, kind, s.nodes)
    _save_json(_out_path(args, "transport_result.json"), curve_to_dict(vectors[-1]))
    path = _out_path(args, "transport_alphas.csv")
    with _CsvWriter(path, ["k", "alpha"], _config_line(args)) as writer:
        for k, alpha in enumerate(alphas):
            writer.row([k, alpha])
    drift = np.abs(np.diff(alphas)) * args.K if len(alphas) > 1 else np.zeros(1)
    print(
        f"alpha_drift_max={_fmt(drift.max())} "
        f"alpha_drift_median={_fmt(np.median(drift))}"
    )
    return 0


def cmd_covderiv(args, s) -> int:
    c, v, w = s.curves
    tau = 1.0 / args.K
    result = cov_deriv(
        c, v, w, tau, s.weights, s.kind_of(args.K), s.nodes, s.opts,
        centered=args.centered,
    )
    _save_json(_out_path(args, "covderiv_result.json"), curve_to_dict(result))
    print(f"tau={_fmt(tau)} norm_w2={_fmt(sobolev_norm(result, 2))}")
    return 0


def cmd_curvature(args, s) -> int:
    c, v, w = s.curves
    tau = 1.0 / args.K
    kappa = sectional_curvature(
        c, v, w, tau, _schedule_for(args, tau), s.weights, s.kind_of(args.K),
        s.nodes, s.opts,
    )
    _save_json(_out_path(args, "curvature_result.json"), {"tau": tau, "kappa": kappa})
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


def cmd_sweep_geodesic(args, s) -> int:
    c_a, c_b = s.curves
    mode, k_ref = _parse_ref(args.ref, 2048, s.ks)
    if mode != "self":
        raise ValueError("sweep-geodesic supports only self:K references")

    # Warm-started ladders: one for the swept kind, one rational ladder
    # continued to the reference resolution.
    paths = bvp_ladder(c_a, c_b, s.ks, s.weights, s.kind_of, s.nodes, s.opts)
    ref_path = bvp_ladder(
        c_a, c_b, sorted(set(s.ks + [k_ref])), s.weights, EnergyKind.rat(),
        s.nodes, s.opts,
    )[k_ref]

    def row(k):
        ref_k = resample_path(ref_path, k)
        return [k] + [_path_error(paths[k], ref_k, r) for r in (0, 1, 2)]

    return _sweep(args, s, ["K", "err_L2", "err_W1", "err_W2"], row)


def cmd_sweep_exp(args, s) -> int:
    c0, v = s.curves
    mode, ref_spec = _parse_ref(args.ref, 8192, s.ks)
    if mode == "file":
        reference = resolve_curve(ref_spec)
    else:
        reference = exp_k(
            c0, v, ref_spec, s.weights, EnergyKind.rat(), s.nodes, s.opts
        )[-1]

    def row(k):
        endpoint = exp_k(c0, v, k, s.weights, s.kind_of(k), s.nodes, s.opts)[-1]
        return [k, sobolev_norm(endpoint - reference, 2)]

    return _sweep(args, s, ["K", "err_W2"], row)


def cmd_sweep_transport(args, s) -> int:
    c_a, c_b, w0 = s.curves
    mode, ref_spec = _parse_ref(args.ref, 8192, s.ks)

    # One fixed rational geodesic supplies the transport path at every K;
    # rung counts are varied by resampling it in time.
    k_path = max(s.ks[-1], min(ref_spec if mode == "self" else 1024, 1024))
    base_path = bvp_ladder(
        c_a, c_b,
        [k for k in (4, 16, 64, 256, 1024) if k < k_path] + [k_path],
        s.weights, EnergyKind.rat(), s.nodes, s.opts,
    )[k_path]

    if mode == "file":
        reference = resolve_curve(ref_spec)
    else:
        reference = transport_path(
            resample_path(base_path, ref_spec), w0, s.weights, EnergyKind.rat(),
            s.nodes, s.opts,
        )

    def row(k):
        moved = transport_path(
            resample_path(base_path, k), w0, s.weights, s.kind_of(k), s.nodes, s.opts
        )
        return [k, sobolev_norm(moved - reference, 2)]

    return _sweep(args, s, ["K", "err_W2"], row)


def cmd_sweep_covderiv(args, s) -> int:
    c, v, w = s.curves
    oracle = christoffel_circle(v, w, s.weights)

    def row(k):
        quotient = cov_deriv(
            c, v, w, 1.0 / k, s.weights, s.kind_of(k), s.nodes, s.opts,
            centered=args.centered,
        )
        return [k, sobolev_norm(quotient - oracle, 2)]

    return _sweep(args, s, ["K", "err_W2"], row)


def cmd_sweep_curvature(args, s) -> int:
    c, v, w = s.curves
    exact = sectional_curvature_circle(v, w, s.weights)

    def row(k):
        tau = 1.0 / k
        kappa = sectional_curvature(
            c, v, w, tau, _schedule_for(args, tau), s.weights, s.kind_of(k),
            s.nodes, s.opts,
        )
        return [k, kappa, abs(kappa - exact)]

    return _sweep(args, s, ["K", "kappa", "err"], row,
                  notes=[f"kappa_exact={_fmt(exact)}"])


# ---------------------------------------------------------------------------
# Command table and argument parsing
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Command:
    """One subcommand: its arguments and the handler that runs it."""

    name: str
    help: str
    handler: Callable[[argparse.Namespace, _Setup], int]
    inputs: str  # letters of the --in-* curves, in handler order
    k: dict | None = None  # argparse keywords for -K
    sweep: bool = False  # takes --K-list
    ref: str | None = None  # help for --ref, when the sweep takes one
    schedule: str = ""  # "centered": --centered only; "full": all schedule flags
    oracle: bool = False  # --in-a defaults to, and must be, the unit circle


COMMANDS = (
    Command("geodesic", "solve the boundary value problem", cmd_geodesic, "ab",
            k={"required": True, "help": "segment count"}),
    Command("exp", "shoot the discrete exponential", cmd_exp, "av",
            k={"default": 2, "help": "segment count (default 2)"}),
    Command("log", "discrete logarithm between two curves", cmd_log, "ab"),
    Command("transport", "parallel transport along a geodesic", cmd_transport, "abv",
            k={"required": True, "help": "rung count"}),
    Command("covderiv", "covariant difference quotient", cmd_covderiv, "avw",
            k={"default": 64, "help": "tau = 1/K (default 64)"}, schedule="centered"),
    Command("curvature", "discrete sectional curvature", cmd_curvature, "avw",
            k={"default": 64, "help": "tau = 1/K (default 64)"}, schedule="full"),
    Command("sweep-geodesic", "BVP self-convergence sweep", cmd_sweep_geodesic,
            "ab", sweep=True, ref="self:K (default self:2048)"),
    Command("sweep-exp", "exponential-map convergence sweep", cmd_sweep_exp,
            "av", sweep=True, ref="curve file or self:K (default self:8192)"),
    Command("sweep-transport", "parallel-transport convergence sweep",
            cmd_sweep_transport, "abv", sweep=True,
            ref="tangent file or self:K (default self:8192)"),
    Command("sweep-covderiv", "covariant-derivative convergence sweep (circle oracle)",
            cmd_sweep_covderiv, "avw", sweep=True, schedule="centered", oracle=True),
    Command("sweep-curvature", "sectional-curvature convergence sweep (circle oracle)",
            cmd_sweep_curvature, "avw", sweep=True, schedule="full", oracle=True),
)
_BY_NAME = {command.name: command for command in COMMANDS}

_INPUT_HELP = {
    "a": "base curve (the oracle sweeps take the unit circle, their default)",
    "b": "end curve",
    "v": "tangent field: initial velocity, transported vector or direction",
    "w": "second tangent field (held constant by the quotients)",
}


def _add_common(parser):
    parser.add_argument("--kind", choices=("reg", "rat"), default="rat",
                        help="energy flavor (default rat)")
    parser.add_argument("--epsilon", default=None,
                        help="regularization for --kind reg: a float, 1/K, "
                             "1/sqrt(K), or c*K^-3/2")
    parser.add_argument("--weights", default="1e-4,1,1e-2",
                        help="metric weights a0,a1,...,am")
    parser.add_argument("-N", type=int, default=None,
                        help="Fourier modes; inputs are truncated/padded to N")
    parser.add_argument("-M", type=int, default=None,
                        help="quadrature nodes (default 4N, must exceed 2N)")
    parser.add_argument("--tol", type=float, default=1e-8,
                        help="solver gradient tolerance (relative)")
    parser.add_argument("--max-iters", type=int, default=500)
    parser.add_argument("--out", default=".", help="output directory")


def _add_schedule(parser, schedule):
    parser.add_argument("--centered", action="store_true",
                        help="central difference quotients")
    if schedule != "full":
        return
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
    for command in COMMANDS:
        # no prefix matching, so a removed flag (--m) cannot read as --max-iters
        p = sub.add_parser(command.name, help=command.help, allow_abbrev=False)
        for x in command.inputs:
            circle = x == "a" and command.oracle
            p.add_argument(f"--in-{x}", dest=f"in_{x}", required=not circle,
                           default="circle" if circle else None, help=_INPUT_HELP[x])
        if command.k is not None:
            p.add_argument("-K", type=int, **command.k)
        if command.sweep:
            p.add_argument("--K-list", required=True, dest="K_list",
                           help="two or more strictly increasing segment counts, e.g. 4,8,16")
        if command.ref is not None:
            p.add_argument("--ref", default=None, help=command.ref)
        _add_common(p)
        if command.schedule:
            _add_schedule(p, command.schedule)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = _BY_NAME[args.command]
    try:
        return command.handler(args, _setup(args, command))
    except SobcurveError as err:
        print(f"sobcurve: error[{err.code}]: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"sobcurve: error[config]: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

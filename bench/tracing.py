"""Outside-in tracing: spans around the calls into each ``sobcurve`` layer.

Nothing inside the package changes.  ``Tracer.install`` rebinds public
functions in the module namespaces where they are called (for example
``sobcurve.geodesic.w_grad`` and ``sobcurve.transport.el_step``) to wrappers
that record one span per call: id, parent id, name, start, end and an
optional number.  ``Tracer.round`` installs the wrappers for one timed
round and restores every original binding after it.  Spans are kept in
memory and written out when the run ends.  ``layer_metrics`` derives the
per-layer metrics from the spans of a number of traced rounds, and
``energy_probes`` times single energy calls on a workload's first segment.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict

from sobcurve import cli, curve, energy, geodesic, metric, transport


def _kind_of(args, kwargs):
    return kwargs["kind"] if "kind" in kwargs else args[3]


def _nodes_of(args, kwargs):
    return kwargs["num_nodes"] if "num_nodes" in kwargs else args[4]


def _grad(args, kwargs):
    tag = "rat" if _kind_of(args, kwargs).is_rat else "reg"
    return f"energy.grad_{tag}", _nodes_of(args, kwargs)


def _value(args, kwargs):
    tag = "rat" if _kind_of(args, kwargs).is_rat else "reg"
    return f"energy.value_{tag}", _nodes_of(args, kwargs)


def _fixed(name):
    return lambda args, kwargs: (name, 0)


# (module, attribute, span name from the call's arguments)
SITES = [
    (energy, "sample_jet", _fixed("curve.sample_jet")),
    (metric, "sample_jet", _fixed("curve.sample_jet")),
    (curve, "sample_jet", _fixed("curve.sample_jet")),  # inside min_speed
    (geodesic, "min_speed", _fixed("curve.min_speed")),
    (cli, "min_speed", _fixed("curve.min_speed")),
    (geodesic, "w_eval", _value),
    (geodesic, "w_grad", _grad),
    (geodesic, "w_value_and_grad", _grad),
    (geodesic, "hessian_scalar_at_diagonal", _fixed("energy.hessian_diag")),
    (transport, "hessian_at_diagonal", _fixed("energy.hessian_diag")),
    (transport, "metric_eval", _fixed("metric.metric_eval")),
    (cli, "metric_eval", _fixed("metric.metric_eval")),
    (geodesic, "el_step", _fixed("geodesic.el_step")),
    (transport, "el_step", _fixed("geodesic.el_step")),
    (geodesic, "el_midpoint", _fixed("geodesic.el_midpoint")),
    (transport, "el_midpoint", _fixed("geodesic.el_midpoint")),
    (geodesic, "resample_path", _fixed("geodesic.resample_path")),
    (cli, "resample_path", _fixed("geodesic.resample_path")),
    (transport, "schild_step", _fixed("transport.schild_step")),
    (transport, "inverse_transport", _fixed("transport.inverse_transport")),
    (transport, "cov_deriv", _fixed("transport.cov_deriv")),
    (cli, "sectional_curvature", _fixed("transport.sectional_curvature")),
]
SOLVE_BVP_SITES = [(geodesic, "solve_bvp"), (cli, "solve_bvp")]

ROUND = "bench.round"
SETUP = "bench.setup"
PROBE_REPEATS = 40


class Tracer:
    """Span recorder; spans are tuples (id, parent, name, start, end, number).

    Each thread keeps its own stack of open spans, so spans opened in the
    command line's sweep workers have no parent (id 0).
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def _open(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        sid = next(self._ids)
        parent = stack[-1]
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, opened, name, number):
        end = time.perf_counter()
        self._local.stack.pop()
        sid, parent, start = opened
        self.spans.append((sid, parent, name, start, end, number))

    def _wrap(self, fn, name_of):
        def traced(*args, **kwargs):
            name, number = name_of(args, kwargs)
            opened = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(opened, name, number)

        return traced

    def _wrap_solve_bvp(self, fn):
        # asks for the solver's info to record iterations; returns what the
        # caller asked for
        def traced(*args, return_info=False, **kwargs):
            opened = self._open()
            iters = 0
            try:
                path, info = fn(*args, return_info=True, **kwargs)
                iters = info["iterations"]
            finally:
                self._close(opened, "geodesic.solve_bvp", iters)
            return (path, info) if return_info else path

        return traced

    def install(self):
        for module, attr, name_of in SITES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name_of))
        for module, attr in SOLVE_BVP_SITES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap_solve_bvp(original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def round(self, name=ROUND):
        """Trace one timed round (or the set-up): wrappers installed, root
        span open.  Checks run outside, so their solver calls are not counted.
        """
        self.install()
        opened = self._open()
        try:
            yield
        finally:
            self._close(opened, name, 0)
            self.uninstall()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "number"],
                       "spans": self.spans}, fh)
            fh.write("\n")


#: (name, unit, better) of every per-layer metric, in output order.
PER_LAYER = [
    ("curve.sample_jet.calls", "count", "lower"),
    ("curve.sample_jet.time_s", "s", "lower"),
    ("curve.min_speed.calls", "count", "lower"),
    ("energy.grad_rat.calls", "count", "lower"),
    ("energy.grad_rat.time_s", "s", "lower"),
    ("energy.grad_rat.us_per_node", "us", "lower"),
    ("energy.grad_reg.calls", "count", "lower"),
    ("energy.grad_reg.time_s", "s", "lower"),
    ("energy.grad_reg.us_per_node", "us", "lower"),
    ("energy.value_rat.calls", "count", "lower"),
    ("energy.value_rat.time_s", "s", "lower"),
    ("energy.value_reg.calls", "count", "lower"),
    ("energy.value_reg.time_s", "s", "lower"),
    ("energy.hessian_diag.calls", "count", "lower"),
    ("energy.hessian_diag.time_s", "s", "lower"),
    ("energy.probe.value_rat_ms", "ms", "lower"),
    ("energy.probe.grad_rat_ms", "ms", "lower"),
    ("energy.probe.value_reg_ms", "ms", "lower"),
    ("energy.probe.grad_reg_ms", "ms", "lower"),
    ("metric.metric_eval.calls", "count", "lower"),
    ("metric.metric_eval.time_s", "s", "lower"),
    ("geodesic.el_step.calls", "count", "lower"),
    ("geodesic.el_step.time_s", "s", "lower"),
    ("geodesic.el_step.self_s", "s", "lower"),
    ("geodesic.el_midpoint.calls", "count", "lower"),
    ("geodesic.el_midpoint.time_s", "s", "lower"),
    ("geodesic.el_midpoint.self_s", "s", "lower"),
    ("geodesic.grads_per_el_step", "ratio", "lower"),
    ("geodesic.grads_per_el_midpoint", "ratio", "lower"),
    ("geodesic.solve_bvp.calls", "count", "lower"),
    ("geodesic.solve_bvp.time_s", "s", "lower"),
    ("geodesic.solve_bvp.iters", "count", "lower"),
    ("geodesic.values_per_bvp_iter", "ratio", "lower"),
    ("geodesic.grads_per_bvp_iter", "ratio", "lower"),
    ("geodesic.resample_path.time_s", "s", "lower"),
    ("transport.schild_step.calls", "count", "lower"),
    ("transport.schild_step.time_s", "s", "lower"),
    ("transport.schild_step.self_s", "s", "lower"),
    ("transport.inverse_transport.calls", "count", "lower"),
    ("transport.inverse_transport.time_s", "s", "lower"),
    ("transport.cov_deriv.calls", "count", "lower"),
    ("transport.cov_deriv.time_s", "s", "lower"),
    ("transport.sectional_curvature.calls", "count", "lower"),
    ("transport.sectional_curvature.time_s", "s", "lower"),
    ("cli.sweep_rows", "count", "higher"),
    ("cli.overlap", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    # the traced run's own set-up: the solves behind setup_s on transport
    ("setup.curve.min_speed.calls", "count", "lower"),
    ("setup.geodesic.solve_bvp.calls", "count", "lower"),
    ("setup.geodesic.solve_bvp.time_s", "s", "lower"),
    ("setup.geodesic.solve_bvp.iters", "count", "lower"),
]


def energy_probes(segment):
    """Median time of one energy value and one value+grad call, for both
    kinds, on a workload's first segment, in ms."""
    kinds = {"rat": energy.EnergyKind.rat(), "reg": energy.EnergyKind.reg(segment.epsilon)}
    calls = {"value": energy.w_eval, "grad": energy.w_value_and_grad}
    out = {}
    for tag, kind in kinds.items():
        for what, fn in calls.items():
            times = []
            for _ in range(PROBE_REPEATS):
                t0 = time.perf_counter()
                fn(segment.c_hat, segment.c_check, segment.weights, kind, segment.num_nodes)
                times.append(time.perf_counter() - t0)
            out[f"energy.probe.{what}_{tag}_ms"] = 1e3 * statistics.median(times)
    return out


_EL = ("geodesic.el_step", "geodesic.el_midpoint")
_BVP = "geodesic.solve_bvp"
_SECTIONAL = "transport.sectional_curvature"
_GRADS = ("energy.grad_rat", "energy.grad_reg")
_VALUES = ("energy.value_rat", "energy.value_reg")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, rounds, probes, overhead_s):
    """Per-round layer metrics from the spans of ``rounds`` traced rounds.

    ``probes`` holds the four ``energy.probe.*`` timings; counts and times
    are per round, ratios are taken over all rounds.  ``setup.*`` metrics
    come from ``setup_metrics``.
    """
    parent_of = {s[0]: s[1] for s in spans}
    name_of = {s[0]: s[2] for s in spans}
    calls, number = Counter(), Counter()
    busy, child, own = defaultdict(float), defaultdict(float), defaultdict(float)
    for sid, parent, name, start, end, num in spans:
        calls[name] += 1
        busy[name] += end - start
        child[parent] += end - start
        number[name] += num
    for sid, parent, name, start, end, num in spans:
        own[name] += (end - start) - child[sid]

    def enclosing(sid, names):
        while sid:
            sid = parent_of.get(sid, 0)
            if name_of.get(sid) in names:
                return name_of[sid]
        return None

    owned = Counter()  # (energy call kind, enclosing solver) -> count
    for sid, parent, name, *_ in spans:
        kind = "grad" if name in _GRADS else "value" if name in _VALUES else None
        if kind is not None:
            owned[kind, enclosing(sid, _EL)] += 1
            owned[kind, enclosing(sid, (_BVP,))] += 1

    def per_round(table, name):
        return table[name] / rounds

    out = {}
    for name, _, _ in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if layer.startswith("setup."):
            continue
        if stat == "calls":
            out[name] = per_round(calls, layer)
        elif stat == "time_s":
            out[name] = per_round(busy, layer)
        elif stat == "self_s":
            out[name] = per_round(own, layer)
        elif stat == "us_per_node":
            out[name] = 1e6 * _ratio(busy[layer], number[layer])
    bvp_iters = number[_BVP]
    out.update({
        "geodesic.grads_per_el_step": _ratio(owned["grad", _EL[0]], calls[_EL[0]]),
        "geodesic.grads_per_el_midpoint": _ratio(owned["grad", _EL[1]], calls[_EL[1]]),
        "geodesic.solve_bvp.iters": bvp_iters / rounds,
        "geodesic.values_per_bvp_iter": _ratio(owned["value", _BVP], bvp_iters),
        "geodesic.grads_per_bvp_iter": _ratio(owned["grad", _BVP], bvp_iters),
        "cli.sweep_rows": per_round(calls, _SECTIONAL),
        "cli.overlap": _ratio(busy[_SECTIONAL], busy[ROUND]),
        "trace.overhead_s": overhead_s,
        "trace.spans": len(spans) / rounds,
    })
    out.update(probes)
    return out


def setup_metrics(spans):
    """The ``setup.*`` metrics from the spans of one traced set-up."""
    values = layer_metrics(spans, 1, {}, 0.0)
    return {name: values[name[len("setup."):]]
            for name, _, _ in PER_LAYER if name.startswith("setup.")}

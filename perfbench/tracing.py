"""Per-layer tracing for the benchmark's traced runs.

Wraps the public functions (and public methods of classes) of the core,
macro, micro, particle, uq, scenario and output modules with a timer. Each
wrapper is installed at every module attribute that holds the original, so
calls through imported names (uq calling its own `advance_positions`, cli
calling its own `particle_init`) are caught too. Spans stay in memory and
are written out when the job ends. Nothing is added to the package itself.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

MODULES = ("core", "macro", "micro", "particle", "uq", "scenario", "output")
CLOSURES = ("core.speed_V", "core.headway_H", "core.pressure")


# Work counted per call, for throughputs: a function of the call's first
# argument (the state it advances), keyed by span name.
WORK = {
    "macro.lf_step_conservative": lambda rho: rho.size,
    "macro.lf_step_second_order": lambda rho: rho.size,
    "micro.advance_positions": lambda pos: pos.size,
    "particle.particle_step": lambda ens: ens.n,
    "uq.pce_macro_step": lambda modes: modes.rho_hat.size,
    "uq.pce_micro_step": lambda modes: modes.x_hat.size,
}
# Sample rows advanced per call.
ROWS = {"macro.lf_step_conservative":
        lambda rho: rho.shape[0] if rho.ndim == 2 else 1}


class Tracer:
    """Records one span per wrapped call: name, parent span, start, end,
    self time and work counts."""

    def __init__(self):
        self.spans = []   # [name, parent, t0, t1, self_s, work, rows]
        self._stack = []  # [span index, time in wrapped callees so far]

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        work_fn, rows_fn = WORK.get(name), ROWS.get(name)
        is_write = name.startswith("output.write_")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append([idx, 0.0])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                _, child = stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans[idx] = [name, parent, t0, t1, t1 - t0 - child, 0, 0]
            if work_fn is not None:
                spans[idx][5] = work_fn(args[0])
            if rows_fn is not None:
                spans[idx][6] = rows_fn(args[0])
            if is_write:
                spans[idx][5] = os.path.getsize(args[0])
            return result

        return wrapper

    def install(self):
        """Replace every public function of the traced modules wherever a
        trafficflow module holds it."""
        import trafficflow.cli  # noqa: F401  (loads every module it uses)

        loaded = [m for n, m in sys.modules.items()
                  if n == "trafficflow" or n.startswith("trafficflow.")]
        for short in MODULES:
            mod = sys.modules[f"trafficflow.{short}"]
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_")
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{short}.{name}", obj)
                    for holder in loaded:
                        for attr, val in list(vars(holder).items()):
                            if val is obj:
                                setattr(holder, attr, wrapped)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self._wrap(
                                f"{short}.{name}.{meth}", fn))

    def per_layer(self) -> dict:
        """Self time, inclusive time, calls, work and rows, summed per
        span name."""
        agg = {}
        for name, _, t0, t1, self_s, work, rows in self.spans:
            a = agg.setdefault(name, {"s": 0.0, "incl_s": 0.0, "calls": 0,
                                      "work": 0, "rows": 0})
            a["s"] += self_s
            a["incl_s"] += t1 - t0
            a["calls"] += 1
            a["work"] += work
            a["rows"] += rows
        return agg

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "parent", "t0", "t1", "self_s",
                                  "work", "rows"],
                       "spans": self.spans}, f)


def _get(agg, name, key):
    return agg.get(name, {}).get(key, 0)


def _rate(agg, name):
    incl = _get(agg, name, "incl_s")
    return _get(agg, name, "work") / incl if incl > 0 else 0.0


def layer_metrics(agg: dict) -> dict:
    """The per-layer metrics listed in BENCHMARK.json, from per_layer().

    `.s` is self time; throughputs divide work by the inclusive time of the
    call, so they read as whole-step rates.
    """
    writes = [n for n in agg if n.startswith("output.write_")]
    lf_c, lf_2 = "macro.lf_step_conservative", "macro.lf_step_second_order"
    return {
        f"{lf_c}.s": _get(agg, lf_c, "s"),
        f"{lf_c}.cell_updates_per_s": _rate(agg, lf_c),
        f"{lf_c}.rows": _get(agg, lf_c, "rows"),
        f"{lf_2}.s": _get(agg, lf_2, "s"),
        f"{lf_2}.cell_updates_per_s": _rate(agg, lf_2),
        "micro.advance_positions.s":
            _get(agg, "micro.advance_positions", "s"),
        "micro.advance_positions.vehicle_steps_per_s":
            _rate(agg, "micro.advance_positions"),
        "micro.sample_density.s": _get(agg, "micro.sample_density", "s"),
        "micro.sample_density.calls": _get(agg, "micro.sample_density",
                                           "calls"),
        "micro.micro_init_from_density.s":
            _get(agg, "micro.micro_init_from_density", "s"),
        "particle.particle_init.s": _get(agg, "particle.particle_init", "s"),
        "particle.particle_step.s": _get(agg, "particle.particle_step", "s"),
        "particle.particle_step.particle_steps_per_s":
            _rate(agg, "particle.particle_step"),
        "particle.bin_to_fields.s": _get(agg, "particle.bin_to_fields", "s"),
        "core.Grid1D.wrap.s": _get(agg, "core.Grid1D.wrap", "s"),
        "core.Grid1D.wrap.calls": _get(agg, "core.Grid1D.wrap", "calls"),
        "core.capacity_eval.s": _get(agg, "core.capacity_eval", "s"),
        "core.capacity_eval.calls": _get(agg, "core.capacity_eval", "calls"),
        "core.closures.s": sum(_get(agg, n, "s") for n in CLOSURES),
        "core.closures.calls": sum(_get(agg, n, "calls") for n in CLOSURES),
        "uq.monte_carlo.s": _get(agg, "uq.monte_carlo", "s"),
        "uq.pce_macro_step.s": _get(agg, "uq.pce_macro_step", "s"),
        "uq.pce_macro_step.cell_mode_steps_per_s":
            _rate(agg, "uq.pce_macro_step"),
        "uq.pce_micro_step.s": _get(agg, "uq.pce_micro_step", "s"),
        "uq.pce_micro_step.vehicle_mode_steps_per_s":
            _rate(agg, "uq.pce_micro_step"),
        "uq.expectation_from_micro_modes.s":
            _get(agg, "uq.expectation_from_micro_modes", "s"),
        "scenario.load_scenario.s": _get(agg, "scenario.load_scenario", "s"),
        "output.write.s": sum(_get(agg, n, "s") for n in writes),
        "output.bytes": sum(_get(agg, n, "work") for n in writes),
    }


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(".s"):
        return "s"
    return "bytes" if name == "output.bytes" else "count"


UNITS = {k: _unit(k) for k in layer_metrics({})}

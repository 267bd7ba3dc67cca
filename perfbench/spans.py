"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps public functions and methods of ``repro`` from outside:
nothing under ``src/`` changes.  Every call of a wrapped function records
one span (name, op id, parent span, start, end) into flat in-memory
arrays; :meth:`Tracer.save` writes them out as ``.npz`` when the run
ends, and :func:`layer_metrics` turns them into per-layer figures.

Self time comes from the span tree: a span's duration minus the time its
direct child spans cover.  Inclusive time (``.s``) sums only spans with
no ancestor of the same name, so nested runs (``Simulation.run`` →
``default_calibration`` → ``calibrate`` → excitation ``Simulation.run``)
are not counted twice.  A span whose direct parent has the same name is
a ``super()`` continuation of one logical call and does not count as a
call of its own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array

import numpy as np

__all__ = ["Tracer", "install", "layer_metrics", "load_spans", "EXPERIMENT_MODULES"]

#: Flag bits stored per span.
_OUTER = 1          # no ancestor span has the same name
_CONTINUATION = 2   # the direct parent span has the same name

#: (module, attribute path, span name).  Methods are wrapped on the class
#: that defines them; module functions are also replaced wherever another
#: loaded ``repro`` module imported them by name.
TARGETS = (
    ("repro.workloads.benchmark", "BenchmarkInstance.advance_block", "workloads.advance_block"),
    ("repro.cmpsim.chip", "Chip.compute_interval", "cmpsim.chip.compute_interval"),
    ("repro.power.model", "CorePowerModel.power", "power.power"),
    ("repro.thermal.rc_model", "RCThermalModel.step", "thermal.step"),
    ("repro.core.cpm", "CPMScheme.on_pic", "pic.on_pic"),
    ("repro.resilience.scheme", "GuardedCPMScheme.on_pic", "pic.on_pic"),
    ("repro.pic.controller", "PerIslandController.invoke", "pic.invoke"),
    ("repro.pic.guard", "GuardedPerIslandController.invoke", "resilience.guarded_invoke"),
    ("repro.core.cpm", "CPMScheme.on_gpm", "gpm.on_gpm"),
    ("repro.resilience.scheme", "GuardedCPMScheme.on_gpm", "gpm.on_gpm"),
    ("repro.gpm.manager", "GlobalPowerManager.provision", "gpm.provision"),
    ("repro.baselines.maxbips", "MaxBIPSScheme.on_gpm", "baselines.maxbips.on_gpm"),
    ("repro.cmpsim.telemetry", "Telemetry.record", "cmpsim.telemetry.record"),
    ("repro.cmpsim.telemetry", "Telemetry.finalize", "cmpsim.telemetry.finalize"),
    ("repro.cmpsim.simulator", "Simulation.run", "cmpsim.simulator.run"),
    ("repro.core.calibration", "calibrate", "core.calibration.calibrate"),
    ("repro.core.calibration", "default_calibration", "core.calibration.default_calibration"),
    ("repro.runner", "run_many", "runner.run_many"),
    ("repro.runner", "run_one", "runner.run_one"),
    ("repro.runner", "cache_key", "runner.cache_key"),
    ("repro.experiments.common", "reference_run", "experiments.reference_run"),
)

#: Every module of ``repro.experiments.ALL_EXPERIMENTS``, in paper order.
EXPERIMENT_MODULES = (
    "fig04_controller_design",
    "fig05_model_validation",
    "fig06_power_utilization",
    "fig07_provisioning",
    "fig08_island_tracking",
    "fig09_pic_tracking",
    "fig10_chip_tracking",
    "fig11_budget_curves",
    "fig12_perf_degradation",
    "fig13_island_size",
    "fig14_perf_time",
    "fig15_scalability",
    "fig16_mix_sensitivity",
    "fig17_interval_sensitivity",
    "fig18_thermal",
    "fig19_variation",
    "tables",
    "chaos",
)


class Tracer:
    """Span store plus the wrapper factory that feeds it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.op = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.flags = array("B")
        self.counters: dict[tuple[str, int], float] = {}
        #: Op id stamped on new spans; -1 outside timed ops.
        self.op_id = -1
        self._stack: list[int] = []
        self._depth: dict[int, int] = {}
        self._active = True
        # A forked worker inherits the wrappers but its spans would die
        # with it; it calls straight through instead.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self._active = False

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, n: float = 1) -> None:
        key = (name, self.op_id)
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, fn, name: str, pre=None):
        """Return ``fn`` wrapped so that every call records a span.

        ``pre(bound_arguments)`` may count or normalise the arguments
        before the call; it is only used on rarely called functions.
        """
        nid = self.name_index(name)
        signature = inspect.signature(fn) if pre is not None else None
        clock = time.perf_counter
        stack, depth = self._stack, self._depth
        names, ops, parents = self.name_id, self.op, self.parent
        starts, ends, flags = self.t0, self.t1, self.flags

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            if pre is not None:
                bound = signature.bind(*args, **kwargs)
                pre(self, bound)
                args, kwargs = bound.args, bound.kwargs
            parent = stack[-1] if stack else -1
            flag = 0 if depth.get(nid) else _OUTER
            if parent >= 0 and names[parent] == nid:
                flag |= _CONTINUATION
            index = len(names)
            names.append(nid)
            ops.append(self.op_id)
            parents.append(parent)
            flags.append(flag)
            ends.append(0.0)
            stack.append(index)
            depth[nid] = depth.get(nid, 0) + 1
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                depth[nid] -= 1
                stack.pop()

        return traced

    def arrays(self) -> dict:
        counter_names = sorted({name for name, _ in self.counters})
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "t0": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self.t1, dtype=np.float64).copy(),
            "flags": np.frombuffer(self.flags, dtype=np.uint8).copy(),
            "counter_names": np.array(counter_names, dtype=str),
            "counter_rows": np.array(
                [
                    (counter_names.index(name), op, value)
                    for (name, op), value in sorted(self.counters.items())
                ],
                dtype=np.float64,
            ).reshape(-1, 3),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


def _count_run_many(tracer: Tracer, bound) -> None:
    requests = list(bound.arguments["requests"])
    bound.arguments["requests"] = requests
    tracer.count("runner.requests", len(requests))
    if bound.arguments.get("cache_dir") is not None:
        tracer.count("runner.cached_requests", len(requests))


def _count_run_one(tracer: Tracer, bound) -> None:
    tracer.count("runner.requests", 1)
    if bound.arguments.get("cache_dir") is not None:
        tracer.count("runner.cached_requests", 1)


_PRE = {"runner.run_many": _count_run_many, "runner.run_one": _count_run_one}


def _rebind_everywhere(original, replacement) -> None:
    """Replace ``original`` in every loaded ``repro`` module namespace."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = getattr(module, "__dict__", {})
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer, experiments: bool = False) -> None:
    """Wrap every target.  With ``experiments``, also every experiment
    module's ``run`` (importing them first so later imports see the
    wrappers)."""
    targets = list(TARGETS)
    if experiments:
        targets += [
            (f"repro.experiments.{name}", "run", f"experiments.{name}")
            for name in EXPERIMENT_MODULES
        ]
    for module_name, path, span_name in targets:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, tracer.wrap(original, span_name, _PRE.get(span_name)))
        else:
            original = getattr(module, path)
            wrapped = tracer.wrap(original, span_name, _PRE.get(span_name))
            _rebind_everywhere(original, wrapped)


def load_spans(paths) -> dict:
    """Merge span files (one per process) into one set of arrays."""
    names: list[str] = []
    parts = {key: [] for key in ("name_id", "op", "parent", "t0", "t1", "flags")}
    counter_rows = []
    offset = 0
    for path in paths:
        with np.load(path) as data:
            local = [str(n) for n in data["names"]]
            for n in local:
                if n not in names:
                    names.append(n)
            remap = np.array([names.index(n) for n in local] or [0], dtype=np.int64)
            parts["name_id"].append(remap[data["name_id"].astype(np.int64)])
            parent = data["parent"].astype(np.int64)
            parts["parent"].append(np.where(parent >= 0, parent + offset, -1))
            for key in ("op", "t0", "t1", "flags"):
                parts[key].append(data[key])
            for index, op, value in data["counter_rows"]:
                name = str(data["counter_names"][int(index)])
                counter_rows.append((name, int(op), float(value)))
            offset += len(parent)
    merged = {
        key: (np.concatenate(chunks) if chunks else np.zeros(0))
        for key, chunks in parts.items()
    }
    merged["names"] = names
    merged["counters"] = counter_rows
    return merged


def layer_metrics(spans: dict, ops) -> dict:
    """Per-span-name figures over spans belonging to ``ops``.

    Returns ``{name: {"calls", "s", "self_s"}}`` plus counter totals under
    ``"counters"`` and the number of calibrations that missed the
    ``default_calibration`` memo under ``"calibration_misses"``.
    """
    ops = set(int(o) for o in ops)
    n = len(spans["op"])
    name_id = spans["name_id"].astype(np.int64)
    parent = spans["parent"].astype(np.int64)
    flags = spans["flags"].astype(np.int64)
    duration = spans["t1"] - spans["t0"]
    has_parent = parent >= 0
    child_time = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=n
    ) if n else np.zeros(0)
    self_time = duration - child_time
    in_ops = np.isin(spans["op"], list(ops)) if n else np.zeros(0, dtype=bool)

    out: dict = {}
    for index, name in enumerate(spans["names"]):
        mask = in_ops & (name_id == index)
        out[name] = {
            "calls": int(np.count_nonzero(mask & ((flags & _CONTINUATION) == 0))),
            "s": float(duration[mask & ((flags & _OUTER) != 0)].sum()),
            "self_s": float(self_time[mask].sum()),
        }

    # A calibrate() span under a default_calibration() span is a memo miss.
    names = list(spans["names"])
    misses = 0
    if "core.calibration.calibrate" in names and "core.calibration.default_calibration" in names:
        calibrate_id = names.index("core.calibration.calibrate")
        request_id = names.index("core.calibration.default_calibration")
        for index in np.flatnonzero(in_ops & (name_id == calibrate_id)):
            ancestor = parent[index]
            while ancestor >= 0:
                if name_id[ancestor] == request_id:
                    misses += 1
                    break
                ancestor = parent[ancestor]
    out["calibration_misses"] = misses

    counters: dict[str, float] = {}
    for name, op, value in spans["counters"]:
        if op in ops:
            counters[name] = counters.get(name, 0.0) + value
    out["counters"] = counters
    return out

"""Benchmark of the CPM reproduction: closed-loop simulator throughput,
the cold paper suite, and incremental cached sweeps.

Usage::

    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 25 --trace 0

``--trace 0`` times untraced ops and prints the end-to-end metrics;
``--trace 1`` adds a fixed set of traced ops and prints the per-layer
metrics.  Every metric is printed as ``name value unit``; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A results file with the host record lands
in ``perfbench/_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time

import harness
import loads
import spans
from harness import BENCH_DIR, OUT_DIR, WORK_ROOT, Checker, clock

#: (name, unit) of the end-to-end metrics in the JSON line of ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: (metric, span name, field) read from the span tree, per traced op.
SPAN_METRICS = (
    ("workloads.advance_block.calls", "workloads.advance_block", "calls"),
    ("workloads.advance_block.s", "workloads.advance_block", "s"),
    ("cmpsim.chip.compute_interval.calls", "cmpsim.chip.compute_interval", "calls"),
    ("cmpsim.chip.compute_interval.self_s", "cmpsim.chip.compute_interval", "self_s"),
    ("power.power.s", "power.power", "s"),
    ("thermal.step.s", "thermal.step", "s"),
    ("pic.on_pic.s", "pic.on_pic", "s"),
    ("pic.invoke.calls", "pic.invoke", "calls"),
    ("pic.invoke.s", "pic.invoke", "s"),
    ("resilience.guarded_invoke.s", "resilience.guarded_invoke", "s"),
    ("gpm.on_gpm.s", "gpm.on_gpm", "s"),
    ("gpm.provision.calls", "gpm.provision", "calls"),
    ("baselines.maxbips.on_gpm.s", "baselines.maxbips.on_gpm", "s"),
    ("cmpsim.telemetry.record.s", "cmpsim.telemetry.record", "s"),
    ("cmpsim.telemetry.finalize.s", "cmpsim.telemetry.finalize", "s"),
    ("cmpsim.simulator.run.calls", "cmpsim.simulator.run", "calls"),
    ("cmpsim.simulator.run.self_s", "cmpsim.simulator.run", "self_s"),
    ("core.calibration.calibrate.calls", "core.calibration.calibrate", "calls"),
    ("core.calibration.calibrate.s", "core.calibration.calibrate", "s"),
    ("core.calibration.requests", "core.calibration.default_calibration", "calls"),
    ("runner.run_many.s", "runner.run_many", "s"),
    ("runner.cache_key.s", "runner.cache_key", "s"),
    ("runner.pool_wait_s", "runner.run_many", "self_s"),
    ("experiments.reference_run.calls", "experiments.reference_run", "calls"),
) + tuple(
    (f"experiments.{name}.s", f"experiments.{name}", "s") for name in spans.EXPERIMENT_MODULES
)


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, reported with ``--trace 1``."""
    unit = {"calls": "count", "s": "s", "self_s": "s"}
    names = [(m, unit[f]) for m, _, f in SPAN_METRICS]
    names += [
        ("core.calibration.hit_ratio", "ratio"),
        ("runner.requests", "count"),
        ("runner.cache_stores", "count"),
        ("runner.cache_hit_ratio", "ratio"),
        ("import.repro_cli_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return names


class Book:
    """Every attempted op: index, seconds, traced, work done, error."""

    def __init__(self) -> None:
        self.ops: list[dict] = []
        self.probe_failures: list[str] = []
        self.probes_attempted = 0

    def add(self, **record) -> None:
        self.ops.append(record)

    def times(self, traced: bool) -> list[float]:
        return [r["seconds"] for r in self.ops if r["traced"] == traced and r["error"] is None]

    @property
    def attempted(self) -> int:
        return len(self.ops) + self.probes_attempted

    @property
    def failures(self) -> list[str]:
        ops = [f"op {r['i']}: {r['error']}" for r in self.ops if r["error"] is not None]
        return self.probe_failures + ops


def run_ops(load, book, checker, first, *, seconds=None, count=None, traced=False,
            tracer=None, probes=None):
    """Run ops from index ``first``: ``count`` of them, or whole multiples
    of ``load.multiple`` until ``seconds`` have passed, with ``probes``
    spread over that window.  Returns the next index."""
    start = clock()
    i = first
    while True:
        if probes is not None:
            probes.due(clock() - start, seconds)
        done = i - first
        if count is not None:
            if done >= count:
                break
        elif done >= load.min_ops and done % load.multiple == 0 and clock() - start >= seconds:
            break
        load.prepare(i)
        if tracer is not None:
            tracer.op_id = i
        t0 = clock()
        try:
            out = load.op(i, traced=traced)
            error = None
        except Exception as exc:  # an op that raises is a failed op
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = clock() - t0
        if tracer is not None:
            tracer.op_id = -1
        work = 0.0
        if error is None:
            try:
                error = load.validate(i, out) or checker.check(load.digests(i, out))
                work = load.work(out)
            except Exception as exc:  # a check that cannot run fails the op
                error = f"check raised {type(exc).__name__}: {exc}"
        book.add(i=i, seconds=elapsed, traced=traced, work=work, error=error)
        del out
        i += 1
    return i


def _stamped_lines(chunks) -> list[tuple[float, str]]:
    lines, pending = [], b""
    for stamp, data in chunks:
        pending += data
        *complete, pending = pending.split(b"\n")
        lines += [(stamp, line.decode(errors="replace")) for line in complete]
    return lines


class Probes:
    """Fresh-process set-ups of one workload, spread evenly over the
    timed window so that slow drift of the host's speed weighs on them
    as it does on the ops.  Each probe records seconds from spawn to
    set-up done and, except on ``paper_suite``, to its first checked
    result."""

    def __init__(self, name, seed, n, workdir, checker, book) -> None:
        self.name, self.seed, self.n = name, seed, n
        self.workdir, self.checker, self.book = workdir, checker, book
        self.setups: list[float] = []
        self.firsts: list[float] = []
        self.done = 0

    def due(self, elapsed: float, window: float) -> None:
        """Run the probes whose start time, ``k * window / n``, has come."""
        while self.done < self.n and elapsed >= self.done * window / self.n:
            self.run_one()

    def finish(self) -> None:
        while self.done < self.n:
            self.run_one()

    def run_one(self) -> None:
        k = self.done
        self.done += 1
        probe_dir = self.workdir / f"probe-{self.name}-{k}"
        probe_dir.mkdir(parents=True)
        self.book.probes_attempted += 1
        cmd = [sys.executable, str(BENCH_DIR / "probe.py"), self.name, str(self.seed), str(probe_dir)]
        try:
            chunks, code, _ = harness.spawn_and_stream(
                cmd, harness.child_env(), probe_dir, 150.0, probe_dir / "stderr.txt"
            )
        except TimeoutError as exc:
            self.book.probe_failures.append(f"probe {k}: {exc}")
            return
        lines = _stamped_lines(chunks)
        setup = [t for t, line in lines if line == "setup"]
        result = [(t, line[len("result "):]) for t, line in lines if line.startswith("result ")]
        error = None
        if code != 0 or not setup:
            tail = (probe_dir / "stderr.txt").read_text(errors="replace").strip()[-300:]
            error = f"probe {k}: exit code {code}: {tail}"
        elif self.name != "paper_suite":
            if not result:
                error = f"probe {k}: no result line"
            else:
                error = self.checker.check(json.loads(result[0][1]))
                self.firsts.append(result[0][0])
        if error is None:
            self.setups.append(setup[0])
        else:
            self.book.probe_failures.append(error)
        shutil.rmtree(probe_dir, ignore_errors=True)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def end_to_end(load, book, setups, firsts) -> dict:
    times = book.times(False)
    stats = harness.summarize(times)
    done = [r for r in book.ops if not r["traced"] and r["error"] is None]
    busy = sum(r["seconds"] for r in done)
    if load.name == "paper_suite":
        untraced = {r["i"] for r in done}
        firsts = [t for i, t in load.first_result_s.items() if i in untraced]
    metrics = {
        "setup_s": _median(setups),
        "op_p50_s": stats["p50"],
        "work_per_s": sum(r["work"] for r in done) / busy if busy else math.nan,
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    # Printed and kept in the results file; their run-to-run spread on a
    # shared host is too wide to gate on (see README.md).
    extras = {"first_result_s": (_median(firsts), "s")}
    if load.name != "paper_suite":
        extras["op_p90_s"] = (stats["p90"], "s")
    return metrics, extras


def per_layer(load, book, span_data, traced_ops, import_s) -> dict:
    figures = spans.layer_metrics(span_data, traced_ops)
    n = max(1, len(traced_ops))
    out = {}
    for metric, span_name, field in SPAN_METRICS:
        out[metric] = figures.get(span_name, {}).get(field, 0) / n
    requests = figures.get("core.calibration.default_calibration", {}).get("calls", 0)
    misses = figures["calibration_misses"]
    out["core.calibration.hit_ratio"] = (requests - misses) / requests if requests else 0.0
    counters = figures["counters"]
    stores = sum(getattr(load, "stores", {}).get(i, 0) for i in traced_ops)
    cached = counters.get("runner.cached_requests", 0.0)
    out["runner.requests"] = counters.get("runner.requests", 0.0) / n
    out["runner.cache_stores"] = stores / n
    out["runner.cache_hit_ratio"] = max(0.0, (cached - stores) / cached) if cached else 0.0
    out["import.repro_cli_s"] = _median(import_s)
    overhead = harness.summarize(book.times(True))["p50"] - harness.summarize(book.times(False))["p50"]
    out["trace.overhead_s"] = overhead
    return out


def measure(args, workdir) -> dict:
    load = loads.make(args.workload, args.seed, workdir)
    references = harness.load_references().get(args.workload, {}).get(str(args.seed), {})
    checker = Checker(references)
    book = Book()
    repo_cache_before = harness.repo_cache_snapshot()

    if args.trace:
        probes = Probes("paper_suite", args.seed, 3, workdir, Checker({}), Book())
    else:
        probes = Probes(args.workload, args.seed, load.probes, workdir, checker, book)

    load.setup()
    window = args.seconds / 2 if args.trace else args.seconds
    next_op = run_ops(load, book, checker, 0, seconds=window, probes=probes)
    probes.finish()

    if args.trace:
        tracer = None
        if load.name != "paper_suite":
            tracer = spans.Tracer()
            spans.install(tracer)
        end = run_ops(load, book, checker, next_op, count=load.traced_ops, traced=True, tracer=tracer)
        traced_ops = list(range(next_op, end))
        # Spans are kept with the results: one file per traced process.
        OUT_DIR.mkdir(exist_ok=True)
        stem = f"spans-{args.workload}-seed{args.seed}"
        if tracer is not None:
            files = [OUT_DIR / f"{stem}.npz"]
            tracer.save(files[0])
        else:
            files = []
            for i in traced_ops:
                if load.spans_path(i).exists():
                    files.append(OUT_DIR / f"{stem}-op{i}.npz")
                    shutil.copyfile(load.spans_path(i), files[-1])
        span_data = spans.load_spans(files)
        metrics = per_layer(load, book, span_data, traced_ops, probes.setups)
        metrics_units = dict(per_layer_names())
        extras = {
            "trace_ops": (float(len(traced_ops)), "count"),
            "trace_spans": (float(len(span_data["op"])), "count"),
        }
    else:
        metrics, extras = end_to_end(load, book, probes.setups, probes.firsts)
        metrics_units = dict(END_TO_END)

    extras.update(load.extra_metrics())
    attempted = book.attempted
    failures = book.failures
    untraced = [r for r in book.ops if not r["traced"] and r["error"] is None]
    busy = sum(r["seconds"] for r in untraced)
    if load.name == "closed_loop" and busy:
        extras["sim_ticks_per_s"] = (sum(r["work"] for r in untraced) / busy, "1/s")
    if load.name == "sweep_extend" and busy:
        extras["runs_per_s"] = (sum(r["work"] for r in untraced) / busy, "1/s")
    extras["ops_failed_frac"] = (len(failures) / attempted if attempted else 0.0, "fraction")
    extras["ops_timed"] = (float(len(untraced)), "count")
    extras["ops_checked_against_reference"] = (float(checker.compared_with_reference), "count")

    repo_cache_untouched = harness.repo_cache_snapshot() == repo_cache_before
    if not repo_cache_untouched:
        failures.append("the checkout's .repro-cache/ changed during the run")
    return {
        "host": harness.host_record(args.seed, args.workload, args.trace),
        "metrics": {name: {"value": metrics[name], "unit": metrics_units[name]} for name in metrics_units},
        "extras": {name: {"value": v, "unit": u} for name, (v, u) in extras.items()},
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "repo_cache_untouched": repo_cache_untouched,
        "ops": book.ops,
        "setup_probe_s": probes.setups,
        "first_result_probe_s": probes.firsts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("closed_loop", "paper_suite", "sweep_extend"))
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so that the cleanup
    # below runs and any child process is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        harness.preflight()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        harness.isolate(workdir)
        harness.import_repro()
        report = measure(args, workdir)
    except harness.SetupFailure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    bad = [k for k, v in report["metrics"].items() if not math.isfinite(v["value"])]
    OUT_DIR.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(report, indent=1, default=float) + "\n")

    for name, entry in {**report["metrics"], **report["extras"]}.items():
        print(f"{name:40s} {entry['value']:.6g} {entry['unit']}")
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    print(f"results: {path.relative_to(harness.ROOT)}")
    if bad:
        print(f"perfbench: no value for {', '.join(bad)}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": report["correct"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": report["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

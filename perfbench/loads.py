"""The three benchmark workloads.

Each workload has the same shape:

* ``setup()`` — everything before the first timed op.  It runs in the
  benchmark process and, to time it, in fresh set-up probe processes.
* ``prepare(i)`` / ``op(i, traced)`` / ``digests(i, out)`` /
  ``validate(i, out)`` — untimed preparation, the timed op, the output
  digests compared with committed references and earlier ops, and the
  invariants any seed must satisfy.
* ``work(out)`` — units of work one op completed, for ``work_per_s``.

All inputs derive from the seed: the same seed gives the same inputs.
"""

from __future__ import annotations

import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from harness import (
    BENCH_DIR,
    child_env,
    digest_bytes,
    digest_result,
    digest_telemetry,
    spawn_and_stream,
)

__all__ = ["ClosedLoop", "PaperSuite", "SweepExtend", "WORKLOADS", "make"]

BUDGET = 0.8


class ClosedLoop:
    """Long closed-loop ``Simulation.run``s over a fixed rotation.

    {8c4i, 32c8i} x {CPM (performance-aware), guarded CPM, MaxBIPS} at
    budget 0.8.  Horizons are set so that every entry of the rotation
    costs about the same host time at the seed commit, which keeps the
    op-time distribution unimodal; the benchmark always times whole
    rotations.
    """

    name = "closed_loop"
    #: (platform, scheme, GPM intervals)
    ROTATION = (
        ("8c4i", "cpm", 110),
        ("8c4i", "cpm-guarded", 100),
        ("8c4i", "maxbips", 100),
        ("32c8i", "cpm", 90),
        ("32c8i", "cpm-guarded", 80),
        ("32c8i", "maxbips", 70),
    )
    PLATFORMS = {"8c4i": (8, 4), "32c8i": (32, 8)}
    multiple = len(ROTATION)
    min_ops = len(ROTATION)
    traced_ops = 2 * len(ROTATION)
    probes = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.first_rotation: dict[int, tuple[float, float]] = {}

    def setup(self) -> None:
        from repro import DEFAULT_CONFIG, CPMScheme, MaxBIPSScheme, Simulation
        from repro import default_calibration
        from repro.resilience import GuardedCPMScheme

        self._simulation = Simulation
        self._schemes = {
            "cpm": CPMScheme,
            "cpm-guarded": GuardedCPMScheme,
            "maxbips": MaxBIPSScheme,
        }
        self._configs = {
            name: DEFAULT_CONFIG.with_islands(cores, islands)
            for name, (cores, islands) in self.PLATFORMS.items()
        }
        for config in self._configs.values():
            default_calibration(config, seed=self.seed)

    def prepare(self, i: int) -> None:
        pass

    def op(self, i: int, traced: bool = False):
        platform, scheme, n_gpm = self.ROTATION[i % len(self.ROTATION)]
        sim = self._simulation(
            self._configs[platform],
            self._schemes[scheme](),
            budget_fraction=BUDGET,
            seed=self.seed,
        )
        result = sim.run(n_gpm)
        result.telemetry.finalize()
        return result

    def digests(self, i: int, result) -> dict:
        platform, scheme, _ = self.ROTATION[i % len(self.ROTATION)]
        return {f"{platform}/{scheme}": digest_telemetry(result.telemetry)}

    def validate(self, i: int, result) -> str | None:
        _, scheme, n_gpm = self.ROTATION[i % len(self.ROTATION)]
        telemetry = result.telemetry
        pics = result.config.control.pics_per_gpm
        if telemetry.n_intervals != n_gpm * pics:
            return f"{telemetry.n_intervals} intervals, expected {n_gpm * pics}"
        if result.scheme_name != scheme:
            return f"scheme {result.scheme_name!r}, expected {scheme!r}"
        for key, values in telemetry.finalize().items():
            if values.dtype.kind == "f" and not np.all(np.isfinite(values)):
                return f"non-finite values in telemetry {key!r}"
        power = telemetry["chip_power_frac"]
        if not (np.all(power > 0.0) and np.all(power < 1.5)):
            return "chip power outside (0, 1.5) of max"
        if i < len(self.ROTATION):
            windows = power.reshape(n_gpm, pics).mean(axis=1)
            self.first_rotation[i] = (
                result.mean_chip_bips,
                max(0.0, float(windows.max()) - BUDGET) * 100.0,
            )
        return None

    def work(self, result) -> float:
        return float(result.telemetry.n_intervals)

    def extra_metrics(self) -> dict:
        """Simulated figures over the first rotation (exact per seed)."""
        if len(self.first_rotation) < len(self.ROTATION):
            return {}
        values = list(self.first_rotation.values())
        return {
            "sim_bips": (float(np.mean([v[0] for v in values])), "BIPS"),
            "sim_overshoot_pct": (max(v[1] for v in values), "%"),
        }


class SweepExtend:
    """Incremental cached budget sweeps through ``run_many``.

    Each op asks for a window of 4 budgets x {CPM, MaxBIPS} from a fine
    grid, with two worker processes and one shared cache directory.  The
    window slides by half its width, so half of each op's requests hit
    entries the previous op stored and half miss.  When a lap of the grid
    is done the cache is emptied (untimed), so the next lap starts cold.
    """

    name = "sweep_extend"
    GRID = tuple(round(0.55 + 0.001 * k, 3) for k in range(441))
    WIDTH = 4
    SLIDE = 2
    SCHEMES = ("cpm", "maxbips")
    N_GPM = 6
    JOBS = 2
    multiple = 1
    min_ops = 4
    traced_ops = 16
    probes = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.cache_dir = workdir / "sweep-cache"
        self.windows_per_lap = (len(self.GRID) - self.WIDTH) // self.SLIDE + 1
        self.hits = 0
        self.misses = 0
        self.stores: dict[int, int] = {}
        self.cold_ops = 0
        self.cold_ops_started_empty = 0
        self._entries_before = 0

    def setup(self) -> None:
        from repro import DEFAULT_CONFIG, CPMScheme, MaxBIPSScheme
        from repro import default_calibration, runner

        # run_many is looked up per op, so a traced run sees the wrapper.
        self._runner = runner
        self._config = DEFAULT_CONFIG
        self._factories = {"cpm": CPMScheme, "maxbips": MaxBIPSScheme}
        # Pool workers are forked and inherit this memoized calibration.
        default_calibration(DEFAULT_CONFIG, seed=self.seed)
        self.cache_dir.mkdir(parents=True, exist_ok=True)

    def window(self, i: int) -> list[int]:
        start = (i % self.windows_per_lap) * self.SLIDE
        return list(range(start, start + self.WIDTH))

    def _entries(self) -> int:
        return sum(1 for _ in self.cache_dir.rglob("*.pkl"))

    def prepare(self, i: int) -> None:
        if i % self.windows_per_lap == 0:
            if i:
                shutil.rmtree(self.cache_dir)
                self.cache_dir.mkdir()
            self.cold_ops += 1
            if self._entries() == 0:
                self.cold_ops_started_empty += 1
        self._entries_before = self._entries()

    def request(self, g: int, scheme: str):
        """The request for grid point ``g`` under ``scheme``."""
        return self._runner.RunRequest(
            config=self._config,
            scheme_factory=self._factories[scheme],
            budget_fraction=self.GRID[g],
            seed=self.seed,
            n_gpm_intervals=self.N_GPM,
        )

    def op(self, i: int, traced: bool = False):
        requests = [self.request(g, s) for g in self.window(i) for s in self.SCHEMES]
        return self._runner.run_many(requests, jobs=self.JOBS, cache_dir=self.cache_dir)

    def _keys(self, i: int) -> list[str]:
        return [f"{scheme}/{g}" for g in self.window(i) for scheme in self.SCHEMES]

    def digests(self, i: int, results) -> dict:
        return {key: digest_result(r) for key, r in zip(self._keys(i), results)}

    def validate(self, i: int, results) -> str | None:
        stores = self._entries() - self._entries_before
        self.stores[i] = stores
        self.misses += stores
        self.hits += len(results) - stores
        if len(results) != self.WIDTH * len(self.SCHEMES):
            return f"{len(results)} results for {self.WIDTH * len(self.SCHEMES)} requests"
        for key, result in zip(self._keys(i), results):
            scheme, g = key.split("/")
            if result is None:
                return f"{key}: no result"
            if result.scheme_name != scheme:
                return f"{key}: scheme {result.scheme_name!r}"
            if result.budget_fraction != self.GRID[int(g)]:
                return f"{key}: budget {result.budget_fraction}"
            if result.telemetry.n_intervals != self.N_GPM * result.config.control.pics_per_gpm:
                return f"{key}: {result.telemetry.n_intervals} intervals"
        return None

    def work(self, results) -> float:
        return float(len(results))

    def extra_metrics(self) -> dict:
        total = self.hits + self.misses
        return {
            "cache_hit_ratio": (self.hits / total if total else 0.0, "ratio"),
            "cold_ops_started_empty": (
                float(self.cold_ops_started_empty == self.cold_ops), "bool"
            ),
        }


@dataclass
class SuiteOutput:
    stdout: bytes
    code: int
    #: Seconds from spawn to the end of the first experiment block.
    first_s: float | None
    stderr: str


class PaperSuite:
    """``python -m repro experiment all --quick --seed S`` in a fresh
    process with its own empty result cache, stdout unbuffered and read
    as it arrives."""

    name = "paper_suite"
    N_BLOCKS = 18
    multiple = 1
    min_ops = 2
    traced_ops = 2
    probes = 5
    TIMEOUT_S = 120.0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.first_result_s: dict[int, float] = {}
        self.stores: dict[int, int] = {}
        self.cold_ops = 0
        self.cold_ops_started_empty = 0

    def setup(self) -> None:
        # What every op pays before its first experiment: the CLI import.
        import repro.cli  # noqa: F401

    def _op_dir(self, i: int) -> Path:
        return self.workdir / f"suite-{i}"

    def spans_path(self, i: int) -> Path:
        return self.workdir / f"spans-{i}.npz"

    def prepare(self, i: int) -> None:
        cache = self._op_dir(i) / "cache"
        self.cold_ops += 1
        if not cache.exists():
            self.cold_ops_started_empty += 1
        self._op_dir(i).mkdir(parents=True, exist_ok=True)

    def op(self, i: int, traced: bool = False) -> SuiteOutput:
        op_dir = self._op_dir(i)
        tail = ["experiment", "all", "--quick", "--seed", str(self.seed)]
        if traced:
            cmd = [sys.executable, "-u", str(BENCH_DIR / "suite_boot.py"),
                   str(self.spans_path(i)), str(i), *tail]
        else:
            cmd = [sys.executable, "-u", "-m", "repro", *tail]
        env = child_env(REPRO_CACHE_DIR=str(op_dir / "cache"), PYTHONUNBUFFERED="1")
        chunks, code, _ = spawn_and_stream(
            cmd, env, op_dir, self.TIMEOUT_S, op_dir / "stderr.txt"
        )
        stdout = b"".join(data for _, data in chunks)
        # The first block ends where the second header starts.
        second = stdout.find(b"\n== ")
        first_s = None
        if second >= 0:
            seen = 0
            for stamp, data in chunks:
                seen += len(data)
                if seen > second:
                    first_s = stamp
                    break
        stderr = (op_dir / "stderr.txt").read_text(errors="replace")
        return SuiteOutput(stdout, code, first_s, stderr)

    def digests(self, i: int, out: SuiteOutput) -> dict:
        return {"stdout": digest_bytes(out.stdout)}

    def validate(self, i: int, out: SuiteOutput) -> str | None:
        op_dir = self._op_dir(i)
        self.stores[i] = sum(1 for _ in (op_dir / "cache").rglob("*.pkl"))
        shutil.rmtree(op_dir, ignore_errors=True)
        if out.code != 0:
            return f"exit code {out.code}: {out.stderr.strip()[-300:]}"
        headers = [line for line in out.stdout.splitlines() if line.startswith(b"== ")]
        if len(headers) != self.N_BLOCKS:
            return f"{len(headers)} experiment blocks, expected {self.N_BLOCKS}"
        if out.first_s is None:
            return "first experiment block never completed"
        self.first_result_s[i] = out.first_s
        return None

    def work(self, out: SuiteOutput) -> float:
        return float(self.N_BLOCKS)

    def extra_metrics(self) -> dict:
        return {
            "cold_ops_started_empty": (
                float(self.cold_ops_started_empty == self.cold_ops), "bool"
            ),
        }


WORKLOADS = {cls.name: cls for cls in (ClosedLoop, PaperSuite, SweepExtend)}


def make(name: str, seed: int, workdir: Path):
    return WORKLOADS[name](seed, workdir)

"""Shared infrastructure for the experiment modules.

Keeps experiments terse: a result container with a uniform renderer,
memoized reference (no-management) runs, and the standard run lengths.
Reference runs are cached per (config, mix, seed, horizon) because nearly
every figure needs the same unmanaged baseline and the workload streams
are seed-deterministic, so sharing is exact, not approximate.  The memo
is two-level: an in-process ``lru_cache`` in front of the on-disk result
cache of :mod:`repro.runner`, so the baseline survives across processes
and sessions instead of being recomputed in every worker (set
``REPRO_CACHE=0`` to disable the disk level).
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..baselines.no_management import NoManagementScheme
from ..cmpsim.simulator import SimulationResult
from ..config import CMPConfig
from ..reporting import format_series, format_table
from ..rng import DEFAULT_SEED
from ..runner import RunRequest, run_one
from ..workloads.mixes import Mix, mix_for_config

__all__ = [
    "ExperimentResult",
    "FULL_HORIZON",
    "QUICK_HORIZON",
    "WARMUP_INTERVALS",
    "horizon",
    "main",
    "reference_run",
]

#: Default GPM horizons: full runs for the benchmark harness, quick runs
#: for smoke tests.
FULL_HORIZON = 25
QUICK_HORIZON = 6

#: Intervals skipped before computing steady metrics (controller start-up).
WARMUP_INTERVALS = 20


@dataclass(frozen=True)
class ExperimentResult:
    """Uniform output of one experiment run.

    Frozen: the identity of a result (which experiment, what headers) is
    fixed at construction; ``add_row``/``add_series`` grow the *contents*
    of the held containers, which freezing deliberately still allows.
    """

    experiment: str
    description: str
    headers: Sequence[str] = ()
    rows: List[Sequence] = field(default_factory=list)
    series: Dict[str, np.ndarray] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *cells) -> None:
        self.rows.append(list(cells))

    def add_series(self, name: str, values) -> None:
        self.series[name] = np.asarray(values, dtype=float)

    def render(self, width: int = 60) -> str:
        parts = [f"== {self.experiment} — {self.description} =="]
        if self.rows:
            parts.append(format_table(self.headers, self.rows))
        if self.series:
            parts.append(format_series(self.series, width=width))
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n\n".join(parts)


def horizon(quick: bool) -> int:
    return QUICK_HORIZON if quick else FULL_HORIZON


@functools.lru_cache(maxsize=64)
def _reference_run_cached(
    config: CMPConfig, mix: Mix, seed: int, n_gpm: int
) -> SimulationResult:
    request = RunRequest(
        config=config,
        scheme_factory=NoManagementScheme,
        mix=mix,
        budget_fraction=1.0,
        seed=seed,
        n_gpm_intervals=n_gpm,
    )
    return run_one(request, cache_dir="auto")


def reference_run(
    config: CMPConfig,
    mix: Mix | None = None,
    seed: int = DEFAULT_SEED,
    n_gpm: int = FULL_HORIZON,
) -> SimulationResult:
    """Memoized no-management run (the performance/power reference)."""
    return _reference_run_cached(config, mix_for_config(config, mix), seed, n_gpm)


def main(run_fn, *, quick: bool | None = None) -> None:
    """Standard ``python -m`` entry: run and print one experiment.

    Honors ``--quick`` and ``--jobs N`` command-line flags when not
    forced by the caller; ``--jobs`` is forwarded only to experiments
    whose ``run`` accepts it (those built on independent runs).  Bad
    flags exit with status 2 and a usage message.
    """
    import argparse
    import sys

    from ..cli import _jobs_value

    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true", help="shortened horizons")
    parser.add_argument("--jobs", type=_jobs_value, default=argparse.SUPPRESS,
                        help="worker processes (a count, or 'all')")
    args = parser.parse_args()
    kwargs: dict = {"quick": args.quick if quick is None else quick}
    if hasattr(args, "jobs"):
        if "jobs" in inspect.signature(run_fn).parameters:
            kwargs["jobs"] = args.jobs
        else:
            print(
                f"note: {getattr(run_fn, '__module__', 'experiment')} does "
                "not support --jobs; running serially",
                file=sys.stderr,
            )
    result = run_fn(**kwargs)
    print(result.render())

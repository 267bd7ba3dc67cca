"""Regenerate ``references.json``: output digests for the default seed and
the held-out seed, which every run with one of those seeds is checked
against.

Where the program offers another path, the references are computed
through it: sweep results serially with no cache (the benchmark uses two
workers and the shared cache), and closed-loop runs in order through the
rotation in one process.

Usage::

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import harness
import loads
from harness import DEFAULT_SEED, HELD_OUT_SEED, REFERENCES, WORK_ROOT


def references_for(seed: int, workdir) -> dict:
    closed = loads.ClosedLoop(seed, workdir)
    closed.setup()
    closed_digests = {}
    for i in range(len(closed.ROTATION)):
        result = closed.op(i)
        if closed.validate(i, result) is not None:
            raise RuntimeError(f"closed_loop op {i} fails validation")
        closed_digests.update(closed.digests(i, result))

    sweep = loads.SweepExtend(seed, workdir)
    sweep.setup()
    keys = [(g, s) for g in range(len(sweep.GRID)) for s in sweep.SCHEMES]
    results = sweep._runner.run_many(
        [sweep.request(g, s) for g, s in keys], jobs=1, cache_dir=None
    )
    sweep_digests = {
        f"{s}/{g}": harness.digest_result(r) for (g, s), r in zip(keys, results)
    }

    suite = loads.PaperSuite(seed, workdir)
    suite.prepare(0)
    out = suite.op(0)
    error = suite.validate(0, out)
    if error is not None:
        raise RuntimeError(f"paper_suite: {error}")
    return {
        "closed_loop": closed_digests,
        "sweep_extend": sweep_digests,
        "paper_suite": suite.digests(0, out),
    }


def main() -> int:
    harness.preflight()
    workdir = WORK_ROOT / f"references-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        harness.isolate(workdir)
        harness.import_repro()
        table: dict = {"closed_loop": {}, "paper_suite": {}, "sweep_extend": {}}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for workload, digests in references_for(seed, workdir).items():
                table[workload][str(seed)] = digests
                print(f"{workload} seed {seed}: {len(digests)} digests")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    REFERENCES.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES.relative_to(harness.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

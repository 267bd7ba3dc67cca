"""Self-test of the benchmark's output checks.

For each workload, the unperturbed output of the default seed must match
the committed reference, and the same output perturbed in one place (one
ulp of one telemetry value, one digit of the suite's stdout) must be
reported as a failure.  A digest that changes between two ops of the same
input must be reported too, for seeds without references.

Usage::

    python3 perfbench/selfcheck.py      # exit 0 when every check holds
"""

from __future__ import annotations

import dataclasses
import os
import re
import shutil
import sys

import numpy as np

import harness
import loads
from harness import DEFAULT_SEED, WORK_ROOT, Checker


def _bump(values: np.ndarray, index: int) -> None:
    """Move one float by one ulp, in place."""
    flat = values.reshape(-1)
    flat[index] = np.nextafter(flat[index], np.inf)


def cases(workdir) -> list[tuple[str, bool]]:
    """(description, passed) for every self-test case."""
    references = harness.load_references()
    seed = str(DEFAULT_SEED)
    out = []

    closed = loads.ClosedLoop(DEFAULT_SEED, workdir)
    closed.setup()
    result = closed.op(0)
    reference = Checker(references["closed_loop"][seed])
    out.append(("closed_loop: unperturbed run matches its reference",
                closed.validate(0, result) is None
                and reference.check(closed.digests(0, result)) is None))
    _bump(result.telemetry.finalize()["island_power_frac"], 17)
    out.append(("closed_loop: one ulp in island_power_frac is caught",
                Checker(references["closed_loop"][seed]).check(closed.digests(0, result)) is not None))
    no_reference = Checker({})
    no_reference.check(closed.digests(0, closed.op(0)))
    out.append(("closed_loop: a digest that changes between ops is caught",
                no_reference.check(closed.digests(0, result)) is not None))

    sweep = loads.SweepExtend(DEFAULT_SEED, workdir)
    sweep.setup()
    sweep.prepare(0)
    results = sweep.op(0)
    out.append(("sweep_extend: unperturbed window matches its references",
                sweep.validate(0, results) is None
                and Checker(references["sweep_extend"][seed]).check(sweep.digests(0, results)) is None))
    bumped = np.nextafter(results[3].total_instructions, np.inf)
    results[3] = dataclasses.replace(results[3], total_instructions=bumped)
    out.append(("sweep_extend: one ulp in total_instructions is caught",
                Checker(references["sweep_extend"][seed]).check(sweep.digests(0, results)) is not None))

    suite = loads.PaperSuite(DEFAULT_SEED, workdir)
    suite.prepare(0)
    text = suite.op(0)
    out.append(("paper_suite: unperturbed stdout matches its reference",
                suite.validate(0, text) is None
                and Checker(references["paper_suite"][seed]).check(suite.digests(0, text)) is None))
    digit = re.search(rb"\d", text.stdout[len(text.stdout) // 2:])
    position = len(text.stdout) // 2 + digit.start()
    changed = bytes([ord("0") + (text.stdout[position] - ord("0") + 1) % 10])
    text.stdout = text.stdout[:position] + changed + text.stdout[position + 1:]
    out.append(("paper_suite: one changed digit in stdout is caught",
                Checker(references["paper_suite"][seed]).check(suite.digests(0, text)) is not None))
    return out


def main() -> int:
    harness.preflight()
    workdir = WORK_ROOT / f"selfcheck-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        harness.isolate(workdir)
        harness.import_repro()
        results = cases(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    for description, passed in results:
        print(f"{'ok  ' if passed else 'FAIL'} {description}")
    return 0 if all(passed for _, passed in results) else 1


if __name__ == "__main__":
    sys.exit(main())

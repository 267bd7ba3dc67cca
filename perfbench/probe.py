"""Set-up probe: one fresh process that performs a workload's set-up,
prints ``setup`` when it is done, then (except for ``paper_suite``, whose
set-up is the CLI import every op pays) completes the workload's first op
and prints ``result`` with its output digests as JSON.

Usage::

    python3 perfbench/probe.py WORKLOAD SEED WORKDIR
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import harness
import loads


def main(argv: list[str]) -> int:
    name, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    harness.import_repro()
    load = loads.make(name, seed, workdir)
    load.setup()
    print("setup", flush=True)
    if name != "paper_suite":
        load.prepare(0)
        out = load.op(0)
        print("result " + json.dumps(load.digests(0, out)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

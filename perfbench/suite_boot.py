"""Traced bootstrap for one ``paper_suite`` op.

Installs the span tracer in this process, runs the ``repro`` CLI with the
remaining arguments, and writes the spans to SPANS.npz when it ends.

Usage::

    python3 -u perfbench/suite_boot.py SPANS.npz OP_ID experiment all --quick --seed S
"""

from __future__ import annotations

import sys

import harness
import spans


def main(argv: list[str]) -> int:
    out, op_id, cli_args = argv[0], int(argv[1]), argv[2:]
    harness.import_repro()
    import repro.cli

    tracer = spans.Tracer()
    spans.install(tracer, experiments=True)
    tracer.op_id = op_id
    try:
        return repro.cli.main(cli_args)
    finally:
        tracer.op_id = -1
        tracer.save(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

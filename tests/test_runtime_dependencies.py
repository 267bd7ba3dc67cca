"""The runtime needs numpy only: no ``repro`` code path imports scipy."""

import os
import pathlib
import subprocess
import sys
import textwrap

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _run_python(code: str, tmp_path: pathlib.Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )


def test_cli_run_and_workload_block_without_scipy(tmp_path):
    """With scipy made unimportable, a CPM run and a batched workload
    block still complete."""
    proc = _run_python(
        """
        import sys
        sys.modules["scipy"] = None  # any `import scipy...` now raises

        import numpy as np
        from repro.cli import main
        from repro.workloads.benchmark import BenchmarkInstance
        from repro.workloads.parsec import PARSEC_BENCHMARKS

        assert main(["run", "--intervals", "2"]) == 0
        spec = PARSEC_BENCHMARKS["canneal"]
        block = BenchmarkInstance(spec, np.random.default_rng(1)).advance_block(50)
        assert block.alpha.shape == (50,)
        """,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_simulation_run_leaves_scipy_unimported(tmp_path):
    proc = _run_python(
        """
        import sys
        from repro.cmpsim.simulator import Simulation
        from repro.config import DEFAULT_CONFIG
        from repro.core.cpm import CPMScheme

        Simulation(DEFAULT_CONFIG, CPMScheme(), seed=1).run(2)
        assert "scipy" not in sys.modules, sorted(
            m for m in sys.modules if m.startswith("scipy")
        )
        """,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]

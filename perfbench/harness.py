"""Plumbing shared by the benchmark's scripts.

Paths, the pre-flight checks, cache isolation, the host record, output
digests, order statistics, and a child-process reader that timestamps
every chunk of standard output as it arrives.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import json
import multiprocessing
import os
import platform
import resource
import selectors
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

__all__ = [
    "BENCH_DIR",
    "Checker",
    "DEFAULT_SEED",
    "HELD_OUT_SEED",
    "OUT_DIR",
    "REFERENCES",
    "ROOT",
    "SRC",
    "SetupFailure",
    "WORK_ROOT",
    "child_env",
    "clock",
    "digest_bytes",
    "digest_result",
    "digest_telemetry",
    "host_record",
    "import_repro",
    "isolate",
    "load_references",
    "peak_rss_mb",
    "preflight",
    "repo_cache_snapshot",
    "spawn_and_stream",
    "summarize",
]

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "_out"
WORK_ROOT = BENCH_DIR / "_work"
REFERENCES = BENCH_DIR / "references.json"

#: ``repro.rng.DEFAULT_SEED``; :func:`import_repro` checks they agree.
DEFAULT_SEED = 20100610
#: A second seed with committed references, never used to tune the benchmark.
HELD_OUT_SEED = 4242

#: File-name patterns tier-1 pytest collects (``python_files`` in
#: pyproject.toml); no benchmark file may match them.
_COLLECTED_PATTERNS = ("test_*.py", "bench_*.py", "*_test.py")

clock = time.perf_counter


class SetupFailure(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def preflight() -> None:
    """Refuse to run without the program's sources or with a module that
    would shadow the standard library or be collected by pytest."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupFailure(f"no program sources at {SRC / 'repro'}")
    stdlib = set(sys.stdlib_module_names)
    for path in sorted(BENCH_DIR.iterdir()):
        stem = path.stem if path.suffix == ".py" else path.name
        if (path.suffix == ".py" or path.is_dir()) and stem in stdlib:
            raise SetupFailure(
                f"{path.name} shadows the standard-library module {stem!r}; "
                "scripts in this directory run with it first on sys.path"
            )
        if any(path.match(pattern) for pattern in _COLLECTED_PATTERNS):
            raise SetupFailure(f"{path.name} would be collected by pytest")


def import_repro():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import repro
    from repro.rng import DEFAULT_SEED as program_default

    location = Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise SetupFailure(f"repro imported from {location}, not {SRC}")
    if program_default != DEFAULT_SEED:
        raise SetupFailure("repro.rng.DEFAULT_SEED changed; update harness.DEFAULT_SEED")
    return repro


def isolate(workdir: Path) -> None:
    """Point every cache and temp file of this process and its children
    into ``workdir``; the checkout's own ``.repro-cache/`` is never used."""
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "cache-unused")
    os.environ.pop("REPRO_CACHE", None)
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")


def child_env(**overrides: str) -> dict:
    env = dict(os.environ)
    env.update(overrides)
    return env


def repo_cache_snapshot() -> tuple:
    """(exists, entry count, newest mtime) of the checkout's ``.repro-cache``."""
    cache = ROOT / ".repro-cache"
    if not cache.exists():
        return (False, 0, 0.0)
    entries = [p for p in cache.rglob("*")]
    newest = max((p.stat().st_mtime for p in entries), default=cache.stat().st_mtime)
    return (True, len(entries), newest)


def host_record(seed: int, workload: str, trace: int) -> dict:
    import numpy

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    sources = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        sources.update(str(path.relative_to(SRC)).encode())
        sources.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "mp_start_method": multiprocessing.get_start_method(),
        "machine": platform.machine(),
        "src_sha256": sources.hexdigest()[:16],
    }


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _update_arrays(h, arrays: dict) -> None:
    import numpy as np

    for key in sorted(arrays):
        value = np.ascontiguousarray(arrays[key])
        h.update(f"{key}|{value.dtype.str}|{value.shape}|".encode())
        h.update(value.tobytes())


def digest_telemetry(telemetry) -> str:
    """Digest of a run's finalized telemetry arrays."""
    h = hashlib.sha256()
    _update_arrays(h, telemetry.finalize())
    return h.hexdigest()[:16]


def digest_result(result) -> str:
    """Digest of a ``SimulationResult``: telemetry plus its scalar fields."""
    h = hashlib.sha256()
    _update_arrays(h, result.telemetry.finalize())
    h.update(
        repr(
            (
                result.mix_name,
                result.scheme_name,
                float(result.budget_fraction),
                float(result.duration_s),
                float(result.total_instructions),
            )
        ).encode()
    )
    return h.hexdigest()[:16]


class Checker:
    """Compares op digests with committed references and earlier ops."""

    def __init__(self, references: dict) -> None:
        self.references = references
        self.seen: dict[str, str] = {}
        self.compared_with_reference = 0

    def check(self, digests: dict) -> str | None:
        for key, digest in digests.items():
            reference = self.references.get(key)
            if reference is not None:
                self.compared_with_reference += 1
                if digest != reference:
                    return f"{key}: digest {digest} differs from the committed reference {reference}"
            earlier = self.seen.setdefault(key, digest)
            if digest != earlier:
                return f"{key}: digest {digest} differs from {earlier} of an earlier op"
        return None



def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Statistics and resources
# ----------------------------------------------------------------------
def summarize(times: list[float]) -> dict:
    """Median and 90th percentile of op times, with the sample count."""
    if not times:
        return {"n": 0, "p50": float("nan"), "p90": float("nan")}
    if len(times) == 1:
        return {"n": 1, "p50": times[0], "p90": times[0]}
    return {
        "n": len(times),
        "p50": statistics.median(times),
        "p90": statistics.quantiles(times, n=10, method="inclusive")[8],
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def spawn_and_stream(cmd, env, cwd, timeout_s: float, stderr_path: Path):
    """Run ``cmd``; return (stdout chunks as (seconds since spawn, bytes),
    return code, seconds from spawn to exit).

    Each chunk is stamped when it is read, so a caller can tell when a
    given line of output became available.  The child is killed if it
    runs past ``timeout_s``.
    """
    with open(stderr_path, "wb") as err:
        start = clock()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE, stderr=err)
        chunks = []
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(proc.stdout, selectors.EVENT_READ)
                while True:
                    remaining = timeout_s - (clock() - start)
                    if remaining <= 0:
                        raise TimeoutError(f"{cmd[1:3]} ran past {timeout_s:g} s")
                    if not selector.select(timeout=remaining):
                        continue
                    data = os.read(proc.stdout.fileno(), 1 << 16)
                    if not data:
                        break
                    chunks.append((clock() - start, data))
            code = proc.wait(timeout=max(1.0, timeout_s - (clock() - start)))
            elapsed = clock() - start
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    return chunks, code, elapsed

"""The analytic CPI stack: (workload state, frequency) → performance.

The model is the standard interval decomposition::

    CPI(f) = CPI_base                       # compute + on-core stalls
           + (L1_MPKI / 1000) * lat_L2      # L1 misses hitting shared L2
           + (L2_MPKI / 1000) * lat_mem * f # off-chip misses

The last term is where frequency sensitivity lives: the L2 hit latency is
on-chip and counted in *cycles* (constant as the clock scales), while the
memory latency is off-chip and fixed in *seconds*, so it costs more cycles
at higher frequency.  A memory-bound workload (large L2 MPKI) therefore
gains little throughput from frequency — the effect every performance
result in the paper turns on.

Throughput and the power-relevant busy fraction are derived from the
same stack::

    IPS        = alpha * f / CPI(f)                  # instructions/second
    busy       = (CPI_base + L1 term) / CPI(f)       # unstalled cycles

``alpha`` is the phase's architectural activity (issue occupancy and
synchronization idling folded together).  The utilization the PIC's
sensor reads is not derived here: the chip computes it as the core's
switching activity times ``f / f_max`` (see
:meth:`repro.cmpsim.chip.Chip.core_interval`).
:func:`utilization_reference` gives a benchmark's peak IPS for reporting.

Everything is vectorized over cores — inputs may be scalars or aligned
arrays (one entry per core).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import units
from ..config import MemoryConfig
from ..unit_types import GigaHz, GigaHzLike
from ..workloads.benchmark import BenchmarkSpec

__all__ = [
    "CPIStackResult",
    "cpi_stack",
    "cpi_stack_arrays",
    "frequency_speedup",
    "memory_cycles_per_instruction",
    "utilization_reference",
]


@dataclass(frozen=True)
class CPIStackResult:
    """Per-core performance quantities for one interval (arrays or scalars)."""

    cpi: np.ndarray
    busy: np.ndarray
    ips: np.ndarray  # instructions per second


def memory_cycles_per_instruction(
    l2_mpki: np.ndarray | float,
    frequency_ghz: GigaHzLike,
    memory: MemoryConfig,
) -> np.ndarray | float:
    """Off-chip stall cycles per instruction at ``frequency_ghz``."""
    latency_ns = units.to_ns(memory.memory_latency_s)
    return np.asarray(l2_mpki) / 1000.0 * latency_ns * np.asarray(frequency_ghz)


def cpi_stack(
    frequency_ghz: GigaHzLike,
    alpha: np.ndarray | float,
    cpi_base: np.ndarray | float,
    l1_mpki: np.ndarray | float,
    l2_mpki: np.ndarray | float,
    memory: MemoryConfig,
) -> CPIStackResult:
    """Evaluate the CPI stack; all array arguments must be aligned."""
    f = np.asarray(frequency_ghz, dtype=float)
    a = np.asarray(alpha, dtype=float)
    if np.any(f <= 0):
        raise ValueError("frequency must be positive")
    if np.any(a <= 0) or np.any(a > 1):
        raise ValueError("alpha must be in (0, 1]")
    cpi, busy, ips = cpi_stack_arrays(
        f, a, np.asarray(cpi_base), np.asarray(l1_mpki), l2_mpki, memory
    )
    return CPIStackResult(
        cpi=np.asarray(cpi, dtype=float),
        busy=np.asarray(busy, dtype=float),
        ips=np.asarray(ips, dtype=float),
    )


def cpi_stack_arrays(
    frequency_ghz: np.ndarray,
    alpha: np.ndarray,
    cpi_base: np.ndarray,
    l1_mpki: np.ndarray,
    l2_mpki: np.ndarray,
    memory: MemoryConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(cpi, busy, ips)`` of :func:`cpi_stack` on aligned float arrays.

    The unchecked core: no validation, no conversion, no result object.
    The chip's per-interval kernel calls it on inputs whose ranges it
    already guarantees (frequencies off the clamped ladder, alphas out of
    the phase machine's clip).
    """
    onchip = cpi_base + l1_mpki / 1000.0 * memory.l2_hit_cycles
    cpi = onchip + memory_cycles_per_instruction(l2_mpki, frequency_ghz, memory)
    return cpi, onchip / cpi, alpha * frequency_ghz * units.GHZ_TO_HZ / cpi


def utilization_reference(
    spec: BenchmarkSpec, f_max: GigaHz, memory: MemoryConfig
) -> float:
    """The benchmark's peak IPS: full activity at ``f_max``, mean phase.

    A reporting constant: memory-bound benchmarks peak well below
    compute-bound ones.  The utilization the PIC senses is not relative
    to it (see the module docstring).
    """
    result = cpi_stack(
        f_max,
        alpha=1.0,
        cpi_base=spec.mean_cpi_base,
        l1_mpki=float(np.mean([p.l1_mpki for p in spec.phases])),
        l2_mpki=spec.mean_l2_mpki,
        memory=memory,
    )
    return float(result.ips)


def frequency_speedup(
    f_from: GigaHz,
    f_to: GigaHz,
    cpi_onchip: float,
    mem_cpi_per_ghz: float,
) -> float:
    """Predicted throughput ratio when scaling ``f_from`` → ``f_to``.

    ``mem_cpi_per_ghz`` is the off-chip term's frequency coefficient
    (``L2_MPKI/1000 * lat_mem_ns``); both inputs are observable from
    performance counters, which is how MaxBIPS builds its prediction
    table.
    """
    if f_from <= 0 or f_to <= 0:
        raise ValueError("frequencies must be positive")
    if cpi_onchip <= 0:
        raise ValueError("cpi_onchip must be positive")
    ips_from = f_from / (cpi_onchip + mem_cpi_per_ghz * f_from)
    ips_to = f_to / (cpi_onchip + mem_cpi_per_ghz * f_to)
    return ips_to / ips_from

"""Vectorized chip state: cores, islands, power, thermal, normalization.

A :class:`Chip` owns everything the per-interval evaluation needs as flat
NumPy arrays over cores (the guides' idiom: one vectorized pass instead
of per-core Python objects).  :meth:`Chip.compute_interval` turns the
interval's workload samples plus the current island frequencies into
performance and power for every core, island and the chip, and advances
the thermal network.

The chip also fixes the normalization constant the whole library reports
against: ``max_power_w`` is the chip's power with every core fully active
at the top operating point (plus the uncore share), and all budgets,
set-points and power series are fractions of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .. import units
from ..arrayops import island_sums
from ..config import CMPConfig
from ..power.model import CorePowerModel
from ..thermal.floorplan import Floorplan, grid_floorplan
from ..unit_types import (
    Bips,
    BipsArray,
    CelsiusArray,
    GigaHz,
    GigaHzArray,
    GigaHzLike,
    PowerFraction,
    PowerFractionArray,
    Seconds,
    Watts,
    WattsArray,
)
from ..thermal.rc_model import RCThermalModel
from ..variation.leakage_variation import (
    island_multipliers_to_cores,
    uniform_multipliers,
)
from ..workloads.benchmark import BenchmarkSpec
from .core import cpi_stack_arrays
from .dvfs import DVFSTable

__all__ = ["Chip", "CoreInterval", "IntervalResult"]


class CoreInterval(NamedTuple):
    """Per-core results of :meth:`Chip.core_interval` plus their island sums."""

    busy: np.ndarray
    ips: np.ndarray
    instructions: np.ndarray
    power_w: WattsArray
    utilization: np.ndarray
    island_power_w: WattsArray
    island_bips: BipsArray
    island_utilization: np.ndarray


@dataclass(frozen=True)
class IntervalResult:
    """Everything measured over one simulation interval."""

    dt: Seconds
    #: Per-core arrays.
    core_busy: np.ndarray
    core_ips: np.ndarray
    core_instructions: np.ndarray
    core_power_w: WattsArray
    core_utilization: np.ndarray
    core_temperature_c: CelsiusArray
    #: Per-island arrays.
    island_power_w: WattsArray
    island_power_frac: PowerFractionArray
    island_bips: BipsArray
    island_utilization: np.ndarray
    island_frequency_ghz: GigaHzArray
    #: Chip scalars.
    chip_power_w: Watts
    chip_power_frac: PowerFraction
    chip_bips: Bips


class Chip:
    """The simulated CMP: per-core state plus island-level DVFS."""

    #: Normalization constant: every power fraction is relative to it.
    max_power_w: Watts

    def __init__(
        self,
        config: CMPConfig,
        specs: Sequence[BenchmarkSpec],
        floorplan: Floorplan | None = None,
    ) -> None:
        if len(specs) != config.n_cores:
            raise ValueError(
                f"need one benchmark per core: {config.n_cores} cores, "
                f"{len(specs)} specs"
            )
        self.config = config
        self.specs = tuple(specs)
        self.dvfs = DVFSTable(config.dvfs.vf_table)
        self.power_model = CorePowerModel(
            config.core, nominal_voltage=float(self.dvfs.voltages[-1])
        )
        self.floorplan = floorplan or grid_floorplan(config.n_cores)
        self.thermal = RCThermalModel(self.floorplan, config.thermal)

        self.island_of_core = np.array(
            [config.island_of_core(c) for c in range(config.n_cores)]
        )
        if config.island_leakage_multipliers is not None:
            self.leakage_multipliers = island_multipliers_to_cores(
                config.island_leakage_multipliers, config.cores_per_island
            )
        else:
            self.leakage_multipliers = uniform_multipliers(config.n_cores)

        # Islands start at the top operating point (the no-management state).
        self.island_frequency = np.full(config.n_islands, self.dvfs.f_max)

        self._init_normalization()

    # ------------------------------------------------------------------
    # Normalization
    # ------------------------------------------------------------------
    def _init_normalization(self) -> None:
        v_max = float(self.dvfs.voltages[-1])
        f_max = self.dvfs.f_max
        per_core_max = self.power_model.power(
            v_max,
            f_max,
            busy=1.0,
            alpha=1.0,
            temperature_c=self.power_model.leakage.nominal_temperature_c,
            leakage_multiplier=self.leakage_multipliers,
        )
        cores_max = float(np.sum(per_core_max))
        uncore_fraction = self.config.uncore_fraction
        self.uncore_power_w = cores_max * uncore_fraction / (1.0 - uncore_fraction)
        self.max_power_w = cores_max + self.uncore_power_w
        self._per_core_max_w = np.asarray(per_core_max, dtype=float)
        # Static per-island power bounds, cached here because every GPM
        # bind re-asks for them (see island_power_bounds).
        per_core_min = self.power_model.power(
            float(self.dvfs.voltages[0]),
            self.dvfs.f_min,
            busy=0.0,
            alpha=1.0,
            temperature_c=self.power_model.leakage.nominal_temperature_c,
            leakage_multiplier=self.leakage_multipliers,
        )
        n_islands = self.config.n_islands
        self._island_min_frac = (
            island_sums(
                self.island_of_core, np.asarray(per_core_min, dtype=float), n_islands
            )
            / self.max_power_w
        )
        self._island_max_frac = (
            island_sums(self.island_of_core, self._per_core_max_w, n_islands)
            / self.max_power_w
        )

    @property
    def uncore_fraction(self) -> PowerFraction:
        """Uncore power as a fraction of max chip power (always drawn)."""
        return self.uncore_power_w / self.max_power_w

    def island_power_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Static per-island (min, max) power as fractions of max power.

        Max: every core fully active at the top point.  Min: every core
        idle (clock-gating floor) at the bottom point.  Real consumption
        always lies between; the bounds keep GPM set-points sane.

        Returns fresh copies — some schemes (e.g. no-management) mutate the
        returned arrays as their set-points.
        """
        return self._island_min_frac.copy(), self._island_max_frac.copy()

    # ------------------------------------------------------------------
    # Actuation
    # ------------------------------------------------------------------
    def set_island_frequency(self, island: int, frequency_ghz: GigaHz) -> GigaHz:
        """Apply a frequency request to an island; returns what was applied.

        The request is clamped to the ladder's range and, in quantized
        mode, snapped to the nearest table point — the actuator semantics
        of the paper's architecture.
        """
        if not 0 <= island < self.config.n_islands:
            raise IndexError(f"island {island} out of range")
        f = self._actuate(frequency_ghz)
        self.island_frequency[island] = f
        return float(f)

    def set_island_frequencies(self, frequencies_ghz: GigaHzArray) -> None:
        """Apply one request per island at once, with the same clamp and
        quantization as :meth:`set_island_frequency`."""
        f = np.asarray(frequencies_ghz, dtype=float)
        if f.shape != (self.config.n_islands,):
            raise ValueError("need one frequency per island")
        self.island_frequency[:] = self._actuate(f)

    def _actuate(self, frequency_ghz: GigaHzLike) -> GigaHzLike:
        f = self.dvfs.clamp(frequency_ghz)
        if self.config.dvfs.mode == "quantized":
            f = self.dvfs.quantize(f)
        return f

    def core_frequencies(self) -> GigaHzArray:
        """Per-core frequency vector implied by island settings."""
        return self.island_frequency[self.island_of_core]

    # ------------------------------------------------------------------
    # Per-interval evaluation
    # ------------------------------------------------------------------
    def compute_interval(
        self,
        alpha: np.ndarray,
        cpi_base: np.ndarray,
        l1_mpki: np.ndarray,
        l2_mpki: np.ndarray,
        dt: Seconds,
        transitioned_islands: np.ndarray | None = None,
    ) -> IntervalResult:
        """Evaluate one interval under the current island frequencies.

        The four workload inputs are float arrays with one entry per
        core.  ``transitioned_islands`` (a bool array, one entry per
        island) flags islands whose V/F changed entering this interval;
        their cores lose the DVFS transition overhead (0.5% of CPU time,
        during which no instructions execute).
        """
        n_cores = self.config.n_cores
        for name, arr in (
            ("alpha", alpha),
            ("cpi_base", cpi_base),
            ("l1_mpki", l1_mpki),
            ("l2_mpki", l2_mpki),
        ):
            if np.shape(arr) != (n_cores,):
                raise ValueError(f"{name} must have one entry per core")
        self.thermal.check_dt(dt)

        cores = self.core_interval(
            self.island_frequency,
            self.island_of_core,
            alpha,
            cpi_base,
            l1_mpki,
            l2_mpki,
            self.thermal.temperatures,
            self.leakage_multipliers,
            dt,
            transitioned_islands,
        )
        island_power = cores.island_power_w
        chip_power = float(island_power.sum() + self.uncore_power_w)

        new_temps = self.thermal.advance(cores.power_w, dt)

        return IntervalResult(
            dt=dt,
            core_busy=cores.busy,
            core_ips=cores.ips,
            core_instructions=cores.instructions,
            core_power_w=cores.power_w,
            core_utilization=cores.utilization,
            core_temperature_c=new_temps.copy(),
            island_power_w=island_power,
            island_power_frac=island_power / self.max_power_w,
            island_bips=cores.island_bips,
            island_utilization=cores.island_utilization,
            island_frequency_ghz=self.island_frequency.copy(),
            chip_power_w=chip_power,
            chip_power_frac=chip_power / self.max_power_w,
            chip_bips=float(cores.island_bips.sum()),
        )

    def core_interval(
        self,
        island_frequency: GigaHzArray,
        island_of_core: np.ndarray,
        alpha: np.ndarray,
        cpi_base: np.ndarray,
        l1_mpki: np.ndarray,
        l2_mpki: np.ndarray,
        temperature_c: CelsiusArray,
        leakage_multiplier: np.ndarray,
        dt: Seconds,
        transitioned_islands: np.ndarray | None = None,
    ) -> CoreInterval:
        """The per-core math of one interval, without thermal state.

        CPI stack, activity, power, utilization, effective ``dt`` and the
        island sums, for cores running under ``island_frequency``.  The
        core vector may stack several copies of this chip: copy ``r``'s
        cores map to islands ``r * n_islands + island``, with the
        frequencies, transition flags and leakage multipliers repeated
        per copy.  Every quantity is elementwise or an in-order island
        sum, so each copy's results are bit for bit those of evaluating
        it alone.  :meth:`compute_interval` calls this on its own cores.

        Inputs must be float arrays of the stated lengths (they are not
        converted or shape-checked here); the models' unchecked array
        cores do the arithmetic, so every formula lives in its model.
        The one range check the kernel relies on — frequencies on the
        ladder — is made on the island vector.
        """
        cfg = self.config
        n_islands = len(island_frequency)
        # Out-of-ladder frequencies raise here, once per island.
        volt = self.dvfs.voltage_at(island_frequency)[island_of_core]
        freq = island_frequency[island_of_core]

        # Ranges are guaranteed upstream: frequencies come off the clamped
        # ladder, alphas out of the phase machine's clip.
        _cpi, busy, ips = cpi_stack_arrays(
            freq, alpha, cpi_base, l1_mpki, l2_mpki, cfg.memory
        )

        if transitioned_islands is not None and transitioned_islands.any():
            mask = transitioned_islands[island_of_core]
            effective_dt = np.where(
                mask, dt * (1.0 - cfg.dvfs.transition_overhead), dt
            )
        else:
            # Scalar broadcasts identically to np.full(n_cores, dt) and
            # skips two array allocations on the common no-transition path.
            effective_dt = dt
        instructions = ips * effective_dt

        # One activity evaluation feeds both the power model and the
        # utilization sensor.  Utilization = switching-activity-weighted
        # cycle rate relative to the peak cycle rate: the perf-counter
        # quantity the PIC's sensor reads.  Monotone in frequency for every
        # workload class, which is what makes the Figure 6 linear fits tight.
        power_model = self.power_model
        activity = power_model.dynamic.activity_arrays(busy, alpha)
        core_power = power_model.power_arrays(
            volt, freq, activity, temperature_c, leakage_multiplier
        )
        utilization = activity * freq / self.dvfs.f_max
        island_util = island_sums(island_of_core, utilization, n_islands)
        island_util /= cfg.cores_per_island
        return CoreInterval(
            busy=busy,
            ips=ips,
            instructions=instructions,
            power_w=core_power,
            utilization=utilization,
            island_power_w=island_sums(island_of_core, core_power, n_islands),
            island_bips=island_sums(
                island_of_core, units.bips(instructions, effective_dt), n_islands
            ),
            island_utilization=island_util,
        )

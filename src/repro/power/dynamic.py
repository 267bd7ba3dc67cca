"""Per-structure dynamic power model (the Wattch analogue).

Dynamic power of CMOS is ``P = alpha * C * V^2 * f``.  Wattch computes the
capacitance ``C`` per microarchitectural structure from circuit-level
models and drives ``alpha`` from per-cycle access counts; here the
structures' *relative* capacitances are fixed weights (calibrated against
published Wattch breakdowns for a 4-wide out-of-order core) and the access
activity of each structure is derived from the two signals the interval
simulator produces: the fraction of cycles the core is doing useful work
(``busy``) and the architectural activity factor of the current workload
phase (``alpha``).

Structures differ in how they respond to stalls:

* The clock tree toggles regardless of work — it is ungateable.
* Front-end/back-end structures follow the busy fraction through the
  linear clock-gating floor.
* Cache arrays see activity proportional to the access rate, which also
  follows the busy fraction.

The decomposition matters for two things: the Table-style power
breakdowns in examples/telemetry, and making the utilization→power
relation (Figure 6) come out of structure-level accounting rather than
being assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

import numpy as np

from .. import units
from ..unit_types import GigaHz, GigaHzLike, Volts, VoltsLike, WattsLike
from .clock_gating import LinearClockGating, unit_clip

__all__ = ["DynamicPowerModel", "STRUCTURES", "StructureSpec"]


@dataclass(frozen=True)
class StructureSpec:
    """One microarchitectural unit in the dynamic power breakdown."""

    name: str
    #: Fraction of the core's total effective capacitance in this unit.
    capacitance_share: float
    #: Whether clock gating can idle this unit at the floor.
    gateable: bool


#: Relative capacitance breakdown of one core.  The shares follow the
#: published Wattch/Alpha-21264-class breakdowns: clock distribution is the
#: single largest consumer, caches and the window/regfile dominate the rest.
#: Every structure is gateable: the paper configures Wattch's *linear*
#: clock-gating mode with a 10% floor for unused components, which gates
#: the clock network along with everything else.
STRUCTURES: Tuple[StructureSpec, ...] = (
    StructureSpec("clock_tree", 0.22, gateable=True),
    StructureSpec("fetch_decode", 0.10, gateable=True),
    StructureSpec("rename_window", 0.12, gateable=True),
    StructureSpec("register_file", 0.08, gateable=True),
    StructureSpec("int_alu", 0.10, gateable=True),
    StructureSpec("fp_alu", 0.08, gateable=True),
    StructureSpec("load_store", 0.07, gateable=True),
    StructureSpec("l1_icache", 0.08, gateable=True),
    StructureSpec("l1_dcache", 0.10, gateable=True),
    StructureSpec("result_bus", 0.05, gateable=True),
)

_SHARE_SUM = sum(s.capacitance_share for s in STRUCTURES)
if not units.approx_eq(_SHARE_SUM, 1.0):  # pragma: no cover - module-load invariant
    raise AssertionError(f"structure shares must sum to 1, got {_SHARE_SUM}")


class DynamicPowerModel:
    """Computes core dynamic power from (V, f, busy fraction, phase alpha).

    Parameters
    ----------
    effective_capacitance:
        Whole-core effective switching capacitance in W / (V² · GHz) — the
        power a fully-active core draws per volt² per GHz.
    gating:
        The clock-gating scheme applied to gateable structures.
    """

    def __init__(
        self,
        effective_capacitance: float,
        gating: LinearClockGating | None = None,
        stall_activity: float = 0.7,
    ) -> None:
        if effective_capacitance <= 0:
            raise ValueError("effective_capacitance must be positive")
        if not 0.0 <= stall_activity <= 1.0:
            raise ValueError("stall_activity must be in [0, 1]")
        self.effective_capacitance = effective_capacitance
        self.gating = gating or LinearClockGating()
        self.stall_activity = stall_activity
        self._shares = np.array([s.capacitance_share for s in STRUCTURES])
        self._gateable = np.array([s.gateable for s in STRUCTURES])
        self._gate_share = float(self._shares[self._gateable].sum())
        self._fixed_share = 1.0 - self._gate_share

    def core_activity(
        self, busy: float | np.ndarray, alpha: float | np.ndarray
    ) -> float | np.ndarray:
        """Fraction of the core's switching capacity exercised per cycle.

        ``busy`` is the fraction of cycles not stalled on off-chip memory;
        ``alpha`` is the workload's architectural activity during those
        cycles (issue-slot occupancy).  Stalled cycles still toggle the
        machine at ``stall_activity`` (full window, speculative
        wakeup/select, replay) — an out-of-order core waiting on DRAM is
        far from quiet.
        """
        activity = self.activity_arrays(busy, alpha)
        if activity.ndim == 0:
            return float(activity)
        return activity

    def activity_arrays(
        self, busy: float | np.ndarray, alpha: float | np.ndarray
    ) -> np.ndarray:
        """:meth:`core_activity` without the scalar unwrapping (the
        unchecked array core the chip's kernel calls)."""
        b = unit_clip(busy)
        return unit_clip(alpha) * b + self.stall_activity * (1.0 - b)

    def power(
        self,
        voltage: VoltsLike,
        frequency_ghz: GigaHzLike,
        busy: float | np.ndarray,
        alpha: float | np.ndarray = 1.0,
    ) -> WattsLike:
        """Dynamic power in watts.  Accepts scalars or aligned arrays."""
        return self.power_from_activity(
            voltage, frequency_ghz, self.core_activity(busy, alpha)
        )

    def power_from_activity(
        self,
        voltage: VoltsLike,
        frequency_ghz: GigaHzLike,
        activity: float | np.ndarray,
    ) -> WattsLike:
        """Dynamic power in watts for a precomputed :meth:`core_activity`.

        Callers that also need the activity itself (the chip derives the
        utilization sensor reading from it) evaluate it once and pass it
        here; :meth:`power` is exactly this composition.
        """
        v = np.asarray(voltage, dtype=float)
        f = np.asarray(frequency_ghz, dtype=float)
        if np.any(v <= 0) or np.any(f <= 0):
            raise ValueError("voltage and frequency must be positive")
        result = self.power_arrays(v, f, activity)
        if result.ndim == 0:
            return float(result)
        return result

    def power_arrays(
        self, voltage: np.ndarray, frequency_ghz: np.ndarray, activity: np.ndarray
    ) -> np.ndarray:
        """:meth:`power_from_activity` on float arrays: no validation, no
        conversion (the unchecked array core the chip's kernel calls)."""
        # Ungateable structures contribute their full share; the rest
        # follow the activity through the linear clock-gating floor.
        switching = self._fixed_share + self._gate_share * (
            self.gating.effective_activity(activity)
        )
        return self.effective_capacitance * voltage**2 * frequency_ghz * switching

    def breakdown(
        self,
        voltage: Volts,
        frequency_ghz: GigaHz,
        busy: float,
        alpha: float = 1.0,
    ) -> Mapping[str, float]:
        """Per-structure dynamic power in watts (scalar operating point)."""
        if voltage <= 0 or frequency_ghz <= 0:
            raise ValueError("voltage and frequency must be positive")
        activity = float(self.core_activity(busy, alpha))
        base = self.effective_capacitance * voltage**2 * frequency_ghz
        out: dict[str, float] = {}
        for spec in STRUCTURES:
            if spec.gateable:
                act = self.gating.effective_activity(activity)
            else:
                act = 1.0
            out[spec.name] = base * spec.capacitance_share * act
        return out

"""The PIC bank: every island's per-island controller in flat lists.

The second tier runs one PID loop per island every ``T_local``.  Rather
than one controller object per island, a :class:`PICBank` holds every
island's loop state in plain Python lists — the EWMA sensor state, the
PID state (:class:`~repro.control.pid.PIDBank`), the actuator frequency
(:class:`~repro.pic.actuator.ActuatorBank`) and the sensor-guard state —
and steps all islands with one :meth:`PICBank.step` call per tick.
Lists, not numpy arrays: at 4–8 islands each ufunc call costs more than
the scalar arithmetic it would vectorize.

Each recurrence exists once, as a per-island method here or on the PID
and actuator banks; :class:`~repro.pic.controller.PerIslandController`
and :class:`~repro.pic.guard.GuardedPerIslandController` are views onto
one island of a bank.

Two seams let fault injection (:mod:`repro.faults`) corrupt the loop
without replacing any of it:

* the **reading seam** (:meth:`PICBank.intercept`) rewrites an island's
  utilization reading before the guard sees it;
* the **actuation seam** (:meth:`ActuatorBank.intercept`) rewrites an
  island's requested frequency before the ladder clamp.

In both, the most recently added fault sees the raw value first.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from ..cmpsim.telemetry import ResilienceLog
from ..control.pid import PIDBank, PIDGains
from ..power.transducer import LinearTransducer
from ..unit_types import GigaHz, PowerFraction
from ..units import EPS
from .actuator import ActuatorBank

__all__ = [
    "MODE_FAILSAFE",
    "MODE_HOLD",
    "MODE_NOMINAL",
    "PICBank",
    "SensorGuardConfig",
]

#: Guard modes, in degradation order.
MODE_NOMINAL = "nominal"
MODE_HOLD = "hold"
MODE_FAILSAFE = "failsafe"


@dataclass(frozen=True)
class SensorGuardConfig:
    """Plausibility limits and state-machine thresholds for one sensor."""

    #: Plausible utilization range.  Utilization is a fraction of cycles;
    #: the ceiling leaves headroom for transducer calibration quirks.
    util_min: float = 0.0
    util_max: float = 1.5
    #: Rolling-window length for stuck detection.
    stuck_window: int = 6
    #: Maximum window spread (max - min) still considered stuck.  Real
    #: utilization dithers tick to tick; an exactly-repeated float is a
    #: dead counter.
    stuck_tolerance: float = EPS
    #: Consecutive bad samples before the island is clamped to the
    #: fail-safe frequency floor.
    failsafe_after: int = 8
    #: Consecutive plausible samples before the guard re-arms.
    rearm_after: int = 3
    #: Fail-safe frequency; ``None`` selects the DVFS ladder's floor.
    failsafe_frequency_ghz: GigaHz | None = None

    def __post_init__(self) -> None:
        if not self.util_min < self.util_max:
            raise ValueError("util_min must be below util_max")
        if self.stuck_window < 2:
            raise ValueError("stuck_window must be at least 2")
        if self.stuck_tolerance < 0:
            raise ValueError("stuck_tolerance must be non-negative")
        if self.failsafe_after < 1:
            raise ValueError("failsafe_after must be at least 1")
        if self.rearm_after < 1:
            raise ValueError("rearm_after must be at least 1")


class PICBank:
    """The second-tier controllers of ``n`` islands, stepped together.

    Parameters
    ----------
    gains:
        PID gains shared by every island at construction; faults may
        rewrite ``bank.pid.gains[i]`` afterwards.
    transducers:
        One utilization→power line per island (``bank.transducers``).
    actuator:
        The islands' DVFS knobs, one per transducer.
    max_step_ghz:
        Clamp on each PID output (per-interval frequency swing).
    sensor_smoothing:
        EWMA weight on the newest utilization sample (1.0 = raw
        samples).  The transducer's residual noise would otherwise be
        re-injected into island power as frequency dithering; a real
        PMU's counters are likewise averaged before use.
    guard:
        Sensor-guard thresholds; ``None`` runs every island unguarded
        (a NaN reading then flows straight into the PID).
    log:
        Where guard transitions are recorded.
    islands:
        Island ids logged for each entry (default ``0 .. n-1``).
    """

    def __init__(
        self,
        gains: PIDGains,
        transducers: Sequence[LinearTransducer],
        actuator: ActuatorBank,
        max_step_ghz: GigaHz = 1.0,
        sensor_smoothing: float = 0.5,
        guard: SensorGuardConfig | None = None,
        log: ResilienceLog | None = None,
        islands: Sequence[int] | None = None,
    ) -> None:
        if max_step_ghz <= 0:
            raise ValueError("max_step_ghz must be positive")
        if not 0.0 < sensor_smoothing <= 1.0:
            raise ValueError("sensor_smoothing must be in (0, 1]")
        n = len(transducers)
        if len(actuator) != n:
            raise ValueError(
                f"need one actuator knob per transducer ({n}), got {len(actuator)}"
            )
        self.pid = PIDBank([gains] * n, output_limits=(-max_step_ghz, max_step_ghz))
        self.transducers = list(transducers)
        self.actuator = actuator
        self.sensor_smoothing = sensor_smoothing
        #: EWMA state; ``None`` until the island's first loop invocation.
        self.utilization_state: list[float | None] = [None] * n
        self.seam: list[list[Callable[[float], float]]] = [[] for _ in range(n)]
        # What each island's last invocation did.
        self.reading = [0.0] * n
        self.sensed = [0.0] * n
        self.error = [0.0] * n
        self.delta = [0.0] * n
        # Sensor guard.
        self.guard = guard
        self.log = log if log is not None else ResilienceLog()
        self.islands = list(range(n)) if islands is None else list(islands)
        self.mode = [MODE_NOMINAL] * n
        window = guard.stuck_window if guard is not None else 0
        self.recent: list[deque[float]] = [deque(maxlen=window) for _ in range(n)]
        self.bad_streak = [0] * n
        self.good_streak = [0] * n
        self.last_good: list[float | None] = [None] * n
        self._invoke = self._loop_at if guard is None else self._guarded_at

    def __len__(self) -> int:
        return len(self.transducers)

    @property
    def frequency(self) -> list[float]:
        """Every island's commanded frequency (the actuator's list)."""
        return self.actuator.frequency

    def intercept(self, i: int, fault: Callable[[float], float]) -> None:
        """Rewrite island ``i``'s utilization readings with ``fault``.

        The most recently added callable sees the raw reading first.
        """
        self.seam[i].insert(0, fault)

    # ------------------------------------------------------------------
    def step(
        self, setpoints: Sequence[PowerFraction], utilization: Sequence[float]
    ) -> None:
        """One ``T_local`` invocation of every island, in island order.

        Afterwards :attr:`frequency` holds the applied frequencies and
        :attr:`sensed` the transduced power of every island.
        """
        invoke = self.invoke_at
        for i in range(len(self.transducers)):
            invoke(i, setpoints[i], utilization[i])

    def invoke_at(
        self, i: int, setpoint: PowerFraction, utilization: float
    ) -> GigaHz:
        """One invocation of island ``i``; returns the applied frequency.

        ``setpoint`` is the GPM-provisioned island power (fraction of max
        chip power); ``utilization`` is the island's measured utilization
        over the previous interval.
        """
        for fault in self.seam[i]:
            utilization = fault(utilization)
        return self._invoke(i, setpoint, utilization)

    def _loop_at(
        self, i: int, setpoint: PowerFraction, utilization: float
    ) -> GigaHz:
        """The control loop proper: EWMA, transducer, PID, actuator."""
        state = self.utilization_state[i]
        if state is None:
            state = utilization
        else:
            s = self.sensor_smoothing
            state = s * utilization + (1.0 - s) * state
        self.utilization_state[i] = state
        sensed = float(self.transducers[i](state))
        error = setpoint - sensed
        delta = self.pid.step_at(i, error)
        applied = self.actuator.apply_delta_at(i, delta)
        # Downstream saturation (ladder bounds) must reach the PID too.
        self.pid.notify_saturation_at(i, self.actuator.saturation[i])
        self.reading[i] = utilization
        self.sensed[i] = sensed
        self.error[i] = error
        self.delta[i] = delta
        return applied

    # ------------------------------------------------------------------
    # Sensor guard (see repro.pic.guard for the state machine)
    # ------------------------------------------------------------------
    @property
    def failsafe_frequency(self) -> GigaHz:
        """The frequency an island is pinned to in fail-safe mode."""
        table = self.actuator.table
        if self.guard is not None and self.guard.failsafe_frequency_ghz is not None:
            return table.clamp(self.guard.failsafe_frequency_ghz)
        return table.f_min

    def _classify_at(self, i: int, utilization: float) -> str | None:
        """Why island ``i``'s ``utilization`` is implausible, or None if
        it passes.

        Order matters: a non-finite reading must never enter the stuck
        window (NaN would poison the spread comparison).
        """
        guard = self.guard
        assert guard is not None
        if not math.isfinite(utilization):
            return "nan"
        if not guard.util_min <= utilization <= guard.util_max:
            return "range"
        recent = self.recent[i]
        recent.append(utilization)
        if (
            len(recent) == guard.stuck_window
            and max(recent) - min(recent) <= guard.stuck_tolerance
        ):
            return "stuck"
        return None

    def _held_input_at(self, i: int, setpoint: PowerFraction) -> float:
        """The utilization island ``i``'s safe mode runs on.

        Last-known-good when one exists; otherwise the reading that makes
        the sensed power equal the set-point (zero error — hold the
        current operating point rather than chase a fabricated error).
        """
        last_good = self.last_good[i]
        if last_good is not None:
            return last_good
        t = self.transducers[i]
        if abs(t.k0) < 1e-12:
            return 0.0
        return float((setpoint - t.k1) / t.k0)

    def _guarded_at(
        self, i: int, setpoint: PowerFraction, utilization: float
    ) -> GigaHz:
        """Validate the reading, then run the loop in the guard's mode."""
        guard = self.guard
        assert guard is not None
        verdict = self._classify_at(i, float(utilization))

        if verdict is None:
            self.bad_streak[i] = 0
            self.last_good[i] = float(utilization)
            if self.mode[i] == MODE_NOMINAL:
                return self._loop_at(i, setpoint, utilization)
            # Degraded but readings look healthy again: count toward
            # re-arm, keep safe-mode behaviour until the streak completes.
            self.good_streak[i] += 1
            if self.good_streak[i] >= guard.rearm_after:
                self.log.record("sensor_rearmed", island=self.islands[i])
                self.mode[i] = MODE_NOMINAL
                self.pid.frozen[i] = False
                self.good_streak[i] = 0
                return self._loop_at(i, setpoint, utilization)
        else:
            self.good_streak[i] = 0
            self.bad_streak[i] += 1
            self.log.count(f"sensor_bad_{verdict}")
            if self.mode[i] == MODE_NOMINAL:
                # Integrating the phantom error of a stale input would
                # wind the accumulator up like actuator saturation does.
                self.mode[i] = MODE_HOLD
                self.pid.frozen[i] = True
                self.log.record(
                    "sensor_fault_detected", island=self.islands[i], detail=verdict
                )
            if self.mode[i] == MODE_HOLD and self.bad_streak[i] >= guard.failsafe_after:
                self.mode[i] = MODE_FAILSAFE
                self.log.record(
                    "failsafe_entered", island=self.islands[i], detail=verdict
                )

        held = self._held_input_at(i, setpoint)
        if self.mode[i] == MODE_FAILSAFE:
            # Clamp to the floor: the island's power is then bounded by
            # its minimum no matter what the sensor claims.
            applied = self.actuator.apply_at(i, self.failsafe_frequency)
            sensed = float(self.transducers[i](held))
            self.reading[i] = held
            self.sensed[i] = sensed
            self.error[i] = setpoint - sensed
            self.delta[i] = 0.0
            return applied
        # Hold mode: closed loop on the stale input, integrator frozen.
        return self._loop_at(i, setpoint, held)

    # ------------------------------------------------------------------
    def reset_at(self, i: int, frequency_ghz: GigaHz | None = None) -> None:
        """Clear island ``i``'s controller state and re-seat its knob."""
        self.pid.reset_at(i)
        self.actuator.reset_at(i, frequency_ghz)
        self.utilization_state[i] = None
        self.mode[i] = MODE_NOMINAL
        self.recent[i].clear()
        self.bad_streak[i] = 0
        self.good_streak[i] = 0
        self.last_good[i] = None

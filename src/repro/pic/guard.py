"""Sensor guard: fault detection and safe-mode degradation for the PIC.

The paper's robustness story is analytic (Eq. 13 bounds the tolerable
gain error); nothing in it *detects* a failed sensor.  A stuck or dead
utilization counter therefore silently drives an island to the wrong V/F
for the rest of the run — or, with a NaN reading, poisons the PID state
outright.  This module adds the missing discipline as a guard in front
of every island's loop (implemented once, in
:class:`~repro.pic.bank.PICBank`; :class:`GuardedPerIslandController`
is its one-island view):

1. **validate** every utilization reading — finite, inside a plausible
   range, and not stuck (a rolling window whose spread collapses to
   nothing is a dead counter, because real utilization always dithers);
2. on an implausible reading, enter **hold** mode: the PID runs on the
   last-known-good input and its integrator is frozen (the same
   anti-windup reasoning as actuator saturation — integrating a phantom
   error winds the accumulator up);
3. after ``failsafe_after`` consecutive bad samples, enter **fail-safe**
   mode: the island is clamped to a fail-safe frequency floor, bounding
   its power at the island's minimum regardless of what the sensor says;
4. once ``rearm_after`` consecutive plausible readings arrive, **re-arm**:
   unfreeze the integrator and resume closed-loop tracking.

Every transition is recorded in a
:class:`~repro.cmpsim.telemetry.ResilienceLog` so tests and the chaos
harness (``repro chaos``) can assert on detection and recovery latency.
The guard is pure bookkeeping — no randomness, no clock — so guarded
runs stay bit-identical across ``jobs=N``.  See ``docs/ROBUSTNESS.md``
for the full state machine.
"""

from __future__ import annotations

from ..cmpsim.telemetry import ResilienceLog
from ..control.pid import PIDGains
from ..power.transducer import LinearTransducer
from ..unit_types import GigaHz, PowerFraction
from .actuator import DVFSActuator
from .bank import (
    MODE_FAILSAFE,
    MODE_HOLD,
    MODE_NOMINAL,
    PICBank,
    SensorGuardConfig,
)
from .controller import PerIslandController, PICInvocation

__all__ = [
    "MODE_FAILSAFE",
    "MODE_HOLD",
    "MODE_NOMINAL",
    "GuardedPerIslandController",
    "SensorGuardConfig",
]


class GuardedPerIslandController(PerIslandController):
    """A :class:`PerIslandController` that validates its own sensor.

    Drop-in replacement: same constructor plus the guard knobs, same
    ``invoke`` contract.  With plausible readings the behaviour is
    *bit-identical* to the unguarded controller — the guard only changes
    the trajectory once a reading fails validation.
    """

    def __init__(
        self,
        gains: PIDGains,
        transducer: LinearTransducer,
        actuator: DVFSActuator,
        max_step_ghz: GigaHz = 1.0,
        sensor_smoothing: float = 0.5,
        guard: SensorGuardConfig | None = None,
        log: ResilienceLog | None = None,
        island: int = 0,
    ) -> None:
        self.bank = PICBank(
            gains,
            [transducer],
            actuator.bank,
            max_step_ghz=max_step_ghz,
            sensor_smoothing=sensor_smoothing,
            guard=guard if guard is not None else SensorGuardConfig(),
            log=log,
            islands=[island],
        )
        self.index = 0

    @property
    def guard(self) -> SensorGuardConfig:
        assert self.bank.guard is not None
        return self.bank.guard

    @property
    def log(self) -> ResilienceLog:
        return self.bank.log

    @property
    def island(self) -> int:
        return self.bank.islands[self.index]

    @property
    def mode(self) -> str:
        return self.bank.mode[self.index]

    @property
    def _recent(self):
        return self.bank.recent[self.index]

    @property
    def failsafe_frequency(self) -> GigaHz:
        """The frequency the island is pinned to in fail-safe mode."""
        return self.bank.failsafe_frequency

    def invoke(self, setpoint: PowerFraction, utilization: float) -> PICInvocation:
        """Validate ``utilization``, then run the loop in the guard's mode.

        The same call as :meth:`PerIslandController.invoke` (the bank
        knows it is guarded); defined here so profilers can attribute
        guarded invocations by name.
        """
        return super().invoke(setpoint, utilization)

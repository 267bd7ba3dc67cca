"""The per-island controller: PID + transducer + DVFS actuator.

One :class:`PerIslandController` caps one island's power at the set-point
the GPM provisioned.  Per invocation (every ``T_local``):

1. the island's measured *utilization* is transduced to a power estimate
   (``P = k0 U + k1``, the fitted line of Figure 6);
2. the tracking error against the set-point feeds the PID, producing a
   frequency *delta* (the plant model's control input ``d(t)``);
3. the actuator applies the delta, clamped to the DVFS ladder, and the
   PID is told about any clamping so its integrator does not wind up.

The loop itself lives in :class:`~repro.pic.bank.PICBank`, which steps
every island of a chip at once; a :class:`PerIslandController` is a view
onto one island of a bank, for code that drives a single loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..control.pid import DiscretePID, PIDGains
from ..power.transducer import LinearTransducer
from ..unit_types import GigaHz, PowerFraction
from .actuator import DVFSActuator
from .bank import PICBank

__all__ = ["PICInvocation", "PerIslandController"]


@dataclass(frozen=True)
class PICInvocation:
    """Telemetry of one controller invocation."""

    setpoint: PowerFraction
    utilization: float
    sensed_power: PowerFraction
    error: PowerFraction
    frequency_delta: GigaHz
    applied_frequency: GigaHz


class PerIslandController:
    """The second-tier (local) controller for one voltage/frequency island.

    A view onto one island of a :class:`~repro.pic.bank.PICBank`;
    constructed directly it owns a one-island bank around ``actuator``.
    """

    def __init__(
        self,
        gains: PIDGains,
        transducer: LinearTransducer,
        actuator: DVFSActuator,
        max_step_ghz: GigaHz = 1.0,
        sensor_smoothing: float = 0.5,
    ) -> None:
        """
        Parameters
        ----------
        sensor_smoothing:
            EWMA weight on the newest utilization sample (1.0 = raw
            samples); see :class:`~repro.pic.bank.PICBank`.
        """
        self.bank = PICBank(
            gains,
            [transducer],
            actuator.bank,
            max_step_ghz=max_step_ghz,
            sensor_smoothing=sensor_smoothing,
        )
        self.index = 0

    @property
    def pid(self) -> DiscretePID:
        return DiscretePID.view(self.bank.pid, self.index)

    @property
    def actuator(self) -> DVFSActuator:
        return DVFSActuator.view(self.bank.actuator, self.index)

    @property
    def transducer(self) -> LinearTransducer:
        return self.bank.transducers[self.index]

    @property
    def sensor_smoothing(self) -> float:
        return self.bank.sensor_smoothing

    @property
    def frequency(self) -> GigaHz:
        """The island frequency this controller currently commands."""
        return self.bank.frequency[self.index]

    def invoke(self, setpoint: PowerFraction, utilization: float) -> PICInvocation:
        """One ``T_local`` invocation; returns what happened.

        ``setpoint`` is the GPM-provisioned island power (fraction of max
        chip power); ``utilization`` is the island's measured utilization
        over the previous interval.
        """
        bank, i = self.bank, self.index
        applied = bank.invoke_at(i, setpoint, utilization)
        return PICInvocation(
            setpoint=setpoint,
            utilization=bank.reading[i],
            sensed_power=bank.sensed[i],
            error=bank.error[i],
            frequency_delta=bank.delta[i],
            applied_frequency=applied,
        )

    def reset(self, frequency_ghz: GigaHz | None = None) -> None:
        """Clear controller state and re-seat the actuator."""
        self.bank.reset_at(self.index, frequency_ghz)

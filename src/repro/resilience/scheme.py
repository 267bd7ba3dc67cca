"""GuardedCPMScheme: the paper's CPM with both resilience tiers armed.

Composes the sensor guard (:mod:`repro.pic.guard`) in front of every
island's PID and the GPM guard (:mod:`repro.gpm.guard`) over the provisioning
step.  With healthy telemetry both guards are transparent, so a guarded
clean run is bit-identical to plain :class:`~repro.core.cpm.CPMScheme`;
under injected faults the guards detect, degrade and recover, and every
decision lands in :attr:`GuardedCPMScheme.log` for the chaos harness
(``repro chaos``) and the tests to assert on.
"""

from __future__ import annotations

from ..cmpsim.telemetry import ResilienceLog
from ..core.cpm import CPMScheme
from ..gpm.guard import GPMGuard, GPMGuardConfig
from ..pic.actuator import ActuatorBank
from ..pic.bank import PICBank, SensorGuardConfig
from ..unit_types import GigaHz

__all__ = ["GuardedCPMScheme"]


class GuardedCPMScheme(CPMScheme):
    """CPM with sensor validation, safe mode, and GPM-tier quarantine."""

    name = "cpm-guarded"

    def __init__(
        self,
        policy=None,
        calibration=None,
        max_step_ghz: GigaHz = 1.0,
        initial_frequency_ghz: GigaHz | None = None,
        sensor_guard: SensorGuardConfig | None = None,
        gpm_guard: GPMGuardConfig | None = None,
    ) -> None:
        super().__init__(
            policy=policy,
            calibration=calibration,
            max_step_ghz=max_step_ghz,
            initial_frequency_ghz=initial_frequency_ghz,
        )
        self.sensor_guard = (
            sensor_guard if sensor_guard is not None else SensorGuardConfig()
        )
        self.gpm_guard = gpm_guard if gpm_guard is not None else GPMGuardConfig()
        self.log = ResilienceLog()
        self._gpm_guard_state: GPMGuard | None = None

    # ------------------------------------------------------------------
    def bind(self, sim) -> None:
        # Fresh log per bind: re-running the same scheme object must not
        # accumulate events across runs.  Must happen before super().bind
        # because _make_bank hands the log to the sensor guard.
        self.log = ResilienceLog()
        super().bind(sim)
        assert self._context_static is not None
        self._gpm_guard_state = GPMGuard(
            island_min=self._context_static["island_min"],
            island_max=self._context_static["island_max"],
            config=self.gpm_guard,
            log=self.log,
            self_constrained=getattr(self.policy, "self_constrained", False),
        )

    def _make_bank(self, gains, transducers, actuator: ActuatorBank) -> PICBank:
        return PICBank(
            gains,
            transducers,
            actuator,
            max_step_ghz=self.max_step_ghz,
            guard=self.sensor_guard,
            log=self.log,
        )

    # ------------------------------------------------------------------
    def on_gpm(self, sim) -> None:
        self.log.now = sim.tick
        super().on_gpm(sim)
        assert self._gpm_guard_state is not None
        frequency = None
        if sim.last_result is not None:
            frequency = sim.last_result.island_frequency_ghz
        sim.setpoints = self._gpm_guard_state.review(
            sim.setpoints,
            sim.windows,
            sim.distributable_budget,
            island_frequency=frequency,
            f_floor=sim.chip.dvfs.f_min,
        )

    def on_pic(self, sim) -> None:
        self.log.now = sim.tick
        super().on_pic(sim)

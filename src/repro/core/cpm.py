"""CPMScheme: the coordinated two-tier power manager of Figure 3.

``CPMScheme`` plugs into :class:`repro.cmpsim.simulator.Simulation` and
realizes the architecture end to end:

* every GPM interval it assembles the measurement context and lets the
  :class:`~repro.gpm.manager.GlobalPowerManager` (with any provisioning
  policy) rewrite the per-island set-points;
* every PIC interval one :class:`~repro.pic.bank.PICBank` step runs every
  island's controller: each senses utilization, transduces it to power,
  and nudges its island's frequency to track the set-point.

Controllers are built from an offline :class:`~repro.core.calibration.
Calibration` (system gain → pole-placement PID gains; per-island
transducers); by default the memoized calibration for the simulation's
platform and mix is used.
"""

from __future__ import annotations

import numpy as np

from ..config import CMPConfig
from ..gpm.manager import GlobalPowerManager
from ..gpm.performance_aware import PerformanceAwarePolicy
from ..gpm.policy import GPMContext, ProvisioningPolicy
from ..pic.actuator import ActuatorBank
from ..pic.bank import PICBank
from ..rng import DEFAULT_SEED
from ..unit_types import GigaHz, PowerFraction
from ..workloads.mixes import Mix
from .calibration import Calibration, default_calibration

__all__ = ["CPMScheme", "run_cpm"]


class CPMScheme:
    """The paper's scheme: GPM provisioning + PID power capping."""

    name = "cpm"

    def __init__(
        self,
        policy: ProvisioningPolicy | None = None,
        calibration: Calibration | None = None,
        max_step_ghz: GigaHz = 1.0,
        initial_frequency_ghz: GigaHz | None = None,
    ) -> None:
        self.policy = policy or PerformanceAwarePolicy()
        self.manager = GlobalPowerManager(self.policy)
        self._calibration = calibration
        self.max_step_ghz = max_step_ghz
        self.initial_frequency_ghz = initial_frequency_ghz
        self.bank: PICBank | None = None
        self._context_static: dict | None = None

    @property
    def calibration(self) -> Calibration:
        if self._calibration is None:
            raise RuntimeError("scheme not bound yet; calibration unavailable")
        return self._calibration

    # ------------------------------------------------------------------
    def bind(self, sim) -> None:
        if hasattr(self.policy, "reset"):
            self.policy.reset()
        if self._calibration is None:
            self._calibration = default_calibration(
                sim.config, sim.mix, seed=sim.seeds.root_seed
            )
        cal = self._calibration
        quantized = sim.config.dvfs.mode == "quantized"
        f0 = self.initial_frequency_ghz
        if f0 is None:
            # Seed the operating point proportionally to the budget: a
            # 100% budget starts at the top of the ladder (nothing to
            # cap), tighter budgets start lower — shrinks the start-up
            # transient before the controllers have any measurements.
            table = sim.chip.dvfs
            f0 = table.f_min + (table.f_max - table.f_min) * min(
                1.0, sim.budget_fraction
            )

        actuator = ActuatorBank(
            sim.chip.dvfs,
            sim.config.n_islands,
            quantized=quantized,
            initial_frequency=f0,
        )
        self.bank = self._make_bank(
            gains=cal.pid_gains,
            transducers=cal.island_transducers,
            actuator=actuator,
        )
        sim.chip.set_island_frequencies(np.array(actuator.frequency))

        island_min, island_max = sim.chip.island_power_bounds()
        island_leakage = np.array(
            [
                float(
                    np.mean(
                        sim.chip.leakage_multipliers[
                            sim.chip.island_of_core == i
                        ]
                    )
                )
                for i in range(sim.config.n_islands)
            ]
        )
        self._context_static = {
            "island_min": island_min,
            "island_max": island_max,
            "adjacent_pairs": sim.chip.floorplan.adjacent_island_pairs(
                sim.chip.island_of_core
            ),
            "island_leakage": island_leakage,
        }
        # Initial provisioning: the budget split equally (paper: P_i(0)).
        sim.setpoints = np.full(
            sim.config.n_islands, sim.distributable_budget / sim.config.n_islands
        )

    def _make_bank(self, gains, transducers, actuator: ActuatorBank) -> PICBank:
        """Build the islands' controller bank; subclasses may substitute.

        ``repro.resilience.GuardedCPMScheme`` overrides this to return a
        sensor-guarded bank without re-implementing ``bind``.
        """
        return PICBank(
            gains, transducers, actuator, max_step_ghz=self.max_step_ghz
        )

    # ------------------------------------------------------------------
    def _context(self, sim) -> GPMContext:
        assert self._context_static is not None
        frequency = None
        if sim.last_result is not None:
            frequency = sim.last_result.island_frequency_ghz
        return GPMContext(
            budget=sim.distributable_budget,
            n_islands=sim.config.n_islands,
            windows=sim.windows,
            island_frequency=frequency,
            f_max=sim.chip.dvfs.f_max,
            **self._context_static,
        )

    def on_gpm(self, sim) -> None:
        sim.setpoints = self.manager.provision(self._context(sim))

    def on_pic(self, sim) -> None:
        if sim.last_result is None:
            return  # nothing measured yet; hold the initial operating point
        bank = self.bank
        assert bank is not None
        bank.step(sim.setpoints.tolist(), sim.last_result.island_utilization.tolist())
        # The bank's knobs already clamp (and quantize) to the chip's own
        # ladder, so the chip's actuation would change nothing.
        sim.chip.island_frequency[:] = bank.frequency
        sim.sensed_power[:] = bank.sensed


def run_cpm(
    config: CMPConfig,
    mix: Mix | None = None,
    policy: ProvisioningPolicy | None = None,
    budget_fraction: PowerFraction = 0.8,
    n_gpm_intervals: int = 20,
    seed: int = DEFAULT_SEED,
    calibration: Calibration | None = None,
):
    """Convenience entry point: build and run one CPM simulation.

    Returns the :class:`~repro.cmpsim.simulator.SimulationResult`.
    """
    from ..cmpsim.simulator import Simulation

    scheme = CPMScheme(policy=policy, calibration=calibration)
    sim = Simulation(
        config, scheme, mix=mix, budget_fraction=budget_fraction, seed=seed
    )
    return sim.run(n_gpm_intervals)

"""The per-island PIC objects the PIC bank replaced, kept as its oracle.

``DiscretePID``, ``DVFSActuator``, ``PerIslandController``,
``GuardedPerIslandController`` and the fault wrappers below are verbatim
copies of the per-object implementation: one controller object per
island, faults monkeypatching ``controller.invoke`` and
``actuator.apply``.  :class:`OracleCPMScheme` and
:class:`OracleGuardedCPMScheme` drive a simulation through them exactly
as ``CPMScheme`` used to (GPM tier and guards unchanged), so tests can
assert the list-based :class:`repro.pic.bank.PICBank` reproduces every
output bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.cmpsim.dvfs import DVFSTable
from repro.cmpsim.telemetry import ResilienceLog
from repro.control.pid import PIDGains
from repro.core.calibration import default_calibration
from repro.core.cpm import CPMScheme
from repro.faults import FaultWindow
from repro.pic.controller import PICInvocation
from repro.pic.guard import (
    MODE_FAILSAFE,
    MODE_HOLD,
    MODE_NOMINAL,
    SensorGuardConfig,
)
from repro.power.transducer import LinearTransducer
from repro.resilience import GuardedCPMScheme
from repro.rng import SeedSequenceFactory
from repro.unit_types import GigaHz, PowerFraction


class DiscretePID:
    """Stateful discrete PID evaluating one control step per call.

    Parameters
    ----------
    gains:
        The proportional/integral/derivative coefficients.
    output_limits:
        Optional ``(low, high)`` clamp applied to the raw PID output; used
        both to bound per-step frequency swings and to drive anti-windup.
    """

    def __init__(
        self,
        gains: PIDGains,
        output_limits: tuple[float, float] | None = None,
    ) -> None:
        if output_limits is not None and output_limits[0] >= output_limits[1]:
            raise ValueError(f"invalid output limits {output_limits}")
        self.gains = gains
        self.output_limits = output_limits
        self._integral = 0.0
        # Standard convention e(-1) = 0, which keeps the stateful
        # controller exactly equal to its z-domain form (Equation 10).
        self._previous_error = 0.0
        self._saturated_sign = 0  # -1 clamped low, +1 clamped high, 0 free
        self._frozen = False

    def reset(self) -> None:
        """Forget accumulated state (fresh controller)."""
        self._integral = 0.0
        self._previous_error = 0.0
        self._saturated_sign = 0
        self._frozen = False

    @property
    def integrator_frozen(self) -> bool:
        """Whether the accumulator is currently held (safe-mode anti-windup)."""
        return self._frozen

    def freeze_integrator(self) -> None:
        """Hold the accumulator at its current value until unfrozen.

        Used by the sensor guard's safe mode: while the measurement is
        implausible the loop runs on a stale input, and integrating the
        resulting phantom error would wind the accumulator up exactly
        like actuator saturation does.  P and D terms keep operating.
        """
        self._frozen = True

    def unfreeze_integrator(self) -> None:
        """Resume integration (measurements are trustworthy again)."""
        self._frozen = False

    @property
    def integral(self) -> float:
        """Current value of the error accumulator (for tests/telemetry)."""
        return self._integral

    def step(self, error: float) -> float:
        """Advance one control interval; return the actuation command."""
        g = self.gains
        # Conditional integration: freeze the accumulator while the output
        # is pinned at a limit and the error would push it further out.
        pushes_into_saturation = (
            self._saturated_sign > 0 and error > 0
        ) or (self._saturated_sign < 0 and error < 0)
        if not pushes_into_saturation and not self._frozen:
            self._integral += error

        derivative = error - self._previous_error
        self._previous_error = error

        raw = g.kp * error + g.ki * self._integral + g.kd * derivative
        if self.output_limits is None:
            self._saturated_sign = 0
            return raw
        low, high = self.output_limits
        if raw > high:
            self._saturated_sign = 1
            return high
        if raw < low:
            self._saturated_sign = -1
            return low
        self._saturated_sign = 0
        return raw

    def notify_actuator_saturation(self, sign: int) -> None:
        """Report saturation that happened *downstream* of the PID.

        The PIC's actuator clamps frequency to the DVFS range; that clamp is
        invisible to the raw PID output, so the controller is told about it
        explicitly to keep anti-windup effective.  ``sign`` is +1 when the
        command was clamped from above, -1 from below, 0 when unclamped.
        """
        if sign not in (-1, 0, 1):
            raise ValueError(f"saturation sign must be -1, 0 or 1, got {sign}")
        if sign != 0:
            self._saturated_sign = sign


class DVFSActuator:
    """Stateful frequency knob for one island."""

    def __init__(
        self,
        table: DVFSTable,
        quantized: bool = False,
        initial_frequency: GigaHz | None = None,
    ) -> None:
        self.table = table
        self.quantized = quantized
        f0 = table.f_max if initial_frequency is None else table.clamp(initial_frequency)
        if quantized:
            f0 = table.quantize(f0)
        self.frequency: GigaHz = float(f0)
        #: +1 when the last command was clamped from above, -1 from below.
        self.last_saturation = 0

    def apply_delta(self, delta_ghz: GigaHz) -> GigaHz:
        """Shift the operating frequency by ``delta_ghz``; returns applied f."""
        return self.apply(self.frequency + delta_ghz)

    def apply(self, frequency_ghz: GigaHz) -> GigaHz:
        """Set an absolute frequency request; returns the applied value."""
        requested = frequency_ghz
        applied = self.table.clamp(requested)
        if requested > applied:
            self.last_saturation = 1
        elif requested < applied:
            self.last_saturation = -1
        else:
            self.last_saturation = 0
        if self.quantized:
            applied = self.table.quantize(applied)
        self.frequency = float(applied)
        return self.frequency

    def reset(self, frequency_ghz: GigaHz | None = None) -> None:
        """Return to an initial state (default: top of the ladder)."""
        f = self.table.f_max if frequency_ghz is None else frequency_ghz
        self.frequency = self.table.clamp(f)
        if self.quantized:
            self.frequency = self.table.quantize(self.frequency)
        self.last_saturation = 0


class PerIslandController:
    """The second-tier (local) controller for one voltage/frequency island."""

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
            samples).  The transducer's residual noise would otherwise be
            re-injected into island power as frequency dithering; a real
            PMU's counters are likewise averaged before use.
        """
        if max_step_ghz <= 0:
            raise ValueError("max_step_ghz must be positive")
        if not 0.0 < sensor_smoothing <= 1.0:
            raise ValueError("sensor_smoothing must be in (0, 1]")
        self.pid = DiscretePID(gains, output_limits=(-max_step_ghz, max_step_ghz))
        self.transducer = transducer
        self.actuator = actuator
        self.sensor_smoothing = sensor_smoothing
        self._utilization_state: float | None = None

    @property
    def frequency(self) -> GigaHz:
        """The island frequency this controller currently commands."""
        return self.actuator.frequency

    def invoke(self, setpoint: PowerFraction, utilization: float) -> PICInvocation:
        """One ``T_local`` invocation; returns what happened.

        ``setpoint`` is the GPM-provisioned island power (fraction of max
        chip power); ``utilization`` is the island's measured utilization
        over the previous interval.
        """
        if self._utilization_state is None:
            self._utilization_state = utilization
        else:
            s = self.sensor_smoothing
            self._utilization_state = (
                s * utilization + (1.0 - s) * self._utilization_state
            )
        sensed = float(self.transducer(self._utilization_state))
        error = setpoint - sensed
        delta = self.pid.step(error)
        applied = self.actuator.apply_delta(delta)
        # Downstream saturation (ladder bounds) must reach the PID too.
        self.pid.notify_actuator_saturation(self.actuator.last_saturation)
        return PICInvocation(
            setpoint=setpoint,
            utilization=utilization,
            sensed_power=sensed,
            error=error,
            frequency_delta=delta,
            applied_frequency=applied,
        )

    def reset(self, frequency_ghz: GigaHz | None = None) -> None:
        """Clear controller state and re-seat the actuator."""
        self.pid.reset()
        self.actuator.reset(frequency_ghz)
        self._utilization_state = None


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
        super().__init__(
            gains,
            transducer,
            actuator,
            max_step_ghz=max_step_ghz,
            sensor_smoothing=sensor_smoothing,
        )
        self.guard = guard if guard is not None else SensorGuardConfig()
        self.log = log if log is not None else ResilienceLog()
        self.island = island
        self.mode = MODE_NOMINAL
        self._recent: deque[float] = deque(maxlen=self.guard.stuck_window)
        self._bad_streak = 0
        self._good_streak = 0
        self._last_good: float | None = None

    # ------------------------------------------------------------------
    @property
    def failsafe_frequency(self) -> GigaHz:
        """The frequency the island is pinned to in fail-safe mode."""
        if self.guard.failsafe_frequency_ghz is not None:
            return self.actuator.table.clamp(self.guard.failsafe_frequency_ghz)
        return self.actuator.table.f_min

    def _classify(self, utilization: float) -> str | None:
        """Why ``utilization`` is implausible, or None if it passes.

        Order matters: a non-finite reading must never enter the stuck
        window (NaN would poison the spread comparison).
        """
        if not np.isfinite(utilization):
            return "nan"
        if not self.guard.util_min <= utilization <= self.guard.util_max:
            return "range"
        self._recent.append(utilization)
        if (
            len(self._recent) == self.guard.stuck_window
            and max(self._recent) - min(self._recent)
            <= self.guard.stuck_tolerance
        ):
            return "stuck"
        return None

    def _held_input(self, setpoint: PowerFraction) -> float:
        """The utilization safe mode runs on while the sensor is out.

        Last-known-good when one exists; otherwise the reading that makes
        the sensed power equal the set-point (zero error — hold the
        current operating point rather than chase a fabricated error).
        """
        if self._last_good is not None:
            return self._last_good
        t = self.transducer
        if abs(t.k0) < 1e-12:
            return 0.0
        return float((setpoint - t.k1) / t.k0)

    # ------------------------------------------------------------------
    def invoke(self, setpoint: PowerFraction, utilization: float) -> PICInvocation:
        verdict = self._classify(float(utilization))

        if verdict is None:
            self._bad_streak = 0
            self._last_good = float(utilization)
            if self.mode == MODE_NOMINAL:
                return super().invoke(setpoint, utilization)
            # Degraded but readings look healthy again: count toward
            # re-arm, keep safe-mode behaviour until the streak completes.
            self._good_streak += 1
            if self._good_streak >= self.guard.rearm_after:
                self.log.record("sensor_rearmed", island=self.island)
                self.mode = MODE_NOMINAL
                self.pid.unfreeze_integrator()
                self._good_streak = 0
                return super().invoke(setpoint, utilization)
        else:
            self._good_streak = 0
            self._bad_streak += 1
            self.log.count(f"sensor_bad_{verdict}")
            if self.mode == MODE_NOMINAL:
                self.mode = MODE_HOLD
                self.pid.freeze_integrator()
                self.log.record(
                    "sensor_fault_detected", island=self.island, detail=verdict
                )
            if (
                self.mode == MODE_HOLD
                and self._bad_streak >= self.guard.failsafe_after
            ):
                self.mode = MODE_FAILSAFE
                self.log.record(
                    "failsafe_entered", island=self.island, detail=verdict
                )

        held = self._held_input(setpoint)
        if self.mode == MODE_FAILSAFE:
            # Clamp to the floor: the island's power is then bounded by
            # its minimum no matter what the sensor claims.
            applied = self.actuator.apply(self.failsafe_frequency)
            sensed = float(self.transducer(held))
            return PICInvocation(
                setpoint=setpoint,
                utilization=held,
                sensed_power=sensed,
                error=setpoint - sensed,
                frequency_delta=0.0,
                applied_frequency=applied,
            )
        # Hold mode: closed loop on the stale input, integrator frozen.
        return super().invoke(setpoint, held)

    def reset(self, frequency_ghz: GigaHz | None = None) -> None:
        super().reset(frequency_ghz)
        self.mode = MODE_NOMINAL
        self._recent.clear()
        self._bad_streak = 0
        self._good_streak = 0
        self._last_good = None


class Fault:
    """Base class: a mutation applied to a bound scheme's controllers."""

    def apply(self, scheme, sim) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def suppresses_gpm(self, sim) -> bool:
        """Whether the GPM invocation at the current tick should be lost.

        Overridden by :class:`MissedGPMFault`; everything else returns
        False.  Queried by :class:`FaultySchemeWrapper` on every GPM
        tick.
        """
        del sim
        return False


@dataclass
class GainError(Fault):
    """The plant's true gain differs from the identified one.

    Implemented by scaling every PID's gains *down* by ``multiplier`` —
    equivalent, from the loop's perspective, to the true plant gain being
    ``multiplier`` times the design gain (the quantity Eq. 13 bounds).
    """

    multiplier: float

    def __post_init__(self):
        if self.multiplier <= 0:
            raise ValueError("multiplier must be positive")

    def apply(self, scheme, sim) -> None:
        for controller in scheme.controllers:
            controller.pid.gains = controller.pid.gains.scaled(self.multiplier)


@dataclass
class BiasedTransducer(Fault):
    """Systematic sensing offset: every island's sensed power is shifted
    by ``bias`` (fraction of max chip power).  Models calibration drift;
    the integral term cannot remove it because the loop regulates the
    *sensed* value."""

    bias: float

    def apply(self, scheme, sim) -> None:
        for controller in scheme.controllers:
            old = controller.transducer
            controller.transducer = LinearTransducer(
                k0=old.k0, k1=old.k1 + self.bias, r_squared=old.r_squared
            )


@dataclass
class NoisySensor(Fault):
    """Additive white noise on the utilization reading."""

    sigma: float
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")

    def apply(self, scheme, sim) -> None:
        rng = SeedSequenceFactory(self.seed).generator("faults/noisy-sensor")

        for controller in scheme.controllers:
            original = controller.invoke

            def invoke(setpoint, utilization, _orig=original):  # lint: ignore[EFF004] one noise stream shared across controllers is the modelled fault: draws must interleave in invocation order
                noisy = utilization + float(rng.normal(0.0, self.sigma))
                return _orig(setpoint, max(noisy, 0.0))

            controller.invoke = invoke


@dataclass
class StuckSensor(Fault):
    """One island's utilization reading freezes at its first value after
    ``stick_after`` invocations — the classic dead-counter failure."""

    island: int
    stick_after: int = 20

    def __post_init__(self):
        if self.island < 0:
            raise ValueError("island must be non-negative")
        if self.stick_after < 0:
            raise ValueError("stick_after must be non-negative")

    def apply(self, scheme, sim) -> None:
        if self.island >= len(scheme.controllers):
            raise ValueError(
                f"island {self.island} out of range "
                f"({len(scheme.controllers)} controllers)"
            )
        controller = scheme.controllers[self.island]
        original = controller.invoke
        state = {"count": 0, "stuck_value": None}

        def invoke(setpoint, utilization, _orig=original):
            state["count"] += 1
            if state["count"] > self.stick_after:
                if state["stuck_value"] is None:
                    state["stuck_value"] = utilization
                utilization = state["stuck_value"]
            return _orig(setpoint, utilization)

        controller.invoke = invoke


def _controller_of(scheme, island: int):
    if island >= len(scheme.controllers):
        raise ValueError(
            f"island {island} out of range ({len(scheme.controllers)} controllers)"
        )
    return scheme.controllers[island]


@dataclass
class TransientSensorDropout(Fault):
    """One island's utilization reads NaN while the window is active.

    The nastiest sensor failure: without a guard the NaN flows through
    the EWMA smoother and poisons the PID state for the *rest of the
    run*, not just the dropout — the fault clears but the controller
    never does.
    """

    island: int
    window: FaultWindow

    def apply(self, scheme, sim) -> None:
        controller = _controller_of(scheme, self.island)
        original = controller.invoke

        def invoke(setpoint, utilization, _orig=original, _sim=sim):
            if self.window.active(_sim.tick):
                utilization = float("nan")
            return _orig(setpoint, utilization)

        controller.invoke = invoke


@dataclass
class ScheduledStuckSensor(Fault):
    """One island's utilization freezes at its last pre-fault value while
    the window is active, then unsticks — the recoverable variant of
    :class:`StuckSensor`."""

    island: int
    window: FaultWindow

    def apply(self, scheme, sim) -> None:
        controller = _controller_of(scheme, self.island)
        original = controller.invoke
        state: dict = {"held": None}

        def invoke(setpoint, utilization, _orig=original, _sim=sim):
            if self.window.active(_sim.tick):
                if state["held"] is None:
                    state["held"] = utilization
                utilization = state["held"]
            else:
                state["held"] = None
            return _orig(setpoint, utilization)

        controller.invoke = invoke


@dataclass
class StuckActuatorFault(Fault):
    """One island's DVFS knob ignores commands while the window is active.

    The knob wedges at ``frequency_ghz`` (default: whatever it was when
    the fault struck) — commands from the PID *and* from the sensor
    guard's fail-safe clamp are both lost, exactly like a wedged voltage
    regulator.  Only the GPM tier can contain this one, by provisioning
    around the island; wedging at the top of the ladder is the scenario
    that forces a quarantine.
    """

    island: int
    window: FaultWindow
    #: Frequency the knob wedges at; ``None`` holds the pre-fault value.
    frequency_ghz: float | None = None

    def apply(self, scheme, sim) -> None:
        actuator = _controller_of(scheme, self.island).actuator
        original = actuator.apply

        def apply_stuck(frequency, _orig=original, _sim=sim, _act=actuator):
            if self.window.active(_sim.tick):
                wedged = (
                    _act.frequency
                    if self.frequency_ghz is None
                    else self.frequency_ghz
                )
                return _orig(wedged)
            return _orig(frequency)

        actuator.apply = apply_stuck


@dataclass
class MissedGPMFault(Fault):
    """GPM invocations are lost while the window is active.

    Models a hung or preempted supervisor: the islands keep tracking
    stale set-points until the GPM comes back.  Applied by
    :class:`FaultySchemeWrapper` (nothing on the scheme is mutated).
    """

    window: FaultWindow

    def apply(self, scheme, sim) -> None:
        del scheme, sim  # enforced via suppresses_gpm, not mutation

    def suppresses_gpm(self, sim) -> bool:
        return self.window.active(sim.tick)


@dataclass
class LaggedActuator(Fault):
    """Frequency commands take effect one PIC interval late (an extra
    sample of loop delay on top of the inherent one)."""

    def apply(self, scheme, sim) -> None:
        for controller in scheme.controllers:
            actuator = controller.actuator
            original = actuator.apply
            pending = {"value": actuator.frequency}

            def apply_lagged(frequency, _orig=original, _p=pending):
                delayed = _p["value"]
                _p["value"] = frequency
                return _orig(delayed)

            actuator.apply = apply_lagged


class FaultySchemeWrapper:
    """A scheme decorator that applies faults after the inner bind.

    Unknown attributes delegate to the inner scheme, so telemetry access
    like ``wrapper.log`` or ``wrapper.controllers`` works unchanged.
    Re-binding is safe: faults are only re-applied to controllers that
    have not already been mutated, so a scheme that keeps its controller
    objects across binds never gets a fault stacked twice.
    """

    #: Marker attribute set on every controller a fault pass has touched.
    _MARK = "_faults_applied"

    def __init__(self, inner, faults: list[Fault]):
        self.inner = inner
        self.faults = list(faults)
        self.name = f"{inner.name}+faults"

    def __getattr__(self, name):
        # Bypass normal lookup for our own storage to avoid recursion
        # while unpickling (inner is absent until __dict__ is restored).
        inner = self.__dict__.get("inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)

    def bind(self, sim) -> None:
        self.inner.bind(sim)
        controllers = getattr(self.inner, "controllers", None) or []
        if any(getattr(c, self._MARK, False) for c in controllers):
            # Re-bind with surviving controller objects: the fault
            # wrappers from the previous bind are still in place, and
            # applying them again would stack (double noise, double lag).
            return
        for fault in self.faults:
            fault.apply(self.inner, sim)
        for controller in controllers:
            setattr(controller, self._MARK, True)

    def on_gpm(self, sim) -> None:
        if any(fault.suppresses_gpm(sim) for fault in self.faults):
            return
        self.inner.on_gpm(sim)

    def on_pic(self, sim) -> None:
        self.inner.on_pic(sim)


class OracleCPMScheme(CPMScheme):
    """``CPMScheme`` driving one oracle controller object per island."""

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

        self.controllers = []
        for island in range(sim.config.n_islands):
            actuator = DVFSActuator(
                sim.chip.dvfs, quantized=quantized, initial_frequency=f0
            )
            controller = self._make_controller(
                island,
                gains=cal.pid_gains,
                transducer=cal.island_transducers[island],
                actuator=actuator,
            )
            self.controllers.append(controller)
            sim.chip.set_island_frequency(island, actuator.frequency)

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

    def _make_controller(
        self,
        island: int,
        gains,
        transducer,
        actuator: DVFSActuator,
    ) -> PerIslandController:
        """Build one island's controller; subclasses may substitute.

        :class:`OracleGuardedCPMScheme` overrides this to return a
        sensor-guarded controller without re-implementing ``bind``.
        """
        del island  # the base controller is island-agnostic
        return PerIslandController(
            gains=gains,
            transducer=transducer,
            actuator=actuator,
            max_step_ghz=self.max_step_ghz,
        )

    def on_pic(self, sim) -> None:
        if sim.last_result is None:
            return  # nothing measured yet; hold the initial operating point
        utilization = sim.last_result.island_utilization
        for island, controller in enumerate(self.controllers):
            invocation = controller.invoke(
                float(sim.setpoints[island]), float(utilization[island])
            )
            sim.chip.set_island_frequency(island, invocation.applied_frequency)
            sim.sensed_power[island] = invocation.sensed_power


class OracleGuardedCPMScheme(GuardedCPMScheme, OracleCPMScheme):
    """``GuardedCPMScheme`` with oracle guarded controllers; its GPM guard
    and log stamping are the real ones."""

    def _make_controller(
        self, island: int, gains, transducer, actuator: DVFSActuator
    ) -> GuardedPerIslandController:
        return GuardedPerIslandController(
            gains=gains,
            transducer=transducer,
            actuator=actuator,
            max_step_ghz=self.max_step_ghz,
            guard=self.sensor_guard,
            log=self.log,
            island=island,
        )

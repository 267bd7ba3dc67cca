"""The list-based PIC bank against the per-object controllers it replaced.

``tests/pic_oracle.py`` keeps verbatim copies of the per-island
``PerIslandController`` / ``GuardedPerIslandController`` /
``DVFSActuator`` / ``DiscretePID`` objects and of the monkeypatching
fault wrappers.  Every test here asserts exact equality:

* one :class:`~repro.pic.bank.PICBank` against N oracle controllers on
  random set-point and utilization streams with NaN, out-of-range and
  stuck runs;
* whole ``CPMScheme`` / ``GuardedCPMScheme`` runs against oracle-driven
  schemes, for every chaos scenario and for stacked faults.
"""

import dataclasses

import numpy as np
import pytest

import pic_oracle as oracle
from repro import faults
from repro.cmpsim.dvfs import DVFSTable
from repro.cmpsim.simulator import Simulation
from repro.cmpsim.telemetry import ResilienceLog, Telemetry
from repro.config import DEFAULT_CONFIG, DVFSConfig
from repro.control.pid import PIDGains
from repro.core.cpm import CPMScheme
from repro.experiments import chaos
from repro.pic.actuator import ActuatorBank
from repro.pic.bank import PICBank, SensorGuardConfig
from repro.power.transducer import LinearTransducer
from repro.resilience import GuardedCPMScheme

GAINS = PIDGains(0.4, 0.15, 0.05)
GUARD = SensorGuardConfig()


def _streams(rng, n_islands, n_ticks):
    """Set-points and readings with NaN, out-of-range and stuck runs."""
    setpoints = rng.uniform(0.02, 0.4, (n_ticks, n_islands))
    utilization = rng.uniform(0.05, 1.1, (n_ticks, n_islands))
    # A dropout long enough to reach fail-safe, then random bad runs.
    utilization[50:62, 0] = np.nan
    for island in range(n_islands):
        for _ in range(3):
            start = int(rng.integers(0, n_ticks - 20))
            length = int(rng.integers(1, 20))
            kind = rng.integers(0, 4)
            run = slice(start, start + length)
            if kind == 0:
                utilization[run, island] = np.nan
            elif kind == 1:
                utilization[run, island] = rng.choice([-0.3, 2.5, np.inf])
            elif kind == 2:
                utilization[run, island] = utilization[start, island]
            else:
                utilization[run, island] = rng.uniform(-1.0, 3.0, length)
    return setpoints, utilization


def _transducers(rng, n_islands):
    return [
        LinearTransducer(k0=float(k0), k1=float(k1))
        for k0, k1 in zip(rng.uniform(0.1, 0.5, n_islands), rng.uniform(-0.1, 0.1, n_islands))
    ]


def _oracle_controllers(transducers, guarded, quantized, f0, log):
    table = DVFSTable()
    controllers = []
    for island, transducer in enumerate(transducers):
        actuator = oracle.DVFSActuator(table, quantized=quantized, initial_frequency=f0)
        if guarded:
            controllers.append(
                oracle.GuardedPerIslandController(
                    GAINS, transducer, actuator, guard=GUARD, log=log, island=island
                )
            )
        else:
            controllers.append(oracle.PerIslandController(GAINS, transducer, actuator))
    return controllers


class TestBankAgainstControllers:
    @pytest.mark.parametrize("guarded", [False, True], ids=["plain", "guarded"])
    @pytest.mark.parametrize("quantized", [False, True], ids=["continuous", "quantized"])
    @pytest.mark.parametrize("n_islands", [1, 4, 8])
    def test_streams_match(self, n_islands, quantized, guarded):
        rng = np.random.default_rng(100 * n_islands + 10 * quantized + guarded)
        n_ticks = 200
        transducers = _transducers(rng, n_islands)
        f0 = float(rng.uniform(0.6, 2.0))
        oracle_log, bank_log = ResilienceLog(), ResilienceLog()
        controllers = _oracle_controllers(transducers, guarded, quantized, f0, oracle_log)
        bank = PICBank(
            GAINS,
            transducers,
            ActuatorBank(DVFSTable(), n_islands, quantized=quantized, initial_frequency=f0),
            guard=GUARD if guarded else None,
            log=bank_log,
        )
        assert bank.frequency == [c.frequency for c in controllers]
        setpoints, utilization = _streams(rng, n_islands, n_ticks)
        for t in range(n_ticks):
            oracle_log.now = bank_log.now = t
            invocations = [
                c.invoke(float(setpoints[t, i]), float(utilization[t, i]))
                for i, c in enumerate(controllers)
            ]
            bank.step(setpoints[t].tolist(), utilization[t].tolist())
            for name, got in (
                ("applied_frequency", bank.frequency),
                ("sensed_power", bank.sensed),
                ("error", bank.error),
                ("frequency_delta", bank.delta),
                ("utilization", bank.reading),
            ):
                want = [getattr(inv, name) for inv in invocations]
                assert np.array_equal(got, want, equal_nan=True), (t, name)
            assert np.array_equal(
                bank.pid.integral, [c.pid.integral for c in controllers], equal_nan=True
            )
            assert bank.pid.frozen == [c.pid.integrator_frozen for c in controllers]
            if guarded:
                assert bank.mode == [c.mode for c in controllers]
        assert bank_log.events == oracle_log.events
        assert bank_log.counts == oracle_log.counts
        if guarded:
            assert bank_log.count_of("failsafe_entered") > 0

    def test_failsafe_frequency_request_and_reset(self):
        """A custom fail-safe frequency, then a reset mid-run."""
        guard = SensorGuardConfig(failsafe_frequency_ghz=1.05, failsafe_after=2)
        transducers = [LinearTransducer(0.3, 0.02), LinearTransducer(0.25, -0.01)]
        table = DVFSTable()
        controllers = [
            oracle.GuardedPerIslandController(
                GAINS, t, oracle.DVFSActuator(table, initial_frequency=1.4),
                guard=guard, island=i,
            )
            for i, t in enumerate(transducers)
        ]
        bank = PICBank(
            GAINS, transducers, ActuatorBank(table, 2, initial_frequency=1.4), guard=guard
        )
        readings = [0.5, np.nan, np.nan, np.nan, 0.4, 0.45, 0.41, 0.43, 0.44]
        for t, u in enumerate(readings):
            if t == 5:
                for i, c in enumerate(controllers):
                    c.reset(1.3)
                    bank.reset_at(i, 1.3)
            want = [c.invoke(0.15, u).applied_frequency for c in controllers]
            bank.step([0.15, 0.15], [u, u])
            assert bank.frequency == want


def _telemetry_equal(a: Telemetry, b: Telemetry) -> None:
    for name in Telemetry._SERIES:
        nan_ok = a[name].dtype.kind == "f"
        assert np.array_equal(a[name], b[name], equal_nan=nan_ok), name


def _run(config, scheme, seed, n_gpm, budget=chaos.BUDGET_FRACTION):
    """The run's result, or the exception type it raised."""
    try:
        return Simulation(config, scheme, budget_fraction=budget, seed=seed).run(n_gpm)
    except Exception as exc:  # an unguarded crash is compared too
        return type(exc)


def _assert_runs_equal(new, old, new_scheme, old_scheme):
    if isinstance(old, type):
        assert new is old
    else:
        assert not isinstance(new, type), new
        _telemetry_equal(new.telemetry, old.telemetry)
        assert new.total_instructions == old.total_instructions
    if hasattr(old_scheme, "log"):
        assert new_scheme.log.events == old_scheme.log.events
        assert new_scheme.log.counts == old_scheme.log.counts


def _oracle_fault(fault):
    """The oracle (monkeypatching) twin of a ``repro.faults`` fault."""
    twin = getattr(oracle, type(fault).__name__)
    return twin(**{f.name: getattr(fault, f.name) for f in dataclasses.fields(fault)})


CHAOS_CONFIG = DEFAULT_CONFIG.with_islands(4, 2)


class TestSchemesAgainstOracle:
    @pytest.mark.parametrize("guarded", [False, True], ids=["plain", "guarded"])
    @pytest.mark.parametrize("scenario", chaos.SCENARIOS)
    def test_chaos_scenario(self, scenario, guarded):
        window = faults.FaultWindow(40, 80)
        fault = chaos._make_fault(scenario, window)
        if guarded:
            new_base, old_base = GuardedCPMScheme(), oracle.OracleGuardedCPMScheme()
        else:
            new_base, old_base = CPMScheme(), oracle.OracleCPMScheme()
        new = _run(CHAOS_CONFIG, faults.inject(new_base, fault), 7, 12)
        old = _run(
            CHAOS_CONFIG, oracle.FaultySchemeWrapper(old_base, [_oracle_fault(fault)]), 7, 12
        )
        _assert_runs_equal(new, old, new_base, old_base)

    @pytest.mark.parametrize(
        "make_faults",
        [
            lambda: [faults.NoisySensor(sigma=0.05, seed=3), faults.LaggedActuator()],
            lambda: [faults.LaggedActuator(), faults.NoisySensor(sigma=0.05, seed=3)],
            lambda: [
                faults.GainError(multiplier=1.7),
                faults.BiasedTransducer(bias=0.01),
                faults.StuckSensor(island=1, stick_after=15),
            ],
            lambda: [
                faults.StuckActuatorFault(1, faults.FaultWindow(20, 60)),
                faults.LaggedActuator(),
                faults.TransientSensorDropout(0, faults.FaultWindow(30, 50)),
                faults.NoisySensor(sigma=0.02, seed=1),
            ],
            lambda: [
                faults.NoisySensor(sigma=0.05, seed=2),
                faults.StuckSensor(island=0, stick_after=10),
                faults.ScheduledStuckSensor(1, faults.FaultWindow(25, 45)),
            ],
            lambda: [faults.NoisySensor(sigma=0.6, seed=4)],
        ],
        ids=[
            "noise+lag",
            "lag+noise",
            "gain+bias+stuck",
            "wedge+lag+dropout+noise",
            "noise+stuck+held",
            "clipped-noise",
        ],
    )
    @pytest.mark.parametrize("guarded", [False, True], ids=["plain", "guarded"])
    def test_stacked_faults(self, make_faults, guarded):
        config = DEFAULT_CONFIG
        if guarded:
            new_base, old_base = GuardedCPMScheme(), oracle.OracleGuardedCPMScheme()
        else:
            new_base, old_base = CPMScheme(), oracle.OracleCPMScheme()
        stack = make_faults()
        new = _run(config, faults.inject(new_base, *stack), 5, 8, budget=0.7)
        old = _run(
            config,
            oracle.FaultySchemeWrapper(old_base, [_oracle_fault(f) for f in stack]),
            5,
            8,
            budget=0.7,
        )
        _assert_runs_equal(new, old, new_base, old_base)

    @pytest.mark.parametrize("shape", [(8, 4), (32, 8)], ids=["8c4i", "32c8i"])
    def test_clean_quantized_runs(self, shape):
        config = dataclasses.replace(
            DEFAULT_CONFIG.with_islands(*shape), dvfs=DVFSConfig(mode="quantized")
        )
        for new_scheme, old_scheme in (
            (CPMScheme(), oracle.OracleCPMScheme()),
            (GuardedCPMScheme(), oracle.OracleGuardedCPMScheme()),
        ):
            new = _run(config, new_scheme, 2, 5, budget=0.75)
            old = _run(config, old_scheme, 2, 5, budget=0.75)
            _assert_runs_equal(new, old, new_scheme, old_scheme)

    def test_rebind_reapplies_without_stacking(self):
        fault = faults.LaggedActuator()
        wrapped = faults.inject(CPMScheme(), fault)
        first = _run(CHAOS_CONFIG, wrapped, 9, 6)
        second = _run(CHAOS_CONFIG, wrapped, 9, 6)
        old = _run(
            CHAOS_CONFIG,
            oracle.FaultySchemeWrapper(oracle.OracleCPMScheme(), [oracle.LaggedActuator()]),
            9,
            6,
        )
        _telemetry_equal(first.telemetry, old.telemetry)
        _telemetry_equal(second.telemetry, old.telemetry)

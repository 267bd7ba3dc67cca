"""Chip model: normalization, actuation, per-interval evaluation."""

import dataclasses

import numpy as np
import pytest

from repro import units
from repro.arrayops import island_sums
from repro.cmpsim.chip import Chip, IntervalResult
from repro.cmpsim.core import cpi_stack
from repro.cmpsim.simulator import Simulation
from repro.config import CMPConfig, DEFAULT_CONFIG, DVFSConfig
from repro.core.calibration import WhiteNoiseDVFSScheme
from repro.thermal.rc_model import RCThermalModel
from repro.workloads.mixes import MIX1


def make_chip(config: CMPConfig | None = None) -> Chip:
    config = config or DEFAULT_CONFIG
    from repro.workloads.mixes import mix_for_config

    return Chip(config, mix_for_config(config).specs())


def nominal_inputs(n_cores: int):
    return (
        np.full(n_cores, 0.8),   # alpha
        np.full(n_cores, 1.0),   # cpi_base
        np.full(n_cores, 10.0),  # l1_mpki
        np.full(n_cores, 2.0),   # l2_mpki
    )


class TestNormalization:
    def test_uncore_fraction_matches_config(self):
        chip = make_chip()
        assert chip.uncore_fraction == pytest.approx(
            DEFAULT_CONFIG.uncore_fraction
        )

    def test_max_power_is_actual_upper_bound(self):
        chip = make_chip()
        alpha, cpi, l1, l2 = nominal_inputs(8)
        result = chip.compute_interval(
            np.ones(8), cpi, np.zeros(8), np.zeros(8), dt=5e-4
        )
        assert result.chip_power_frac < 1.0 + 1e-9

    def test_island_bounds_order(self):
        chip = make_chip()
        lo, hi = chip.island_power_bounds()
        assert np.all(lo < hi)
        assert np.all(lo > 0)
        # All islands' peaks plus the uncore share cover the whole chip.
        assert hi.sum() + chip.uncore_fraction == pytest.approx(1.0)


class TestActuation:
    def test_set_frequency_clamps(self):
        chip = make_chip()
        applied = chip.set_island_frequency(0, 5.0)
        assert applied == 2.0
        applied = chip.set_island_frequency(0, 0.1)
        assert applied == 0.6

    def test_quantized_mode_snaps(self):
        import dataclasses

        cfg = dataclasses.replace(DEFAULT_CONFIG, dvfs=DVFSConfig(mode="quantized"))
        chip = make_chip(cfg)
        assert chip.set_island_frequency(0, 1.31) == pytest.approx(1.4)

    def test_core_frequencies_follow_islands(self):
        chip = make_chip()
        chip.set_island_frequency(2, 1.0)
        freqs = chip.core_frequencies()
        np.testing.assert_allclose(freqs[4:6], 1.0)
        np.testing.assert_allclose(freqs[:4], 2.0)

    def test_island_index_validated(self):
        chip = make_chip()
        with pytest.raises(IndexError):
            chip.set_island_frequency(4, 1.0)


class TestComputeInterval:
    def test_power_conservation(self):
        """Chip power equals the sum of island power plus the uncore."""
        chip = make_chip()
        result = chip.compute_interval(*nominal_inputs(8), dt=5e-4)
        assert result.chip_power_w == pytest.approx(
            result.island_power_w.sum() + chip.uncore_power_w
        )
        np.testing.assert_allclose(
            result.island_power_frac, result.island_power_w / chip.max_power_w
        )

    def test_island_aggregation_matches_cores(self):
        chip = make_chip()
        result = chip.compute_interval(*nominal_inputs(8), dt=5e-4)
        for i in range(4):
            members = chip.island_of_core == i
            assert result.island_power_w[i] == pytest.approx(
                result.core_power_w[members].sum()
            )

    def test_instructions_match_ips_dt(self):
        chip = make_chip()
        dt = 5e-4
        result = chip.compute_interval(*nominal_inputs(8), dt=dt)
        np.testing.assert_allclose(
            result.core_instructions, result.core_ips * dt, rtol=1e-12
        )

    def test_transition_overhead_reduces_instructions(self):
        chip = make_chip()
        inputs = nominal_inputs(8)
        clean = chip.compute_interval(*inputs, dt=5e-4)
        transitioned = np.array([True, False, False, False])
        taxed = chip.compute_interval(
            *inputs, dt=5e-4, transitioned_islands=transitioned
        )
        ratio = taxed.core_instructions[0] / clean.core_instructions[0]
        assert ratio == pytest.approx(1.0 - 0.005)
        # Untouched islands unaffected.
        assert taxed.core_instructions[-1] == pytest.approx(
            clean.core_instructions[-1]
        )

    def test_lower_frequency_lower_power_lower_bips(self):
        chip_hi = make_chip()
        chip_lo = make_chip()
        for i in range(4):
            chip_lo.set_island_frequency(i, 1.0)
        hi = chip_hi.compute_interval(*nominal_inputs(8), dt=5e-4)
        lo = chip_lo.compute_interval(*nominal_inputs(8), dt=5e-4)
        assert lo.chip_power_w < hi.chip_power_w
        assert lo.chip_bips < hi.chip_bips

    def test_utilization_monotone_in_frequency(self):
        chip_hi = make_chip()
        chip_lo = make_chip()
        for i in range(4):
            chip_lo.set_island_frequency(i, 0.8)
        hi = chip_hi.compute_interval(*nominal_inputs(8), dt=5e-4)
        lo = chip_lo.compute_interval(*nominal_inputs(8), dt=5e-4)
        assert np.all(lo.core_utilization < hi.core_utilization)

    def test_temperatures_warm_up(self):
        chip = make_chip()
        t0 = chip.thermal.temperatures.copy()
        for _ in range(50):
            result = chip.compute_interval(*nominal_inputs(8), dt=5e-4)
        assert np.all(result.core_temperature_c > t0)

    def test_leakage_variation_raises_island_power(self):
        import dataclasses

        cfg = dataclasses.replace(
            DEFAULT_CONFIG, island_leakage_multipliers=(1.0, 1.0, 1.0, 3.0)
        )
        chip = Chip(cfg, MIX1.specs())
        result = chip.compute_interval(*nominal_inputs(8), dt=5e-4)
        # Island 4 runs the same workload mix shape; its extra power is
        # leakage only, but must be visibly higher than a same-mix island.
        assert result.island_power_w[3] > result.island_power_w[0] * 0.9

    def test_input_validation(self):
        chip = make_chip()
        with pytest.raises(ValueError):
            chip.compute_interval(
                np.ones(4), np.ones(8), np.ones(8), np.ones(8), dt=5e-4
            )
        with pytest.raises(ValueError):
            chip.compute_interval(*nominal_inputs(8), dt=0.0)

    @pytest.mark.parametrize("frequency", [2.5, 0.3])
    def test_out_of_ladder_frequency_rejected(self, frequency):
        """Frequencies bypassing the actuator's clamp must not be
        extrapolated; nothing is measured or heated."""
        chip = make_chip()
        chip.island_frequency[1] = frequency
        temperatures = chip.thermal.temperatures.copy()
        with pytest.raises(ValueError, match="outside ladder"):
            chip.compute_interval(*nominal_inputs(8), dt=5e-4)
        assert np.array_equal(chip.thermal.temperatures, temperatures)

    def test_unstable_thermal_step_rejected(self):
        chip = make_chip()
        with pytest.raises(ValueError, match="explicit Euler"):
            chip.compute_interval(
                *nominal_inputs(8), dt=chip.thermal.stability_limit
            )

    def test_spec_count_validated(self):
        with pytest.raises(ValueError):
            Chip(DEFAULT_CONFIG, MIX1.specs()[:4])


def _composed_interval(chip, alpha, cpi_base, l1_mpki, l2_mpki, dt, transitioned):
    """The interval composed from the public model calls — the oracle
    :meth:`Chip.compute_interval` must match bit for bit.  Evaluated
    before the chip steps its own thermal state."""
    cfg = chip.config
    ioc = chip.island_of_core
    n_islands = cfg.n_islands
    freq = chip.island_frequency[ioc]
    volt = np.asarray(chip.dvfs.voltage_at(freq))
    perf = cpi_stack(freq, alpha, cpi_base, l1_mpki, l2_mpki, cfg.memory)
    effective_dt = dt
    if transitioned is not None and np.any(transitioned):
        effective_dt = np.where(
            transitioned[ioc], dt * (1.0 - cfg.dvfs.transition_overhead), dt
        )
    instructions = perf.ips * effective_dt
    core_power = np.asarray(
        chip.power_model.power(
            volt,
            freq,
            busy=perf.busy,
            alpha=alpha,
            temperature_c=chip.thermal.temperatures,
            leakage_multiplier=chip.leakage_multipliers,
        ),
        dtype=float,
    )
    activity = chip.power_model.dynamic.core_activity(perf.busy, alpha)
    utilization = np.asarray(activity) * freq / chip.dvfs.f_max
    island_power = island_sums(ioc, core_power, n_islands)
    island_bips = island_sums(ioc, units.bips(instructions, effective_dt), n_islands)
    island_util = island_sums(ioc, utilization, n_islands) / cfg.cores_per_island
    chip_power = float(island_power.sum() + chip.uncore_power_w)
    thermal = RCThermalModel(chip.floorplan, cfg.thermal)
    thermal.temperatures = chip.thermal.temperatures.copy()
    new_temps = thermal.step(core_power, dt)
    values = dict(
        dt=dt,
        core_busy=perf.busy,
        core_ips=perf.ips,
        core_instructions=instructions,
        core_power_w=core_power,
        core_utilization=utilization,
        core_temperature_c=new_temps,
        island_power_w=island_power,
        island_power_frac=island_power / chip.max_power_w,
        island_bips=island_bips,
        island_utilization=island_util,
        island_frequency_ghz=chip.island_frequency.copy(),
        chip_power_w=chip_power,
        chip_power_frac=chip_power / chip.max_power_w,
        chip_bips=float(island_bips.sum()),
    )
    assert set(values) == {f.name for f in dataclasses.fields(IntervalResult)}
    return values


class TestKernelOracle:
    """``compute_interval`` equals the composition of the public models."""

    @pytest.mark.parametrize("mode", ["continuous", "quantized"])
    @pytest.mark.parametrize("shape", [(8, 4), (32, 8)], ids=["8c4i", "32c8i"])
    def test_matches_composed_models(self, mode, shape):
        n_cores, n_islands = shape
        rng = np.random.default_rng(n_cores * 7 + len(mode))
        for trial in range(40):
            cfg = dataclasses.replace(
                DEFAULT_CONFIG.with_islands(n_cores, n_islands),
                dvfs=DVFSConfig(mode=mode),
                island_leakage_multipliers=tuple(
                    rng.uniform(0.8, 2.0, n_islands).tolist()
                ),
            )
            chip = make_chip(cfg)
            chip.thermal.temperatures = rng.uniform(40.0, 95.0, n_cores)
            for island in range(n_islands):
                chip.set_island_frequency(island, float(rng.uniform(0.5, 2.1)))
            kind = trial % 3
            if kind == 0:
                transitioned = None
            elif kind == 1:
                transitioned = np.zeros(n_islands, dtype=bool)
            else:
                transitioned = rng.random(n_islands) < 0.5
            alpha = rng.uniform(0.05, 1.0, n_cores)
            cpi_base = rng.uniform(0.5, 3.0, n_cores)
            l1_mpki = rng.uniform(0.0, 40.0, n_cores)
            l2_mpki = rng.uniform(0.0, 12.0, n_cores)
            expected = _composed_interval(
                chip, alpha, cpi_base, l1_mpki, l2_mpki, 5e-4, transitioned
            )
            result = chip.compute_interval(
                alpha, cpi_base, l1_mpki, l2_mpki, 5e-4, transitioned
            )
            for name, value in expected.items():
                assert np.array_equal(getattr(result, name), value), name
            assert np.array_equal(
                chip.thermal.temperatures, expected["core_temperature_c"]
            )


class _ScalarWhiteNoise:
    """Per-island scalar reference of the white-noise excitation step."""

    def __init__(self, scheme):
        self.scheme = scheme
        self.name = scheme.name
        self.reflections = 0

    def bind(self, sim):
        self.scheme.bind(sim)

    def on_gpm(self, sim):
        pass

    def on_pic(self, sim):
        s = self.scheme
        table = sim.chip.dvfs
        for island in range(sim.config.n_islands):
            current = float(sim.chip.island_frequency[island])
            step = float(s._rng.normal(0.0, s.step_sigma_ghz))
            proposal = current + s.reversion * (s._center_ghz - current) + step
            if proposal > table.f_max:
                proposal = 2 * table.f_max - proposal
                self.reflections += 1
            elif proposal < table.f_min:
                proposal = 2 * table.f_min - proposal
                self.reflections += 1
            sim.chip.set_island_frequency(island, proposal)
        if sim.last_result is not None:
            sim.sensed_power = sim.last_result.island_power_frac.copy()


class TestWhiteNoiseVectorized:
    @pytest.mark.parametrize("mode", ["continuous", "quantized"])
    def test_matches_per_island_scalar_reference(self, mode):
        cfg = dataclasses.replace(
            DEFAULT_CONFIG.with_islands(32, 8), dvfs=DVFSConfig(mode=mode)
        )
        # A wide step drives proposals past both ladder walls.
        vectorized = WhiteNoiseDVFSScheme(seed=3, step_sigma_ghz=0.5)
        reference = _ScalarWhiteNoise(WhiteNoiseDVFSScheme(seed=3, step_sigma_ghz=0.5))
        runs = [
            Simulation(cfg, scheme, budget_fraction=1.0, seed=3).run(10)
            for scheme in (vectorized, reference)
        ]
        assert reference.reflections > 0
        for key in ("island_frequency_ghz", "island_power_frac", "core_temperature_c"):
            assert np.array_equal(runs[0].telemetry[key], runs[1].telemetry[key])

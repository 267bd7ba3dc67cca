"""The offline calibration pipeline (system ID + transducers + PID)."""

import dataclasses

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG, DVFSConfig
from repro.core import calibration as calibration_module
from repro.core.calibration import (
    WhiteNoiseDVFSScheme,
    _excitation_runs,
    _homogeneous_mix,
    calibrate,
    default_calibration,
)
from repro.cmpsim.simulator import Simulation
from repro.workloads.mixes import MIX1, MIX2, mix_for_config
from repro.workloads.parsec import PARSEC_BENCHMARKS

pytestmark = pytest.mark.slow


class TestWhiteNoiseScheme:
    def test_exercises_the_ladder(self):
        sim = Simulation(
            DEFAULT_CONFIG, WhiteNoiseDVFSScheme(seed=1), budget_fraction=1.0
        )
        result = sim.run(6)
        freqs = result.telemetry["island_frequency_ghz"]
        assert freqs.std() > 0.05
        assert freqs.min() >= 0.6 - 1e-9
        assert freqs.max() <= 2.0 + 1e-9

    def test_centered_in_operating_envelope(self):
        sim = Simulation(
            DEFAULT_CONFIG, WhiteNoiseDVFSScheme(seed=1), budget_fraction=1.0
        )
        result = sim.run(8)
        freqs = result.telemetry["island_frequency_ghz"]
        assert 1.4 < freqs.mean() < 2.0

    def test_center_derived_per_bind(self):
        """Re-binding to a chip with another ladder re-centers the walk."""
        low_ladder = dataclasses.replace(
            DEFAULT_CONFIG,
            dvfs=DVFSConfig(vf_table=((0.4, 0.9), (0.8, 1.0), (1.2, 1.1))),
        )
        scheme = WhiteNoiseDVFSScheme(seed=1)
        for config in (DEFAULT_CONFIG, low_ladder, DEFAULT_CONFIG):
            sim = Simulation(config, scheme, budget_fraction=1.0)
            scheme.bind(sim)
            dvfs = sim.chip.dvfs
            center = 0.15 * dvfs.f_min + 0.85 * dvfs.f_max
            assert np.all(sim.chip.island_frequency == center)
        assert scheme.center_ghz is None

    def test_explicit_center_kept_across_binds(self):
        scheme = WhiteNoiseDVFSScheme(seed=1, center_ghz=1.0)
        for _ in range(2):
            sim = Simulation(DEFAULT_CONFIG, scheme, budget_fraction=1.0)
            scheme.bind(sim)
            assert np.all(sim.chip.island_frequency == 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            WhiteNoiseDVFSScheme(step_sigma_ghz=0.0)
        with pytest.raises(ValueError):
            WhiteNoiseDVFSScheme(reversion=1.0)


class TestHomogeneousMix:
    def test_every_core_runs_the_benchmark(self):
        mix = _homogeneous_mix(DEFAULT_CONFIG, "canneal")
        assert mix.n_cores == 8
        assert all(
            name == "canneal" for island in mix.islands for name in island
        )


class TestCalibration:
    def test_full_pipeline(self, calibration):
        cal = calibration
        # System gain: positive, in the fraction-per-GHz ballpark.
        assert 0.05 < cal.system_gain < 0.3
        # Every PARSEC benchmark identified with a usable fit.
        assert len(cal.per_benchmark_gains) == 8
        for fit in cal.per_benchmark_gains.values():
            assert fit.gain > 0
            assert fit.r_squared > 0.5
        # Held-out validation (paper Figure 5: well within 10%).
        assert cal.holdout == "bodytrack"
        assert cal.validation_error < 0.10
        # Figure 6: strong linear fits, average R^2 near the paper's 0.96.
        assert cal.mean_transducer_r_squared > 0.9
        # Stability margin comfortably above the design point.
        assert cal.stability_limit > 1.3

    def test_pid_design_stable(self, calibration):
        from repro.control.pole_placement import closed_loop

        assert closed_loop(
            calibration.system_gain, calibration.pid_gains
        ).is_stable()

    def test_island_transducers_per_island(self, calibration):
        assert len(calibration.island_transducers) == 4
        for t in calibration.island_transducers:
            assert t.k0 > 0  # more utilization, more power

    def test_holdout_excluded_from_design_gain(self, calibration):
        design = [
            fit.gain
            for name, fit in calibration.per_benchmark_gains.items()
            if name != calibration.holdout
        ]
        assert calibration.system_gain == pytest.approx(np.mean(design))

    def test_memoization(self):
        a = default_calibration(DEFAULT_CONFIG)
        b = default_calibration(DEFAULT_CONFIG)
        assert a is b

    def test_determinism_across_fresh_runs(self):
        a = calibrate(DEFAULT_CONFIG, n_gpm=4, seed=99)
        b = calibrate(DEFAULT_CONFIG, n_gpm=4, seed=99)
        assert a.system_gain == b.system_gain
        assert a.pid_gains == b.pid_gains

    def test_unknown_holdout_rejected(self):
        with pytest.raises(ValueError):
            calibrate(DEFAULT_CONFIG, holdout="doom", n_gpm=4)


class TestExcitationEnsemble:
    """The lock-step ensemble against one ``Simulation`` per mix."""

    SEED = 11
    N_GPM = 2
    SERIES = ("island_frequency_ghz", "island_power_frac", "island_utilization")
    PLATFORMS = {
        "8c4i": DEFAULT_CONFIG,
        "32c8i": DEFAULT_CONFIG.with_islands(32, 8),
        "4c2i": DEFAULT_CONFIG.with_islands(4, 2),
        "8c4i-quantized": dataclasses.replace(
            DEFAULT_CONFIG, dvfs=DVFSConfig(mode="quantized")
        ),
        "8c4i-leaky": dataclasses.replace(
            DEFAULT_CONFIG, island_leakage_multipliers=(1.2, 1.5, 2.0, 1.0)
        ),
    }

    @pytest.fixture(params=sorted(PLATFORMS), scope="class")
    def platform(self, request):
        config = self.PLATFORMS[request.param]
        # The eight identification mixes, then the platform's default
        # (heterogeneous) mix, as calibrate's per-mix run uses.
        mixes = [_homogeneous_mix(config, n) for n in sorted(PARSEC_BENCHMARKS)]
        mixes.append(mix_for_config(config))
        oracle = [
            Simulation(
                config,
                WhiteNoiseDVFSScheme(self.SEED),
                mix=mix,
                budget_fraction=1.0,
                seed=self.SEED,
            )
            .run(self.N_GPM)
            .telemetry
            for mix in mixes
        ]
        return config, mixes, oracle

    def _runs(self, config, mixes):
        return _excitation_runs(config, mixes, self.SEED, self.N_GPM)

    def test_batch_matches_simulation(self, platform):
        config, mixes, oracle = platform
        runs = self._runs(config, mixes[:8])
        assert len(runs) == 8
        for run, telemetry in zip(runs, oracle):
            for key in self.SERIES:
                assert np.array_equal(run[key], telemetry[key]), key

    def test_replica_same_alone_and_in_batch(self, platform):
        """R=1 matches the oracle, and so does each replica of a batch
        wherever it sits: catches island-offset and tiling mistakes."""
        config, mixes, oracle = platform
        batch = self._runs(config, mixes)
        # Reversed order moves every replica to another island offset.
        reordered = self._runs(config, mixes[::-1])[::-1]
        for mix, telemetry, in_batch, moved in zip(mixes, oracle, batch, reordered):
            (alone,) = self._runs(config, [mix])
            for key in self.SERIES:
                assert np.array_equal(alone[key], telemetry[key]), (mix.name, key)
                assert np.array_equal(alone[key], in_batch[key]), (mix.name, key)
                assert np.array_equal(alone[key], moved[key]), (mix.name, key)


class TestSharedIdentification:
    """Every mix on one platform shares the identification runs."""

    SEED = 7
    N_GPM = 3

    def _counted_calibrations(self, monkeypatch):
        passes = []
        real = calibration_module._excitation_runs

        def counting(config, mixes, *args, **kwargs):
            passes.append(len(mixes))
            return real(config, mixes, *args, **kwargs)

        monkeypatch.setattr(calibration_module, "_excitation_runs", counting)
        calibration_module._identify_platform.cache_clear()
        cals = []
        replicas = []
        pass_counts = []
        for mix in (MIX1, MIX2):
            before = len(passes)
            cals.append(
                calibrate(DEFAULT_CONFIG, mix=mix, seed=self.SEED, n_gpm=self.N_GPM)
            )
            replicas.append(sum(passes[before:]))
            pass_counts.append(len(passes) - before)
        return cals, replicas, pass_counts

    def test_identification_runs_once_per_platform(self, monkeypatch):
        _, replicas, pass_counts = self._counted_calibrations(monkeypatch)
        assert replicas == [9, 1]
        assert pass_counts == [2, 1]

    def test_equal_to_unmemoised_pipeline(self, monkeypatch):
        cals, _, _ = self._counted_calibrations(monkeypatch)
        for mix, cal in zip((MIX1, MIX2), cals):
            calibration_module._identify_platform.cache_clear()
            fresh = calibrate(
                DEFAULT_CONFIG, mix=mix, seed=self.SEED, n_gpm=self.N_GPM
            )
            for field in dataclasses.fields(fresh):
                assert getattr(cal, field.name) == getattr(fresh, field.name), (
                    field.name
                )

    def test_calibrations_own_their_dicts(self, monkeypatch):
        (first, second), _, _ = self._counted_calibrations(monkeypatch)
        expected = dict(second.per_benchmark_gains)
        first.per_benchmark_gains.pop("canneal")
        first.benchmark_transducers.clear()
        assert second.per_benchmark_gains == expected
        assert len(second.benchmark_transducers) == 8
        third = calibrate(
            DEFAULT_CONFIG, mix=MIX1, seed=self.SEED, n_gpm=self.N_GPM
        )
        assert third.per_benchmark_gains == expected

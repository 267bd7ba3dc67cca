"""Telemetry helpers and the experiment-result container."""

import numpy as np
import pytest

from repro.cmpsim.chip import IntervalResult
from repro.cmpsim.telemetry import Telemetry, WindowStats
from repro.experiments.common import ExperimentResult, horizon, main


def fake_interval(n_islands=2, n_cores=4, power=0.1) -> IntervalResult:
    return IntervalResult(
        dt=5e-4,
        core_busy=np.full(n_cores, 0.8),
        core_ips=np.full(n_cores, 1e9),
        core_instructions=np.full(n_cores, 5e5),
        core_power_w=np.full(n_cores, 5.0),
        core_utilization=np.full(n_cores, 0.7),
        core_temperature_c=np.full(n_cores, 55.0),
        island_power_w=np.full(n_islands, 10.0),
        island_power_frac=np.full(n_islands, power),
        island_bips=np.full(n_islands, 2.0),
        island_utilization=np.full(n_islands, 0.7),
        island_frequency_ghz=np.full(n_islands, 1.6),
        chip_power_w=25.0,
        chip_power_frac=2 * power + 0.05,
        chip_bips=4.0,
    )


def record_ticks(telemetry: Telemetry, powers, gpm_every=3):
    for t, p in enumerate(powers):
        telemetry.record(
            time_s=t * 5e-4,
            result=fake_interval(power=p),
            setpoints=np.array([0.1, 0.1]),
            sensed=np.array([p, p]),
            is_gpm_tick=(t % gpm_every == 0),
        )


class TestTelemetry:
    def test_record_and_finalize(self):
        t = Telemetry(n_islands=2, n_cores=4)
        record_ticks(t, [0.1, 0.11, 0.12])
        arrays = t.finalize()
        assert arrays["island_power_frac"].shape == (3, 2)
        assert t.n_intervals == 3

    def test_record_after_finalize_rejected(self):
        t = Telemetry(n_islands=2, n_cores=4)
        record_ticks(t, [0.1])
        t.finalize()
        with pytest.raises(RuntimeError):
            record_ticks(t, [0.1])

    def test_gpm_tick_indices(self):
        t = Telemetry(n_islands=2, n_cores=4)
        record_ticks(t, [0.1] * 7, gpm_every=3)
        assert t.gpm_tick_indices().tolist() == [0, 3, 6]

    def test_tracking_segments_cover_all_windows_and_islands(self):
        t = Telemetry(n_islands=2, n_cores=4)
        record_ticks(t, [0.1] * 9, gpm_every=3)
        segments = t.tracking_segments()
        # 3 windows x 2 islands.
        assert len(segments) == 6
        for series, setpoint in segments:
            assert series.shape == (3,)
            assert setpoint.shape == (1,)

    def test_window_stats_storage(self):
        t = Telemetry(n_islands=2, n_cores=4)
        w = WindowStats(
            island_power_frac=np.array([0.1, 0.1]),
            island_bips=np.array([2.0, 2.0]),
            island_utilization=np.array([0.7, 0.7]),
            island_setpoints=np.array([0.1, 0.1]),
            island_energy_j=np.array([0.05, 0.05]),
            island_instructions=np.array([1e6, 1e6]),
            duration_s=5e-3,
        )
        t.push_window(w)
        assert t.windows == [w]


class TestExperimentResult:
    def test_render_contains_everything(self):
        result = ExperimentResult(
            experiment="demo", description="a demo", headers=("a", "b")
        )
        result.add_row("x", 1.5)
        result.add_series("trace", [1.0, 2.0, 3.0])
        result.notes.append("a note")
        text = result.render()
        assert "demo" in text
        assert "1.5000" in text
        assert "note: a note" in text
        assert "trace" in text

    def test_series_coerced_to_float_arrays(self):
        result = ExperimentResult(experiment="demo", description="d")
        result.add_series("xs", [1, 2, 3])
        assert result.series["xs"].dtype == np.float64

    def test_horizon_switch(self):
        assert horizon(True) < horizon(False)


def _demo_run(seed: int = 0, quick: bool = False, jobs: int | None = 1):
    """A stand-in experiment that records its arguments."""
    result = ExperimentResult(experiment="demo", description="d")
    result.notes.append(f"quick={quick} jobs={jobs}")
    return result


def _serial_run(seed: int = 0, quick: bool = False):
    return ExperimentResult(experiment="serial", description="d")


class TestExperimentMain:
    def _main(self, monkeypatch, capsys, run_fn, *argv):
        monkeypatch.setattr("sys.argv", ["experiment", *argv])
        main(run_fn)
        return capsys.readouterr()

    def test_parses_quick_and_jobs(self, monkeypatch, capsys):
        out = self._main(monkeypatch, capsys, _demo_run, "--quick", "--jobs", "3")
        assert "note: quick=True jobs=3" in out.out
        out = self._main(monkeypatch, capsys, _demo_run, "--jobs", "all")
        assert "note: quick=False jobs=None" in out.out
        out = self._main(monkeypatch, capsys, _demo_run)
        assert "note: quick=False jobs=1" in out.out

    def test_jobs_dropped_for_serial_experiments(self, monkeypatch, capsys):
        out = self._main(monkeypatch, capsys, _serial_run, "--jobs", "2")
        assert "does not support --jobs" in out.err
        assert "serial" in out.out

    @pytest.mark.parametrize(
        "argv", [("--quick", "--jobs"), ("--jobs", "x")], ids=["missing", "bad"]
    )
    def test_malformed_jobs_exits_2_with_usage(self, monkeypatch, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            self._main(monkeypatch, capsys, _demo_run, *argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "--jobs" in err

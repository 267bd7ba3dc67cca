"""MaxBIPS (Isci et al., "An Analysis of Efficient Multi-Core Global
Power Management Policies", MICRO 2006) adapted to islands.

The paper describes its comparison point tersely: "given a power budget,
the scheme selects DVFS co-ordinates from a static prediction table."
Two prediction variants are provided:

* ``prediction="static"`` (default — the paper's description).  The
  table is built once at bind time and never consults runtime
  measurements: per-island throughput at knob ``j`` is assumed
  proportional to ``cores * f_j`` (Isci's BIPS-linear-in-frequency
  assumption, applied uniformly because a static table knows nothing
  about which island runs what), and per-island power at knob ``j`` is
  the knob's *worst case* — a fully-active island — because an open-loop
  scheme with no second control tier can only guarantee the budget by
  provisioning against power rising toward the operating point's peak
  within the window.  The worst-case power entries are the structural
  reason "MaxBIPS's power consumption is always lower than the budget"
  (Figure 11) and the main source of its extra performance degradation
  (Figures 13/15).
* ``prediction="measured"`` (ablation).  Isci's runtime variant: scale
  the last interval's measured island BIPS linearly with frequency and
  measured power with ``V^2 f``, blended toward the worst case by
  ``headroom_guard``.  This version is better informed than anything the
  paper's text supports, and the ablation benches quantify how much of
  MaxBIPS's published handicap disappears once it is allowed runtime
  feedback.

Selection maximizes total predicted BIPS subject to total predicted
power staying under the budget (exhaustive for a handful of islands,
grouped-knapsack DP beyond that) and applies the chosen knobs open-loop;
knobs are restricted to the discrete table.
"""

from __future__ import annotations

import numpy as np

from ..cmpsim.simulator import Simulation

__all__ = ["MaxBIPSScheme"]


class MaxBIPSScheme:
    """Open-loop, static-prediction-table global power manager."""

    name = "maxbips"

    def __init__(
        self,
        dp_bins: int = 400,
        exhaustive_limit: int = 5,
        prediction: str = "static",
        headroom_guard: float = 0.5,
    ) -> None:
        """
        Parameters
        ----------
        dp_bins:
            Power-axis resolution of the knapsack DP used beyond
            ``exhaustive_limit`` islands.
        exhaustive_limit:
            Maximum island count for exhaustive combination search
            (``knobs ** islands`` evaluations).
        prediction:
            ``"static"`` (the paper's description) or ``"measured"``
            (runtime-informed ablation) — see the module docstring.
        headroom_guard:
            Only for ``prediction="measured"``: how far predicted power
            is pushed from the measured-scaled estimate toward the knob's
            peak island power (0 = trust the measurement, 1 = full
            worst-case provisioning).
        """
        if dp_bins < 10:
            raise ValueError("dp_bins too coarse to be meaningful")
        if exhaustive_limit < 1:
            raise ValueError("exhaustive_limit must be >= 1")
        if prediction not in ("static", "measured"):
            raise ValueError(f"unknown prediction variant {prediction!r}")
        if not 0.0 <= headroom_guard <= 1.0:
            raise ValueError("headroom_guard must be in [0, 1]")
        self.dp_bins = dp_bins
        self.exhaustive_limit = exhaustive_limit
        self.prediction = prediction
        self.headroom_guard = headroom_guard
        self._peak_table: np.ndarray | None = None
        self._static_bips: np.ndarray | None = None
        #: Static mode's chosen knobs per distributable budget, for the
        #: current bind (the tables are fixed until the next one).
        self._static_knobs: dict[float, np.ndarray] = {}

    # ------------------------------------------------------------------
    def bind(self, sim: Simulation) -> None:
        # MaxBIPS uses quantized knobs regardless of the platform's
        # actuation mode; it starts from the top operating point.
        for island in range(sim.config.n_islands):
            sim.chip.set_island_frequency(island, sim.chip.dvfs.f_max)
        sim.setpoints = np.zeros(sim.config.n_islands)
        self._peak_table = self._build_peak_table(sim)
        # Static BIPS column: uniform per-core throughput, linear in f.
        cores = np.full(sim.config.n_islands, sim.config.cores_per_island)
        self._static_bips = (
            cores[:, None] * sim.chip.dvfs.frequencies[None, :]
        )
        self._static_knobs = {}

    def _build_peak_table(self, sim: Simulation) -> np.ndarray:
        """Peak island power (fraction of max chip power) per knob.

        Fully-active cores at each operating point — the worst case an
        open-loop selection must be prepared for.
        """
        chip = sim.chip
        table = chip.dvfs
        n_islands = sim.config.n_islands
        peaks = np.empty((n_islands, table.n_points))
        leakage = chip.power_model.leakage
        for j, (f, v) in enumerate(table.operating_points()):
            per_core = chip.power_model.power(
                v,
                f,
                busy=1.0,
                alpha=1.0,
                temperature_c=leakage.nominal_temperature_c,
                leakage_multiplier=chip.leakage_multipliers,
            )
            per_core = np.asarray(per_core, dtype=float)
            for i in range(n_islands):
                peaks[i, j] = per_core[chip.island_of_core == i].sum()
        return peaks / chip.max_power_w

    def on_pic(self, sim: Simulation) -> None:
        """Open loop: no fine-grained control tier."""
        if sim.last_result is not None:
            sim.sensed_power = sim.last_result.island_power_frac.copy()

    # ------------------------------------------------------------------
    def _prediction_table(
        self, sim: Simulation
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """(bips_pred, power_pred) of shape (n_islands, n_knobs), or None
        when predictions are unavailable (measured mode, no data yet)."""
        assert self._peak_table is not None, "bind() must run first"
        if self.prediction == "static":
            assert self._static_bips is not None
            return self._static_bips, self._peak_table

        result = sim.last_result
        if result is None:
            return None
        table = sim.chip.dvfs
        knob_freqs = table.frequencies
        knob_volts = table.voltages

        # Window-averaged measurements when available, last interval else.
        if sim.windows:
            bips_measured = sim.windows[-1].island_bips
            power_measured = sim.windows[-1].island_power_frac
        else:
            bips_measured = result.island_bips
            power_measured = result.island_power_frac

        f_cur = result.island_frequency_ghz
        v_cur = np.asarray(table.voltage_at(f_cur))

        # Scaling ratios: BIPS linear in f, power like V^2 f.
        freq_ratio = knob_freqs[None, :] / f_cur[:, None]
        energy_ratio = (knob_volts[None, :] ** 2 * knob_freqs[None, :]) / (
            v_cur[:, None] ** 2 * f_cur[:, None]
        )
        bips_pred = bips_measured[:, None] * freq_ratio
        scaled = power_measured[:, None] * energy_ratio
        w = self.headroom_guard
        power_pred = (1.0 - w) * scaled + w * np.maximum(
            scaled, self._peak_table
        )
        return bips_pred, power_pred

    # ------------------------------------------------------------------
    def _select_exhaustive(
        self, bips: np.ndarray, power: np.ndarray, budget: float
    ) -> np.ndarray:
        """Best knob per island by full enumeration (vectorized)."""
        n_islands, n_knobs = bips.shape
        grids = np.meshgrid(*([np.arange(n_knobs)] * n_islands), indexing="ij")
        combos = np.stack([g.ravel() for g in grids], axis=1)
        total_power = power[np.arange(n_islands), combos].sum(axis=1)
        total_bips = bips[np.arange(n_islands), combos].sum(axis=1)
        feasible = total_power <= budget + 1e-12
        if not feasible.any():
            return np.zeros(n_islands, dtype=int)  # all-min fallback
        total_bips = np.where(feasible, total_bips, -np.inf)
        return combos[int(np.argmax(total_bips))]

    def _select_dp(
        self, bips: np.ndarray, power: np.ndarray, budget: float
    ) -> np.ndarray:
        """Grouped knapsack over power bins (conservative rounding up)."""
        n_islands, n_knobs = bips.shape
        bins = self.dp_bins
        bin_width = budget / bins
        cost = np.minimum(
            np.ceil(power / max(bin_width, 1e-12)).astype(int), bins + 1
        )
        NEG = -np.inf
        dp = np.full(bins + 1, NEG)
        dp[0] = 0.0
        choice = np.full((n_islands, bins + 1), -1, dtype=int)
        parent = np.full((n_islands, bins + 1), -1, dtype=int)
        for i in range(n_islands):
            new_dp = np.full(bins + 1, NEG)
            for j in range(n_knobs):
                c = cost[i, j]
                if c > bins:
                    continue
                shifted = np.full(bins + 1, NEG)
                shifted[c:] = dp[: bins + 1 - c] + bips[i, j]
                better = shifted > new_dp
                if better.any():
                    new_dp = np.where(better, shifted, new_dp)
                    choice[i, better] = j
                    idx = np.flatnonzero(better)
                    parent[i, idx] = idx - c
            dp = new_dp
        if not np.isfinite(dp).any():
            return np.zeros(n_islands, dtype=int)
        b = int(np.argmax(dp))
        knobs = np.zeros(n_islands, dtype=int)
        for i in range(n_islands - 1, -1, -1):
            knobs[i] = choice[i, b]
            b = parent[i, b]
            if knobs[i] < 0:  # pragma: no cover - defensive
                return np.zeros(n_islands, dtype=int)
        return knobs

    # ------------------------------------------------------------------
    def _select(
        self, bips: np.ndarray, power: np.ndarray, budget: float
    ) -> np.ndarray:
        """Knob index per island maximizing predicted BIPS under budget."""
        if bips.shape[0] <= self.exhaustive_limit:
            return self._select_exhaustive(bips, power, budget)
        return self._select_dp(bips, power, budget)

    def on_gpm(self, sim: Simulation) -> None:
        tables = self._prediction_table(sim)
        if tables is None:
            return
        bips_pred, power_pred = tables
        budget = sim.distributable_budget
        if self.prediction == "static":
            # Static tables and budget never change within a bind, so
            # neither does the selection: search once per budget.
            knobs = self._static_knobs.get(budget)
            if knobs is None:
                knobs = self._select(bips_pred, power_pred, budget)
                self._static_knobs[budget] = knobs
        else:
            knobs = self._select(bips_pred, power_pred, budget)
        freqs = sim.chip.dvfs.frequencies
        for island in range(sim.config.n_islands):
            sim.chip.set_island_frequency(island, float(freqs[knobs[island]]))
        sim.setpoints = power_pred[np.arange(sim.config.n_islands), knobs]

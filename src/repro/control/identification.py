"""System identification of the island power model (Equation 8).

The paper identifies the gain ``a_i`` of the difference model
``P(t+1) = P(t) + a_i * d(t)`` by running the PARSEC suite (all
benchmarks except bodytrack) under white-noise DVFS excitation, fitting
the relation by regression, averaging the per-benchmark gains, and then
*validating* the averaged model against the held-out benchmark
(bodytrack) — their Figure 5 shows prediction error well within 10%.

This module provides the regression and validation halves; the excitation
runs themselves live in :mod:`repro.core.calibration` (which also
identifies the Figure 6 transducers from them) because they need the
chip model, and :mod:`repro.experiments.fig05_model_validation` reuses
them for its fresh holdout run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..unit_types import PowerFraction

__all__ = ["GainFit", "fit_system_gain", "predict_power", "prediction_error"]


@dataclass(frozen=True)
class GainFit:
    """Least-squares fit of ``dP = a * df``."""

    gain: float
    #: Coefficient of determination of the fit.
    r_squared: float
    #: Number of (df, dP) samples used.
    n_samples: int


def fit_system_gain(
    frequency_deltas: np.ndarray | list[float],
    power_deltas: np.ndarray | list[float],
) -> GainFit:
    """Fit the through-origin regression ``dP = a * df``.

    A through-origin fit matches the model structure: zero frequency change
    must predict zero power change, otherwise the integrator plant gains a
    spurious constant drive.
    """
    df = np.asarray(frequency_deltas, dtype=float)
    dp = np.asarray(power_deltas, dtype=float)
    if df.shape != dp.shape or df.ndim != 1:
        raise ValueError("frequency and power deltas must be matching 1-D arrays")
    if df.size < 2:
        raise ValueError("need at least two samples to fit a gain")
    denom = float(df @ df)
    if denom == 0.0:
        raise ValueError("all frequency deltas are zero; excitation required")
    gain = float(df @ dp) / denom
    residuals = dp - gain * df
    total = float(((dp - dp.mean()) ** 2).sum())
    if total == 0.0:
        r_squared = 1.0 if np.allclose(residuals, 0.0) else 0.0
    else:
        r_squared = 1.0 - float((residuals**2).sum()) / total
    return GainFit(gain=gain, r_squared=r_squared, n_samples=int(df.size))


def predict_power(
    initial_power: PowerFraction,
    frequency_deltas: np.ndarray | list[float],
    gain: float,
) -> np.ndarray:
    """Open-loop model rollout: ``P(t+1) = P(t) + a * df(t)``.

    Returns the predicted power series of length ``len(frequency_deltas)+1``
    including the initial condition.
    """
    df = np.asarray(frequency_deltas, dtype=float)
    return initial_power + np.concatenate([[0.0], np.cumsum(gain * df)])


def prediction_error(
    actual_power: np.ndarray | list[float],
    frequency_deltas: np.ndarray | list[float],
    gain: float,
) -> float:
    """Mean absolute relative error of the one-step-ahead model prediction.

    One-step-ahead (predict P(t+1) from the *measured* P(t)) is the quantity
    Figure 5 compares, and the one that matters for the controller: the PID
    only ever needs the model to be right one interval forward.
    """
    p = np.asarray(actual_power, dtype=float)
    df = np.asarray(frequency_deltas, dtype=float)
    if p.ndim != 1 or df.ndim != 1 or p.size != df.size + 1:
        raise ValueError("need len(power) == len(frequency_deltas) + 1")
    if np.any(p == 0.0):
        raise ValueError("power series contains zeros; relative error undefined")
    predicted_next = p[:-1] + gain * df
    return float(np.mean(np.abs(predicted_next - p[1:]) / np.abs(p[1:])))

"""Static (leakage) power model (the HotLeakage analogue).

Subthreshold leakage current grows roughly exponentially with temperature
and strongly with supply voltage; HotLeakage models this at the device
level.  At the granularity this reproduction needs — per-core static power
feeding the thermal loop and the variation-aware policy — the standard
compact abstraction is::

    P_leak(V, T) = P_nom * m_process * (V / V_nom)^gamma
                   * exp(beta * (T - T_nom))

where ``P_nom`` is the leakage at the nominal corner, ``m_process`` a
per-core/per-island process-variation multiplier (the paper's
variation-aware study uses 1.2x / 1.5x / 2x / 1x across its four
islands), ``beta`` captures the exponential thermal dependence (leakage
roughly doubles every ~25 °C in the 90 nm era), and ``gamma`` the
supply-voltage dependence.  ``gamma`` is well above 2 in HotLeakage-era
silicon: DIBL makes subthreshold current itself rise steeply with V on
top of the ``V * I`` product.  This super-quadratic dependence is what
makes energy-per-instruction *convex* in the V/F level — the premise of
the variation-aware policy's greedy search (leaky islands find their
optimum at lower V/F).
"""

from __future__ import annotations

import numpy as np

from ..unit_types import Celsius, CelsiusLike, Volts, VoltsLike, Watts, WattsLike

__all__ = [
    "DEFAULT_THERMAL_BETA",
    "DEFAULT_VOLTAGE_EXPONENT",
    "LeakagePowerModel",
]

#: Leakage doubles every ~25 °C: exp(beta * 25) = 2.
DEFAULT_THERMAL_BETA = float(np.log(2.0) / 25.0)

#: Effective supply-voltage exponent (DIBL included).
DEFAULT_VOLTAGE_EXPONENT = 3.5


class LeakagePowerModel:
    """Per-core static power as a function of voltage and temperature."""

    def __init__(
        self,
        nominal_leakage_w: Watts,
        nominal_voltage: Volts = 1.5,
        nominal_temperature_c: Celsius = 60.0,
        thermal_beta: float = DEFAULT_THERMAL_BETA,
        voltage_exponent: float = DEFAULT_VOLTAGE_EXPONENT,
    ) -> None:
        if nominal_leakage_w < 0:
            raise ValueError("nominal_leakage_w must be non-negative")
        if nominal_voltage <= 0:
            raise ValueError("nominal_voltage must be positive")
        if thermal_beta < 0:
            raise ValueError("thermal_beta must be non-negative")
        if voltage_exponent < 1:
            raise ValueError("voltage_exponent must be >= 1")
        self.nominal_leakage_w = nominal_leakage_w
        self.nominal_voltage = nominal_voltage
        self.nominal_temperature_c = nominal_temperature_c
        self.thermal_beta = thermal_beta
        self.voltage_exponent = voltage_exponent

    def power(
        self,
        voltage: VoltsLike,
        temperature_c: CelsiusLike = 60.0,
        process_multiplier: float | np.ndarray = 1.0,
    ) -> WattsLike:
        """Static power in watts.  Accepts scalars or aligned arrays."""
        v = np.asarray(voltage, dtype=float)
        m = np.asarray(process_multiplier, dtype=float)
        if np.any(v <= 0):
            raise ValueError("voltage must be positive")
        if np.any(m <= 0):
            raise ValueError("process multiplier must be positive")
        result = self.power_arrays(v, np.asarray(temperature_c, dtype=float), m)
        if result.ndim == 0:
            return float(result)
        return result

    def power_arrays(
        self,
        voltage: np.ndarray,
        temperature_c: np.ndarray,
        process_multiplier: np.ndarray,
    ) -> np.ndarray:
        """:meth:`power` on float arrays: no validation, no conversion (the
        unchecked array core the chip's kernel calls)."""
        thermal = np.exp(self.thermal_beta * (temperature_c - self.nominal_temperature_c))
        return (
            self.nominal_leakage_w
            * process_multiplier
            * (voltage / self.nominal_voltage) ** self.voltage_exponent
            * thermal
        )

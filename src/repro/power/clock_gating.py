"""Linear clock gating (Wattch "cc3" style).

Wattch's most realistic conditional-clocking mode scales a structure's
dynamic power linearly with the number of ports/slots in use, but keeps a
fixed *floor* for units that are idle (the clock network and latches keep
toggling even when a structure does no useful work).  The paper configures
Wattch exactly this way: "the linear clock-gating scheme with 10% power
utilization for unused components".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LinearClockGating", "unit_clip"]


def unit_clip(x: float | np.ndarray) -> np.ndarray:
    """``np.clip(x, 0, 1)`` as two ufunc calls, always as an array.

    Same values as :func:`np.clip` (NaN propagates), without its Python
    dispatch layers, which cost more than the arithmetic on per-core
    vectors evaluated every simulated interval.
    """
    return np.minimum(np.maximum(0.0, np.asarray(x, dtype=float)), 1.0)


@dataclass(frozen=True)
class LinearClockGating:
    """Maps an activity fraction to an effective switching fraction.

    ``effective = floor + (1 - floor) * activity`` — fully active means the
    structure switches at its design activity, fully idle still burns
    ``floor`` of it.
    """

    #: Power fraction drawn by a completely idle (gated) structure.
    idle_floor: float = 0.10

    def __post_init__(self) -> None:
        if not 0.0 <= self.idle_floor < 1.0:
            raise ValueError(f"idle_floor must be in [0, 1), got {self.idle_floor}")

    def effective_activity(self, activity: float | np.ndarray) -> float | np.ndarray:
        """Effective switching fraction for utilization ``activity`` ∈ [0,1]."""
        result = self.idle_floor + (1.0 - self.idle_floor) * unit_clip(activity)
        if result.ndim == 0:
            return float(result)
        return result

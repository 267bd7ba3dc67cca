"""DVFS actuator: turns a frequency command into an applied setting.

The actuator enforces the physics the controller cannot see: frequency is
bounded by the ladder and, in quantized mode, restricted to its discrete
points.  It reports the clamping direction so the PID's anti-windup knows
when its command was cut short.

:class:`ActuatorBank` holds every island's knob in flat lists and is the
one implementation of the clamp / saturation sign / quantize step;
:class:`DVFSActuator` is a view onto one knob of a bank.
"""

from __future__ import annotations

from typing import Callable

from ..cmpsim.dvfs import DVFSTable
from ..unit_types import GigaHz

__all__ = ["ActuatorBank", "DVFSActuator"]


class ActuatorBank:
    """Stateful frequency knobs of ``n`` islands sharing one ladder.

    Every request passes through the island's *actuation seam* first: a
    list of ``request -> request`` callables that fault injection uses to
    wedge or delay a knob (see :meth:`intercept`).  The seam sees the
    requested frequency before the clamp, so guard fail-safe requests
    pass through it as well as PID commands.
    """

    def __init__(
        self,
        table: DVFSTable,
        n: int,
        quantized: bool = False,
        initial_frequency: GigaHz | None = None,
    ) -> None:
        self.table = table
        self.quantized = quantized
        f0 = table.f_max if initial_frequency is None else table.clamp(initial_frequency)
        if quantized:
            f0 = table.quantize(f0)
        self.frequency: list[float] = [float(f0)] * n
        #: +1 when island i's last command was clamped from above, -1 from below.
        self.saturation = [0] * n
        self.seam: list[list[Callable[[float], float]]] = [[] for _ in range(n)]

    def __len__(self) -> int:
        return len(self.frequency)

    def intercept(self, i: int, fault: Callable[[float], float]) -> None:
        """Rewrite island ``i``'s requests with ``fault`` from now on.

        The most recently added callable sees the raw request first.
        """
        self.seam[i].insert(0, fault)

    def apply_at(self, i: int, frequency_ghz: GigaHz) -> GigaHz:
        """Set island ``i`` to an absolute frequency request; returns the
        applied value."""
        requested = frequency_ghz
        for fault in self.seam[i]:
            requested = fault(requested)
        applied = self.table.clamp(requested)
        if requested > applied:
            self.saturation[i] = 1
        elif requested < applied:
            self.saturation[i] = -1
        else:
            self.saturation[i] = 0
        if self.quantized:
            applied = self.table.quantize(applied)
        self.frequency[i] = float(applied)
        return self.frequency[i]

    def apply_delta_at(self, i: int, delta_ghz: GigaHz) -> GigaHz:
        """Shift island ``i``'s frequency by ``delta_ghz``; returns applied f."""
        return self.apply_at(i, self.frequency[i] + delta_ghz)

    def reset_at(self, i: int, frequency_ghz: GigaHz | None = None) -> None:
        """Return island ``i`` to an initial state (default: top of the
        ladder)."""
        f = self.table.f_max if frequency_ghz is None else frequency_ghz
        f = self.table.clamp(f)
        if self.quantized:
            f = self.table.quantize(f)
        self.frequency[i] = float(f)
        self.saturation[i] = 0


class DVFSActuator:
    """Stateful frequency knob for one island.

    A view onto one knob of an :class:`ActuatorBank`; constructed directly
    it owns a one-knob bank.
    """

    def __init__(
        self,
        table: DVFSTable,
        quantized: bool = False,
        initial_frequency: GigaHz | None = None,
    ) -> None:
        self.bank = ActuatorBank(
            table, 1, quantized=quantized, initial_frequency=initial_frequency
        )
        self.index = 0

    @classmethod
    def view(cls, bank: ActuatorBank, i: int) -> "DVFSActuator":
        """Knob ``i`` of ``bank``, shared, not copied."""
        actuator = cls.__new__(cls)
        actuator.bank = bank
        actuator.index = i
        return actuator

    @property
    def table(self) -> DVFSTable:
        return self.bank.table

    @property
    def quantized(self) -> bool:
        return self.bank.quantized

    @property
    def frequency(self) -> GigaHz:
        return self.bank.frequency[self.index]

    @property
    def last_saturation(self) -> int:
        """+1 when the last command was clamped from above, -1 from below."""
        return self.bank.saturation[self.index]

    def apply_delta(self, delta_ghz: GigaHz) -> GigaHz:
        """Shift the operating frequency by ``delta_ghz``; returns applied f."""
        return self.bank.apply_delta_at(self.index, delta_ghz)

    def apply(self, frequency_ghz: GigaHz) -> GigaHz:
        """Set an absolute frequency request; returns the applied value."""
        return self.bank.apply_at(self.index, frequency_ghz)

    def reset(self, frequency_ghz: GigaHz | None = None) -> None:
        """Return to an initial state (default: top of the ladder)."""
        self.bank.reset_at(self.index, frequency_ghz)

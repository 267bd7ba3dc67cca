"""Discrete PID controller (Equation 7) with anti-windup.

The paper's per-island controllers compute a *frequency delta* from the
power-tracking error::

    u(t) = K_P e(t) + K_I * sum_{k<=t} e(k) + K_D (e(t) - e(t-1))

which in the z-domain is ``C(z) = K_P + K_I z/(z-1) + K_D (z-1)/z``
(Equation 10).  Because the actuator saturates (frequency is bounded by
the DVFS table), the integral term uses conditional integration: when the
last actuation saturated and the error keeps pushing into the saturated
direction, the accumulator is frozen.  Without this, long saturation at a
low power budget winds the integral up and produces the huge overshoots
formal PID analysis does not predict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .lti import DiscreteTransferFunction

__all__ = ["DiscretePID", "PIDBank", "PIDGains"]


@dataclass(frozen=True)
class PIDGains:
    """The (K_P, K_I, K_D) design parameters of Equation 7."""

    kp: float
    ki: float
    kd: float

    def scaled(self, factor: float) -> "PIDGains":
        """All three gains multiplied by ``factor``."""
        return PIDGains(self.kp * factor, self.ki * factor, self.kd * factor)


class PIDBank:
    """The PID state of several independent loops, in flat lists.

    One entry per loop (island) in every list; :meth:`step_at` advances
    loop ``i`` alone.  This is the only implementation of the PID step:
    :class:`DiscretePID` is a view onto one loop of a bank, and the PIC
    bank (:class:`repro.pic.bank.PICBank`) steps every island's loop from
    the same lists.

    Parameters
    ----------
    gains:
        One gain triple per loop; faults may rewrite entries in place.
    output_limits:
        Optional ``(low, high)`` clamp applied to every loop's raw output;
        used both to bound per-step frequency swings and to drive
        anti-windup.
    """

    def __init__(
        self,
        gains: Sequence[PIDGains],
        output_limits: tuple[float, float] | None = None,
    ) -> None:
        if output_limits is not None and output_limits[0] >= output_limits[1]:
            raise ValueError(f"invalid output limits {output_limits}")
        self.gains = list(gains)
        self.output_limits = output_limits
        # Unbounded is the (-inf, inf) clamp: no finite or NaN output is
        # above inf or below -inf, so it never saturates.
        self._low, self._high = (
            output_limits if output_limits is not None else (-math.inf, math.inf)
        )
        n = len(self.gains)
        self.integral = [0.0] * n
        # Standard convention e(-1) = 0, which keeps the stateful
        # controller exactly equal to its z-domain form (Equation 10).
        self.previous_error = [0.0] * n
        self.saturated_sign = [0] * n  # -1 clamped low, +1 clamped high, 0 free
        self.frozen = [False] * n

    def reset_at(self, i: int) -> None:
        """Forget loop ``i``'s accumulated state (fresh controller)."""
        self.integral[i] = 0.0
        self.previous_error[i] = 0.0
        self.saturated_sign[i] = 0
        self.frozen[i] = False

    def step_at(self, i: int, error: float) -> float:
        """Advance loop ``i`` one control interval; return its command."""
        # Conditional integration: freeze the accumulator while the output
        # is pinned at a limit and the error would push it further out.
        sign = self.saturated_sign[i]
        pushes_into_saturation = (sign > 0 and error > 0) or (
            sign < 0 and error < 0
        )
        if not pushes_into_saturation and not self.frozen[i]:
            self.integral[i] += error

        derivative = error - self.previous_error[i]
        self.previous_error[i] = error

        g = self.gains[i]
        raw = g.kp * error + g.ki * self.integral[i] + g.kd * derivative
        if raw > self._high:
            self.saturated_sign[i] = 1
            return self._high
        if raw < self._low:
            self.saturated_sign[i] = -1
            return self._low
        self.saturated_sign[i] = 0
        return raw

    def notify_saturation_at(self, i: int, sign: int) -> None:
        """Report saturation that happened *downstream* of loop ``i``.

        The PIC's actuator clamps frequency to the DVFS range; that clamp
        is invisible to the raw PID output, so the controller is told
        about it explicitly to keep anti-windup effective.  ``sign`` is +1
        when the command was clamped from above, -1 from below, 0 when
        unclamped.
        """
        if sign not in (-1, 0, 1):
            raise ValueError(f"saturation sign must be -1, 0 or 1, got {sign}")
        if sign != 0:
            self.saturated_sign[i] = sign


class DiscretePID:
    """Stateful discrete PID evaluating one control step per call.

    A view onto one loop of a :class:`PIDBank`; constructed directly it
    owns a one-loop bank.

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
        self.bank = PIDBank([gains], output_limits)
        self.index = 0

    @classmethod
    def view(cls, bank: PIDBank, i: int) -> "DiscretePID":
        """The loop ``i`` of ``bank``, shared, not copied."""
        pid = cls.__new__(cls)
        pid.bank = bank
        pid.index = i
        return pid

    @property
    def gains(self) -> PIDGains:
        return self.bank.gains[self.index]

    @gains.setter
    def gains(self, gains: PIDGains) -> None:
        self.bank.gains[self.index] = gains

    @property
    def output_limits(self) -> tuple[float, float] | None:
        return self.bank.output_limits

    def reset(self) -> None:
        """Forget accumulated state (fresh controller)."""
        self.bank.reset_at(self.index)

    @property
    def integrator_frozen(self) -> bool:
        """Whether the accumulator is currently held (safe-mode anti-windup)."""
        return self.bank.frozen[self.index]

    def freeze_integrator(self) -> None:
        """Hold the accumulator at its current value until unfrozen.

        Used by the sensor guard's safe mode: while the measurement is
        implausible the loop runs on a stale input, and integrating the
        resulting phantom error would wind the accumulator up exactly
        like actuator saturation does.  P and D terms keep operating.
        """
        self.bank.frozen[self.index] = True

    def unfreeze_integrator(self) -> None:
        """Resume integration (measurements are trustworthy again)."""
        self.bank.frozen[self.index] = False

    @property
    def integral(self) -> float:
        """Current value of the error accumulator (for tests/telemetry)."""
        return self.bank.integral[self.index]

    def step(self, error: float) -> float:
        """Advance one control interval; return the actuation command."""
        return self.bank.step_at(self.index, error)

    def notify_actuator_saturation(self, sign: int) -> None:
        """Report saturation that happened *downstream* of the PID (see
        :meth:`PIDBank.notify_saturation_at`)."""
        self.bank.notify_saturation_at(self.index, sign)

    def transfer_function(self) -> DiscreteTransferFunction:
        """z-domain form of this controller (Equation 10).

        ``C(z) = K_P + K_I z/(z-1) + K_D (z-1)/z`` over the common
        denominator ``z (z-1)``::

            C(z) = (K_P z(z-1) + K_I z^2 + K_D (z-1)^2) / (z (z-1))
        """
        g = self.gains
        num = [
            g.kp + g.ki + g.kd,
            -g.kp - 2.0 * g.kd,
            g.kd,
        ]
        den = [1.0, -1.0, 0.0]
        return DiscreteTransferFunction(num, den)

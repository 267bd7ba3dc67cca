"""PIC — the local Per-Island Controller tier (second tier of CPM).

Each island runs a pole-placement-designed PID that tracks the
GPM-provisioned power set-point by scaling the island's
voltage/frequency, observing power indirectly through the utilization
transducer of Figure 6.  A :class:`~repro.pic.bank.PICBank` holds every
island's loop and steps them together;
:class:`~repro.pic.controller.PerIslandController` is a view onto one.
"""

from .actuator import ActuatorBank, DVFSActuator
from .bank import PICBank
from .controller import PerIslandController, PICInvocation
from .guard import GuardedPerIslandController, SensorGuardConfig
from .sensor import CallbackSensor

__all__ = [
    "ActuatorBank",
    "CallbackSensor",
    "DVFSActuator",
    "GuardedPerIslandController",
    "PerIslandController",
    "PICBank",
    "PICInvocation",
    "SensorGuardConfig",
]

"""Parameter-server simulation (Section 2's model, plus bounded staleness).

Each round: the server broadcasts ``x_t``; every correct worker returns
``G(x_t, ξ)``; the Byzantine workers — given full knowledge of the honest
proposals — return whatever their :class:`~repro.attacks.Attack` crafts;
the server applies ``x_{t+1} = x_t − γ_t · F(V_1, ..., V_n)``.
:class:`TrainingSimulation` holds that cast and runs the round as the
engine's stage pipeline at batch size one (:mod:`repro.engine.simulation`).

The asynchronous extension (:mod:`repro.distributed.delays`) relaxes the
synchronous barrier: a :class:`DelaySchedule` models per-worker lag, the
server accepts bounded-stale proposals (``max_staleness``), and the
round-t proposal of a worker lagging τ is the gradient it computed at
``x_{t−τ}``.
"""

from repro.distributed.delays import (
    ConstantDelay,
    DelaySchedule,
    PeriodicDelay,
    SeededRandomDelay,
    ZeroDelay,
    available_delay_schedules,
    delay_schedule_factory,
    make_delay_schedule,
    register_delay_schedule,
)
from repro.distributed.metrics import RoundRecord, TrainingHistory
from repro.distributed.schedules import (
    ConstantSchedule,
    InverseTimeSchedule,
    LearningRateSchedule,
    StepDecaySchedule,
)
from repro.distributed.simulator import HonestWorker, TrainingSimulation

__all__ = [
    "DelaySchedule",
    "ZeroDelay",
    "ConstantDelay",
    "PeriodicDelay",
    "SeededRandomDelay",
    "register_delay_schedule",
    "available_delay_schedules",
    "delay_schedule_factory",
    "make_delay_schedule",
    "LearningRateSchedule",
    "ConstantSchedule",
    "InverseTimeSchedule",
    "StepDecaySchedule",
    "HonestWorker",
    "TrainingSimulation",
    "RoundRecord",
    "TrainingHistory",
]

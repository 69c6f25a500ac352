"""repro — Byzantine-tolerant distributed SGD (Krum), reproduced in full.

A from-scratch Python reproduction of

    P. Blanchard, E. M. El Mhamdi, R. Guerraoui, J. Stainer.
    "Brief Announcement: Byzantine-Tolerant Machine Learning",
    PODC 2017 (full version: arXiv:1703.02757 / NeurIPS 2017).

Quickstart::

    import numpy as np
    from repro import Krum, Average, GaussianAttack
    from repro.experiments import build_quadratic_simulation
    from repro.models import QuadraticBowl

    bowl = QuadraticBowl(dimension=20)
    sim = build_quadratic_simulation(
        bowl, aggregator=Krum(f=3), num_workers=15, num_byzantine=3,
        sigma=0.5, attack=GaussianAttack(sigma=100.0), seed=0,
    )
    history = sim.run(300, eval_every=25)
    print(history.final_loss)

See README.md for the system inventory ("The scenario-grid engine") and
for the benchmark behind every reproduced figure ("Testing and
benchmarks").
"""

from repro.attacks import (
    Attack,
    AttackContext,
    BenignAttack,
    CollusionAttack,
    CompositeAttack,
    CrashAttack,
    DefenseProbingAttack,
    GaussianAttack,
    InnerProductAttack,
    LabelFlipAttack,
    LinearHijackAttack,
    LipschitzMimicryAttack,
    LittleIsEnoughAttack,
    NonFiniteAttack,
    OmniscientAttack,
    SignFlipAttack,
    StalenessGamingAttack,
    StragglerAttack,
)
from repro.backend import (
    ArrayBackend,
    NumpyBackend,
    available_backends,
    make_backend,
    register_backend,
)
from repro.baselines import (
    Average,
    ClosestToAll,
    CoordinateWiseMedian,
    GeometricMedian,
    MinimalDiameterSubset,
    TrimmedMean,
    WeightedAverage,
)
from repro.core import (
    AggregationResult,
    Aggregator,
    Bulyan,
    Krum,
    MultiKrum,
    available_aggregators,
    check_krum_precondition,
    eta,
    krum_scores,
    make_aggregator,
    max_tolerable_f,
    resilience_angle,
)
from repro.distributed import TrainingHistory, TrainingSimulation
from repro.exceptions import (
    ByzantineToleranceError,
    ConfigurationError,
    ConvergenceError,
    DimensionMismatchError,
    InvalidVectorError,
    ReproError,
    SimulationError,
)
from repro.servers import (
    RandomNoiseBroadcastAttack,
    ReplicatedServerGroup,
    ServerAttack,
    ServerAttackContext,
    ShardedAggregator,
    SignFlipBroadcastAttack,
    StaleReplayBroadcastAttack,
    available_server_attacks,
    make_server_attack,
    register_server_attack,
    replica_view,
    shard_bounds,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "Aggregator",
    "AggregationResult",
    "Krum",
    "MultiKrum",
    "Bulyan",
    "krum_scores",
    "eta",
    "check_krum_precondition",
    "max_tolerable_f",
    "resilience_angle",
    "make_aggregator",
    "available_aggregators",
    # baselines
    "Average",
    "WeightedAverage",
    "ClosestToAll",
    "MinimalDiameterSubset",
    "CoordinateWiseMedian",
    "TrimmedMean",
    "GeometricMedian",
    # attacks
    "Attack",
    "AttackContext",
    "BenignAttack",
    "GaussianAttack",
    "SignFlipAttack",
    "CrashAttack",
    "NonFiniteAttack",
    "StragglerAttack",
    "LinearHijackAttack",
    "CollusionAttack",
    "CompositeAttack",
    "OmniscientAttack",
    "LabelFlipAttack",
    "LittleIsEnoughAttack",
    "InnerProductAttack",
    "StalenessGamingAttack",
    "LipschitzMimicryAttack",
    "DefenseProbingAttack",
    # distributed
    "TrainingSimulation",
    "TrainingHistory",
    # server tier
    "ReplicatedServerGroup",
    "ShardedAggregator",
    "shard_bounds",
    "replica_view",
    "ServerAttack",
    "ServerAttackContext",
    "SignFlipBroadcastAttack",
    "StaleReplayBroadcastAttack",
    "RandomNoiseBroadcastAttack",
    "register_server_attack",
    "available_server_attacks",
    "make_server_attack",
    # array backends
    "ArrayBackend",
    "NumpyBackend",
    "register_backend",
    "available_backends",
    "make_backend",
    # exceptions
    "ReproError",
    "ConfigurationError",
    "ByzantineToleranceError",
    "DimensionMismatchError",
    "InvalidVectorError",
    "ConvergenceError",
    "SimulationError",
]

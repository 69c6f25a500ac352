"""Outside-in per-layer tracing: wrap each layer's public methods.

The benchmark times calls into every layer of ``repro`` without
touching ``src/``: :class:`Tracer` replaces selected methods on the
library's classes with timing wrappers for the duration of one traced
run, then puts the original objects back.  Three rules keep the wrapped
program identical to the unwrapped one:

* only methods found in a class's own ``__dict__`` are wrapped (so an
  inherited method is wrapped once, where it is defined, and every
  override is wrapped where *it* is defined);
* wrappers go in before the grid is built, so bound methods captured at
  build time (the quadratic bowl's ``exact_gradient`` as the oracle's
  gradient function, the ``type(est).estimate is
  MinibatchEstimator.estimate`` check) see the same wrapped objects;
* :meth:`Tracer.uninstall` restores every attribute to its original
  object.

Spans nest: a layer's *self time* is the duration of its spans minus
the time their child spans cover, so the self times of all layers add
up to the traced wall time without double counting.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter
from types import FunctionType

from repro.attacks.base import Attack
from repro.backend.base import ArrayBackend
from repro.core.aggregator import Aggregator
from repro.core.batched import BatchedAggregator, LoopBatchedAggregator
from repro.distributed.delays import DelaySchedule
from repro.distributed.simulator import TrainingSimulation
from repro.engine.grid import ScenarioGrid
from repro.engine.simulation import BatchedSimulation
from repro.engine.workloads import Workload
from repro.gradients.base import GradientEstimator
from repro.models.base import Model
from repro.servers.replication import ReplicatedServerGroup
from repro.topology.base import Topology
from repro.topology.gossip import GossipSimulation

#: ``(layer, class, method names)``: every public call timed.  A method
#: is claimed by the first entry naming it, so the loop fallback is
#: listed before the native kernels it subclasses.
LAYERS = (
    ("servers.view", ReplicatedServerGroup, ("corrupted_view",)),
    ("distributed.delays", DelaySchedule, ("staleness",)),
    (
        "gradients.estimator",
        GradientEstimator,
        ("sample_about", "estimate", "draw_indices", "gradient_at"),
    ),
    ("models.gradient", Model, ("gradient", "exact_gradient")),
    ("attacks.craft", Attack, ("craft",)),
    ("core.batched.fallback", LoopBatchedAggregator, ("aggregate_batch",)),
    ("core.batched.native", BatchedAggregator, ("aggregate_batch",)),
    ("core.rules", Aggregator, ("aggregate_detailed", "aggregate_detailed_stale")),
    ("backend.to_numpy", ArrayBackend, ("to_numpy",)),
    ("distributed.evaluate", TrainingSimulation, ("evaluate_record",)),
    ("distributed.evaluate", GossipSimulation, ("consensus_metrics",)),
    ("topology.neighbors", Topology, ("neighbors",)),
    ("topology.gossip.self", GossipSimulation, ("run",)),
    ("engine.simulation.self", BatchedSimulation, ("run", "run_round")),
    ("engine.simulation.init", BatchedSimulation, ("__init__",)),
    ("engine.grid.scenarios", ScenarioGrid, ("scenarios",)),
    ("engine.workloads.build", Workload, ("build",)),
)

#: Layers that run before round 0; their spans (and any span under
#: them) are set-up time, not round-loop time.
SETUP_LAYERS = frozenset({"engine.grid.scenarios", "engine.workloads.build"})

#: The method whose span durations give the per-round percentiles.
_ROUND = (BatchedSimulation, "run_round")


def _with_subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_with_subclasses(sub))
    return found


def targets() -> list[tuple[str, type, str]]:
    """Every ``(layer, class, method)`` a traced run wraps."""
    claimed: set[tuple[type, str]] = set()
    out = []
    for layer, base, names in LAYERS:
        for cls in _with_subclasses(base):
            for name in names:
                fn = cls.__dict__.get(name)
                if (
                    not isinstance(fn, FunctionType)
                    or getattr(fn, "__isabstractmethod__", False)
                    or (cls, name) in claimed
                ):
                    continue
                claimed.add((cls, name))
                out.append((layer, cls, name))
    return out


class Tracer:
    """Per-layer self time and call counts of one traced run."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        #: Duration of every ``BatchedSimulation.run_round`` call.
        self.round_s: list[float] = []
        self.setup_self_s = 0.0
        self._stack: list[list[float]] = []
        self._setup_depth = 0
        self._installed: list[tuple[type, str, object]] = []

    def install(self) -> None:
        for layer, cls, name in targets():
            original = cls.__dict__[name]
            self._installed.append((cls, name, original))
            setattr(cls, name, self._wrap(layer, original, (cls, name) == _ROUND))

    def uninstall(self) -> None:
        for cls, name, original in reversed(self._installed):
            setattr(cls, name, original)

    def restored(self) -> bool:
        """Whether every wrapped attribute is its original object again."""
        return all(
            cls.__dict__[name] is original
            for cls, name, original in self._installed
        )

    def _wrap(self, layer: str, fn, is_round: bool):
        stack = self._stack
        setup = layer in SETUP_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            if setup:
                self._setup_depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                own = duration - frame[0]
                self.self_s[layer] += own
                self.calls[layer] += 1
                if self._setup_depth:
                    self.setup_self_s += own
                if setup:
                    self._setup_depth -= 1
                if stack:
                    stack[-1][0] += duration
                if is_round:
                    self.round_s.append(duration)

        return traced

    def layer_metrics(self, wall_time: float) -> dict[str, float]:
        """Per-layer self seconds and call counts, keyed by metric name.

        ``trace.coverage`` is the self time spent after set-up divided
        by the traced round-loop wall time: near 1.0 when the wrapped
        layers account for every part of a round.
        """
        out: dict[str, float] = {}
        for layer, _cls, _names in LAYERS:
            out[f"{layer}_s"] = self.self_s[layer]
            out[f"{layer}_calls"] = float(self.calls[layer])
        loop_self = sum(self.self_s.values()) - self.setup_self_s
        out["trace.coverage"] = loop_self / wall_time
        return out

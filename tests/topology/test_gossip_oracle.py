"""Batched gossip aggregation vs the frozen node-by-node oracle.

``GossipSimulation`` aggregates every honest node of a round through
grouped ``core.batched`` kernel calls.  Each case here runs the same
cell through it and through :class:`ReferenceGossipSimulation` (the
original heap-ordered, one-rule-call-per-node executor) and requires
bit-identical node parameters and histories — or the identical error,
raised after the identical node updates.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.topology.gossip as gossip_module
from repro.attacks.registry import make_attack
from repro.core.registry import make_aggregator
from repro.distributed.schedules import ConstantSchedule
from repro.exceptions import ReproError
from repro.gradients.oracle import GaussianOracleEstimator
from repro.models.quadratic import QuadraticBowl
from repro.topology import GossipSimulation, make_topology
from tests.topology.gossip_reference import ReferenceGossipSimulation

NUM_HONEST = 10
NUM_BYZANTINE = 2
DIMENSION = 5
ROUNDS = 6

TOPOLOGIES = [
    ("complete", {}),
    ("ring", {"degree": 4}),
    ("ring", {"degree": 6}),
    ("k-regular", {"degree": 4}),
    ("erdos-renyi", {"edge_prob": 0.6}),
    ("time-varying", {"edge_prob": 0.6, "rewire_period": 2}),
]
DELAYS = [None, "constant", "random"]
#: (registry name, kwargs besides f, whether the rule is rebuilt at the
#: local f) — the engine's wiring for f-taking rules.
RULES = [
    ("krum", {}, True),
    ("multi-krum", {"m": 2}, True),
    ("coordinate-median", {}, False),
    ("trimmed-mean", {}, True),
    ("geometric-median", {}, False),
    ("closest-to-all", {}, False),
    ("average", {}, False),
    ("minimal-diameter", {}, True),
    ("kardam", {}, True),
]


def gradient_fn(x: np.ndarray) -> np.ndarray:
    return x


def build(
    cls,
    *,
    rule,
    topology,
    edge_delay=None,
    equivocate=False,
    attack="gaussian",
    halt_on_nonfinite=False,
    num_byzantine=NUM_BYZANTINE,
    byzantine_slots="last",
    builder=None,
    seed=5,
    num_honest=NUM_HONEST,
    bowl=None,
):
    name, kwargs, local_f = rule
    if local_f and builder is None:

        def builder(f_local: int):
            return make_aggregator(name, f=f_local, **kwargs)

        aggregator = make_aggregator(name, f=num_byzantine, **kwargs)
    else:
        aggregator = make_aggregator(name, **kwargs)
    return cls(
        topology=make_topology(*topology),
        aggregator=aggregator,
        aggregator_builder=builder,
        schedule=ConstantSchedule(0.1),
        honest_estimators=[
            GaussianOracleEstimator(gradient_fn, DIMENSION, 0.5)
            if bowl is None
            else bowl.as_estimator(0.5)
            for _ in range(num_honest)
        ],
        initial_params=np.ones(DIMENSION),
        num_byzantine=num_byzantine,
        byzantine_slots=byzantine_slots,
        attack=make_attack(attack, {}) if num_byzantine else None,
        edge_delay=edge_delay,
        equivocate=equivocate,
        true_gradient_fn=gradient_fn if bowl is None else bowl.exact_gradient,
        halt_on_nonfinite=halt_on_nonfinite,
        seed=seed,
    )


def outcome(sim, rounds=ROUNDS):
    """The run's history and final node parameters, or its error."""
    try:
        history = sim.run(rounds, eval_every=2)
    except ReproError as exc:
        result = (type(exc), str(exc))
        history = None
    else:
        result = None
    params = [sim.node_params(v) for v in range(sim.num_nodes)]
    return result, history, params


def same(a, b) -> bool:
    """Equal floats, where NaN (a diverged node) matches NaN."""
    return a == b or (a != a and b != b)


def assert_same_outcome(kwargs, rounds=ROUNDS):
    error, history, params = outcome(build(GossipSimulation, **kwargs), rounds)
    ref_error, ref_history, ref_params = outcome(
        build(ReferenceGossipSimulation, **kwargs), rounds
    )
    assert error == ref_error, kwargs
    # Bit-identical floats; NaN (a diverged node) must match NaN.
    for node, (a, b) in enumerate(zip(params, ref_params)):
        assert np.array_equal(a, b, equal_nan=True), (kwargs, node)
    if ref_history is None:
        return error
    assert len(history.records) == len(ref_history.records)
    for ra, rb in zip(history.records, ref_history.records):
        context = (kwargs, ra.round_index)
        assert ra.round_index == rb.round_index
        assert ra.learning_rate == rb.learning_rate
        assert same(ra.aggregate_norm, rb.aggregate_norm), context
        assert same(ra.params_norm, rb.params_norm), context
        assert ra.selected == rb.selected, context
        assert ra.byzantine_selected == rb.byzantine_selected, context
        assert same(ra.grad_norm, rb.grad_norm), context
        assert ra.extras.keys() == rb.extras.keys(), context
        for key in ra.extras:
            assert same(ra.extras[key], rb.extras[key]), (context, key)
    return error


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r[0])
@pytest.mark.parametrize(
    "topology", TOPOLOGIES, ids=lambda t: f"{t[0]}{t[1].get('degree', '')}"
)
def test_matches_node_by_node_oracle(rule, topology):
    for edge_delay in DELAYS:
        for equivocate in (False, True):
            assert_same_outcome(
                dict(
                    rule=rule,
                    topology=topology,
                    edge_delay=edge_delay,
                    equivocate=equivocate,
                )
            )


@pytest.mark.parametrize("curvature", ["scalar", "dense"])
@pytest.mark.parametrize("rule", [RULES[0], RULES[2], RULES[8]], ids=lambda r: r[0])
def test_block_gradient_proposals_match_node_by_node(curvature, rule):
    """A shared quadratic oracle gives every honest node's expected
    gradient in one block call; the reference asks each node's
    estimator in turn."""
    rng = np.random.default_rng(11)
    matrix = rng.standard_normal((DIMENSION, DIMENSION))
    bowl = QuadraticBowl(
        DIMENSION,
        curvature=(
            0.8 if curvature == "scalar" else matrix @ matrix.T + np.eye(DIMENSION)
        ),
        optimum=rng.standard_normal(DIMENSION),
    )
    assert build(
        GossipSimulation, rule=rule, topology=("ring", {"degree": 6}), bowl=bowl
    )._block_gradient is not None
    # A shared oracle that does not declare block evaluation is asked
    # node by node.
    assert build(
        GossipSimulation, rule=rule, topology=("ring", {"degree": 6})
    )._block_gradient is None
    for topology in TOPOLOGIES[2:]:
        for edge_delay in (None, "random"):
            assert_same_outcome(
                dict(rule=rule, topology=topology, edge_delay=edge_delay, bowl=bowl)
            )


def test_matrix_covers_runs_and_tolerance_errors():
    """The oracle matrix exercises both sides: runs that complete and
    neighborhoods whose local (n, f) breaks the rule's precondition."""
    krum = RULES[0]
    ring6 = dict(rule=krum, topology=("ring", {"degree": 6}))
    assert assert_same_outcome(ring6) is None
    error = assert_same_outcome(dict(rule=krum, topology=("ring", {"degree": 4})))
    assert error is not None and "Krum requires" in error[1]


def record_kernel_calls(monkeypatch) -> list[int]:
    """The node count of every kernel call the executor makes."""
    sizes = []
    real = GossipSimulation._run_kernel

    def recording(adapter, rules, stack, kwargs):
        sizes.append(len(rules))
        return real(adapter, rules, stack, kwargs)

    monkeypatch.setattr(GossipSimulation, "_run_kernel", staticmethod(recording))
    return sizes


@pytest.mark.parametrize(
    "rule, per_call",
    [(RULES[2], [NUM_HONEST] * 2), (RULES[8], [1] * (2 * NUM_HONEST))],
    ids=["native", "loop-fallback"],
)
def test_nodes_per_kernel_call(monkeypatch, rule, per_call):
    """Same-size neighborhoods under a native rule share one kernel call
    per round; a rule without a native kernel runs one node per call.
    The plan builds each call's adapter once, not once per round."""
    sizes = record_kernel_calls(monkeypatch)
    built = []
    real = gossip_module.make_batched_aggregator

    def recording(rules):
        built.append(len(rules))
        return real(rules)

    monkeypatch.setattr(gossip_module, "make_batched_aggregator", recording)
    sim = build(
        GossipSimulation,
        rule=rule,
        topology=("ring", {"degree": 6}),
        num_byzantine=0,
    )
    sim.run(2)
    assert sizes == per_call
    assert built == per_call[: len(per_call) // 2]


@pytest.mark.parametrize(
    "rule",
    [RULES[2], RULES[6], ("kardam", {"inner": "average"}, False)],
    ids=lambda r: r[0],
)
def test_nonfinite_halt_names_the_same_node(rule):
    error = assert_same_outcome(
        dict(
            rule=rule,
            topology=("ring", {"degree": 6}),
            attack="non-finite",
            halt_on_nonfinite=True,
        )
    )
    assert error is not None and "parameters of node" in error[1]


def test_halt_before_a_later_nodes_tolerance_error_wins():
    """Node 0 (one Byzantine neighbor, averaging) halts on a non-finite
    update; node 1 (two Byzantine neighbors, Krum over 5) violates Krum's
    precondition.  Node by node, the halt is raised first — and so it is
    when the whole round is planned before any update."""

    def builder(f_local: int):
        if f_local < 2:
            return make_aggregator("average")
        return make_aggregator("krum", f=f_local)

    error = assert_same_outcome(
        dict(
            rule=RULES[6],
            builder=builder,
            topology=("ring", {"degree": 4}),
            byzantine_slots=[2, 3],
            attack="non-finite",
            halt_on_nonfinite=True,
        )
    )
    assert error is not None and "parameters of node 0 " in error[1]
    without_halt = assert_same_outcome(
        dict(
            rule=RULES[6],
            builder=builder,
            topology=("ring", {"degree": 4}),
            byzantine_slots=[2, 3],
            attack="non-finite",
        )
    )
    assert without_halt is not None and "Krum requires" in without_halt[1]


def test_nonfinite_without_halt_propagates_identically():
    assert_same_outcome(
        dict(
            rule=RULES[6],
            topology=("erdos-renyi", {"edge_prob": 0.6}),
            attack="non-finite",
            edge_delay="random",
        )
    )


@pytest.mark.parametrize("staging_bytes", [1, 8 * DIMENSION * 7, 1 << 30])
def test_staging_cap_does_not_change_results(monkeypatch, staging_bytes):
    """One node per call, a few per call, or everything in one call:
    the kernel split is invisible in the trajectories."""
    monkeypatch.setattr(gossip_module, "_STAGING_BYTES", staging_bytes)
    for rule in (RULES[0], RULES[2], RULES[4]):
        assert_same_outcome(
            dict(
                rule=rule,
                topology=("ring", {"degree": 6}),
                edge_delay="random",
            )
        )


def test_kernel_failure_reports_the_node_rule_error():
    """A native kernel failing mid-batch reports the failing node's own
    per-node error text, not the batch's."""
    rule = ("geometric-median", {"max_iterations": 1}, False)
    error = assert_same_outcome(
        dict(rule=rule, topology=("ring", {"degree": 6}), num_byzantine=0)
    )
    assert error is not None and "1 of 1 scenario" in error[1]


@pytest.mark.parametrize(
    "rule, topology",
    [
        (RULES[0], ("ring", {"degree": 6})),
        (RULES[2], ("time-varying", {"edge_prob": 0.15, "rewire_period": 2})),
    ],
    ids=["krum-ring6", "median-time-varying"],
)
def test_sixty_nodes_with_lags_equivocation_and_chunks(monkeypatch, rule, topology):
    """A 60-node cell with random edge lags, equivocation and a staging
    cap of five 7-member stacks per call: groups split into several
    kernel calls, and local bounds differ between nodes (on the
    time-varying graph member counts differ too, and edges come and go
    while messages are in flight)."""
    monkeypatch.setattr(gossip_module, "_STAGING_BYTES", 8 * DIMENSION * 7 * 5)
    calls = record_kernel_calls(monkeypatch)
    kwargs = dict(
        rule=rule,
        topology=topology,
        edge_delay="random",
        equivocate=True,
        num_honest=56,
        num_byzantine=4,
        byzantine_slots=[5, 20, 35, 50],
    )
    assert assert_same_outcome(kwargs, rounds=8) is None
    assert max(calls) > 1 and len(calls) > 8 * 2


def test_departed_edges_keep_their_messages(monkeypatch):
    """On a graph rewired every round, a message heard on an edge that
    leaves the graph is aggregated again when the edge returns, with the
    parameters it was computed at, after its round was cut down to the
    rows departed edges still point at.  Kardam's Lipschitz filter has
    no native kernel, so it reads those parameters."""
    reads = set()
    real = GossipSimulation._gather

    def recording(self, part, computed, rows):
        for c in np.unique(computed).tolist():
            reads.add((part, self._banks[c][1] is not self._rows))
        return real(self, part, computed, rows)

    monkeypatch.setattr(GossipSimulation, "_gather", recording)
    rule = ("kardam", {"inner": "coordinate-median", "lipschitz_quantile": 0.5}, False)
    kwargs = dict(
        rule=rule,
        topology=("time-varying", {"edge_prob": 0.3}),
        edge_delay="random",
        equivocate=True,
        num_honest=30,
        num_byzantine=3,
    )
    assert assert_same_outcome(kwargs, rounds=12) is None
    assert (0, True) in reads and (1, True) in reads

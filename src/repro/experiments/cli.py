"""Command-line interface for running Byzantine-SGD experiments.

Usage examples::

    python -m repro.experiments.cli --dataset mnist-like --aggregator krum \
        --workers 20 --byzantine 6 --attack omniscient --rounds 200

    python -m repro.experiments.cli --dataset spambase-like \
        --aggregator average --workers 16 --byzantine 5 --attack gaussian \
        --partition dirichlet --dirichlet-alpha 0.3

    python -m repro.experiments.cli --tournament --workers 15 \
        --byzantine 3 --rounds 40 --eval-every 5

The flags describe one :class:`~repro.engine.ScenarioSpec` cell, built
through :meth:`~repro.engine.workloads.Workload.build` exactly as a
:class:`~repro.engine.ScenarioGrid` cell would be.  The named datasets
resolve through the engine's workload registry (``mnist-like`` → the
``mlp-mnist`` workload, ``spambase-like`` → ``logistic-spambase``;
``blobs`` is a CLI-local softmax workload).  Prints the error/loss
series and a summary table; exits non-zero on configuration errors with
a readable message.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.attacks.registry import available_attacks
from repro.core.registry import (
    AGGREGATORS,
    available_aggregators,
    make_aggregator,
)
from repro.data.dataset import Dataset
from repro.data.partition import PARTITION_PROTOCOLS
from repro.data.synthetic import make_blobs
from repro.distributed.delays import available_delay_schedules
from repro.engine.grid import ScenarioSpec
from repro.engine.workloads import DatasetWorkload, Workload, make_workload
from repro.exceptions import ReproError
from repro.experiments.reporting import (
    format_league_table,
    format_series,
    format_table,
)
from repro.models.base import Model
from repro.models.softmax import SoftmaxRegressionModel
from repro.servers.registry import available_server_attacks
from repro.topology import available_topologies
from repro.tournament import TournamentRunner

__all__ = ["main", "build_parser"]

_DATASETS = ("mnist-like", "spambase-like", "blobs")
# Attacks needing structured kwargs the flag surface cannot express.
_CLI_ATTACK_EXCLUDES = ("composite",)

# Which registered workload realizes each named dataset choice.
_DATASET_WORKLOADS = {
    "mnist-like": "mlp-mnist",
    "spambase-like": "logistic-spambase",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Distributed SGD under Byzantine attack (Krum reproduction)",
    )
    parser.add_argument("--dataset", choices=_DATASETS, default="mnist-like")
    parser.add_argument("--train-size", type=int, default=1500)
    parser.add_argument("--test-size", type=int, default=400)
    parser.add_argument(
        "--aggregator",
        default="krum",
        help=f"one of: {', '.join(available_aggregators())}",
    )
    parser.add_argument(
        "--m", type=int, default=None, help="multi-krum committee size"
    )
    parser.add_argument("--workers", type=int, default=20)
    parser.add_argument("--byzantine", type=int, default=0)
    parser.add_argument(
        "--attack",
        choices=[
            name
            for name in available_attacks()
            if name not in _CLI_ATTACK_EXCLUDES
        ],
        default=None,
    )
    parser.add_argument("--rounds", type=int, default=200)
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--learning-rate", type=float, default=0.3)
    parser.add_argument(
        "--partition",
        choices=PARTITION_PROTOCOLS,
        default="iid",
        help="how the train set is sharded across honest workers",
    )
    parser.add_argument(
        "--dirichlet-alpha",
        type=float,
        default=0.5,
        help="skew of the dirichlet partition (smaller = more skewed)",
    )
    parser.add_argument("--eval-every", type=int, default=25)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--max-staleness",
        type=int,
        default=0,
        help="bounded-staleness window of the server (0 = synchronous "
        "rounds); stale proposals beyond the window are clipped to it",
    )
    parser.add_argument(
        "--delay-schedule",
        choices=available_delay_schedules(),
        default=None,
        help="per-worker delay model for asynchronous rounds "
        "(reproducible from --seed); pair with --max-staleness > 0",
    )
    parser.add_argument(
        "--delay-tau",
        type=int,
        default=1,
        help="lag of the constant/periodic schedules (and the maximum "
        "draw of the random schedule)",
    )
    parser.add_argument(
        "--delay-period",
        type=int,
        default=4,
        help="period of the periodic delay schedule",
    )
    parser.add_argument(
        "--num-servers",
        type=int,
        default=1,
        help="parameter-server replica count (1 = the paper's single "
        "reliable server); workers take a coordinate median over the "
        "replica broadcasts",
    )
    parser.add_argument(
        "--byzantine-servers",
        type=int,
        default=0,
        help="how many server replicas broadcast corrupted parameters; "
        "pair with --server-attack",
    )
    parser.add_argument(
        "--num-shards",
        type=int,
        default=1,
        help="coordinate shards for per-shard aggregation (1 = the "
        "plain rule over full vectors)",
    )
    parser.add_argument(
        "--server-attack",
        choices=available_server_attacks(),
        default=None,
        help="broadcast-corruption strategy of the Byzantine server "
        "replicas; pair with --byzantine-servers > 0",
    )
    parser.add_argument(
        "--topology",
        default="complete",
        help="communication graph for serverless gossip runs (one of: "
        f"{', '.join(available_topologies())}); 'complete' is the "
        "paper's server setting, anything else drops the server and "
        "each node aggregates its neighborhood with a local f.  The "
        "name is validated through the topology registry, so an unknown "
        "name exits with a readable configuration error",
    )
    parser.add_argument(
        "--degree",
        type=int,
        default=None,
        help="neighbor degree of the ring/k-regular topologies (even)",
    )
    parser.add_argument(
        "--edge-prob",
        type=float,
        default=None,
        help="edge probability of the erdos-renyi/time-varying topologies",
    )
    parser.add_argument(
        "--rewire-period",
        type=int,
        default=None,
        help="rounds between rewirings of the time-varying topology",
    )
    parser.add_argument(
        "--halt-on-nonfinite",
        action="store_true",
        help="raise instead of training on NaN/Inf parameters (the "
        "production server guard)",
    )
    parser.add_argument(
        "--tournament",
        action="store_true",
        help="run the attack x defense robustness league instead of a "
        "single experiment: every registered attack against every "
        "registered rule over --workers/--byzantine/--rounds/--seed, "
        "printed as a markdown league table (see "
        "benchmarks/bench_tournament.py for the persisted variant)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="with --tournament, also write the league payload as JSON "
        "to this path",
    )
    return parser


def _run_tournament(args: argparse.Namespace) -> int:
    """The --tournament mode: full-registry league on the CLI's knobs."""
    runner = TournamentRunner(
        seeds=(args.seed,),
        num_workers=args.workers,
        num_byzantine=args.byzantine,
        num_rounds=args.rounds,
        eval_every=args.eval_every,
    )
    result = runner.run()
    print(
        format_league_table(
            result,
            title=(
                f"Robustness league — n={args.workers}, "
                f"f={args.byzantine}, {args.rounds} rounds, "
                f"seed {args.seed}"
            ),
        )
    )
    if not result.covers_product():
        print("error: league is missing pairings", file=sys.stderr)
        return 1
    if args.output is not None:
        import json

        with open(args.output, "w") as handle:
            json.dump(result.to_payload(), handle, indent=1)
            handle.write("\n")
        print(f"\nwrote {args.output}")
    return 0


def _delay_kwargs(args: argparse.Namespace) -> dict[str, object]:
    """The CLI's delay flags as the chosen schedule's kwargs.

    The flag surface maps onto each schedule's primary knobs:
    ``--delay-tau`` is the constant/periodic lag and the random
    schedule's maximum draw; ``--delay-period`` the periodic cadence.
    """
    kwargs: dict[str, object] = {}
    if args.delay_schedule in ("constant", "periodic"):
        kwargs["tau"] = args.delay_tau
    if args.delay_schedule == "periodic":
        kwargs["period"] = args.delay_period
    if args.delay_schedule == "random":
        kwargs["max_delay"] = args.delay_tau
    return kwargs


class _BlobsWorkload(DatasetWorkload):
    """Softmax regression on three Gaussian blobs in 8 features — the
    CLI's small synthetic task, not part of the workload registry."""

    name = "blobs"

    def _build_model(self) -> Model:
        return SoftmaxRegressionModel(8, 3)

    def _build_data(self) -> tuple[Dataset, Dataset]:
        train = make_blobs(
            self.num_train, num_classes=3, num_features=8, seed=self.data_seed
        )
        evaluation = make_blobs(
            self.num_eval, num_classes=3, num_features=8,
            seed=self.data_seed + 1,
        )
        return train, evaluation


def _scenario(args: argparse.Namespace) -> tuple[ScenarioSpec, Workload]:
    """The one cell the flags describe, and the workload it trains on.

    Every flag is validated where a grid cell's would be: unknown names
    and bad knobs raise :class:`ConfigurationError` (reported by
    :func:`main` with exit code 2), never an argparse crash.
    """
    workload_kwargs = {
        "num_train": args.train_size,
        "num_eval": args.test_size,
        "batch_size": args.batch_size,
        "partition": args.partition,
        "dirichlet_alpha": args.dirichlet_alpha,
        "data_seed": args.seed,
    }
    workload = (
        _BlobsWorkload(**workload_kwargs)
        if args.dataset == "blobs"
        else make_workload(_DATASET_WORKLOADS[args.dataset], workload_kwargs)
    )
    aggregator_kwargs: dict[str, object] = {}
    if AGGREGATORS.accepts(args.aggregator, "f"):
        aggregator_kwargs["f"] = args.byzantine
    if args.aggregator == "multi-krum":
        aggregator_kwargs["m"] = args.m if args.m is not None else max(
            1, args.workers - args.byzantine - 2
        )
    spec = ScenarioSpec(
        seed=args.seed,
        aggregator=args.aggregator,
        aggregator_kwargs=aggregator_kwargs,
        attack=args.attack,
        num_workers=args.workers,
        num_byzantine=args.byzantine,
        workload=workload.name,
        workload_kwargs=workload_kwargs,
        learning_rate=args.learning_rate,
        lr_timescale=None,
        max_staleness=args.max_staleness,
        delay_schedule=args.delay_schedule,
        delay_kwargs=_delay_kwargs(args),
        num_servers=args.num_servers,
        byzantine_servers=args.byzantine_servers,
        num_shards=args.num_shards,
        server_attack=args.server_attack,
        halt_on_nonfinite=args.halt_on_nonfinite,
        topology=args.topology,
        degree=args.degree,
        edge_prob=args.edge_prob,
        rewire_period=args.rewire_period,
    )
    return spec, workload


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.tournament:
            return _run_tournament(args)
        if args.byzantine > 0 and args.attack is None:
            print(
                "error: --byzantine > 0 requires --attack", file=sys.stderr
            )
            return 2
        spec, workload = _scenario(args)
        simulation = workload.build(spec)
        aggregator = make_aggregator(spec.aggregator, **spec.aggregator_kwargs)
        attack = simulation.attack
        history = simulation.run(args.rounds, eval_every=args.eval_every)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    rounds, losses = history.series("loss")
    series = {"loss": losses}
    acc_rounds, accuracies = history.series("accuracy")
    if accuracies.size == rounds.size:
        series["error"] = 1.0 - accuracies
    print(
        format_series(
            f"{args.dataset} · {aggregator.name} · f={args.byzantine}"
            + (f" · {attack.name}" if attack else ""),
            rounds,
            series,
        )
    )
    summary_rows = [
        ["final loss", history.final_loss],
        ["rounds", len(history)],
        ["byzantine selection rate",
         f"{100 * history.byzantine_selection_rate():.1f}%"],
    ]
    if accuracies.size:
        summary_rows.insert(1, ["final error", 1.0 - history.final_accuracy])
    print()
    print(format_table(["metric", "value"], summary_rows, title="summary"))
    return 0


if __name__ == "__main__":
    sys.exit(main())

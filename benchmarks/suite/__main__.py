"""Command line of the repository benchmark.

::

    python -m benchmarks.suite run [--seed S] [--workload W] [--smoke] [--output F]
    python -m benchmarks.suite measure --workload W [--seed S] [--seconds N]
                                       [--trace 0|1]
    python -m benchmarks.suite compare PARENT.json CHANGE.json [--claim METRIC@WORKLOAD]

``run`` is a full set (every workload's interleaved untraced and traced
repeats, and the loop check); ``measure`` is one time-boxed run of one
workload whose last stdout line is the BENCHMARK.json result object;
``compare`` gives one verdict per workload and end-to-end metric.
Exit codes: 0 healthy, 1 a correctness check or comparison failed, 2 a
child process crashed (no result is printed).
"""

from __future__ import annotations

import argparse
import json
import sys

from benchmarks.suite.compare import compare, load
from benchmarks.suite.harness import ChildFailed, measure, run_set
from benchmarks.suite.workloads import WORKLOADS


def _print_set(result: dict) -> None:
    for workload, data in result["workloads"].items():
        print(
            f"{workload}: {data['cells']} cells, "
            f"{data['failed']}/{data['attempted']} failed"
        )
        for name, m in data["end_to_end"].items():
            print(
                f"  {name:<20} {m['median']:.6g} {m['unit']} "
                f"(q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})"
            )
        for name, m in data["per_layer"].items():
            print(f"  {name:<34} {m['value']:.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="one full set of every workload")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--workload", choices=WORKLOADS)
    run.add_argument("--smoke", action="store_true", help="~1/10 size, 1 repeat")
    run.add_argument("--output", help="write the set as JSON here")
    one = commands.add_parser("measure", help="one time-boxed run of one workload")
    one.add_argument("--workload", required=True, choices=WORKLOADS)
    one.add_argument("--seed", type=int, default=0)
    one.add_argument("--seconds", type=float, default=10.0)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    diff = commands.add_parser("compare", help="verdicts of CHANGE against PARENT")
    diff.add_argument("parent", help="a set file, or BASELINE#N")
    diff.add_argument("change", help="a set file, or BASELINE#N")
    diff.add_argument("--claim", metavar="METRIC@WORKLOAD")
    args = parser.parse_args(argv)

    if args.command == "compare":
        lines, passed = compare(load(args.parent), load(args.change), args.claim)
        print("\n".join(lines))
        return 0 if passed else 1
    try:
        if args.command == "measure":
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
            for name, m in result["metrics"].items():
                print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        result = run_set(
            workloads,
            args.seed,
            args.smoke,
            log=lambda line: print(line, file=sys.stderr),
        )
    except ChildFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    _print_set(result)
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    return 0 if result["error_rate"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

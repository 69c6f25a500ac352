"""Compare two result sets, one verdict per (workload, end-to-end metric).

A verdict follows the benchmark's bounds:

* ``regressed`` — the change's median is worse than the parent's by
  more than the metric's bound (for ``error_rate``: any rise);
* ``improved`` — better by more than the bound;
* ``unchanged`` — within the bound either way;
* ``unresolved`` — the run-to-run spread (quartile distance over
  median, on either side) is wider than the bound, so the medians
  cannot tell — unless every run of one side reads better than every
  run of the other.

A claimed pair additionally gets the gain test: the change wins at
least nine tenths of the repeat pairs (ties count for neither) and the
medians differ by more than the parent's quartile distance.
"""

from __future__ import annotations

import json
from pathlib import Path


def load(arg: str) -> dict:
    """A result set from ``PATH`` or ``PATH#N`` (the N-th of a baseline
    file's ``sets``; the first when ``#N`` is omitted)."""
    path, _, index = arg.partition("#")
    data = json.loads(Path(path).read_text())
    return data["sets"][int(index or 0)] if "sets" in data else data


def _better(a: float, b: float, direction: str) -> bool:
    return a > b if direction == "higher" else a < b


def verdict(parent: dict, change: dict) -> str:
    direction, bound = parent["better"], parent["bound"]
    if bound == 0:
        if change["median"] == parent["median"]:
            return "unchanged"
        return (
            "improved"
            if _better(change["median"], parent["median"], direction)
            else "regressed"
        )
    gain = (change["median"] - parent["median"]) / parent["median"]
    if direction == "lower":
        gain = -gain
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (parent, change))
    if spread > bound:
        if all(
            _better(c, p, direction)
            for c in change["samples"]
            for p in parent["samples"]
        ):
            return "improved"
        if all(
            _better(p, c, direction)
            for c in change["samples"]
            for p in parent["samples"]
        ):
            return "regressed"
        return "unresolved"
    if gain < -bound:
        return "regressed"
    return "improved" if gain > bound else "unchanged"


def claim_met(parent: dict, change: dict) -> tuple[bool, str]:
    """The gain test for a claimed pair, with its evidence."""
    direction = parent["better"]
    pairs = list(zip(parent["samples"], change["samples"]))
    wins = sum(_better(c, p, direction) for p, c in pairs)
    difference = change["median"] - parent["median"]
    iqr = parent["q3"] - parent["q1"]
    met = (
        wins >= 0.9 * len(pairs)
        and abs(difference) > iqr
        and _better(change["median"], parent["median"], direction)
    )
    return met, (
        f"wins {wins}/{len(pairs)} pairs, median difference "
        f"{difference:+.6g} vs parent IQR {iqr:.6g}"
    )


def compare(
    parent: dict, change: dict, claim: str | None = None
) -> tuple[list[str], bool]:
    """Report lines and whether the change passes (no regression, and
    the claim, if any, met)."""
    lines = []
    passed = True
    for workload, base in parent["workloads"].items():
        new = change["workloads"].get(workload)
        if new is None:
            lines.append(f"{workload:<12} missing from the change")
            passed = False
            continue
        for name, p in base["end_to_end"].items():
            c = new["end_to_end"][name]
            result = verdict(p, c)
            passed &= result != "regressed"
            ratio = (
                f"{c['median'] / p['median']:.4f}" if p["median"] else "n/a"
            )
            lines.append(
                f"{workload:<12} {name:<20} ratio {ratio} "
                f"(base {p['median']:.6g} {p['unit']}) {result}"
            )
    if claim is not None:
        metric, _, workload = claim.partition("@")
        met, evidence = claim_met(
            parent["workloads"][workload]["end_to_end"][metric],
            change["workloads"][workload]["end_to_end"][metric],
        )
        passed &= met
        lines.append(
            f"claim {claim}: {'met' if met else 'not met'} ({evidence})"
        )
    return lines, passed

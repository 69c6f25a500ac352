"""``python -m repro.lint`` — the invariant linter's command line.

Exit codes follow the usual linter convention: 0 clean, 1 findings,
2 usage/configuration error (unknown rule names, missing paths).

Examples::

    python -m repro.lint src
    python -m repro.lint src --select error-taxonomy,rng-discipline
    python -m repro.lint src --ignore backend-purity --format json
    python -m repro.lint src --output lint-report.json   # text + JSON file
    python -m repro.lint --list-rules
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.exceptions import ConfigurationError
from repro.lint.engine import lint_paths
from repro.lint.registry import rule_descriptions

__all__ = ["build_parser", "main"]


def _rule_list(value: str) -> list[str]:
    names = [name.strip() for name in value.split(",") if name.strip()]
    if not names:
        raise argparse.ArgumentTypeError(
            "expected a comma-separated list of rule names"
        )
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based linter enforcing the repro library's code "
            "invariants (backend purity, RNG discipline, the error "
            "taxonomy, stateful-attack declarations)."
        ),
        epilog=(
            "Suppress a single line with '# repro-lint: ignore[rule]'; "
            "suppressions that no longer match a finding are themselves "
            "reported (unused-suppression)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (directories recurse over *.py)",
    )
    parser.add_argument(
        "--select",
        type=_rule_list,
        default=None,
        metavar="RULES",
        help="comma-separated rule names to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        type=_rule_list,
        default=None,
        metavar="RULES",
        help="comma-separated rule names to skip",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="stdout format (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="also write the JSON report to FILE",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules with descriptions and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for name, description in rule_descriptions().items():
            print(f"{name:28s} {description}")
        return 0
    if not args.paths:
        print(
            "repro-lint: error: no paths given (try 'python -m repro.lint "
            "src')",
            file=sys.stderr,
        )
        return 2

    try:
        report = lint_paths(
            args.paths,
            select=args.select,
            ignore=args.ignore,
        )
    except ConfigurationError as error:
        print(f"repro-lint: error: {error}", file=sys.stderr)
        return 2

    if args.output is not None:
        Path(args.output).write_text(report.as_json() + "\n", encoding="utf-8")
    if args.format == "json":
        print(report.as_json())
    else:
        for finding in report.findings:
            print(finding.render())
        total = len(report.findings)
        noun = "finding" if total == 1 else "findings"
        print(
            f"repro-lint: {total} {noun} in {report.files_checked} "
            f"file(s) checked"
        )
    return 1 if report.findings else 0

"""``python -m repro.lint`` — the invariant linter's command line.

Exit codes follow the usual linter convention: 0 clean, 1 findings,
2 usage/configuration error (missing paths, an unwritable ``--output``).

Examples::

    python -m repro.lint src
    python -m repro.lint src --output lint-report.json   # text + JSON file
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.exceptions import ConfigurationError
from repro.lint.engine import lint_paths

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based linter enforcing the repro library's code "
            "invariants (backend purity, RNG discipline, the error "
            "taxonomy, stateful-attack declarations)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (directories recurse over *.py)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="also write the JSON report to FILE",
    )
    return parser


def _error(message: object) -> int:
    print(f"repro-lint: error: {message}", file=sys.stderr)
    return 2


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not args.paths:
        return _error("no paths given (try 'python -m repro.lint src')")

    try:
        report = lint_paths(args.paths)
    except ConfigurationError as error:
        return _error(error)

    if args.output is not None:
        try:
            Path(args.output).write_text(
                report.as_json() + "\n", encoding="utf-8"
            )
        except OSError as error:
            return _error(f"cannot write --output {args.output}: {error}")
    for finding in report.findings:
        print(finding.render())
    total = len(report.findings)
    noun = "finding" if total == 1 else "findings"
    print(
        f"repro-lint: {total} {noun} in {report.files_checked} "
        f"file(s) checked"
    )
    return 1 if report.findings else 0

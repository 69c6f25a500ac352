"""The lint driver: file discovery and rule execution.

Each file is parsed once and every rule runs over the shared AST.
Files are linted in sorted path order, so a report is deterministic.

A file the compiler cannot parse has every invariant unverifiable, so
the engine reports it as a ``syntax-error`` finding: that fails the
gate instead of skipping the file silently.
"""

from __future__ import annotations

import ast
import json
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import ConfigurationError
from repro.lint.base import LintRule, ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import available_rules, make_rule

__all__ = [
    "LintReport",
    "collect_python_files",
    "lint_source",
    "lint_paths",
]


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Sequence[LintRule] | None = None,
) -> list[Finding]:
    """Lint one source string (also the fixture-test entry point).

    ``rules`` defaults to every registered rule.  ``path`` participates
    in module-scoped rules (e.g. rng-discipline exempts the sanctioned
    RNG modules), so fixture snippets fake the library path they pretend
    to live at.
    """
    if rules is None:
        rules = [make_rule(name) for name in available_rules()]
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return [
            Finding(
                rule="syntax-error",
                path=path,
                line=int(error.lineno or 1),
                column=int(error.offset or 1),
                message=f"cannot parse: {error.msg}",
            )
        ]
    module = ModuleContext(path=path, source=source, tree=tree)
    findings = [finding for rule in rules for finding in rule.check(module)]
    return sorted(findings, key=Finding.sort_key)


def collect_python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand path arguments into a sorted, deduplicated ``.py`` file list.

    Directories are searched recursively; a path that does not exist is
    a :class:`ConfigurationError` (a gate that "passes" because its
    target moved is worse than one that fails loudly).
    """
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.is_file():
            files.add(path)
        else:
            raise ConfigurationError(f"no such file or directory: {raw}")
    return sorted(files)


@dataclass(frozen=True)
class LintReport:
    """Outcome of one lint run over a set of files."""

    findings: tuple[Finding, ...]
    files_checked: int
    rule_names: tuple[str, ...]

    @property
    def counts_by_rule(self) -> dict[str, int]:
        return dict(sorted(Counter(f.rule for f in self.findings).items()))

    def as_dict(self) -> dict[str, object]:
        return {
            "version": 1,
            "files_checked": self.files_checked,
            "rules": list(self.rule_names),
            "findings": [finding.as_dict() for finding in self.findings],
            "summary": {
                "total": len(self.findings),
                "by_rule": self.counts_by_rule,
            },
        }

    def as_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=False)


def lint_paths(paths: Sequence[str | Path]) -> LintReport:
    """Lint files/directories with every registered rule (the CLI core)."""
    rules = [make_rule(name) for name in available_rules()]
    files = collect_python_files(paths)
    findings: list[Finding] = []
    for file in files:
        source = file.read_text(encoding="utf-8")
        findings.extend(lint_source(source, str(file), rules))
    return LintReport(
        findings=tuple(sorted(findings, key=Finding.sort_key)),
        files_checked=len(files),
        rule_names=tuple(rule.name for rule in rules),
    )

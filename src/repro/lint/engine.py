"""The lint driver: file discovery, rule execution, suppressions.

Each file is parsed once, every selected rule runs over the shared AST,
and the file's suppression comments are applied to its findings.
Files are linted in sorted path order, so a report is deterministic.

Suppressions are line comments — ``# repro-lint: ignore[rule]`` — and a
suppression matches a finding when it sits on the finding's line *or*
anywhere in the finding's statement header: a comment on a decorator
line suppresses findings anchored on the decorated ``def``, and a
comment on any line of a multi-line statement suppresses findings
anchored at the statement's first line.  (Headers only: a suppression
inside a function body never silences a finding on the ``def`` itself.)

Two checks are engine built-ins rather than AST rules (they are about
the *lint run*, not the code): ``syntax-error`` (a file the compiler
cannot parse has every invariant unverifiable — that must fail the
gate, not skip silently) and ``unused-suppression`` (an ignore comment
that no longer matches a finding is a stale escape hatch; flagging it
keeps the suppression inventory honest).  Both are registered under
those names so ``--select``/``--ignore`` treat them like any other
rule.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import ConfigurationError
from repro.lint.base import LintRule, ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import available_rules, make_rule, register_rule

__all__ = [
    "LintReport",
    "collect_python_files",
    "resolve_rules",
    "lint_source",
    "lint_paths",
    "SUPPRESSION_PATTERN",
]


class _SyntaxErrorRule(LintRule):
    """Placeholder for the engine's parse check (never runs itself)."""

    name = "syntax-error"
    description = "every linted file must parse (findings come from the engine)"

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        return ()


class _UnusedSuppressionRule(LintRule):
    """Placeholder for the engine's suppression audit (never runs itself)."""

    name = "unused-suppression"
    description = (
        "every '# repro-lint: ignore[...]' comment must suppress a finding"
    )

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        return ()


register_rule("syntax-error", _SyntaxErrorRule)
register_rule("unused-suppression", _UnusedSuppressionRule)


# One suppression comment per line: a bare ``ignore`` silences every
# rule on that line, ``ignore[a, b]`` only the named rules.
SUPPRESSION_PATTERN = re.compile(
    r"#\s*repro-lint:\s*ignore(?:\[(?P<rules>[^\]]*)\])?\s*$"
)
_DIRECTIVE_MARKER = re.compile(r"#\s*repro-lint\b")


@dataclass
class _Suppression:
    line: int
    column: int
    rules: frozenset[str] | None  # None = bare ignore (all rules)
    used: set[str] = field(default_factory=set)


def _parse_suppressions(
    source: str, path: str
) -> tuple[dict[int, _Suppression], list[Finding]]:
    """Extract suppression comments, flagging malformed directives.

    A comment that mentions ``repro-lint`` but does not parse as a
    suppression (typo'd keyword, empty or unknown rule list) is reported
    under ``unused-suppression``: a directive the engine silently drops
    would look exactly like a working escape hatch.
    """
    suppressions: dict[int, _Suppression] = {}
    malformed: list[Finding] = []

    def bad(line: int, column: int, message: str) -> None:
        malformed.append(
            Finding(
                rule="unused-suppression",
                path=path,
                line=line,
                column=column,
                message=message,
            )
        )

    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):
        return {}, []  # unparseable files are the syntax-error check's job
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        if not _DIRECTIVE_MARKER.search(token.string):
            continue
        line, column = token.start[0], token.start[1] + 1
        match = SUPPRESSION_PATTERN.search(token.string)
        if match is None:
            bad(
                line,
                column,
                f"malformed repro-lint directive {token.string.strip()!r}; "
                f"expected '# repro-lint: ignore[rule]'",
            )
            continue
        names = match.group("rules")
        if names is None:
            rules: frozenset[str] | None = None
        else:
            parts = [part.strip() for part in names.split(",")]
            if not all(parts) or not parts:
                bad(line, column, "empty rule list in repro-lint suppression")
                continue
            unknown = sorted(set(parts) - set(available_rules()))
            if unknown:
                bad(
                    line,
                    column,
                    f"suppression names unknown rule(s) {unknown}; "
                    f"available: {available_rules()}",
                )
                continue
            rules = frozenset(parts)
        suppressions[line] = _Suppression(line=line, column=column, rules=rules)
    return suppressions, malformed


def _line_anchors(tree: ast.Module) -> dict[int, int]:
    """Map each statement-header line to the line findings anchor on.

    A finding built from a statement node carries ``node.lineno`` — the
    ``def`` line for a decorated function, the first line of a
    multi-line call.  This map lets a suppression comment anywhere in
    the same header reach that anchor: decorator lines and continuation
    lines map to the statement's ``lineno``.  Statements with a body
    (def/class/if/for/...) contribute only their header — decorators
    through the line before ``body[0]`` — so a suppression inside the
    body never silences a finding on the header.  Overlapping spans are
    resolved smallest-wins (the innermost statement owns the line).
    """
    spans: list[tuple[int, int, int]] = []  # (start, end, anchor)
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        anchor = node.lineno
        start = anchor
        decorators = getattr(node, "decorator_list", None) or []
        for decorator in decorators:
            start = min(start, decorator.lineno)
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            end = max(start, body[0].lineno - 1)
        else:
            end = int(getattr(node, "end_lineno", anchor) or anchor)
        spans.append((start, end, anchor))
    anchors: dict[int, int] = {}
    # Widest spans first, so narrower (inner) statements overwrite.
    for start, end, anchor in sorted(
        spans, key=lambda span: span[0] - span[1]
    ):
        for line in range(start, end + 1):
            anchors[line] = anchor
    return anchors


def _apply_suppressions(
    findings: list[Finding],
    suppressions: dict[int, _Suppression],
    selected: set[str],
    path: str,
    anchors: dict[int, int],
) -> list[Finding]:
    # A suppression on line S silences findings on S itself and on S's
    # statement anchor (the decorated ``def``, the first line of a
    # multi-line statement).  Exact-line suppressions win conflicts.
    by_line: dict[int, _Suppression] = {}
    for suppression in suppressions.values():
        by_line.setdefault(suppression.line, suppression)
    for suppression in suppressions.values():
        target = anchors.get(suppression.line, suppression.line)
        by_line.setdefault(target, suppression)

    kept: list[Finding] = []
    for finding in findings:
        suppression = by_line.get(finding.line)
        if suppression is not None and (
            suppression.rules is None or finding.rule in suppression.rules
        ):
            suppression.used.add(finding.rule)
            continue
        kept.append(finding)
    if "unused-suppression" not in selected:
        return kept
    for suppression in suppressions.values():
        if suppression.rules is None:
            if not suppression.used:
                kept.append(
                    Finding(
                        rule="unused-suppression",
                        path=path,
                        line=suppression.line,
                        column=suppression.column,
                        message="suppression does not match any finding",
                    )
                )
            continue
        # Named suppressions are audited per rule, but only for rules
        # that actually ran — a partial --select cannot prove a
        # suppression for an unselected rule stale.
        stale = sorted((suppression.rules & selected) - suppression.used)
        if stale:
            kept.append(
                Finding(
                    rule="unused-suppression",
                    path=path,
                    line=suppression.line,
                    column=suppression.column,
                    message=(
                        "suppression does not match any finding for "
                        f"rule(s) {stale}"
                    ),
                )
            )
    return kept


def resolve_rules(
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> list[LintRule]:
    """Instantiate the selected rules (default: every registered rule).

    ``select`` picks an explicit subset, ``ignore`` removes names from
    it; unknown names in either raise :class:`ConfigurationError` — a
    typo'd rule name silently linting nothing is how a gate rots.
    """
    known = available_rules()
    for names, option in ((select, "--select"), (ignore, "--ignore")):
        unknown = sorted(set(names or ()) - set(known))
        if unknown:
            raise ConfigurationError(
                f"unknown lint rule(s) {unknown} in {option}; "
                f"available: {known}"
            )
    chosen = list(select) if select else known
    dropped = set(ignore or ())
    return [make_rule(name) for name in chosen if name not in dropped]


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Sequence[LintRule] | None = None,
) -> list[Finding]:
    """Lint one source string (also the fixture-test entry point).

    ``path`` participates in module-scoped rules (e.g. backend-purity
    only checks the kernel modules), so fixture snippets fake the
    library path they pretend to live at.
    """
    if rules is None:
        rules = resolve_rules()
    selected = {rule.name for rule in rules}
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        if "syntax-error" not in selected:
            return []
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
    suppressions, malformed = _parse_suppressions(source, path)
    findings = _apply_suppressions(
        findings, suppressions, selected, path, _line_anchors(tree)
    )
    if "unused-suppression" in selected:
        findings.extend(malformed)
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
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

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


def lint_paths(
    paths: Sequence[str | Path],
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> LintReport:
    """Lint files/directories with the selected rules (the CLI core)."""
    rules = resolve_rules(select=select, ignore=ignore)
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

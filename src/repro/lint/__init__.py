"""repro-lint: AST-based enforcement of the library's code invariants.

The invariants the codebase rests on — kernels speak the
:class:`~repro.backend.ArrayBackend` namespace, randomness flows through
seeded :mod:`repro.utils.rng` streams, errors use the
:class:`~repro.exceptions.ReproError` taxonomy, stateful attacks declare
themselves, registries stay in sync with their consumers — were each
born from a real bug and enforced only by convention.  This package
makes them machine-checked: a pluggable rule registry (a
:class:`~repro.utils.registry.Registry` like every other family), a
``python -m repro.lint`` CLI, and per-line
``# repro-lint: ignore[rule]`` suppressions with an unused-suppression
audit.  ``tests/lint/test_codebase_clean.py`` runs it over ``src/`` as a
gate, so a fixed bug class cannot be reintroduced.
"""

from __future__ import annotations

from repro.lint import rules as _builtin_rules  # noqa: F401
from repro.lint.base import LintRule, ModuleContext, ProjectRule
from repro.lint.engine import (
    LintReport,
    collect_python_files,
    lint_paths,
    lint_source,
    resolve_rules,
)
from repro.lint.findings import Finding
from repro.lint.project import (
    Document,
    ProjectContext,
    build_project_context,
)
from repro.lint.registry import (
    available_rules,
    make_rule,
    register_rule,
    rule_descriptions,
    rule_factory,
)
from repro.lint.sarif import as_sarif, sarif_report

__all__ = [
    "Finding",
    "LintRule",
    "ProjectRule",
    "ModuleContext",
    "ProjectContext",
    "Document",
    "build_project_context",
    "LintReport",
    "lint_source",
    "lint_paths",
    "collect_python_files",
    "resolve_rules",
    "register_rule",
    "available_rules",
    "rule_factory",
    "make_rule",
    "rule_descriptions",
    "sarif_report",
    "as_sarif",
]

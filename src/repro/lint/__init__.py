"""repro-lint: AST-based enforcement of the library's code invariants.

Three invariants of the codebase live in how each file is written —
randomness flows through seeded :mod:`repro.utils.rng` streams, errors
use the :class:`~repro.exceptions.ReproError` taxonomy, stateful attacks
declare themselves — and each was born from a real bug.  This package
checks them one file at a time: a rule registry (a
:class:`~repro.utils.registry.Registry` like every other family) and a
``python -m repro.lint`` CLI.  ``tests/lint/test_codebase_clean.py``
runs every rule over ``src/`` as a gate, so a fixed bug class cannot be
reintroduced.  There is no suppression comment: a false positive is
fixed in the rule and its fixture test.

Invariants that span modules (stream order, pure seeded queries,
kernel/rule agreement, registries versus their docs and CLI) are pinned
by behavioural tests instead; the README maps each to its test.
"""

from __future__ import annotations

from repro.lint import rules as _builtin_rules  # noqa: F401
from repro.lint.base import LintRule, ModuleContext
from repro.lint.engine import (
    LintReport,
    collect_python_files,
    lint_paths,
    lint_source,
)
from repro.lint.findings import Finding
from repro.lint.registry import (
    available_rules,
    make_rule,
    register_rule,
    rule_factory,
)

__all__ = [
    "Finding",
    "LintRule",
    "ModuleContext",
    "LintReport",
    "lint_source",
    "lint_paths",
    "collect_python_files",
    "register_rule",
    "available_rules",
    "rule_factory",
    "make_rule",
]

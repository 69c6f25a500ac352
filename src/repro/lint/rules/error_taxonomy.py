"""error-taxonomy: library code raises ``ReproError`` subclasses.

The exception hierarchy in :mod:`repro.exceptions` exists so callers can
catch library failures with one ``except ReproError`` while still
telling configuration mistakes from numerical problems.  A bare
``ValueError``/``TypeError``/``RuntimeError`` escapes that contract —
the PR 2 Weiszfeld bug class was exactly a bare ``ValueError`` leaking
out of a kernel where callers (and the engine's breakdown-row handling)
expected the taxonomy.  Every builtin in the banned set has a taxonomy
replacement that *is* a subclass of it, so tightening a raise never
breaks an existing ``except``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.lint.base import LintRule, ModuleContext
from repro.lint.findings import Finding

__all__ = ["ErrorTaxonomyRule"]

#: builtin -> suggested taxonomy replacements (each a subclass of the
#: builtin, so the swap is strictly compatible for callers).
BANNED_EXCEPTIONS = {
    "ValueError": (
        "ConfigurationError / DimensionMismatchError / InvalidVectorError"
    ),
    "TypeError": "ConfigurationError (wrap the TypeError)",
    "RuntimeError": "ConvergenceError / SimulationError / LifecycleError",
}


class ErrorTaxonomyRule(LintRule):
    """No bare ValueError/TypeError/RuntimeError raises in library code."""

    name = "error-taxonomy"

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in BANNED_EXCEPTIONS:
                yield self.finding(
                    module,
                    node,
                    f"raise {name} escapes the ReproError taxonomy — use "
                    f"{BANNED_EXCEPTIONS[name]} from repro.exceptions",
                )

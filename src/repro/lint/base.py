"""The lint-rule interface.

A rule sees one parsed file at a time (path, source, AST) and yields
findings; it carries no cross-module state, so its results never depend
on traversal order and fixture tests can lint single snippets in
isolation.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import PurePath

from repro.lint.findings import Finding

__all__ = ["ModuleContext", "LintRule"]


@dataclass(frozen=True)
class ModuleContext:
    """One parsed module as the rules see it."""

    path: str
    source: str
    tree: ast.Module

    def is_module(self, *suffixes: str) -> bool:
        """Whether this file is one of the named library modules.

        Matching is by path suffix (``repro/utils/rng.py`` matches both
        ``src/repro/utils/rng.py`` and an installed site-packages copy),
        which also lets the rule tests fake a library path for fixture
        snippets.
        """
        posix_path = PurePath(self.path).as_posix()
        return any(posix_path.endswith(suffix) for suffix in suffixes)


class LintRule(ABC):
    """One enforced invariant.

    Subclasses set ``name`` (the registry identifier, also the
    ``rule`` field of every finding) and implement :meth:`check`.
    """

    name: str = "rule"

    @abstractmethod
    def check(self, module: ModuleContext) -> Iterable[Finding]:
        """Yield every violation of this rule in ``module``."""

    def finding(
        self, module: ModuleContext, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at ``node``'s location."""
        return Finding(
            rule=self.name,
            path=module.path,
            line=int(getattr(node, "lineno", 1)),
            column=int(getattr(node, "col_offset", 0)) + 1,
            message=message,
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


"""Name-based lint-rule factory.

A caller names a rule ("backend-purity", "rng-discipline", ...) plus
keyword arguments and gets a :class:`~repro.lint.base.LintRule`, with
the shared :class:`~repro.utils.registry.Registry` contract.
"""

from __future__ import annotations

from repro.lint.base import LintRule
from repro.utils.registry import Registry

__all__ = [
    "RULES",
    "register_rule",
    "available_rules",
    "rule_factory",
    "make_rule",
]

RULES: Registry[LintRule] = Registry("lint rule")

register_rule = RULES.register
available_rules = RULES.names
rule_factory = RULES.factory
make_rule = RULES.make


"""The lint-rule registry: built-ins and round trips.

The shared registry contract (unknown names, bad kwargs, name
validation, overrides) is tested once for every family in
``tests/utils/test_registry_contract.py``.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.lint import (
    Finding,
    LintRule,
    available_rules,
    make_rule,
    register_rule,
)
from repro.lint.registry import RULES


def test_builtin_rules_are_registered():
    assert available_rules() == [
        "error-taxonomy",
        "rng-discipline",
        "stateful-attack-declaration",
    ]


def test_make_rule_round_trip():
    rule = make_rule("error-taxonomy")
    assert isinstance(rule, LintRule)
    assert rule.name == "error-taxonomy"


def test_custom_rule_registration_and_kwargs(monkeypatch):
    class ShoutRule(LintRule):
        name = "test-shout"

        def __init__(self, loudness: int = 1):
            self.loudness = loudness

        def check(self, module) -> Iterable[Finding]:
            return ()

    # A private copy of the table: the codebase-clean gate runs "all
    # registered rules", so the test rule must not outlive the test.
    monkeypatch.setattr(RULES, "_factories", dict(RULES._factories))
    register_rule("test-shout", ShoutRule)
    assert "test-shout" in available_rules()
    rule = make_rule("test-shout", kwargs={"loudness": 3})
    assert rule.loudness == 3

"""The gate: the shipped library must satisfy its own invariants.

This is the acceptance criterion for the linter — ``repro.lint`` with
every registered rule runs over all of ``src/repro`` and must report
zero findings.  A failure here means either a real invariant violation
slipped in (fix the code) or a rule regressed (fix the rule); the
assertion message prints the rendered findings so CI logs show which.
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.lint import lint_paths

PACKAGE_ROOT = Path(repro.__file__).parent


def test_library_has_zero_findings():
    report = lint_paths([PACKAGE_ROOT])
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.findings == (), f"repro-lint findings in src:\n{rendered}"


def test_gate_actually_scanned_the_library():
    # Guard the gate itself: if package discovery broke (moved tree,
    # empty glob), the zero-findings assertion would pass vacuously.
    report = lint_paths([PACKAGE_ROOT])
    assert report.files_checked >= 90
    assert "backend-purity" in report.rule_names
    assert "rng-discipline" in report.rule_names
    assert "error-taxonomy" in report.rule_names
    assert "stateful-attack-declaration" in report.rule_names
    # The whole-program rules run in the same gate; their own
    # anti-vacuity guards (bad fixtures that must fire) live in
    # tests/lint/test_project_rules.py.
    assert "registry-drift" in report.rule_names
    assert "seeded-query-purity" in report.rule_names
    assert "rng-stream-order" in report.rule_names
    assert "loop-batched-pairing" in report.rule_names


def test_project_rules_are_not_vacuous_on_the_real_tree():
    # The purity and stream-order rules must actually be *reaching* the
    # real library: the purity walk must find the Topology/DelaySchedule
    # overrides, and the stream-order rule must see both frozen-layout
    # spawn sites.  A resolution regression that silently walked nothing
    # would keep the zero-findings gate green forever.
    import ast

    from repro.lint import ModuleContext, build_project_context
    from repro.lint.rules.rng_stream_order import FROZEN_STREAM_LAYOUTS
    from repro.lint.rules.seeded_query_purity import SeededQueryPurityRule

    modules = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        modules.append(
            ModuleContext(path=str(path), source=source, tree=ast.parse(source))
        )
    project = build_project_context(modules)
    roots = SeededQueryPurityRule()._root_keys(project)
    assert len(roots) >= 8  # 5 topologies + 3 nontrivial schedules at least
    assert any("neighbors" in key[1] for key in roots)
    assert any("staleness" in key[1] for key in roots)
    assert any(key[1].endswith(".staleness_block") for key in roots)
    assert ("repro.utils.rng", "seed_sequence_state") in roots
    for suffix in FROZEN_STREAM_LAYOUTS:
        assert any(m.is_module(suffix) for m in modules), suffix

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

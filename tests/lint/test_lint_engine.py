"""Engine behaviour: suppressions, rule selection, file discovery."""

from __future__ import annotations

import textwrap

import pytest

from repro.exceptions import ConfigurationError
from repro.lint import (
    collect_python_files,
    lint_paths,
    lint_source,
    resolve_rules,
)

BAD_RAISE = 'def f():\n    raise ValueError("nope")\n'


def taxonomy_rules():
    return resolve_rules(select=["error-taxonomy", "unused-suppression"])


class TestSuppressions:
    def test_named_suppression_silences_the_finding(self):
        source = (
            "def f():\n"
            '    raise ValueError("nope")'
            "  # repro-lint: ignore[error-taxonomy]\n"
        )
        assert lint_source(source, rules=taxonomy_rules()) == []

    def test_bare_suppression_silences_all_rules(self):
        source = (
            "def f():\n"
            '    raise ValueError("nope")  # repro-lint: ignore\n'
        )
        assert lint_source(source, rules=taxonomy_rules()) == []

    def test_suppression_for_other_rule_does_not_silence(self):
        source = (
            "def f():\n"
            '    raise ValueError("nope")'
            "  # repro-lint: ignore[rng-discipline]\n"
        )
        findings = lint_source(source, rules=taxonomy_rules())
        # The real finding survives AND the suppression is flagged stale
        # for the rules that ran... except rng-discipline did not run, so
        # only the error-taxonomy finding remains.
        assert [f.rule for f in findings] == ["error-taxonomy"]

    def test_unused_suppression_is_flagged(self):
        source = "x = 1  # repro-lint: ignore[error-taxonomy]\n"
        findings = lint_source(source, rules=taxonomy_rules())
        assert [f.rule for f in findings] == ["unused-suppression"]

    def test_unused_bare_suppression_is_flagged(self):
        source = "x = 1  # repro-lint: ignore\n"
        findings = lint_source(source, rules=taxonomy_rules())
        assert [f.rule for f in findings] == ["unused-suppression"]

    def test_malformed_directive_is_flagged(self):
        source = "x = 1  # repro-lint: ignroe[error-taxonomy]\n"
        findings = lint_source(source, rules=taxonomy_rules())
        assert [f.rule for f in findings] == ["unused-suppression"]
        assert "malformed" in findings[0].message

    def test_unknown_rule_in_suppression_is_flagged(self):
        source = "x = 1  # repro-lint: ignore[no-such-rule]\n"
        findings = lint_source(source, rules=taxonomy_rules())
        assert [f.rule for f in findings] == ["unused-suppression"]
        assert "no-such-rule" in findings[0].message

    def test_stale_audit_skips_unselected_rules(self):
        # A suppression for a rule excluded from this run must not be
        # reported stale — the run cannot know whether it still matches.
        source = "x = 1  # repro-lint: ignore[rng-discipline]\n"
        assert lint_source(source, rules=taxonomy_rules()) == []


class TestRuleSelection:
    def test_unknown_select_raises(self):
        with pytest.raises(ConfigurationError, match="--select"):
            resolve_rules(select=["no-such-rule"])

    def test_unknown_ignore_raises(self):
        with pytest.raises(ConfigurationError, match="--ignore"):
            resolve_rules(ignore=["no-such-rule"])

    def test_ignore_removes_from_default_set(self):
        names = {rule.name for rule in resolve_rules(ignore=["error-taxonomy"])}
        assert "error-taxonomy" not in names
        assert "rng-discipline" in names


class TestSyntaxError:
    def test_unparseable_source_reports_syntax_error(self):
        findings = lint_source("def broken(:\n")
        assert [f.rule for f in findings] == ["syntax-error"]

    def test_syntax_error_respects_selection(self):
        findings = lint_source(
            "def broken(:\n", rules=resolve_rules(select=["error-taxonomy"])
        )
        assert findings == []


class TestFileDiscovery:
    def test_directory_recursion_and_report(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "clean.py").write_text("x = 1\n")
        (package / "dirty.py").write_text(textwrap.dedent(BAD_RAISE))
        nested = package / "sub"
        nested.mkdir()
        (nested / "also_dirty.py").write_text(textwrap.dedent(BAD_RAISE))
        (package / "notes.txt").write_text("not python\n")

        report = lint_paths([package], select=["error-taxonomy"])
        assert report.files_checked == 3
        assert len(report.findings) == 2
        assert report.counts_by_rule == {"error-taxonomy": 2}
        payload = report.as_dict()
        assert payload["version"] == 1
        assert payload["summary"]["total"] == 2
        assert payload["summary"]["by_rule"] == {"error-taxonomy": 2}

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no such file"):
            collect_python_files([tmp_path / "ghost"])

    def test_duplicate_paths_are_deduplicated(self, tmp_path):
        target = tmp_path / "one.py"
        target.write_text("x = 1\n")
        files = collect_python_files([target, tmp_path, str(target)])
        assert files == [target]


class TestSuppressionAnchors:
    """Suppressions reach findings anchored elsewhere in the statement."""

    def test_multiline_statement_suppression(self):
        # The finding anchors at the raise (line 2); the suppression sits
        # on the closing-paren line of the same statement.
        source = (
            "def f():\n"
            "    raise ValueError(\n"
            '        "nope"\n'
            "    )  # repro-lint: ignore[error-taxonomy]\n"
        )
        assert lint_source(source, rules=taxonomy_rules()) == []

    def test_decorator_line_suppression_reaches_the_def(self):
        rules = resolve_rules(
            select=["stateful-attack-declaration", "unused-suppression"]
        )
        source = (
            "@register  # repro-lint: ignore\n"
            "class Sneaky(Attack):\n"
            "    def craft(self, value):\n"
            "        self.count = 1\n"
            "        return value\n"
        )
        assert lint_source(source, rules=rules) == []
        # Same class without the suppression: the findings anchor on the
        # class line, not the decorator.
        unsuppressed = lint_source(source.replace(
            "  # repro-lint: ignore", ""
        ), rules=rules)
        assert unsuppressed and all(f.line == 2 for f in unsuppressed)

    def test_body_suppression_does_not_reach_the_header(self):
        rules = resolve_rules(
            select=["stateful-attack-declaration", "unused-suppression"]
        )
        source = (
            "class Sneaky(Attack):\n"
            "    def craft(self, value):\n"
            "        self.count = 1  # repro-lint: ignore\n"
            "        return value\n"
        )
        findings = lint_source(source, rules=rules)
        assert any(
            f.rule == "stateful-attack-declaration" for f in findings
        )

    def test_exact_line_suppression_still_works(self):
        source = (
            "def f():\n"
            '    raise ValueError("nope")  # repro-lint: ignore\n'
        )
        assert lint_source(source, rules=taxonomy_rules()) == []


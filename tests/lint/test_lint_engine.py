"""Engine behaviour: the syntax-error finding and file discovery."""

from __future__ import annotations

import textwrap

import pytest

from repro.exceptions import ConfigurationError
from repro.lint import collect_python_files, lint_paths, lint_source

BAD_RAISE = 'def f():\n    raise ValueError("nope")\n'


class TestSyntaxError:
    def test_unparseable_source_reports_syntax_error(self):
        findings = lint_source("def broken(:\n")
        assert [f.rule for f in findings] == ["syntax-error"]


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

        report = lint_paths([package])
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

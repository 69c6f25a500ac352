"""CLI behaviour: exit codes, the --output JSON report, --help."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro
from repro.lint.cli import main

BAD_MODULE = """
import numpy as np


def sample():
    return np.random.default_rng(3).normal()


def check(x):
    raise ValueError("nope")
"""


def write_bad_module(tmp_path: Path) -> Path:
    target = tmp_path / "bad.py"
    target.write_text(textwrap.dedent(BAD_MODULE))
    return target


def test_clean_file_exits_zero(tmp_path, capsys):
    target = tmp_path / "clean.py"
    target.write_text("x = 1\n")
    assert main([str(target)]) == 0
    out = capsys.readouterr().out
    assert "0 findings in 1 file(s) checked" in out


def test_findings_exit_one_with_rendered_lines(tmp_path, capsys):
    target = write_bad_module(tmp_path)
    assert main([str(target)]) == 1
    out = capsys.readouterr().out
    assert "[rng-discipline]" in out
    assert "[error-taxonomy]" in out
    assert "2 findings in 1 file(s) checked" in out


def test_output_writes_json_report_in_text_mode(tmp_path, capsys):
    target = write_bad_module(tmp_path)
    report_path = tmp_path / "report.json"
    assert main([str(target), "--output", str(report_path)]) == 1
    assert "2 findings in 1 file(s) checked" in capsys.readouterr().out
    payload = json.loads(report_path.read_text())
    assert payload["version"] == 1
    assert payload["files_checked"] == 1
    assert payload["rules"] == [
        "error-taxonomy",
        "rng-discipline",
        "stateful-attack-declaration",
    ]
    assert payload["summary"]["total"] == 2
    assert payload["summary"]["by_rule"] == {
        "error-taxonomy": 1,
        "rng-discipline": 1,
    }
    rules = {finding["rule"] for finding in payload["findings"]}
    assert rules == {"error-taxonomy", "rng-discipline"}


def test_unwritable_output_exits_two(tmp_path, capsys):
    # A bad --output path is a configuration error, not "findings".
    target = tmp_path / "clean.py"
    target.write_text("x = 1\n")
    report_path = tmp_path / "missing-dir" / "report.json"
    assert main([str(target), "--output", str(report_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("repro-lint: error:") == 1
    assert str(report_path) in err
    assert not report_path.exists()


def test_missing_path_exits_two(tmp_path, capsys):
    assert main([str(tmp_path / "ghost.py")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_no_paths_exits_two(capsys):
    assert main([]) == 2
    assert "no paths given" in capsys.readouterr().err


def test_module_help_smoke():
    # The documented entry point: ``python -m repro.lint --help`` must
    # work from a fresh interpreter with only PYTHONPATH=src set.
    src_dir = Path(repro.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    completed = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--help"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert completed.returncode == 0
    assert "python -m repro.lint" in completed.stdout
    assert "--output" in completed.stdout


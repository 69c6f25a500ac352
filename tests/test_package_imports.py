"""Nothing in ``repro`` imports the retired array-backend package.

``repro.backend`` survives only as an empty class that the benchmark
suite's tracer still names.  This guard keeps library code off it, so
deleting the package later breaks nothing but that tracer entry.  The
imports run in a fresh interpreter: this test process may already hold
the package from an earlier test.
"""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]


def library_modules() -> list[str]:
    """Every ``repro`` module but the backend package itself."""
    return [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.name != "repro.backend" and not info.name.startswith("repro.backend.")
    ]


def test_no_library_module_imports_the_backend_package():
    modules = ["repro", *library_modules()]
    assert "repro.engine.simulation" in modules
    script = (
        "import importlib, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.backend')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"

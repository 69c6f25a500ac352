"""Two per-file invariants of the library source, checked on its AST.

* **Seeded streams.**  Every draw comes from a generator that
  ``repro.utils.rng`` (``as_generator`` / ``spawn_generators``) built from
  the root seed, so loop and batched runs stay bit-identical and every
  result is a function of that seed.  ``np.random.default_rng``, legacy
  ``np.random.*`` draws, ``np.random`` passed around as a value and the
  stdlib ``random`` module all open a stream the seed does not reach.
  ``np.random.Generator`` / ``SeedSequence`` / ``BitGenerator`` stay
  legal: they are types and deterministic seeding machinery.
  ``repro/utils/rng.py`` is the one module that builds generators.
* **Error taxonomy.**  Library code raises ``repro.exceptions`` classes,
  never a bare ``ValueError`` / ``TypeError`` / ``RuntimeError``, so a
  caller's ``except ReproError`` catches every library failure.  Each
  taxonomy class subclasses the builtin it replaces.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import pytest

import repro
from repro import exceptions

PACKAGE_ROOT = Path(repro.__file__).parent
RNG_MODULE = PACKAGE_ROOT / "utils" / "rng.py"
_SEEDING_TYPES = frozenset({"Generator", "SeedSequence", "BitGenerator"})
_BARE_BUILTINS = frozenset({"ValueError", "TypeError", "RuntimeError"})


def rng_violations(source: str) -> list[int]:
    """Sorted line numbers where ``source`` draws outside the seeded streams."""
    nodes = list(ast.walk(ast.parse(source)))
    numpy, stdlib = set(), set()
    for node in nodes:
        for alias in node.names if isinstance(node, ast.Import) else ():
            if alias.name == "numpy":
                numpy.add(alias.asname or "numpy")
            if alias.name.split(".")[0] == "random":
                stdlib.add(alias.asname or "random")
    typed = {
        id(node.value)
        for node in nodes
        if isinstance(node, ast.Attribute) and node.attr in _SEEDING_TYPES
    }
    lines = []
    for node in nodes:
        if isinstance(node, ast.Import):
            bad = any(
                a.name.split(".")[0] == "random" or a.name == "numpy.random"
                for a in node.names
            )
        elif isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
            bad = (
                node.module == "random"
                or (node.module == "numpy.random" and not names <= _SEEDING_TYPES)
                or (node.module == "numpy" and "random" in names)
            )
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            bad = node.value.id in stdlib or (
                node.value.id in numpy
                and node.attr == "random"
                and id(node) not in typed
            )
        else:
            continue
        if bad:
            lines.append(node.lineno)
    return sorted(lines)


def taxonomy_violations(source: str) -> list[int]:
    """Sorted line numbers where ``source`` raises a bare builtin error."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in _BARE_BUILTINS:
                lines.append(node.lineno)
    return sorted(lines)


def library_files() -> list[Path]:
    return sorted(PACKAGE_ROOT.rglob("*.py"))


def offenders(check, files) -> list[str]:
    return [
        f"{path.relative_to(PACKAGE_ROOT)}:{line}"
        for path in files
        for line in check(path.read_text(encoding="utf-8"))
    ]


def test_library_draws_only_from_seeded_streams():
    files = [path for path in library_files() if path != RNG_MODULE]
    assert offenders(rng_violations, files) == []


def test_library_raises_only_the_taxonomy():
    assert offenders(taxonomy_violations, library_files()) == []


def test_gates_scan_the_library():
    # An empty glob (moved tree) would pass both gates vacuously; a
    # renamed rng module would silently lose its exemption's target.
    assert len(library_files()) >= 85
    assert RNG_MODULE.is_file()
    assert rng_violations(RNG_MODULE.read_text(encoding="utf-8"))


def marked(code: str) -> tuple[str, list[int]]:
    """The dedented snippet and the lines that end in ``# bad``."""
    source = textwrap.dedent(code)
    lines = source.splitlines()
    return source, [i for i, line in enumerate(lines, 1) if line.endswith("# bad")]


RNG_SNIPPETS = {
    "default-rng": """
        import numpy as np

        def sample():
            return np.random.default_rng(7).normal()  # bad
        """,
    "legacy-global-draw": """
        import numpy as np

        def sample():
            return np.random.normal(size=3)  # bad
        """,
    "global-seed": """
        import numpy as np

        def reset():
            np.random.seed(0)  # bad
        """,
    "np-random-as-value": """
        import numpy as np

        rng = np.random  # bad
        """,
    "aliased-numpy": """
        import numpy

        def sample():
            return numpy.random.rand()  # bad
        """,
    "stdlib-import-and-usage": """
        import random  # bad

        def pick(items):
            return random.choice(items)  # bad
        """,
    "stdlib-alias-usage": """
        import random as rnd  # bad

        def pick():
            return rnd.random()  # bad
        """,
    "from-stdlib-random": """
        from random import shuffle  # bad
        """,
    "from-numpy-random": """
        from numpy.random import default_rng  # bad
        """,
    "from-numpy-import-random": """
        from numpy import random  # bad
        """,
    "import-numpy-random": """
        import numpy.random  # bad
        """,
    "seeding-types-are-allowed": """
        import numpy as np
        from numpy.random import Generator, SeedSequence

        def estimate(params, rng: np.random.Generator) -> np.ndarray:
            return rng.normal(size=3)

        def key(worker: int) -> np.ndarray:
            return np.random.SeedSequence(entropy=(1, worker)).generate_state(2)

        BITS = np.random.BitGenerator
        """,
    "generator-methods-are-allowed": """
        def sample(rng):
            return rng.random(3) + rng.normal()
        """,
    "import-inside-function": """
        def pick(items):
            import random  # bad

            return random.choice(items)  # bad
        """,
    "random-on-a-shared-import-line": """
        import numpy as np, random  # bad
        """,
    "seeding-type-beside-a-draw": """
        from numpy.random import Generator, default_rng  # bad
        """,
    "aliased-seeding-types-are-allowed": """
        from numpy.random import Generator as Gen, SeedSequence as Seq
        """,
    "local-name-random-is-allowed": """
        def sample(rng):
            random = rng.random(3)
            return random.sum()
        """,
}


@pytest.mark.parametrize("code", RNG_SNIPPETS.values(), ids=RNG_SNIPPETS)
def test_rng_check_flags_exactly_the_marked_lines(code):
    source, expected = marked(code)
    assert rng_violations(source) == expected


TAXONOMY_SNIPPETS = {
    # A kernel precondition leaking a bare ValueError instead of the
    # taxonomy: the Weiszfeld bug shape the check exists for.
    "bare-valueerror": """
        def weiszfeld(vectors, tolerance):
            if tolerance <= 0:
                raise ValueError(f"bad tolerance {tolerance}")  # bad
        """,
    "bare-typeerror": """
        def check(x):
            raise TypeError("nope")  # bad
        """,
    "bare-runtimeerror": """
        def check(x):
            raise RuntimeError("nope")  # bad
        """,
    "uncalled-raise": """
        def check(x):
            raise ValueError  # bad
        """,
    "chained-raise": """
        def parse(text):
            try:
                return int(text)
            except ValueError as exc:
                raise ValueError(f"bad integer {text!r}") from exc  # bad
        """,
    "taxonomy-raises-are-clean": """
        from repro.exceptions import ConfigurationError

        def check(x):
            if x < 0:
                raise ConfigurationError(f"x must be >= 0, got {x}")
            try:
                return 1 / x
            except ZeroDivisionError:
                raise
        """,
}


@pytest.mark.parametrize("code", TAXONOMY_SNIPPETS.values(), ids=TAXONOMY_SNIPPETS)
def test_taxonomy_check_flags_exactly_the_marked_lines(code):
    source, expected = marked(code)
    assert taxonomy_violations(source) == expected


# The builtin each taxonomy class also subclasses, so a caller's
# ``except ValueError`` / ``except RuntimeError`` written against the
# builtins the library once raised still catches the taxonomy error.
TAXONOMY_BUILTINS = {
    "ConfigurationError": ValueError,
    "ByzantineToleranceError": ValueError,
    "DimensionMismatchError": ValueError,
    "InvalidVectorError": ValueError,
    "ConvergenceError": RuntimeError,
    "SimulationError": RuntimeError,
    "LifecycleError": RuntimeError,
}


def test_every_taxonomy_class_names_its_builtin():
    assert set(exceptions.__all__) - {"ReproError"} == set(TAXONOMY_BUILTINS)


@pytest.mark.parametrize("name", TAXONOMY_BUILTINS)
def test_taxonomy_class_subclasses_the_builtin_it_replaces(name):
    cls = getattr(exceptions, name)
    assert issubclass(cls, exceptions.ReproError)
    assert issubclass(cls, TAXONOMY_BUILTINS[name])

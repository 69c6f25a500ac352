"""rng-discipline: all randomness flows through ``repro.utils.rng``.

The loop/batched bit-for-bit guarantee holds because every stream in a
simulation is spawned — in a fixed order — from one root seed
(``as_generator`` / ``spawn_generators``).  A stray
``np.random.default_rng(...)`` or legacy ``np.random.*`` draw creates a
stream the seeding discipline does not know about: results stop being a
function of the root seed, and the differential tests can no longer
pin them.  The stdlib ``random`` module is the same hazard with global
state on top.

Allowed everywhere: ``np.random.Generator`` / ``np.random.SeedSequence``
/ ``np.random.BitGenerator`` — type references and deterministic seeding
machinery (the counter-based ``SeedSequence`` keying in the delay
schedules is *how* the discipline is implemented, not a violation).
``repro/utils/rng.py`` itself is the sanctioned wrapper and is exempt.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.lint.base import LintRule, ModuleContext
from repro.lint.findings import Finding

__all__ = ["RngDisciplineRule"]

#: The one module allowed to call ``np.random.default_rng``.
SANCTIONED_MODULES = ("repro/utils/rng.py",)

#: Deterministic seeding/typing machinery — not draws.
_ALLOWED_NP_RANDOM = frozenset({"Generator", "SeedSequence", "BitGenerator"})


class _Visitor(ast.NodeVisitor):
    def __init__(self, rule: RngDisciplineRule, module: ModuleContext):
        self.rule = rule
        self.module = module
        self.findings: list[Finding] = []
        self.numpy_aliases: set[str] = set()
        self.random_aliases: set[str] = set()
        self._sanctioned: set[int] = set()

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(self.rule.finding(self.module, node, message))

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "numpy":
                self.numpy_aliases.add(alias.asname or "numpy")
            if alias.name == "random" or alias.name.startswith("random."):
                self.random_aliases.add(alias.asname or alias.name.split(".")[0])
                self._flag(
                    node,
                    "the stdlib 'random' module has global state — draw "
                    "through repro.utils.rng (as_generator / "
                    "spawn_generators) instead",
                )
            if alias.name == "numpy.random":
                self._flag(
                    node,
                    "import numpy.random hides draws from the seeding "
                    "discipline — use repro.utils.rng",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            self._flag(
                node,
                "the stdlib 'random' module has global state — draw "
                "through repro.utils.rng instead",
            )
        elif node.module in ("numpy.random", "numpy"):
            for alias in node.names:
                if (
                    node.module == "numpy.random"
                    and alias.name not in _ALLOWED_NP_RANDOM
                ) or (node.module == "numpy" and alias.name == "random"):
                    self._flag(
                        node,
                        f"importing {alias.name!r} from {node.module} "
                        f"bypasses the seeded-stream discipline — use "
                        f"repro.utils.rng (as_generator / "
                        f"spawn_generators)",
                    )
        self.generic_visit(node)

    def _is_np_random(self, node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in self.numpy_aliases
        )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            isinstance(node.value, ast.Name)
            and node.value.id in self.random_aliases
        ):
            # Usage sites are flagged besides the import, so every draw
            # from the global RNG is reported where it happens.
            self._flag(
                node,
                f"{node.value.id}.{node.attr} draws from the stdlib "
                f"global RNG — results stop being a function of the root "
                f"seed; use repro.utils.rng (as_generator / "
                f"spawn_generators)",
            )
        if self._is_np_random(node.value):
            self._sanctioned.add(id(node.value))
            if node.attr == "seed":
                self._flag(
                    node,
                    "np.random.seed mutates numpy's process-global RNG "
                    "state — every legacy draw anywhere shifts with it; "
                    "bind an explicit Generator from repro.utils.rng "
                    "instead",
                )
            elif node.attr not in _ALLOWED_NP_RANDOM:
                self._flag(
                    node,
                    f"np.random.{node.attr} bypasses the seeded-stream "
                    f"discipline — draw through repro.utils.rng "
                    f"(as_generator / spawn_generators)",
                )
        elif self._is_np_random(node) and id(node) not in self._sanctioned:
            # np.random passed around bare (aliasing the module) — the
            # draws it enables are untraceable from here.
            self._flag(
                node,
                "np.random used as a value — draw through repro.utils.rng",
            )
        self.generic_visit(node)


class RngDisciplineRule(LintRule):
    """No np.random.* draws or stdlib random anywhere in the library."""

    name = "rng-discipline"

    def __init__(
        self, sanctioned_modules: tuple[str, ...] = SANCTIONED_MODULES
    ):
        self.sanctioned_modules = tuple(sanctioned_modules)

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        if module.is_module(*self.sanctioned_modules):
            return ()
        visitor = _Visitor(self, module)
        visitor.visit(module.tree)
        return visitor.findings

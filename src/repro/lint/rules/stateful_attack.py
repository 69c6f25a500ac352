"""stateful-attack-declaration: per-round attack state must be declared.

The PR 6 reuse bug: an attack that accumulates instance state inside
``craft`` (a round counter, a learned amplitude, cached observations)
silently poisons the next run when the same instance is reused — unless
it declares ``stateful = True`` (so the batched engine can refuse to
share one instance across scenarios) and overrides ``reset()`` (so
sequential reuse starts clean).  This rule finds ``Attack`` and
``ServerAttack`` subclasses (worker-side and server-side attacks share
the contract) that write ``self.*`` outside ``__init__``/``reset`` and
checks both declarations are present — on the class or an in-module
ancestor.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.lint.base import LintRule, ModuleContext
from repro.lint.findings import Finding

__all__ = ["StatefulAttackRule"]

#: Methods whose ``self.*`` writes are per-run *setup*, not per-round
#: state: construction and the sanctioned reset hook itself.
_SETUP_METHODS = frozenset({"__init__", "__post_init__", "reset"})


def _base_names(node: ast.ClassDef) -> set[str]:
    names = set()
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


#: Root classes whose subclasses carry the stateful/reset contract:
#: worker-side attacks and server-side broadcast attacks.
_ATTACK_ROOTS = frozenset({"Attack", "ServerAttack"})


def _attack_classes(tree: ast.Module) -> dict[str, ast.ClassDef]:
    """Classes deriving (transitively, by name, within the module) from
    ``Attack`` or ``ServerAttack``."""
    classes = {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    attacks: set[str] = set()
    changed = True
    while changed:
        changed = False
        for name, node in classes.items():
            if name in attacks:
                continue
            bases = _base_names(node)
            if bases & _ATTACK_ROOTS or bases & attacks:
                attacks.add(name)
                changed = True
    return {name: classes[name] for name in attacks}


def _self_writes(method: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Instance attributes the method assigns (plain, augmented or
    annotated assignment, including tuple-unpacking targets)."""
    written: set[str] = set()

    def collect(target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                collect(element)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            written.add(target.attr)

    for node in ast.walk(method):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                collect(target)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            collect(node.target)
    return written


def _declares_stateful(node: ast.ClassDef) -> bool:
    for statement in node.body:
        targets: list[ast.expr] = []
        value = None
        if isinstance(statement, ast.Assign):
            targets, value = statement.targets, statement.value
        elif isinstance(statement, ast.AnnAssign):
            targets, value = [statement.target], statement.value
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id == "stateful"
                and isinstance(value, ast.Constant)
                and value.value is True
            ):
                return True
    return False


def _defines_reset(node: ast.ClassDef) -> bool:
    return any(
        isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
        and statement.name == "reset"
        for statement in node.body
    )


def _ancestry(
    node: ast.ClassDef, classes: dict[str, ast.ClassDef]
) -> list[ast.ClassDef]:
    """The class plus its in-module ancestors (name-resolved, cycle-safe)."""
    chain: list[ast.ClassDef] = []
    seen: set[str] = set()
    frontier = [node]
    while frontier:
        current = frontier.pop()
        if current.name in seen:
            continue
        seen.add(current.name)
        chain.append(current)
        for base in _base_names(current):
            if base in classes:
                frontier.append(classes[base])
    return chain


class StatefulAttackRule(LintRule):
    """Attacks with craft-time instance state declare stateful + reset."""

    name = "stateful-attack-declaration"

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        attacks = _attack_classes(module.tree)
        for node in attacks.values():
            writes: dict[str, set[str]] = {}
            for statement in node.body:
                if (
                    isinstance(
                        statement, (ast.FunctionDef, ast.AsyncFunctionDef)
                    )
                    and statement.name not in _SETUP_METHODS
                ):
                    written = _self_writes(statement)
                    if written:
                        writes[statement.name] = written
            if not writes:
                continue
            chain = _ancestry(node, attacks)
            has_stateful = any(_declares_stateful(cls) for cls in chain)
            has_reset = any(_defines_reset(cls) for cls in chain)
            detail = "; ".join(
                f"{method} writes self.{{{', '.join(sorted(attrs))}}}"
                for method, attrs in sorted(writes.items())
            )
            if not has_stateful:
                yield self.finding(
                    module,
                    node,
                    f"attack {node.name!r} carries per-round instance state "
                    f"({detail}) but does not declare stateful = True — "
                    f"reused instances would leak state across runs "
                    f"(the PR 6 reuse bug)",
                )
            if not has_reset:
                yield self.finding(
                    module,
                    node,
                    f"attack {node.name!r} carries per-round instance state "
                    f"({detail}) but does not override reset() — "
                    f"sequential reuse cannot start clean",
                )

"""seeded-query-purity: bound queries stay pure, transitively.

The loop and batched executors query ``Topology.neighbors`` and
``DelaySchedule.staleness`` in *different orders* (the batched executor
prefetches delays through ``DelaySchedule.staleness_block``); the bit-for-bit
differential guarantee therefore requires both to be pure functions of
their arguments and bind-time state.  The contract is documented on the
ABCs, but a violation hides easily one helper call deep: a memo cache
written from ``neighbors``, a module-level counter, a stray
``rng.integers`` draw that consumes shared stream state.

This rule walks the project call graph from every override of the
configured query methods (across all subclasses, resolved through the
whole-program class table) plus the configured pure helper functions
(``counter_uniform``, ``seed_sequence_state`` and anything they call),
and flags in any reachable
function:

- assignment to ``self.*`` (instance mutation — queries may only read),
- ``global``/``nonlocal`` declarations and stores through module-level
  names (hidden shared state),
- RNG draw-method calls (``integers``, ``random``, ``choice``,
  ``permutation``, ...) — draws are legal only inside ``bind``, which is
  never a purity root.

Counter-based machinery stays legal: ``SeedSequence(...).generate_state``
is a pure function of its key, exactly the discipline the randomized
schedules/topologies use.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.lint.base import ProjectRule
from repro.lint.findings import Finding
from repro.lint.project import ProjectContext, SymbolKey

__all__ = ["SeededQueryPurityRule", "QUERY_ROOTS", "PURE_FUNCTIONS"]

#: ``(root class name, query method)`` pairs: every project subclass's
#: override of the method is a purity root.
QUERY_ROOTS: tuple[tuple[str, str], ...] = (
    ("Topology", "neighbors"),
    ("DelaySchedule", "staleness"),
    ("DelaySchedule", "staleness_block"),
)

#: Top-level functions that must be pure wherever they are defined.
PURE_FUNCTIONS: tuple[str, ...] = ("counter_uniform", "seed_sequence_state")

#: ``numpy.random.Generator`` draw methods — any call spelled
#: ``<receiver>.<draw>(...)`` in a pure region consumes stream state.
_DRAW_METHODS = frozenset(
    {
        "integers",
        "random",
        "normal",
        "standard_normal",
        "uniform",
        "choice",
        "permutation",
        "permuted",
        "shuffle",
        "exponential",
        "standard_exponential",
        "poisson",
        "binomial",
        "gamma",
        "standard_gamma",
        "beta",
        "bytes",
    }
)


class SeededQueryPurityRule(ProjectRule):
    """neighbors/staleness/staleness_block and the counter hashes are
    transitively pure."""

    name = "seeded-query-purity"
    description = (
        "Topology.neighbors, DelaySchedule.staleness/staleness_block, "
        "counter_uniform and seed_sequence_state callees stay pure: no "
        "self/global mutation, no RNG draw outside bind (walked through "
        "the call graph)"
    )

    def __init__(
        self,
        query_roots: tuple[tuple[str, str], ...] = QUERY_ROOTS,
        pure_functions: tuple[str, ...] = PURE_FUNCTIONS,
    ):
        self.query_roots = tuple(query_roots)
        self.pure_functions = tuple(pure_functions)

    def _root_keys(
        self, project: ProjectContext
    ) -> dict[SymbolKey, str]:
        """Purity roots mapped to the contract they belong to."""
        roots: dict[SymbolKey, str] = {}
        for class_name, method in self.query_roots:
            contract = f"{class_name}.{method}"
            for info in project.subclasses_of(class_name):
                key = (info.key[0], f"{info.key[1]}.{method}")
                if key in project.functions:
                    roots[key] = contract
            for key in project.classes:
                if key[1] == class_name:
                    method_key = (key[0], f"{class_name}.{method}")
                    if method_key in project.functions:
                        roots[method_key] = contract
        for name in self.pure_functions:
            for info in project.find_functions(name):
                roots[info.key] = name
        return roots

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        roots = self._root_keys(project)
        findings: list[Finding] = []
        seen: set[tuple[SymbolKey, int]] = set()
        for root, contract in sorted(roots.items()):
            for key in sorted(project.reachable_from([root])):
                info = project.functions.get(key)
                if info is None:
                    continue
                for node, problem in self._violations(project, key):
                    mark = (key, node.lineno)
                    if mark in seen:
                        continue
                    seen.add(mark)
                    findings.append(
                        self.project_finding(
                            info.module.path,
                            node,
                            f"{key[1]} is reachable from the pure query "
                            f"{contract} but {problem} — loop and batched "
                            f"executors query in different orders, so "
                            f"bound queries must be pure",
                        )
                    )
        return sorted(findings, key=Finding.sort_key)

    #: Constructors write the fresh instance they are building — that is
    #: object construction, not mutation of the query object.  Draws and
    #: global mutation stay flagged even here.
    _CONSTRUCTORS = ("__init__", "__post_init__", "__new__")

    def _violations(
        self, project: ProjectContext, key: SymbolKey
    ) -> list[tuple[ast.AST, str]]:
        info = project.functions[key]
        in_constructor = any(
            key[1].endswith(f".{ctor}") for ctor in self._CONSTRUCTORS
        )
        module_globals = {
            name
            for (module, name) in project.functions
            if module == key[0]
        } | {name for (module, name) in project.classes if module == key[0]}
        for statement in info.module.tree.body:
            for target in _assign_targets(statement):
                if isinstance(target, ast.Name):
                    module_globals.add(target.id)

        problems: list[tuple[ast.AST, str]] = []
        for node in ast.walk(info.node):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                problems.append(
                    (node, "declares global/nonlocal state")
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                for target in _assign_targets(node):
                    base = _store_base(target)
                    if (
                        isinstance(base, ast.Name)
                        and base.id == "self"
                        and base is not target
                    ):
                        if not in_constructor:
                            problems.append(
                                (node, "assigns instance state (self.*)")
                            )
                    elif (
                        isinstance(base, ast.Name)
                        and base is not target
                        and base.id in module_globals
                    ):
                        problems.append(
                            (
                                node,
                                f"mutates the module-level name "
                                f"{base.id!r}",
                            )
                        )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _DRAW_METHODS
            ):
                problems.append(
                    (
                        node,
                        f"draws from an RNG stream "
                        f"(.{node.func.attr}(...)) — draws are only "
                        f"legal inside bind()",
                    )
                )
        return problems


def _assign_targets(node: ast.stmt) -> list[ast.expr]:
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return []
    flat: list[ast.expr] = []
    frontier = targets
    while frontier:
        target = frontier.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            frontier.extend(target.elts)
        else:
            flat.append(target)
    return flat


def _store_base(target: ast.expr) -> ast.expr:
    """The root expression a store writes through (``a.b[c].d`` -> ``a``)."""
    while isinstance(target, (ast.Attribute, ast.Subscript)):
        target = target.value
    return target

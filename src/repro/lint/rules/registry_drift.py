"""registry-drift: every registry stays in sync with its consumers.

The library's extension surface is a set of name-based registries, each
a :class:`~repro.utils.registry.Registry` instance.  Each has three
consumers that must track the registered names: a contract-test sweep
(a test that lists the family's names), the CLI choice source (choices
derived from the registry, not a hard-coded list), and the README's
``Registry name`` tables.  Drift in either direction is a real bug
shape: ``probe-bandit`` was once registered without its README row; a
hard-coded CLI choices list silently hides new registrations.

Families are discovered, not configured: every module-level
``NAME = Registry("kind")`` declaration (annotated or not) is one
family.  Its *aliases* are the module-level bindings of its methods
anywhere in the project: ``register_x = NAME.register``, or a function
whose body is ``return NAME.make(...)``.

Checks, per family:

- every literal name passed to the family's ``register`` (on the
  instance or through an alias) is collected (``ClassName.name``
  registrations resolve through the project symbol table);
- some test module must reference the family's ``names`` sweep
  (``NAME.names`` or an alias of it) — otherwise registered names are
  unreachable from the contract tests;
- a CLI module (``*/cli.py``) exposing the family must derive its
  choices dynamically (reference the instance or an alias);
  a literal ``choices=[...]`` list claimed by a family must cover every
  registered name;
- every literal name passed to the family's lookups (``make``,
  ``make_optional``, ``factory``, ``check``, ``check_optional``,
  ``accepts``, or an alias of one) in linted code must be registered
  (typo'd names fail at runtime — this catches them statically);
- every README table whose first column is ``Registry name`` is claimed
  by the family with the largest overlap and diffed both ways.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.lint.base import ModuleContext, ProjectRule
from repro.lint.findings import Finding
from repro.lint.project import ProjectContext

__all__ = ["RegistryDriftRule"]

#: Registry methods whose first argument is a registered name.
_LOOKUPS = frozenset(
    {"make", "make_optional", "factory", "check", "check_optional", "accepts"}
)


@dataclass
class _Family:
    """One discovered ``Registry(kind)`` declaration and its bindings."""

    kind: str
    instance: str
    #: alias name -> the registry method it binds
    aliases: dict[str, str] = field(default_factory=dict)

    def names_for(self, *methods: str) -> set[str]:
        """The instance-qualified and alias spellings of ``methods``."""
        return {f"{self.instance}.{m}" for m in methods} | {
            alias for alias, m in self.aliases.items() if m in methods
        }

    def label_for(self, method: str) -> str:
        """The spelling messages use: an alias if one exists."""
        aliases = sorted(a for a, m in self.aliases.items() if m == method)
        return aliases[0] if aliases else f"{self.instance}.{method}"


@dataclass(frozen=True)
class _Registration:
    name: str
    module: ModuleContext
    node: ast.Call


def _call_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _dotted(node: ast.expr) -> str | None:
    """``"NAME.attr"`` for an ``Attribute`` on a bare ``Name``."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return f"{node.value.id}.{node.attr}"
    return None


def _referenced_names(tree: ast.Module) -> set[str]:
    """Every ``Name`` id, ``Attribute`` attr and ``NAME.attr`` pair in
    the tree — the cheap "does this module mention accessor X at all"
    predicate."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            dotted = _dotted(node)
            if dotted is not None:
                names.add(dotted)
    return names


def _registry_kind(value: ast.expr) -> str | None:
    """The kind of a ``Registry("kind")`` call."""
    if not isinstance(value, ast.Call) or not value.args:
        return None
    kind = value.args[0]
    if (
        _call_name(value.func) == "Registry"
        and isinstance(kind, ast.Constant)
        and isinstance(kind.value, str)
    ):
        return kind.value
    return None


def _assignments(tree: ast.Module) -> Iterable[tuple[str, ast.expr]]:
    """``(target, value)`` for every module-level single-name binding."""
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            yield stmt.targets[0].id, stmt.value
        elif (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.value is not None
        ):
            yield stmt.target.id, stmt.value


def _wrapped_method(func: ast.FunctionDef) -> ast.Attribute | None:
    """The ``NAME.method`` a one-statement ``return NAME.method(...)``
    wrapper (docstring allowed) delegates to."""
    statements = [
        stmt
        for stmt in func.body
        if not (
            isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
        )
    ]
    if len(statements) != 1:
        return None
    (only,) = statements
    if (
        isinstance(only, ast.Return)
        and isinstance(only.value, ast.Call)
        and isinstance(only.value.func, ast.Attribute)
    ):
        return only.value.func
    return None


def _discover_families(project: ProjectContext) -> list[_Family]:
    families: dict[str, _Family] = {}
    for module in project.modules:
        for target, value in _assignments(module.tree):
            kind = _registry_kind(value)
            if kind is not None:
                families[target] = _Family(kind=kind, instance=target)
    for module in project.modules:
        bindings: list[tuple[str, ast.expr | None]] = list(
            _assignments(module.tree)
        )
        bindings.extend(
            (stmt.name, _wrapped_method(stmt))
            for stmt in module.tree.body
            if isinstance(stmt, ast.FunctionDef)
        )
        for alias, value in bindings:
            if (
                isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id in families
            ):
                families[value.value.id].aliases[alias] = value.attr
    return sorted(families.values(), key=lambda f: f.instance)


#: A README table row; the first cell's backticked name is captured.
_TABLE_ROW = re.compile(r"^\|\s*`(?P<name>[^`]+)`\s*\|")
_TABLE_HEADER = re.compile(r"^\|\s*Registry name\s*\|", re.IGNORECASE)


def _readme_tables(text: str) -> list[tuple[int, list[tuple[int, str]]]]:
    """``(header_line, [(row_line, name), ...])`` for each table whose
    first header cell is ``Registry name`` (1-based lines)."""
    tables = []
    lines = text.splitlines()
    index = 0
    while index < len(lines):
        if _TABLE_HEADER.match(lines[index]):
            header_line = index + 1
            rows: list[tuple[int, str]] = []
            cursor = index + 1
            while cursor < len(lines) and lines[cursor].startswith("|"):
                match = _TABLE_ROW.match(lines[cursor])
                if match:
                    rows.append((cursor + 1, match.group("name").strip()))
                cursor += 1
            tables.append((header_line, rows))
            index = cursor
        else:
            index += 1
    return tables


class RegistryDriftRule(ProjectRule):
    """Registered names, contract sweeps, CLI choices and README tables
    must agree."""

    name = "registry-drift"
    description = (
        "every registered name is reachable from its contract-test sweep, "
        "CLI choice source and README table — and every referenced name "
        "exists in a registry"
    )

    def __init__(self, cli_suffixes: tuple[str, ...] = ("/cli.py", "cli.py")):
        self.cli_suffixes = tuple(cli_suffixes)

    # -- collection ----------------------------------------------------

    @staticmethod
    def _family_of(
        func: ast.expr, families: list[_Family], methods: Iterable[str]
    ) -> _Family | None:
        """The family whose ``methods`` (on the instance or an alias)
        ``func`` calls."""
        spelled = {_dotted(func), _call_name(func)} - {None}
        for family in families:
            if spelled & family.names_for(*methods):
                return family
        return None

    def _collect_registrations(
        self, project: ProjectContext, families: list[_Family]
    ) -> dict[str, list[_Registration]]:
        registrations: dict[str, list[_Registration]] = {
            family.instance: [] for family in families
        }
        for module in project.modules:
            module_name = project.module_name(module)
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call) or not node.args:
                    continue
                family = self._family_of(node.func, families, ("register",))
                if family is None:
                    continue
                literal = self._literal_name(project, module_name, node.args[0])
                if literal is not None:
                    registrations[family.instance].append(
                        _Registration(name=literal, module=module, node=node)
                    )
        return registrations

    @staticmethod
    def _literal_name(
        project: ProjectContext, module_name: str, arg: ast.expr
    ) -> str | None:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        # ``register_rule(SomeRule.name, SomeRule)`` — resolve the class
        # through the symbol table and read its ``name`` class attribute.
        if (
            isinstance(arg, ast.Attribute)
            and isinstance(arg.value, ast.Name)
            and arg.attr == "name"
        ):
            target = project.resolve(module_name, arg.value.id)
            if target is not None and target[0] == "class":
                value = project.class_attr_constant(target[1], "name")
                if isinstance(value, str):
                    return value
        return None

    # -- the checks ----------------------------------------------------

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        families = _discover_families(project)
        aux_names: set[str] = set()
        for module in project.auxiliary:
            aux_names |= _referenced_names(module.tree)

        cli_modules = [
            module
            for module in project.modules
            if module.is_module(*self.cli_suffixes)
        ]
        cli_names: set[str] = set()
        for module in cli_modules:
            cli_names |= _referenced_names(module.tree)

        all_registrations = self._collect_registrations(project, families)
        registered: dict[str, set[str]] = {}
        findings: list[Finding] = []
        for family in families:
            registrations = all_registrations[family.instance]
            registered.setdefault(family.kind, set()).update(
                r.name for r in registrations
            )
            if not registrations:
                continue
            anchor = min(
                registrations, key=lambda r: (r.module.path, r.node.lineno)
            )
            if project.auxiliary and not aux_names & family.names_for("names"):
                findings.append(
                    self.project_finding(
                        anchor.module.path,
                        anchor.node,
                        f"{family.kind} names registered via "
                        f"{family.label_for('register')}() are not swept by "
                        f"any contract test — no test references "
                        f"{family.label_for('names')}(), so registered "
                        f"names are unreachable from the sweep",
                    )
                )
            findings.extend(
                self._check_cli(family, registrations, cli_modules, cli_names)
            )
        findings.extend(self._check_references(project, families, registered))
        findings.extend(self._check_readme(project, registered))
        return sorted(findings, key=Finding.sort_key)

    def _check_cli(
        self,
        family: _Family,
        registrations: list[_Registration],
        cli_modules: list[ModuleContext],
        cli_names: set[str],
    ) -> list[Finding]:
        if not cli_modules:
            return []
        dynamic = {family.instance, *family.aliases}
        if cli_names & dynamic:
            return []
        # No dynamic accessor anywhere in a CLI module: the family is
        # either not a CLI surface (then no literal mentions it and the
        # strings check below stays silent) or hard-coded (then every
        # registered name must at least appear literally).
        cli_strings: set[str] = set()
        for module in cli_modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Constant) and isinstance(
                    node.value, str
                ):
                    cli_strings.add(node.value)
        mentioned = {r.name for r in registrations} & cli_strings
        if not mentioned:
            return []
        findings = []
        for registration in registrations:
            if registration.name not in cli_strings:
                findings.append(
                    self.project_finding(
                        registration.module.path,
                        registration.node,
                        f"{family.kind} {registration.name!r} is registered "
                        f"but unreachable from the CLI choice source — the "
                        f"CLI hard-codes {sorted(mentioned)} instead of "
                        f"deriving choices from "
                        f"{family.label_for('names')}()",
                    )
                )
        return findings

    def _check_references(
        self,
        project: ProjectContext,
        families: list[_Family],
        registered: dict[str, set[str]],
    ) -> list[Finding]:
        """Literal names passed to a family's lookups (and literal
        argparse ``choices=`` lists) must exist in the claimed registry."""
        findings = []
        for module in project.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                family = self._family_of(node.func, families, _LOOKUPS)
                if (
                    family is not None
                    and registered.get(family.kind)
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                    and node.args[0].value not in registered[family.kind]
                ):
                    findings.append(
                        self.project_finding(
                            module.path,
                            node.args[0],
                            f"{_dotted(node.func) or _call_name(node.func)}"
                            f"({node.args[0].value!r}) names an "
                            f"unregistered {family.kind}; registered: "
                            f"{sorted(registered[family.kind])}",
                        )
                    )
                for keyword in node.keywords:
                    if keyword.arg == "choices" and isinstance(
                        keyword.value, (ast.List, ast.Tuple)
                    ):
                        findings.extend(
                            self._check_choices_literal(
                                module, keyword.value, registered
                            )
                        )
        return findings

    def _check_choices_literal(
        self,
        module: ModuleContext,
        node: ast.List | ast.Tuple,
        registered: dict[str, set[str]],
    ) -> list[Finding]:
        values = [
            element.value
            for element in node.elts
            if isinstance(element, ast.Constant)
            and isinstance(element.value, str)
        ]
        if len(values) != len(node.elts) or not values:
            return []
        best_label, best_overlap = None, 0
        for label, names in registered.items():
            overlap = len(set(values) & names)
            if overlap > best_overlap:
                best_label, best_overlap = label, overlap
        if best_label is None:
            return []
        missing = sorted(registered[best_label] - set(values))
        unknown = sorted(set(values) - registered[best_label])
        findings = []
        if missing:
            findings.append(
                self.project_finding(
                    module.path,
                    node,
                    f"literal choices list covers only {sorted(values)} of "
                    f"the registered {best_label}s — missing {missing}; "
                    f"derive choices from the registry instead",
                )
            )
        if unknown:
            findings.append(
                self.project_finding(
                    module.path,
                    node,
                    f"literal choices list names unregistered {best_label}"
                    f"(s) {unknown}",
                )
            )
        return findings

    def _check_readme(
        self, project: ProjectContext, registered: dict[str, set[str]]
    ) -> list[Finding]:
        findings = []
        for document in project.documents:
            if not document.posix_path.endswith(".md"):
                continue
            for header_line, rows in _readme_tables(document.text):
                table_names = {name for _, name in rows}
                if not table_names:
                    continue
                best_label, best_overlap = None, 0
                for label, names in registered.items():
                    overlap = len(table_names & names)
                    if overlap > best_overlap:
                        best_label, best_overlap = label, overlap
                if best_label is None:
                    continue
                family_names = registered[best_label]
                for row_line, name in rows:
                    if name not in family_names:
                        findings.append(
                            Finding(
                                rule=self.name,
                                path=document.path,
                                line=row_line,
                                column=1,
                                message=(
                                    f"README {best_label} table row "
                                    f"{name!r} does not exist in the "
                                    f"{best_label} registry; registered: "
                                    f"{sorted(family_names)}"
                                ),
                            )
                        )
                for missing in sorted(family_names - table_names):
                    findings.append(
                        Finding(
                            rule=self.name,
                            path=document.path,
                            line=header_line,
                            column=1,
                            message=(
                                f"registered {best_label} {missing!r} is "
                                f"missing from the README {best_label} "
                                f"table — add a row for it"
                            ),
                        )
                    )
        return findings

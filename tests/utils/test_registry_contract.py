"""One contract test for every name registry.

Each family is a :class:`~repro.utils.registry.Registry` instance whose
bound methods are re-exported under the family's public names.  The
contract — unknown names list the sorted alternatives, bad kwargs name
the kind, the entry and its accepted parameters, names are non-empty
strings, factories are callables, later registrations override, and the
optional families have a ``None`` arm — is checked once here against
all of them.  Family-specific behaviour (composite/probe parts, kardam's
``f`` forwarding, ...) stays in each family's tests.

The registries' consumers are checked here too, against registries
found by walking every ``repro`` module rather than from a list: the
README's ``Registry name`` tables and the experiment CLI's choices must
name exactly what each registry holds, so a registration without its
docs row or a hard-coded choices list fails.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import pkgutil
import re
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro
from repro.attacks.registry import (
    ATTACKS,
    attack_factory,
    available_attacks,
    make_attack,
    register_attack,
)
from repro.core.registry import (
    AGGREGATORS,
    aggregator_factory,
    available_aggregators,
    make_aggregator,
    register_aggregator,
)
from repro.distributed.delays import (
    DELAY_SCHEDULES,
    available_delay_schedules,
    delay_schedule_factory,
    make_delay_schedule,
    register_delay_schedule,
)
from repro.engine.workloads import (
    WORKLOADS,
    available_workloads,
    make_workload,
    register_workload,
    workload_factory,
)
from repro.exceptions import ConfigurationError
from repro.experiments.cli import _CLI_ATTACK_EXCLUDES, build_parser
from repro.servers.registry import (
    SERVER_ATTACKS,
    available_server_attacks,
    make_server_attack,
    register_server_attack,
    server_attack_factory,
)
from repro.topology.registry import (
    TOPOLOGIES,
    available_topologies,
    make_topology,
    register_topology,
    topology_factory,
)
from repro.utils.registry import Registry


@dataclass(frozen=True)
class Family:
    """One registry with its public bindings and a sample entry."""

    registry: Registry
    register: Callable
    available: Callable
    factory: Callable
    #: The public ``make_*`` spelling as ``build(name, kwargs)``.
    build: Callable
    sample: str
    #: A keyword the sample's factory accepts.
    param: str
    optional: bool


def _make_aggregator(name, kwargs=None):
    return make_aggregator(name, **(kwargs or {}))


FAMILIES = {
    "aggregator": Family(
        AGGREGATORS, register_aggregator, available_aggregators,
        aggregator_factory, _make_aggregator, "krum", "f", False,
    ),
    "attack": Family(
        ATTACKS, register_attack, available_attacks, attack_factory,
        make_attack, "gaussian", "sigma", True,
    ),
    "workload": Family(
        WORKLOADS, register_workload, available_workloads, workload_factory,
        make_workload, "quadratic", "dimension", False,
    ),
    "delay schedule": Family(
        DELAY_SCHEDULES, register_delay_schedule, available_delay_schedules,
        delay_schedule_factory, make_delay_schedule, "constant", "tau", True,
    ),
    "server attack": Family(
        SERVER_ATTACKS, register_server_attack, available_server_attacks,
        server_attack_factory, make_server_attack, "sign-flip-broadcast",
        "scale", True,
    ),
    "topology": Family(
        TOPOLOGIES, register_topology, available_topologies,
        topology_factory, make_topology, "ring", "degree", False,
    ),
}


@pytest.fixture(params=sorted(FAMILIES), ids=lambda kind: kind.replace(" ", "-"))
def kind(request) -> str:
    return request.param


@pytest.fixture
def family(kind) -> Family:
    return FAMILIES[kind]


@pytest.fixture
def isolated(family, monkeypatch) -> Family:
    """The family with a private copy of its table, restored afterwards,
    so a test can register freely."""
    registry = family.registry
    monkeypatch.setattr(registry, "_factories", dict(registry._factories))
    return family


class TestRegistryContract:
    def test_public_names_bind_the_registry(self, kind, family):
        registry = family.registry
        assert registry.kind == kind
        assert family.register == registry.register
        assert family.available == registry.names
        assert family.factory == registry.factory

    def test_names_are_sorted(self, family):
        names = family.available()
        assert names == sorted(names)
        assert family.sample in names

    def test_unknown_name_lists_sorted_available(self, kind, family):
        registry = family.registry
        expected = re.escape(
            f"unknown {kind} 'no-such-entry'; available: {registry.names()}"
        )
        for call in (
            lambda: family.build("no-such-entry"),
            lambda: family.factory("no-such-entry"),
            lambda: registry.check("no-such-entry"),
            lambda: registry.accepts("no-such-entry", family.param),
        ):
            with pytest.raises(ConfigurationError, match=expected):
                call()

    def test_bad_kwargs_name_kind_and_accepted_parameters(self, kind, family):
        bad = {"no_such_kwarg": 1}
        for call in (
            lambda: family.build(family.sample, bad),
            lambda: family.registry.check(family.sample, bad),
        ):
            with pytest.raises(ConfigurationError) as excinfo:
                call()
            message = str(excinfo.value)
            assert f"invalid arguments for {kind} {family.sample!r}" in message
            assert "accepted parameters" in message
            assert family.param in message
            assert isinstance(excinfo.value.__cause__, TypeError)
            assert isinstance(excinfo.value, ValueError)  # the taxonomy

    def test_missing_required_parameter(self, isolated):
        registry = isolated.registry
        isolated.register("needs-target-test", lambda target: ("built", target))
        with pytest.raises(ConfigurationError, match="target") as excinfo:
            isolated.build("needs-target-test")
        assert "needs-target-test" in str(excinfo.value)
        assert registry.make("needs-target-test", {"target": 3}) == (
            "built",
            3,
        )

    def test_check_validates_without_building(self, isolated):
        registry = isolated.registry
        calls = []
        isolated.register("counted-test", lambda x=0: calls.append(x))
        registry.check("counted-test", {"x": 1})
        assert calls == []
        registry.make("counted-test", {"x": 1})
        assert calls == [1]

    def test_rejects_empty_or_non_string_names(self, kind, family):
        for bad in ("", None, 42):
            with pytest.raises(ConfigurationError, match="non-empty") as err:
                family.register(bad, family.factory(family.sample))
            assert kind in str(err.value)

    def test_rejects_non_callable_factory(self, kind, isolated):
        with pytest.raises(ConfigurationError, match="callable") as err:
            isolated.register("not-callable-test", 5)
        assert kind in str(err.value)
        assert "not-callable-test" not in isolated.available()

    def test_later_registration_overrides(self, isolated):
        isolated.register("override-test", lambda: "first")
        isolated.register("override-test", lambda: "second")
        assert isolated.build("override-test") == "second"
        assert isolated.available().count("override-test") == 1

    def test_none_arm(self, family):
        registry = family.registry
        if family.optional:
            assert family.build(None) is None
            assert family.build(None, {}) is None
            with pytest.raises(ConfigurationError, match="without a"):
                family.build(None, {family.param: 1})
        else:
            with pytest.raises(ConfigurationError, match="unknown"):
                family.build(None)
        # Every registry has the optional arm as methods.
        assert registry.make_optional(None) is None
        registry.check_optional(None, {})
        with pytest.raises(ConfigurationError, match="without a"):
            registry.check_optional(None, {family.param: 1})
        with pytest.raises(ConfigurationError, match="without a"):
            registry.make_optional(None, {family.param: 1})

    def test_accepts(self, family):
        registry = family.registry
        assert registry.accepts(family.sample, family.param)
        assert not registry.accepts(family.sample, "no_such_kwarg")


class TestUnintrospectableFactories:
    def test_builtin_factory_is_left_to_the_call(self):
        widgets: Registry[int] = Registry("widget")
        widgets.register("max", max)  # no introspectable signature
        assert not widgets.accepts("max", "key")
        widgets.check("max", {"anything": 1})
        with pytest.raises(TypeError):
            widgets.make("max", {"key": abs})


README = Path(__file__).resolve().parents[2] / "README.md"
def discovered_registries() -> dict[str, Registry]:
    """Every module-level :class:`Registry` in ``repro``, by kind."""
    found: dict[str, Registry] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if isinstance(value, Registry):
                found[value.kind] = value
    return found


def readme_tables(first_header: str) -> list[list[str]]:
    """The backticked first-column names of each README table whose
    first header cell is ``first_header``."""
    tables: list[list[str]] = []
    rows: list[str] | None = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if not line.startswith("|"):
            rows = None
            continue
        first = line.split("|")[1].strip()
        if rows is None:
            rows = []
            if first == first_header:
                tables.append(rows)
        elif match := re.fullmatch(r"`([^`]+)`", first):
            rows.append(match.group(1))
    return tables


#: The registries the experiment CLI offers as an option.
CLI_REGISTRIES = (
    "aggregator",
    "attack",
    "delay schedule",
    "server attack",
    "topology",
)


@functools.cache
def registries() -> dict[str, Registry]:
    return discovered_registries()


@functools.cache
def readme_registry_tables() -> dict[str, list[list[str]]]:
    """Each README ``Registry name`` table, sorted, under the registry
    whose names it shares most."""
    found = registries()
    claimed: dict[str, list[list[str]]] = {}
    for names in readme_tables("Registry name"):
        kind = max(found, key=lambda k: len(set(names) & set(found[k].names())))
        claimed.setdefault(kind, []).append(sorted(names))
    return claimed


def cli_actions() -> dict[str, argparse.Action]:
    """The experiment CLI's options that name a registry, by kind."""
    return {
        action.dest.replace("_", " "): action
        for action in build_parser()._actions
        if action.dest.replace("_", " ") in registries()
    }


class TestConsumersTrackRegistries:
    def test_sweep_covers_every_registry(self):
        found = registries()
        assert sorted(found) == sorted(FAMILIES)
        for kind, registry in found.items():
            assert registry is FAMILIES[kind].registry

    def test_readme_has_one_table_per_registry(self):
        claimed = readme_registry_tables()
        assert sorted(claimed) == sorted(FAMILIES)
        for kind, tables in claimed.items():
            assert len(tables) == 1, f"{len(tables)} README tables for {kind}"

    def test_readme_tables_match_names(self, kind, family):
        assert readme_registry_tables().get(kind) == [family.registry.names()]

    def test_cli_offers_every_cli_registry(self):
        assert sorted(cli_actions()) == sorted(CLI_REGISTRIES)

    @pytest.mark.parametrize(
        "cli_kind", CLI_REGISTRIES, ids=lambda k: k.replace(" ", "-")
    )
    def test_cli_choices_match_names(self, cli_kind):
        action = cli_actions()[cli_kind]
        names = registries()[cli_kind].names()
        if cli_kind == "attack":
            names = [n for n in names if n not in _CLI_ATTACK_EXCLUDES]
        if action.choices is not None:
            assert list(action.choices) == names
        else:
            listed = re.search(r"one of: ([\w, -]+)", action.help)
            assert listed is not None
            assert listed.group(1).strip().split(", ") == names

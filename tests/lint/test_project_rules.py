"""Whole-program rules against fixture projects.

Each project rule gets a miniature project tree (written to ``tmp_path``
and linted via :func:`lint_paths`, exactly the CLI code path) in a
*good* shape that must produce zero findings and *bad* shapes that must
each produce at least one — the anti-vacuity guard the self-clean gate
relies on: a rule whose bad fixture stops firing has regressed, even if
``src/`` still lints clean.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.lint import ModuleContext, build_project_context, lint_paths
from repro.lint.rules.rng_stream_order import RngStreamOrderRule


def make_project(tmp_path: Path, files: dict[str, str]) -> Path:
    """Write a fixture project (with a root marker) under ``tmp_path``."""
    root = tmp_path / "proj"
    root.mkdir(exist_ok=True)
    (root / "pyproject.toml").write_text('[project]\nname = "fixture"\n')
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content))
    return root


def run(root: Path, rule: str):
    return lint_paths([root / "src"], select=[rule]).findings


# -- registry-drift ----------------------------------------------------

REGISTRY_MODULE = """
    from repro.utils.registry import Registry

    AGGREGATORS = Registry("aggregator")

    register_aggregator = AGGREGATORS.register
    available_aggregators = AGGREGATORS.names

    def make_aggregator(name, **kwargs):
        \"\"\"A keyword-spelling wrapper is an alias too.\"\"\"
        return AGGREGATORS.make(name, kwargs)

    class Krum:
        name = "krum"

    register_aggregator(Krum.name, Krum)
    AGGREGATORS.register("median", object)
"""

SWEEP_TEST = """
    from pkg.registry import available_aggregators

    def test_sweep():
        for name in available_aggregators():
            assert isinstance(name, str)
"""

README_TABLE = (
    "# Fixture\n\n"
    "| Registry name | What |\n"
    "|---------------|------|\n"
    "| `krum`        | a    |\n"
    "| `median`      | b    |\n"
)

REGISTRY_FILES = {
    "src/pkg/__init__.py": "",
    "src/pkg/registry.py": REGISTRY_MODULE,
    "tests/test_contract.py": SWEEP_TEST,
    "README.md": README_TABLE,
}


class TestRegistryDrift:
    def test_synced_project_is_clean(self, tmp_path):
        root = make_project(tmp_path, REGISTRY_FILES)
        assert run(root, "registry-drift") == ()

    def test_mutated_fixture_loses_sweep_coverage(self, tmp_path):
        # The liveness check for the rule itself: drop the
        # available_aggregators() call from the contract test and the
        # registered names become unreachable from the sweep.
        files = dict(REGISTRY_FILES)
        files["tests/test_contract.py"] = """
            def test_unrelated():
                assert True
        """
        root = make_project(tmp_path, files)
        findings = run(root, "registry-drift")
        assert len(findings) == 1
        assert "not swept by any contract test" in findings[0].message
        assert "available_aggregators" in findings[0].message

    def test_instance_names_call_is_a_sweep(self, tmp_path):
        files = dict(REGISTRY_FILES)
        files["tests/test_contract.py"] = """
            from pkg.registry import AGGREGATORS

            def test_sweep():
                assert AGGREGATORS.names()
        """
        root = make_project(tmp_path, files)
        assert run(root, "registry-drift") == ()

    def test_readme_row_for_unregistered_name(self, tmp_path):
        files = dict(REGISTRY_FILES)
        files["README.md"] = README_TABLE + "| `zapp`        | c    |\n"
        root = make_project(tmp_path, files)
        findings = run(root, "registry-drift")
        assert len(findings) == 1
        assert "'zapp'" in findings[0].message
        assert findings[0].path.endswith("README.md")

    def test_registered_name_missing_from_readme(self, tmp_path):
        files = dict(REGISTRY_FILES)
        files["README.md"] = README_TABLE.replace(
            "| `median`      | b    |\n", ""
        )
        root = make_project(tmp_path, files)
        findings = run(root, "registry-drift")
        assert len(findings) == 1
        assert "'median'" in findings[0].message
        assert "missing from the README" in findings[0].message

    def test_make_call_with_unregistered_literal(self, tmp_path):
        files = dict(REGISTRY_FILES)
        files["src/pkg/use.py"] = """
            from pkg.registry import AGGREGATORS, make_aggregator

            def build():
                return make_aggregator("kurm")

            def check():
                AGGREGATORS.check("medain", {})
        """
        root = make_project(tmp_path, files)
        findings = run(root, "registry-drift")
        assert len(findings) == 2
        assert "'kurm'" in findings[0].message
        assert "'medain'" in findings[1].message
        assert all("unregistered" in f.message for f in findings)

    def test_hardcoded_cli_strings_flag_unlisted_names(self, tmp_path):
        files = dict(REGISTRY_FILES)
        files["src/pkg/cli.py"] = """
            def main(argv):
                if argv[0] == "krum":
                    return 1
                return 0
        """
        root = make_project(tmp_path, files)
        findings = run(root, "registry-drift")
        assert len(findings) == 1
        assert "'median'" in findings[0].message
        assert "choice source" in findings[0].message

    def test_literal_choices_list_is_diffed(self, tmp_path):
        files = dict(REGISTRY_FILES)
        files["src/pkg/cli.py"] = """
            import argparse

            from pkg.registry import available_aggregators

            def build_parser():
                parser = argparse.ArgumentParser()
                parser.add_argument("--rule", choices=["krum", "zapp"])
                return parser, available_aggregators
        """
        root = make_project(tmp_path, files)
        messages = [f.message for f in run(root, "registry-drift")]
        assert len(messages) == 2
        assert any("missing ['median']" in m for m in messages)
        assert any("unregistered aggregator(s) ['zapp']" in m for m in messages)

    def test_dynamic_cli_is_clean(self, tmp_path):
        files = dict(REGISTRY_FILES)
        files["src/pkg/cli.py"] = """
            from pkg.registry import available_aggregators

            def main(argv):
                return argv[0] in available_aggregators()
        """
        root = make_project(tmp_path, files)
        assert run(root, "registry-drift") == ()

    def test_classname_dot_name_registration_resolves(self, tmp_path):
        # Krum is registered via ``Krum.name``; if attribute resolution
        # broke, 'krum' would vanish from the registry and the README
        # row for it would read as unknown.
        root = make_project(tmp_path, REGISTRY_FILES)
        findings = run(root, "registry-drift")
        assert not any("krum" in f.message for f in findings)

    def test_a_new_registry_needs_no_rule_edit(self, tmp_path):
        # A ninth family is discovered from its declaration alone: its
        # README table and its sweep are checked like the others'.
        files = dict(REGISTRY_FILES)
        files["src/pkg/optimizers.py"] = """
            from repro.utils.registry import Registry

            OPTIMIZERS: Registry[object] = Registry("optimizer")
            OPTIMIZERS.register("sgd", object)
            OPTIMIZERS.register("adam", object)
        """
        files["README.md"] = README_TABLE + (
            "\n| Registry name | Optimizer |\n"
            "|---------------|-----------|\n"
            "| `sgd`         | plain     |\n"
        )
        root = make_project(tmp_path, files)
        messages = sorted(f.message for f in run(root, "registry-drift"))
        assert len(messages) == 2
        sweep, readme = messages
        assert "optimizer names registered via OPTIMIZERS.register()" in sweep
        assert "OPTIMIZERS.names()" in sweep
        assert "registered optimizer 'adam' is missing" in readme


# -- seeded-query-purity -----------------------------------------------

PURITY_BASE = """
    class Topology:
        def neighbors(self, node):
            raise NotImplementedError

    class Ring(Topology):
        def __init__(self, size):
            self.size = size

        def neighbors(self, node):
            return [(node - 1) % self.size, (node + 1) % self.size]
"""


class TestSeededQueryPurity:
    def test_pure_overrides_are_clean(self, tmp_path):
        root = make_project(
            tmp_path, {"src/pkg/__init__.py": "", "src/pkg/topo.py": PURITY_BASE}
        )
        assert run(root, "seeded-query-purity") == ()

    def test_self_mutation_in_query_fires(self, tmp_path):
        source = PURITY_BASE + """
    class Memoized(Topology):
        def neighbors(self, node):
            self._cache = node
            return []
"""
        root = make_project(
            tmp_path, {"src/pkg/__init__.py": "", "src/pkg/topo.py": source}
        )
        findings = run(root, "seeded-query-purity")
        assert len(findings) == 1
        assert "instance state" in findings[0].message

    def test_rng_draw_in_query_fires(self, tmp_path):
        source = PURITY_BASE + """
    class Sneaky(Topology):
        def neighbors(self, node):
            return list(self.rng.permutation(node))
"""
        root = make_project(
            tmp_path, {"src/pkg/__init__.py": "", "src/pkg/topo.py": source}
        )
        findings = run(root, "seeded-query-purity")
        assert len(findings) == 1
        assert "draws from an RNG stream" in findings[0].message

    def test_transitive_global_mutation_fires(self, tmp_path):
        # The violation is one helper call deep: neighbors itself looks
        # clean, the helper it calls mutates module state.
        source = PURITY_BASE + """
    _hits = {}

    def _record(node):
        _hits[node] = True
        return node

    class Counted(Topology):
        def neighbors(self, node):
            return [_record(node)]
"""
        root = make_project(
            tmp_path, {"src/pkg/__init__.py": "", "src/pkg/topo.py": source}
        )
        findings = run(root, "seeded-query-purity")
        assert len(findings) == 1
        assert "_record" in findings[0].message
        assert "'_hits'" in findings[0].message

    def test_memoizing_staleness_block_fires(self, tmp_path):
        # The batched executor prefetches delays through staleness_block;
        # a block override that caches into self breaks purity exactly
        # like a memoizing scalar query would.
        source = """
    class DelaySchedule:
        def staleness(self, worker_id, round_index):
            raise NotImplementedError

        def staleness_block(self, worker_ids, round_indices):
            return [
                [self.staleness(w, t) for w in worker_ids]
                for t in round_indices
            ]

    class Cached(DelaySchedule):
        def staleness(self, worker_id, round_index):
            return 1

        def staleness_block(self, worker_ids, round_indices):
            self._cache = [[1 for _ in worker_ids] for _ in round_indices]
            return self._cache
"""
        root = make_project(
            tmp_path, {"src/pkg/__init__.py": "", "src/pkg/delays.py": source}
        )
        findings = run(root, "seeded-query-purity")
        assert len(findings) == 1
        assert "Cached.staleness_block" in findings[0].message
        assert "DelaySchedule.staleness_block" in findings[0].message
        assert "instance state" in findings[0].message

    def test_pure_function_root_is_walked(self, tmp_path):
        source = """
    _seen = {}

    def counter_uniform(entropy, keys):
        _seen[keys] = entropy
        return 0.5
"""
        root = make_project(
            tmp_path, {"src/pkg/__init__.py": "", "src/pkg/rngmod.py": source}
        )
        findings = run(root, "seeded-query-purity")
        assert len(findings) == 1
        assert "counter_uniform" in findings[0].message

    def test_constructor_self_writes_are_exempt(self, tmp_path):
        # Ring.__init__ (reached through class references) writes
        # self.size — object construction, not query mutation.
        source = PURITY_BASE + """
    class Wrapped(Topology):
        def neighbors(self, node):
            return Ring(4).neighbors(node)
"""
        root = make_project(
            tmp_path, {"src/pkg/__init__.py": "", "src/pkg/topo.py": source}
        )
        assert run(root, "seeded-query-purity") == ()


# -- rng-stream-order --------------------------------------------------

SPAWN_PRELUDE = """
    def spawn_generators(seed, count):
        return list(range(count))
"""


class TestRngStreamOrder:
    def test_matched_site_is_clean(self, tmp_path):
        source = SPAWN_PRELUDE + """
    class Sim:
        def __init__(self, seed, num):
            streams = spawn_generators(seed, num + 2)
            self.workers = streams[:num]
            self.attack_rng = streams[num]
            self.delay_rng = streams[num + 1]
"""
        root = make_project(
            tmp_path, {"src/pkg/__init__.py": "", "src/pkg/sim.py": source}
        )
        assert run(root, "rng-stream-order") == ()

    def test_unconsumed_stream_fires(self, tmp_path):
        source = SPAWN_PRELUDE + """
    class Sim:
        def __init__(self, seed, num):
            streams = spawn_generators(seed, num + 3)
            self.workers = streams[:num]
            self.attack_rng = streams[num]
            self.delay_rng = streams[num + 1]
"""
        root = make_project(
            tmp_path, {"src/pkg/__init__.py": "", "src/pkg/sim.py": source}
        )
        findings = run(root, "rng-stream-order")
        assert len(findings) == 1
        assert "spawned but never consumed" in findings[0].message

    def test_offset_past_spawn_count_fires(self, tmp_path):
        source = SPAWN_PRELUDE + """
    class Sim:
        def __init__(self, seed, num):
            streams = spawn_generators(seed, num + 1)
            self.workers = streams[:num]
            self.attack_rng = streams[num + 4]
"""
        root = make_project(
            tmp_path, {"src/pkg/__init__.py": "", "src/pkg/sim.py": source}
        )
        findings = run(root, "rng-stream-order")
        assert any("outside the spawned range" in f.message for f in findings)

    def test_tuple_unpack_count_mismatch_fires(self, tmp_path):
        source = SPAWN_PRELUDE + """
    def setup(seed):
        first, second = spawn_generators(seed, 3)
        return first, second
"""
        root = make_project(
            tmp_path, {"src/pkg/__init__.py": "", "src/pkg/sim.py": source}
        )
        findings = run(root, "rng-stream-order")
        assert len(findings) == 1
        assert "unpacked into 2 target(s)" in findings[0].message


def _frozen_project(tmp_path: Path, body: str):
    source = textwrap.dedent(SPAWN_PRELUDE + body)
    path = tmp_path / "src" / "repro" / "distributed" / "simulator.py"
    path.parent.mkdir(parents=True)
    path.write_text(source)
    module = ModuleContext(
        path=str(path), source=source, tree=ast.parse(source)
    )
    # Explicit empty root: keep auxiliary/README discovery out of it.
    return build_project_context([module], root=tmp_path)


class TestFrozenStreamLayouts:
    LAYOUT = {"repro/distributed/simulator.py": ("attack", "delay")}

    def rule(self, layout=None):
        return RngStreamOrderRule(frozen_layouts=layout or self.LAYOUT)

    def test_roles_in_order_are_clean(self, tmp_path):
        project = _frozen_project(
            tmp_path,
            """
    class Sim:
        def __init__(self, seed, num):
            streams = spawn_generators(seed, num + 2)
            self.workers = streams[:num]
            self.attack_rng = streams[num]
            self.delay_rng = streams[num + 1]
""",
        )
        assert list(self.rule().check_project(project)) == []

    def test_inserted_stream_shifts_roles(self, tmp_path):
        # A 'topology' stream inserted at the attack slot: both frozen
        # roles now sit at the wrong offsets.
        project = _frozen_project(
            tmp_path,
            """
    class Sim:
        def __init__(self, seed, num):
            streams = spawn_generators(seed, num + 2)
            self.workers = streams[:num]
            self.topology_rng = streams[num]
            self.attack_rng = streams[num + 1]
""",
        )
        findings = list(self.rule().check_project(project))
        assert len(findings) == 2
        assert all("append-only" in f.message for f in findings)

    def test_layout_length_mismatch_requires_manifest_edit(self, tmp_path):
        project = _frozen_project(
            tmp_path,
            """
    class Sim:
        def __init__(self, seed, num):
            streams = spawn_generators(seed, num + 3)
            self.workers = streams[:num]
            self.attack_rng = streams[num]
            self.delay_rng = streams[num + 1]
            self.server_rng = streams[num + 2]
""",
        )
        findings = list(self.rule().check_project(project))
        assert len(findings) == 1
        assert "extending the layout manifest" in findings[0].message

    def test_consuming_a_reserved_slot_fires(self, tmp_path):
        project = _frozen_project(
            tmp_path,
            """
    class Sim:
        def __init__(self, seed, num):
            streams = spawn_generators(seed, num + 2)
            self.workers = streams[:num]
            self.attack_rng = streams[num]
            self.extra_rng = streams[num + 1]
""",
        )
        rule = self.rule(
            {"repro/distributed/simulator.py": ("attack", None)}
        )
        findings = list(rule.check_project(project))
        assert len(findings) == 1
        assert "reserved slot" in findings[0].message


# -- loop-batched-pairing ----------------------------------------------

LINALG = """
    def pairwise_sq_distances(vectors):
        return vectors

    def batched_pairwise_sq_distances(batch):
        return batch
"""

PAIRING_GOOD = """
    from repro.utils.linalg import (
        batched_pairwise_sq_distances,
        pairwise_sq_distances,
    )

    def register_batched_kernel(rule, kernel):
        pass

    class Krum:
        def select(self, vectors):
            return pairwise_sq_distances(vectors)

    class BatchedKrum:
        def aggregate_batch(self, batch):
            return batched_pairwise_sq_distances(batch)

    class Mean:
        def select(self, vectors):
            return sum(vectors)

    class BatchedMean:
        def aggregate_batch(self, batch):
            return batch

    register_batched_kernel(Krum, BatchedKrum)
    register_batched_kernel(Mean, BatchedMean)
"""

PAIRING_FILES = {
    "src/repro/__init__.py": "",
    "src/repro/utils/__init__.py": "",
    "src/repro/utils/linalg.py": LINALG,
    "src/repro/core/__init__.py": "",
    "src/repro/core/agg.py": PAIRING_GOOD,
}


class TestLoopBatchedPairing:
    def test_shared_primitive_family_is_clean(self, tmp_path):
        root = make_project(tmp_path, PAIRING_FILES)
        assert run(root, "loop-batched-pairing") == ()

    def test_inline_reimplementation_fires(self, tmp_path):
        files = dict(PAIRING_FILES)
        files["src/repro/core/agg.py"] = PAIRING_GOOD.replace(
            "return batched_pairwise_sq_distances(batch)",
            "return [sum((a - b) ** 2 for a, b in zip(x, y)) "
            "for x in batch for y in batch]",
        )
        root = make_project(tmp_path, files)
        findings = run(root, "loop-batched-pairing")
        assert len(findings) == 1
        assert "Krum" in findings[0].message
        assert "no shared" in findings[0].message

    def test_disjoint_families_fire(self, tmp_path):
        files = dict(PAIRING_FILES)
        files["src/repro/utils/linalg.py"] = LINALG + """
    def batched_weiszfeld(batch):
        return batch
"""
        files["src/repro/core/agg.py"] = PAIRING_GOOD.replace(
            "batched_pairwise_sq_distances,",
            "batched_weiszfeld,",
        ).replace(
            "return batched_pairwise_sq_distances(batch)",
            "return batched_weiszfeld(batch)",
        )
        root = make_project(tmp_path, files)
        findings = run(root, "loop-batched-pairing")
        assert len(findings) == 1
        assert "weiszfeld" in findings[0].message

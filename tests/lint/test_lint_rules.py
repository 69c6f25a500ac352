"""Fixture-driven tests: every rule fires on a known-bad snippet and
stays quiet on the matching good one.

The bad fixtures reproduce the historical bug shapes the rules exist
for: the PR 4 float64-literal/np-in-kernel shape (backend-purity), the
unseeded ``default_rng`` shape (rng-discipline), the PR 2 bare
``ValueError`` shape (error-taxonomy) and the stateful-attack reuse
shape (stateful-attack-declaration).
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import lint_source, make_rule

KERNEL_PATH = "src/repro/core/batched.py"
LIBRARY_PATH = "src/repro/distributed/server.py"


def run_rule(name: str, code: str, path: str = LIBRARY_PATH):
    return lint_source(
        textwrap.dedent(code), path=path, rules=[make_rule(name)]
    )


# ----------------------------------------------------------------------
# backend-purity
# ----------------------------------------------------------------------


class TestBackendPurity:
    def test_np_call_in_kernel_function_fires(self):
        findings = run_rule(
            "backend-purity",
            """
            import numpy as np

            def batched_mean(stacks, *, backend=None):
                return np.mean(stacks, axis=1)
            """,
            path=KERNEL_PATH,
        )
        assert [f.rule for f in findings] == ["backend-purity"]
        assert "np.mean" in findings[0].message

    def test_float_dtype_literal_fires(self):
        findings = run_rule(
            "backend-purity",
            """
            import numpy as np

            def stage(stacks, xp):
                out = xp.empty(stacks.shape, dtype=np.float64)
                return out
            """,
            path=KERNEL_PATH,
        )
        assert len(findings) == 1
        assert "float dtype literal" in findings[0].message

    def test_float_dtype_string_fires(self):
        findings = run_rule(
            "backend-purity",
            """
            def stage(stacks, xp):
                return stacks.astype("float32")
            """,
            path=KERNEL_PATH,
        )
        assert len(findings) == 1
        assert "'float32'" in findings[0].message

    def test_bare_np_empty_upcast_shape_fires(self):
        # The PR 4 audit shape: np.empty defaults to float64, silently
        # up-casting float32 kernel batches staged through it.
        findings = run_rule(
            "backend-purity",
            """
            import numpy as np

            def stage(stacks, *, backend=None):
                out = np.empty((2, 3))
                return out
            """,
            path=KERNEL_PATH,
        )
        assert len(findings) == 1
        assert "integer dtype" in findings[0].message

    def test_kernel_class_method_fires(self):
        findings = run_rule(
            "backend-purity",
            """
            import numpy as np

            class _BatchedThing(BatchedAggregator):
                def aggregate_batch(self, stacks):
                    return np.median(stacks, axis=1)
            """,
            path=KERNEL_PATH,
        )
        assert len(findings) == 1

    def test_loop_fallback_class_is_exempt(self):
        findings = run_rule(
            "backend-purity",
            """
            import numpy as np

            class LoopThing(BatchedAggregator):
                is_native = False

                def aggregate_batch(self, stacks):
                    return np.median(stacks, axis=1)
            """,
            path=KERNEL_PATH,
        )
        assert findings == []

    def test_host_side_int_bookkeeping_is_allowed(self):
        findings = run_rule(
            "backend-purity",
            """
            import numpy as np

            def select(stacks, xp):
                order = xp.argsort(stacks)
                return np.asarray(xp.to_numpy(order), dtype=np.int64)
            """,
            path=KERNEL_PATH,
        )
        assert findings == []

    def test_backend_namespace_code_is_clean(self):
        findings = run_rule(
            "backend-purity",
            """
            def batched_mean(stacks, *, backend=None):
                xp = resolve_backend(backend)
                return xp.mean(xp.asarray(stacks), axis=1)
            """,
            path=KERNEL_PATH,
        )
        assert findings == []

    def test_non_kernel_module_is_out_of_scope(self):
        findings = run_rule(
            "backend-purity",
            """
            import numpy as np

            def helper(stacks, *, backend=None):
                return np.mean(stacks)
            """,
            path=LIBRARY_PATH,
        )
        assert findings == []

    def test_module_level_numpy_is_out_of_scope(self):
        findings = run_rule(
            "backend-purity",
            """
            import numpy as np

            _EMPTY = np.array([], dtype=np.int64)
            TABLE = np.zeros(4)
            """,
            path=KERNEL_PATH,
        )
        assert findings == []


# ----------------------------------------------------------------------
# rng-discipline
# ----------------------------------------------------------------------


class TestRngDiscipline:
    def test_default_rng_call_fires(self):
        findings = run_rule(
            "rng-discipline",
            """
            import numpy as np

            def sample():
                return np.random.default_rng(7).normal()
            """,
        )
        assert [f.rule for f in findings] == ["rng-discipline"]
        assert "np.random.default_rng" in findings[0].message

    def test_legacy_global_draw_fires(self):
        findings = run_rule(
            "rng-discipline",
            """
            import numpy as np

            def sample():
                return np.random.normal(size=3)
            """,
        )
        assert len(findings) == 1

    def test_stdlib_random_import_and_usage_fire(self):
        findings = run_rule(
            "rng-discipline",
            """
            import random

            def pick(items):
                return random.choice(items)
            """,
        )
        assert len(findings) == 2
        assert "global state" in findings[0].message
        assert "random.choice" in findings[1].message

    def test_stdlib_random_alias_usage_fires(self):
        findings = run_rule(
            "rng-discipline",
            """
            import random as rnd

            def pick():
                return rnd.random()
            """,
        )
        assert any("rnd.random" in f.message for f in findings)

    def test_np_random_seed_global_state_message(self):
        findings = run_rule(
            "rng-discipline",
            """
            import numpy as np

            def reset():
                np.random.seed(0)
            """,
        )
        assert len(findings) == 1
        assert "process-global" in findings[0].message

    def test_from_numpy_random_import_fires(self):
        findings = run_rule(
            "rng-discipline",
            """
            from numpy.random import default_rng
            """,
        )
        assert len(findings) == 1

    def test_generator_annotations_are_allowed(self):
        findings = run_rule(
            "rng-discipline",
            """
            import numpy as np

            def estimate(params, rng: np.random.Generator) -> np.ndarray:
                return rng.normal(size=3)

            def key(worker: int) -> np.ndarray:
                return np.random.SeedSequence(
                    entropy=(1, worker)
                ).generate_state(2)
            """,
        )
        assert findings == []

    def test_sanctioned_module_is_exempt(self):
        findings = run_rule(
            "rng-discipline",
            """
            import numpy as np

            def as_generator(seed):
                return np.random.default_rng(seed)
            """,
            path="src/repro/utils/rng.py",
        )
        assert findings == []


# ----------------------------------------------------------------------
# error-taxonomy
# ----------------------------------------------------------------------


class TestErrorTaxonomy:
    def test_bare_valueerror_pr2_shape_fires(self):
        # The PR 2 Weiszfeld bug shape: a kernel precondition leaking a
        # bare ValueError instead of the taxonomy.
        findings = run_rule(
            "error-taxonomy",
            """
            def weiszfeld(vectors, tolerance):
                if tolerance <= 0:
                    raise ValueError(f"bad tolerance {tolerance}")
            """,
        )
        assert [f.rule for f in findings] == ["error-taxonomy"]
        assert "ValueError" in findings[0].message

    @pytest.mark.parametrize("exc", ["TypeError", "RuntimeError"])
    def test_other_banned_builtins_fire(self, exc):
        findings = run_rule(
            "error-taxonomy",
            f"""
            def check(x):
                raise {exc}("nope")
            """,
        )
        assert len(findings) == 1

    def test_uncalled_raise_fires(self):
        findings = run_rule(
            "error-taxonomy",
            """
            def check(x):
                raise ValueError
            """,
        )
        assert len(findings) == 1

    def test_taxonomy_raises_are_clean(self):
        findings = run_rule(
            "error-taxonomy",
            """
            from repro.exceptions import ConfigurationError

            def check(x):
                if x < 0:
                    raise ConfigurationError(f"x must be >= 0, got {x}")
                try:
                    return 1 / x
                except ZeroDivisionError:
                    raise  # re-raise is fine
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# stateful-attack-declaration
# ----------------------------------------------------------------------


class TestStatefulAttackDeclaration:
    PR6_SHAPE = """
    class StragglerLike(Attack):
        name = "straggler-like"

        def __init__(self, rounds: int = 3):
            self.rounds = rounds
            self._round = 0

        def craft(self, context):
            self._round += 1
            return context.honest_gradients[: context.num_byzantine]
    """

    def test_pr6_reuse_shape_fires_twice(self):
        findings = run_rule("stateful-attack-declaration", self.PR6_SHAPE)
        assert [f.rule for f in findings] == [
            "stateful-attack-declaration"
        ] * 2
        messages = " ".join(f.message for f in findings)
        assert "stateful = True" in messages
        assert "reset()" in messages
        assert "self.{_round}" in messages

    def test_declared_stateful_attack_is_clean(self):
        findings = run_rule(
            "stateful-attack-declaration",
            """
            class ProbeLike(Attack):
                stateful = True

                def __init__(self):
                    self.reset()

                def reset(self):
                    self._scale = 1.0

                def craft(self, context):
                    self._scale *= 2.0
                    return context.honest_gradients[:1]
            """,
        )
        assert findings == []

    def test_server_attack_subclasses_share_the_contract(self):
        findings = run_rule(
            "stateful-attack-declaration",
            """
            class ReplayLike(ServerAttack):
                name = "replay-like"

                def corrupt(self, context):
                    self._history = getattr(self, "_history", [])
                    self._history.append(context.params)
                    return context.params[None, :]
            """,
        )
        assert [f.rule for f in findings] == [
            "stateful-attack-declaration"
        ] * 2
        messages = " ".join(f.message for f in findings)
        assert "self.{_history}" in messages

    def test_declared_stateful_server_attack_is_clean(self):
        findings = run_rule(
            "stateful-attack-declaration",
            """
            class ReplayLike(ServerAttack):
                stateful = True

                def __init__(self):
                    self.reset()

                def reset(self):
                    self._history = []

                def corrupt(self, context):
                    self._history.append(context.params)
                    return context.params[None, :]
            """,
        )
        assert findings == []

    def test_declarations_inherit_within_module(self):
        findings = run_rule(
            "stateful-attack-declaration",
            """
            class BaseProbe(Attack):
                stateful = True

                def reset(self):
                    self._scale = 1.0

            class Tuned(BaseProbe):
                def craft(self, context):
                    self._scale *= 2.0
                    return context.honest_gradients[:1]
            """,
        )
        assert findings == []

    def test_init_only_configuration_is_clean(self):
        findings = run_rule(
            "stateful-attack-declaration",
            """
            class Gaussian(Attack):
                def __init__(self, sigma: float = 1.0):
                    self.sigma = sigma

                def craft(self, context):
                    return context.honest_gradients[:1] * self.sigma
            """,
        )
        assert findings == []

    def test_non_attack_classes_are_ignored(self):
        findings = run_rule(
            "stateful-attack-declaration",
            """
            class Accumulator:
                def push(self, x):
                    self.total = getattr(self, "total", 0) + x
            """,
        )
        assert findings == []

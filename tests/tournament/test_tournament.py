"""Tests for the attack × defense tournament harness.

Small slates keep these fast; the full-registry league lives in
``benchmarks/bench_tournament.py``.  The load-bearing guarantees pinned
here: full-product coverage with no silent omissions, breakdown
isolation (a raising pairing becomes a reasoned row, not an aborted
tournament), and byte-identical payloads on a same-seed rerun — the
property that makes ``BENCH_tournament.json`` diffable.
"""

import json

import pytest

from repro.attacks.registry import available_attacks
from repro.core.registry import available_aggregators
from repro.exceptions import ConfigurationError
from repro.experiments.reporting import format_league_table
from repro.tournament import (
    AsyncCell,
    TournamentRunner,
    default_attack_slate,
    default_defense_slate,
)

SYNC = AsyncCell()
STALE = AsyncCell(
    max_staleness=2, delay_schedule="periodic", delay_kwargs={"tau": 2}
)
WORKLOAD = (("quadratic", {"dimension": 8, "sigma": 0.3}),)


def small_runner(**overrides):
    kwargs = dict(
        attacks=(("sign-flip", {}), ("gaussian", {"sigma": 50.0})),
        defenses=(("krum", {}), ("average", {})),
        seeds=(0,),
        workloads=WORKLOAD,
        async_cells=(SYNC,),
        num_workers=9,
        num_byzantine=2,
        num_rounds=8,
        eval_every=2,
    )
    kwargs.update(overrides)
    return TournamentRunner(**kwargs)


class TestAsyncCell:
    def test_labels(self):
        assert SYNC.label == "sync"
        assert STALE.label == "stale<=2|periodic"

    def test_hashable_slate_key(self):
        assert hash(STALE) == hash(
            AsyncCell(
                max_staleness=2,
                delay_schedule="periodic",
                delay_kwargs={"tau": 2},
            )
        )
        assert STALE != SYNC


class TestDefaultSlates:
    def test_defense_slate_covers_registry(self):
        slate = default_defense_slate(15, 3)
        assert [name for name, _ in slate] == list(available_aggregators())

    def test_attack_slate_covers_registry(self):
        slate = default_attack_slate(3)
        assert [name for name, _ in slate] == list(available_attacks())

    def test_attack_slate_single_slot_composite(self):
        slate = dict(default_attack_slate(1))
        assert slate["composite"]["parts"] == (("crash", {}, 1),)

    def test_attack_slate_rejects_zero(self):
        with pytest.raises(ConfigurationError, match="num_byzantine >= 1"):
            default_attack_slate(0)


class TestRunnerValidation:
    def test_rejects_f_zero(self):
        with pytest.raises(ConfigurationError, match="num_byzantine >= 1"):
            small_runner(num_byzantine=0)

    def test_rejects_f_ge_n(self):
        with pytest.raises(ConfigurationError, match="f < n"):
            small_runner(num_byzantine=9)

    @pytest.mark.parametrize("bad", [3.7, True])
    @pytest.mark.parametrize(
        "knob", ["num_workers", "num_byzantine", "num_rounds", "eval_every"]
    )
    def test_integer_knobs_reject_floats_and_bools(self, knob, bad):
        with pytest.raises(ConfigurationError, match=f"{knob} must be an integer"):
            small_runner(**{knob: bad})

    def test_rejects_duplicate_attack_names(self):
        with pytest.raises(ConfigurationError, match="duplicate attack"):
            small_runner(
                attacks=(("sign-flip", {}), ("sign-flip", {"scale": 2.0}))
            )

    def test_rejects_empty_slate(self):
        with pytest.raises(ConfigurationError, match="at least one seed"):
            small_runner(seeds=())

    def test_cells_per_pair(self):
        runner = small_runner(seeds=(0, 1), async_cells=(SYNC, STALE))
        assert runner.cells_per_pair == 4


class TestLeague:
    def test_full_product_coverage(self):
        result = small_runner().run()
        assert result.covers_product()
        assert len(result.rows) == 4
        for row in result.rows:
            assert row.cells == 1
            assert row.final_error is not None

    def test_row_lookup(self):
        result = small_runner().run()
        row = result.row("sign-flip", "krum")
        assert row.attack == "sign-flip"
        assert row.defense == "krum"
        with pytest.raises(KeyError):
            result.row("sign-flip", "bulyan")

    def test_robust_rule_beats_unfiltered_mean(self):
        """The tournament reproduces the paper's headline ordering:
        under an omniscient-style attack, krum's error ratio stays far
        below plain averaging's."""
        result = small_runner(
            attacks=(("gaussian", {"sigma": 100.0}),), num_rounds=12
        ).run()
        krum = result.row("gaussian", "krum")
        mean = result.row("gaussian", "average")
        assert krum.error_ratio is not None
        assert mean.breakdown or mean.error_ratio > krum.error_ratio

    def test_breakdown_isolation(self):
        """A pairing that raises (non-finite proposals pushing the
        geometric median past its convergence guard) becomes a reasoned
        breakdown row; other pairings in the same league are unharmed."""
        result = small_runner(
            attacks=(("non-finite", {}), ("sign-flip", {})),
            defenses=(("geometric-median", {}), ("krum", {})),
        ).run()
        assert result.covers_product()
        broken = result.row("non-finite", "geometric-median")
        assert broken.breakdown
        assert broken.breakdown_reason == "ConvergenceError"
        assert broken.final_error is None
        healthy = result.row("sign-flip", "krum")
        assert not healthy.breakdown
        assert healthy.final_error is not None

    def test_async_cells_change_measurement(self):
        sync_row = small_runner().run().row("sign-flip", "krum")
        stale_row = (
            small_runner(async_cells=(STALE,)).run().row("sign-flip", "krum")
        )
        assert sync_row.final_error != stale_row.final_error

    def test_same_seed_rerun_reproduces_payload_exactly(self):
        """The BENCH_tournament.json determinism contract: two runs of
        an identical configuration serialize byte-for-byte equal."""
        first = small_runner(async_cells=(SYNC, STALE)).run().to_payload()
        second = small_runner(async_cells=(SYNC, STALE)).run().to_payload()
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_loop_and_batched_modes_agree(self):
        batched = small_runner(mode="batched").run().to_payload()
        loop = small_runner(mode="loop").run().to_payload()
        loop["tournament"]["mode"] = "batched"
        assert json.dumps(batched, sort_keys=True) == json.dumps(
            loop, sort_keys=True
        )


class TestLeagueReporting:
    def test_markdown_table(self):
        result = small_runner(
            attacks=(("non-finite", {}), ("sign-flip", {})),
            defenses=(("geometric-median", {}), ("krum", {})),
        ).run()
        text = format_league_table(result, title="Robustness league")
        lines = text.splitlines()
        assert lines[0] == "### Robustness league"
        assert "| Attack | Defense |" in lines[2]
        # one markdown row per league row, after the two header lines
        assert len(lines) == 4 + len(result.rows)
        assert any("**yes** (ConvergenceError)" in line for line in lines)

    def test_empty_league_rejected(self):
        class Empty:
            rows = ()

        with pytest.raises(ConfigurationError, match="at least one row"):
            format_league_table(Empty())

"""Tests for the command-line interface."""

import pytest

from repro.experiments.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.dataset == "mnist-like"
        assert args.aggregator == "krum"
        assert args.byzantine == 0

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--dataset", "imagenet"])

    def test_rejects_unknown_attack(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--attack", "quantum"])


class TestMain:
    def test_blobs_run_prints_summary(self, capsys):
        code = main(
            [
                "--dataset", "blobs",
                "--aggregator", "average",
                "--workers", "5",
                "--rounds", "20",
                "--train-size", "150",
                "--test-size", "60",
                "--eval-every", "5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "summary" in out
        assert "final loss" in out

    def test_krum_under_attack(self, capsys):
        code = main(
            [
                "--dataset", "blobs",
                "--aggregator", "krum",
                "--workers", "9",
                "--byzantine", "2",
                "--attack", "gaussian",
                "--rounds", "20",
                "--train-size", "150",
                "--test-size", "60",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "krum" in out
        assert "byzantine selection rate" in out

    def test_byzantine_without_attack_errors(self, capsys):
        code = main(
            [
                "--dataset", "blobs",
                "--workers", "9",
                "--byzantine", "2",
                "--rounds", "5",
                "--train-size", "100",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "requires --attack" in err

    def test_invalid_tolerance_reports_cleanly(self, capsys):
        code = main(
            [
                "--dataset", "blobs",
                "--aggregator", "krum",
                "--workers", "5",
                "--byzantine", "2",
                "--attack", "gaussian",
                "--rounds", "5",
                "--train-size", "100",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    def test_multikrum_default_m(self, capsys):
        code = main(
            [
                "--dataset", "blobs",
                "--aggregator", "multi-krum",
                "--workers", "9",
                "--byzantine", "2",
                "--attack", "gaussian",
                "--rounds", "10",
                "--train-size", "120",
            ]
        )
        assert code == 0
        assert "multi-krum" in capsys.readouterr().out


class TestPartitionFlags:
    def test_partition_flag_parses(self):
        args = build_parser().parse_args(
            ["--partition", "dirichlet", "--dirichlet-alpha", "0.3"]
        )
        assert args.partition == "dirichlet"
        assert args.dirichlet_alpha == 0.3

    def test_rejects_unknown_partition(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--partition", "striped"])

    def test_dirichlet_run_succeeds(self, capsys):
        code = main(
            [
                "--dataset", "blobs",
                "--aggregator", "average",
                "--workers", "5",
                "--rounds", "10",
                "--train-size", "150",
                "--test-size", "60",
                "--partition", "dirichlet",
                "--dirichlet-alpha", "0.4",
                "--eval-every", "5",
            ]
        )
        assert code == 0
        assert "summary" in capsys.readouterr().out

    def test_spambase_routes_through_workload_registry(self, capsys):
        code = main(
            [
                "--dataset", "spambase-like",
                "--aggregator", "krum",
                "--workers", "6",
                "--byzantine", "1",
                "--attack", "gaussian",
                "--rounds", "8",
                "--train-size", "120",
                "--test-size", "40",
                "--eval-every", "4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "spambase-like" in out


class TestTopologyFlags:
    def test_defaults_to_complete(self):
        args = build_parser().parse_args([])
        assert args.topology == "complete"
        assert args.degree is None
        assert args.edge_prob is None
        assert args.rewire_period is None

    def test_gossip_run_prints_summary(self, capsys):
        code = main(
            [
                "--dataset", "blobs",
                "--aggregator", "krum",
                "--topology", "ring",
                "--degree", "6",
                "--workers", "9",
                "--byzantine", "2",
                "--attack", "gaussian",
                "--rounds", "10",
                "--train-size", "120",
                "--test-size", "60",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "summary" in out

    def test_unknown_topology_is_registry_error_not_crash(self, capsys):
        """--topology has no argparse choices: unknown names reach the
        registry and come back as a clean exit-2 configuration error
        listing the alternatives."""
        code = main(
            [
                "--dataset", "blobs",
                "--topology", "torus",
                "--rounds", "5",
                "--train-size", "100",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err
        assert "torus" in err and "available" in err

    def test_knob_for_wrong_family_errors(self, capsys):
        code = main(
            [
                "--dataset", "blobs",
                "--topology", "ring",
                "--edge-prob", "0.5",
                "--rounds", "5",
                "--train-size", "100",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    def test_topology_excludes_server_tier_flags(self, capsys):
        code = main(
            [
                "--dataset", "blobs",
                "--topology", "ring",
                "--num-servers", "3",
                "--rounds", "5",
                "--train-size", "100",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "exclusive" in err

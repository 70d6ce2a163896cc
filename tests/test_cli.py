"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_subcommands_present(self):
        parser = build_parser()
        for argv in (
            ["generate"],
            ["mine", "a.csv", "n.csv"],
            ["table1"],
            ["investigate", "C00000"],
            ["serve", "a.csv", "n.csv"],
        ):
            assert parser.parse_args(argv).command == argv[0]

    def test_engine_choices_include_incremental(self):
        parser = build_parser()
        for command in ("mine", "ingest"):
            args = parser.parse_args(
                [command, "a.csv", "--engine", "incremental"]
                if command == "ingest"
                else [command, "a.csv", "n.csv", "--engine", "incremental"]
            )
            assert args.engine == "incremental"

    def test_engine_defaults_to_parallel(self):
        parser = build_parser()
        assert parser.parse_args(["mine", "a.csv", "n.csv"]).engine == "parallel"
        assert parser.parse_args(["ingest", "a.csv"]).engine == "parallel"

    @pytest.mark.parametrize("removed", ["fast", "csr"])
    def test_removed_engines_exit_with_usage_error(self, removed, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", "a.csv", "n.csv", "--engine", removed])
        assert excinfo.value.code == 2
        assert "faithful, parallel, incremental" in capsys.readouterr().err.replace("'", "")

    @pytest.mark.parametrize("command", ["mine", "ingest"])
    def test_processes_flag_is_gone(self, command, capsys):
        paths = ["a.csv"] if command == "ingest" else ["a.csv", "n.csv"]
        with pytest.raises(SystemExit) as excinfo:
            main([command, *paths, "--processes", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --processes 2" in capsys.readouterr().err

    def test_serve_defaults(self, tmp_path):
        args = build_parser().parse_args(
            [
                "serve",
                "a.csv",
                "n.csv",
                "--port",
                "0",
                "--state-dir",
                str(tmp_path / "state"),
                "--no-fsync",
            ]
        )
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert args.snapshot_every == 500
        assert args.no_fsync
        assert args.max_cached_roots == 4096
        assert args.shards == 1

    def test_serve_accepts_only_one_shard(self, capsys):
        assert build_parser().parse_args(["serve", "a", "n", "--shards", "1"]).shards == 1
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "a.csv", "n.csv", "--shards", "4"])
        assert excinfo.value.code == 2
        assert "invalid choice: 4" in capsys.readouterr().err


class TestCommands:
    def test_generate_and_mine(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "generate",
                "--out",
                str(tmp_path / "net"),
                "--companies",
                "80",
                "--seed",
                "5",
                "--probability",
                "0.02",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "persons=" in out
        arcs = tmp_path / "net.arcs.csv"
        nodes = tmp_path / "net.nodes.csv"
        assert arcs.exists() and nodes.exists()

        code = main(
            [
                "mine",
                str(arcs),
                str(nodes),
                "--out-dir",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine=parallel" in out
        assert (tmp_path / "out" / "detection.json").exists()

        code = main(
            [
                "mine",
                str(arcs),
                str(nodes),
                "--engine",
                "incremental",
                "--out-dir",
                str(tmp_path / "out-inc"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine=incremental" in out
        assert (tmp_path / "out-inc" / "detection.json").exists()

    def test_mine_detector_portfolio(self, tmp_path, capsys, monkeypatch):
        import json

        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "generate",
                "--out",
                str(tmp_path / "net"),
                "--companies",
                "80",
                "--seed",
                "5",
                "--probability",
                "0.02",
            ]
        )
        assert code == 0
        capsys.readouterr()

        code = main(
            [
                "mine",
                str(tmp_path / "net.arcs.csv"),
                str(tmp_path / "net.nodes.csv"),
                "--detector",
                "all",
                "--out-dir",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        detector_lines = [l for l in out.splitlines() if l.startswith("detector=")]
        assert len(detector_lines) == 4
        report = json.loads((tmp_path / "out" / "findings.json").read_text())
        assert report["detectors"] == [
            "circular-trading",
            "iat-groups",
            "missing-trader",
            "shared-household",
        ]
        # The IAT reference run still writes the legacy artifacts.
        assert (tmp_path / "out" / "detection.json").exists()

        code = main(
            [
                "mine",
                str(tmp_path / "net.arcs.csv"),
                str(tmp_path / "net.nodes.csv"),
                "--detector",
                "circular-trading",
                "--out-dir",
                str(tmp_path / "rings"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "detector=circular-trading" in out
        assert (tmp_path / "rings" / "findings.json").exists()
        assert not (tmp_path / "rings" / "detection.json").exists()

    def test_mine_profile_prints_stage_tree(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "generate",
                "--out",
                str(tmp_path / "net"),
                "--companies",
                "80",
                "--seed",
                "5",
                "--probability",
                "0.02",
            ]
        )
        assert code == 0
        capsys.readouterr()
        code = main(
            [
                "mine",
                str(tmp_path / "net.arcs.csv"),
                str(tmp_path / "net.nodes.csv"),
                "--engine",
                "faithful",  # the engine that times each subTPIIN
                "--profile",
                "--out-dir",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stage tree (wall milliseconds)" in out
        assert "detect" in out
        assert "slowest subTPIINs" in out

    def test_table1_small(self, capsys):
        code = main(
            [
                "table1",
                "--companies",
                "80",
                "--seed",
                "5",
                "--probabilities",
                "0.02",
                "0.05",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "p(trade)" in out
        assert out.count("100%") >= 4  # two accuracy columns x two rows


class TestNewCommands:
    def test_twophase(self, tmp_path, capsys):
        code = main(
            [
                "twophase",
                "--companies",
                "80",
                "--seed",
                "5",
                "--report",
                str(tmp_path / "audit.md"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "precision" in out
        report = (tmp_path / "audit.md").read_text()
        assert "## ITE-phase outcome" in report

    def test_ingest(self, tmp_path, capsys):
        from repro.datagen.config import ProvinceConfig
        from repro.datagen.province import generate_province
        from repro.io.registry_io import write_registry_csvs

        dataset = generate_province(ProvinceConfig.small(companies=50, seed=6))
        write_registry_csvs(dataset, tmp_path / "registry", trading_probability=0.05)
        code = main(
            [
                "ingest",
                str(tmp_path / "registry"),
                "--engine",
                "faithful",
                "--out-dir",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        assert (tmp_path / "out" / "detection.json").exists()

    def test_investigate(self, capsys):
        code = main(
            [
                "investigate",
                "C00001",
                "--companies",
                "100",
                "--seed",
                "8",
                "--probability",
                "0.03",
                "--explain",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Affiliated transaction analysis: C00001" in out
        assert "Investment tree" in out


class TestErrors:
    """Typed library errors and OS errors exit 2 with one stderr line."""

    @staticmethod
    def assert_one_line_error(code, capsys, command, fragment):
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"repro-tpiin {command}: ")
        assert fragment in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.fixture(scope="class")
    def network(self, tmp_path_factory):
        prefix = tmp_path_factory.mktemp("net") / "net"
        assert main(["generate", "--out", str(prefix), "--companies", "60"]) == 0
        return prefix.with_suffix(".arcs.csv"), prefix.with_suffix(".nodes.csv")

    @pytest.mark.parametrize(
        "flag", ["--snapshot-every", "--queue-limit", "--group-commit-max"]
    )
    def test_serve_rejects_zero_limits(self, flag, network, tmp_path, capsys):
        arcs, nodes = network
        capsys.readouterr()
        code = main(
            [
                "serve",
                str(arcs),
                str(nodes),
                "--port",
                "0",
                "--state-dir",
                str(tmp_path / "state"),
                flag,
                "0",
            ]
        )
        self.assert_one_line_error(code, capsys, "serve", ">= 1")
        assert not (tmp_path / "state").exists()

    def test_investigate_unknown_company(self, capsys):
        code = main(["investigate", "ZZZ", "--companies", "60"])
        self.assert_one_line_error(code, capsys, "investigate", "'ZZZ'")

    def test_mine_missing_csv(self, tmp_path, capsys):
        code = main(["mine", str(tmp_path / "nope.csv"), str(tmp_path / "t.csv")])
        self.assert_one_line_error(code, capsys, "mine", "nope.csv")

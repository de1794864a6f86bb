"""Tests for the command-line interface."""

import pytest

from repro.cli import COMMANDS, build_parser, main


class TestParser:
    # commands with required arguments: the minimal invocation that parses
    REQUIRED = {
        "replay": ["0" * 64, "--store-dir", "runs"],
        "store": ["ls", "--store-dir", "runs"],
        "experiment": ["ls"],
    }

    def test_all_commands_registered(self):
        parser = build_parser()
        for name in COMMANDS:
            args = parser.parse_args([name, *self.REQUIRED.get(name, [])])
            assert args.command == name

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.fitness == "mBF6_2"
        assert args.pop == 64
        assert args.seed == "0x061F"

    @pytest.mark.parametrize(
        "name, pop, seed",
        [
            ("run", 64, "0x061F"),
            ("trace", 64, "0x061F"),
            ("stats", 64, "0x061F"),
            ("campaign", 32, "0x2961"),
            ("submit", 64, "0x061F"),
        ],
    )
    def test_ga_flag_defaults(self, name, pop, seed):
        args = build_parser().parse_args([name])
        ga = (args.fitness, args.pop, args.gens, args.xover, args.mut, args.seed)
        assert ga == ("mBF6_2", pop, 64, 10, 1, seed)


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table5" in out and "speedup" in out

    def test_run_behavioural(self, capsys):
        rc = main([
            "run", "--fitness", "F3", "--pop", "16", "--gens", "8",
            "--seed", "45890",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "F3: best" in out and "optimum 3060" in out

    def test_run_cycle_accurate(self, capsys):
        rc = main([
            "run", "--fitness", "F2", "--pop", "8", "--gens", "4",
            "--seed", "10593", "--cycle-accurate",
        ])
        assert rc == 0
        assert "GA cycles" in capsys.readouterr().out

    def test_run_hex_seed(self, capsys):
        assert main(["run", "--fitness", "F3", "--pop", "8", "--gens", "2",
                     "--seed", "0xB342"]) == 0

    def test_table6(self, capsys):
        assert main(["table6"]) == 0
        out = capsys.readouterr().out
        assert "Table VI" in out and "Clock (MHz)" in out

    def test_fig7(self, capsys):
        assert main(["fig7"]) == 0
        assert "Fig. 7" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Proposed" in out

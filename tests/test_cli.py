"""Tests for the repro.cli command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import get_suite
from repro.topology.serialization import load_json


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_fkp_arguments(self):
        args = build_parser().parse_args(
            ["generate", "fkp", "--nodes", "50", "--alpha", "2.5", "-o", "x.json"]
        )
        assert args.command == "generate"
        assert args.model == "fkp"
        assert args.nodes == 50
        assert args.alpha == 2.5

    def test_unknown_baseline_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["generate", "baseline", "--generator", "magic", "-o", "x.json"]
            )


class TestGenerateCommands:
    def test_generate_fkp_writes_json(self, tmp_path, capsys):
        output = tmp_path / "fkp.json"
        code = main(
            ["generate", "fkp", "--nodes", "60", "--alpha", "4.0", "--seed", "1", "-o", str(output)]
        )
        assert code == 0
        topology = load_json(output)
        assert topology.num_nodes == 60
        assert "wrote 60 nodes" in capsys.readouterr().out

    def test_generate_access(self, tmp_path):
        output = tmp_path / "access.json"
        code = main(
            ["generate", "access", "--customers", "40", "--algorithm", "greedy",
             "--seed", "2", "-o", str(output)]
        )
        assert code == 0
        topology = load_json(output)
        assert topology.num_nodes == 41

    def test_generate_baseline(self, tmp_path):
        output = tmp_path / "ba.json"
        code = main(
            ["generate", "baseline", "--generator", "barabasi-albert", "--nodes", "80",
             "--seed", "3", "-o", str(output)]
        )
        assert code == 0
        assert load_json(output).num_nodes == 80

    def test_generate_isp(self, tmp_path):
        output = tmp_path / "isp.json"
        code = main(
            ["generate", "isp", "--cities", "6", "--customers-per-city", "2",
             "--seed", "4", "-o", str(output)]
        )
        assert code == 0
        assert load_json(output).num_nodes > 6

    def test_generate_internet(self, tmp_path):
        output = tmp_path / "as.json"
        code = main(
            ["generate", "internet", "--isps", "5", "--cities", "8", "--seed", "5",
             "-o", str(output)]
        )
        assert code == 0
        assert load_json(output).num_nodes == 5

    def test_output_is_valid_json(self, tmp_path):
        output = tmp_path / "fkp.json"
        main(["generate", "fkp", "--nodes", "30", "--seed", "1", "-o", str(output)])
        data = json.loads(output.read_text())
        assert "nodes" in data and "links" in data


class TestAnalysisCommands:
    def test_metrics_table(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        main(["generate", "fkp", "--nodes", "50", "--seed", "1", "-o", str(first)])
        main(["generate", "baseline", "--generator", "erdos-renyi", "--nodes", "50",
              "--seed", "1", "-o", str(second)])
        code = main(["metrics", str(first), str(second), "--sample-size", "15"])
        assert code == 0
        out = capsys.readouterr().out
        assert str(first) in out and str(second) in out
        assert "mean_degree" in out

    def test_validate_pass(self, tmp_path, capsys):
        path = tmp_path / "access.json"
        main(["generate", "access", "--customers", "120", "--seed", "6", "-o", str(path)])
        code = main(["validate", str(path), "--target", "router-access", "--sample-size", "20"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_validate_fail_exit_code(self, tmp_path, capsys):
        path = tmp_path / "mesh.json"
        main(["generate", "baseline", "--generator", "waxman", "--nodes", "120",
              "--seed", "7", "-o", str(path)])
        code = main(["validate", str(path), "--target", "router-access", "--sample-size", "20"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_growth_prints_periods_and_saves_topology(self, tmp_path, capsys):
        output = tmp_path / "grown.json"
        code = main(
            ["growth", "--periods", "3", "--initial-customers", "15",
             "--customers-per-period", "5", "--seed", "9", "-o", str(output)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "total capital spent" in out
        assert load_json(output).num_nodes >= 16

    def test_non_finite_fkp_alpha_rejected(self, tmp_path):
        output = str(tmp_path / "fkp.json")
        for alpha in ("nan", "inf"):
            with pytest.raises(ValueError, match="alpha"):
                main(["generate", "fkp", "--nodes", "20", "--alpha", alpha, "-o", output])

    def test_non_finite_task_timeout_rejected(self, tmp_path):
        for timeout in ("nan", "inf"):
            with pytest.raises(ValueError, match="task_timeout"):
                main(
                    ["run", "E1", "--smoke", "--task-timeout", timeout,
                     "--results-dir", str(tmp_path)]
                )

    def test_nan_growth_budget_rejected(self):
        with pytest.raises(ValueError, match="budget_per_period"):
            main(["growth", "--periods", "1", "--budget", "nan"])

    def test_render_layout_and_ccdf(self, tmp_path):
        import xml.etree.ElementTree as ElementTree

        topo_path = tmp_path / "fkp.json"
        main(["generate", "fkp", "--nodes", "60", "--seed", "8", "-o", str(topo_path)])
        layout = tmp_path / "layout.svg"
        ccdf = tmp_path / "ccdf.svg"
        assert main(["render", str(topo_path), "-o", str(layout)]) == 0
        assert main(["render", str(topo_path), "--ccdf", "-o", str(ccdf)]) == 0
        ElementTree.fromstring(layout.read_text())
        ElementTree.fromstring(ccdf.read_text())

    def test_scenarios_lists_all_experiments(self, capsys):
        assert main(["scenarios"]) == 0
        lines = capsys.readouterr().out.splitlines()
        headers = [i for i, line in enumerate(lines) if line.startswith("E")]
        # Registry (lexicographic) order, each with its claim and its grid.
        assert [lines[i].split(":")[0] for i in headers] == sorted(f"E{n}" for n in range(1, 14))
        for i in headers:
            claim, parameters = lines[i + 1], lines[i + 2]
            assert claim.startswith("    claim: ") and claim.split(": ", 1)[1]
            assert parameters.startswith("    parameters: {'")

    def test_scenarios_titles_match_the_manifests(self, capsys):
        assert main(["scenarios"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for experiment_id in (f"E{i}" for i in range(1, 14)):
            # run_experiment records the suite's title in the manifest.
            assert f"{experiment_id}: {get_suite(experiment_id).title}" in lines


class TestRunCommand:

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "E42"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_requires_experiments(self, capsys):
        assert main(["run"]) == 2

    def test_run_smoke_writes_manifest_and_passes_gates(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BENCH_RESULTS", str(tmp_path / "text"))
        results = tmp_path / "RESULTS"
        code = main(["run", "E1", "--smoke", "--results-dir", str(results)])
        assert code == 0
        out = capsys.readouterr().out
        assert "gates: PASS" in out
        assert (results / "E1" / "manifest.json").exists()
        # Cached second run executes nothing.
        code = main(["run", "E1", "--smoke", "--results-dir", str(results)])
        assert code == 0
        assert "6 cached" in capsys.readouterr().out

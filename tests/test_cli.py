"""Command-line interface: parsing, edge-list IO, end-to-end commands."""

import networkx as nx
import pytest

from repro.cli import FAMILIES, main, read_edge_list, write_edge_list


class TestEdgeListIO:
    def test_roundtrip(self, tmp_path):
        graph = nx.Graph()
        graph.add_edge("a", "b", weight=3)
        graph.add_edge("b", "c", weight=7)
        path = tmp_path / "g.txt"
        with open(path, "w") as handle:
            write_edge_list(graph, handle)
        loaded = read_edge_list(str(path))
        assert loaded.number_of_edges() == 2
        assert loaded["a"]["b"]["weight"] == 3
        assert loaded["b"]["c"]["weight"] == 7

    def test_default_weight_and_comments(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n1 2\n2 3 9  # inline\n\n")
        graph = read_edge_list(str(path))
        assert graph["1"]["2"]["weight"] == 1
        assert graph["2"]["3"]["weight"] == 9

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("justonetoken\n")
        with pytest.raises(ValueError):
            read_edge_list(str(path))


class TestFamilies:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_all_families_generate_connected(self, family):
        graph = FAMILIES[family](24, 1)
        assert nx.is_connected(graph)
        assert graph.number_of_nodes() >= 4


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "PODC 2022" in out

    def test_mincut_generated_family(self, capsys):
        assert main(
            ["mincut", "--family", "gnm", "--n", "18", "--seed", "2",
             "--solver", "oracle", "--verbose"]
        ) == 0
        out = capsys.readouterr().out
        assert "min-cut value" in out
        assert "CONGEST" in out

    def test_mincut_matches_reference(self, tmp_path, capsys):
        from repro.graphs import random_connected_gnm

        graph = random_connected_gnm(16, 34, seed=5)
        path = tmp_path / "g.txt"
        with open(path, "w") as handle:
            write_edge_list(graph, handle)
        assert main(["mincut", "--edges", str(path), "--solver", "oracle"]) == 0
        out = capsys.readouterr().out
        expected, _ = nx.stoer_wagner(graph)
        assert f"min-cut value : {float(expected)}" in out

    def test_generate_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "cycle.txt"
        assert main(
            ["generate", "--family", "cycle", "--n", "12", "--out", str(out_path)]
        ) == 0
        graph = read_edge_list(str(out_path))
        assert graph.number_of_edges() == 12

    def test_generate_to_stdout(self, capsys):
        assert main(["generate", "--family", "cycle", "--n", "6"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 6

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            main(["mincut", "--family", "hypercube-of-doom"])

    @pytest.mark.parametrize("command", ["mincut", "profile", "generate"])
    @pytest.mark.parametrize("name", ["nope.txt", "nope.npz"])
    def test_missing_edges_file_is_one_line_error(self, tmp_path, command, name):
        missing = str(tmp_path / name)
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--edges", missing])
        message = str(excinfo.value.code)
        assert excinfo.value.code != 0
        assert missing in message
        assert "\n" not in message

    @pytest.mark.parametrize("command", ["mincut", "sweep", "profile", "serve"])
    def test_bad_solver_argument_is_one_line_error(self, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--trees", "0"])
        assert excinfo.value.code == "num_trees must be positive"

    def test_bad_solver_argument_from_the_shell(self):
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "mincut", "--family", "gnm",
             "--n", "20", "--trees", "0"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert proc.stderr.strip() == "num_trees must be positive"

    def test_missing_edges_file_from_the_shell(self, tmp_path):
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "mincut", "--edges",
             str(tmp_path / "nope.txt")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

"""Tests for the command-line interface and the graph-spec parser."""

from __future__ import annotations

import json

import pytest

from repro.cli import main, parse_graph_spec


class TestGraphSpecParser:
    @pytest.mark.parametrize(
        "spec,n,m",
        [
            ("path:5", 5, 4),
            ("cycle:6", 6, 6),
            ("complete:4", 4, 6),
            ("star:7", 7, 6),
            ("grid:2x3", 6, 7),
            ("torus:3x4", 12, 24),
            ("hypercube:3", 8, 12),
            ("tree:2", 7, 6),
            ("barbell:4:2", 9, 14),
            ("lollipop:4:3", 7, 9),
        ],
    )
    def test_deterministic_families(self, spec, n, m):
        g = parse_graph_spec(spec)
        assert g.n == n and g.m == m

    def test_random_families_with_seed(self):
        g1 = parse_graph_spec("gnp:20:0.3:5")
        g2 = parse_graph_spec("gnp:20:0.3:5")
        assert g1.edges() == g2.edges()
        reg = parse_graph_spec("regular:12:3:1")
        assert all(reg.degree(v) == 3 for v in range(12))
        rgg = parse_graph_spec("rgg:20:0.5:2")
        assert rgg.n == 20

    def test_uppercase_family(self):
        assert parse_graph_spec("CYCLE:5").n == 5

    def test_file_edge_list(self, tmp_path):
        path = tmp_path / "toy.edges"
        path.write_text(
            "# a comment line\n"
            "0 1\n"
            "1 2   # trailing comment\n"
            "\n"
            "2 3\n"
            "3 0\n"
        )
        g = parse_graph_spec(f"file:{path}")
        assert g.n == 4 and g.m == 4
        assert not g.is_weighted
        assert sorted(tuple(sorted(e)) for e in g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_file_edge_list_weighted(self, tmp_path):
        path = tmp_path / "weighted.edges"
        path.write_text("0 1 2.5\n1 2\n")  # partially weighted: rest default 1.0
        g = parse_graph_spec(f"file:{path}")
        assert g.is_weighted
        assert g.weighted_degree(1) == 3.5

    def test_file_edge_list_errors(self, tmp_path):
        with pytest.raises(ValueError, match="file needs a path"):
            parse_graph_spec("file:")
        with pytest.raises(ValueError, match="bad graph spec"):
            parse_graph_spec(f"file:{tmp_path / 'missing.edges'}")
        bad = tmp_path / "bad.edges"
        bad.write_text("0 1 2 3\n")
        from repro.errors import GraphError

        with pytest.raises(GraphError, match="expected 'u v"):
            parse_graph_spec(f"file:{bad}")
        empty = tmp_path / "empty.edges"
        empty.write_text("# nothing\n")
        with pytest.raises(GraphError, match="no edges"):
            parse_graph_spec(f"file:{empty}")

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown graph family"):
            parse_graph_spec("mobius:5")

    def test_malformed_args(self):
        with pytest.raises(ValueError, match="bad graph spec"):
            parse_graph_spec("grid:5")
        with pytest.raises(ValueError, match="bad graph spec"):
            parse_graph_spec("path:abc")
        with pytest.raises(ValueError, match="bad graph spec"):
            parse_graph_spec("barbell:4")


class TestCommands:
    def test_walk_single(self, capsys):
        code = main(["walk", "--graph", "torus:4x4", "--length", "100", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "SINGLE-RANDOM-WALK" in out
        assert "torus(4x4)" in out

    def test_walk_all_algorithms(self, capsys):
        code = main(["walk", "--graph", "hypercube:4", "--length", "200", "--algorithm", "all"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PODC'09 baseline" in out
        assert "naive token walk" in out

    def test_rst(self, capsys):
        code = main(["rst", "--graph", "complete:5", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Random spanning tree" in out
        assert "Tree edges:" in out
        # 4 tree edges for n=5.
        assert len(out.split("Tree edges:")[1].split()) == 4

    def test_mixing(self, capsys):
        code = main(["mixing", "--graph", "complete:8", "--seed", "2", "--samples", "150"])
        assert code == 0
        out = capsys.readouterr().out
        assert "estimated τ̃" in out
        assert "spectral gap interval" in out

    def test_lowerbound(self, capsys):
        code = main(["lowerbound", "--n", "64"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PATH-VERIFICATION" in out
        assert "verified" in out

    def test_walks_batch(self, capsys):
        code = main(["walks", "--graph", "torus:8x8", "--k", "6", "--length", "256", "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "batch-stitched" in out
        assert "shards below watermark" in out
        assert len(out.split("Destinations:")[1].split()) == 6

    def test_serve_open_loop(self, capsys):
        code = main(
            [
                "serve", "--graph", "torus:8x8", "--loop", "open",
                "--rate", "2", "--ticks", "5", "--k", "1", "2",
                "--length", "256", "--seed", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scheduled serving" in out
        assert "p50/p99 rounds per request" in out
        assert "deadline misses" in out

    def test_walk_on_file_graph(self, capsys, tmp_path):
        # The whole CLI surface runs on real edge-list files, not just
        # generator specs.
        path = tmp_path / "torus.edges"
        from repro.graphs import torus_graph

        path.write_text("".join(f"{u} {v}\n" for u, v in torus_graph(4, 4).edges()))
        code = main(["walk", "--graph", f"file:{path}", "--length", "64", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "SINGLE-RANDOM-WALK" in out and "n=16" in out

    def test_serve_with_churn(self, capsys):
        code = main(
            [
                "serve", "--graph", "torus:8x8", "--loop", "open",
                "--rate", "2", "--ticks", "5", "--k", "1",
                "--length", "96", "--seed", "4",
                "--churn-delete-rate", "1", "--churn-insert-rate", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "churn events" in out
        assert "tokens regenerated (churn)" in out

    def test_serve_churn_requires_open_loop(self, capsys):
        code = main(
            [
                "serve", "--graph", "torus:8x8", "--loop", "closed",
                "--churn-delete-rate", "1",
            ]
        )
        assert code == 2
        assert "needs --loop open" in capsys.readouterr().err

    def test_serve_closed_loop(self, capsys):
        code = main(
            [
                "serve", "--graph", "torus:8x8", "--loop", "closed",
                "--concurrency", "3", "--requests", "8", "--k", "2",
                "--length", "200", "--seed", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "closed" in out and "scheduled serving" in out

    def test_error_path(self, capsys):
        code = main(["walk", "--graph", "nosuch:5", "--length", "10"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_walk_error_from_library(self, capsys):
        code = main(["walk", "--graph", "path:4", "--length", "10", "--source", "99"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestJsonOutput:
    def test_walk_json_single(self, capsys):
        code = main(["walk", "--graph", "torus:4x4", "--length", "100", "--seed", "3", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and len(payload) == 1
        (entry,) = payload
        assert entry["algorithm"] == "SINGLE-RANDOM-WALK"
        assert entry["source"] == 0 and entry["length"] == 100
        assert isinstance(entry["destination"], int)
        assert entry["rounds"] > 0 and isinstance(entry["phase_rounds"], dict)

    def test_walk_json_matches_table_run(self, capsys):
        main(["walk", "--graph", "torus:4x4", "--length", "100", "--seed", "3", "--json"])
        entry = json.loads(capsys.readouterr().out)[0]
        code = main(["walk", "--graph", "torus:4x4", "--length", "100", "--seed", "3"])
        assert code == 0
        table = capsys.readouterr().out
        assert str(entry["destination"]) in table and str(entry["rounds"]) in table

    def test_walk_json_all_algorithms(self, capsys):
        code = main(
            ["walk", "--graph", "hypercube:4", "--length", "200", "--algorithm", "all", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [e["algorithm"] for e in payload] == [
            "SINGLE-RANDOM-WALK",
            "PODC'09 baseline",
            "naive token walk",
        ]

    def test_rst_json(self, capsys):
        code = main(["rst", "--graph", "complete:5", "--seed", "1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "rst"
        assert len(payload["tree"]) == 4  # n-1 edges

    def test_serve_json(self, capsys):
        code = main(
            [
                "serve", "--graph", "torus:8x8", "--loop", "open",
                "--rate", "2", "--ticks", "4", "--k", "2",
                "--length", "256", "--seed", "4", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        sched = payload["scheduler"]
        assert sched["submitted"] == sched["admitted"] + sched["rejected"]
        assert sched["completed"] >= 1
        assert sched["p99_rounds_per_request"] >= sched["p50_rounds_per_request"]
        engine = payload["engine"]
        assert engine["serve"] == sched  # surfaced through EngineStats
        assert engine["rounds"] > 0

    def test_serve_churn_json(self, capsys):
        code = main(
            [
                "serve", "--graph", "torus:8x8", "--loop", "open",
                "--rate", "2", "--ticks", "5", "--k", "1",
                "--length", "96", "--seed", "4", "--json",
                "--churn-delete-rate", "1", "--churn-insert-rate", "1",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["churn"], "five ticks at rate 1+1 should churn"
        event = payload["churn"][0]
        assert event["edges_inserted"] + event["edges_deleted"] >= 1
        engine = payload["engine"]
        assert engine["churn_events"] == len(payload["churn"])

    def test_mixing_json(self, capsys):
        code = main(
            ["mixing", "--graph", "complete:8", "--seed", "2", "--samples", "150", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "mixing"
        assert payload["estimate"] >= 1

    def test_walks_json_includes_shard_stats(self, capsys):
        code = main(
            ["walks", "--graph", "torus:8x8", "--k", "4", "--length", "256", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "batch-stitched"
        assert len(payload["destinations"]) == 4
        stats = payload["stats"]
        assert stats["queries"] == 1
        assert stats["num_shards"] >= 1
        assert "shard_unused_min" in stats and "maintenance_sweeps" in stats

    def test_walk_metropolis_algorithm(self, capsys):
        code = main(
            ["walk", "--graph", "torus:4x4", "--length", "100", "--algorithm", "metropolis"]
        )
        assert code == 0
        assert "Metropolis-Hastings" in capsys.readouterr().out


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

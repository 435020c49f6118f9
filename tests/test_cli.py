import json
import random

import pytest

from wingsearch import (
    deserialize,
    deserialize_comp,
    generate_bipartite,
    load_edge_list,
)
from wingsearch.cli import main

from conftest import FIG2_PSI


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload(out):
    """Everything except the '# ' timing/provenance lines."""
    return "\n".join(
        line for line in out.splitlines() if not line.startswith("# ")
    )


@pytest.fixture
def g_path(tmp_path, fig2_path):
    """update rewrites the graph file, so give each test its own copy"""
    dest = tmp_path / "fig2.tsv"
    with open(fig2_path) as fh:
        dest.write_text(fh.read())
    return dest


@pytest.fixture
def ew_path(tmp_path, fig2_path, capsys):
    out = tmp_path / "fig2.ew"
    assert main(["build", "--graph", str(fig2_path), "--out", str(out)]) == 0
    capsys.readouterr()
    return out


@pytest.fixture
def ewc_path(tmp_path, fig2_path, capsys):
    out = tmp_path / "fig2.ewc"
    assert main(
        ["build", "--graph", str(fig2_path), "--out", str(out), "--comp"]
    ) == 0
    capsys.readouterr()
    return out


class TestDecompose:
    def test_golden_table(self, capsys, fig2_path):
        code, out, _ = run(capsys, "decompose", "--graph", str(fig2_path))
        assert code == 0
        rows = [line.split("\t") for line in payload(out).splitlines()]
        assert {(u, v): int(w) for u, v, w in rows} == FIG2_PSI
        assert any(line.startswith("# decompose time") for line in out.splitlines())

    def test_out_file(self, capsys, tmp_path, fig2_path):
        dest = tmp_path / "psi.tsv"
        code, out, _ = run(
            capsys, "decompose", "--graph", str(fig2_path), "--out", str(dest)
        )
        assert code == 0 and payload(out) == ""
        rows = [l.split("\t") for l in dest.read_text().splitlines()]
        assert {(u, v): int(w) for u, v, w in rows} == FIG2_PSI


class TestBuild:
    def test_plain(self, capsys, tmp_path, fig2_path):
        out_path = tmp_path / "a.ew"
        code, out, _ = run(
            capsys, "build", "--graph", str(fig2_path), "--out", str(out_path)
        )
        assert code == 0
        assert "format equiwing\n" in out
        assert "super_nodes 6\n" in out
        assert "super_edges 6\n" in out
        assert "k_max 4\n" in out
        index = deserialize(out_path.read_text())
        assert len(index.nodes) == 6

    def test_comp(self, capsys, tmp_path, fig2_path):
        out_path = tmp_path / "a.ewc"
        code, out, _ = run(
            capsys, "build", "--graph", str(fig2_path), "--out", str(out_path),
            "--comp",
        )
        assert code == 0
        assert "format equiwing-comp\n" in out
        assert "super_nodes 5\n" in out
        assert "compression_ratio 1.2\n" in out
        comp = deserialize_comp(out_path.read_text())
        assert comp.merge_log == [(3, 2)]


class TestQuery:
    def test_three_engines_byte_identical(self, capsys, fig2_path, ew_path,
                                          ewc_path):
        outs = []
        for argv in (
            ["query", "--engine", "baseline", "--graph", str(fig2_path),
             "-q", "v5", "-k", "3"],
            ["query", "--index", str(ew_path), "-q", "v5", "-k", "3"],
            ["query", "--index", str(ewc_path), "-q", "v5", "-k", "3"],
        ):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            outs.append(payload(out))
        assert outs[0] == outs[1] == outs[2]
        assert outs[0].splitlines()[0] == "wing 0 size 8"
        assert "wing 1 size 11" in outs[0]

    def test_jsonlines(self, capsys, ew_path):
        code, out, _ = run(
            capsys, "query", "--index", str(ew_path), "-q", "v5", "-k", "3",
            "--format", "jsonlines",
        )
        assert code == 0
        recs = [json.loads(l) for l in payload(out).splitlines()]
        assert [r["size"] for r in recs] == [8, 11]
        assert [r["wing_index"] for r in recs] == [0, 1]
        assert all(
            isinstance(e, list) and len(e) == 2
            for r in recs for e in r["edges"]
        )

    def test_oversized_k_is_empty_success(self, capsys, ew_path):
        code, out, _ = run(
            capsys, "query", "--index", str(ew_path), "-q", "v5", "-k", "99"
        )
        assert code == 0
        assert "# wings 0" in out and payload(out) == ""

    def test_unknown_vertex_with_graph_fails(self, capsys, fig2_path, ew_path):
        code, _, err = run(
            capsys, "query", "--index", str(ew_path), "--graph",
            str(fig2_path), "-q", "nope", "-k", "1",
        )
        assert code == 3 and "nope" in err

    def test_unknown_vertex_without_graph_is_empty(self, capsys, ew_path):
        code, out, _ = run(
            capsys, "query", "--index", str(ew_path), "-q", "nope", "-k", "1"
        )
        assert code == 0 and payload(out) == ""

    def test_baseline_needs_graph(self, capsys, ew_path):
        code, _, err = run(
            capsys, "query", "--engine", "baseline", "--index", str(ew_path),
            "-q", "v5", "-k", "3",
        )
        assert code == 3 and "baseline" in err

    def test_engine_format_mismatch(self, capsys, ewc_path):
        code, _, err = run(
            capsys, "query", "--engine", "equiwing", "--index", str(ewc_path),
            "-q", "v5", "-k", "3",
        )
        assert code == 3

    def test_k_below_one(self, capsys, ew_path):
        code, _, err = run(
            capsys, "query", "--index", str(ew_path), "-q", "v5", "-k", "0"
        )
        assert code == 3


class TestUpdate:
    def test_insert_reports_and_rewrites(self, capsys, tmp_path, g_path,
                                         ew_path):
        code, out, _ = run(
            capsys, "update", "--graph", str(g_path), "--index",
            str(ew_path), "--insert", "v4:u6",
        )
        assert code == 0
        assert "mutation 1 insert v4 u6" in out
        assert "upper_bound 4\n" in out
        assert "delta 2\n" in out
        assert "affected_super_nodes 3\n" in out
        assert "affected_super_node_ids 3 4 5\n" in out
        assert "fell_back no" in out
        graph, _ = load_edge_list(str(g_path))
        assert graph.has_edge("v4", "u6") and graph.num_edges == 26
        index = deserialize(ew_path.read_text())
        assert len(index.nodes) == 4
        assert sorted(n.level for n in index.nodes.values()) == [1, 2, 3, 4]

    def test_mutations_apply_in_flag_order(self, capsys, g_path, ew_path):
        code, out, _ = run(
            capsys, "update", "--graph", str(g_path), "--index",
            str(ew_path), "--insert", "v4:u6", "--delete", "v4:u6",
        )
        assert code == 0
        assert out.index("mutation 1 insert") < out.index("mutation 2 delete")
        graph, _ = load_edge_list(str(g_path))
        assert graph.num_edges == 25 and not graph.has_edge("v4", "u6")
        index = deserialize(ew_path.read_text())
        assert len(index.nodes) == 6  # back to the original shape

    def test_comp_index_update(self, capsys, g_path, ewc_path):
        code, out, _ = run(
            capsys, "update", "--graph", str(g_path), "--index",
            str(ewc_path), "--insert", "v4:u6",
        )
        assert code == 0
        comp = deserialize_comp(ewc_path.read_text())
        assert len(comp.nodes) == 4
        assert comp.compression_ratio() == pytest.approx(1.0)

    def test_delete_missing_edge_changes_nothing(self, capsys, g_path,
                                                 ew_path):
        before_graph = g_path.read_text()
        before_index = ew_path.read_text()
        code, _, err = run(
            capsys, "update", "--graph", str(g_path), "--index",
            str(ew_path), "--delete", "v4:u6",
        )
        assert code == 3 and "v4" in err
        assert g_path.read_text() == before_graph
        assert ew_path.read_text() == before_index

    def test_mismatched_pair_is_internal_error(self, capsys, tmp_path,
                                               ew_path):
        other = tmp_path / "other.tsv"
        other.write_text("a1\tb1\na1\tb2\na2\tb1\na2\tb2\n")
        code, _, err = run(
            capsys, "update", "--graph", str(other), "--index", str(ew_path),
            "--insert", "a3:b1",
        )
        assert code == 4 and "does not match" in err

    def test_no_mutations_rejected(self, capsys, g_path, ew_path):
        code, _, _ = run(
            capsys, "update", "--graph", str(g_path), "--index",
            str(ew_path),
        )
        assert code == 3

    def test_bad_edge_syntax(self, capsys, g_path, ew_path):
        code, _, _ = run(
            capsys, "update", "--graph", str(g_path), "--index",
            str(ew_path), "--insert", "v4u6",
        )
        assert code == 3


class TestGen:
    def test_deterministic(self, capsys, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.tsv", "b.tsv", "c.tsv"))
        argv = ["gen", "--nu", "30", "--nv", "30", "--p", "0.05",
                "--seed", "7", "--block", "4:4:0.9"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert main(["gen", "--nu", "30", "--nv", "30", "--p", "0.05",
                     "--seed", "8", "--out", str(c)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()
        graph, dups = load_edge_list(str(a))
        assert dups == 0 and graph.num_edges > 0

    def test_bad_block_argument(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "gen", "--nu", "5", "--nv", "5", "--p", "0.5",
            "--block", "4x4", "--out", str(tmp_path / "x.tsv"),
        )
        assert code == 3 and "ROWS:COLS:PROB" in err


class TestStats:
    def test_plain(self, capsys, ew_path):
        code, out, _ = run(capsys, "stats", "--index", str(ew_path))
        assert code == 0
        assert "format equiwing\n" in out
        assert "super_nodes 6\n" in out
        assert "super_edges 6\n" in out
        assert "classed_edges 25\n" in out
        assert "k_max 4\n" in out
        assert "level 2 2\n" in out
        assert "forest no" in out

    def test_comp(self, capsys, ewc_path):
        code, out, _ = run(capsys, "stats", "--index", str(ewc_path))
        assert code == 0
        assert "format equiwing-comp\n" in out
        assert "super_nodes 5\n" in out
        assert "compression_ratio 1.2\n" in out


class TestBench:
    def test_small_run_shape(self, capsys, fig2_path):
        code, out, _ = run(
            capsys, "bench", "--graph", str(fig2_path), "-k", "2",
            "--per-bucket", "2", "--buckets", "4",
        )
        assert code == 0
        lines = payload(out).splitlines()
        assert lines[0] == "bucket\tqueries\tbaseline_s\tequiwing_s\tcomp_s"
        assert len(lines) > 1
        for row in lines[1:]:
            cells = row.split("\t")
            assert len(cells) == 5 and int(cells[1]) >= 1


class TestExitCodes:
    def test_missing_graph_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "decompose", "--graph", str(tmp_path / "missing.tsv")
        )
        assert code == 2 and err

    def test_malformed_graph(self, capsys, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("a1\tb1\njustoneword\n")
        code, _, err = run(capsys, "decompose", "--graph", str(bad))
        assert code == 2 and "line 2" in err

    def test_corrupt_index(self, capsys, tmp_path, ew_path):
        mangled = tmp_path / "mangled.ew"
        mangled.write_text(ew_path.read_text().replace("m v2 u3", "m v2 u4"))
        code, _, err = run(
            capsys, "query", "--index", str(mangled), "-q", "v5", "-k", "3"
        )
        assert code == 2 and "checksum" in err

    def test_truncated_index(self, capsys, tmp_path, ew_path):
        stub = tmp_path / "stub.ew"
        stub.write_text("".join(ew_path.read_text().splitlines(True)[:4]))
        code, _, _ = run(
            capsys, "query", "--index", str(stub), "-q", "v5", "-k", "3"
        )
        assert code == 2

    def test_missing_index(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "query", "--index", str(tmp_path / "no.ew"),
            "-q", "v5", "-k", "3",
        )
        assert code == 2


class TestRepeatedCompUpdate:
    """Successive `update` calls on one comp file: every rewrite must stay
    readable and equal to a fresh `build --comp` of the updated graph."""

    @staticmethod
    def classes(path):
        comp = deserialize_comp(path.read_text())
        return {frozenset(n.members): n.level for n in comp.nodes.values()}

    @staticmethod
    def mutation(rng, n, edges, step):
        """Odd steps insert a random absent pair, even steps delete a random
        edge; `edges` follows along."""
        if step % 2 == 0:
            e = rng.choice(sorted(edges))
            edges.discard(e)
            return "delete", e
        while True:
            e = (f"a{rng.randrange(n)}", f"b{rng.randrange(n)}")
            if e not in edges:
                edges.add(e)
                return "insert", e

    @pytest.mark.parametrize("n, p, seed", [(40, 0.08, 2), (40, 0.08, 3),
                                            (60, 0.06, 2)])
    def test_eight_updates_match_fresh_build(self, capsys, tmp_path, n, p,
                                             seed):
        g_path, ewc, fresh = (tmp_path / x for x in ("g.tsv", "g.ewc",
                                                      "fresh.ewc"))
        edges = set(generate_bipartite(n, n, p, seed, [(n // 4, n // 4, 0.9)]))
        g_path.write_text("".join(f"{u}\t{v}\n" for u, v in sorted(edges)))
        assert main(["build", "--graph", str(g_path), "--out", str(ewc),
                     "--comp"]) == 0
        rng = random.Random(seed)
        for step in range(1, 9):
            kind, e = self.mutation(rng, n, edges, step)
            assert main(["update", "--graph", str(g_path), "--index",
                         str(ewc), f"--{kind}", f"{e[0]}:{e[1]}"]) == 0, step
            assert main(["stats", "--index", str(ewc)]) == 0, step
            assert main(["query", "--index", str(ewc), "-q", e[0],
                         "-k", "1"]) == 0, step
            assert main(["build", "--graph", str(g_path), "--out",
                         str(fresh), "--comp"]) == 0
            assert self.classes(ewc) == self.classes(fresh), step
        capsys.readouterr()

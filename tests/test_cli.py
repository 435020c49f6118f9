import json
import os
import random
import stat

import pytest

from wingsearch import (
    BipartiteGraph,
    EquiWingIndex,
    SuperNode,
    apply_update_comp,
    build_equiwing,
    deserialize,
    deserialize_comp,
    generate_bipartite,
    load_edge_list,
    serialize,
    wing_decomposition,
)
from wingsearch.bench import degree_buckets
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

    @pytest.mark.parametrize("comp", [False, True])
    def test_phase_times(self, capsys, tmp_path, fig2_path, comp):
        code, out, _ = run(
            capsys, "build", "--graph", str(fig2_path), "--out",
            str(tmp_path / "a.ew"), *(["--comp"] if comp else []),
        )
        timed = [line.split()[1] for line in out.splitlines()
                 if line.startswith("# ") and " time " in line]
        phases = ["decompose", "index"] + (["compress"] if comp else [])
        assert code == 0 and timed == phases + ["build"]


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

    def test_index_required(self, capsys):
        code, out, err = run(capsys, "query", "-q", "v5", "-k", "2")
        assert code == 3 and "--index is required" in err and out == ""

    def test_k_below_one(self, capsys, ew_path):
        code, _, err = run(
            capsys, "query", "--index", str(ew_path), "-q", "v5", "-k", "0"
        )
        assert code == 3


def leave_out(comp, sn_id):
    comp.remove_node(sn_id)
    comp.super_edge_set = {p for p in comp.super_edge_set if sn_id not in p}


def split_off_one(comp, sn_id):
    node = comp.remove_node(sn_id)
    first, *rest = node.ordered()
    comp.add_node(SuperNode(sn_id, node.level, rest))
    comp.add_node(SuperNode(comp.alloc_id(), node.level, [first]))


def raise_level(comp, sn_id):
    node = comp.remove_node(sn_id)
    comp.add_node(SuperNode(sn_id, node.level + 1, node.members))


def merge_nodes(comp, pair):
    """Merge node b into node a, with its super edges and a merge log
    entry, as if the two were one compressed group."""
    a, b = pair
    kept, gone = comp.remove_node(a), comp.remove_node(b)
    comp.add_node(SuperNode(a, kept.level, kept.members | gone.members))
    comp.super_edge_set = {tuple(sorted(a if s == b else s for s in p))
                           for p in comp.super_edge_set}
    if comp.merge_log is not None:  # only a compressed index logs merges
        comp.merge_log = sorted(comp.merge_log + [(b, a)])


def move_super_edge(comp, edges):
    old, new = edges
    comp.super_edge_set = comp.super_edge_set - {old} | {new}


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

    def test_duplicate_lines_are_noted_and_dropped(self, capsys, tmp_path):
        """The graph file is rewritten as its sorted edge list: without the
        duplicate and the comment, and with the same payload as a clean
        file."""
        edges = "a2 b2\na1 b1\na1 b2\na2 b1\n"
        outs = []
        for name, text in [("dup", "# c\n" + edges + "a1 b1\n"),
                           ("clean", edges)]:
            g, ew = tmp_path / f"{name}.tsv", tmp_path / f"{name}.ew"
            g.write_text(text)
            code, out, _ = run(capsys, "build", "--graph", str(g),
                               "--out", str(ew))
            assert code == 0
            code, out, _ = run(capsys, "update", "--graph", str(g),
                               "--index", str(ew), "--insert", "a3:b1")
            assert code == 0
            noted = "# ignored 1 duplicate edges\n" in out
            assert noted == (name == "dup")
            assert g.read_text() == "a1\tb1\na1\tb2\na2\tb1\na2\tb2\na3\tb1\n"
            outs.append(payload(out))
        assert outs[0] == outs[1] and "mutation 1 insert a3 b1" in outs[0]

    def test_rewritten_files_keep_their_modes(self, capsys, g_path, ew_path):
        os.chmod(g_path, 0o664)
        os.chmod(ew_path, 0o644)
        code, _, _ = run(
            capsys, "update", "--graph", str(g_path), "--index",
            str(ew_path), "--insert", "v4:u6",
        )
        assert code == 0
        assert stat.S_IMODE(os.stat(g_path).st_mode) == 0o664
        assert stat.S_IMODE(os.stat(ew_path).st_mode) == 0o644

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

    def test_a_second_call_sees_only_its_own_mutations(self, capsys, g_path,
                                                       ew_path):
        """Calls share one parser; the mutation list is the call's own."""
        code, _, _ = run(
            capsys, "update", "--graph", str(g_path), "--index",
            str(ew_path), "--insert", "v4:u6", "--delete", "v4:u6",
        )
        assert code == 0
        code, out, _ = run(
            capsys, "update", "--graph", str(g_path), "--index",
            str(ew_path), "--delete", "v1:u1",
        )
        assert code == 0
        assert "mutation 1 delete v1 u1" in out and "mutation 2" not in out
        graph, _ = load_edge_list(str(g_path))
        assert graph.num_edges == 24 and not graph.has_edge("v1", "u1")

    def test_comp_index_update(self, capsys, g_path, ewc_path):
        code, out, _ = run(
            capsys, "update", "--graph", str(g_path), "--index",
            str(ewc_path), "--insert", "v4:u6",
        )
        assert code == 0
        comp = deserialize_comp(ewc_path.read_text())
        assert len(comp.nodes) == 4
        assert comp.compression_ratio() == pytest.approx(1.0)

    def test_comp_update_compresses_once(self, capsys, monkeypatch, g_path,
                                         ewc_path, fig2_path):
        """The updated index is compressed once, after the last mutation;
        the only other compression is the check's, of the fresh build."""
        from wingsearch import cli, dynamic

        fresh = serialize(build_equiwing(load_edge_list(fig2_path)[0]))
        calls = []
        real = dynamic.compress

        def counting(index):
            calls.append(serialize(index))
            return real(index)

        monkeypatch.setattr(cli, "compress", counting)
        monkeypatch.setattr(dynamic, "compress", counting)
        code, out, _ = run(
            capsys, "update", "--graph", str(g_path), "--index",
            str(ewc_path), "--insert", "v4:u6",
        )
        assert code == 0 and "affected_super_nodes 3\n" in out
        assert len(calls) == 2
        assert calls[0] == fresh and calls[1] != fresh

    def test_comp_update_equals_the_library_chain(self, capsys, g_path,
                                                  ewc_path):
        """Three mutations in one call write what the last compressed index
        of an `apply_update_comp` chain over them serializes to."""
        mutations = [("insert", "v4", "u6"), ("delete", "v6", "u5"),
                     ("insert", "v1", "u3")]
        graph, _ = load_edge_list(str(g_path))
        d = wing_decomposition(graph)
        index, comp = build_equiwing(graph, d), None
        for kind, u, v in mutations:
            _report, comp = apply_update_comp(graph, d, index, comp, kind,
                                              u, v)
        flags = [x for kind, u, v in mutations for x in (f"--{kind}",
                                                         f"{u}:{v}")]
        code, _, _ = run(capsys, "update", "--graph", str(g_path),
                         "--index", str(ewc_path), *flags)
        assert code == 0
        assert ewc_path.read_text() == serialize(comp)

    @pytest.mark.parametrize("fmt", ["ew_path", "ewc_path"])
    def test_one_bloom_enumeration(self, capsys, monkeypatch, request,
                                   g_path, fmt):
        """The peel's bloom record serves the check, on a comp file the
        build, and the bloom map the first mutation fills: none enumerates
        the blooms again, not even after a vertex loses its last edge."""
        index_path = request.getfixturevalue(fmt)
        calls = []
        real = BipartiteGraph.blooms

        def counting(graph):
            calls.append(graph)
            return real(graph)

        monkeypatch.setattr(BipartiteGraph, "blooms", counting)
        code, out, _ = run(
            capsys, "update", "--graph", str(g_path), "--index",
            str(index_path), "--insert", "v4:u6", "--delete", "v1:u1",
            "--delete", "v1:u2",
        )
        assert code == 0 and len(calls) == 1
        assert "v1" not in g_path.read_text()
        timed = [line.split()[1] for line in out.splitlines()
                 if line.startswith("# ") and " time " in line]
        comp = ["compress"] if fmt == "ewc_path" else []
        assert timed == ["check", *["mutation"] * 3, "total", *comp]
        phases = [line.split()[4::2] for line in out.splitlines()
                  if line.startswith("# mutation ") and " phases " in line]
        assert phases == [["start", "walk", "reclassify", "patch_counts",
                           "validate"]] * 3
        counters = [line.split()[4:] for line in out.splitlines()
                    if line.startswith("# mutation ") and " counters " in line]
        assert [c[::2] for c in counters] == [
            ["evaluations", "taken_in", "butterflies_scanned", "settled",
             "pairs", "blooms", "reformed"]] * 3
        assert all(n.isdigit() for c in counters for n in c[1::2])
        assert " fallback " not in out

    def test_fallback_prints_its_reason(self, capsys, monkeypatch, g_path,
                                        ew_path):
        """A rebuild after surgery names, on a `# ` line, the first problem
        of the check that triggered it; the payload says `fell_back yes`."""
        real = EquiWingIndex.validate
        checked = []

        def failing_after_surgery(index, wing_number=None):
            if wing_number is not None:  # surgery's check; the load's
                checked.append(index)      # compares with a fresh build
                if len(checked) == 1:
                    return ["node 1 sabotaged"]
            return real(index, wing_number)

        monkeypatch.setattr(EquiWingIndex, "validate", failing_after_surgery)
        code, out, _ = run(
            capsys, "update", "--graph", str(g_path), "--index",
            str(ew_path), "--insert", "v4:u6",
        )
        assert code == 0 and len(checked) == 1
        lines = out.splitlines()
        assert "# mutation 1 fallback node 1 sabotaged" in lines
        assert "fell_back yes" in lines and "event node 1 sabotaged" in lines

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

    def test_split_class_is_internal_error(self, capsys, g_path, ew_path):
        """A file whose nodes match the wing numbers but split a class in
        two at one level passes the reader's structural check; comparing
        its nodes with a fresh build's must still catch it."""
        text = ew_path.read_text()
        splittable = [
            n for n in deserialize(text).nodes.values() if len(n.members) > 1
        ]
        assert splittable
        for node in splittable:
            split = deserialize(text)
            split.remove_node(node.sn_id)
            half = node.ordered()[: len(node.members) // 2]
            rest = node.members - set(half)
            split.add_node(SuperNode(node.sn_id, node.level, rest))
            split.add_node(SuperNode(split.alloc_id(), node.level, half))
            assert split.validate() == []
            ew_path.write_text(serialize(split))
            code, _, err = run(
                capsys, "update", "--graph", str(g_path), "--index",
                str(ew_path), "--insert", "v1:u2",
            )
            assert code == 4, node
            assert ("index does not match graph: its nodes are not the "
                    "graph's classes") in err

    @pytest.mark.parametrize("corrupt, where", [
        (split_off_one, 4),  # node 4 is the whole of class 4
        (raise_level, 6),
        (leave_out, 5),
        # level-3 nodes 4 and 5 lie in different 3-wings: merged, the file
        # answers -q u3 -k 3 with 19 edges instead of 8
        (merge_nodes, (4, 5)),
        (move_super_edge, ((2, 6), (1, 6))),
    ], ids=["part-of-a-class", "wrong-level", "class-left-out",
            "two-wings-merged", "super-edge-moved"])
    def test_comp_file_of_another_graph_is_internal_error(
            self, capsys, g_path, ewc_path, corrupt, where):
        comp = deserialize_comp(ewc_path.read_text())
        corrupt(comp, where)
        assert comp.validate() == []
        ewc_path.write_text(serialize(comp))
        before = g_path.read_bytes(), ewc_path.read_bytes()
        code, _, err = run(
            capsys, "update", "--graph", str(g_path), "--index",
            str(ewc_path), "--insert", "v4:u6",
        )
        assert code == 4 and "compressed index does not match graph" in err
        assert (g_path.read_bytes(), ewc_path.read_bytes()) == before

    @pytest.mark.parametrize("corrupt, where", [
        (split_off_one, 4),  # node 4 is the whole of class 4
        (raise_level, 6),
        (leave_out, 5),
        # level-3 nodes 4 and 5 lie in different 3-wings
        (merge_nodes, (4, 5)),
        (move_super_edge, ((3, 6), (2, 6))),
    ], ids=["part-of-a-class", "wrong-level", "class-left-out",
            "two-wings-merged", "super-edge-moved"])
    def test_plain_file_of_another_graph_is_internal_error(
            self, capsys, g_path, ew_path, corrupt, where):
        index = deserialize(ew_path.read_text())
        corrupt(index, where)
        assert index.validate() == []
        ew_path.write_text(serialize(index))
        before = g_path.read_bytes(), ew_path.read_bytes()
        code, _, err = run(
            capsys, "update", "--graph", str(g_path), "--index",
            str(ew_path), "--insert", "v1:u7",
        )
        assert code == 4 and "error: index does not match graph" in err
        assert (g_path.read_bytes(), ew_path.read_bytes()) == before

    def test_comp_file_that_updates_wrote_passes(self, capsys, tmp_path,
                                                g_path, ewc_path):
        """A comp file that `update` wrote keeps surgery's node ids, not a
        fresh build's, and the next `update` still accepts it."""
        fresh = tmp_path / "fresh.ewc"
        for flag, edge in [("--insert", "v4:u6"), ("--delete", "v6:u4"),
                           ("--insert", "v1:u3")]:
            code, _, err = run(
                capsys, "update", "--graph", str(g_path), "--index",
                str(ewc_path), flag, edge,
            )
            assert code == 0, err
            code, _, _ = run(capsys, "build", "--graph", str(g_path),
                             "--out", str(fresh), "--comp")
            assert code == 0
            assert ewc_path.read_text() != fresh.read_text()

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

    @pytest.mark.parametrize(
        "edge",
        ["#x:u1", "%x:u1", "a b:u1", "v1:u\t1", os.fsdecode(b"\xff:u1")],
        ids=["comment", "percent", "space", "tab", "not-utf8"],
    )
    def test_label_the_graph_file_cannot_hold(self, capsys, g_path, ew_path,
                                             edge):
        before = g_path.read_bytes(), ew_path.read_bytes()
        code, _, err = run(
            capsys, "update", "--graph", str(g_path), "--index",
            str(ew_path), "--insert", edge,
        )
        assert code == 3 and "vertex label" in err
        assert (g_path.read_bytes(), ew_path.read_bytes()) == before


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

    @pytest.mark.parametrize("block", ["5:5", "a:b:c"])
    def test_block_that_does_not_parse(self, capsys, tmp_path, block):
        """Two fields, and three that are not numbers: both exit 3 through
        `cmd_gen`'s parse branch, before anything is written."""
        out = tmp_path / "x.tsv"
        code, _, err = run(
            capsys, "gen", "--nu", "5", "--nv", "5", "--p", "0.5",
            "--block", block, "--out", str(out),
        )
        assert code == 3 and "ROWS:COLS:PROB" in err
        assert not out.exists()

    @pytest.mark.parametrize("block", ["5:5:0.9", "3:4:0.9", "-1:2:0.9"])
    def test_block_larger_than_its_side(self, capsys, tmp_path, block):
        out = tmp_path / "x.tsv"
        code, _, err = run(
            capsys, "gen", "--nu", "3", "--nv", "3", "--p", "0.5",
            f"--block={block}", "--out", str(out),
        )
        assert code == 3 and "does not fit" in err
        assert not out.exists()

    @pytest.mark.parametrize("arg", [
        "--nu=-3", "--nv=-1", "--p=1.5", "--p=-0.1", "--p=nan",
        "--block=2:2:-1", "--block=2:2:nan",
    ])
    def test_out_of_range_arguments(self, capsys, tmp_path, arg):
        out = tmp_path / "x.tsv"
        code, _, err = run(
            capsys, "gen", "--nu", "3", "--nv", "3", "--p", "0.5", arg,
            "--out", str(out),
        )
        assert code == 3 and ("negative" in err or "[0, 1]" in err)
        assert not out.exists()


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

    def test_query_cost_lines(self, capsys, ew_path, ewc_path):
        code, out, _ = run(capsys, "stats", "--index", str(ew_path))
        assert code == 0
        cost = [line for line in out.splitlines()
                if line.startswith("# ") and "time" not in line]
        assert cost == [
            "# largest_class 6 level 4 members 9",
            "# members p50 2 p90 9 max 9",
            "# biggest_wing level 1 edges 25",
            "# biggest_wing level 2 edges 22",
            "# biggest_wing level 3 edges 11",
            "# biggest_wing level 4 edges 9",
        ]
        code, out, _ = run(capsys, "stats", "--index", str(ewc_path))
        assert "# members p50 3 p90 9 max 9" in out.splitlines()

    @pytest.mark.parametrize("comp", [False, True])
    def test_biggest_wing_is_the_largest_answer(self, capsys, tmp_path, comp):
        from wingsearch import compress, query_equiwing

        g = BipartiteGraph()
        for u, v in generate_bipartite(24, 24, 0.1, 4,
                                       [(7, 7, 0.9), (5, 5, 0.9)]):
            g.insert_edge(u, v)
        index = build_equiwing(g, wing_decomposition(g))
        if comp:
            index = compress(index)
        path = tmp_path / "g.ew"
        path.write_text(serialize(index))
        code, out, _ = run(capsys, "stats", "--index", str(path))
        assert code == 0
        got = {int(line.split()[3]): int(line.split()[5])
               for line in out.splitlines()
               if line.startswith("# biggest_wing")}
        labels = sorted(g.adj_u) + sorted(g.adj_v)
        assert got == {
            level: max(len(w) for q in labels
                       for w in query_equiwing(index, q, level))
            for level in index.level_histogram()
        }


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

    def test_more_buckets_than_vertices(self, fig2_graph):
        """Asked for more buckets than there are vertices, the degree order
        is cut into one bucket per vertex, none empty."""
        labels = [*fig2_graph.adj_u, *fig2_graph.adj_v]
        buckets = degree_buckets(fig2_graph, len(labels) + 5)
        assert [len(b) for b in buckets] == [1] * len(labels)
        assert sorted(b[0] for b in buckets) == sorted(labels)

    @pytest.mark.parametrize("flag", ["--buckets", "--per-bucket"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_counts_below_one_rejected(self, capsys, fig2_path, flag, value):
        code, out, err = run(
            capsys, "bench", "--graph", str(fig2_path), "-k", "1",
            f"{flag}={value}",
        )
        assert code == 3 and "at least one" in err
        assert "# decompose time" not in out

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_rejected(self, capsys, fig2_path, k):
        code, out, err = run(
            capsys, "bench", "--graph", str(fig2_path), f"-k={k}",
            "--per-bucket", "2",
        )
        assert code == 3 and "k must be >= 1" in err
        assert "# decompose time" not in out


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

    @pytest.mark.parametrize("command", ["decompose", "build", "update",
                                         "query"])
    def test_non_utf8_graph(self, capsys, tmp_path, ew_path, command):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"v1\tu1\n\xff\xfe\tu2\n")
        argv = {
            "decompose": ["decompose", "--graph", str(bad)],
            "build": ["build", "--graph", str(bad),
                      "--out", str(tmp_path / "x.ew")],
            "update": ["update", "--graph", str(bad), "--index", str(ew_path),
                       "--insert", "v1:u2"],
            "query": ["query", "--index", str(ew_path), "--graph", str(bad),
                      "-q", "v5", "-k", "3"],
        }[command]
        code, out, err = run(capsys, *argv)
        assert code == 2 and "utf-8" in err and payload(out) == ""

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

    def test_out_is_a_directory(self, capsys, tmp_path, fig2_path):
        """The write fails at the final rename: exit 2, and the temporary
        file it wrote first is gone."""
        out = tmp_path / "taken"
        out.mkdir()
        code, _, err = run(capsys, "build", "--graph", str(fig2_path),
                           "--out", str(out))
        assert code == 2 and str(out) in err
        assert out.is_dir() and not any(out.iterdir())
        assert not list(tmp_path.glob(".tmp-*~"))

    def test_missing_index(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "query", "--index", str(tmp_path / "no.ew"),
            "-q", "v5", "-k", "3",
        )
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (["query", "--index", "x.ew", "-q", "v5", "-k", "abc"],
         "invalid int value"),
        (["query", "--index", "x.ew", "-q", "v5"], "-k"),
        (["frobnicate"], "invalid choice"),
    ])
    def test_malformed_flags_are_bad_requests(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 3 and message in err and out == ""

    def test_help_succeeds(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0 and "usage:" in out


class TestParserReuse:
    def test_built_once_across_calls(self, capsys, monkeypatch, ew_path):
        """One parser serves every call, and help and a bad subcommand
        keep their exit codes on it."""
        from wingsearch import cli

        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda: built.append(1) or real())
        cli._parser.cache_clear()
        try:
            for argv, want in [
                (["--help"], 0), (["frobnicate"], 3),
                (["stats", "--index", str(ew_path)], 0),
                (["query", "--index", str(ew_path), "-q", "v5", "-k", "3"], 0),
                (["frobnicate"], 3), (["stats", "--help"], 0),
                (["stats", "--index", str(ew_path)], 0),
            ]:
                assert run(capsys, *argv)[0] == want, argv
        finally:
            cli._parser.cache_clear()
        assert built == [1]


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

import os
import stat

import pytest

import oracles
from wingsearch import BipartiteGraph, wing_decomposition
from wingsearch.errors import GraphFormatError, UnknownEdgeError
from wingsearch.graph import (
    atomic_write_text,
    load_edge_list,
    save_edge_list,
)

from conftest import FIG2_EDGES, bloom_triples, build, random_bipartite_edges


class TestLoading:
    def test_fig2_counts(self, fig2_graph):
        assert fig2_graph.num_edges == 25
        assert fig2_graph.num_u == 8
        assert fig2_graph.num_v == 7

    def test_comments_blank_lines_duplicates(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text(
            "% a comment\n"
            "# another comment\n"
            "\n"
            "x1 y1\n"
            "x1\ty2\n"
            "x1 y1\n"
        )
        g, dups = load_edge_list(p)
        assert g.num_edges == 2
        assert dups == 1
        assert g.has_edge("x1", "y2")

    def test_malformed_line_reports_position(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("x1 y1\nx2 y2 y3\n")
        with pytest.raises(GraphFormatError) as err:
            load_edge_list(p)
        assert "line 2" in str(err.value)

    def test_non_utf8_file_is_a_format_error(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_bytes(b"a1\tb1\n\xff\xfe\tb2\n")
        with pytest.raises(GraphFormatError, match="utf-8"):
            load_edge_list(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphFormatError):
            load_edge_list(tmp_path / "nope.tsv")

    def test_save_load_round_trip(self, fig2_graph, tmp_path):
        p = tmp_path / "copy.tsv"
        save_edge_list(fig2_graph, p)
        g2, dups = load_edge_list(p)
        assert dups == 0
        assert set(g2.edges()) == set(fig2_graph.edges())


class TestMutation:
    def test_insert_is_idempotent(self):
        g = BipartiteGraph()
        assert g.insert_edge("x", "y") is True
        assert g.insert_edge("x", "y") is False
        assert g.num_edges == 1

    def test_delete_removes_and_prunes(self):
        g = BipartiteGraph()
        g.insert_edge("x", "y")
        g.delete_edge("x", "y")
        assert g.num_edges == 0
        assert not g.has_vertex("x")
        assert not g.has_vertex("y")

    def test_delete_missing_raises(self):
        g = BipartiteGraph()
        g.insert_edge("x", "y")
        with pytest.raises(UnknownEdgeError):
            g.delete_edge("x", "z")


class TestButterflies:
    def test_supports_on_fig2(self, fig2_graph, fig2_edges):
        support = wing_decomposition(fig2_graph).support
        for e, n in [(("v2", "u2"), 3), (("v1", "u1"), 1), (("v6", "u4"), 2)]:
            assert support[e] == oracles.support_of(e, fig2_edges) == n

    def test_butterflies_containing_edge(self, fig2_graph, fig2_edges):
        got = trios(fig2_graph.butterfly_others("v7", "u6", {}))
        assert got == oracle_trios(("v7", "u6"), fig2_edges)
        assert len(got) == 5
        for trio in got:
            assert len({("v7", "u6"), *trio}) == 4

    def test_all_butterflies_matches_oracle(self, fig2_graph, fig2_edges):
        got = list(fig2_graph.all_butterflies())
        assert len(got) == len(set(got))
        assert set(got) == set(oracles.enumerate_butterflies(fig2_edges))

    def test_canonical_across_anchors(self, fig2_graph):
        """A butterfly met through either of two of its edges is the one
        canonical tuple that `all_butterflies` yields."""
        every = set(fig2_graph.all_butterflies())
        for u1, u2, v1, v2 in every:
            assert u1 < u2 and v1 < v2
        via = []
        for u, v in [("v5", "u5"), ("v6", "u5")]:
            others = fig2_graph.butterfly_others(u, v, {})
            via.append({
                (min(u, u2), max(u, u2), min(v, v2), max(v, v2))
                for (_u, v2), (u2, _v) in zip(others[::3], others[1::3])})
            assert via[-1] <= every
        assert via[0] & via[1]  # both edges sit in common butterflies

    def test_support_sum_is_four_times_butterflies(self, rng):
        for _ in range(10):
            edges = random_bipartite_edges(rng, 8, 8, 0.4)
            g = BipartiteGraph()
            for u, v in edges:
                g.insert_edge(u, v)
            total = sum(wing_decomposition(g).support.values())
            assert total == 4 * len(oracles.enumerate_butterflies(edges))

    def test_blooms_fold_the_butterflies(self, rng):
        """Each bloom is a U pair u1 < u2 with its (at least two) common
        neighbours; its butterflies are the pairs of those neighbours."""
        for edges in [FIG2_EDGES] + [
            random_bipartite_edges(rng, 8, 8, 0.45) for _ in range(10)
        ]:
            g = BipartiteGraph()
            for u, v in edges:
                g.insert_edge(u, v)
            blooms = bloom_triples(g)
            pairs = [(u1, u2) for u1, u2, _common in blooms]
            assert len(pairs) == len(set(pairs))
            unfolded = set()
            for u1, u2, common in blooms:
                assert u1 < u2 and len(common) == len(set(common)) >= 2
                assert set(common) == g.adj_u[u1] & g.adj_u[u2]
                c = sorted(common)
                unfolded |= {
                    (u1, u2, c[i], c[j])
                    for i in range(len(c))
                    for j in range(i + 1, len(c))
                }
            assert unfolded == set(oracles.enumerate_butterflies(edges))

    def test_absent_edge_yields_the_butterflies_it_would_close(self, rng):
        """a7, a8, b7 and b8 are new vertices: 9 x 9 pairs over a 7 x 7
        graph include edges with one or both endpoints new."""
        for _ in range(10):
            edges = random_bipartite_edges(rng, 7, 7, 0.45)
            g = build(edges)
            for u in (f"a{i}" for i in range(9)):
                for v in (f"b{j}" for j in range(9)):
                    if not g.has_edge(u, v):
                        got = trios(g.butterfly_others(u, v, {}))
                        assert got == oracle_trios((u, v), edges)
            assert g.sorted_edges() == sorted(edges)

    def test_butterfly_others_flattens_butterflies_of_edge(self, rng):
        """The other three edges of each butterfly through (u, v), as the
        oracle finds them, one object per edge across calls; for present
        and absent edges alike."""
        for _ in range(10):
            edges = random_bipartite_edges(rng, 7, 7, 0.45)
            g = build(edges)
            intern = {}
            for u in (f"a{i}" for i in range(8)):
                for v in (f"b{j}" for j in range(8)):
                    got = g.butterfly_others(u, v, intern)
                    assert trios(got) == oracle_trios((u, v), edges)
                    assert all(intern[f] is f for f in got)


def trios(others):
    """A `butterfly_others` list cut into its trios (u, v2), (u2, v),
    (u2, v2), sorted."""
    return sorted(zip(others[::3], others[1::3], others[2::3]))


def oracle_trios(edge, edges):
    """The same trios from the oracle's butterflies through `edge` in the
    graph on `edges`, with `edge` added if it is absent."""
    u, v = edge
    out = []
    for u1, u2, v1, v2 in oracles.butterflies_through(edge, edges + [edge]):
        u2 = u2 if u1 == u else u1
        v2 = v2 if v1 == v else v1
        out.append(((u, v2), (u2, v), (u2, v2)))
    return sorted(out)


def test_atomic_write_replaces_and_cleans_up(tmp_path):
    p = tmp_path / "out.txt"
    p.write_text("old")
    atomic_write_text(p, "new contents\n")
    assert p.read_text() == "new contents\n"
    leftovers = [f for f in os.listdir(tmp_path) if f != "out.txt"]
    assert leftovers == []


def _mode(path):
    return stat.S_IMODE(os.stat(path).st_mode)


@pytest.mark.parametrize("umask", [0o022, 0o002], ids=oct)
def test_atomic_write_new_file_follows_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "new.txt", "x\n")
    finally:
        os.umask(old)
    assert _mode(tmp_path / "new.txt") == 0o666 & ~umask


@pytest.mark.parametrize("mode", [0o644, 0o664, 0o640], ids=oct)
def test_atomic_write_keeps_the_mode_of_a_replaced_file(tmp_path, mode):
    p = tmp_path / "out.txt"
    p.write_text("old")
    os.chmod(p, mode)
    old = os.umask(0o022)
    try:
        atomic_write_text(p, "new\n")
    finally:
        os.umask(old)
    assert p.read_text() == "new\n" and _mode(p) == mode

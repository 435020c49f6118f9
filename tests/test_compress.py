import pytest

from wingsearch import (
    BipartiteGraph,
    baseline_search,
    build_equiwing,
    compress,
    deserialize,
    deserialize_comp,
    is_forest,
    query_comp,
    query_equiwing,
    serialize_comp,
    wing_decomposition,
)
from wingsearch.errors import IndexFormatError

from conftest import FIG2_CLASSES, random_bipartite_edges


def build(edges):
    g = BipartiteGraph()
    for u, v in edges:
        g.insert_edge(u, v)
    return g


def member_map(index):
    return {frozenset(n.members): n.level for n in index.nodes.values()}


# a small graph whose compressed index is a tree: one plain butterfly
# hanging off a 2x3 block, so each level keeps a single super node
FOREST_EDGES = [
    ("a1", "b1"), ("a1", "b2"), ("a2", "b1"),
    ("a2", "b2"), ("a2", "b3"), ("a2", "b4"),
    ("a3", "b2"), ("a3", "b3"), ("a3", "b4"),
]


class TestFig2Compression:
    def test_shape(self, fig2_graph):
        index = build_equiwing(fig2_graph)
        comp = compress(index)
        assert len(comp.nodes) == 5
        assert len(comp.super_edge_set) == 5
        assert comp.k_max == 4

    def test_merged_node_and_log(self, fig2_graph):
        index = build_equiwing(fig2_graph)
        comp = compress(index)
        assert comp.merge_log == [(3, 2)]
        merged = comp.nodes[2]
        assert merged.level == 2
        assert merged.members == set(FIG2_CLASSES[2]) | set(FIG2_CLASSES[3])
        # the other four survive untouched
        for sid in (1, 4, 5, 6):
            assert comp.nodes[sid].members == set(FIG2_CLASSES[sid])

    def test_super_edges_remap_onto_kept_ids(self, fig2_graph):
        comp = compress(build_equiwing(fig2_graph))
        assert comp.super_edge_set == {
            (1, 2), (2, 4), (2, 5), (2, 6), (5, 6)
        }

    def test_ratio(self, fig2_graph):
        index = build_equiwing(fig2_graph)
        comp = compress(index)
        assert comp.compression_ratio() == pytest.approx(1.2)

    def test_validates(self, fig2_graph):
        comp = compress(build_equiwing(fig2_graph))
        assert comp.validate() == []


class TestCompressionProperties:
    def test_incompressible_graph_keeps_ratio_one(self):
        comp = compress(build_equiwing(build(FOREST_EDGES)))
        assert comp.compression_ratio() == pytest.approx(1.0)
        assert comp.merge_log == []

    def test_members_partition_is_preserved(self, rng):
        for _ in range(12):
            edges = random_bipartite_edges(rng, 9, 9, rng.uniform(0.25, 0.5))
            index = build_equiwing(build(edges))
            comp = compress(index)
            flat = lambda ix: {e for n in ix.nodes.values() for e in n.members}
            assert flat(comp) == flat(index)
            assert len(comp.nodes) <= len(index.nodes)
            # every compressed node is a union of whole uncompressed classes
            originals = member_map(index)
            for node in comp.nodes.values():
                pool = set(node.members)
                while pool:
                    grp = next(
                        m
                        for m in originals
                        if m <= pool and originals[m] == node.level
                    )
                    pool -= grp

    def test_recompressing_unchanged_index_is_stable(self, fig2_graph):
        index = build_equiwing(fig2_graph)
        full = compress(index)
        for levels in (None, set(range(1, index.k_max + 1)), {1}, {2, 3}):
            again = compress(index, levels=levels, base=full)
            assert member_map(again) == member_map(full)
            assert sorted(again.merge_log) == sorted(full.merge_log)


class TestForestShape:
    def test_fig2_has_cycles_before_and_after(self, fig2_graph):
        index = build_equiwing(fig2_graph)
        assert is_forest(index) is False
        assert is_forest(compress(index)) is False

    def test_chain_is_a_forest(self):
        index = build_equiwing(build(FOREST_EDGES))
        assert is_forest(index) is True
        assert is_forest(compress(index)) is True


class TestQueries:
    def test_fig2_everywhere(self, fig2_graph):
        index = build_equiwing(fig2_graph)
        comp = compress(index)
        labels = {x for e in fig2_graph.sorted_edges() for x in e}
        for q in sorted(labels):
            for k in range(1, 6):
                want = query_equiwing(index, q, k)
                assert query_comp(comp, q, k) == want, (q, k)

    def test_random_graphs_match_baseline(self, rng):
        for _ in range(12):
            edges = random_bipartite_edges(rng, 9, 9, rng.uniform(0.2, 0.5))
            g = build(edges)
            d = wing_decomposition(g)
            comp = compress(build_equiwing(g, d))
            labels = sorted({x for e in edges for x in e})
            for q in labels:
                for k in range(1, d.k_max + 2):
                    assert query_comp(comp, q, k) == baseline_search(
                        g, d, q, k
                    ), (q, k)


class TestSerialization:
    def test_round_trip_byte_identical(self, fig2_graph):
        comp = compress(build_equiwing(fig2_graph))
        text = serialize_comp(comp)
        again = deserialize_comp(text)
        assert serialize_comp(again) == text
        assert again.merge_log == comp.merge_log
        assert member_map(again) == member_map(comp)

    def test_random_round_trips(self, rng):
        for _ in range(8):
            edges = random_bipartite_edges(rng, 8, 8, 0.4)
            comp = compress(build_equiwing(build(edges)))
            assert serialize_comp(deserialize_comp(serialize_comp(comp))) == \
                serialize_comp(comp)

    def test_format_headers_are_not_interchangeable(self, fig2_graph):
        index = build_equiwing(fig2_graph)
        comp = compress(index)
        with pytest.raises(IndexFormatError):
            deserialize_comp("EQUIWING v1\n")
        with pytest.raises(IndexFormatError):
            deserialize(serialize_comp(comp))

    def test_tampering_detected(self, fig2_graph):
        comp = compress(build_equiwing(fig2_graph))
        text = serialize_comp(comp)
        with pytest.raises(IndexFormatError, match="checksum"):
            deserialize_comp(text.replace("m v2 u3", "m v2 u4", 1))
        with pytest.raises(IndexFormatError):
            deserialize_comp("".join(text.splitlines(True)[:4]))

import pytest

from wingsearch import (
    EquiWingIndex,
    SuperNode,
    baseline_search,
    build_equiwing,
    compress,
    deserialize,
    deserialize_comp,
    generate_bipartite,
    is_forest,
    query_comp,
    query_equiwing,
    serialize_comp,
    wing_decomposition,
)
from wingsearch.errors import IndexFormatError

from conftest import (
    FIG2_CLASSES,
    build,
    levelled_members,
    random_bipartite_edges,
)
from oracles import compressed_groups_oracle


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

    def test_empty_index_keeps_ratio_one(self):
        assert EquiWingIndex().compression_ratio() == 1.0
        comp = compress(build_equiwing(build([])))
        assert not comp.nodes and comp.compression_ratio() == 1.0

    def test_members_partition_is_preserved(self, rng):
        for _ in range(12):
            edges = random_bipartite_edges(rng, 9, 9, rng.uniform(0.25, 0.5))
            index = build_equiwing(build(edges))
            comp = compress(index)
            flat = lambda ix: {e for n in ix.nodes.values() for e in n.members}
            assert flat(comp) == flat(index)
            assert len(comp.nodes) <= len(index.nodes)
            # every compressed node is a union of whole uncompressed classes
            originals = levelled_members(index)
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
        again = compress(index)
        assert levelled_members(again) == levelled_members(full)
        assert sorted(again.merge_log) == sorted(full.merge_log)


def hand_index(levels, super_edges):
    """A super graph given by node levels and super edges, each node
    holding one edge of its own."""
    index = EquiWingIndex()
    for sid, level in levels.items():
        index.add_node(SuperNode(sid, level, [(f"u{sid}", f"v{sid}")]))
    index.super_edge_set = {(min(a, b), max(a, b)) for a, b in super_edges}
    return index


def checked_groups(index):
    """compress(index)'s merge groups, after checking them against the
    definitional oracle and checking each merged node's id, level and
    members."""
    comp = compress(index)
    groups = {kept: {kept} for kept in comp.nodes}
    for old, kept in comp.merge_log:
        groups[kept].add(old)
    groups = {frozenset(g) for g in groups.values()}
    levels = {sid: n.level for sid, n in index.nodes.items()}
    assert groups == compressed_groups_oracle(levels, index.super_edge_set)
    for group in groups:
        node = comp.nodes[min(group)]
        assert node.level == levels[min(group)]
        assert node.members == frozenset().union(
            *(index.nodes[s].members for s in group)
        )
    return groups


class TestAgainstOracle:
    def test_joined_through_a_higher_level_node_merge(self):
        index = hand_index({1: 2, 2: 2, 3: 5}, [(1, 3), (2, 3)])
        assert checked_groups(index) == {frozenset({1, 2}), frozenset({3})}

    def test_joined_through_a_lower_level_node_stay_apart(self):
        index = hand_index({1: 2, 2: 2, 3: 1}, [(1, 3), (2, 3)])
        assert checked_groups(index) == {
            frozenset({1}), frozenset({2}), frozenset({3})
        }

    def test_both_traps_on_several_levels(self):
        # 1 and 3 meet through 2 above them; 5 reaches them only through 4
        # below; 4 and 7 meet through 8; 2 and 8 meet through 9
        levels = {1: 3, 2: 4, 3: 3, 4: 2, 5: 3, 6: 1, 7: 2, 8: 4, 9: 5}
        edges = [(1, 2), (2, 3), (3, 4), (4, 5), (4, 8), (8, 7), (8, 9),
                 (2, 9), (6, 5), (6, 7)]
        assert checked_groups(hand_index(levels, edges)) == {
            frozenset(g) for g in ({1, 3}, {2, 8}, {9}, {4, 7}, {5}, {6})
        }

    def test_planted_block_graphs(self):
        merged = 0
        for seed in range(100):
            edges = generate_bipartite(
                16, 16, 0.12, seed, [(6, 6, 0.9), (5, 5, 0.8)]
            )
            groups = checked_groups(build_equiwing(build(edges)))
            merged += any(len(g) > 1 for g in groups)
        assert merged >= 80


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
        assert levelled_members(again) == levelled_members(comp)

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

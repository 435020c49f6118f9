import pytest

import oracles
from wingsearch import (
    BipartiteGraph,
    baseline_search,
    generate_bipartite,
    wing_decomposition,
)
from wingsearch.errors import UnknownVertexError

from conftest import FIG2_CLASSES, random_bipartite_edges


def engine(edges):
    g = BipartiteGraph()
    for u, v in edges:
        g.insert_edge(u, v)
    d = wing_decomposition(g)
    return lambda q, k: baseline_search(g, d, q, k)


class TestFig2Fixtures:
    def test_v5_k3_two_wings(self, fig2_graph):
        d = wing_decomposition(fig2_graph)
        wings = baseline_search(fig2_graph, d, "v5", 3)
        assert [len(w) for w in wings] == [8, 11]
        assert set(wings[0]) == FIG2_CLASSES[4]
        assert set(wings[1]) == FIG2_CLASSES[5] | FIG2_CLASSES[6]

    def test_v6_k2_single_wing_is_whole_2_level(self, fig2_graph):
        d = wing_decomposition(fig2_graph)
        wings = baseline_search(fig2_graph, d, "v6", 2)
        assert len(wings) == 1
        assert len(wings[0]) == 22
        assert set(wings[0]) == {e for e, w in d.wing_number.items() if w >= 2}

    def test_edge_cases(self, fig2_graph):
        d = wing_decomposition(fig2_graph)
        assert baseline_search(fig2_graph, d, "v1", 5) == []
        wings = baseline_search(fig2_graph, d, "v7", 4)
        assert [len(w) for w in wings] == [9]
        wings = baseline_search(fig2_graph, d, "v2", 1)
        assert [len(w) for w in wings] == [25]

    def test_k_below_one_skips_edges_in_no_butterfly(self):
        g = BipartiteGraph()
        g.insert_edge("a1", "b1")
        d = wing_decomposition(g)
        for k in (-1, 0, 1):
            assert baseline_search(g, d, "a1", k) == []

    def test_unknown_vertex(self, fig2_graph):
        d = wing_decomposition(fig2_graph)
        with pytest.raises(UnknownVertexError):
            baseline_search(fig2_graph, d, "nope", 2)

    def test_u_side_query(self, fig2_graph):
        d = wing_decomposition(fig2_graph)
        wings = baseline_search(fig2_graph, d, "u7", 4)
        assert [len(w) for w in wings] == [9]


def test_output_is_canonically_ordered(fig2_graph):
    d = wing_decomposition(fig2_graph)
    wings = baseline_search(fig2_graph, d, "v5", 3)
    assert wings == sorted(wings, key=lambda w: w[0])
    for w in wings:
        assert w == sorted(w)


def test_matches_oracle_on_random_graphs(rng):
    for _ in range(20):
        edges = random_bipartite_edges(rng, 9, 9, rng.uniform(0.2, 0.5))
        search = engine(edges)
        labels = sorted({x for e in edges for x in e})
        kmax = max(oracles.wing_numbers_oracle(edges).values(), default=0)
        for k in range(0, kmax + 2):
            by_oracle = oracles.wings_oracle(edges, k)
            for q in labels:
                expect = sorted(
                    (sorted(w) for w in by_oracle if any(q in e for e in w)),
                    key=lambda w: w[0],
                )
                assert search(q, k) == expect, (q, k)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_matches_oracle_on_planted_blocks(seed):
    """Two dense blocks that share only a0, in a sparse random graph: a
    vertex shares many neighbours with some partners and none with others,
    and a0 lies in several k-wings at once."""
    blocks = {(f"a{i}", f"b{j}") for i in range(5) for j in range(5)}
    blocks |= {(f"a{i}", f"b{j}") for i in (0, 5, 6, 7, 8) for j in range(5, 10)}
    edges = sorted(blocks | set(generate_bipartite(24, 24, 0.06, seed)))
    search = engine(edges)
    labels = sorted({x for e in edges for x in e})
    kmax = max(oracles.wing_numbers_oracle(edges).values(), default=0)
    several = 0
    for k in range(0, kmax + 2):
        by_oracle = oracles.wings_oracle(edges, k)
        for q in labels:
            expect = sorted(
                (sorted(w) for w in by_oracle if any(q in e for e in w)),
                key=lambda w: w[0],
            )
            assert search(q, k) == expect, (q, k)
            several += len(expect) > 1
    assert several > 0

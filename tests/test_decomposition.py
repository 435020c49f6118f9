import hashlib
import os
import subprocess
import sys

import pytest

import oracles
from wingsearch import BipartiteGraph, wing_decomposition
from wingsearch.generate import generate_bipartite

from conftest import (
    FIG2_PSI,
    blocks_sharing_a_vertex,
    build,
    random_bipartite_edges,
)


def test_fig2_wing_numbers_exact(fig2_graph):
    decomp = wing_decomposition(fig2_graph)
    assert decomp.wing_number == FIG2_PSI
    assert decomp.k_max == 4


def test_fig2_support_field_is_initial_support(fig2_graph, fig2_edges):
    decomp = wing_decomposition(fig2_graph)
    for e in fig2_graph.edges():
        assert decomp.support[e] == oracles.support_of(e, fig2_edges)


def test_single_butterfly_all_one():
    g = build([("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2")])
    decomp = wing_decomposition(g)
    assert set(decomp.wing_number.values()) == {1}


def test_star_and_path_are_zero():
    star = build([("hub", f"b{i}") for i in range(5)])
    assert set(wing_decomposition(star).wing_number.values()) == {0}
    path = build([("a1", "b1"), ("a2", "b1"), ("a2", "b2"), ("a3", "b2")])
    assert set(wing_decomposition(path).wing_number.values()) == {0}


def test_empty_graph():
    decomp = wing_decomposition(BipartiteGraph())
    assert decomp.wing_number == {}
    assert decomp.k_max == 0


def test_matches_oracle_on_random_graphs(rng):
    for _ in range(25):
        edges = random_bipartite_edges(rng, 12, 12, rng.uniform(0.15, 0.45))
        edges = edges[:60]
        decomp = wing_decomposition(build(edges))
        assert decomp.wing_number == oracles.wing_numbers_oracle(edges)


def test_wing_number_at_most_support(rng):
    for _ in range(10):
        edges = random_bipartite_edges(rng, 10, 10, 0.4)
        g = build(edges)
        decomp = wing_decomposition(g)
        for e in g.edges():
            assert decomp.wing_number[e] <= decomp.support[e]


def test_levels_nest(fig2_graph):
    decomp = wing_decomposition(fig2_graph)
    wn = decomp.wing_number
    for k in range(1, decomp.k_max + 1):
        assert ({e for e, w in wn.items() if w >= k + 1}
                <= {e for e, w in wn.items() if w >= k})


def test_insertion_order_does_not_matter(rng, fig2_edges):
    decomp_a = wing_decomposition(build(fig2_edges))
    shuffled = list(fig2_edges)
    rng.shuffle(shuffled)
    decomp_b = wing_decomposition(build(shuffled))
    assert decomp_a.wing_number == decomp_b.wing_number


def test_keys_follow_sorted_edges_and_are_shared(rng):
    for _ in range(5):
        g = build(random_bipartite_edges(rng, 10, 10, 0.4))
        d = wing_decomposition(g)
        assert list(d.wing_number) == g.sorted_edges()
        # each edge is one tuple object in both dicts: the index's classes
        # take their members from these keys, and tuples created together
        # in sorted order keep the query's merge of member runs cache-local
        assert all(a is b for a, b in zip(d.wing_number, d.support))


class TestWideBlooms:
    """Graphs whose blooms hold many wedges, where one removal lowers the
    twin edge of each bloom by several butterflies at once."""

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 7), (5, 3), (6, 6), (9, 4)])
    def test_complete_block(self, m, n):
        g = build([(f"a{i}", f"b{j}") for i in range(m) for j in range(n)])
        d = wing_decomposition(g)
        assert set(d.wing_number.values()) == {(m - 1) * (n - 1)}
        assert set(d.support.values()) == {(m - 1) * (n - 1)}

    def test_blocks_sharing_a_vertex_match_oracle(self):
        for seed in range(12):
            edges = blocks_sharing_a_vertex(seed)
            d = wing_decomposition(build(edges))
            assert d.wing_number == oracles.wing_numbers_oracle(edges), seed

    def test_twin_drop_clamps_at_the_current_level(self):
        # K_{4,4} less (a1,b1), (a2,b3) and (a3,b2): every edge has wing
        # number 3. The peel removes (a1,b2) at level 3 from the bloom
        # {a0,a1} x {b0,b2,b3}; its twin (a0,b2) has 4 butterflies left and
        # loses 2 at once, so only the clamp keeps it at 3
        missing = {(1, 1), (2, 3), (3, 2)}
        edges = [(f"a{i}", f"b{j}") for i in range(4) for j in range(4)
                 if (i, j) not in missing]
        d = wing_decomposition(build(edges))
        assert d.support[("a0", "b2")] == 4
        assert d.wing_number == oracles.wing_numbers_oracle(edges)
        assert set(d.wing_number.values()) == {3}

    @pytest.mark.parametrize("args,n_edges,digest", [
        ((200, 200, 0.035, 91, [(12, 12, 0.9)] * 2), 1702,
         "f5ac0b515268acf5a939e6be4d92cd4b6247173a799ba0f73b4b862537aaf622"),
        ((400, 400, 0.035, 91, [(20, 20, 0.9)] * 2), 6394,
         "670b26ede42b6fd54b96deea977cf9428ed3d94963f3fd63a8f615c49aca09ed"),
    ])
    def test_pinned_digest(self, args, n_edges, digest):
        """sha256 of the sorted (edge, wing number, support) lines, as the
        butterfly-by-butterfly peel computed them."""
        edges = generate_bipartite(*args)
        d = wing_decomposition(build(edges))
        assert len(edges) == n_edges
        h = hashlib.sha256()
        for e in sorted(d.wing_number):
            line = f"{e[0]}\t{e[1]}\t{d.wing_number[e]}\t{d.support[e]}\n"
            h.update(line.encode())
        assert h.hexdigest() == digest


def test_bloom_record_does_not_depend_on_the_hash_seed():
    """The bloom record follows the sorted edge list, not set iteration
    order: two processes with different hash seeds record the same runs."""
    script = (
        "import hashlib\n"
        "from wingsearch import BipartiteGraph, wing_decomposition\n"
        "from wingsearch.generate import generate_bipartite\n"
        "g = BipartiteGraph()\n"
        "for e in generate_bipartite(200, 200, 0.035, 91, [(12, 12, 0.9)] * 2):\n"
        "    g.insert_edge(*e)\n"
        "wedges, ends = wing_decomposition(g).bloom_runs\n"
        "print(hashlib.sha256(wedges.tobytes() + ends.tobytes()).hexdigest())\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    outs = {
        subprocess.run(
            [sys.executable, "-c", script], check=True, capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
        ).stdout
        for seed in ("0", "5")
    }
    assert len(outs) == 1

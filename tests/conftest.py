import hashlib
import os
import random

import pytest

DATA = os.path.join(os.path.dirname(__file__), "data")

# 25-edge running example. U side v1..v8, V side u1..u7.
FIG2_EDGES = [
    ("v1", "u1"), ("v1", "u2"),
    ("v2", "u1"), ("v2", "u2"), ("v2", "u3"), ("v2", "u4"),
    ("v3", "u2"), ("v3", "u3"), ("v3", "u4"),
    ("v4", "u3"), ("v4", "u4"),
    ("v5", "u3"), ("v5", "u4"), ("v5", "u5"), ("v5", "u6"),
    ("v6", "u4"), ("v6", "u5"), ("v6", "u6"), ("v6", "u7"),
    ("v7", "u5"), ("v7", "u6"), ("v7", "u7"),
    ("v8", "u5"), ("v8", "u6"), ("v8", "u7"),
]

# Frozen wing numbers for the running example.
FIG2_PSI = {}
for _e in [("v1", "u1"), ("v1", "u2"), ("v2", "u1")]:
    FIG2_PSI[_e] = 1
for _e in [("v2", "u2"), ("v3", "u2"), ("v6", "u4")]:
    FIG2_PSI[_e] = 2
for _v in ("v2", "v3", "v4", "v5"):
    for _u in ("u3", "u4"):
        FIG2_PSI[(_v, _u)] = 3
for _e in [("v5", "u5"), ("v5", "u6")]:
    FIG2_PSI[_e] = 3
for _v in ("v6", "v7", "v8"):
    for _u in ("u5", "u6", "u7"):
        FIG2_PSI[(_v, _u)] = 4

# Frozen equivalence classes, keyed by their construction order (level
# ascending, then smallest member edge).
FIG2_CLASSES = {
    1: frozenset({("v1", "u1"), ("v1", "u2"), ("v2", "u1")}),
    2: frozenset({("v2", "u2"), ("v3", "u2")}),
    3: frozenset({("v6", "u4")}),
    4: frozenset({(v, u) for v in ("v2", "v3", "v4", "v5") for u in ("u3", "u4")}),
    5: frozenset({("v5", "u5"), ("v5", "u6")}),
    6: frozenset({(v, u) for v in ("v6", "v7", "v8") for u in ("u5", "u6", "u7")}),
}
FIG2_CLASS_LEVELS = {1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 6: 4}
FIG2_SUPER_EDGES = {(1, 2), (2, 4), (3, 4), (3, 5), (3, 6), (5, 6)}


@pytest.fixture
def fig2_edges():
    return list(FIG2_EDGES)


@pytest.fixture
def fig2_path():
    return os.path.join(DATA, "fig2.tsv")


@pytest.fixture
def fig2_graph():
    return build(FIG2_EDGES)


def build(edges):
    """The graph on the edge list `edges`."""
    from wingsearch.graph import BipartiteGraph

    g = BipartiteGraph()
    for u, v in edges:
        g.insert_edge(u, v)
    return g


def bloom_triples(graph):
    """Each bloom of `graph.blooms()` as (u1, u2, common), read back from
    its run of wedge ids a0, b0, a1, b1, ... through the edge list, after
    checking that a_i is (u1, x_i) and b_i is (u2, x_i) for one pair."""
    edges, runs = graph.blooms()
    assert edges == graph.sorted_edges()
    triples = []
    for run in runs:
        assert len(run) % 2 == 0
        wedges = [(edges[a], edges[b]) for a, b in zip(run[::2], run[1::2])]
        (u1, _x), (u2, _x) = wedges[0]
        common = []
        for (ua, xa), (ub, xb) in wedges:
            assert (ua, ub, xa) == (u1, u2, xb)
            common.append(xa)
        triples.append((u1, u2, common))
    return triples


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _compact(decomp, index, comp):
    """The state with node ids left out, small enough to hold at scale,
    every part a sorted list: the wing numbers and supports, and each class
    named by its level, its size, its smallest member and the sha256 of its
    sorted members, with the justification counts and the comp's super
    edges keyed by those names. The comp's classes are its groups. Every
    differential against a fresh rebuild compares this form."""

    def names(ix):
        return {s: (n.level, len(n.members), min(n.members),
                    _sha(repr(sorted(n.members))))
                for s, n in ix.nodes.items()}

    def keyed(named, pairs):
        return sorted((sorted((named[a], named[b])), n) for (a, b), n in pairs)

    plain, groups = names(index), names(comp)
    return {
        "wing_numbers": sorted(decomp.wing_number.items()),
        "supports": sorted(decomp.support.items()),
        "classes": sorted(plain.values()),
        "counts": keyed(plain, index.edge_counts.items()),
        "comp_groups": sorted(groups.values()),
        "comp_super_edges": keyed(groups, ((p, 1) for p in comp.super_edge_set)),
    }


def levelled_members(index):
    """Each class of `index` as its member set, mapped to its level."""
    return {frozenset(n.members): n.level for n in index.nodes.values()}


def random_bipartite_edges(rng, nu, nv, p):
    """Plain seeded G(n,n,p) edge list for small property tests."""
    edges = []
    for i in range(nu):
        for j in range(nv):
            if rng.random() < p:
                edges.append((f"a{i}", f"b{j}"))
    return edges


def small_graph_family(count):
    """Seeded graphs of at most 12+12 vertices and at most 60 edges."""
    for seed in range(count):
        rng = random.Random(20_000 + seed)
        nu = rng.randint(4, 12)
        nv = rng.randint(4, 12)
        p = rng.uniform(0.12, 0.55)
        yield seed, random_bipartite_edges(rng, nu, nv, p)[:60]


def blocks_sharing_a_vertex(seed):
    """Two complete s x s blocks that share one vertex (V side on even
    seeds, U side on odd), over a sparse 12 x 12 random graph. A pair of U
    vertices, one in each block, then meets at the shared vertex at the
    blocks' level and elsewhere only lower: a bloom whose top level holds a
    lone vertex with its two edges in different classes."""
    rng = random.Random(seed)
    edges = set(random_bipartite_edges(rng, 12, 12, rng.uniform(0.1, 0.25)))
    s = rng.randint(3, 4)
    us = rng.sample(range(12), 2 * s)
    vs = rng.sample(range(12), 2 * s - 1)
    blocks = [(us[:s], vs[:s]), (us[s:], vs[s - 1:])]
    if seed % 2:
        blocks = [(vs[:s], us[:s]), (vs[s - 1:], us[s:])]
    for bu, bv in blocks:
        edges |= {(f"a{i}", f"b{j}") for i in bu for j in bv}
    return sorted(edges)


@pytest.fixture
def rng():
    return random.Random(1811)

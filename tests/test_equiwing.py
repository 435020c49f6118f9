import hashlib
import random

import pytest

import oracles
from wingsearch import (
    BipartiteGraph,
    QueryCounters,
    SuperNode,
    apply_update,
    apply_update_comp,
    baseline_search,
    build_equiwing,
    compress,
    deserialize,
    deserialize_comp,
    generate_bipartite,
    query_comp,
    query_equiwing,
    rebuild_edge_counts,
    serialize,
    wing_decomposition,
)
from wingsearch.decomposition import WingDecomposition
from wingsearch.equiwing import EdgeOrder, _component_wings
from wingsearch.errors import IndexFormatError, InternalConsistencyError

from conftest import (
    FIG2_CLASS_LEVELS,
    FIG2_CLASSES,
    FIG2_EDGES,
    FIG2_SUPER_EDGES,
    blocks_sharing_a_vertex,
    bloom_triples,
    build,
    random_bipartite_edges,
    small_graph_family,
)


def built_index(edges):
    g = build(edges)
    d = wing_decomposition(g)
    return g, d, build_equiwing(g, d)


def member_sets(index):
    return {frozenset(n.members) for n in index.nodes.values()}


def super_edge_member_sets(index):
    return {
        frozenset(
            (
                frozenset(index.nodes[a].members),
                frozenset(index.nodes[b].members),
            )
        )
        for a, b in index.super_edge_set
    }


def member_problems_by_loop(index):
    """What `validate` names about nodes and members, by the per-member
    loop it runs only when its sweep fails: the reference for the sweep."""
    problems, seen = [], {}
    for sn_id, node in index.nodes.items():
        if node.sn_id != sn_id:
            problems.append(f"node {sn_id} carries id {node.sn_id}")
        if node.level < 1:
            problems.append(f"node {sn_id} has level {node.level}")
        if not node.members:
            problems.append(f"node {sn_id} is empty")
        for e in node.members:
            if e in seen:
                problems.append(f"edge {e} in nodes {seen[e]} and {sn_id}")
            seen[e] = sn_id
            if index.per_edge_node.get(e) != sn_id:
                problems.append(f"edge map wrong for {e}")
    if len(index.per_edge_node) != len(seen):
        problems.append("edge map has stray entries")
    return problems


def super_edges_oracle(edges):
    """Brute force: classes A (lower level) and D are adjacent iff some
    butterfly holds an edge of each with all four edges at wing number
    >= level(A)."""
    psi = oracles.wing_numbers_oracle(edges)
    classes = oracles.equivalence_classes_oracle(edges)
    of_edge = {}
    for level, groups in classes.items():
        for grp in groups:
            for e in grp:
                of_edge[e] = (level, grp)
    out = set()
    for b in oracles.enumerate_butterflies(edges):
        es = oracles.butterfly_edges(b)
        levels = [psi[e] for e in es]
        m = min(levels)
        if m < 1:
            continue
        a_grp = next(of_edge[e][1] for e, lv in zip(es, levels) if lv == m)
        for e in es:
            grp = of_edge[e][1]
            if grp != a_grp:
                out.add(frozenset((a_grp, grp)))
    return out


class TestFig2Structure:
    def test_exact_nodes(self, fig2_graph):
        index = build_equiwing(fig2_graph)
        assert len(index.nodes) == 6
        assert index.k_max == 4
        for sn_id in range(1, 7):
            node = index.nodes[sn_id]
            assert node.level == FIG2_CLASS_LEVELS[sn_id]
            assert node.members == set(FIG2_CLASSES[sn_id])

    def test_exact_super_edges(self, fig2_graph):
        index = build_equiwing(fig2_graph)
        assert index.super_edge_set == FIG2_SUPER_EDGES

    def test_justification_counts(self, fig2_graph):
        index = build_equiwing(fig2_graph)
        assert index.edge_counts == {
            (1, 2): 1,
            (2, 4): 2,
            (3, 4): 2,
            (3, 5): 2,
            (3, 6): 2,
            (5, 6): 3,
        }

    def test_duplicate_node_id_refused(self, fig2_graph):
        index = build_equiwing(fig2_graph)
        text = serialize(index)
        with pytest.raises(InternalConsistencyError,
                           match="duplicate super node id 3"):
            index.add_node(SuperNode(3, 1, [("v-new", "u-new")]))
        assert serialize(index) == text and index.validate() == []
        assert ("v-new", "u-new") not in index.per_edge_node

    def test_ids_are_level_ascending_then_smallest_member(self, rng):
        for _ in range(10):
            edges = random_bipartite_edges(rng, 9, 9, 0.35)
            _g, _d, index = built_index(edges)
            keys = [
                (n.level, min(n.members))
                for _sid, n in sorted(index.nodes.items())
            ]
            assert keys == sorted(keys)


class TestSmallShapes:
    def test_single_butterfly(self):
        _g, _d, index = built_index(
            [("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2")]
        )
        assert len(index.nodes) == 1
        (node,) = index.nodes.values()
        assert node.level == 1 and len(node.members) == 4
        assert index.super_edge_set == set()

    def test_two_butterflies_sharing_an_edge_merge(self):
        edges = [
            ("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2"),
            ("a3", "b2"), ("a3", "b3"), ("a2", "b3"),
        ]
        _g, _d, index = built_index(edges)
        assert len(index.nodes) == 1
        (node,) = index.nodes.values()
        assert len(node.members) == 7
        assert index.super_edge_set == set()

    def test_empty_graph(self):
        _g, _d, index = built_index([])
        assert index.nodes == {} and index.super_edge_set == set()
        assert index.k_max == 0


class TestAgainstOracles:
    def test_classes_match_oracle(self, rng):
        for _ in range(15):
            edges = random_bipartite_edges(rng, 9, 9, rng.uniform(0.2, 0.5))
            _g, _d, index = built_index(edges)
            want = {
                grp
                for groups in oracles.equivalence_classes_oracle(edges).values()
                for grp in groups
            }
            assert member_sets(index) == want

    def test_super_edges_match_oracle(self, rng):
        for _ in range(15):
            edges = random_bipartite_edges(rng, 9, 9, rng.uniform(0.2, 0.5))
            _g, _d, index = built_index(edges)
            assert super_edge_member_sets(index) == super_edges_oracle(edges)

    def test_same_level_nodes_never_adjacent(self, rng):
        for _ in range(10):
            edges = random_bipartite_edges(rng, 10, 10, 0.35)
            _g, _d, index = built_index(edges)
            for a, b in index.super_edge_set:
                assert index.nodes[a].level != index.nodes[b].level
            assert index.validate() == []


class TestBloomBuild:
    """The build works per bloom (a U pair and its common neighbours), not
    per butterfly; these pin it to the per-butterfly definitions."""

    def test_classes_and_counts_match_oracles(self):
        ties = lone = 0
        for seed in range(20):
            edges = blocks_sharing_a_vertex(seed)
            g, d, index = built_index(edges)
            want = {
                grp
                for groups in oracles.equivalence_classes_oracle(edges).values()
                for grp in groups
            }
            assert member_sets(index) == want, seed
            got = {
                frozenset((index.nodes[a].members, index.nodes[b].members)): c
                for (a, b), c in index.edge_counts.items()
            }
            assert got == oracles.justification_counts_oracle(edges), seed
            wn, cls = d.wing_number, index.per_edge_node
            for u1, u2, common in bloom_triples(g):
                w = {x: min(wn[(u1, x)], wn[(u2, x)]) for x in common}
                top = max(w.values())
                low = [m for m in w.values() if m < top]
                ties += len(low) > len(set(low))
                at_top = [x for x in common if w[x] == top]
                if len(at_top) == 1:
                    e1, e2 = (u1, at_top[0]), (u2, at_top[0])
                    lone += wn[e1] == wn[e2] and cls[e1] != cls[e2]
        # the shapes where a per-bloom union can go wrong do occur
        assert ties > 0 and lone > 0

    def test_supports_match_per_edge_count(self):
        for seed in range(20):
            edges = blocks_sharing_a_vertex(seed)
            g, d, _index = built_index(edges)
            assert list(d.support.items()) == [
                (e, oracles.support_of(e, edges)) for e in g.sorted_edges()
            ]


def shared_label_edges(seed):
    """A seeded 8 x 8 graph whose two sides both have vertices named x and
    y, with a complete 3 x 3 block at the right x and another at the left
    x, so edge (x, x) and x's edges on both sides lie in butterflies."""
    rng = random.Random(seed)
    left = ["x", "y", *(f"a{i}" for i in range(6))]
    right = ["x", "y", *(f"b{j}" for j in range(6))]
    edges = {(u, v) for u in left for v in right if rng.random() < 0.3}
    edges |= {(u, v) for u in ("x", "y", "a0") for v in ("x", "b0", "b1")}
    edges |= {(u, v) for u in ("x", "a3", "a4") for v in ("y", "b2", "b3")}
    return sorted(edges)


class TestSharedLabel:
    """A label may name a left and a right vertex: the bloom enumeration
    keys its columns by right label and groups its pairs by left vertex,
    and the query seeds a label's classes from both sides."""

    @pytest.mark.parametrize("seed", range(6))
    def test_pipeline_matches_oracles(self, seed):
        edges = shared_label_edges(seed)
        g, d, index = built_index(edges)
        assert d.wing_number == oracles.wing_numbers_oracle(edges)
        assert d.support == {e: oracles.support_of(e, edges) for e in edges}
        want = {
            grp
            for groups in oracles.equivalence_classes_oracle(edges).values()
            for grp in groups
        }
        assert member_sets(index) == want
        got = {
            frozenset((index.nodes[a].members, index.nodes[b].members)): c
            for (a, b), c in index.edge_counts.items()
        }
        assert got == oracles.justification_counts_oracle(edges)
        # the build that enumerates the blooms itself agrees
        unrecorded = build_equiwing(g, WingDecomposition(d.wing_number,
                                                         d.support))
        assert serialize(unrecorded) == serialize(index)
        assert unrecorded.edge_counts == index.edge_counts

        comp = compress(index)
        assert comp.validate(d.wing_number) == []
        assert d.wing_number[("x", "x")] >= 1
        labels = sorted({x for e in edges for x in e})
        for k in range(1, d.k_max + 1):
            for q in labels:
                want = oracles.query_oracle(edges, q, k)
                for wings in (baseline_search(g, d, q, k),
                              query_equiwing(index, q, k),
                              query_comp(comp, q, k)):
                    assert {frozenset(w) for w in wings} == want, (q, k)


class BloomCountingGraph(BipartiteGraph):
    """Counts whole-graph bloom enumerations: `blooms` calls."""

    def __init__(self, edges=()):
        super().__init__()
        self.enumerations = 0
        for u, v in edges:
            self.insert_edge(u, v)

    def blooms(self):
        self.enumerations += 1
        return super().blooms()


class TestOnePassBuild:
    """A rebuild enumerates the blooms once: the build reads the bloom
    record that the peel kept, and records them itself only when an update
    has dropped it."""

    def test_build_reads_the_peel_record(self):
        g = BloomCountingGraph(blocks_sharing_a_vertex(3))
        d = wing_decomposition(g)
        assert g.enumerations == 1
        index = build_equiwing(g, d)
        assert g.enumerations == 1
        assert serialize(build_equiwing(g)) == serialize(index)
        assert g.enumerations == 2  # the peel inside build_equiwing(g)

    def test_build_after_an_update_enumerates_once(self, rng):
        for _ in range(10):
            edges = random_bipartite_edges(rng, 9, 9, 0.4)
            g = BloomCountingGraph(edges)
            d = wing_decomposition(g)
            index = build_equiwing(g, d)
            absent = [(f"a{i}", f"b{j}") for i in range(9) for j in range(9)
                      if not g.has_edge(f"a{i}", f"b{j}")]
            kind, (u, v) = (("delete", rng.choice(edges)) if rng.random() < 0.5
                            else ("insert", rng.choice(absent)))
            apply_update(g, d, index, kind, u, v)
            assert d.bloom_runs is None
            before = g.enumerations
            rebuilt = build_equiwing(g, d)
            assert g.enumerations == before + 1
            scratch = build_equiwing(build(g.sorted_edges()))
            assert serialize(rebuilt) == serialize(scratch)
            assert rebuilt.edge_counts == scratch.edge_counts

    @pytest.mark.parametrize("args,n_edges,digests", [
        ((200, 200, 0.035, 91, [(12, 12, 0.9)] * 2), 1702, (
            "542596cdb9ab72764f54a23eaf97b7e25331ef62f7c878f5bf941ff9c53813a7",
            "f065bf1741432997fafc66e5ce3dde94c7a380e309017f1428cd75fab4056114",
            "b5dd4f1da50ffe3f5887db0960bf3722388f8883427bbc1289c0f91fb8ac5baf",
        )),
        ((400, 400, 0.035, 91, [(20, 20, 0.9)] * 2), 6394, (
            "46de4b9536edb34778ce138e74a8eb03746d7bb2bd5f3e7d254faf5a3c591e2a",
            "ae72af5dab66e2e08c2706b829ae71f9167bff5bc0797df82d397ce1b979da2b",
            "19d95efe697c0ed9493b31955e14e5c9f729ce2e46e8ddf0182fdca77ffd5169",
        )),
    ])
    def test_pinned_digest(self, args, n_edges, digests):
        """sha256 of the index file, the compressed index file and the
        sorted `edge_counts` lines, as the build that enumerated the blooms
        in each of its two passes wrote them."""
        edges = generate_bipartite(*args)
        assert len(edges) == n_edges
        index = build_equiwing(build(edges))
        counts = "".join(f"{a} {b} {c}\n"
                         for (a, b), c in sorted(index.edge_counts.items()))
        texts = (serialize(index), serialize(compress(index)), counts)
        assert tuple(hashlib.sha256(t.encode()).hexdigest()
                     for t in texts) == digests


class TestQueries:
    def test_fig2_fixtures(self, fig2_graph):
        index = build_equiwing(fig2_graph)
        wings = query_equiwing(index, "v5", 3)
        assert [len(w) for w in wings] == [8, 11]
        assert set(wings[0]) == FIG2_CLASSES[4]
        assert set(wings[1]) == FIG2_CLASSES[5] | FIG2_CLASSES[6]
        assert [len(w) for w in query_equiwing(index, "v6", 2)] == [22]
        assert query_equiwing(index, "v1", 5) == []
        assert [len(w) for w in query_equiwing(index, "u7", 4)] == [9]

    def test_unknown_vertex_gives_empty(self, fig2_graph):
        index = build_equiwing(fig2_graph)
        assert query_equiwing(index, "zz", 1) == []

    def test_k_below_one_asks_for_1_wings(self, fig2_graph):
        """Every node's level is at least 1, so k <= 0 walks the nodes k = 1
        walks, on every engine, and answers as `baseline_search`."""
        d = wing_decomposition(fig2_graph)
        index = build_equiwing(fig2_graph, d)
        comp = compress(index)
        for ix in (index, comp, deserialize(serialize(index))):
            for q in sorted(fig2_graph.adj_u) + sorted(fig2_graph.adj_v):
                want = baseline_search(fig2_graph, d, q, 1)
                counters = QueryCounters()
                assert query_equiwing(ix, q, 1, counters) == want, q
                for k in (0, -3):
                    low = QueryCounters()
                    assert query_equiwing(ix, q, k, low) == want, (q, k)
                    assert baseline_search(fig2_graph, d, q, k) == want
                    assert low.visited_nodes == counters.visited_nodes

    def test_matches_baseline_everywhere(self, rng):
        for _ in range(15):
            edges = random_bipartite_edges(rng, 9, 9, rng.uniform(0.2, 0.5))
            g, d, index = built_index(edges)
            labels = sorted({x for e in edges for x in e})
            for q in labels:
                for k in range(1, d.k_max + 2):
                    assert query_equiwing(index, q, k) == baseline_search(
                        g, d, q, k
                    ), (q, k)

    def test_instrumentation(self, fig2_graph):
        index = build_equiwing(fig2_graph)
        counters = QueryCounters()
        wings = query_equiwing(index, "v6", 2, counters=counters)
        # only super nodes at or above the requested level are expanded
        assert counters.visited_nodes
        assert all(level >= 2 for _sid, level in counters.visited_nodes)
        # no super node is expanded twice
        ids = [sid for sid, _level in counters.visited_nodes]
        assert len(ids) == len(set(ids))
        # each result edge emitted exactly once
        flat = [e for w in wings for e in w]
        assert counters.emitted_edges == len(flat) == len(set(flat))


def all_answers(g, index, k_max):
    """Every vertex's answer at every k from 1 to k_max + 1."""
    return {(q, k): query_equiwing(index, q, k)
            for q in sorted(g.adj_u) + sorted(g.adj_v)
            for k in range(1, k_max + 2)}


# planted-block graphs: a sparse random graph with one or two dense blocks
PLANTED = [(18, 18, 0.12, seed, [(6, 6, 0.9), (5, 5, 0.85)][:1 + seed % 2])
           for seed in (2, 5, 8)]


class TestEdgeOrder:
    """A fresh build and its compression keep the build's edge order and
    emit a wing of more than half of it by slice copies, and a smaller one
    by gathering its nodes' position runs; every other index merges its
    nodes' sorted member runs. Every emission must give the same
    answers."""

    @pytest.mark.parametrize("spec", PLANTED)
    def test_fresh_build_answers_as_its_loaded_twin(self, spec):
        g, d, index = built_index(generate_bipartite(*spec))
        comp = compress(index)
        twins = (deserialize(serialize(index)),
                 deserialize_comp(serialize(comp)))
        assert index._order is not None and comp._order is not None
        assert index._order.edges is comp._order.edges
        assert all(t._order is None for t in twins)
        want = {(q, k): baseline_search(g, d, q, k)
                for q, k in all_answers(g, index, d.k_max)}
        for ix in (index, comp, *twins):
            assert all_answers(g, ix, d.k_max) == want

    @pytest.mark.parametrize("spec", PLANTED)
    def test_updates_answer_as_a_scratch_build(self, spec):
        g, d, index = built_index(generate_bipartite(*spec))
        comp = compress(index)
        # wing number 0 edges: an insert that closes no butterfly and a
        # delete of an edge in none leave every class as it was
        lone = next(e for e in g.sorted_edges() if not d.support[e])
        block = max(d.wing_number, key=d.wing_number.get)
        for kind, (u, v), untouched in (
                ("insert", ("a-new", "b-new"), True),
                ("delete", lone, True),
                ("delete", block, False)):
            report, new_comp = apply_update_comp(g, d, index, comp, kind,
                                                 u, v)
            assert (new_comp is comp) is untouched
            assert (index._order is not None) is untouched
            assert (new_comp._order is not None) is untouched
            comp = new_comp
            assert index.validate(d.wing_number) == [] == comp.validate()
            scratch = wing_decomposition(build(g.sorted_edges()))
            assert scratch.wing_number == d.wing_number
            rebuilt = build_equiwing(build(g.sorted_edges()), scratch)
            want = all_answers(g, rebuilt, scratch.k_max)
            assert all_answers(g, index, scratch.k_max) == want, kind
            assert all_answers(g, comp, scratch.k_max) == want, kind

    def test_any_node_change_drops_the_order(self):
        _g, _d, index = built_index(generate_bipartite(*PLANTED[0]))
        index.remove_node(max(index.nodes))
        assert index._order is None
        _g, _d, index = built_index(generate_bipartite(*PLANTED[0]))
        index.add_node(SuperNode(index.alloc_id(), 1, [("a-new", "b-new")]))
        assert index._order is None

    def test_emission_follows_the_answer_size(self):
        g, d, index = built_index(
            generate_bipartite(50, 50, 0.15, 7, [(8, 8, 0.95)]))
        comp = compress(index)
        top = max(d.wing_number, key=d.wing_number.get)
        level = d.wing_number[top]
        for ix in (index, comp):
            counters = QueryCounters()
            (giant,) = query_equiwing(ix, top[0], 2, counters)
            assert len(giant) > 0.8 * len(ix._order.edges)
            assert counters.emissions == ["mask"]
            counters = QueryCounters()
            (wing,) = query_equiwing(ix, top[0], level, counters)
            assert counters.emissions == ["gather"]
            loaded = deserialize(serialize(ix)) if ix is index else \
                deserialize_comp(serialize(ix))
            counters = QueryCounters()
            assert query_equiwing(loaded, top[0], 2, counters) == [giant]
            assert counters.emissions == ["merge"]

    def test_every_answer_is_a_fresh_list(self):
        g, d, index = built_index(
            generate_bipartite(40, 40, 0.15, 7, [(8, 8, 0.95)]))
        loaded = deserialize(serialize(index))
        edges = index._order.edges
        kept = list(edges)
        top = max(d.wing_number, key=d.wing_number.get)
        for ix, k, emission in ((index, 2, "mask"),
                                (index, d.wing_number[top], "gather"),
                                (loaded, 2, "merge")):
            counters = QueryCounters()
            (answer,) = query_equiwing(ix, top[0], k, counters)
            assert counters.emissions == [emission]
            want = list(answer)
            assert answer is not edges
            answer.reverse()
            answer.append(("a-new", "b-new"))
            assert query_equiwing(ix, top[0], k) == [want], emission
            assert index._order.edges is edges and edges == kept

    def test_one_vertex_takes_several_emissions(self):
        """At k=2 the vertex q lies in the giant wing, which holds more
        than half of the edges and has level-0 edges between its own in
        sorted order, and in a K_{3,3} that shares no butterfly with it:
        the giant is slice-copied from between the other runs, class 0's
        included, and the K_{3,3} gathered."""
        edges = generate_bipartite(40, 40, 0.15, 7, [(8, 8, 0.95)])
        wn = wing_decomposition(build(edges)).wing_number
        q = max(wn, key=wn.get)[0]
        edges += [(u, v) for u in (q, "a-k1", "a-k2")
                  for v in ("b-k1", "b-k2", "b-k3")]
        g, d, index = built_index(edges)
        edges = index._order.edges
        counters = QueryCounters()
        wings = query_equiwing(index, q, 2, counters)
        giant = max(wings, key=len)
        first, last = edges.index(giant[0]), edges.index(giant[-1])
        assert 2 * len(giant) > len(edges)
        assert not all(map(index.per_edge_node.__contains__,
                           edges[first:last]))
        assert sorted(counters.emissions) == ["gather", "mask"]
        assert wings == baseline_search(g, d, q, 2)
        for ix in (compress(index), deserialize(serialize(index))):
            assert query_equiwing(ix, q, 2) == wings

    def test_runs_follow_their_order(self):
        """The position runs live with the order they came from: a query
        after `compress`, `replace_with` or an update that keeps the order
        reads the runs of the order the index holds then, and a node
        change leaves none."""
        edges = generate_bipartite(40, 40, 0.15, 7, [(8, 8, 0.95)])
        g, d, index = built_index(edges)
        top = max(d.wing_number, key=d.wing_number.get)
        ks = (1, 2, 5, d.wing_number[top])

        def check(ix, g, d):
            twin = (deserialize_comp if ix.merge_log is not None
                    else deserialize)(serialize(ix))
            for q in sorted(g.adj_u)[::3] + sorted(g.adj_v)[::3]:
                for k in ks:
                    want = baseline_search(g, d, q, k)
                    assert query_equiwing(ix, q, k) == want, (q, k)
                    assert query_equiwing(twin, q, k) == want, (q, k)

        check(index, g, d)
        comp = compress(index)
        check(comp, g, d)
        # an order from another graph: the runs must come with it
        g2, d2, other = built_index([e for e in edges if e != top])
        index.replace_with(other)
        check(index, g2, d2)
        comp = compress(index)
        # a level-0 edge lies between the giant wing's edges; deleting it
        # changes no node, so both orders stay and keep it under class 0
        lone = next(e for e in g2.sorted_edges() if not d2.wing_number[e])
        report, new_comp = apply_update_comp(g2, d2, index, comp, "delete",
                                             *lone)
        assert new_comp is comp and index._order is not None
        assert lone in index._order.edges
        check(index, g2, d2)
        check(comp, g2, d2)
        report, comp = apply_update_comp(g2, d2, index, comp, "delete",
                                         *max(d2.wing_number,
                                              key=d2.wing_number.get))
        assert index._order is None and comp._order is None
        check(index, g2, d2)
        check(comp, g2, d2)

    def test_validate_checks_a_kept_order(self):
        """The runs come from the edge map, so a kept order can only be out
        of order or miss a classed edge; leaving out an unclassed one is
        harmless, as after a delete of a wing-number-0 edge."""
        g, d, index = built_index(generate_bipartite(*PLANTED[0]))
        edges = index._order.edges
        assert index.validate(d.wing_number) == []
        classed = edges.index(min(index.per_edge_node))
        unclassed = next(i for i, e in enumerate(edges)
                         if e not in index.per_edge_node)
        swapped = edges[:]
        swapped[0], swapped[1] = swapped[1], swapped[0]
        for order, problem in (
                (swapped, "kept edge order is not strictly increasing"),
                (edges[:unclassed + 1] + edges[unclassed:],
                 "kept edge order is not strictly increasing"),
                (edges[:classed] + edges[classed + 1:],
                 "kept edge order leaves out a classed edge")):
            index._order = EdgeOrder(order)
            assert index.validate(d.wing_number) == [problem]
        index._order = EdgeOrder(edges[:unclassed] + edges[unclassed + 1:])
        assert index.validate(d.wing_number) == []
        index._order = EdgeOrder(edges)
        assert index.validate(d.wing_number) == []


def walks_agree(index, q, k):
    """The frontier walk from q's seeds at k gives the wings, emissions and
    visited node set of the depth-first reference walk, each node visited
    once, at level >= k."""
    seeds = [s for s in index.vertex_seeds.get(q, ())
             if index.nodes[s].level >= k]
    counters = QueryCounters()
    wings = _component_wings(index, seeds, k, counters)
    want, expanded, emissions = oracles.component_wings_dfs(index, seeds, k)
    assert wings == want, (q, k)
    assert counters.emissions == emissions, (q, k)
    visited = counters.visited_nodes
    assert len(visited) == len(set(visited)) and set(visited) == set(expanded)
    assert all(level >= k for _sid, level in visited)
    assert counters.emitted_edges == sum(map(len, wings))


def walk_everywhere(g, index, k_max):
    """`walks_agree` for every vertex and every k from 1 to k_max + 1."""
    for q in sorted(g.adj_u) + sorted(g.adj_v):
        for k in range(1, k_max + 2):
            walks_agree(index, q, k)


class TestFrontierWalk:
    """The frontier-set walk and its two emissions against the depth-first
    walk and byte-mask emission of `oracles.component_wings_dfs`: on both
    engines, with a kept edge order, loaded without one, and after an
    update."""

    @staticmethod
    def engines(g, d):
        index = build_equiwing(g, d)
        comp = compress(index)
        return index, comp, deserialize(serialize(index)), \
            deserialize_comp(serialize(comp))

    @pytest.mark.parametrize("edges", [
        pytest.param(FIG2_EDGES, id="fig2"),
        *(pytest.param(edges, id=f"small-{seed}")
          for seed, edges in small_graph_family(200)),
    ])
    def test_every_vertex_and_every_k(self, edges):
        g = build(edges)
        d = wing_decomposition(g)
        index, comp, *loaded = self.engines(g, d)
        assert index._order is not None and comp._order is not None
        assert all(ix._order is None for ix in loaded)
        for ix in (index, comp, *loaded):
            walk_everywhere(g, ix, d.k_max)
        if not d.k_max:
            return
        top = max(d.wing_number, key=d.wing_number.get)
        _report, comp = apply_update_comp(g, d, index, comp, "delete", *top)
        for ix in (index, comp):
            assert ix._order is None
            walk_everywhere(g, ix, d.k_max)

    def test_half_the_edges_is_the_mask_line(self):
        """The 1-wing of a 250x250 graph leaves 5.8% of its edges out and
        is slice-copied. Padded with a matching, whose edges lie in no
        butterfly, to twice the wing's size, it is half of them and is
        gathered, though 4m <= r * b.bit_length() still holds for its 182
        nodes. Both answer as the reference walk and the baseline."""
        edges = generate_bipartite(250, 250, 0.04, 7)
        g, d, index = built_index(edges)
        q = max(d.wing_number, key=d.wing_number.get)[0]
        (wing,) = query_equiwing(index, q, 1)
        pad = 2 * len(wing) - len(edges)
        matching = [(f"a-m{i:04}", f"b-m{i:04}") for i in range(pad)]
        for padded, emission in ((False, "mask"), (True, "gather")):
            g, d, index = built_index(edges + matching * padded)
            assert (2 * len(wing) <= len(index._order.edges)) is padded
            counters = QueryCounters()
            assert query_equiwing(index, q, 1, counters) == [wing]
            assert counters.emissions == [emission]
            assert [wing] == baseline_search(g, d, q, 1)
            for k in (1, 2):
                walks_agree(index, q, k)

    def test_reference_graph_samples(self):
        """k=2 (the giant wing, slice-copied) and k=25 (the dense blocks,
        gathered) from sampled vertices of the 52,587-edge reference graph,
        and k=25 on its loaded twins."""
        edges = generate_bipartite(
            2000, 2000, 0.0125, seed=91,
            blocks=((30, 30, 0.9), (30, 30, 0.9), (30, 30, 0.9)))
        g = build(edges)
        d = wing_decomposition(g)
        index, comp, *loaded = self.engines(g, d)
        rng = random.Random(3)
        dense = sorted({x for e, w in d.wing_number.items() if w >= 25
                        for x in e})
        k2 = rng.sample(sorted(g.adj_u), 4) + rng.sample(dense, 2)
        k25 = rng.sample(dense, 12)
        for ix in (index, comp):
            for q in k2:
                walks_agree(ix, q, 2)
        for ix in (index, comp, *loaded):
            for q in k25:
                walks_agree(ix, q, 25)


class TestValidate:
    def test_counts_follow_the_super_edges(self, fig2_graph):
        """The justification counts must key exactly the super edges and
        be positive."""
        for how, problem in (
                ("missing", "edge counts out of sync with super edges"),
                ("stray", "edge counts out of sync with super edges"),
                ("zero", "non-positive super edge count"),
                ("negative", "non-positive super edge count")):
            index = build_equiwing(fig2_graph)
            counts = index.edge_counts
            pair = min(counts)
            if how == "missing":
                del counts[pair]
            elif how == "stray":
                counts[(1, max(index.nodes) + 1)] = 1
            else:
                counts[pair] = 0 if how == "zero" else -1
            assert index.validate() == [problem], how

    def test_merge_log_names_merged_nodes(self, fig2_graph):
        """Each merge log entry maps a node that is gone to one that is
        kept, and no node is merged twice."""
        comp = compress(build_equiwing(fig2_graph))
        assert comp.merge_log and comp.validate() == []
        (old, kept), *rest = comp.merge_log
        gone = max(comp.nodes) + 1
        for log in ([(kept, kept), *rest], [(old, gone), *rest],
                    [(old, kept), (old, kept), *rest]):
            comp.merge_log = log
            assert comp.validate() == [
                "merge log names missing or live nodes"], log

    def test_wing_numbers_check_the_nodes(self, fig2_graph):
        """Given the wing numbers, each member's must be its node's level,
        and no edge at wing number >= 1 may be left out of the index."""
        d = wing_decomposition(fig2_graph)
        index = build_equiwing(fig2_graph, d)
        assert index.validate(d.wing_number) == []
        sn_id, node = next(iter(index.nodes.items()))
        moved = dict(d.wing_number)
        moved[min(node.members)] = node.level + 1
        assert index.validate(moved) == [
            f"node {sn_id} level disagrees with wing numbers"]
        outside = {**d.wing_number, ("v-new", "u-new"): 1}
        assert index.validate(outside) == [
            "classed edges disagree with wing numbers"]

    def test_member_sweep_names_what_the_loop_names(self, fig2_graph):
        """`validate` checks members with one C-level sweep per node and
        walks them only when it fails. On an index corrupted each way, and
        on a sound one, it names exactly what the per-member loop names.
        The edge order is dropped so that its own check stays silent, and
        a level changed on a node is changed in the level map too."""

        def corrupt(index, how):
            nodes, edge_map = index.nodes, index.per_edge_node
            if how == "edge in two nodes":
                nodes[2].members |= {min(nodes[1].members)}
            elif how == "stray map entry":
                edge_map[("v9", "u9")] = 1
            elif how == "map to another node":
                edge_map[min(nodes[4].members)] = 6
            elif how == "wrong id":
                nodes[3].sn_id = 9
            elif how == "empty node":
                nodes[3].members = frozenset()
            elif how == "level 0":
                nodes[1].level = index.node_level[1] = 0

        for how in (None, "edge in two nodes", "stray map entry",
                    "map to another node", "wrong id", "empty node",
                    "level 0"):
            index = build_equiwing(fig2_graph)
            index._order = None
            corrupt(index, how)
            problems = index.validate()
            assert problems == member_problems_by_loop(index), how
            assert bool(problems) == (how is not None), how

    def test_level_map_follows_the_nodes(self, fig2_graph):
        """The query walk filters by `node_level`; `validate` names any
        drift between it and the nodes' levels, after updates too."""
        d = wing_decomposition(fig2_graph)
        index = build_equiwing(fig2_graph, d)
        apply_update(fig2_graph, d, index, "insert", "v1", "u7")
        assert index.validate(d.wing_number) == []
        sn_id = next(iter(index.nodes))
        for drift in ("wrong level", "missing", "stray"):
            index = build_equiwing(fig2_graph)
            if drift == "wrong level":
                index.node_level[sn_id] += 1
            elif drift == "missing":
                del index.node_level[sn_id]
            else:
                index.node_level[max(index.nodes) + 1] = 1
            assert index.validate() == [
                "level map disagrees with the nodes"], drift


class TestSerialization:
    def test_round_trip_is_byte_identical(self, fig2_graph):
        index = build_equiwing(fig2_graph)
        text = serialize(index)
        again = deserialize(text)
        assert serialize(again) == text
        assert {s: n.members for s, n in again.nodes.items()} == {
            s: n.members for s, n in index.nodes.items()
        }
        assert again.super_edge_set == index.super_edge_set
        assert again.edge_counts is None

    def test_empty_round_trip(self):
        _g, _d, index = built_index([])
        assert serialize(deserialize(serialize(index))) == serialize(index)

    def test_random_round_trips(self, rng):
        for _ in range(10):
            edges = random_bipartite_edges(rng, 8, 8, 0.35)
            _g, _d, index = built_index(edges)
            assert serialize(deserialize(serialize(index))) == serialize(index)

    def test_rebuild_counts_after_load(self, fig2_graph):
        index = build_equiwing(fig2_graph)
        counts = dict(index.edge_counts)
        loaded = deserialize(serialize(index))
        rebuild_edge_counts(loaded, fig2_graph, wing_decomposition(fig2_graph))
        assert loaded.edge_counts == counts

    def test_rebuild_counts_under_surgery_ids(self, fig2_graph):
        """After updates the node ids are surgery's, not a fresh build's;
        a loaded copy still gets the maintained counts under its own ids."""
        g, d = fig2_graph, wing_decomposition(fig2_graph)
        index = build_equiwing(g, d)
        for kind, u, v in [("insert", "v4", "u6"), ("delete", "v6", "u4"),
                           ("insert", "v1", "u3")]:
            apply_update(g, d, index, kind, u, v)
        assert serialize(index) != serialize(build_equiwing(g))
        loaded = deserialize(serialize(index))
        rebuild_edge_counts(loaded, g, wing_decomposition(g))
        assert loaded.edge_counts == index.edge_counts

    def test_rebuild_counts_rejects_merged_wings(self, fig2_graph):
        """Level-3 nodes 4 and 5 lie in different 3-wings: merged, the
        file passes the reader's check but is not the graph's index."""
        loaded = deserialize(serialize(build_equiwing(fig2_graph)))
        kept, gone = loaded.remove_node(4), loaded.remove_node(5)
        loaded.add_node(SuperNode(4, kept.level, kept.members | gone.members))
        loaded.super_edge_set = {tuple(sorted(4 if s == 5 else s for s in p))
                                 for p in loaded.super_edge_set}
        assert loaded.validate() == []
        with pytest.raises(InternalConsistencyError,
                           match="its nodes are not the graph's classes"):
            rebuild_edge_counts(loaded, fig2_graph,
                                wing_decomposition(fig2_graph))
        assert loaded.edge_counts is None

    def test_rebuild_counts_rejects_wrong_graph(self, fig2_graph):
        index = build_equiwing(fig2_graph)
        loaded = deserialize(serialize(index))
        other = build([("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2")])
        with pytest.raises(InternalConsistencyError):
            rebuild_edge_counts(loaded, other, wing_decomposition(other))

    def test_corruption_detected(self, fig2_graph):
        index = build_equiwing(fig2_graph)
        text = serialize(index)
        # flip one member label
        bad = text.replace("m v2 u3", "m v2 u4", 1)
        with pytest.raises(IndexFormatError, match="checksum"):
            deserialize(bad)

    def test_truncation_detected(self, fig2_graph):
        index = build_equiwing(fig2_graph)
        text = serialize(index)
        with pytest.raises(IndexFormatError):
            deserialize("".join(text.splitlines(True)[:5]))

    def test_wrong_header_rejected(self):
        with pytest.raises(IndexFormatError, match="version"):
            deserialize("SOMETHING v9\n")

    def test_trailing_garbage_rejected(self, fig2_graph):
        index = build_equiwing(fig2_graph)
        with pytest.raises(IndexFormatError):
            deserialize(serialize(index) + "extra\n")

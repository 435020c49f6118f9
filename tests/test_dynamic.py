import itertools
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

from wingsearch import (
    BipartiteGraph,
    SuperNode,
    affected_edges,
    apply_update,
    apply_update_comp,
    baseline_search,
    build_equiwing,
    compress,
    compute_delta,
    deserialize,
    generate_bipartite,
    query_comp,
    query_equiwing,
    serialize,
    wing_decomposition,
    wing_upper_bound,
)
from wingsearch import dynamic
from wingsearch.dynamic import _h_index
from wingsearch.errors import (
    InternalConsistencyError,
    InvalidArgumentError,
    UnknownEdgeError,
)
from wingsearch.graph import butterfly_edges

from conftest import (
    FIG2_CLASSES,
    build,
    levelled_members,
    random_bipartite_edges,
)
from oracles import (
    butterflies_through,
    justification_counts_oracle,
    wing_numbers_oracle,
)


def member_sets(index):
    return {frozenset(n.members) for n in index.nodes.values()}


def counts_by_members(index):
    out = {}
    for (a, b), n in index.edge_counts.items():
        key = frozenset(
            (frozenset(index.nodes[a].members), frozenset(index.nodes[b].members))
        )
        out[key] = n
    return out


def assert_matches_scratch(graph, decomp, index):
    """The maintained state must be indistinguishable from a rebuild."""
    fresh_d = wing_decomposition(graph)
    assert decomp.wing_number == fresh_d.wing_number
    assert decomp.support == fresh_d.support
    fresh = build_equiwing(graph, fresh_d)
    assert levelled_members(index) == levelled_members(fresh)
    assert counts_by_members(index) == counts_by_members(fresh)
    assert index.validate() == []


def fig2_state(fig2_graph):
    g = fig2_graph.copy()
    d = wing_decomposition(g)
    return g, d, build_equiwing(g, d)


class CountingGraph(BipartiteGraph):
    """Counts butterfly enumerations: `butterfly_others` calls."""

    calls = 0

    def butterfly_others(self, u, v, intern):
        self.calls += 1
        return super().butterfly_others(u, v, intern)


class RecordingGraph(BipartiteGraph):
    """Records the edge of every butterfly enumeration, a
    `butterfly_others` call, in `read`."""

    def __init__(self, edges=()):
        super().__init__()
        self.read = []
        for u, v in edges:
            self.insert_edge(u, v)

    def butterfly_others(self, u, v, intern):
        self.read.append((u, v))
        return super().butterfly_others(u, v, intern)


def chain_edges(n):
    """Square i on {a_i, a_i+1} x {b_i, b_i+1}, for i < n."""
    edges = []
    for i in range(n):
        a, a1, b, b1 = f"a{i:03}", f"a{i + 1:03}", f"b{i:03}", f"b{i + 1:03}"
        edges += [(a, b), (a, b1), (a1, b), (a1, b1)]
    return edges


def square_chain(n=200):
    """A chain of n butterflies, square i on {a_i, a_i+1} x {b_i, b_i+1}:
    one level-1 block, every edge butterfly-connected to every other at
    level 1. Returns its state with the call count at 0."""
    g = CountingGraph()
    for u, v in chain_edges(n):
        g.insert_edge(u, v)
    d = wing_decomposition(g)
    index = build_equiwing(g, d)
    assert set(d.wing_number.values()) == {1} and len(index.nodes) == 1
    g.calls = 0
    return g, d, index


class TestBoundHelpers:
    def test_delta_fixture(self, fig2_graph):
        assert compute_delta(fig2_graph, "v4", "u6") == 2

    def test_delta_without_partners(self, fig2_graph):
        assert compute_delta(fig2_graph, "v1", "u9") == 0

    def test_upper_bound_fixture(self, fig2_graph):
        d = wing_decomposition(fig2_graph)
        assert wing_upper_bound(fig2_graph, d, "v4", "u6") == 4

    def test_level_filtered_butterfly_count(self, fig2_graph, fig2_edges):
        """Butterflies through e whose other three edges all have wing
        number >= k."""
        wn = wing_decomposition(fig2_graph).wing_number

        def count(e, k):
            return sum(
                min(wn[f] for f in butterfly_edges(b) if f != e) >= k
                for b in butterflies_through(e, fig2_edges)
            )

        assert count(("v7", "u6"), 0) == 5
        assert count(("v7", "u6"), 4) == 4
        assert count(("v1", "u1"), 1) == 1

    def test_argument_errors(self, fig2_graph):
        d = wing_decomposition(fig2_graph)
        with pytest.raises(InvalidArgumentError):
            compute_delta(fig2_graph, "v1", "u1")
        with pytest.raises(InvalidArgumentError):
            wing_upper_bound(fig2_graph, d, "v1", "u1")

    def test_bound_is_sound_on_random_inserts(self, rng):
        for _ in range(20):
            edges = random_bipartite_edges(rng, 8, 8, 0.3)
            g = build(edges)
            us = sorted({u for u, _ in edges})
            vs = sorted({v for _, v in edges})
            absent = [
                (u, v) for u in us for v in vs if not g.has_edge(u, v)
            ]
            if not absent:
                continue
            u, v = rng.choice(absent)
            d = wing_decomposition(g)
            bound = wing_upper_bound(g, d, u, v)
            g.insert_edge(u, v)
            after = wing_decomposition(g).wing_number
            assert after[(u, v)] <= bound
            for f, new in after.items():
                old = d.wing_number.get(f, 0)
                if new != old:
                    assert new <= bound, (f, old, new, bound)

    def test_bound_is_l_plus_delta_on_random_inserts(self, rng):
        """The bound's value, not only its soundness: l, the h-index of
        the new butterflies' minimum old wing numbers, plus delta, the most
        new butterflies one edge gains, both from the oracle."""
        checked = 0
        for _ in range(30):
            edges = random_bipartite_edges(rng, 8, 8, 0.4)
            g = build(edges)
            absent = [(u, v) for u in sorted(g.adj_u) for v in sorted(g.adj_v)
                      if not g.has_edge(u, v)]
            if not absent:
                continue
            e = rng.choice(absent)
            d = wing_decomposition(g)
            wn = d.wing_number
            new = butterflies_through(e, edges + [e])
            mins = sorted((min(wn[f] for f in butterfly_edges(b) if f != e)
                           for b in new), reverse=True)
            l = max((i for i, m in enumerate(mins, 1) if m >= i), default=0)
            gained = Counter(f for b in new for f in butterfly_edges(b)
                             if f != e)
            delta = max(gained.values(), default=0)
            assert wing_upper_bound(g, d, *e) == l + delta, e
            assert compute_delta(g, *e) == delta, e
            checked += l > 0
        assert checked >= 10

    def test_h_index_counts_as_a_sort_would(self):
        """`_h_index` over a Counter of values capped at `top` against the
        sort-based definition, empty lists and values at `top` included."""
        r = random.Random(17)
        cases = [([], 0), ([], 4), ([0, 0], 0), ([3, 3, 3], 3), ([5], 5)]
        for _ in range(300):
            top = r.randint(0, 10)
            cases.append(([r.randint(0, top) for _ in range(r.randint(0, 14))],
                          top))
        for values, top in cases:
            ranked = sorted(values, reverse=True)
            expected = max((i for i, x in enumerate(ranked, 1) if x >= i),
                           default=0)
            assert _h_index(Counter(values), top) == expected, (values, top)


class TestScope:
    def test_insert_fixture(self, fig2_graph):
        g, d, index = fig2_state(fig2_graph)
        scope = affected_edges(g, d, index, "insert", "v4", "u6")
        assert not g.has_edge("v4", "u6")  # graph restored
        assert scope.upper_bound == 4 and scope.delta == 2
        assert scope.affected_nodes == {3, 4, 5}
        want = (
            set(FIG2_CLASSES[3])
            | set(FIG2_CLASSES[4])
            | set(FIG2_CLASSES[5])
            | {("v4", "u6")}
        )
        assert scope.affected_edges == want
        assert len(scope.affected_edges) == 12

    def test_insert_without_butterflies_is_local(self, fig2_graph):
        g, d, index = fig2_state(fig2_graph)
        scope = affected_edges(g, d, index, "insert", "v1", "u9")
        assert scope.affected_edges == {("v1", "u9")}
        assert scope.affected_nodes == set()
        assert scope.upper_bound == 0

    def test_delete_fixture(self, fig2_graph):
        g, d, index = fig2_state(fig2_graph)
        scope = affected_edges(g, d, index, "delete", "v7", "u6")
        # classes whose wing numbers move; class 3 is only swept up later,
        # when the dropped pool is re-partitioned at level 2
        assert scope.affected_nodes == {5, 6}
        assert scope.affected_edges == (
            set(FIG2_CLASSES[5]) | set(FIG2_CLASSES[6])
        )
        assert len(scope.affected_edges) == 11
        # the deleted edge itself drops from 4 to 0
        assert set(scope.changed) == set(FIG2_CLASSES[5]) | set(FIG2_CLASSES[6])
        assert scope.changed[("v7", "u6")] == (4, 0)

    def test_delete_of_plain_edge_is_local(self):
        g = build([("a1", "b1"), ("a1", "b2"), ("a1", "b3")])
        d = wing_decomposition(g)
        index = build_equiwing(g, d)
        scope = affected_edges(g, d, index, "delete", "a1", "b2")
        assert scope.affected_edges == {("a1", "b2")}
        assert scope.affected_nodes == set()

    def test_scope_mutates_nothing(self, fig2_graph):
        class FrozenGraph(BipartiteGraph):
            def insert_edge(self, u, v):
                raise AssertionError("affected_edges inserted an edge")

            def delete_edge(self, u, v):
                raise AssertionError("affected_edges deleted an edge")

        g, d, index = fig2_state(fig2_graph)
        frozen = FrozenGraph()
        frozen.adj_u, frozen.adj_v = g.adj_u, g.adj_v
        before = (serialize(index), dict(d.wing_number), dict(d.support))
        scope = affected_edges(frozen, d, index, "insert", "v4", "u6")
        assert (scope.upper_bound, scope.delta) == (4, 2)
        assert scope.affected_nodes == {3, 4, 5}
        assert len(scope.affected_edges) == 12
        scope = affected_edges(frozen, d, index, "delete", "v7", "u6")
        assert scope.affected_nodes == {5, 6}
        assert len(scope.affected_edges) == 11
        assert (serialize(index), d.wing_number, d.support) == before
        assert frozen.sorted_edges() == fig2_graph.sorted_edges()

    def test_scope_leaves_a_warm_state_unchanged(self, fig2_graph):
        """`affected_edges` reads and writes nothing kept: not the graph,
        the decomposition with its bloom map, warmed by earlier updates,
        nor the index."""
        g, d, index = fig2_state(fig2_graph)
        for kind, u, v in [("insert", "v4", "u6"), ("delete", "v7", "u6")]:
            apply_update(g, d, index, kind, u, v)
        assert d.bloom_map.partners and d.bloom_map.runs

        def state():
            blooms = d.bloom_map
            return (
                {u: set(vs) for u, vs in g.adj_u.items()},
                {v: set(us) for v, us in g.adj_v.items()},
                dict(d.wing_number), dict(d.support), d.bloom_runs,
                dict(blooms.partners), dict(blooms.runs),
                serialize(index), dict(index.edge_counts),
                set(index.super_edge_set), dict(index.per_edge_node),
                {x: set(s) for x, s in index.vertex_seeds.items()},
                index._next_id,
            )

        before = state()
        for kind, u, v in [("insert", "v1", "u3"), ("delete", "v5", "u4"),
                           ("insert", "v7", "u6"), ("delete", "v2", "u1")]:
            affected_edges(g, d, index, kind, u, v)
            assert state() == before, (kind, u, v)

    def test_scope_copies_no_graph(self, fig2_graph):
        class UncopiedGraph(BipartiteGraph):
            def copy(self):
                raise AssertionError("affected_edges copied the graph")

        g, d, index = fig2_state(fig2_graph)
        uncopied = UncopiedGraph()
        uncopied.adj_u, uncopied.adj_v = g.adj_u, g.adj_v
        for kind, (u, v) in [("insert", ("v4", "u6")), ("delete", ("v7", "u6")),
                             ("insert", ("v9", "u1")), ("delete", ("v1", "u1"))]:
            got = affected_edges(uncopied, d, index, kind, u, v)
            want = affected_edges(g.copy(), d, index, kind, u, v)
            assert got.lines() == want.lines()
            assert got.affected_edges == want.affected_edges
            assert got.changed == want.changed
        assert uncopied.sorted_edges() == fig2_graph.sorted_edges()

    def test_bad_kind_and_missing_edge(self, fig2_graph):
        g, d, index = fig2_state(fig2_graph)
        with pytest.raises(InvalidArgumentError):
            affected_edges(g, d, index, "replace", "v4", "u6")
        with pytest.raises(UnknownEdgeError):
            affected_edges(g, d, index, "delete", "v4", "u6")


class TestApplyInsert:
    def test_fixture_report(self, fig2_graph):
        g, d, index = fig2_state(fig2_graph)
        report = apply_update(g, d, index, "insert", "v4", "u6")
        assert report.upper_bound == 4 and report.delta == 2
        assert report.fell_back is False
        assert report.affected_nodes == {3, 4, 5}
        assert report.changed == {
            ("v4", "u6"): (0, 3),
            ("v6", "u4"): (2, 3),
        }

    def test_fixture_index_shape(self, fig2_graph):
        g, d, index = fig2_state(fig2_graph)
        apply_update(g, d, index, "insert", "v4", "u6")
        assert sorted(n.level for n in index.nodes.values()) == [1, 2, 3, 4]
        by_level = {n.level: n for n in index.nodes.values()}
        assert by_level[1].members == set(FIG2_CLASSES[1])
        assert by_level[2].members == set(FIG2_CLASSES[2])
        assert by_level[3].members == (
            set(FIG2_CLASSES[4])
            | set(FIG2_CLASSES[5])
            | {("v6", "u4"), ("v4", "u6")}
        )
        assert by_level[4].members == set(FIG2_CLASSES[6])
        assert_matches_scratch(g, d, index)

    def test_isolated_insert_leaves_index_alone(self, fig2_graph):
        g, d, index = fig2_state(fig2_graph)
        before = levelled_members(index)
        report = apply_update(g, d, index, "insert", "zz1", "yy1")
        assert report.affected_edges == {("zz1", "yy1")}
        assert levelled_members(index) == before
        assert d.wing_number[("zz1", "yy1")] == 0
        assert_matches_scratch(g, d, index)

    def test_inserting_existing_edge_rejected(self, fig2_graph):
        g, d, index = fig2_state(fig2_graph)
        with pytest.raises(InvalidArgumentError):
            apply_update(g, d, index, "insert", "v1", "u1")

    @pytest.mark.parametrize("square", [0, 100])
    def test_work_is_about_one_enumeration_per_edge(self, square):
        """Inserting e = (a_i, b_i+2) into the square chain closes three
        butterflies and sets the bound to 3, above every wing number, so
        most edges of the chain have a cap above their value. The walk takes
        one in only next to an evaluation that stays above both old values,
        which the chain allows only near e, and a drop re-queues a
        neighbour only when it crosses the neighbour's value: a few
        evaluations and about one enumeration per edge they read, not one
        per chain edge."""
        g, d, index = square_chain()
        report = apply_update(
            g, d, index, "insert", f"a{square:03}", f"b{square + 2:03}"
        )
        assert report.upper_bound == 3
        assert report.counters["evaluations"] <= 20
        assert g.calls <= report.counters["evaluations"] + 1
        assert_matches_scratch(g, d, index)

    def test_block_does_not_pull_in_the_fringe(self):
        """K_{5,6} less (x4, y5), with a level-1 square chain attached to
        the block edge (x0, y0) by the butterfly {x0, a000} x {y0, b000}.
        Re-inserting (x4, y5) lifts the whole block from 15 and 16 to 20.
        A chain edge sits at level 1 with a cap of at most its support,
        below the level of any block edge it shares a butterfly with, so
        the walk takes none in."""
        block = [(f"x{i}", f"y{j}") for i in range(5) for j in range(6)]
        g = RecordingGraph(
            [f for f in block if f != ("x4", "y5")]
            + chain_edges(30) + [("x0", "b000"), ("a000", "y0")]
        )
        d = wing_decomposition(g)
        index = build_equiwing(g, d)
        assert d.wing_number[("x0", "y0")] == 16
        assert d.wing_number[("a000", "b000")] == 1
        report = apply_update(g, d, index, "insert", "x4", "y5")
        assert set(report.changed) == set(block)
        assert {x for f in g.read for x in f} <= {x for f in block for x in f}
        assert_matches_scratch(g, d, index)

    def test_rises_within_delta_and_each_edge_is_read_once(self, rng):
        """No existing edge rises by more than delta, the premise of every
        candidate's cap, and an update enumerates the butterflies of each
        edge at most once: on random 8x8 graphs, and on block inserts into
        TestMidScale's 1,702-edge graph."""

        def check(g, d, index, u, v):
            old = dict(d.wing_number)
            g.read.clear()
            report = apply_update(g, d, index, "insert", u, v)
            assert max(Counter(g.read).values()) == 1
            assert len(g.read) <= report.counters["evaluations"] + 1
            for f, new in wing_decomposition(g).wing_number.items():
                if f != (u, v):
                    assert new <= old[f] + report.delta, (f, old[f], new)

        for _ in range(20):
            edges = random_bipartite_edges(rng, 8, 8, 0.3)
            g = RecordingGraph(edges)
            absent = [(f"a{i}", f"b{j}") for i in range(8) for j in range(8)
                      if not g.has_edge(f"a{i}", f"b{j}")]
            d = wing_decomposition(g)
            check(g, d, build_equiwing(g, d), *rng.choice(absent))

        g = RecordingGraph(
            generate_bipartite(200, 200, 0.035, 91, [(12, 12, 0.9)] * 2)
        )
        d = wing_decomposition(g)
        index = build_equiwing(g, d)
        r = random.Random(17)
        for _ in range(6):
            largest = max(index.nodes.values(), key=lambda n: len(n.members))
            us = sorted({a for a, _ in largest.members})
            vs = sorted({b for _, b in largest.members})
            u, v = r.choice(us), r.choice(vs)
            while g.has_edge(u, v):
                u, v = r.choice(us), r.choice(vs)
            check(g, d, index, u, v)
        assert_matches_scratch(g, d, index)

    def test_block_reinsert_does_not_walk_the_lower_block(self):
        """Re-inserting (a73, b82), a top-level edge of TestMidScale's
        1,702-edge graph, raises 141 edges of its block to level 73-74. The
        other block's edges sit at levels 62-64, below every edge that
        rises, so the walk takes none of them in from above: it took in
        about 730 edges over about 1,700 evaluations when it did, and
        about 190 over 320-470 now, whatever the string hash seed."""
        g = build(generate_bipartite(200, 200, 0.035, 91, [(12, 12, 0.9)] * 2))
        d = wing_decomposition(g)
        index = build_equiwing(g, d)
        top = max(index.nodes.values(), key=lambda n: n.level)
        assert ("a73", "b82") in top.members and top.level == 74
        apply_update(g, d, index, "delete", "a73", "b82")
        report = apply_update(g, d, index, "insert", "a73", "b82")
        assert len(report.changed) == 141
        assert report.counters["taken_in"] <= 300
        assert report.counters["evaluations"] <= 900
        assert report.counters["settled"] > 0
        assert_matches_scratch(g, d, index)

    def test_settle_queues_the_readers_its_drops_cross(self):
        """Inserting (a7, b0) here has bound 5 and delta 3. The level-3
        edges (a4, b5) and (a5, b5) have cap 5 but meet only level-4 edges
        of the walk, so none takes them in and they count at 5 until the
        settle. Six level-4 walk edges read them and sit at exactly 5 then.
        The settle puts both back at 3, and those readers must go back on
        the queue, or they keep 5."""
        rows = {"a1": "0269", "a2": "58", "a3": "58", "a4": "04568",
                "a5": "0458", "a7": "26", "a8": "024689", "a9": "0289"}
        g = build([(u, f"b{j}") for u, js in rows.items() for j in js])
        d = wing_decomposition(g)
        index = build_equiwing(g, d)
        report = apply_update(g, d, index, "insert", "a7", "b0")
        assert (report.upper_bound, report.delta) == (5, 3)
        assert report.counters["settled"] == 2
        assert report.changed == {("a7", "b0"): (0, 4), ("a7", "b2"): (2, 4),
                                  ("a7", "b6"): (2, 4)}
        assert_matches_scratch(g, d, index)

    def test_risers_are_reached_from_at_or_below_their_level(self, rng):
        """The facts the insert walk rests on, on definitional wing numbers
        w before and w' after inserting e: every g != e with w'(g) > w(g)
        has w'(g) <= w'(e), and lies in a butterfly of the new graph with e
        or with a riser f such that w(f) <= w(g) < w'(f). On seeded inserts
        into random 8x8 graphs, with the oracle's wing numbers, and on
        block inserts into TestMidScale's 1,702-edge graph, with the
        peel's."""

        def check(g, old, new, e):
            risers = {f for f, w in new.items()
                      if f != e and w > old.get(f, 0)}
            for x in risers:
                assert new[x] <= new[e], (x, e)
                partners = set(g.butterfly_others(*x, {}))
                assert e in partners or any(
                    f in risers and old[f] <= old[x] < new[f]
                    for f in partners), (x, e)
            return len(risers)

        rose = 0
        for _ in range(40):
            edges = random_bipartite_edges(rng, 8, 8, rng.uniform(0.3, 0.6))
            absent = sorted({(f"a{i}", f"b{j}") for i in range(8)
                             for j in range(8)} - set(edges))
            if not absent:
                continue
            e = rng.choice(absent)
            rose += check(build(edges + [e]), wing_numbers_oracle(edges),
                          wing_numbers_oracle(edges + [e]), e)
        assert rose >= 100

        g = build(generate_bipartite(200, 200, 0.035, 91, [(12, 12, 0.9)] * 2))
        g.delete_edge("a73", "b82")
        old = wing_decomposition(g).wing_number
        r = random.Random(17)
        block = sorted({x for x, w in old.items() if w >= 60})
        us, vs = sorted({a for a, _ in block}), sorted({b for _, b in block})
        inserts = [("a73", "b82")]
        while len(inserts) < 4:
            e = r.choice(us), r.choice(vs)
            if not g.has_edge(*e) and e not in inserts:
                inserts.append(e)
        rose = 0
        for e in inserts:
            g.insert_edge(*e)
            new = wing_decomposition(g).wing_number
            rose += check(g, old, new, e)
            old = new
        assert rose >= 141


class TestApplyDelete:
    def test_fixture(self, fig2_graph):
        g, d, index = fig2_state(fig2_graph)
        report = apply_update(g, d, index, "delete", "v7", "u6")
        assert report.fell_back is False
        assert report.affected_nodes == {3, 5, 6}
        assert ("v7", "u6") not in d.wing_number
        assert not g.has_edge("v7", "u6")
        assert sum("absorbed" in ev for ev in report.events) == 1
        assert_matches_scratch(g, d, index)

    def test_delete_then_reinsert_restores_everything(self, fig2_graph):
        g, d, index = fig2_state(fig2_graph)
        original = levelled_members(index)
        original_counts = counts_by_members(index)
        apply_update(g, d, index, "delete", "v7", "u6")
        apply_update(g, d, index, "insert", "v7", "u6")
        assert levelled_members(index) == original
        assert counts_by_members(index) == original_counts
        assert_matches_scratch(g, d, index)

    def test_deleting_missing_edge_rejected(self, fig2_graph):
        g, d, index = fig2_state(fig2_graph)
        with pytest.raises(UnknownEdgeError):
            apply_update(g, d, index, "delete", "v4", "u6")

    @pytest.mark.parametrize("square", [0, 100])
    def test_work_is_bounded_by_what_changes(self, square):
        """Deleting e = (a_i, b_i+1) from the square chain kills square i and
        moves at most three wing numbers, so the delete may look at the
        dying butterfly's edges and the changed ones, not the block."""
        g, d, index = square_chain()
        e = (f"a{square:03}", f"b{square + 1:03}")
        (dying,) = butterflies_through(e, g.sorted_edges())
        g.calls = 0
        report = apply_update(g, d, index, "delete", *e)
        # one call takes the dying butterflies; the fixpoint enumerates once
        # per evaluation, of their edges and the changed ones; the scan for
        # dropped minima makes one call per changed edge
        touched = set(butterfly_edges(dying)) | set(report.changed)
        bound = 1 + len(touched) + len(report.changed)
        assert len(report.changed) <= 3 and g.num_edges > 20 * bound
        assert g.calls <= bound
        assert_matches_scratch(g, d, index)


class TestDeterministicEvents:
    """Payload lines must not depend on Python's string hash seed. This
    delete absorbs two surviving classes into one re-formed class, and the
    search that finds them follows set order."""

    SCRIPT = (
        "from wingsearch import *\n"
        "g = BipartiteGraph()\n"
        "for e in generate_bipartite(60, 60, 0.06, 91, [(8, 8, 0.9)]):\n"
        "    g.insert_edge(*e)\n"
        "d = wing_decomposition(g)\n"
        "ix = build_equiwing(g, d)\n"
        "r = apply_update(g, d, ix, 'delete', 'a41', 'b32')\n"
        "print('\\n'.join(r.lines()))\n"
    )

    def test_lines_equal_under_every_hash_seed(self):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        outs = set()
        for seed in range(6):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            outs.add(subprocess.run(
                [sys.executable, "-c", self.SCRIPT], env=env, check=True,
                capture_output=True, text=True,
            ).stdout)
        assert len(outs) == 1
        (out,) = outs
        assert out.count("event absorbed surviving class") == 2


class TestShiftedMinimum:
    """A butterfly whose minimum moves may chain or split the class of an
    unchanged edge at that minimum. An insert never splits a surviving
    class, so one that the move leaves alone keeps its id; a delete seeds
    the classes at each dropped minimum into its scope before surgery."""

    def state(self):
        g = build(generate_bipartite(16, 16, 0.15, 4, [(6, 6, 0.9)]))
        d = wing_decomposition(g)
        return g, d, build_equiwing(g, d)

    def test_insert_leaves_the_class_untouched(self):
        g, d, index = self.state()
        before = index.nodes[10]
        report = apply_update(g, d, index, "insert", "a12", "b1")
        assert 10 not in report.affected_nodes
        assert index.nodes[10] is before
        assert_matches_scratch(g, d, index)

    def test_delete_seeds_the_class_and_reforms_it_whole(self):
        g, d, index = self.state()
        before = index.nodes[11]
        scope = affected_edges(g, d, index, "delete", "a14", "b4")
        assert 11 in scope.affected_nodes
        assert before.members <= scope.affected_edges
        report = apply_update(g, d, index, "delete", "a14", "b4")
        assert 11 in report.affected_nodes and 11 not in index.nodes
        (again,) = [
            index.nodes[s] for s in report.new_node_ids
            if index.nodes[s].members == before.members
        ]
        assert again.level == before.level
        assert_matches_scratch(g, d, index)


class TestChainedAtAMovedMinimum:
    """Four complete blocks and one edge: B1 = {p0,p1,p2} x {q0,q1,q2},
    B2 = {r0,r1,r2} x {s0,s1,s2}, B3 = {r0,t0,t1} x {q0,o0,o1}, the edge
    (p0, s0), and D = {d0..d4} x {s0,ve,w0}. Inserting (p0, ve) lifts
    (p0, s0) from level 1 to 5, so the butterfly {p0,r0} x {q0,s0} chains
    the three level-4 classes of B1, B2 and B3 through its one changed
    edge; deleting (p0, ve) splits that class again."""

    @staticmethod
    def edges():
        def block(us, vs):
            return [(u, v) for u in us.split() for v in vs.split()]

        return (
            block("p0 p1 p2", "q0 q1 q2")
            + block("r0 r1 r2", "s0 s1 s2")
            + block("r0 t0 t1", "q0 o0 o1")
            + [("p0", "s0")]
            + block("d0 d1 d2 d3 d4", "s0 ve w0")
        )

    def apply(self, g, d, index, kind):
        report, comp = apply_update_comp(
            g, d, index, compress(index), kind, "p0", "ve"
        )
        assert report.fell_back is False
        assert_matches_scratch(g, d, index)
        assert serialize(comp) == serialize(compress(index))
        return report

    def test_insert_merges_three_surviving_classes(self):
        g = build(self.edges())
        assert g.num_edges == 43
        d = wing_decomposition(g)
        index = build_equiwing(g, d)
        level4 = [n.members for n in index.nodes.values() if n.level == 4]
        assert len(level4) == 3
        report = self.apply(g, d, index, "insert")
        assert d.wing_number[("p0", "s0")] == 5
        assert report.events == [
            f"absorbed surviving class {s} at level 4" for s in (2, 3, 4)
        ]
        (merged,) = [n for n in index.nodes.values() if n.level == 4]
        assert merged.members == frozenset().union(*level4)

    def test_delete_splits_the_class_it_seeds(self):
        g = build(self.edges() + [("p0", "ve")])
        d = wing_decomposition(g)
        index = build_equiwing(g, d)
        (chained,) = [n for n in index.nodes.values() if n.level == 4]
        assert len(chained.members) == 27
        scope = affected_edges(g, d, index, "delete", "p0", "ve")
        assert chained.sn_id in scope.affected_nodes
        assert len(scope.affected_nodes) == 2
        assert len(scope.affected_edges) == 29
        self.apply(g, d, index, "delete")
        assert d.wing_number[("p0", "s0")] == 1
        assert sum(n.level == 4 for n in index.nodes.values()) == 3


class TestCountPatch:
    """Counts are patched per pair of left vertices: a delete can leave a
    pair with fewer than two common neighbours, whose old bloom must still
    be taken back, and an insert can give a pair its first bloom."""

    def test_bloom_dies_then_returns(self, fig2_graph):
        g, d, index = fig2_state(fig2_graph)
        # (v1, v2) share u1 and u2; without (v1, u1) they share u2 only
        assert g.adj_u["v1"] & g.adj_u["v2"] == {"u1", "u2"}
        for kind in ("delete", "insert"):
            report = apply_update(g, d, index, kind, "v1", "u1")
            assert report.fell_back is False, kind
            assert not report.events, kind
            want = justification_counts_oracle(g.sorted_edges())
            assert counts_by_members(index) == want, kind
            assert_matches_scratch(g, d, index)
        assert len(g.adj_u["v1"] & g.adj_u["v2"]) == 2


class TestSurgeryCounters:
    """Surgery's counters against every left-vertex pair of the graph that
    holds e. It reads the blooms of the scope edges, those of the classes
    its union pass absorbs included, from the decomposition's bloom map:
    `cached` counts the edges found there, `pairs` the neighbour-set
    intersections the rest cost, a pair at most once per update, and
    `blooms` the pairs read with two or more common neighbours.
    `reformed` counts the classes surgery removed."""

    @staticmethod
    def meeting(graph, edges):
        """pair -> its common neighbours, for each left-vertex pair that
        shares a neighbour x with (u1, x) or (u2, x) in `edges`."""
        out = {}
        for a, b in itertools.combinations(sorted(graph.adj_u), 2):
            common = graph.adj_u[a] & graph.adj_u[b]
            if any((a, x) in edges or (b, x) in edges for x in common):
                out[a, b] = common
        return out

    @pytest.mark.parametrize("kind, u, v", [
        ("insert", "v4", "u6"), ("delete", "v7", "u6"),
        ("delete", "v1", "u1"), ("insert", "v9", "u1"),
    ])
    def test_counts_match_a_brute_force(self, fig2_graph, kind, u, v):
        """On a fresh decomposition the map is cold: each pair that meets
        the edges read is intersected once."""
        g, d, index = fig2_state(fig2_graph)
        scope = affected_edges(g, d, index, kind, u, v).affected_edges
        before = set(index.nodes)
        holding_e = g.copy()
        report = apply_update(g, d, index, kind, u, v)
        if kind == "insert":
            holding_e = g
        met = self.meeting(holding_e, report.affected_edges)
        assert report.counters["pairs"] == len(met)
        assert report.counters["blooms"] == sum(len(c) >= 2
                                                for c in met.values())
        assert report.counters["cached"] == 0
        assert report.counters["reformed"] == len(before - set(index.nodes))
        assert report.counters["reformed"] == len(report.affected_nodes)
        if (kind, u) == ("delete", "v7"):  # the union pass absorbs a class
            assert report.affected_edges > scope

    def test_later_updates_read_the_map(self, fig2_graph):
        """Each update after the first finds in the map the edges an
        earlier one read, but for those its invalidation dropped: e and
        the edges of each butterfly through e, on the graph that holds e,
        after an insert's edge goes in and after a delete's comes out. A
        kept run is that of a pair whose common neighbours have not moved
        since it was read."""
        g, d, index = fig2_state(fig2_graph)
        edges, runs = set(), {}  # what the map should hold
        ops = [("insert", "v4", "u6"), ("delete", "v7", "u6"),
               ("insert", "v1", "u3"), ("delete", "v1", "u1"),
               ("insert", "v7", "u6")]
        hits = 0
        for kind, u, v in ops:
            holding_e = g.copy()
            holding_e.insert_edge(u, v)
            dropped = {(u, v)} | {f for b in butterflies_through(
                (u, v), holding_e.sorted_edges()) for f in butterfly_edges(b)}
            if kind == "insert":
                edges -= dropped
            report = apply_update(g, d, index, kind, u, v)
            read = report.affected_edges
            cold = read - edges
            met = self.meeting(holding_e, cold)
            intersected = {p for p in met if runs.get(p) != met[p]}
            blooms = {p for p, c in self.meeting(holding_e, read).items()
                      if len(c) >= 2}
            assert report.counters["cached"] == len(read & edges), kind
            assert report.counters["pairs"] == len(intersected), kind
            assert report.counters["blooms"] == len(blooms), kind
            hits += report.counters["cached"]
            edges |= read
            runs.update((p, c) for p, c in met.items() if len(c) >= 2)
            if kind == "delete":
                edges -= dropped
            none = set()
            runs = {p: c for p, c in runs.items()
                    if g.adj_u.get(p[0], none) & g.adj_u.get(p[1], none) == c}
        assert hits > 0


def assert_bloom_map_fresh(graph, decomp):
    """Each entry the decomposition's bloom map keeps equals a fresh read
    of the adjacency sets: an edge's pairs, as a set, are those whose
    common neighbours hold it and number two or more, each with its run;
    a run's wedges, as a set, are its pair's edges to those neighbours,
    and each is the decomposition's own tuple, which the map keeps for
    every edge of the graph and no other."""
    adj_u, adj_v = graph.adj_u, graph.adj_v
    blooms = decomp.bloom_map
    key = {e: e for e in decomp.wing_number}
    if blooms._key is not None:  # the tuples it takes runs from
        assert blooms._key == key
        assert all(key[e] is e for e in blooms._key)
    for (u1, x), partners in blooms.partners.items():
        assert graph.has_edge(u1, x), (u1, x)
        assert len(set(partners)) == len(partners), (u1, x)
        want = {u2 for u2 in adj_v[x]
                if u2 != u1 and len(adj_u[u1] & adj_u[u2]) >= 2}
        assert set(partners) == want, (u1, x)
        for u2 in partners:
            assert (min(u1, u2), max(u1, u2)) in blooms.runs, (u1, u2)
    for (a, b), run in blooms.runs.items():
        assert a < b
        common = adj_u.get(a, set()) & adj_u.get(b, set())
        assert len(common) >= 2, (a, b)
        assert len(run) == 2 * len(common), (a, b)
        assert set(run) == {(y, x) for x in common for y in (a, b)}, (a, b)
        assert all(key[w] is w for w in run), (a, b)


class TestBloomMap:
    """The kept bloom map against a fresh read after every update:
    `invalidate` must drop each entry that an update moves."""

    @staticmethod
    def warm(graph, decomp):
        """Read every edge's blooms into the map."""
        decomp.bloom_map.read(graph, decomp.wing_number, graph.sorted_edges(),
                              {}, set())

    @pytest.mark.parametrize("spec", [
        (200, 200, 0.035, 91, [(12, 12, 0.9)] * 2),
        (30, 30, 0.08, 3, [(8, 8, 0.85), (6, 6, 0.9)]),
    ], ids=["1702-edges", "30x30"])
    def test_stream_keeps_every_entry_fresh(self, spec):
        """Seeded updates in undo pairs, then a drift: insert e, delete e,
        delete f, insert g; the map fills as surgery reads."""
        g = build(generate_bipartite(*spec))
        d = wing_decomposition(g)
        index = build_equiwing(g, d)
        r = random.Random(23)
        cached = 0
        for step in range(200):
            if step % 4 == 1:
                kind = "delete"  # undo the insert before
            elif step % 4 == 2:
                kind, (u, v) = "delete", r.choice(g.sorted_edges())
            else:
                us, vs = sorted(g.adj_u), sorted(g.adj_v)
                u, v = r.choice(us), r.choice(vs)
                while g.has_edge(u, v):
                    u, v = r.choice(us), r.choice(vs)
                kind = "insert"
            report = apply_update(g, d, index, kind, u, v)
            assert report.fell_back is False, step
            cached += report.counters["cached"]
            assert_bloom_map_fresh(g, d)
        assert cached > 0 and d.bloom_map.runs
        assert_matches_scratch(g, d, index)

    def test_insert_gives_a_pair_its_bloom(self, fig2_graph):
        g, d, index = fig2_state(fig2_graph)
        # (v1, v3) share u2 alone; with (v1, u3) they share u2 and u3
        assert g.adj_u["v1"] & g.adj_u["v3"] == {"u2"}
        self.warm(g, d)
        assert ("v1", "v3") not in d.bloom_map.runs
        apply_update(g, d, index, "insert", "v1", "u3")
        assert_bloom_map_fresh(g, d)
        self.warm(g, d)
        assert set(d.bloom_map.runs["v1", "v3"]) == {
            ("v1", "u2"), ("v3", "u2"), ("v1", "u3"), ("v3", "u3")}
        assert_bloom_map_fresh(g, d)

    def test_delete_takes_a_pair_bloom_away(self, fig2_graph):
        g, d, index = fig2_state(fig2_graph)
        assert g.adj_u["v1"] & g.adj_u["v2"] == {"u1", "u2"}
        self.warm(g, d)
        assert ("v1", "v2") in d.bloom_map.runs
        apply_update(g, d, index, "delete", "v1", "u1")
        assert ("v1", "v2") not in d.bloom_map.runs
        assert_bloom_map_fresh(g, d)
        self.warm(g, d)
        assert ("v1", "v2") not in d.bloom_map.runs
        assert_matches_scratch(g, d, index)

    def test_delete_of_a_vertex_last_edge(self, fig2_graph):
        """v1 keeps u2 alone, then loses it; a reinsert reads the graph
        afresh, under the decomposition's new tuple for the edge."""
        g, d, index = fig2_state(fig2_graph)
        for u, v in [("v1", "u1"), ("v1", "u2")]:
            self.warm(g, d)
            apply_update(g, d, index, "delete", u, v)
            assert_bloom_map_fresh(g, d)
        assert "v1" not in g.adj_u
        self.warm(g, d)
        for u, v in [("v1", "u2"), ("v1", "u1")]:
            apply_update(g, d, index, "insert", u, v)
            assert_bloom_map_fresh(g, d)
            self.warm(g, d)
        assert ("v1", "v2") in d.bloom_map.runs
        assert_bloom_map_fresh(g, d)
        assert_matches_scratch(g, d, index)


class TestFallbackValve:
    def test_corrupt_index_triggers_rebuild(self, fig2_graph):
        g, d, index = fig2_state(fig2_graph)
        # sabotage: a super edge between two same-level nodes can never be
        # produced by surgery, so the validity sweep must catch it
        index.super_edge_set.add((2, 3))
        index.edge_counts[(2, 3)] = 1
        report = apply_update(g, d, index, "insert", "v4", "u6")
        assert report.fell_back is True
        # surgery re-forms class 3, so the check after it finds the super
        # edge dangling; the first problem is kept, and listed as an event
        reason = "super edge (2,3) touches a missing node"
        assert report.fallback_reason == reason
        assert f"event {reason}" in report.lines()
        assert index.validate() == []
        assert_matches_scratch(g, d, index)

    def test_negative_count_falls_back(self, fig2_graph):
        """Deleting (v6, u4) re-forms class 3 and takes back the two
        butterflies that justify super edge (3, 4). Stored as 1, that count
        goes to -1, and it is kept as computed: the check after surgery
        names it and the update falls back to a rebuild."""
        g, d, index = fig2_state(fig2_graph)
        assert index.edge_counts[(3, 4)] == 2
        index.edge_counts[(3, 4)] = 1
        report = apply_update(g, d, index, "delete", "v6", "u4")
        assert report.fell_back is True
        assert report.events == ["super edge (3,4) touches a missing node",
                                 "non-positive super edge count"]
        assert report.fallback_reason == report.events[0]
        assert "event non-positive super edge count" in report.lines()
        fresh = build_equiwing(g)
        assert serialize(index) == serialize(fresh)
        assert index.edge_counts == fresh.edge_counts
        assert_matches_scratch(g, d, index)

    def test_fallback_adopts_every_attribute(self, fig2_graph, monkeypatch):
        """After a fallback the index holds every attribute of the rebuild,
        derived ones included: here the rebuild's adjacency, derived before
        it is adopted."""
        rebuilds = []

        def rebuild(graph, decomp):
            rebuilt = build_equiwing(graph, decomp)
            rebuilt.adjacency()
            rebuilds.append(rebuilt)
            return rebuilt

        monkeypatch.setattr(dynamic, "build_equiwing", rebuild)
        g, d, index = fig2_state(fig2_graph)
        index.edge_counts[(3, 4)] = 1
        report = apply_update(g, d, index, "delete", "v6", "u4")
        assert report.fell_back is True
        (rebuilt,) = rebuilds
        assert vars(index).keys() == vars(rebuilt).keys()
        for name, value in vars(rebuilt).items():
            assert getattr(index, name) is value, name

    def test_rebuild_that_fails_validation_raises(self, fig2_graph,
                                                  monkeypatch):
        def rebuild(graph, decomp):
            rebuilt = build_equiwing(graph, decomp)
            rebuilt.edge_counts[min(rebuilt.edge_counts)] = 0
            return rebuilt

        monkeypatch.setattr(dynamic, "build_equiwing", rebuild)
        g, d, index = fig2_state(fig2_graph)
        index.edge_counts[(3, 4)] = 1
        with pytest.raises(InternalConsistencyError,
                           match="index rebuild failed validation: "
                                 "non-positive super edge count"):
            apply_update(g, d, index, "delete", "v6", "u4")

    def test_loaded_index_of_another_graph_changes_nothing(self, fig2_graph):
        """A loaded index whose top node sits one level too high is refused
        before the update touches the graph, decomposition or index."""
        g, d, index = fig2_state(fig2_graph)
        loaded = deserialize(serialize(index))
        top = loaded.remove_node(6)
        loaded.add_node(SuperNode(6, top.level + 1, top.members))
        assert loaded.validate() == []
        text = serialize(loaded)
        before = (g.sorted_edges(), dict(d.wing_number), dict(d.support),
                  d.bloom_runs)
        with pytest.raises(InternalConsistencyError,
                           match="index does not match graph"):
            apply_update(g, d, loaded, "insert", "v4", "u6")
        after = g.sorted_edges(), d.wing_number, d.support, d.bloom_runs
        assert after == before
        assert serialize(loaded) == text and loaded.edge_counts is None


class TestCompressedIndexRefused:
    def test_apply_update_changes_nothing(self):
        """A compressed index has merged nodes that the surgery cannot
        maintain: `apply_update` refuses it before the graph, the
        decomposition or the index changes."""
        g = build(generate_bipartite(30, 30, 0.15, 4, [(8, 8, 0.9)]))
        d = wing_decomposition(g)
        comp = compress(build_equiwing(g, d))
        assert comp.merge_log
        text = serialize(comp)
        before = (g.sorted_edges(), dict(d.wing_number), dict(d.support),
                  d.bloom_runs)
        e = random.Random(4).choice(g.sorted_edges())
        for kind, (u, v) in (("delete", e), ("insert", ("a0", "b-new"))):
            with pytest.raises(InvalidArgumentError, match="compressed"):
                apply_update(g, d, comp, kind, u, v)
            after = g.sorted_edges(), d.wing_number, d.support, d.bloom_runs
            assert after == before
            assert serialize(comp) == text and comp.validate() == []


class TestRandomSequences:
    def mutate(self, rng, g, d, index, comp=None):
        edges = g.sorted_edges()
        us = sorted({u for u, _ in edges}) or ["a0"]
        vs = sorted({v for _, v in edges}) or ["b0"]
        absent = [(u, v) for u in us for v in vs if not g.has_edge(u, v)]
        if rng.random() < 0.1:  # occasionally bring in a fresh vertex
            fresh = ("a%d" % rng.randint(90, 99), rng.choice(vs))
            if not g.has_edge(*fresh):
                absent.append(fresh)
        if not edges or (absent and rng.random() < 0.55):
            u, v = rng.choice(absent)
            kind = "insert"
        else:
            u, v = rng.choice(edges)
            kind = "delete"
        if comp is None:
            return apply_update(g, d, index, kind, u, v)
        report, comp = apply_update_comp(g, d, index, comp, kind, u, v)
        return report, comp

    def test_maintenance_tracks_scratch(self, rng):
        fallbacks = 0
        for seed in range(10):
            r = random.Random(7000 + seed)
            g = build(random_bipartite_edges(r, 8, 8, 0.3))
            d = wing_decomposition(g)
            index = build_equiwing(g, d)
            for step in range(25):
                report = self.mutate(r, g, d, index)
                fallbacks += report.fell_back
                assert d.wing_number == wing_decomposition(g).wing_number
                if step % 5 == 4:
                    assert_matches_scratch(g, d, index)
            assert_matches_scratch(g, d, index)
        assert fallbacks == 0

    def test_report_stays_within_announced_scope(self, rng):
        for seed in range(6):
            r = random.Random(8100 + seed)
            g = build(random_bipartite_edges(r, 8, 8, 0.3))
            d = wing_decomposition(g)
            index = build_equiwing(g, d)
            for _ in range(20):
                report = self.mutate(r, g, d, index)
                assert set(report.changed) <= report.affected_edges
                if report.kind == "insert":
                    for f, (old, new) in report.changed.items():
                        assert new <= report.upper_bound
                        if f != report.edge:  # e' itself answers to the bound
                            assert new - old <= report.delta


class TestCompMaintenance:
    def test_fig2_insert_keeps_comp_in_step(self, fig2_graph):
        g, d, index = fig2_state(fig2_graph)
        comp = compress(index)
        report, comp = apply_update_comp(g, d, index, comp, "insert", "v4", "u6")
        assert report.fell_back is False
        assert list(report.timings) == ["start", "walk", "reclassify",
                                        "patch_counts", "validate", "compress"]
        assert all(s >= 0 for s in report.timings.values())
        assert len(comp.nodes) == 4
        assert comp.compression_ratio() == pytest.approx(1.0)
        want = {frozenset(n.members): n.level for n in compress(index).nodes.values()}
        assert {frozenset(n.members): n.level for n in comp.nodes.values()} == want

    def test_sequences_match_full_recompression(self, rng):
        for seed in range(6):
            r = random.Random(9200 + seed)
            g = build(random_bipartite_edges(r, 8, 8, 0.3))
            d = wing_decomposition(g)
            index = build_equiwing(g, d)
            comp = compress(index)
            for _ in range(15):
                _report, comp = self.mutate_comp(r, g, d, index, comp)
                full = compress(index)
                key = lambda ix: {
                    frozenset(n.members): n.level for n in ix.nodes.values()
                }
                assert key(comp) == key(full)
                labels = sorted({x for e in g.sorted_edges() for x in e})
                if labels:
                    q = r.choice(labels)
                    k = r.randint(1, max(index.k_max, 1))
                    assert query_comp(comp, q, k) == query_equiwing(index, q, k)

    def mutate_comp(self, rng, g, d, index, comp):
        return TestRandomSequences().mutate(rng, g, d, index, comp)


class TestOrderCaches:
    """Each super node sorts its members once and keeps that order; no
    update may leave a node whose kept order disagrees with its members."""

    def test_answers_and_files_after_each_update(self):
        edges = generate_bipartite(20, 20, 0.15, 3, [(7, 7, 0.9)])
        # the same updates on two copies: the first is queried after every
        # step, the second never is, and both must write the same bytes
        states = []
        for _ in range(2):
            g = build(edges)
            d = wing_decomposition(g)
            index = build_equiwing(g, d)
            states.append([g, d, index, compress(index)])
        r = random.Random(41)
        for step in range(20):
            g = states[0][0]
            if step % 2:
                kind, (u, v) = "delete", r.choice(g.sorted_edges())
            else:
                kind, us, vs = "insert", sorted(g.adj_u), sorted(g.adj_v)
                u, v = r.choice(us), r.choice(vs)
                while g.has_edge(u, v):
                    u, v = r.choice(us), r.choice(vs)
            for state in states:
                report, state[3] = apply_update_comp(*state, kind, u, v)
            g, d, index, comp = states[0]
            touched = sorted({x for e in report.changed for x in e} - {u, v})
            for q in [u, v] + r.sample(touched, min(3, len(touched))):
                if not g.has_vertex(q):
                    continue
                own = [(q, x) for x in g.adj_u.get(q, ())]
                own += [(x, q) for x in g.adj_v.get(q, ())]
                dense = max([1] + [d.wing_number[e] for e in own])
                for k in (1, 2, dense):
                    want = baseline_search(g, d, q, k)
                    assert query_equiwing(index, q, k) == want, (step, q, k)
                    assert query_comp(comp, q, k) == want, (step, q, k)
            _g, _d, cold_index, cold_comp = states[1]
            assert serialize(index) == serialize(cold_index), step
            assert serialize(comp) == serialize(cold_comp), step
            for ix in (index, comp, cold_index, cold_comp):
                assert all(type(n.members) is frozenset for n in ix.nodes.values())


class TestMidScale:
    """Maintenance against a rebuild where classes are large: a 1,702-edge
    graph with two planted 12x12 blocks, whose largest classes hold 349 and
    287 members. Every step is checked against a scratch decomposition,
    build and compression, and each insert's report against the one that
    `affected_edges` gives beforehand. Budget: about 5-10 s on 2 vCPUs."""

    def test_mutations_track_a_rebuild(self):
        g = build(generate_bipartite(200, 200, 0.035, 91, [(12, 12, 0.9)] * 2))
        d = wing_decomposition(g)
        index = build_equiwing(g, d)
        comp = compress(index)
        sizes = sorted((len(n.members) for n in index.nodes.values()), reverse=True)
        assert sizes[:2] == [349, 287]
        r = random.Random(17)
        for step in range(24):
            largest = max(index.nodes.values(), key=lambda n: len(n.members))
            if step % 2:  # delete: inside the largest class, or anywhere
                pool = largest.ordered() if step % 4 == 1 else g.sorted_edges()
                kind, (u, v) = "delete", r.choice(pool)
            else:  # insert: between the largest class's vertices, or anywhere
                if step % 4 == 0:
                    us = sorted({a for a, _ in largest.members})
                    vs = sorted({b for _, b in largest.members})
                else:
                    us, vs = sorted(g.adj_u), sorted(g.adj_v)
                u, v = r.choice(us), r.choice(vs)
                while g.has_edge(u, v):
                    u, v = r.choice(us), r.choice(vs)
                kind = "insert"
                # on the state that earlier updates carried, supports included
                scope = affected_edges(g, d, index, kind, u, v)
            report, comp = apply_update_comp(g, d, index, comp, kind, u, v)
            assert report.fell_back is False, step
            if kind == "insert":
                assert scope.changed == report.changed, step
                assert scope.upper_bound == report.upper_bound, step
                assert scope.delta == report.delta, step
            assert_matches_scratch(g, d, index)
            assert serialize(comp) == serialize(compress(index))

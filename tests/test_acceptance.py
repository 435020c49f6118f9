"""End-to-end acceptance checks.

Each test covers one numbered claim about the library, prints a single
summary line, and enforces the claimed runtime budget. Run with -s to see
the summary lines; a plain -v run shows one pass/fail line per criterion.
"""

import random
import time

import pytest

import oracles
from wingsearch import (
    QueryCounters,
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
    run_bench,
    serialize,
    serialize_comp,
    wing_decomposition,
)

from conftest import (
    FIG2_CLASSES,
    FIG2_PSI,
    FIG2_SUPER_EDGES,
    build,
    levelled_members,
    random_bipartite_edges,
    small_graph_family,
)


def edge_shapes(index):
    return {
        frozenset(
            (frozenset(index.nodes[a].members), frozenset(index.nodes[b].members))
        )
        for a, b in index.super_edge_set
    }


def announce(n, t0, budget, msg):
    dt = time.perf_counter() - t0
    print(f"\n[criterion {n}] PASS ({dt:.2f}s, budget {budget:.0f}s): {msg}")
    assert dt < budget


def test_criterion_01_running_example_wing_numbers(fig2_graph):
    t0 = time.perf_counter()
    decomp = wing_decomposition(fig2_graph)
    assert decomp.wing_number == FIG2_PSI
    assert len(decomp.wing_number) == 25
    announce(1, t0, 1, "all 25 wing numbers exact on the running example")


def test_criterion_02_index_fixture(fig2_graph):
    t0 = time.perf_counter()
    index = build_equiwing(fig2_graph)
    assert len(index.nodes) == 6
    assert sorted(len(n.members) for n in index.nodes.values()) == \
        [1, 2, 2, 3, 8, 9]
    assert sorted(n.level for n in index.nodes.values()) == [1, 2, 2, 3, 3, 4]
    assert {s: frozenset(n.members) for s, n in index.nodes.items()} == \
        FIG2_CLASSES
    assert index.super_edge_set == FIG2_SUPER_EDGES
    announce(2, t0, 1, "6 super nodes and the exact 6 super edges")


def test_criterion_03_compression_fixture(fig2_graph):
    t0 = time.perf_counter()
    index = build_equiwing(fig2_graph)
    comp = compress(index)
    assert len(comp.nodes) == 5
    assert len(comp.super_edge_set) == 5
    merged = [n for n in comp.nodes.values() if n.level == 2]
    assert len(merged) == 1
    assert merged[0].members == {("v2", "u2"), ("v3", "u2"), ("v6", "u4")}
    assert comp.compression_ratio() == 1.2
    announce(3, t0, 1, "5/5 compressed shape with ratio 1.2")


def test_criterion_04_query_fixture(fig2_graph):
    t0 = time.perf_counter()
    decomp = wing_decomposition(fig2_graph)
    index = build_equiwing(fig2_graph, decomp)
    comp = compress(index)
    results = [
        baseline_search(fig2_graph, decomp, "v5", 3),
        query_equiwing(index, "v5", 3),
        query_comp(comp, "v5", 3),
    ]
    for wings in results:
        assert [len(w) for w in wings] == [8, 11]
        assert set(wings[0]) == FIG2_CLASSES[4]
        assert set(wings[1]) == FIG2_CLASSES[5] | FIG2_CLASSES[6]
    assert results[0] == results[1] == results[2]
    announce(4, t0, 1, "q=v5,k=3 exact from all three engines")


def test_criterion_05_oracle_equivalence_sweep():
    t0 = time.perf_counter()
    graphs = queries = 0
    for _seed, edges in small_graph_family(200):
        g = build(edges)
        d = wing_decomposition(g)
        index = build_equiwing(g, d)
        comp = compress(index)
        labels = sorted({x for e in edges for x in e})
        graphs += 1
        for k in range(1, d.k_max + 1):
            oracle_wings = oracles.wings_oracle(edges, k)
            for q in labels:
                want = {w for w in oracle_wings if any(q in e for e in w)}
                for wings in (
                    baseline_search(g, d, q, k),
                    query_equiwing(index, q, k),
                    query_comp(comp, q, k),
                ):
                    assert {frozenset(w) for w in wings} == want, (
                        _seed, q, k
                    )
                queries += 1
    assert graphs >= 200
    announce(
        5, t0, 120,
        f"{graphs} graphs, {queries} (q,k) pairs, 3 engines == oracle",
    )


@pytest.mark.slow
def test_criterion_06_dynamic_soundness_sweep():
    t0 = time.perf_counter()
    sequences, mutations = 100, 200
    fallbacks = steps = 0
    for i in range(sequences):
        rng = random.Random(40_000 + i)
        g = build(random_bipartite_edges(rng, 8, 8, 0.3))
        d = wing_decomposition(g)
        index = build_equiwing(g, d)
        comp = compress(index)
        for _step in range(mutations):
            edges = g.sorted_edges()
            us = sorted({u for u, _ in edges}) or ["a0"]
            vs = sorted({v for _, v in edges}) or ["b0"]
            absent = [(u, v) for u in us for v in vs if not g.has_edge(u, v)]
            if rng.random() < 0.1:
                fresh = ("a%d" % rng.randint(90, 99), rng.choice(vs))
                if not g.has_edge(*fresh):
                    absent.append(fresh)
            if not edges or (absent and rng.random() < 0.55):
                kind, (u, v) = "insert", rng.choice(absent)
            else:
                kind, (u, v) = "delete", rng.choice(edges)

            before_wn = dict(d.wing_number)
            before_nodes = {s: frozenset(n.members) for s, n in index.nodes.items()}
            report, comp = apply_update_comp(g, d, index, comp, kind, u, v)
            steps += 1
            fallbacks += report.fell_back

            # (a) maintained wing numbers equal a from-scratch decomposition
            scratch_d = wing_decomposition(g)
            assert d.wing_number == scratch_d.wing_number, (i, _step)

            # (b) maintained indices are query-equivalent to rebuilds: the
            # rebuilt super graphs have the same nodes and adjacency (so
            # every (q,k) answer is forced), plus direct spot checks
            scratch_ew = build_equiwing(g, scratch_d)
            assert levelled_members(index) == levelled_members(scratch_ew)
            assert edge_shapes(index) == edge_shapes(scratch_ew)
            scratch_comp = compress(scratch_ew)
            assert levelled_members(comp) == levelled_members(scratch_comp)
            assert edge_shapes(comp) == edge_shapes(scratch_comp)
            labels = sorted({x for e in g.sorted_edges() for x in e})
            for _ in range(2):
                if not labels or index.k_max < 1:
                    break
                q = rng.choice(labels)
                k = rng.randint(1, index.k_max)
                want = baseline_search(g, scratch_d, q, k)
                assert query_equiwing(index, q, k) == want
                assert query_comp(comp, q, k) == want

            # (c) the pre-computed bound holds for the new edge
            if kind == "insert":
                assert d.wing_number[(u, v)] <= report.upper_bound

            # (d) no existing edge rises by more than delta; deletions
            # never raise any wing number
            for f, new in d.wing_number.items():
                old = before_wn.get(f, 0)
                if kind == "insert" and f != (u, v):
                    assert new - old <= report.delta
                if kind == "delete":
                    assert new <= old

            # (e) announced scopes cover everything that moved
            changed = {
                f
                for f in set(before_wn) | set(d.wing_number)
                if before_wn.get(f, 0) != d.wing_number.get(f, 0)
            }
            assert changed <= report.affected_edges
            after_nodes = {s: frozenset(n.members) for s, n in index.nodes.items()}
            for sid, members in before_nodes.items():
                if after_nodes.get(sid) != members:
                    assert sid in report.affected_nodes, (i, _step, sid)
            for sid in set(after_nodes) - set(before_nodes):
                assert sid in report.new_node_ids, (i, _step, sid)
    assert steps == sequences * mutations
    announce(
        6, t0, 300,
        f"{sequences}x{mutations} mutations tracked scratch rebuilds "
        f"({fallbacks} fallbacks)",
    )


def test_criterion_07_dynamic_fixture(fig2_graph):
    t0 = time.perf_counter()
    g = fig2_graph.copy()
    d = wing_decomposition(g)
    index = build_equiwing(g, d)
    report = apply_update(g, d, index, "insert", "v4", "u6")
    assert report.upper_bound == 4
    assert report.affected_nodes == {3, 4, 5}
    assert len(report.affected_nodes) == 3
    assert len(index.nodes) == 4
    assert sorted(n.level for n in index.nodes.values()) == [1, 2, 3, 4]
    announce(7, t0, 1, "insert (v4,u6): bound 4, 3 affected nodes, 4 remain")


def test_criterion_08_linear_access_property():
    t0 = time.perf_counter()
    checked = 0
    for _seed, edges in small_graph_family(60):
        g = build(edges)
        d = wing_decomposition(g)
        index = build_equiwing(g, d)
        comp = compress(index)
        labels = sorted({x for e in edges for x in e})
        for k in range(1, d.k_max + 1):
            for q in labels:
                for fn, ix in ((query_equiwing, index), (query_comp, comp)):
                    counters = QueryCounters()
                    wings = fn(ix, q, k, counters=counters)
                    assert all(
                        level >= k for _sid, level in counters.visited_nodes
                    )
                    visited_ids = [s for s, _ in counters.visited_nodes]
                    assert len(visited_ids) == len(set(visited_ids))
                    flat = [e for w in wings for e in w]
                    assert counters.emitted_edges == len(flat) == len(set(flat))
                    checked += 1
    announce(
        8, t0, 60,
        f"{checked} instrumented queries stayed at level >= k, no re-emits",
    )


@pytest.mark.slow
def test_criterion_09_directional_performance():
    t0 = time.perf_counter()
    edges = generate_bipartite(
        2000, 2000, 0.0125, seed=91,
        blocks=((30, 30, 0.9), (30, 30, 0.9), (30, 30, 0.9)),
    )
    assert len(edges) > 50_000
    g = build(edges)
    d = wing_decomposition(g)
    index = build_equiwing(g, d)
    comp = compress(index)
    assert len(comp.nodes) <= len(index.nodes)
    engines = [
        ("baseline", lambda q, k: baseline_search(g, d, q, k)),
        ("equiwing", lambda q, k: query_equiwing(index, q, k)),
        ("comp", lambda q, k: query_comp(comp, q, k)),
    ]
    rows = run_bench(g, engines, 2, per_bucket=6, seed=0, n_buckets=10)
    assert len(rows) == 10
    for row in rows:
        means = row["means"]
        assert means["equiwing"] < means["baseline"], row
        assert means["comp"] < means["baseline"], row
    speedup = min(
        row["means"]["baseline"] / row["means"]["equiwing"] for row in rows
    )
    announce(
        9, t0, 600,
        f"{len(edges)} edges: indexed beat baseline in all 10 deciles "
        f"(worst speedup {speedup:.0f}x), {len(comp.nodes)} <= "
        f"{len(index.nodes)} nodes",
    )


def test_criterion_10_round_trip(fig2_graph):
    t0 = time.perf_counter()
    cases = []
    index = build_equiwing(fig2_graph)
    cases.append((index, compress(index)))
    for seed in range(20):
        rng = random.Random(60_000 + seed)
        g = build(random_bipartite_edges(rng, 9, 9, rng.uniform(0.2, 0.5)))
        ix = build_equiwing(g)
        cases.append((ix, compress(ix)))
    # and an index that has been through surgery, not just construction
    g = fig2_graph.copy()
    d = wing_decomposition(g)
    ix = build_equiwing(g, d)
    apply_update(g, d, ix, "insert", "v4", "u6")
    cases.append((ix, compress(ix)))
    for ew, ewc in cases:
        text = serialize(ew)
        assert serialize(deserialize(text)) == text
        text = serialize_comp(ewc)
        assert serialize_comp(deserialize_comp(text)) == text
    announce(10, t0, 60, f"{len(cases)} index pairs round-tripped bytewise")

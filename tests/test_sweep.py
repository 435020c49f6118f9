"""Exhaustive small-graph contract for single-edge maintenance.

Every bipartite graph on 3 x 4 vertices, one per class under row and
column permutation, takes every vertex pair as an update through
`apply_update_comp`: an insert where the edge is absent, a delete where it
is present. After each update the maintained wing numbers and supports,
classes with their levels, super edges with their justification counts
and compressed groups, all with node ids left out (`_compact` in
conftest.py), must equal a scratch decomposition, build and `compress`,
and no update may fall back to a rebuild. Most maintenance bugs show up
on some such small input.

Run as a script for the wider sweep, which prints the number of updates,
differences and fallbacks:

    PYTHONPATH=src python tests/test_sweep.py          # every 3 x 4 class
    PYTHONPATH=src python tests/test_sweep.py --full   # every 4 x 4 graph

`--full` applies all 16 pairs to each of the 65,536 graphs on 4 x 4
vertices, without deduplication: 1,048,576 updates, about 10 minutes on
one core.
"""

import argparse
import itertools
import sys
import time

from wingsearch import (
    BipartiteGraph,
    apply_update_comp,
    build_equiwing,
    compress,
    wing_decomposition,
)

from conftest import _compact


def _canonical(mask, n_u, n_v):
    """Smallest sorted-rows form of the n_u x n_v bit matrix `mask` over
    every column permutation (rows are sorted, so they permute freely)."""
    rows = [(mask >> (i * n_v)) & ((1 << n_v) - 1) for i in range(n_u)]
    best = None
    for perm in itertools.permutations(range(n_v)):
        form = tuple(sorted(
            sum(1 << perm[j] for j in range(n_v) if row >> j & 1)
            for row in rows
        ))
        if best is None or form < best:
            best = form
    return best


def graphs(n_u, n_v, dedupe):
    """Edge lists of every graph on n_u x n_v labelled vertices, or of one
    per class under row and column permutation."""
    seen = set()
    for mask in range(1 << (n_u * n_v)):
        if dedupe:
            form = _canonical(mask, n_u, n_v)
            if form in seen:
                continue
            seen.add(form)
        yield [
            (f"a{i}", f"b{j}")
            for i in range(n_u)
            for j in range(n_v)
            if mask >> (i * n_v + j) & 1
        ]


def _state(edges):
    g = BipartiteGraph()
    for u, v in edges:
        g.insert_edge(u, v)
    d = wing_decomposition(g)
    index = build_equiwing(g, d)
    return g, d, index, compress(index)


def differences(g, d, index, comp):
    """What the maintained state gets wrong against a scratch rebuild: the
    parts of `_compact` that differ, then the validation problems."""
    got = _compact(d, index, comp)
    want = _compact(*_state(g.sorted_edges())[1:])
    out = [part for part in got if got[part] != want[part]]
    return out + index.validate() + comp.validate()


def sweep(n_u, n_v, dedupe):
    """Apply every vertex pair to every graph; returns the tallies and the
    first few differences found."""
    tally = dict.fromkeys(("graphs", "updates", "differences", "fallbacks"), 0)
    found = []
    pairs = [(f"a{i}", f"b{j}") for i in range(n_u) for j in range(n_v)]
    for edges in graphs(n_u, n_v, dedupe):
        tally["graphs"] += 1
        for u, v in pairs:
            g, d, index, comp = _state(edges)
            kind = "delete" if g.has_edge(u, v) else "insert"
            report, comp = apply_update_comp(g, d, index, comp, kind, u, v)
            tally["updates"] += 1
            tally["fallbacks"] += report.fell_back
            wrong = differences(g, d, index, comp)
            if wrong:
                tally["differences"] += 1
                if len(found) < 5:
                    found.append((edges, kind, u, v, wrong))
    return tally, found


def test_every_3x4_graph_and_update():
    tally, found = sweep(3, 4, dedupe=True)
    assert found == []
    assert tally["fallbacks"] == 0
    # 2^12 labelled graphs fall into 87 classes, each taking 12 updates
    assert (tally["graphs"], tally["updates"]) == (87, 87 * 12)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--full", action="store_true",
                        help="every 4 x 4 graph instead of the 3 x 4 classes")
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    if args.full:
        tally, found = sweep(4, 4, dedupe=False)
    else:
        tally, found = sweep(3, 4, dedupe=True)
    print(" ".join(f"{k} {v}" for k, v in tally.items()),
          f"seconds {time.perf_counter() - t0:.0f}")
    for case in found:
        print("difference", *case)
    return 1 if found or tally["fallbacks"] else 0


if __name__ == "__main__":
    sys.exit(main())

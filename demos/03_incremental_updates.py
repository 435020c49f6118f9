"""Maintain the index through edge insertions and deletions.

Rather than rebuilding after every change, the library bounds how far an
update can possibly reach, recomputes wing numbers inside that region only,
and stitches the index back together. The report says what moved.
"""

from wingsearch import (
    BipartiteGraph,
    apply_update,
    build_equiwing,
    wing_decomposition,
    wing_upper_bound,
)

EDGES = [
    ("v1", "u1"), ("v1", "u2"),
    ("v2", "u1"), ("v2", "u2"), ("v2", "u3"), ("v2", "u4"),
    ("v3", "u2"), ("v3", "u3"), ("v3", "u4"),
    ("v4", "u3"), ("v4", "u4"),
    ("v5", "u3"), ("v5", "u4"), ("v5", "u5"), ("v5", "u6"),
    ("v6", "u4"), ("v6", "u5"), ("v6", "u6"), ("v6", "u7"),
    ("v7", "u5"), ("v7", "u6"), ("v7", "u7"),
    ("v8", "u5"), ("v8", "u6"), ("v8", "u7"),
]


def show(report, number):
    # the same lines `wingsearch update` prints for its mutation `number`
    for line in report.lines(number):
        print(f"  {line}")


def snapshot(index):
    return {s: (n.level, len(n.members)) for s, n in sorted(index.nodes.items())}


def main():
    g = BipartiteGraph()
    for u, v in EDGES:
        g.insert_edge(u, v)
    d = wing_decomposition(g)
    index = build_equiwing(g, d)
    print(f"start: {len(index.nodes)} super nodes {snapshot(index)}")

    print(f"\nbefore committing, the bound alone: inserting (v4,u6) can "
          f"push no wing number past "
          f"{wing_upper_bound(g, d, 'v4', 'u6')}")

    print("\ninsert (v4, u6) — ties the two dense blocks together:")
    show(apply_update(g, d, index, "insert", "v4", "u6"), 1)
    print(f"  now: {len(index.nodes)} super nodes {snapshot(index)}")

    print("\ndelete (v4, u6) again — the old structure comes back:")
    show(apply_update(g, d, index, "delete", "v4", "u6"), 2)
    print(f"  now: {len(index.nodes)} super nodes {snapshot(index)}")

    print("\ndelete (v7, u6) — cracks the dense 3x3 block:")
    show(apply_update(g, d, index, "delete", "v7", "u6"), 3)
    print(f"  now: {len(index.nodes)} super nodes {snapshot(index)}")

    # the maintained index always matches a from-scratch rebuild
    fresh = build_equiwing(g, wing_decomposition(g))
    same = {frozenset(n.members) for n in index.nodes.values()} == \
        {frozenset(n.members) for n in fresh.nodes.values()}
    print(f"\nmaintained index equals a scratch rebuild: {same}")


if __name__ == "__main__":
    main()

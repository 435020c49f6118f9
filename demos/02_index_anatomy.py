"""Look inside the super-graph index and its compressed variant.

Each super node is an equivalence class: same wing number, reachable from
one another through butterflies whose edges all sit at that level or above.
Super edges record which classes share a butterfly. Compression then merges
same-level nodes that are linked through strictly-higher levels; the result
is the same kind of index with a merge log attached.
"""

from wingsearch import (
    BipartiteGraph,
    build_equiwing,
    compress,
    is_forest,
    serialize,
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


def main():
    g = BipartiteGraph()
    for u, v in EDGES:
        g.insert_edge(u, v)

    index = build_equiwing(g)
    print(f"plain index: {len(index.nodes)} super nodes, "
          f"{len(index.super_edge_set)} super edges, k_max {index.k_max}")
    for sid, node in sorted(index.nodes.items()):
        members = sorted(node.members)
        print(f"  node {sid} level {node.level} size {len(members):2d}  "
              f"{members[0]} ... {members[-1]}")
    print(f"  adjacency: {sorted(index.super_edge_set)}")

    comp = compress(index)
    print(f"\ncompressed: {len(comp.nodes)} super nodes "
          f"(ratio {comp.compression_ratio():.2f})")
    for merged, kept in comp.merge_log:
        print(f"  node {merged} merged into node {kept} "
              f"(level {comp.nodes[kept].level})")
    print(f"  forest-shaped: plain={is_forest(index)} comp={is_forest(comp)}")

    text = serialize(index)
    print(f"\nserialized plain index is {len(text)} bytes, "
          f"{len(text.splitlines())} lines; first three:")
    for line in text.splitlines()[:3]:
        print(f"  {line}")
    # the same writer: a merge log switches it to the compressed layout
    comp_text = serialize(comp)
    print(f"compressed file is {len(comp_text)} bytes, headed "
          f"{comp_text.splitlines()[0]!r}")


if __name__ == "__main__":
    main()

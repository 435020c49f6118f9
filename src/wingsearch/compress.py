"""Compressed super graph: per level k, super nodes of level k that sit in
the same connected component of the sub-super-graph induced on levels >= k
answer identically for every query at k, so they merge into one node.

As k falls, the components on levels >= k only merge, so one union-find
pass from the top level down finds every level's groups, the size of
each level's biggest wing for `stats`, and whether the super graph is a
forest; an update simply compresses again. The merged node keeps the
smallest participating id and the merge log records old -> kept mappings
so files stay self-describing. `compress` is the one definition of a
compressed index: a loaded file is accepted only if it equals `compress`
of a fresh build up to node ids, by the check (`equiwing.id_map`) that a
plain file passes against the build itself.

The result is an EquiWingIndex with `merge_log` set, so it is answered by the
same walk and written by the same serializer: `query_comp` and
`serialize_comp` are aliases of `query_equiwing` and `serialize`, and
`deserialize_comp` is the reader that accepts only the compressed header.
"""

from .equiwing import (
    EdgeOrder,
    EquiWingIndex,
    SuperNode,
    deserialize_comp,
    find_root,
    query_equiwing as query_comp,
    serialize as serialize_comp,
)


def components_top_down(index):
    """Join the nodes to one union-find forest by descending level, each
    united with the neighbours already in, and yield (level, the level's
    node ids ascending, parent, largest) once every node of the level is in.
    The roots are then the components of the sub-super-graph induced on
    levels >= level, the k-wings at k = level, and `largest` is the member
    count of the biggest."""
    nodes = index.nodes
    adj = index.adjacency()
    by_level = {}
    for sid in sorted(nodes):
        by_level.setdefault(nodes[sid].level, []).append(sid)
    parent, size = {}, {}
    largest = 0
    for level in sorted(by_level, reverse=True):
        for sid in by_level[level]:
            parent[sid] = root = sid
            size[sid] = len(nodes[sid].members)
            for nb in adj[sid]:
                if nb in parent:
                    other = find_root(parent, nb)
                    if other != root:
                        parent[other] = root
                        size[root] += size.pop(other)
            largest = max(largest, size[root])
        yield level, by_level[level], parent, largest


def compress(index):
    """Compress `index` in one union-find pass over its super edges.

    Once every level-k node is in (see `components_top_down`), the level-k
    nodes under one root form one merged node, which keeps the smallest id.
    A node merged with nothing is shared with `index` as it is. An index
    with a kept edge order passes on a new one that shares its edge list;
    the position runs are derived afresh, from the compressed edge map,
    when first used.
    """
    nodes = index.nodes
    keep_of = {}
    groups = []
    for _level, ids, parent, _largest in components_top_down(index):
        here = {}
        for sid in ids:  # ascending, so a group's first is kept
            here.setdefault(find_root(parent, sid), []).append(sid)
        for group in here.values():
            keep_of.update(dict.fromkeys(group, group[0]))
            groups.append(group)

    comp = EquiWingIndex()
    for group in sorted(groups):
        node = nodes[group[0]]
        if len(group) > 1:
            members = frozenset().union(*(nodes[s].members for s in group))
            node = SuperNode(group[0], node.level, members)
        comp.add_node(node)
    for a, b in index.super_edge_set:
        ka, kb = keep_of[a], keep_of[b]
        if ka != kb:
            comp.super_edge_set.add((min(ka, kb), max(ka, kb)))
    comp.merge_log = sorted(
        (sid, kept) for sid, kept in keep_of.items() if sid != kept
    )
    if index._order is not None:
        comp._order = EdgeOrder(index._order.edges)
    return comp


def is_forest(index):
    """Whether the super graph is cycle-free (measured, not assumed): a
    graph is a forest exactly when it has (nodes - components) edges, and
    once every node is in, the roots of `components_top_down`'s union-find
    are the components."""
    parent = {}
    for _level, _ids, parent, _largest in components_top_down(index):
        pass
    components = sum(1 for sid, root in parent.items() if sid == root)
    return len(index.super_edge_set) == len(parent) - components


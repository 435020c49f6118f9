"""Compressed super graph: per level k, super nodes of level k that sit in
the same connected component of the sub-super-graph induced on levels >= k
answer identically for every query at k, so they merge into one node.

Levels are independent, which is what makes partial recompression after an
update sound. The merged node keeps the smallest participating id and the
merge log records old -> kept mappings so files stay self-describing.

The result is an EquiWingIndex with `merge_log` set, so it is answered by the
same walk and written by the same serializer: `query_comp` and
`serialize_comp` are aliases of `query_equiwing` and `serialize`, and
`deserialize_comp` is the reader that accepts only the compressed header.
"""

from .equiwing import (
    EquiWingIndex,
    SuperNode,
    deserialize_comp,
    query_equiwing as query_comp,
    serialize as serialize_comp,
)


def _level_merge_groups(index, level):
    """Groups (lists of node ids, len >= 2) of level-`level` nodes sharing a
    component of the sub-super-graph induced on levels >= level."""
    adj = index.adjacency()
    nodes = index.nodes
    visited = set()
    groups = []
    for sid in sorted(nodes):
        if nodes[sid].level != level or sid in visited:
            continue
        stack = [sid]
        visited.add(sid)
        here = []
        while stack:
            cur = stack.pop()
            if nodes[cur].level == level:
                here.append(cur)
            for nb in adj[cur]:
                if nb not in visited and nodes[nb].level >= level:
                    visited.add(nb)
                    stack.append(nb)
        if len(here) > 1:
            groups.append(sorted(here))
    return groups


def compress(index, levels=None, base=None):
    """Compress `index`. With `levels` and `base`, only those levels are
    recomputed and the rest reuse `base`'s grouping (partial recompression
    after an update touching a bounded level range)."""
    keep_of = {sid: sid for sid in index.nodes}
    all_levels = sorted({n.level for n in index.nodes.values()})
    reuse = set()
    if levels is not None and base is not None:
        reuse = {lv for lv in all_levels if lv not in levels}
        old_groups = {}
        for old, kept in base.merge_log:
            old_groups.setdefault(kept, []).append(old)
        for kept, olds in old_groups.items():
            node = base.nodes.get(kept)
            if node is None or node.level not in reuse:
                continue
            for old in olds:
                if old in keep_of:
                    keep_of[old] = kept
    for lv in all_levels:
        if lv in reuse:
            continue
        for group in _level_merge_groups(index, lv):
            kept = group[0]
            for sid in group[1:]:
                keep_of[sid] = kept

    comp = EquiWingIndex()
    members = {}
    for sid, node in index.nodes.items():
        members.setdefault(keep_of[sid], set()).update(node.members)
    for kept in sorted(members):
        comp.add_node(SuperNode(kept, index.nodes[kept].level, members[kept]))
    for a, b in index.super_edge_set:
        ka, kb = keep_of[a], keep_of[b]
        if ka != kb:
            comp.super_edge_set.add((min(ka, kb), max(ka, kb)))
    comp.merge_log = sorted(
        (sid, kept) for sid, kept in keep_of.items() if sid != kept
    )
    comp.refresh_k_max()
    comp._adjacency = None
    return comp


def is_forest(index):
    """Whether the super graph is cycle-free (measured, not assumed)."""
    adj = index.adjacency()
    visited = set()
    for start in index.nodes:
        if start in visited:
            continue
        visited.add(start)
        stack = [(start, None)]
        while stack:
            cur, parent = stack.pop()
            for nb in adj[cur]:
                if nb == parent:
                    continue
                if nb in visited:
                    return False
                visited.add(nb)
                stack.append((nb, cur))
    return True

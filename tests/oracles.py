"""Brute-force reference implementations used to validate the library.

Everything here is written the dumb-and-obvious way on purpose: no shared code
with src/, no cleverness, just definitions. Fine for graphs up to a few
hundred edges, which is all the test suites use.

Edges are (u_label, v_label) tuples. A butterfly is a canonical tuple
(u1, u2, v1, v2) with u1 < u2 and v1 < v2, denoting the four edges
(u1,v1), (u1,v2), (u2,v1), (u2,v2).
"""

from collections import defaultdict


def butterfly_edges(b):
    u1, u2, v1, v2 = b
    return [(u1, v1), (u1, v2), (u2, v1), (u2, v2)]


def enumerate_butterflies(edges):
    """All butterflies of the edge set, brute force over U-vertex pairs."""
    adj = defaultdict(set)
    for u, v in edges:
        adj[u].add(v)
    us = sorted(adj)
    out = []
    for i in range(len(us)):
        for j in range(i + 1, len(us)):
            common = sorted(adj[us[i]] & adj[us[j]])
            for a in range(len(common)):
                for b in range(a + 1, len(common)):
                    out.append((us[i], us[j], common[a], common[b]))
    return out


def support_of(edge, edges):
    """Number of butterflies of `edges` containing `edge`."""
    edges = set(edges)
    if edge not in edges:
        return 0
    return sum(1 for b in enumerate_butterflies(edges) if edge in butterfly_edges(b))


def butterflies_through(edge, edges):
    edges = set(edges)
    return [b for b in enumerate_butterflies(edges) if edge in butterfly_edges(b)]


def k_surviving_edges(edges, k, start=None):
    """The k-bitruss edge set: iteratively drop edges with in-subgraph
    support < k until stable."""
    alive = set(edges) if start is None else set(start)
    while True:
        supp = {e: 0 for e in alive}
        for b in enumerate_butterflies(alive):
            for e in butterfly_edges(b):
                supp[e] += 1
        dead = {e for e in alive if supp[e] < k}
        if not dead:
            return alive
        alive -= dead


def wing_numbers_oracle(edges):
    """Definitional wing numbers: psi(e) = largest k such that e survives
    iterative support-<k deletion."""
    psi = {e: 0 for e in edges}
    alive = set(edges)
    k = 1
    while alive:
        survivors = k_surviving_edges(edges, k, start=alive)
        for e in survivors:
            psi[e] = k
        alive = survivors
        k += 1
    return psi


def wings_oracle(edges, k):
    """All k-wings: k-bitruss, then group edges by butterfly connectivity
    (edges sharing a surviving butterfly, transitively). Returns a list of
    frozensets of edges."""
    alive = k_surviving_edges(edges, k)
    parent = {e: e for e in alive}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    covered = set()
    for b in enumerate_butterflies(alive):
        es = butterfly_edges(b)
        covered.update(es)
        for other in es[1:]:
            union(es[0], other)
    groups = defaultdict(set)
    for e in covered:
        groups[find(e)].add(e)
    return [frozenset(g) for g in groups.values()]


def query_oracle(edges, q, k):
    """k-wings containing vertex q (on either side). Set of frozensets."""
    hits = set()
    for wing in wings_oracle(edges, k):
        if any(q == u or q == v for u, v in wing):
            hits.add(wing)
    return hits


def equivalence_classes_oracle(edges):
    """Partition of psi>=1 edges into same-psi classes chained through
    butterflies whose four edges all have psi >= that level, consecutive
    butterflies sharing a psi-level edge. Returns dict level -> list of
    frozensets."""
    psi = wing_numbers_oracle(edges)
    by_level = defaultdict(list)
    all_bfs = enumerate_butterflies(edges)
    for level in sorted({p for p in psi.values() if p >= 1}):
        members = [e for e in edges if psi[e] == level]
        parent = {e: e for e in members}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for b in all_bfs:
            es = butterfly_edges(b)
            if min(psi[e] for e in es) >= level:
                lvl_edges = [e for e in es if psi[e] == level]
                for other in lvl_edges[1:]:
                    ra, rb = find(lvl_edges[0]), find(other)
                    if ra != rb:
                        parent[ra] = rb
        groups = defaultdict(set)
        for e in members:
            groups[find(e)].add(e)
        by_level[level] = [frozenset(g) for g in groups.values()]
    return dict(by_level)


def justification_counts_oracle(edges):
    """Butterfly justification count of every super edge, per butterfly:
    each butterfly with all four wing numbers >= 1 pairs the class of its
    min-level edges with each other class among its four edges. Returns a
    dict frozenset({class_a, class_d}) -> count, classes as frozensets of
    edges from equivalence_classes_oracle."""
    psi = wing_numbers_oracle(edges)
    class_of = {}
    for groups in equivalence_classes_oracle(edges).values():
        for grp in groups:
            for e in grp:
                class_of[e] = grp
    counts = defaultdict(int)
    for b in enumerate_butterflies(edges):
        es = butterfly_edges(b)
        m = min(psi[e] for e in es)
        if m < 1:
            continue
        a = class_of[next(e for e in es if psi[e] == m)]
        for d in {class_of[e] for e in es} - {a}:
            counts[frozenset((a, d))] += 1
    return dict(counts)


def compressed_groups_oracle(levels, super_edges):
    """Merge groups of a super graph, by definition: for each level k, the
    level-k nodes that share a component of the sub-super-graph induced on
    levels >= k form one group. `levels` maps node id -> level and
    `super_edges` holds (a, b) id pairs. Returns a set of frozensets of
    node ids, one per group, nodes that merge with nothing included."""
    adj = defaultdict(set)
    for a, b in super_edges:
        adj[a].add(b)
        adj[b].add(a)
    groups = set()
    for k in sorted(set(levels.values())):
        seen = set()
        for start in sorted(levels):
            if levels[start] != k or start in seen:
                continue
            stack = [start]
            seen.add(start)
            here = set()
            while stack:
                cur = stack.pop()
                if levels[cur] == k:
                    here.add(cur)
                for nb in adj[cur]:
                    if nb not in seen and levels[nb] >= k:
                        seen.add(nb)
                        stack.append(nb)
            groups.add(frozenset(here))
    return groups


def component_wings_dfs(index, seed_ids, k):
    """The k-wing walk of `equiwing._component_wings` as a depth-first
    search with a per-node level test, and its emissions by their own
    means: "mask", for a wing of more than half of a kept order's m edges
    with 4m <= r * b.bit_length(), sets a bytearray of m marks, clears
    those of every other run and reads it with `itertools.compress`;
    "gather" sorts the wing's positions; "merge" sorts the nodes'
    concatenated members. Reads only the index's nodes, edge map, super
    edges and kept edge order, and derives the adjacency and the position
    runs itself; fast enough for the 52k-edge reference graph.
    Returns (wings, visited, emissions): the wings as sorted edge lists
    ordered by first edge, the (id, level) of each node expanded, and each
    wing's emission."""
    from collections import deque
    from itertools import chain, compress, repeat

    adj = defaultdict(set)
    for a, b in index.super_edge_set:
        adj[a].add(b)
        adj[b].add(a)
    nodes = index.nodes
    order = index._order
    if order is not None:
        edges, runs = order.edges, defaultdict(list)
        for i, e in enumerate(edges):
            runs[index.per_edge_node.get(e, 0)].append(i)
    visited = set()
    expanded, emissions, wings = [], [], []
    for sid in sorted(seed_ids):
        if sid in visited:
            continue
        stack = [sid]
        visited.add(sid)
        wing = []
        r = 0
        while stack:
            cur = stack.pop()
            node = nodes[cur]
            expanded.append((cur, node.level))
            wing.append(cur)
            r += len(node.members)
            for nb in adj[cur]:
                if nb not in visited and nodes[nb].level >= k:
                    visited.add(nb)
                    stack.append(nb)
        if order is None:
            members = []
            for cur in wing:
                members.extend(sorted(nodes[cur].members))
            members.sort()
            emission = "merge"
        else:
            m = len(edges)
            if 2 * r > m and 4 * m <= r * len(wing).bit_length():
                mask = bytearray(b"\1") * m
                deque(map(mask.__setitem__, chain.from_iterable(
                    map(runs.get, runs.keys() - wing)), repeat(0)), 0)
                members = list(compress(edges, mask))
                emission = "mask"
            else:
                positions = []
                for cur in wing:
                    positions += runs[cur]
                positions.sort()
                members = [edges[i] for i in positions]
                emission = "gather"
        emissions.append(emission)
        wings.append(members)
    wings.sort(key=lambda w: w[0])
    return wings, expanded, emissions

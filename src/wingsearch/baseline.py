"""Index-free personalized wing search, used as the reference engine.

Starting from the query vertex's qualifying edges, expand through butterflies
whose four edges all carry wing number >= k. Each connected group is one
k-wing.

Two edges (u, v) and (u, v2) sit in a common butterfly with u2 exactly when
u and u2 share both v and v2, so one pass over u's wedges finds every u2 that
shares at least two k-neighbours with it (its partners). Expanding the pair
(u, u2) queues all of the edges (u, c) and (u2, c) over their common
neighbours c at once: any two of them lie in one butterfly. Each pair is
expanded once, so the work is the wedges of the visited vertices plus set
operations per pair, not a pass over every butterfly from each of its four
edges. Results are canonical: edges inside a wing sorted by label pair,
wings sorted by their first edge, so engine outputs compare byte for byte.
"""

from collections import deque

from .errors import UnknownVertexError


def canonical_wings(groups):
    wings = [sorted(g) for g in groups]
    wings.sort(key=lambda w: w[0])
    return wings


def baseline_search(graph, decomp, q, k):
    """All k-wings containing vertex q. Returns a list of sorted edge lists."""
    if not graph.has_vertex(q):
        raise UnknownVertexError(f"vertex {q!r} not in graph")
    # a k-wing's edges lie in butterflies, so k < 1 asks for 1-wings, as in
    # query_equiwing; wing-number-0 edges belong to no wing
    k = max(k, 1)
    wn = decomp.wing_number
    adj_u, adj_v = graph.adj_u, graph.adj_v
    # neighbours over edges of wing number >= k, and the partners of each
    # u-vertex not yet expanded; all filled on first use
    near_u, near_v, partners = {}, {}, {}

    def k_adj_u(u):
        s = near_u.get(u)
        if s is None:
            s = near_u[u] = {v for v in adj_u[u] if wn.get((u, v), 0) >= k}
        return s

    def k_adj_v(v):
        s = near_v.get(v)
        if s is None:
            s = near_v[v] = {u for u in adj_v[v] if wn.get((u, v), 0) >= k}
        return s

    def partners_of(u):
        p = partners.get(u)
        if p is None:
            once, p = set(), set()
            for v in k_adj_u(u):
                other = k_adj_v(v)
                p |= once & other
                once |= other
            p.discard(u)
            partners[u] = p
        return p

    seeds = []
    for v in sorted(adj_u.get(q, ())):
        seeds.append((q, v))
    for u in sorted(adj_v.get(q, ())):
        seeds.append((u, q))
    seeds = [e for e in seeds if wn.get(e, 0) >= k]

    queued = {}  # u -> every v with (u, v) already queued
    wings = []
    for seed in seeds:
        if seed[1] in queued.get(seed[0], ()):
            continue
        group = []
        queue = deque([seed])
        queued.setdefault(seed[0], set()).add(seed[1])
        while queue:
            u, v = queue.popleft()
            group.append((u, v))
            mine = partners_of(u)
            # partners adjacent to v are those sharing v and another vertex
            for u2 in mine & k_adj_v(v):
                mine.discard(u2)
                partners_of(u2).discard(u)
                common = k_adj_u(u) & k_adj_u(u2)
                for x in (u, u2):
                    done = queued.get(x)
                    if done is None:
                        done = queued[x] = set()
                    fresh = common - done
                    done |= fresh
                    queue.extend([(x, c) for c in fresh])
        wings.append(group)
    return canonical_wings(wings)

"""Wing-number decomposition by support peeling.

The wing number of an edge is the largest k such that the edge survives
iterated deletion of edges with fewer than k butterflies in the remaining
subgraph. Peeling processes edges in non-decreasing order of their current
support with FIFO tie-breaking inside a bucket, clamping assigned values so
they never decrease.
"""

from collections import deque


class WingDecomposition:
    """Result of peeling: per-edge wing numbers plus the initial supports."""

    def __init__(self, wing_number, support):
        self.wing_number = wing_number
        self.support = support

    @property
    def k_max(self):
        return max(self.wing_number.values(), default=0)

    def edges_at_least(self, k):
        return [e for e, w in self.wing_number.items() if w >= k]

    def copy(self):
        return WingDecomposition(dict(self.wing_number), dict(self.support))


def wing_decomposition(graph):
    edges = graph.sorted_edges()
    # initial supports from blooms: each of a bloom's edges lies in
    # len(common) - 1 of its butterflies; keys stay in sorted edge order
    support = dict.fromkeys(edges, 0)
    for u1, u2, common in graph.blooms():
        c = len(common) - 1
        for x in common:
            support[(u1, x)] += c
            support[(u2, x)] += c

    # shrinking adjacency for in-subgraph butterfly enumeration
    adj_u = {u: set(vs) for u, vs in graph.adj_u.items()}
    adj_v = {v: set(us) for v, us in graph.adj_v.items()}

    cur = dict(support)
    max_s = max(cur.values(), default=0)
    buckets = [deque() for _ in range(max_s + 1)]
    for e in edges:  # sorted seed order fixes the FIFO tie-break
        buckets[cur[e]].append(e)

    wing = {}
    removed = set()
    for k in range(max_s + 1):
        bucket = buckets[k]
        while bucket:
            e = bucket.popleft()
            if e in removed or cur[e] != k:
                continue  # stale entry, the edge moved to another bucket
            removed.add(e)
            wing[e] = k
            u, v = e
            adj_u[u].discard(v)
            adj_v[v].discard(u)
            # every butterfly through e in the remaining subgraph loses e:
            # decrement its other three edges, clamped at the current level
            for u2 in list(adj_v[v]):
                for v2 in adj_u[u] & adj_u[u2]:
                    if v2 == v:
                        continue
                    for other in ((u, v2), (u2, v), (u2, v2)):
                        s = cur[other]
                        if s > k:
                            cur[other] = s - 1
                            buckets[s - 1].append(other)
    return WingDecomposition(wing, support)

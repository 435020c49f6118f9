"""Wing-number decomposition by support peeling on a bloom-edge index.

The wing number of an edge is the largest k such that the edge survives
iterated deletion of edges with fewer than k butterflies in the remaining
subgraph. Peeling processes edges in non-decreasing order of their current
support with FIFO tie-breaking inside a bucket, clamping assigned values so
they never decrease.

The peel runs on integer edge ids, the positions in one `sorted_edges()`
list, and on a bloom-edge index (Wang, Lin, Qin, Zhang, Zhang, ICDE 2020).
The one `blooms()` pass that counts the supports also stores each bloom as a
flat list of its live wedges, `[id(u1, x), id(u2, x), ...]`, and gives each
edge the list of blooms it lies in. Removing an edge deletes its wedge from
each of its blooms; the butterflies it leaves are the twin edge `(u2, x)`
paired with each remaining wedge, so no neighbour set is ever intersected.
Both result dicts are keyed by the tuples of that one sorted list, so every
later layer holds each edge as one tuple, created up front in sorted order.

The same pass keeps an immutable record of the blooms for the index build
(`bloom_runs`): each bloom as one flat run of wedge ids a0, b0, a1, b1, ...,
where a_i is the id of (u1, x_i) and b_i that of (u2, x_i) for its common
neighbours x_i. So a from-scratch rebuild enumerates the blooms once.
"""

from array import array


class WingDecomposition:
    """Result of peeling: per-edge wing numbers plus the initial supports.

    `bloom_runs` is the peeled graph's bloom record, (wedges, ends): two
    `array('i')`s, bloom i being the flat run `wedges[ends[i-1]:ends[i]]`
    of wedge ids, which are positions in `list(wing_number)`. It holds only
    while the graph is the one peeled: `apply_update` drops it (None)."""

    def __init__(self, wing_number, support, bloom_runs=None):
        self.wing_number = wing_number
        self.support = support
        self.bloom_runs = bloom_runs

    @property
    def k_max(self):
        return max(self.wing_number.values(), default=0)


def wing_decomposition(graph):
    edges = graph.sorted_edges()
    eid = {e: i for i, e in enumerate(edges)}
    # initial supports from blooms: each of a bloom's edges lies in
    # len(common) - 1 of its butterflies
    support = [0] * len(edges)
    blooms_of = [[] for _ in edges]
    wedges, ends = array("i"), array("i")
    for u1, u2, common in graph.blooms():
        c = len(common) - 1
        bloom = []
        for x in common:
            a = eid[(u1, x)]
            b = eid[(u2, x)]
            support[a] += c
            support[b] += c
            blooms_of[a].append(bloom)
            blooms_of[b].append(bloom)
            bloom += (a, b)
        wedges.extend(bloom)
        ends.append(len(wedges))
    del eid

    cur = list(support)
    buckets = [[] for _ in range(max(support, default=-1) + 1)]
    for e, s in enumerate(support):  # id order fixes the FIFO tie-break
        buckets[s].append(e)

    for k, bucket in enumerate(buckets):
        for e in bucket:  # grows while it is read: lowered edges land here
            if cur[e] != k:
                continue  # stale entry, the edge moved to a lower bucket
            # each edge reaches the bucket of its final value once, and
            # removal takes it out of every bloom, so cur[e] is its wing number
            for bloom in blooms_of[e]:
                if e not in bloom:
                    continue  # the twin went first and took the wedge along
                i = bloom.index(e)
                twin = bloom[i ^ 1]
                i &= -2
                del bloom[i:i + 2]
                # each remaining wedge closes one butterfly of e with the
                # twin: lower the twin once by their number and each of
                # their edges by one, clamped at the current level
                s = cur[twin]
                if s > k and bloom:
                    s = max(k, s - len(bloom) // 2)
                    cur[twin] = s
                    buckets[s].append(twin)
                for o in bloom:
                    s = cur[o]
                    if s > k:
                        cur[o] = s - 1
                        buckets[s - 1].append(o)
            blooms_of[e] = None  # free what the peel is done with as it goes
        buckets[k] = None
    return WingDecomposition(dict(zip(edges, cur)), dict(zip(edges, support)),
                             (wedges, ends))

"""Wing-number decomposition by support peeling on a bloom-edge index.

The wing number of an edge is the largest k such that the edge survives
iterated deletion of edges with fewer than k butterflies in the remaining
subgraph. Peeling processes edges in non-decreasing order of their current
support with FIFO tie-breaking inside a bucket, clamping assigned values so
they never decrease.

The peel runs on integer edge ids, the positions in the sorted edge list
that `graph.blooms()` returns, and on a bloom-edge index (Wang, Lin, Qin,
Zhang, Zhang, ICDE 2020). `blooms()` gives each bloom as one flat run of
wedge ids a0, b0, a1, b1, ..., where a_i is the id of (u1, x_i) and b_i that
of (u2, x_i) for its common neighbours x_i. The pass that counts the
supports keeps each run as the bloom's list of live wedges and gives each
edge the list of blooms it lies in. Removing an edge deletes its wedge from
each of its blooms; the butterflies it leaves are the twin edge `(u2, x)`
paired with each remaining wedge, so no neighbour set is ever intersected.
Both result dicts are keyed by the tuples of that one sorted list, so every
later layer holds each edge as one tuple, created up front in sorted order.

The same pass copies the runs into an immutable record for the index build
(`bloom_runs`), before the peel consumes them. So a from-scratch rebuild
enumerates the blooms once, and no wedge is ever looked up by its labels.

The peel runs with the cyclic garbage collector paused (see collector.py):
the bloom lists and `blooms_of` form no reference cycle, yet each young
collection would rescan them. The collector's state comes back when the
peel returns or raises; the pause assumes one thread builds at a time.
"""

from array import array

from .collector import paused_collector


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


@paused_collector
def wing_decomposition(graph):
    edges, runs = graph.blooms()
    # initial supports from blooms: each of a bloom's edges lies in
    # len(common) - 1 of its butterflies
    support = [0] * len(edges)
    blooms_of = [[] for _ in edges]
    wedges, ends = array("i"), array("i")
    for bloom in runs:
        c = len(bloom) // 2 - 1
        for e in bloom:
            support[e] += c
            blooms_of[e].append(bloom)
        wedges.extend(bloom)
        ends.append(len(wedges))

    cur = list(support)
    buckets = [array("i") for _ in range(max(support, default=-1) + 1)]
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

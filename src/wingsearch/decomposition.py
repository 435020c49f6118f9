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

That record is by position, which an update would shift. So the first
update reads the whole record once into a `BloomMap` of the decomposition,
pair -> run of edge tuples, and then drops it. The map holds every bloom,
and each update re-reads only the runs of the pairs whose common
neighbours the edge it adds or removes changes.

The peel and the fill of the bloom map run with the cyclic garbage
collector paused (see collector.py): the bloom lists, `blooms_of` and the
map's runs form no reference cycle, yet each young collection would rescan
them. The collector's state comes back when they return or raise; the
pause assumes one thread builds at a time.
"""

from array import array
from itertools import chain

from .collector import paused_collector


class BloomMap(dict):
    """Every bloom of the graph, kept across updates: the BE-Index of Wang,
    Lin, Qin, Zhang and Zhang (ICDE 2020) as that paper keeps it. A bloom
    is a left-vertex pair u1 < u2 with two or more common neighbours x; the
    map holds each such pair, and no other, with its flat run of wedge
    tuples (u1, x0), (u2, x0), (u1, x1), (u2, x1), ..., which is what
    `form_classes` and `add_bloom` take.

    `WingDecomposition.fill_bloom_map` fills it once, from the peel's
    record. It holds while the graph changes only through `apply_update`,
    which calls `invalidate` once the update's edge is in or out."""

    def read(self, adj_v, edges, found):
        """Add to `found`, pair -> run, the bloom of each pair that holds
        one of `edges`, all edges of the graph whose right-vertex
        neighbour sets are `adj_v`. The map holds every bloom, so those
        through (a, x) are among the pairs {a, b}, b in N(x)."""
        get = self.get
        for a, x in edges:
            for b in adj_v[x]:
                p = (a, b) if a < b else (b, a)
                run = get(p)
                if run is not None:
                    found[p] = run

    def invalidate(self, graph, e):
        """Re-read the runs that an update of e = (u, v) moves, once
        `graph` is the graph after it: those of the pairs (u, u2) for u2 in
        N(v), each pair left with fewer than two common neighbours dropped.
        Returns how many pairs it re-read, deg(v) - 1 on the graph with e.

        These are the only runs that move. The common neighbours of a pair
        {a, b} are N(a) & N(b), and only N(u) changes, by v: so only the
        pairs (u, u2) with v in N(u2) change theirs, each by v alone."""
        u, v = e
        adj_u = graph.adj_u
        mine = adj_u.get(u, frozenset())
        pairs = 0
        for u2 in graph.adj_v.get(v, ()):
            if u2 == u:
                continue
            pairs += 1
            a, b = p = (u, u2) if u < u2 else (u2, u)
            common = sorted(mine & adj_u[u2])
            if len(common) >= 2:
                self[p] = tuple(w for x in common for w in ((a, x), (b, x)))
            else:
                self.pop(p, None)
        return pairs


class WingDecomposition:
    """Result of peeling: per-edge wing numbers plus the initial supports.

    `bloom_runs` is the peeled graph's bloom record, (wedges, ends): two
    `array('i')`s, bloom i being the flat run `wedges[ends[i-1]:ends[i]]`
    of wedge ids, which are positions in `list(wing_number)`. It holds only
    while the graph is the one peeled: `apply_update` drops it (None).
    `blooms` is the one reader of that format.

    `bloom_map` is the `BloomMap` that update surgery reads: None until the
    first update fills it from the record, complete from then on, and kept
    in step by each update made through `apply_update`, which re-reads the
    runs of the pairs its edge changes."""

    def __init__(self, wing_number, support, bloom_runs=None):
        self.wing_number = wing_number
        self.support = support
        self.bloom_runs = bloom_runs
        self.bloom_map = None

    @property
    def k_max(self):
        return max(self.wing_number.values(), default=0)

    def blooms(self, graph):
        """(edges, runs) for `graph`, the graph of these wing numbers: its
        edges in id order, and `runs()`, which yields each bloom as its
        flat run of ids (see `BipartiteGraph.blooms`) every time it is
        called. They come from the bloom record or, with none, from one
        `graph.blooms()` call."""
        if self.bloom_runs is not None:
            edges, (wedges, ends) = list(self.wing_number), self.bloom_runs
        else:
            edges, runs = graph.blooms()
            wedges, ends = array("i"), array("i")
            for run in runs:
                wedges.extend(run)
                ends.append(len(wedges))
        return edges, lambda: map(wedges.__getitem__,
                                  map(slice, chain((0,), ends), ends))

    @paused_collector
    def fill_bloom_map(self, graph):
        """Give the decomposition the complete `BloomMap` of `graph`: each
        run of `blooms` with its ids read as the edge tuples they name."""
        edges, runs = self.blooms(graph)
        get = edges.__getitem__
        self.bloom_map = blooms = BloomMap()
        for run in runs():
            blooms[get(run[0])[0], get(run[1])[0]] = tuple(map(get, run))


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

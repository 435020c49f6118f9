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

That record is by position, which an update would shift. Update surgery
reads the blooms it needs by edge instead, from a `BloomMap` that the
decomposition keeps: filled as surgery reads, and invalidated by each
update exactly where the edge it adds or removes changes a bloom.

The peel runs with the cyclic garbage collector paused (see collector.py):
the bloom lists and `blooms_of` form no reference cycle, yet each young
collection would rescan them. The collector's state comes back when the
peel returns or raises; the pause assumes one thread builds at a time.
"""

from array import array

from .collector import paused_collector


class BloomMap:
    """The blooms of the graph that update surgery has read, kept across
    updates (after the BE-Index of Wang, Lin, Qin, Zhang and Zhang, ICDE
    2020). A bloom is a left-vertex pair u1 < u2 with two or more common
    neighbours x; its flat run of wedge tuples (u1, x0), (u2, x0), (u1,
    x1), (u2, x1), ... is what `form_classes` and `add_bloom` take.

    `partners` maps an edge (u1, x) to the u2 of each pair {u1, u2} whose
    bloom holds it, and `runs` maps each such pair to its run. An edge's
    entry is made the first time `read` reaches it, and with it the run of
    each of its pairs; a pair with fewer than two common neighbours gets
    no entry. The run tuples are the decomposition's own edge keys, so a
    run costs a pointer per wedge.

    The map holds while the graph changes only through `apply_update`,
    which calls `invalidate` once the update's edge is in or out.
    Invariant: every kept entry is the one a fresh read of the current
    graph gives, and every pair in a kept `partners` entry has its run."""

    def __init__(self):
        self.partners = {}
        self.runs = {}
        self._key = None  # edge -> the decomposition's tuple for it

    def read(self, graph, wing_number, edges, found, misses):
        """Add to `found`, pair -> run, the bloom of each pair that holds
        one of `edges`, all edges of `graph`. An edge not yet in the map is
        read from the adjacency sets, its runs built from the keys of
        `wing_number`. `misses` holds the pairs this caller has found to
        share fewer than two neighbours, so none is intersected twice.
        Returns (pairs intersected, edges found in the map)."""
        partners, runs = self.partners, self.runs
        if self._key is None:
            self._key = {f: f for f in wing_number}
        key = self._key
        adj_u, adj_v = graph.adj_u, graph.adj_v
        intersected = kept = 0
        for f in edges:
            u1 = f[0]
            held = partners.get(f)
            if held is not None:
                kept += 1
                for u2 in held:
                    p = (u1, u2) if u1 < u2 else (u2, u1)
                    found[p] = runs[p]
                continue
            held = []
            n1 = adj_u[u1]
            for u2 in adj_v[f[1]]:
                if u2 == u1:
                    continue
                p = (u1, u2) if u1 < u2 else (u2, u1)
                run = runs.get(p)
                if run is None:
                    if p in misses:
                        continue
                    intersected += 1
                    common = n1 & adj_u[u2]
                    if len(common) < 2:
                        misses.add(p)
                        continue
                    a, b = p
                    run = []
                    for x in common:
                        run += key[a, x], key[b, x]
                    run = runs[p] = tuple(run)  # no spare slots, as kept
                held.append(u2)
                found[p] = run
            partners[f] = tuple(held)
        return intersected, kept

    def invalidate(self, graph, e, through):
        """Drop the entries that an update of e = (u, v) changes, once
        `graph` is the graph after it; `through` is the flat list of the
        other three edges of each butterfly through e, as `_start` reads
        it. That drops the entries of e and of the edges in `through`, and
        the runs of the pairs (u, u2) for u2 in N(v).

        Proof that nothing else changes. The common neighbours of a pair
        are N(a) & N(b), and only N(u) changes, by v: so only the pairs
        (u, u2) with v in N(u2) change theirs, each by v alone, and those
        are the runs dropped. An edge f = (a, x) lists the pairs {a, b}
        whose common set C holds x and has two or more members, so only
        those pairs can move its entry. Let C' be C less v, the same on
        both sides. For x = v, the pair is listed on the side with e
        exactly when C' is not empty: then {u, u2} x {v, y} is a
        butterfly through e for each y in C', and f is e or (u2, v). For
        x != v it is listed on the side without e when x is in C' and C'
        has two or more members, and on the side with e whenever x is in
        C'; a move needs C' = {x}, and f is (u, x) or (u2, x) of the
        butterfly {u, u2} x {v, x}. Either way f is e or in `through`.

        The invariant survives too. A dropped run was a bloom before the
        update, so C' was not empty, and each edge of that bloom is e or
        lies in a butterfly {u, u2} x {v, y} with y in C': every entry
        that lists the pair is dropped with its run."""
        u, v = e
        partners, runs = self.partners, self.runs
        partners.pop(e, None)
        for f in through:
            partners.pop(f, None)
        for u2 in graph.adj_v.get(v, ()):
            runs.pop((u, u2) if u < u2 else (u2, u), None)
        if self._key is not None:
            if graph.has_edge(u, v):
                self._key[e] = e
            else:
                self._key.pop(e, None)


class WingDecomposition:
    """Result of peeling: per-edge wing numbers plus the initial supports.

    `bloom_runs` is the peeled graph's bloom record, (wedges, ends): two
    `array('i')`s, bloom i being the flat run `wedges[ends[i-1]:ends[i]]`
    of wedge ids, which are positions in `list(wing_number)`. It holds only
    while the graph is the one peeled: `apply_update` drops it (None).

    `bloom_map` is the `BloomMap` that update surgery reads and keeps:
    per edge, the pairs whose bloom holds it, and per pair the bloom's
    wedge run. It is empty until the first update, fills as surgery reads
    edges, and holds across updates made through `apply_update`, each of
    which drops the entries of its edge, of the other edges of the
    butterflies through it and the runs of the pairs it changes."""

    def __init__(self, wing_number, support, bloom_runs=None):
        self.wing_number = wing_number
        self.support = support
        self.bloom_runs = bloom_runs
        self.bloom_map = BloomMap()

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

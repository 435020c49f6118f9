"""Equivalence-class super-graph index over the wing decomposition.

Super nodes are the classes of a per-level equivalence: two edges with the
same wing number k are equivalent when a chain of butterflies links them,
every butterfly in the chain having all four edges at wing number >= k and
consecutive butterflies sharing a level-k edge. Wing-number-0 edges belong to
no class.

A super edge (A, D) exists when some butterfly contains an edge of A and an
edge of D and all four of its edges have wing number >= level(A), where
level(A) < level(D). Construction assigns node ids level-ascending, ordering
classes within a level by their smallest member edge.

Both build passes work per bloom, a left-vertex pair u1 < u2 with its
common neighbours x_i, taken as one flat run of wedge keys a0, b0, a1, b1,
..., where a_i = (u1, x_i) and b_i = (u2, x_i). The build reads the runs of
integer edge ids that `WingDecomposition.blooms` gives, from the peel's
record or, when there is none, one `graph.blooms()` call; updates pass runs
of edge tuples to the same two kernels, `form_classes` and `add_bloom`. A
bloom of two wedges is one butterfly, which both kernels read straight from
its four edges; a bloom whose edges meet at most one class adds no count,
and `add_bloom` returns before it keys the bloom's neighbours.

A query walks the super graph by frontier sets. A fresh build keeps an
edge order (`EdgeOrder`): every edge of the graph in sorted order, shared
with its compression, from which each node's run of integer positions is
derived through the edge map. A query emits a wing of more than half the
edges of such an order by copying the slices between the edges it leaves
out; every other wing is one gather of its nodes' sorted runs, positions
mapped through the order when there is one and member edges when there is
not. See `_component_wings`. `serialize` writes each node's member lines
from the same runs.

The index is label-based and self-sufficient: queries need only the index.
Compression (see compress.py) yields the same structure plus a merge log;
a compressed index is an EquiWingIndex whose `merge_log` is not None, queried
by the same walk and written by the same serializer in its own layout. Files
carry a version header and a trailing sha256 checksum, verified before any
other parsing. A loaded file describes a graph when it equals a fresh build
of it, or that build's compression, up to node ids (`id_map`).

`build_equiwing` (its union pass and its count pass) and the reader behind
`deserialize` and `deserialize_comp` run with the cyclic garbage collector
paused (see collector.py): the nodes, member tuples and maps they fill form
no reference cycle, so collections inside them only rescan what reference
counting already frees. The collector's state comes back when they return
or raise; the pause assumes one thread builds or reads at a time.
"""

import hashlib
from functools import partial, reduce
from itertools import chain, compress, islice, repeat
from operator import countOf, iadd, lt

from .collector import paused_collector
from .decomposition import wing_decomposition
from .errors import IndexFormatError, InternalConsistencyError

FORMAT_HEADER = "EQUIWING v1"
COMP_FORMAT_HEADER = "EQUIWING-COMP v1"


class SuperNode:
    """One equivalence class. `members` is frozen, so the canonical order
    that `ordered()` sorts once and keeps can never go stale."""

    __slots__ = ("sn_id", "level", "members", "_ordered")

    def __init__(self, sn_id, level, members):
        self.sn_id = sn_id
        self.level = level
        self.members = frozenset(members)
        self._ordered = None

    def ordered(self):
        """Members in canonical (sorted) order: sorted on first use, then
        kept on the node. Callers must not mutate the returned list."""
        if self._ordered is None:
            self._ordered = sorted(self.members)
        return self._ordered

    def __repr__(self):
        return f"SuperNode({self.sn_id}, level={self.level}, size={len(self.members)})"


def _positions(classes):
    """Class -> the ascending positions at which `classes`, a list, holds
    it. Lists, not `array('i')`: an array boxes each position again on
    every read."""
    runs = {c: [] for c in set(classes)}
    for i, c in enumerate(classes):
        runs[c].append(i)
    return runs


class EdgeOrder:
    """Every edge of the graph an index was built from, in sorted order
    (`edges`). Each node id's positions in `edges` are kept on the order,
    so they go wherever the order goes: whatever replaces or drops an
    index's order drops its runs with it. The build passes them in, from
    `classes`, each edge's class; any other order derives them from the
    owning index's edge map on first use."""

    __slots__ = ("edges", "_runs")

    def __init__(self, edges, classes=None):
        self.edges = edges
        self._runs = None if classes is None else _positions(classes)

    def runs(self, class_of):
        """Node id (0 for none) -> the ascending positions of its edges in
        `edges`, read off the edge map `class_of`, kept."""
        if self._runs is None:
            self._runs = _positions(
                list(map(class_of.get, self.edges, repeat(0))))
        return self._runs


class QueryCounters:
    """Instrumentation for the access-pattern checks: the (id, level) of
    each super node the walk reached, once per node and only at level >=
    k, wing by wing in the order its frontier layers found them; how many
    result edges it emitted; and, per wing, which emission ran: "mask" (a
    slice copy of the kept edge order), "gather" (the nodes' sorted
    position runs in it) or "merge" (the same gather of the nodes' sorted
    member runs, without an order). See `_component_wings`."""

    def __init__(self):
        self.visited_nodes = []
        self.emitted_edges = 0
        self.emissions = []


class EquiWingIndex:
    def __init__(self):
        self.nodes = {}  # sn_id -> SuperNode
        self.super_edge_set = set()  # frozenset of (a, b) pairs, a < b
        # butterfly justification counts per super edge; None after
        # deserialization until rebuilt (derived, not serialized)
        self.edge_counts = None
        self.per_edge_node = {}
        self.node_level = {}  # sn_id -> level, for the query walk's filter
        self.vertex_seeds = {}
        self._adjacency = None
        # an EdgeOrder, derived like the adjacency: set by the build and by
        # `compress`, dropped by any node change, never serialized
        self._order = None
        self._next_id = 1
        # None on a plain index; on a compressed one the sorted
        # (old_id, kept_id) pairs, old != kept, of the merged nodes
        self.merge_log = None

    # -- structure maintenance -------------------------------------------

    def alloc_id(self):
        sn_id = self._next_id
        self._next_id += 1
        return sn_id

    def add_node(self, node):
        if node.sn_id in self.nodes:
            raise InternalConsistencyError(f"duplicate super node id {node.sn_id}")
        sn_id = node.sn_id
        self.nodes[sn_id] = node
        self._next_id = max(self._next_id, sn_id + 1)
        self.per_edge_node.update(dict.fromkeys(node.members, sn_id))
        self.node_level[sn_id] = node.level
        seeds = self.vertex_seeds
        for label in {*chain.from_iterable(node.members)}:
            if label in seeds:
                seeds[label].add(sn_id)
            else:
                seeds[label] = {sn_id}
        self._adjacency = self._order = None

    def remove_node(self, sn_id):
        """Detach a super node. Super edges touching it are left in place on
        purpose: update surgery takes back their justification counts bloom
        by bloom afterwards, under the old classes, and drops each one whose
        count reaches zero."""
        node = self.nodes.pop(sn_id)
        del self.node_level[sn_id]
        for e in node.members:
            if self.per_edge_node.get(e) == sn_id:
                del self.per_edge_node[e]
        for label in {x for e in node.members for x in e}:
            seeds = self.vertex_seeds.get(label)
            if seeds:
                seeds.discard(sn_id)
                if not seeds:
                    del self.vertex_seeds[label]
        self._adjacency = self._order = None
        return node

    def adjacency(self):
        if self._adjacency is None:
            adj = {sn_id: set() for sn_id in self.nodes}
            for a, b in self.super_edge_set:
                adj[a].add(b)
                adj[b].add(a)
            self._adjacency = adj
        return self._adjacency

    def replace_with(self, other):
        """Adopt every attribute of another index in place (rebuild
        fallback), derived ones included."""
        vars(self).update(vars(other))

    @property
    def k_max(self):
        """The largest node level (0 for an empty index)."""
        return max((n.level for n in self.nodes.values()), default=0)

    def compression_ratio(self):
        """Ratio of plain super node count to compressed count, recoverable
        from the compressed index alone (1.0 for a plain index)."""
        if not self.nodes:
            return 1.0
        return (len(self.nodes) + len(self.merge_log or ())) / len(self.nodes)

    def level_histogram(self):
        hist = {}
        for n in self.nodes.values():
            hist[n.level] = hist.get(n.level, 0) + 1
        return dict(sorted(hist.items()))

    def validate(self, wing_number=None):
        """Cheap structural invariant sweep; returns a list of problems.
        The level map must hold each node's level. A kept edge order must
        list its edges strictly increasing and hold every classed edge, so
        that the runs derived from it hold each node's members. Given the
        graph's wing numbers, each member's must be its node's level, and
        as many edges be classed as have one >= 1: then the classed edges
        are exactly those, and the index describes the graph."""
        problems = []
        # a sweep in C: when every member maps to its node and the map holds
        # as many edges as the nodes do, no edge is in two nodes or stray;
        # only otherwise are the members walked, to name the problems
        node_of = self.per_edge_node.get
        hits = members = 0
        for sn_id, node in self.nodes.items():
            hits += countOf(map(node_of, node.members), sn_id)
            members += len(node.members)
        swept = hits == members == len(self.per_edge_node)
        seen = {}
        for sn_id, node in self.nodes.items():
            if node.sn_id != sn_id:
                problems.append(f"node {sn_id} carries id {node.sn_id}")
            if node.level < 1:
                problems.append(f"node {sn_id} has level {node.level}")
            if not node.members:
                problems.append(f"node {sn_id} is empty")
            if swept:
                continue
            for e in node.members:
                if e in seen:
                    problems.append(f"edge {e} in nodes {seen[e]} and {sn_id}")
                seen[e] = sn_id
                if node_of(e) != sn_id:
                    problems.append(f"edge map wrong for {e}")
        if not swept and len(self.per_edge_node) != len(seen):
            problems.append("edge map has stray entries")
        if self.node_level != {s: n.level for s, n in self.nodes.items()}:
            problems.append("level map disagrees with the nodes")
        for a, b in self.super_edge_set:
            if a not in self.nodes or b not in self.nodes:
                problems.append(f"super edge ({a},{b}) touches a missing node")
                continue
            if self.nodes[a].level == self.nodes[b].level:
                problems.append(
                    f"same-level super nodes {a} and {b} are adjacent"
                )
        if self.edge_counts is not None:
            if set(self.edge_counts) != self.super_edge_set:
                problems.append("edge counts out of sync with super edges")
            if any(c <= 0 for c in self.edge_counts.values()):
                problems.append("non-positive super edge count")
        if self.merge_log is not None:
            olds = {old for old, _kept in self.merge_log}
            if len(olds) != len(self.merge_log) or any(
                old in self.nodes or kept not in self.nodes
                for old, kept in self.merge_log
            ):
                problems.append("merge log names missing or live nodes")
        if self._order is not None:
            edges = self._order.edges
            if not all(map(lt, edges, islice(edges, 1, None))):
                problems.append("kept edge order is not strictly increasing")
            if sum(map(self.per_edge_node.__contains__, edges)) != len(
                    self.per_edge_node):
                problems.append("kept edge order leaves out a classed edge")
        if wing_number is not None:
            level_of = wing_number.get
            for sn_id, n in self.nodes.items():
                if countOf(map(level_of, n.members), n.level) != len(
                        n.members):
                    problems.append(f"node {sn_id} level disagrees with "
                                    "wing numbers")
            unclassed = countOf(wing_number.values(), 0)
            if len(self.per_edge_node) != len(wing_number) - unclassed:
                problems.append("classed edges disagree with wing numbers")
        return problems


def find_root(parent, x):
    """Root of x in the union-find forest `parent`, compressing the path."""
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def form_classes(index, runs, level, pool, edges=None):
    """Add to `index` the classes that the union pass over the blooms in
    `runs` forms from the `pool` keys. Each bloom is one flat run of wedge
    keys a0, b0, a1, b1, ..., where a_i = (u1, x_i) and b_i = (u2, x_i)
    for its common neighbours x_i, and `level[key]` is the key's wing
    number. A key is an edge tuple or, given `edges`, a position in that
    sorted list; then `index` must hold no class. Each class of `index` is
    one union-find element, its id, so one chained to the pool joins whole
    and its members are never walked; surviving classes the pass chains to
    each other, with no pool edge, merge into one new class. Returns (id,
    absorbed nodes) per new class, in id order: by level, then smallest
    pooled edge, or for a merge of surviving classes alone their smallest
    member."""
    class_of, nodes = index.per_edge_node, index.nodes
    parent = {e: e for e in pool}

    def join(keys):  # union the keys, each as its class if it has one
        first = None
        for e in keys:
            x = class_of.get(e, e)
            root = parent.setdefault(x, x)
            if parent[root] != root:
                root = find_root(parent, x)
            if first is None:
                first = root
            elif root != first:
                parent[root] = first

    # a butterfly unions its min-level edges. In a bloom, the butterfly
    # {x, y} has minimum min(w_x, w_y), where w_x is the lower level of x's
    # two edges, so the level-m edges of every x with w_x = m fall in one
    # class, unless x is alone at the bloom's top level: then each of its
    # butterflies has its minimum on the other vertex
    for run in runs:
        if len(run) == 4:  # one butterfly: union its min-level edges
            w = list(map(level.__getitem__, run))
            m = min(w)
            if m >= 1 and w.count(m) >= 2:
                join(compress(run, map(m.__eq__, w)))
            continue
        at = {}  # w_x -> the level-w_x edges of each such x
        it = iter(run)
        for e1, e2 in zip(it, it):
            w1, w2 = level[e1], level[e2]
            if w1 < w2:
                m, es = w1, (e1,)
            elif w2 < w1:
                m, es = w2, (e2,)
            else:
                m, es = w1, (e1, e2)
            if m >= 1:
                at.setdefault(m, []).append(es)
        top = max(at, default=0)
        for m, xs in at.items():
            if len(xs) == 1 and (m == top or len(xs[0]) == 1):
                continue
            join(chain.from_iterable(xs))

    groups, joined = {}, {}
    for x in parent:
        if x in nodes:
            joined.setdefault(find_root(parent, x), []).append(x)
        else:
            groups.setdefault(find_root(parent, x), []).append(x)
    del parent  # the forest is done with before the nodes are made

    keys = {root: (level[g[0]], min(g)) for root, g in groups.items()}
    for root, ids in joined.items():
        if root not in keys and len(ids) >= 2:
            members = (nodes[s].members for s in ids)
            keys[root] = nodes[ids[0]].level, min(min(m) for m in members)
    formed = []
    for root in sorted(keys, key=keys.get):
        absorbed = [index.remove_node(s) for s in sorted(joined.get(root, ()))]
        members = groups.get(root, [])
        if edges is not None:
            members = map(edges.__getitem__, members)
        members = [*members, *(e for node in absorbed for e in node.members)]
        node = SuperNode(index.alloc_id(), keys[root][0], members)
        index.add_node(node)
        formed.append((node.sn_id, absorbed))
    return formed


@paused_collector
def build_equiwing(graph, decomp=None):
    """The index of `graph` from its decomposition. Both passes, the union
    of each butterfly's min-level edges and the justification counts, read
    the blooms by edge id from `decomp.blooms`, which enumerates them once
    when the decomposition has no record (after an update). The index
    keeps the edges in id order as its edge order."""
    decomp = decomp if decomp is not None else wing_decomposition(graph)
    edges, runs = decomp.blooms(graph)
    levels = list(map(decomp.wing_number.get, edges, repeat(0)))
    index = EquiWingIndex()
    pool = (i for i, w in enumerate(levels) if w >= 1)
    form_classes(index, runs(), levels, pool, edges)
    # the count pass: every super edge's justification count, bloom by bloom
    classes = list(map(index.per_edge_node.get, edges, repeat(0)))
    index.edge_counts = counts = {}
    for run in runs():
        add_bloom(counts, run, levels, classes, 1)
    index.super_edge_set = set(counts)
    index._order = EdgeOrder(edges, classes)
    return index


def add_bloom(counts, run, level, cls, sign):
    """Add `sign` times the justification counts that one bloom gives, as a
    flat run of wedge keys (see `form_classes`), under the wing numbers
    `level[key]` and classes `cls[key]` (0 for none).

    The butterfly {x, y} of a bloom pairs the class of its min-level edge
    with each other class among its four edges. Key each common neighbour x
    by (w_x, a_x, its two edges' classes), where w_x is the lower level of
    its edges and a_x the class of the first edge at that level. All
    butterflies between two keys then contribute the same pairs, with `a`
    taken from the lower key: n_i * n_j of them, or C(n, 2) within a key.
    """
    classes = {*map(cls.__getitem__, run)}
    classes.discard(0)
    if len(classes) < 2:
        return  # every pair joins two distinct classes of the bloom
    if len(run) == 4:  # one butterfly, whose lower key has the least (w, a)
        e1, e2, f1, f2 = run
        w1, w2, w3, w4 = level[e1], level[e2], level[f1], level[f2]
        w, a = min((w1, cls[e1]) if w1 <= w2 else (w2, cls[e2]),
                   (w3, cls[f1]) if w3 <= w4 else (w4, cls[f2]))
        if w >= 1 and a:
            for d in classes:
                if d != a:
                    pair = (a, d) if a < d else (d, a)
                    counts[pair] = counts.get(pair, 0) + sign
        return
    keys = {}
    it = iter(run)
    for e1, e2 in zip(it, it):
        w1, w2 = level[e1], level[e2]
        c1, c2 = cls[e1], cls[e2]
        key = (w1, c1, c1, c2) if w1 <= w2 else (w2, c2, c1, c2)
        keys[key] = keys.get(key, 0) + 1
    items = sorted(keys.items())
    for i, ((w, a, c1, c2), n) in enumerate(items):
        if w < 1 or not a:
            continue  # the lower key has no level or no class
        for j in range(i, len(items)):
            (_w, _a, d1, d2), nj = items[j]
            weight = sign * (n * (n - 1) // 2 if j == i else n * nj)
            if not weight:
                continue
            for d in {c1, c2, d1, d2}:
                if d and d != a:
                    pair = (a, d) if a < d else (d, a)
                    counts[pair] = counts.get(pair, 0) + weight


def id_map(index, want):
    """Map each node id of `want` to the id of `index`'s node with the same
    level and members. Raises unless `index` is `want` up to node ids: the
    same (level, members) nodes, the same super edges with each node named
    by its members, and a merge log as long (none counts as empty)."""
    id_of = {(n.level, n.members): sid for sid, n in index.nodes.items()}
    rename = {sid: id_of.get((n.level, n.members))
              for sid, n in want.nodes.items()}
    # want's nodes are distinct, so those found name distinct nodes
    if None in rename.values() or len(rename) != len(index.nodes):
        problem = "its nodes are not the graph's classes"
    elif {tuple(sorted((rename[a], rename[b])))
          for a, b in want.super_edge_set} != index.super_edge_set:
        problem = "its super edges are not the graph's"
    elif len(index.merge_log or ()) != len(want.merge_log or ()):
        problem = "its merge log has the wrong length"
    else:
        return rename
    kind = "index" if want.merge_log is None else "compressed index"
    raise InternalConsistencyError(f"{kind} does not match graph: {problem}")


def rebuild_edge_counts(index, graph, decomp):
    """Give a loaded plain index its justification counts (they are derived
    and not serialized): those of a fresh build of the graph of `decomp`,
    under the index's own node ids. Raises, with the index unchanged,
    unless it is that build up to node ids (see `id_map`)."""
    fresh = build_equiwing(graph, decomp)
    own = id_map(index, fresh)
    index.edge_counts = {tuple(sorted((own[a], own[b]))): n
                         for (a, b), n in fresh.edge_counts.items()}


# -- queries ---------------------------------------------------------------


def _component_wings(index, seed_ids, k, counters):
    """Walk each k-wing from the seeds and emit its edges in sorted order.

    The walk goes by frontier sets, one layer at a time: the union of the
    frontier's adjacency sets, less the wing so far, filtered to levels
    >= k through the index's node-id-to-level map (`node_level`), all in
    C. Its work is the visited nodes and their adjacency, and each visited
    node is counted once.

    Say a wing has r edges from b nodes, and the index keeps an edge order
    of m edges (see `EdgeOrder`). A wing of more than half of them, when
    4m <= r * b.bit_length(), is "mask": the positions it leaves out
    (every other run, class 0's included) are sorted and the slices of the
    edges between them copied and joined in C, O((m - r) log) ints sorted
    and r edges copied, with no tuple comparison. Every other wing is one
    gather: its nodes' sorted runs, concatenated in the order the walk
    found the nodes and, from more than one node, merged by one Timsort in
    O(r log b). They are position runs mapped through the order's edges
    ("gather") when the index keeps one, and the nodes' member runs
    (`SuperNode.ordered()`, compared as tuples: "merge") when it does not.
    Each answer is a new list. The 4 is measured on the 52,587-edge
    reference graph: the slice copy overtakes the gather from r *
    b.bit_length() of about 3-5m up, and the graph's wings fall either
    below 0.9m or above 4.5m. Its k=2 giant wing leaves out 544 edges,
    1.0% of m, and is slice-copied."""
    adj = index.adjacency()
    level_of = index.node_level
    order = index._order
    if order is None:  # m = r = 0: every wing is gathered
        nodes, m = index.nodes, 0

        def runs_of(ids):
            return map(SuperNode.ordered, map(nodes.__getitem__, ids))
    else:
        edges, runs = order.edges, order.runs(index.per_edge_node)
        runs_of, m = partial(map, runs.__getitem__), len(edges)
    seen = set()
    wings = []
    for sid in sorted(seed_ids):
        if sid in seen:
            continue
        wing, frontier, found = {sid}, (sid,), [sid]
        while frontier:
            reached = set().union(*map(adj.__getitem__, frontier))
            reached -= wing
            frontier = [*compress(reached, map(
                k.__le__, map(level_of.__getitem__, reached)))]
            wing.update(frontier)
            found += frontier
        seen |= wing
        r = 0 if order is None else sum(map(len, runs_of(wing)))
        if 2 * r > m and 4 * m <= r * len(wing).bit_length():
            cut = reduce(iadd, runs_of(runs.keys() - wing), [])
            cut.sort()
            members = reduce(iadd, map(edges.__getitem__, map(
                slice, chain((0,), map((1).__add__, cut)),
                chain(cut, (m,)))), [])
            emission = "mask"
        else:
            # runs in the order the walk found their nodes, which keeps
            # neighbouring classes together, merge 3-11% faster than in id
            # or set order on the 1,702-edge graph after updates
            members = reduce(iadd, runs_of(found), [])
            if len(found) > 1:
                members.sort()
            if order is None:
                emission = "merge"
            else:
                members = list(map(edges.__getitem__, members))
                emission = "gather"
        if counters is not None:
            counters.visited_nodes += zip(found,
                                          map(level_of.__getitem__, found))
            counters.emitted_edges += len(members)
            counters.emissions.append(emission)
        wings.append(members)
    wings.sort(key=lambda w: w[0])
    return wings


def query_equiwing(index, q, k, counters=None):
    """All k-wings containing vertex q, as sorted edge lists. A vertex with
    no classed edge yields an empty result. Every node's level is at least
    1, so k < 1 asks for the 1-wings."""
    seed_ids = [
        sid
        for sid in index.vertex_seeds.get(q, ())
        if index.nodes[sid].level >= k
    ]
    return _component_wings(index, seed_ids, k, counters)


# -- serialization -----------------------------------------------------------


def _checksum(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def serialize(index):
    """The plain layout, or with a merge log the compressed one: a `merges`
    count, nodes grouped into `L <level>` sections, and trailing `M` lines.
    Each node's member lines are in sorted order: read from its position
    run when the index keeps an edge order, so no member is compared, or
    else from `SuperNode.ordered()`."""
    comp = index.merge_log is not None
    nodes = index.nodes
    if index._order is None:
        ordered = SuperNode.ordered
    else:
        edges = index._order.edges
        runs = index._order.runs(index.per_edge_node)

        def ordered(node):
            return map(edges.__getitem__, runs[node.sn_id])
    lines = [COMP_FORMAT_HEADER if comp else FORMAT_HEADER]
    lines.append(f"kmax {index.k_max}")
    lines.append(f"nodes {len(nodes)}")
    lines.append(f"edges {len(index.super_edge_set)}")
    if comp:
        lines.append(f"merges {len(index.merge_log)}")
    level = None
    by_level = (lambda s: (nodes[s].level, s)) if comp else None
    for sn_id in sorted(nodes, key=by_level):
        node = nodes[sn_id]
        if comp and node.level != level:
            level = node.level
            lines.append(f"L {level}")
        lines.append(f"node {sn_id} {node.level} {len(node.members)}")
        for u, v in ordered(node):
            lines.append(f"m {u} {v}")
    for a, b in sorted(index.super_edge_set):
        lines.append(f"sedge {a} {b}")
    for old, kept in sorted(index.merge_log or ()):
        lines.append(f"M {old} {kept}")
    body = "\n".join(lines) + "\n"
    return body + f"checksum sha256 {_checksum(body)}\n"


@paused_collector
def _read(text, header, what):
    """Parse an index file whose first line must be `header`. The checksum
    is verified before anything else is read, and every malformation raises
    IndexFormatError."""
    stripped = text[:-1] if text.endswith("\n") else text
    cut = stripped.rfind("\n") + 1
    first = stripped.split("\n", 1)[0]
    if first != header:
        raise IndexFormatError(f"unsupported index format or version: {first!r}")
    # split on single spaces, so the line must match the writer's exactly
    check = stripped[cut:].split(" ")
    if not cut or len(check) != 3 or check[:2] != ["checksum", "sha256"]:
        raise IndexFormatError(f"{what}: missing or malformed checksum line")
    body = stripped[:cut]
    if _checksum(body) != check[2]:
        raise IndexFormatError(f"{what}: checksum mismatch")

    lines = body.split("\n")
    lines.pop()
    pos = 1

    def fail(msg):
        return IndexFormatError(f"{what}: line {pos + 1}: {msg}")

    def ints(keyword, n):
        nonlocal pos
        if pos >= len(lines):
            raise IndexFormatError(f"{what}: truncated file")
        parts = lines[pos].split()
        if len(parts) != n + 1 or parts[0] != keyword:
            raise fail(f"expected '{keyword}' with {n} values, got {lines[pos]!r}")
        try:
            values = [int(p) for p in parts[1:]]
        except ValueError:
            raise fail(f"bad integer in {lines[pos]!r}") from None
        pos += 1
        return values

    def count(keyword):
        (n,) = ints(keyword, 1)
        if n < 0:
            raise IndexFormatError(f"{what}: line {pos}: negative {keyword}")
        return n

    comp = header == COMP_FORMAT_HEADER
    (k_max,) = ints("kmax", 1)
    n_nodes, n_edges = count("nodes"), count("edges")
    n_merges = count("merges") if comp else 0
    index = EquiWingIndex()
    section = None
    for _ in range(n_nodes):
        while comp and pos < len(lines) and lines[pos].startswith("L"):
            (section,) = ints("L", 1)
        sn_id, level, n_members = ints("node", 3)
        if comp and level != section:
            raise fail(f"node {sn_id} outside its level section")
        if sn_id in index.nodes:
            raise fail(f"duplicate super node id {sn_id}")
        if n_members < 0 or pos + n_members > len(lines):
            raise IndexFormatError(f"{what}: truncated file")
        end = pos + n_members
        members = []
        for line in lines[pos:end]:
            mp = line.split()
            if len(mp) != 3 or mp[0] != "m":
                raise IndexFormatError(f"{what}: malformed member line {line!r}")
            members.append((mp[1], mp[2]))
        node = SuperNode(sn_id, level, members)
        if len(node.members) != n_members:
            raise fail(f"node {sn_id} lists a member edge twice")
        # file order is not trusted; Timsort checks sorted input in O(n)
        members.sort()
        node._ordered = members
        pos = end
        index.add_node(node)
    for _ in range(n_edges):
        a, b = ints("sedge", 2)
        index.super_edge_set.add((min(a, b), max(a, b)))
    if len(index.super_edge_set) != n_edges:
        raise IndexFormatError(f"{what}: a super edge is listed twice")
    if comp:
        index.merge_log = [tuple(ints("M", 2)) for _ in range(n_merges)]
    if pos != len(lines):
        raise fail("unexpected content before the checksum line")
    if index.k_max != k_max:
        raise IndexFormatError(f"{what}: kmax disagrees with node levels")
    problems = index.validate()
    if problems:
        raise IndexFormatError(f"{what}: {problems[0]}")
    return index


def deserialize(text):
    return _read(text, FORMAT_HEADER, "equiwing index")


def deserialize_comp(text):
    return _read(text, COMP_FORMAT_HEADER, "compressed index")

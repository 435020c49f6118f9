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

The index is label-based and self-sufficient: queries need only the index.
Compression (see compress.py) yields the same structure plus a merge log;
a compressed index is an EquiWingIndex whose `merge_log` is not None, queried
by the same walk and written by the same serializer in its own layout. Files
carry a version header and a trailing sha256 checksum, verified before any
other parsing.
"""

import hashlib

from .decomposition import wing_decomposition
from .errors import IndexFormatError, InternalConsistencyError
from .graph import butterfly_edges

FORMAT_HEADER = "EQUIWING v1"
COMP_FORMAT_HEADER = "EQUIWING-COMP v1"


class SuperNode:
    __slots__ = ("sn_id", "level", "members")

    def __init__(self, sn_id, level, members):
        self.sn_id = sn_id
        self.level = level
        self.members = set(members)

    def __repr__(self):
        return f"SuperNode({self.sn_id}, level={self.level}, size={len(self.members)})"


class QueryCounters:
    """Instrumentation for the access-pattern checks: which super nodes a
    query expanded and how many result edges it emitted."""

    def __init__(self):
        self.visited_nodes = []
        self.emitted_edges = 0

    def visit(self, node):
        self.visited_nodes.append((node.sn_id, node.level))

    def emit(self, n):
        self.emitted_edges += n


class EquiWingIndex:
    def __init__(self):
        self.nodes = {}  # sn_id -> SuperNode
        self.super_edge_set = set()  # frozenset of (a, b) pairs, a < b
        # butterfly justification counts per super edge; None after
        # deserialization until rebuilt (derived, not serialized)
        self.edge_counts = None
        self.k_max = 0
        self.per_edge_node = {}
        self.vertex_seeds = {}
        self._adjacency = None
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
        self.nodes[node.sn_id] = node
        self._next_id = max(self._next_id, node.sn_id + 1)
        for e in node.members:
            self.per_edge_node[e] = node.sn_id
            u, v = e
            self.vertex_seeds.setdefault(u, set()).add(node.sn_id)
            self.vertex_seeds.setdefault(v, set()).add(node.sn_id)
        self._adjacency = None

    def remove_node(self, sn_id):
        """Detach a super node. Super edges touching it are left in place on
        purpose: update surgery subtracts their justification counts edge by
        edge, and a restore-after-recheck must not lose them."""
        node = self.nodes.pop(sn_id)
        for e in node.members:
            if self.per_edge_node.get(e) == sn_id:
                del self.per_edge_node[e]
        for label in {x for e in node.members for x in e}:
            seeds = self.vertex_seeds.get(label)
            if seeds:
                seeds.discard(sn_id)
                if not seeds:
                    del self.vertex_seeds[label]
        self._adjacency = None
        return node

    def adjacency(self):
        if self._adjacency is None:
            adj = {sn_id: set() for sn_id in self.nodes}
            for a, b in self.super_edge_set:
                adj[a].add(b)
                adj[b].add(a)
            self._adjacency = adj
        return self._adjacency

    def node_of_edge(self, e):
        return self.per_edge_node.get(e)

    def replace_with(self, other):
        """Adopt another index's contents in place (rebuild fallback)."""
        self.nodes = other.nodes
        self.super_edge_set = other.super_edge_set
        self.edge_counts = other.edge_counts
        self.k_max = other.k_max
        self.per_edge_node = other.per_edge_node
        self.vertex_seeds = other.vertex_seeds
        self._adjacency = None
        self._next_id = other._next_id

    def compression_ratio(self):
        """Ratio of plain super node count to compressed count, recoverable
        from the compressed index alone (1.0 for a plain index)."""
        if not self.nodes:
            return 1.0
        return (len(self.nodes) + len(self.merge_log or ())) / len(self.nodes)

    def refresh_k_max(self):
        self.k_max = max((n.level for n in self.nodes.values()), default=0)

    def level_histogram(self):
        hist = {}
        for n in self.nodes.values():
            hist[n.level] = hist.get(n.level, 0) + 1
        return dict(sorted(hist.items()))

    def validate(self):
        """Cheap structural invariant sweep; returns a list of problems."""
        problems = []
        seen = {}
        for sn_id, node in self.nodes.items():
            if node.sn_id != sn_id:
                problems.append(f"node {sn_id} carries id {node.sn_id}")
            if node.level < 1:
                problems.append(f"node {sn_id} has level {node.level}")
            if not node.members:
                problems.append(f"node {sn_id} is empty")
            for e in node.members:
                if e in seen:
                    problems.append(f"edge {e} in nodes {seen[e]} and {sn_id}")
                seen[e] = sn_id
                if self.per_edge_node.get(e) != sn_id:
                    problems.append(f"edge map wrong for {e}")
        if len(self.per_edge_node) != len(seen):
            problems.append("edge map has stray entries")
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
        return problems


def contribution_pairs(b, wn, class_of):
    """Super-edge contributions of one butterfly under the given wing numbers
    and edge->node map: pairs (min-level class, other class)."""
    es = butterfly_edges(b)
    levels = [wn.get(e, 0) for e in es]
    m = min(levels)
    if m < 1:
        return ()
    a = None
    for e, lv in zip(es, levels):
        if lv == m:
            a = class_of.get(e)
            break
    if a is None:
        return ()
    out = set()
    for e in es:
        d = class_of.get(e)
        if d is not None and d != a:
            out.add((min(a, d), max(a, d)))
    return out


def build_equiwing(graph, decomp=None):
    decomp = decomp if decomp is not None else wing_decomposition(graph)
    wn = decomp.wing_number

    # pass 1: union min-level edges of every butterfly
    parent = {e: e for e, w in wn.items() if w >= 1}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for b in graph.all_butterflies():
        es = butterfly_edges(b)
        levels = [wn.get(e, 0) for e in es]
        m = min(levels)
        if m < 1:
            continue
        first = None
        for e, lv in zip(es, levels):
            if lv == m:
                if first is None:
                    first = find(e)
                else:
                    parent[find(e)] = first

    groups = {}
    for e in parent:
        groups.setdefault(find(e), []).append(e)

    index = EquiWingIndex()
    ordered = sorted(groups.values(), key=lambda g: (wn[g[0]], min(g)))
    for members in ordered:
        index.add_node(SuperNode(index.alloc_id(), wn[members[0]], members))
    index.refresh_k_max()

    # pass 2: super edges with justification counts
    index.edge_counts = _edge_counts(graph, wn, index.per_edge_node)
    index.super_edge_set = set(index.edge_counts)
    index._adjacency = None
    return index


def _edge_counts(graph, wn, class_of):
    """Butterfly justification count of every super edge."""
    counts = {}
    for b in graph.all_butterflies():
        for pair in contribution_pairs(b, wn, class_of):
            counts[pair] = counts.get(pair, 0) + 1
    return counts


def rebuild_edge_counts(index, graph, wn):
    """Recompute justification counts from the graph (they are derived and
    not serialized). Raises if the graph and index disagree."""
    counts = _edge_counts(graph, wn, index.per_edge_node)
    if set(counts) != index.super_edge_set:
        raise InternalConsistencyError(
            "index super edges do not match the graph; was the index built "
            "from this graph?"
        )
    index.edge_counts = counts


# -- queries ---------------------------------------------------------------


def _component_wings(index, seed_ids, k, counters):
    adj = index.adjacency()
    nodes = index.nodes
    visited = set()
    wings = []
    for sid in sorted(seed_ids):
        if sid in visited:
            continue
        stack = [sid]
        visited.add(sid)
        members = []
        while stack:
            cur = stack.pop()
            node = nodes[cur]
            if counters is not None:
                counters.visit(node)
            members.extend(node.members)
            for nb in adj[cur]:
                if nb not in visited and nodes[nb].level >= k:
                    visited.add(nb)
                    stack.append(nb)
        if counters is not None:
            counters.emit(len(members))
        wings.append(sorted(members))
    wings.sort(key=lambda w: w[0])
    return wings


def query_equiwing(index, q, k, counters=None):
    """All k-wings containing vertex q, as sorted edge lists. A vertex with
    no classed edge yields an empty result."""
    if k < 1:
        k = 1
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
    count, nodes grouped into `L <level>` sections, and trailing `M` lines."""
    comp = index.merge_log is not None
    nodes = index.nodes
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
        for u, v in sorted(node.members):
            lines.append(f"m {u} {v}")
    for a, b in sorted(index.super_edge_set):
        lines.append(f"sedge {a} {b}")
    for old, kept in sorted(index.merge_log or ()):
        lines.append(f"M {old} {kept}")
    body = "\n".join(lines) + "\n"
    return body + f"checksum sha256 {_checksum(body)}\n"


def _read(text, header, what):
    """Parse an index file whose first line must be `header`. The checksum
    is verified before anything else is read, and every malformation raises
    IndexFormatError."""
    stripped = text[:-1] if text.endswith("\n") else text
    cut = stripped.rfind("\n") + 1
    first = stripped.split("\n", 1)[0]
    if first != header:
        raise IndexFormatError(f"unsupported index format or version: {first!r}")
    check = stripped[cut:].split()
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

    comp = header == COMP_FORMAT_HEADER
    (k_max,) = ints("kmax", 1)
    (n_nodes,) = ints("nodes", 1)
    (n_edges,) = ints("edges", 1)
    (n_merges,) = ints("merges", 1) if comp else (0,)
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
        pos = end
        index.add_node(SuperNode(sn_id, level, members))
    for _ in range(n_edges):
        a, b = ints("sedge", 2)
        index.super_edge_set.add((min(a, b), max(a, b)))
    if comp:
        index.merge_log = [tuple(ints("M", 2)) for _ in range(n_merges)]
    if pos != len(lines):
        raise fail("unexpected content before the checksum line")
    index.refresh_k_max()
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

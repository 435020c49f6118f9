"""Bipartite graph storage, edge-list IO and butterfly primitives.

Vertices are labels (strings). The two sides are separate namespaces: a label
may appear on both sides and names two different vertices. Edges are
(u_label, v_label) tuples with u on the left/U side.

A butterfly is a 2x2 biclique: vertices {u, u2} x {v, v2}, four edges, all
distinct. Canonical form is (u1, u2, v1, v2) with u1 < u2 and v1 < v2. A
bloom folds the butterflies of one U pair u1 < u2 with at least two common
neighbours; `blooms()` gives each as a run of integer edge ids, positions in
the sorted edge list, so whole-graph passes never build an edge tuple.
Two passes read butterflies: `all_butterflies` unfolds the blooms, and
`butterfly_others` reads those through one edge from the adjacency sets.
"""

import os
import stat
import tempfile
from itertools import combinations

from .errors import GraphFormatError, UnknownEdgeError

COMMENT_PREFIXES = ("%", "#")


class BipartiteGraph:
    def __init__(self):
        self.adj_u = {}  # u label -> set of v labels
        self.adj_v = {}  # v label -> set of u labels

    @property
    def num_edges(self):
        return sum(len(s) for s in self.adj_u.values())

    @property
    def num_u(self):
        return len(self.adj_u)

    @property
    def num_v(self):
        return len(self.adj_v)

    def has_edge(self, u, v):
        return u in self.adj_u and v in self.adj_u[u]

    def has_vertex(self, label):
        return label in self.adj_u or label in self.adj_v

    def insert_edge(self, u, v):
        """Add edge (u,v). Returns True if added, False if it already existed."""
        if self.has_edge(u, v):
            return False
        self.adj_u.setdefault(u, set()).add(v)
        self.adj_v.setdefault(v, set()).add(u)
        return True

    def delete_edge(self, u, v):
        if not self.has_edge(u, v):
            raise UnknownEdgeError(f"edge ({u}, {v}) not in graph")
        self.adj_u[u].discard(v)
        self.adj_v[v].discard(u)
        if not self.adj_u[u]:
            del self.adj_u[u]
        if not self.adj_v[v]:
            del self.adj_v[v]

    def edges(self):
        for u, vs in self.adj_u.items():
            for v in vs:
                yield (u, v)

    def sorted_edges(self):
        return sorted(self.edges())

    def copy(self):
        g = BipartiteGraph()
        g.adj_u = {u: set(vs) for u, vs in self.adj_u.items()}
        g.adj_v = {v: set(us) for v, us in self.adj_v.items()}
        return g

    def butterfly_others(self, u, v, intern):
        """One flat list of the other three edges (u, v2), (u2, v), (u2, v2)
        of each butterfly through (u, v), for u2 in N(v) and then v2 in
        N(u) & N(u2), read straight from the adjacency sets. For an absent
        edge, those of the butterflies that inserting it would close. Every
        edge tuple is taken from the dict `intern`, so each edge is one
        object across calls."""
        vs = self.adj_u.get(u, frozenset())
        out = []
        add = out.append
        get = intern.setdefault
        for u2 in self.adj_v.get(v, ()):
            if u2 == u:
                continue
            g2 = get((u2, v), (u2, v))
            for v2 in vs & self.adj_u[u2]:
                if v2 != v:
                    g1, g3 = (u, v2), (u2, v2)
                    add(get(g1, g1))
                    add(g2)
                    add(get(g3, g3))
        return out

    def all_butterflies(self):
        """Yield every butterfly exactly once, in canonical form: each pair
        v1 < v2 of the common neighbours of each `blooms()` run."""
        edges, runs = self.blooms()
        for run in runs:
            u1, u2 = edges[run[0]][0], edges[run[1]][0]
            common = [edges[a][1] for a in run[::2]]  # ascending
            for v1, v2 in combinations(common, 2):
                yield (u1, u2, v1, v2)

    def blooms(self):
        """(edges, runs): the sorted edge list, and every U pair u1 < u2
        with at least two common neighbours x_0 < x_1 < ... as its bloom,
        one flat run of wedge ids a0, b0, a1, b1, ..., where a_i is the
        position in `edges` of (u1, x_i) and b_i that of (u2, x_i).

        A bloom is the 2 x c biclique of the pair and its c common
        neighbours: it holds c(c-1)/2 butterflies, and each of its 2c edges
        lies in c-1 of them. Folding butterflies into blooms lets whole-graph
        passes run in wedges plus blooms rather than butterflies.

        `runs` is a generator, read once, of new lists that the caller may
        keep and change. Each right vertex x has a column, its edge ids in
        ascending u, and one cursor into it; walking the edges in order,
        edge (u1, x) is next in x's column, and the ids after it close
        every wedge u1 - x - u2 with u2 > u1, so each wedge is read once.
        The runs come by u1, then by u2's first wedge, in an order that
        does not depend on the hash seed."""
        edges = self.sorted_edges()
        return edges, _bloom_runs(edges)


def _bloom_runs(edges):
    col = {}  # v label -> its edge ids in ascending u
    rank = []  # edge id -> the rank of its u among the left vertices
    r, u1 = -1, None
    for j, (u, x) in enumerate(edges):
        if u != u1:
            r, u1 = r + 1, u
        rank.append(r)
        if x in col:
            col[x].append(j)
        else:
            col[x] = [j]
    read = dict.fromkeys(col, 0)  # v label -> ids of its column read
    # per rank of u2, the pair (u1, u2)'s first wedge (first_a is -1 while
    # it has none) and, from its second wedge on, its run: most pairs share
    # one neighbour, and these slots spare them a list each
    first_a, first_b = [-1] * (r + 1), [0] * (r + 1)
    run_of = [None] * (r + 1)
    u1, paired = None, []  # the ranks u1 has a wedge with, by first wedge
    for u, x in edges:
        if u != u1:
            yield from _flush(first_a, run_of, paired)
            u1, paired = u, []
        c = col[x]
        p = read[x] + 1
        read[x] = p
        a = c[p - 1]  # the column's own int, so each id is one object
        for b in c[p:]:
            o = rank[b]
            run = run_of[o]
            if run is not None:
                run += a, b
            elif first_a[o] < 0:
                first_a[o], first_b[o] = a, b
                paired.append(o)
            else:  # grown from two by +=: with a four-slot literal, the
                # reference graph's peel and build peaked 10 MB higher
                run = run_of[o] = [first_a[o], first_b[o]]
                run += a, b
    yield from _flush(first_a, run_of, paired)


def _flush(first_a, run_of, paired):
    """The runs of two or more wedges among `paired`; every slot is
    cleared for the next u1."""
    for o in paired:
        first_a[o] = -1
        run = run_of[o]
        if run is not None:
            run_of[o] = None
            yield run


def butterfly_edges(b):
    u1, u2, v1, v2 = b
    return ((u1, v1), (u1, v2), (u2, v1), (u2, v2))


def load_edge_list(path):
    """Parse a two-column whitespace-separated edge list.

    Lines starting with '%' or '#' are comments. First column is the U side.
    Duplicate edges are dropped and counted. Returns (graph, duplicate_count).
    Raises GraphFormatError on unreadable or non-UTF-8 input or a line that
    does not have exactly two columns.
    """
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from exc
    graph = BipartiteGraph()
    duplicates = 0
    with fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith(COMMENT_PREFIXES):
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise GraphFormatError(
                        f"{path}: line {lineno}: expected 2 columns, "
                        f"got {len(parts)}"
                    )
                if not graph.insert_edge(parts[0], parts[1]):
                    duplicates += 1
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"cannot read {path}: {exc}") from exc
    return graph, duplicates


def atomic_write_text(path, text):
    """Write text to path via a temp file + rename, so readers never see a
    torn file. A replaced file keeps its mode; a new one gets 0o666 less
    the umask, as open() would give it."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        os.fchmod(fd, mode)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_edge_list(graph, path):
    lines = [f"{u}\t{v}\n" for u, v in graph.sorted_edges()]
    atomic_write_text(path, "".join(lines))

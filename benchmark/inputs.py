"""Frozen benchmark inputs: graphs, query samples and mutation streams.

Everything here is the benchmark's own code, so a change to
`wingsearch.generate` or `wingsearch.bench` cannot move a workload. The
generator reproduces the seeded planted-block model the library ships with;
each graph carries the fingerprint the workload asserts before it measures.
"""

import random


class GraphSpec:
    """A seeded planted-block bipartite graph plus the fingerprint its
    wing structure must show (edges, k_max, super nodes, super edges,
    compressed nodes, and the number of vertices owning an edge whose wing
    number is at least `k_dense`)."""

    def __init__(self, name, n_u, n_v, p, blocks, seed, k_dense, fingerprint):
        self.name = name
        self.n_u = n_u
        self.n_v = n_v
        self.p = p
        self.blocks = blocks
        self.seed = seed
        self.k_dense = k_dense
        self.fingerprint = fingerprint

    def edges(self):
        """Every (u, v) pair independently with probability p, plus planted
        rows x cols blocks filled with per-cell probability q; labels a<i>
        and b<j>; sorted. Same draws, in the same order, as the generator
        the reference numbers were taken with."""
        rng = random.Random(self.seed)
        edges = set()
        for i in range(self.n_u):
            u = f"a{i}"
            for j in range(self.n_v):
                if rng.random() < self.p:
                    edges.add((u, f"b{j}"))
        for rows, cols, q in self.blocks:
            us = rng.sample(range(self.n_u), rows)
            vs = rng.sample(range(self.n_v), cols)
            for i in us:
                u = f"a{i}"
                for j in vs:
                    if rng.random() < q:
                        edges.add((u, f"b{j}"))
        return sorted(edges)


# The criterion-9 reference graph: a ~52k-edge giant wing plus three dense
# blocks. Index build dominates set-up; queries walk 2,442 super nodes.
REFERENCE = GraphSpec(
    "reference", 2000, 2000, 0.0125, ((30, 30, 0.9),) * 3, 91, 25,
    {"edges": 52587, "k_max": 531, "super_nodes": 2442,
     "super_edges": 6618, "comp_nodes": 60, "dense_vertices": 589},
)

# The maintenance graph. An update on it costs 0.3-0.6x a rebuild, so the
# incremental path is far from cheap here as on bigger graphs, yet updates
# are quick enough (~70 ms) that a 20 s run holds ~250 of them; on the
# 6.4k-edge 400x400 graph a run would hold about eight.
SMALL = GraphSpec(
    "small", 200, 200, 0.035, ((12, 12, 0.9),) * 2, 91, 25,
    {"edges": 1702, "k_max": 74, "super_nodes": 181,
     "super_edges": 618, "comp_nodes": 27, "dense_vertices": 48},
)

# Smoke size for every workload: a quick check of the whole harness.
TINY = GraphSpec(
    "tiny", 60, 60, 0.06, ((8, 8, 0.9),), 91, 10,
    {"edges": 284, "k_max": 20, "super_nodes": 49,
     "super_edges": 121, "comp_nodes": 16, "dense_vertices": 21},
)


def write_edge_list(edges, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{u}\t{v}\n" for u, v in edges)


def degree_deciles(edges, n_buckets=10):
    """Every vertex of both sides ordered by (degree, label) and cut into
    n_buckets equal slices; the last slice takes the remainder."""
    deg = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    labels = sorted(deg, key=lambda x: (deg[x], x))
    size = max(1, len(labels) // n_buckets)
    return [
        labels[i * size:(i + 1) * size if i < n_buckets - 1 else len(labels)]
        for i in range(n_buckets)
        if i * size < len(labels)
    ]


def dense_vertices(wing_number, k):
    return sorted({x for e, w in wing_number.items() if w >= k for x in e})


class MutationStream:
    """Seeded single-edge mutations, half inserts and half deletes.

    Every other mutation undoes the one before it: insert e, delete e,
    delete f, insert f, and so on, so every draw applies to the start graph.
    Left to drift over update-mixed's ~250 mutations a run, the graph's peak
    memory spread by 4% across seeds; with undo pairs, by 1%.

    Each draw is stratified and still uniform at the margin. Vertices are
    ranked by current degree and edges by their endpoints' degree product,
    and each ranking is cut into ten equal strata. A delete's stratum comes
    from a fresh seeded order of the ten every ten deletes. An insert's
    (u stratum, v stratum) cell comes from a fresh seeded order of all 100
    cells every 100 inserts, and u and v are then drawn until the pair is
    absent. Within its stratum a draw is uniform.

    An update's cost spans 100x between fringe and dense-block edges. On the
    small graph a delete inside a block took ~0.5 s and made ~40% of a run's
    update time, and so did an insert joining two block vertices. Drawn
    independently, one run met none of those inserts and the next met two.
    The fixed cycles keep every run's mix of the costly and cheap kinds
    alike across seeds.

    With `top` below ten, draws come from the lowest `top` strata only,
    which keeps mutations off the highest-degree vertices and edges. The
    stream tracks the edge set itself, so each mutation is valid whatever
    the program under test does.
    """

    STRATA = 10
    TRIES = 64  # u, v draws within one insert cell before moving on

    def __init__(self, spec, edges, seed, top=STRATA):
        self.rng = random.Random(seed)
        self.top = top
        self.us = [f"a{i}" for i in range(spec.n_u)]
        self.vs = [f"b{j}" for j in range(spec.n_v)]
        self.edges = set(edges)
        self.deg = dict.fromkeys(self.us + self.vs, 0)
        for u, v in edges:
            self.deg[u] += 1
            self.deg[v] += 1
        self.count = 0
        self.orders = {}
        self.pending = None  # the mutation that reverts the last draw

    def cell(self, name, cells):
        """The next cell of a seeded order of range(cells), reshuffled
        whenever it runs out."""
        order = self.orders.setdefault(name, [])
        if not order:
            order.extend(range(cells))
            self.rng.shuffle(order)
        return order.pop()

    def pick(self, population, key, stratum):
        ranked = sorted(population, key=key)
        n = len(ranked)
        lo = stratum * n // self.STRATA
        hi = max(lo + 1, (stratum + 1) * n // self.STRATA)
        return ranked[self.rng.randrange(lo, hi)]

    def next(self):
        if self.pending is not None:
            kind, e = self.pending
            self.pending = None
        else:
            kind, e = self.draw()
            self.pending = ("delete" if kind == "insert" else "insert", e)
        step = 1 if kind == "insert" else -1
        if step > 0:
            self.edges.add(e)
        else:
            self.edges.discard(e)
        for x in e:
            self.deg[x] += step
        return kind, e

    def draw(self):
        """A fresh stratified mutation: inserts and deletes alternate."""
        self.count += 1
        by_degree = lambda x: (self.deg[x], x)
        if self.count % 2:
            e = None
            while e is None:
                su, sv = divmod(self.cell("insert", self.top ** 2), self.top)
                for _ in range(self.TRIES):
                    pair = (self.pick(self.us, by_degree, su),
                            self.pick(self.vs, by_degree, sv))
                    if pair not in self.edges:
                        e = pair
                        break
            return "insert", e
        return "delete", self.pick(
            self.edges, lambda f: (self.deg[f[0]] * self.deg[f[1]], f),
            self.cell("delete", self.top))

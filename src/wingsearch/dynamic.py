"""Single-edge insert/delete maintenance for the decomposition and index.

The machinery leans on a locality fact about wing numbers: w(e) is the
largest k such that e lies in at least k butterflies whose other three edges
all have wing number >= k. Consequences used here:

* insert upper bound: after inserting e', no wing number anywhere exceeds
  bound = l + delta, where delta is the largest number of new butterflies any
  single edge gains and l is the h-index, over the new butterflies, of the
  minimum old wing number of the three existing edges. A higher value for
  any edge would certify a wing that must already have existed.
* insert rise: no other edge rises by more than delta. The new k-bitruss
  less e' is a subgraph of the old graph in which every edge keeps at least
  k - delta butterflies, so it lies in the old (k - delta)-bitruss.
* insert reach: no edge rises past w'(e'), and the edges that rise past t
  are butterfly-connected to e' through each other within the new
  t-bitruss. A t-bitruss without e', or a part that did not reach e' with
  the old t-bitruss, would be a t-bitruss of the old graph. So every edge g
  that rises shares a butterfly with e' or with a riser f that starts at
  or below g's old value and ends above it.
* delete cap: only edges with old wing number <= w(e') can change.
* exact recomputation: repeatedly lower values to the h-index of the
  edge's butterflies' minima; from any start at or above the true new wing
  numbers this reaches them, the greatest fixpoint below the start.

Both kinds share one path and one order: read the butterflies through e'
once (those it closes, or the dying ones), as the flat list of their other
three edges that the walk reads for every edge, then walk and re-form on
G + e'. e' is in the graph throughout the update, at level 0 on the side
where it is absent, and no h-index at 1 or above counts a butterfly
through an edge at 0. One count, how many of those butterflies each other
edge lies in, gives delta, the support patch and an insert's start
values; one counted h-index, `_h_index`, gives the bound's l and every
evaluation of the walk. An insert starts at e' alone, its butterflies
already read. It takes in an edge g only from a butterfly neighbour f
whose old value is at most g's and whose evaluation, like g's cap, stays
above g's old value: the cap is the least of the bound, g's new support
and w(g) + delta. By the insert facts every edge that rises is taken in.
Each edge taken in is evaluated once before any is evaluated again; then
the edges left outside settle, once, at their old values. A delete starts
at the old values, which hold but on the dying butterflies: it seeds
their edges, and e' at 0, and takes in another edge only when a
neighbour's drop crosses its value. Either walk enumerates each edge's
butterflies once.
The scope's classes are those of e' and of the changed edges, the classes a
created or dying butterfly chains, and on a delete the classes at the old
minimum of each butterfly whose minimum drops: only there can a delete
split a class, and it never joins two. Index surgery removes them and
re-forms their edges in one run of the build's own union pass over the
blooms that meet them. A surviving class chained to them joins whole, and
surviving classes chained to each other through a changed edge merge: an
insert joins classes only there and never splits one. Either way the
scope widens. The super edges' justification counts are then patched with
the build's own bloom kernel, over the same blooms: one read of them
feeds both passes. The index is validated against the new wing numbers
after every update; on any violation it is rebuilt from scratch and the
report says so.

Surgery reads those blooms from the decomposition's `BloomMap`, which
lives across updates: per edge, the left-vertex pairs whose bloom holds
it, and per pair its flat wedge run, filled the first time an edge is
read. An update of e = (u, v) moves only the entries of e and of the
other three edges of each butterfly through e, and the runs of the pairs
(u, u2) for u2 in N(v) (`BloomMap.invalidate` proves it). They are
dropped right after an insert puts e in, and right after a delete takes
it out, once surgery, which runs on G + e, has read them. So a class that
updates re-form again and again costs no intersection after its first,
and a cold map costs one intersection per pair per update.
"""

from collections import Counter, defaultdict, deque
from itertools import compress as where, repeat
from operator import and_, eq, gt
from time import perf_counter

from .compress import compress
from .equiwing import add_bloom, build_equiwing, form_classes, rebuild_edge_counts
from .errors import (
    InternalConsistencyError,
    InvalidArgumentError,
    UnknownEdgeError,
)
from .graph import BipartiteGraph


def _h_index(capped, top):
    """The largest t with at least t values >= t, over values no greater
    than `top`, given as a Counter `capped` of them: counted, not sorted."""
    h, seen = top, capped[top]
    while seen < h:
        h -= 1
        seen += capped[h]
    return h


def compute_delta(graph, u, v):
    """Largest number of new butterflies any single existing edge would gain
    from inserting (u, v)."""
    return _start(graph, {}, "insert", u, v)[0].delta


def wing_upper_bound(graph, decomp, u, v):
    """Sound upper bound on every wing number after inserting (u, v)."""
    return _start(graph, decomp.wing_number, "insert", u, v)[0].upper_bound


class UpdateReport:
    """What one edge update moves. `affected_edges` returns it before any
    surgery, holding the scope: the edges and classes that may be re-formed
    and `changed`, edge -> (old, new) wing number. `apply_update` widens
    the same report with the surviving classes its surgery absorbs.
    `upper_bound` is the insert bound, or the deleted edge's wing number.
    `counters` holds the walk's work: `evaluations`, `taken_in` (edges the
    walk took in beyond its start), `butterflies_scanned` (butterflies
    read, summed over evaluations) and `settled` (edges an insert left
    outside at their old values, though their caps allowed a rise);
    `apply_update` adds surgery's `pairs` (left-vertex pairs whose
    neighbour sets the bloom map intersected, as scope edges it did not
    hold yet were read), `blooms` (the blooms surgery reads), `cached`
    (scope edges whose blooms came from the map) and `reformed` (the
    classes surgery removed, absorbed ones included).
    `apply_update` fills `timings`, the seconds of each of its phases:
    `start`, `walk`, `reclassify`, `patch_counts` and `validate`;
    `apply_update_comp` adds `compress`. When the check after surgery
    fails, `fell_back` is set and `fallback_reason` keeps the first
    problem it found. No payload line prints the counters, the timings
    or the reason."""

    def __init__(self, kind, edge, upper_bound, delta):
        self.kind = kind
        self.edge = edge
        self.upper_bound = upper_bound
        self.delta = delta
        self.affected_edges = set()
        self.affected_nodes = set()
        self.changed = {}
        self.new_node_ids = []
        self.events = []
        self.fell_back = False
        self.fallback_reason = None
        self.counters = {}
        self.timings = {}

    def lines(self, number=1):
        """The CLI's payload lines for this update as mutation `number`."""
        u, v = self.edge
        out = [f"mutation {number} {self.kind} {u} {v}"]
        if self.kind == "insert":
            out.append(f"upper_bound {self.upper_bound}")
            out.append(f"delta {self.delta}")
        ids = " ".join(str(s) for s in sorted(self.affected_nodes))
        out += [
            f"affected_edges {len(self.affected_edges)}",
            f"affected_super_nodes {len(self.affected_nodes)}",
            f"affected_super_node_ids {ids or '-'}",
            f"changed_wing_numbers {len(self.changed)}",
            f"fell_back {'yes' if self.fell_back else 'no'}",
        ]
        out += [f"event {ev}" for ev in self.events]
        return out


class _Values(dict):
    """The value each edge counts at in a walk: its walk value, or for an
    edge outside the walk `outside(edge)`, filled in when first read."""

    def __init__(self, outside):
        super().__init__()
        self.outside = outside

    def __missing__(self, g):
        v = self[g] = self.outside(g)
        return v


def _fixpoint(graph, wn, up, memo, cap=None):
    """Lower `up` values to the greatest fixpoint of the locality operator
    below their start. `memo`, edge -> its flat list of
    `graph.butterfly_others`, holds what the caller has read already, and
    each other edge's butterflies are enumerated once per walk into it.
    Returns the memo, the values, edge -> the value it counts at (the
    walk's for an edge in `up`), and the walk's work counters. An
    evaluation of f from `old` gives val, the `_h_index` of its
    butterflies' minima capped at old. A drop from old to val queues each
    butterfly neighbour in the walk whose value v has val < v <= old: only
    such a drop costs it a butterfly whose minimum reaches v. No floor is
    needed: the iterates never fall below the true new values.

    On a delete (no `cap`) an edge outside the walk counts at its old value
    w, and is taken in at w when a drop crosses it: val < w <= old.

    An insert of e passes `cap(g)`, a sound cap on g's new value: the least
    of the bound, g's new support and w(g) + delta; w(e) = 0. An edge g
    outside the walk with cap(g) > w(g) is a potential riser and counts at
    cap(g); any other counts at w(g), which is its new value. An
    evaluation of f that gives val takes a potential riser g in, at
    cap(g), when w(f) <= w(g) < min(val, cap(g)). An edge whose value is
    back at w is not evaluated: it can fall no lower. Three facts make
    this exact, for g != e:

    (a) w'(g) <= w(g) + delta. The new k-bitruss less e is a subgraph of
        the old graph in which every edge keeps at least k - delta
        butterflies, so it lies in the old (k - delta)-bitruss.
    (b) If g rises past t, the edges new to the t-bitruss are butterfly
        connected to e through each other within it: a part that did not
        reach e would, with the old t-bitruss, be a t-bitruss of the old
        graph.
    (c) A riser g shares a butterfly with e, or with a riser f such that
        w(f) <= w(g) < w'(f). No edge rises past w'(e): for t > w'(e) the
        new t-bitruss lacks e, so it lies in the old t-bitruss. So at
        t = w(g) + 1 both g and e are new to the t-bitruss, and (b) gives
        a chain from e to g whose edges are all new at t: each has
        w <= w(g) and w' > w(g). g's predecessor on it is f.

    By induction on w(g), then along the chain, every riser is taken in:
    f is taken in and evaluated, every val(f) is at least w'(f) > w(g),
    and cap(g) >= w'(g) > w(g).

    Edges taken in wait in `fresh`, ahead of the re-evaluations that drops
    queue, so each is evaluated once before any is re-evaluated. Values
    only fall, so an edge takes in at its first evaluation all it ever
    will. Once `fresh` is empty every riser is in the walk and every walk
    edge's butterflies have been read, so no later read finds another
    potential riser, and the walk settles once: each potential riser still
    outside does not rise, and counts at w(g) from then on. A walk edge whose
    value that drop from cap(g) to w(g) crosses goes back on the queue,
    found through the memo: no butterflies are enumerated again. Until
    the settle every value counts at or above the truth, so the walk
    still ends at the new wing numbers."""
    intern = {}
    risers = {}  # an outside edge whose cap exceeds w -> w

    def outside(g):
        w = wn.get(g, 0)
        if cap:
            c = cap(g)
            if c > w:
                risers[g] = w
                return c
        return w

    value = _Values(outside)
    value.update(up)
    get = value.__getitem__
    work = deque(sorted(up))
    fresh = deque()  # taken in, not yet evaluated: ahead of `work`
    inwork = set(work)
    evaluations = scanned = settled = 0
    seeded = len(up)
    while fresh or risers or work:
        if fresh:
            f = fresh.popleft()
        elif risers:  # the settle
            settled += len(risers)
            drops = {g: (w, value[g]) for g, w in risers.items()}
            value.update(risers)
            risers.clear()
            for g, v in up.items():
                if v > wn.get(g, 0) and g not in inwork:
                    read = map(drops.get, filter(drops.__contains__, memo[g]))
                    if any(w < v <= c for w, c in read):
                        inwork.add(g)
                        work.append(g)
            continue
        else:
            f = work.popleft()
        inwork.discard(f)
        old = up[f]
        wf = wn.get(f, 0)
        if cap and old <= wf:
            continue
        others = memo.get(f)
        if others is None:
            others = memo[f] = graph.butterfly_others(*f, intern)
        evaluations += 1
        scanned += len(others) // 3
        top = min(old, len(others) // 3)
        it = map(get, others)
        val = _h_index(Counter(map(min, it, it, it, repeat(top))), top)
        if risers and val > wf:
            for g in filter(risers.__contains__, others):
                if wf <= risers[g] < val:
                    del risers[g]
                    up[g] = value[g]
                    inwork.add(g)
                    fresh.append(g)
        if val < old:
            up[f] = value[f] = val
            for g in others:
                v = value[g]
                if (val < v <= old and g not in inwork
                        and (g in up or not cap)):
                    up[g] = v
                    inwork.add(g)
                    work.append(g)
    return memo, value, {
        "evaluations": evaluations,
        "taken_in": len(up) - seeded,
        "butterflies_scanned": scanned,
        "settled": settled,
    }


def _start(graph, wn, kind, u, v):
    """Check the request and open its report, bound and delta filled in.
    Returns it with `through`, the butterflies the update creates or
    destroys, taken before the edge is applied as the flat list of their
    other three edges that `graph.butterfly_others` gives, and their
    `gain`: edge f != e -> how many of them f lies in."""
    e = (u, v)
    if kind == "insert":
        if graph.has_edge(u, v):
            raise InvalidArgumentError(f"edge ({u}, {v}) already present")
    elif kind != "delete":
        raise InvalidArgumentError(f"unknown update kind {kind!r}")
    elif not graph.has_edge(u, v):
        raise UnknownEdgeError(f"edge ({u}, {v}) not in graph")
    through = graph.butterfly_others(u, v, {})
    gain = Counter(through)
    if kind == "delete":
        return UpdateReport(kind, e, wn.get(e, 0), None), through, gain
    delta = max(gain.values(), default=0)
    top = len(through) // 3
    it = map(wn.get, through, repeat(0))
    l = _h_index(Counter(map(min, it, it, it, repeat(top))), top)
    return UpdateReport(kind, e, l + delta, delta), through, gain


def _scope(graph, decomp, index, report, through, gain):
    """Fill in the report's scope on `graph`, which holds e; `through` holds
    the other three edges of each butterfly the update creates or destroys,
    and `gain` how many of them each edge lies in. `decomp` is read, as it
    was before the update."""
    wn = decomp.wing_number
    e = report.edge
    p = report.upper_bound  # e's level: the bound on insert, w(e) on delete

    # a butterfly seeds the class of each other edge x that it chains: one
    # whose level is at least 1 and at most the minimum of the other three,
    # e's among them, so x is at its trio's minimum and that is at most p
    seeds = {index.per_edge_node.get(e)}
    it = iter(through)
    for trio in zip(it, it, it):
        low = min(map(wn.get, trio, repeat(0)))
        if 1 <= low <= p:
            seeds.update(index.per_edge_node.get(x) for x in trio
                         if wn.get(x, 0) == low)

    memo = {e: through}  # the butterflies e closes, or the dying ones
    if report.kind == "insert":
        up = {e: min(p, len(through) // 3)}
        delta = report.delta

        def cap(g):  # the bound, g's new support and fact (a)
            return min(p, decomp.support[g] + gain[g], wn.get(g, 0) + delta)
    else:
        # the old values hold everywhere but on the dying butterflies, and
        # e, still in the graph, counts at 0: no h-index above 0 counts it
        up = {y: wn[y] for y in through if 1 <= wn.get(y, 0) <= p}
        up[e], cap = 0, None
    memo, value, report.counters = _fixpoint(graph, wn, up, memo, cap)

    changed = {f for f in up if up[f] != wn.get(f, 0) and f != e}
    seeds.update(index.per_edge_node.get(f) for f in changed)
    if report.kind == "delete":
        # a butterfly whose minimum drops may split the class of each edge
        # at its old minimum (the dying ones are seeded above); an insert
        # lowers nothing. Every changed edge was evaluated, so the memo
        # holds its butterflies and the values their edges' new values. f's
        # own class is seeded above; the scan runs column by column in C
        old_of, new_of = wn.__getitem__, value.__getitem__
        for f in changed:
            others = memo[f]
            it, nt = map(old_of, others), map(new_of, others)
            lows = list(map(min, it, it, it, repeat(wn[f])))
            drops = list(map(gt, lows, map(min, nt, nt, nt, repeat(up[f]))))
            for j in range(3):
                col = others[j::3]
                at_low = map(and_, drops, map(eq, map(old_of, col), lows))
                seeds.update(map(index.per_edge_node.get, where(col, at_low)))
    seeds.discard(None)
    affected = changed | {e}
    for sid in seeds:
        affected |= index.nodes[sid].members
    report.affected_nodes = seeds
    report.affected_edges = affected
    report.changed = {f: (wn[f], up[f]) for f in changed}
    old, new = wn.get(e, 0), up.get(e, 0)  # a deleted e drops to 0
    if old != new:
        report.changed[e] = (old, new)


def affected_edges(graph, decomp, index, kind, u, v):
    """The update's report before any surgery: bound, delta, the scope and
    `changed`. Mutates nothing and leaves the bloom map alone: a delete
    reads the caller's graph, and an insert a graph with the edge that
    copies only its two ends' neighbour sets."""
    report, through, gain = _start(graph, decomp.wing_number, kind, u, v)
    if kind == "insert":
        applied = BipartiteGraph()
        applied.adj_u = {**graph.adj_u, u: {*graph.adj_u.get(u, ()), v}}
        applied.adj_v = {**graph.adj_v, v: {*graph.adj_v.get(v, ()), u}}
        graph = applied
    _scope(graph, decomp, index, report, through, gain)
    return report


def _reclassify(index, wn, report, runs):
    """Remove the scope's classes and re-form its edges of level >= 1 with
    the build's union pass, over the `runs` of the blooms that meet the
    scope. A surviving class chained to them, or chained to another
    through a changed edge, joins whole: the report takes in its id and
    members. Returns the members so taken in. A butterfly with no scope
    edge holds no changed edge and is not new, so it chains only edges
    that already sit in one surviving class; no other bloom can move a
    class boundary, and one that meets only an unclassed scope edge
    unites nothing new."""
    for sid in report.affected_nodes:
        index.remove_node(sid)
    pool = {f for f in report.affected_edges if wn.get(f, 0) >= 1}
    taken_in = []
    for nid, absorbed in form_classes(index, runs, wn, pool):
        for node in absorbed:
            report.affected_nodes.add(node.sn_id)
            taken_in.extend(node.members)
            report.events.append(
                f"absorbed surviving class {node.sn_id} at level {node.level}"
            )
        report.new_node_ids.append(nid)
    report.affected_edges.update(taken_in)
    return taken_in


def _patch_counts(index, runs, wn, wn_old, class_old):
    """Patch the justification counts bloom by bloom. Each of `runs`, the
    blooms that meet a scope edge, e' included, takes back its old bloom
    under the old wing numbers and classes and adds its new one under the
    new maps. A pair that meets no scope edge holds only edges whose level
    and class did not move, so its two terms would cancel. On the side
    where e' is absent it has level 0 and no class, and adds nothing. A
    count that goes negative is stored as computed, so that `validate`
    names it and the update falls back to a rebuild."""
    class_new = defaultdict(int, index.per_edge_node)
    delta = {}
    for run in runs:
        add_bloom(delta, run, wn, class_new, 1)
        add_bloom(delta, run, wn_old, class_old, -1)

    counts = index.edge_counts
    for pair, d in delta.items():
        c = counts.get(pair, 0) + d
        if c:
            counts[pair] = c
            index.super_edge_set.add(pair)
        else:
            counts.pop(pair, None)
            index.super_edge_set.discard(pair)
    index._adjacency = None


def _lap(timings, phase, since):
    """Record the seconds since `since` as `timings[phase]`; returns now."""
    now = perf_counter()
    timings[phase] = now - since
    return now


def apply_update(graph, decomp, index, kind, u, v):
    """Apply one edge insert/delete, maintaining graph, decomposition and
    index in place; the decomposition's bloom record, which no longer
    holds, is dropped, and its bloom map is read and kept in step; an
    index loaded without counts first gets those of a fresh build from
    `rebuild_edge_counts`, which raises unless it is that build up to node
    ids. A delete takes the edge out only once the counts are patched.
    Returns the UpdateReport that `affected_edges` would give, widened by
    the surgery. A compressed index is refused before anything changes:
    update the plain one and compress it afterwards, as
    `apply_update_comp` does."""
    if index.merge_log is not None:
        raise InvalidArgumentError(
            "apply_update needs a plain index, not a compressed one")
    t = perf_counter()
    wn = decomp.wing_number
    report, through, gain = _start(graph, wn, kind, u, v)
    e = report.edge
    insert = kind == "insert"
    if index.edge_counts is None:
        rebuild_edge_counts(index, graph, decomp)
    # an inserted e reads level 0 and no class on the old side
    wn_old = defaultdict(int, wn)
    class_old = defaultdict(int, index.per_edge_node)
    t = _lap(report.timings, "start", t)

    decomp.bloom_runs = None  # the record holds only for the peeled graph
    blooms = decomp.bloom_map
    if insert:
        graph.insert_edge(u, v)
        blooms.invalidate(graph, e, through)
    _scope(graph, decomp, index, report, through, gain)

    sign = 1 if insert else -1
    for f, n in gain.items():
        decomp.support[f] += sign * n
    for f, (_old, new) in report.changed.items():
        wn[f] = new
    decomp.support[e] = len(through) // 3
    wn.setdefault(e, 0)
    t = _lap(report.timings, "walk", t)

    # the scope's blooms feed both surgery passes; those of the classes the
    # union pass absorbs are added. A delete still reads G + e
    found, misses = {}, set()
    pairs, cached = blooms.read(graph, wn, report.affected_edges, found,
                                misses)
    taken_in = _reclassify(index, wn, report, found.values())
    t = _lap(report.timings, "reclassify", t)
    more, kept = blooms.read(graph, wn, taken_in, found, misses)
    report.counters.update(pairs=pairs + more, blooms=len(found),
                           cached=cached + kept,
                           reformed=len(report.affected_nodes))
    _patch_counts(index, found.values(), wn, wn_old, class_old)
    if not insert:
        graph.delete_edge(u, v)
        blooms.invalidate(graph, e, through)
        del decomp.support[e], wn[e]
    t = _lap(report.timings, "patch_counts", t)

    # defensive validation; fall back to a scratch rebuild on any violation
    problems = index.validate(wn)
    if problems:
        report.events.extend(problems)
        rebuilt = build_equiwing(graph, decomp)
        bad = rebuilt.validate()
        if bad:
            raise InternalConsistencyError(
                f"index rebuild failed validation: {bad[0]}"
            )
        index.replace_with(rebuilt)
        report.fell_back = True
        report.fallback_reason = problems[0]
    _lap(report.timings, "validate", t)
    return report


def apply_update_comp(graph, decomp, index, comp, kind, u, v):
    """Like apply_update, keeping a compressed copy in step: `comp` comes
    back as it was when the update removed and formed no class, and is
    otherwise compressed afresh. Returns (report, new_comp).

    An untouched `comp` keeps its edge order (see `EdgeOrder`), and so
    does `index`: that path changes no edge's class, so the runs, which
    come from the edge map, still hold. An inserted edge at wing number 0
    is missing from the order's edges, and it lies in no wing. A deleted
    edge at wing number 0 stays in the order in run 0, with the edges of
    no class, so no query emits it. Any node removed or formed drops the
    order."""
    report = apply_update(graph, decomp, index, kind, u, v)
    t = perf_counter()
    untouched = not report.affected_nodes and not report.new_node_ids
    if comp is None or report.fell_back or not untouched:
        comp = compress(index)
    _lap(report.timings, "compress", t)
    return report, comp

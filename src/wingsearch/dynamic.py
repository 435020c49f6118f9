"""Single-edge insert/delete maintenance for the decomposition and index.

The machinery leans on a locality fact about wing numbers: w(e) is the
largest k such that e lies in at least k butterflies whose other three edges
all have wing number >= k. Consequences used here:

* insert upper bound: after inserting e', no wing number anywhere exceeds
  bound = l + delta, where delta is the largest number of new butterflies any
  single edge gains and l is the h-index, over the new butterflies, of the
  minimum old wing number of the three existing edges. A higher value for
  any edge would certify a wing that must already have existed.
* delete cap: only edges with old wing number <= w(e') can change.
* exact recomputation: repeatedly lower values to the h-index of the
  edge's butterflies' minima; from any start at or above the true new wing
  numbers this reaches them, the greatest fixpoint below the start.

Both kinds share one path and one order: take the butterflies through e'
(those it closes, or the dying ones), apply e', then find the scope on the
graph it leaves. One count, how many of those butterflies each other edge
lies in, gives delta, the support patch and an insert's start values. An
insert starts at e' alone; the walk takes in each edge below its bound when
it first reads it, at the lesser of the bound and its new support. A delete
starts at the old values, which hold but on the dying butterflies: it seeds
their edges and takes in another edge only when a neighbour's drop crosses
its value.
The scope's classes are those of e' and of the changed edges, the classes a
created or dying butterfly chains, and on a delete the classes at the old
minimum of each butterfly whose minimum drops: only there can a delete
split a class, and it never joins two. Index surgery removes them and
re-forms their edges in one run of the build's own union pass over the
blooms that meet them. A surviving class chained to them joins whole, and
surviving classes chained to each other through a changed edge merge: an
insert joins classes only there and never splits one. Either way the
scope widens. The super edges' justification counts are then patched with
the build's own bloom kernel, over the left-vertex pairs that meet the
scope. A structural validation pass runs after every update; on any
violation the index is rebuilt from scratch and the report says so.
"""

from collections import deque

from .compress import compress
from .equiwing import add_bloom, build_equiwing, form_classes, rebuild_edge_counts
from .errors import (
    InternalConsistencyError,
    InvalidArgumentError,
    UnknownEdgeError,
)
from .graph import butterfly_edges


def _h_index(values):
    h = 0
    for i, v in enumerate(sorted(values, reverse=True), start=1):
        if v >= i:
            h = i
        else:
            break
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
    `upper_bound` is the insert bound, or the deleted edge's wing number."""

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


def _fixpoint(graph, wn, up, start=None):
    """Lower `up` values to the greatest fixpoint of the locality operator
    below their start; an edge outside `up` counts at its old value w. An
    insert's `start(g)`, when not None, takes g in at that value the first
    time an evaluation reads it; an edge it leaves out sits at or above the
    bound and cannot move. Only a delete (no `start`) takes an edge outside
    `up` in, at w, when a drop crosses w. A drop from `old` to `val` queues
    each butterfly neighbour whose value v has val < v <= old: only such a
    drop costs it a butterfly whose minimum reaches v. No floor is needed:
    the iterates never fall below the true new values, on an insert at
    least the old."""
    work = deque(sorted(up))
    inwork = set(work)
    while work:
        f = work.popleft()
        inwork.discard(f)
        others = [[g for g in butterfly_edges(b) if g != f]
                  for b in graph.butterflies_of_edge(*f)]
        for gs in others if start else ():
            for g in gs:
                if g not in up:
                    s = start(g)
                    if s is not None:
                        up[g] = s
                        inwork.add(g)
                        work.append(g)
        old = up[f]
        val = _h_index(min(up.get(g, wn.get(g, 0)) for g in gs)
                       for gs in others)
        if val < old:
            up[f] = val
            for gs in others:
                for g in gs:
                    v = up.get(g, wn.get(g, 0))
                    if (val < v <= old and g not in inwork
                            and (g in up or start is None)):
                        up[g] = v
                        inwork.add(g)
                        work.append(g)


def _start(graph, wn, kind, u, v):
    """Check the request and open its report, bound and delta filled in.
    Returns it with the butterflies the update creates or destroys, taken
    before the edge is applied, and their `gain`: edge f != e -> how many
    of them f lies in."""
    e = (u, v)
    if kind == "insert":
        if graph.has_edge(u, v):
            raise InvalidArgumentError(f"edge ({u}, {v}) already present")
    elif kind != "delete":
        raise InvalidArgumentError(f"unknown update kind {kind!r}")
    elif not graph.has_edge(u, v):
        raise UnknownEdgeError(f"edge ({u}, {v}) not in graph")
    through = list(graph.butterflies_of_edge(u, v))
    gain = {}
    for b in through:
        for f in butterfly_edges(b):
            if f != e:
                gain[f] = gain.get(f, 0) + 1
    if kind == "delete":
        return UpdateReport(kind, e, wn.get(e, 0), None), through, gain
    delta = max(gain.values(), default=0)
    mins = [min(wn.get(f, 0) for f in butterfly_edges(b) if f != e)
            for b in through]
    return UpdateReport(kind, e, _h_index(mins) + delta, delta), through, gain


def _scope(graph, decomp, index, report, through, gain):
    """Fill in the report's scope on `graph`, which the update has already
    changed; `through` holds the butterflies it created or destroyed, and
    `gain` how many of them each other edge lies in. `decomp` is read, as
    it was before the update."""
    wn = decomp.wing_number
    e = report.edge
    p = report.upper_bound

    def level(f):  # e counts at the bound on insert, at w(e) on delete
        return p if f == e else wn.get(f, 0)

    # a butterfly seeds the class of each other edge x that it chains: one
    # whose level is at least 1 and at most the minimum of the other three
    seeds = {index.per_edge_node.get(e)}
    for b in through:
        es = butterfly_edges(b)
        for x in es:
            if x != e and 1 <= level(x) <= min(level(f) for f in es if f != x):
                seeds.add(index.per_edge_node.get(x))

    if report.kind == "insert":
        up = {e: min(p, len(through))}

        def start(y):  # an edge below the bound may rise, up to its support
            if wn.get(y, 0) < p:
                return min(p, decomp.support[y] + gain.get(y, 0))
            return None
    else:
        # the old values hold everywhere but on the dying butterflies
        up = {y: wn[y] for b in through for y in butterfly_edges(b)
              if y != e and 1 <= wn.get(y, 0) <= p}
        start = None
    _fixpoint(graph, wn, up, start)

    changed = {f for f in up if up[f] != wn.get(f, 0) and f != e}
    seeds.update(index.per_edge_node.get(f) for f in changed)
    if report.kind == "delete":
        # a butterfly whose minimum drops may split the class of each edge
        # at its old minimum (the dying ones are seeded above); an insert
        # lowers nothing
        for f in changed:
            for b in graph.butterflies_of_edge(*f):
                es = butterfly_edges(b)
                low = min(wn.get(x, 0) for x in es)
                if min(up.get(x, wn.get(x, 0)) for x in es) < low:
                    seeds.update(
                        index.per_edge_node.get(x)
                        for x in es if wn.get(x, 0) == low
                    )
    seeds.discard(None)
    affected = changed | {e}
    for sid in seeds:
        affected |= index.nodes[sid].members
    report.affected_nodes = seeds
    report.affected_edges = affected
    for f in affected:
        old = wn.get(f, 0)
        new = up.get(f, 0 if f == e else old)  # a deleted e drops to 0
        if old != new:
            report.changed[f] = (old, new)


def affected_edges(graph, decomp, index, kind, u, v):
    """The update's report before any surgery: bound, delta, the scope and
    `changed`. Mutates nothing: the update is evaluated on a copy of the
    graph with the edge applied."""
    report, through, gain = _start(graph, decomp.wing_number, kind, u, v)
    graph = graph.copy()
    (graph.insert_edge if kind == "insert" else graph.delete_edge)(u, v)
    _scope(graph, decomp, index, report, through, gain)
    return report


def _blooms_meeting(graph, edges):
    """Yield (u1, u2, common) for each left-vertex pair u1 < u2 that shares
    a neighbour x with (u1, x) in `edges`, with all their common neighbours
    (maybe fewer than two). These blooms hold every butterfly through
    `edges`."""
    adj_u, adj_v = graph.adj_u, graph.adj_v
    pairs = set()
    for u1, x in edges:
        for u2 in adj_v.get(x, ()):
            if u2 != u1:
                pairs.add((u1, u2) if u1 < u2 else (u2, u1))
    none = frozenset()
    for u1, u2 in pairs:
        yield u1, u2, adj_u.get(u1, none) & adj_u.get(u2, none)


def _reclassify(index, graph, wn, report):
    """Remove the scope's classes and re-form its edges of level >= 1 with
    the build's union pass, over the blooms that meet them. A surviving
    class chained to them, or chained to another through a changed edge,
    joins whole: the report takes in its id and members. A butterfly with
    no scope edge holds no changed edge and is not new, so it chains only
    edges that already sit in one surviving class; no other bloom can move
    a class boundary."""
    for sid in report.affected_nodes:
        index.remove_node(sid)
    pool = {f for f in report.affected_edges if wn.get(f, 0) >= 1}
    blooms = (b for b in _blooms_meeting(graph, pool) if len(b[2]) >= 2)
    for nid, absorbed in form_classes(index, blooms, wn, pool):
        for node in absorbed:
            report.affected_nodes.add(node.sn_id)
            report.affected_edges.update(node.members)
            report.events.append(
                f"absorbed surviving class {node.sn_id} at level {node.level}"
            )
        report.new_node_ids.append(nid)


def _patch_counts(graph, index, report, wn, wn_old, class_old):
    """Patch the justification counts bloom by bloom. Every left-vertex pair
    that shares a neighbour over a scope edge, e' included, takes back its
    old bloom under the old wing numbers and classes and adds its new one
    under the new maps. A pair that meets no scope edge holds only edges
    whose level and class did not move, so its two terms would cancel. A
    deleted e' = (u, v) is back in the old blooms of u with each remaining
    neighbour of v; an inserted e' is missing from the old wing numbers, so
    on the old side its butterflies count at level 0 and contribute
    nothing."""
    adj_v = graph.adj_v
    u, v = report.edge
    regain = set()
    if report.kind == "delete":
        regain = {(u, w) if u < w else (w, u) for w in adj_v.get(v, ())}
    delta = {}
    for u1, u2, common in _blooms_meeting(graph, report.affected_edges):
        old = common | {v} if (u1, u2) in regain else common
        if len(old) < 2:
            continue
        add_bloom(delta, u1, u2, common, wn, index.per_edge_node, 1)
        add_bloom(delta, u1, u2, old, wn_old, class_old, -1)

    counts = index.edge_counts
    for pair in sorted(delta):
        c = counts.get(pair, 0) + delta[pair]
        if c < 0:
            report.events.append(f"negative count for super edge {pair}")
            c = 0
        if c == 0:
            counts.pop(pair, None)
            index.super_edge_set.discard(pair)
        else:
            counts[pair] = c
            index.super_edge_set.add(pair)
    index._adjacency = None


def apply_update(graph, decomp, index, kind, u, v):
    """Apply one edge insert/delete, maintaining graph, decomposition and
    index in place. Returns the UpdateReport that `affected_edges` would
    give, widened by the surgery."""
    wn = decomp.wing_number
    report, through, gain = _start(graph, wn, kind, u, v)
    e = report.edge
    insert = kind == "insert"
    if index.edge_counts is None:
        rebuild_edge_counts(index, graph, wn)
    wn_old = dict(wn)
    class_old = dict(index.per_edge_node)

    (graph.insert_edge if insert else graph.delete_edge)(u, v)
    _scope(graph, decomp, index, report, through, gain)

    sign = 1 if insert else -1
    for f, n in gain.items():
        decomp.support[f] += sign * n
    for f, (_old, new) in report.changed.items():
        wn[f] = new
    if insert:
        decomp.support[e] = len(through)
        wn.setdefault(e, 0)
    else:
        decomp.support.pop(e, None)
        wn.pop(e, None)

    _reclassify(index, graph, wn, report)
    _patch_counts(graph, index, report, wn, wn_old, class_old)
    index.refresh_k_max()

    # defensive validation; fall back to a scratch rebuild on any violation
    problems = index.validate()
    classed = set(index.per_edge_node)
    expected = {f for f, w in wn.items() if w >= 1}
    if classed != expected:
        problems.append("classed edges disagree with wing numbers")
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
    return report


def apply_update_comp(graph, decomp, index, comp, kind, u, v):
    """Like apply_update, keeping a compressed copy in step: `comp` comes
    back as it was when the update removed and formed no class, and is
    otherwise compressed afresh. Returns (report, new_comp)."""
    report = apply_update(graph, decomp, index, kind, u, v)
    untouched = not report.affected_nodes and not report.new_node_ids
    if comp is None or report.fell_back or not untouched:
        return report, compress(index)
    return report, comp

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
* exact recomputation: start every possibly-affected edge at an optimistic
  upper value and repeatedly lower it to max(old floor, h-index of its
  butterflies' minima); the greatest fixpoint below the start equals the true
  new wing numbers.

Index surgery then removes the affected classes, re-forms them by chained
BFS (absorbing surviving classes it runs into, defensively widening the
scope), rechecks surviving classes whose chaining a butterfly's min-level
shift may have altered, and patches super edges through per-pair butterfly
justification counts. A structural validation pass runs after every update;
on any violation the index is rebuilt from scratch and the report says so.
"""

from collections import deque

from .compress import compress
from .decomposition import wing_decomposition
from .equiwing import (
    SuperNode,
    build_equiwing,
    contribution_pairs,
    rebuild_edge_counts,
)
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


def _prospective_partners(graph, u, v):
    """Partner pairs (u2, v2) such that inserting (u, v) would create the
    butterfly on {u, u2} x {v, v2}."""
    out = []
    for v2 in graph.adj_u.get(u, ()):
        for u2 in graph.adj_v.get(v, ()):
            if v2 in graph.adj_u.get(u2, ()):
                out.append((u2, v2))
    return out


def compute_delta(graph, u, v):
    """Largest number of new butterflies any single existing edge would gain
    from inserting (u, v)."""
    return _insert_bound_parts(graph, {}, u, v)[1]


def k_level_butterfly_count(graph, decomp, u, v, k):
    """Butterflies through (u, v) whose other three edges all have wing
    number >= k; k <= 0 disables the filter (plain support)."""
    if not graph.has_edge(u, v):
        raise UnknownEdgeError(f"edge ({u}, {v}) not in graph")
    wn = decomp.wing_number
    n = 0
    for b in graph.butterflies_of_edge(u, v):
        if k <= 0:
            n += 1
            continue
        if min(wn.get(f, 0) for f in butterfly_edges(b) if f != (u, v)) >= k:
            n += 1
    return n


def _insert_bound_parts(graph, wn, u, v):
    if graph.has_edge(u, v):
        raise InvalidArgumentError(f"edge ({u}, {v}) already present")
    partners = _prospective_partners(graph, u, v)
    counts = {}
    mins = []
    for u2, v2 in partners:
        others = ((u, v2), (u2, v), (u2, v2))
        mins.append(min(wn.get(f, 0) for f in others))
        for f in others:
            counts[f] = counts.get(f, 0) + 1
    delta = max(counts.values(), default=0)
    return _h_index(mins) + delta, delta, partners


def wing_upper_bound(graph, decomp, u, v):
    """Sound upper bound on every wing number after inserting (u, v)."""
    bound, _delta, _partners = _insert_bound_parts(
        graph, decomp.wing_number, u, v
    )
    return bound


class UpdateScope:
    """Pre-computed blast radius of one edge update: the edges whose wing
    number or class can change and the super nodes that may be restructured."""

    def __init__(self, kind, edge, affected_edges, affected_nodes,
                 upper_bound, projected, changed):
        self.kind = kind
        self.edge = edge
        self.affected_edges = affected_edges
        self.affected_nodes = affected_nodes
        self.upper_bound = upper_bound
        self.projected = projected  # edge -> new wing number, for E'
        self.changed = changed      # edges whose wing number moves
        self.delta = None


class UpdateReport:
    def __init__(self, kind, edge, upper_bound, delta):
        self.kind = kind
        self.edge = edge
        self.upper_bound = upper_bound
        self.delta = delta
        self.affected_edges = set()
        self.affected_nodes = set()
        self.changed = {}            # edge -> (old, new)
        self.new_node_ids = []
        self.removed_node_ids = set()
        self.touched_levels = set()
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


def _fixpoint(graph, wn, up, floors, skip_edge=None):
    """Lower `up` values to the greatest fixpoint of the locality operator,
    never dropping below `floors`. Butterflies containing skip_edge are
    ignored (delete evaluation before physical removal)."""
    work = deque(sorted(up))
    inwork = set(work)

    def cur(f):
        return up[f] if f in up else wn.get(f, 0)

    while work:
        f = work.popleft()
        inwork.discard(f)
        mins = []
        for b in graph.butterflies_of_edge(*f):
            es = butterfly_edges(b)
            if skip_edge is not None and skip_edge in es:
                continue
            mins.append(min(cur(g) for g in es if g != f))
        val = max(_h_index(mins), floors.get(f, 0))
        if val < up[f]:
            up[f] = val
            for b in graph.butterflies_of_edge(*f):
                for g in butterfly_edges(b):
                    if g in up and g not in inwork and g != f:
                        inwork.add(g)
                        work.append(g)


def _closure(graph, start, keep):
    """Edges reachable from `start` through butterflies, filtered by
    `keep`; expansion continues through kept edges only."""
    out = set()
    queue = deque([start])
    seen = {start}
    while queue:
        x = queue.popleft()
        for b in graph.butterflies_of_edge(*x):
            for y in butterfly_edges(b):
                if y in seen:
                    continue
                seen.add(y)
                if keep(y):
                    out.add(y)
                    queue.append(y)
    return out


def _insert_scope(graph, wn, index, e_new, bound, partners):
    u, v = e_new
    seeds = set()
    for u2, v2 in partners:
        others = ((u, v2), (u2, v), (u2, v2))
        for x in others:
            px = wn.get(x, 0)
            if px < 1 or px > bound:
                continue
            if min(wn.get(f, 0) for f in others if f != x) >= px:
                sid = index.per_edge_node.get(x)
                if sid is not None:
                    seeds.add(sid)

    cand = _closure(graph, e_new, lambda y: wn.get(y, 0) < bound)
    cand.discard(e_new)
    up = {y: min(bound, graph.support(*y)) for y in cand}
    up[e_new] = min(bound, len(partners))
    floors = {y: wn.get(y, 0) for y in up}
    _fixpoint(graph, wn, up, floors)

    changed = {f for f in up if up[f] != wn.get(f, 0) and f != e_new}
    node_ids = set(seeds)
    for f in changed:
        sid = index.per_edge_node.get(f)
        if sid is not None:
            node_ids.add(sid)
    affected = set(changed) | {e_new}
    for sid in node_ids:
        affected |= index.nodes[sid].members
    projected = {f: up.get(f, wn.get(f, 0)) for f in affected}
    return UpdateScope(
        "insert", e_new, affected, node_ids, bound, projected, changed
    )


def _delete_scope(graph, wn, index, e_old):
    p = wn.get(e_old, 0)
    if p == 0:
        return UpdateScope(
            "delete", e_old, {e_old}, set(), 0, {e_old: 0}, set()
        )
    dying = list(graph.butterflies_of_edge(*e_old))
    seeds = {index.per_edge_node[e_old]}
    for b in dying:
        es = butterfly_edges(b)
        for x in es:
            if x == e_old:
                continue
            px = wn.get(x, 0)
            if px < 1:
                continue
            if min(wn.get(f, 0) for f in es if f != x) >= px:
                sid = index.per_edge_node.get(x)
                if sid is not None:
                    seeds.add(sid)

    cand = _closure(graph, e_old, lambda y: 1 <= wn.get(y, 0) <= p)
    cand.discard(e_old)
    up = {y: wn[y] for y in cand}
    _fixpoint(graph, wn, up, {}, skip_edge=e_old)

    changed = {f for f in up if up[f] != wn.get(f, 0)}
    node_ids = set(seeds)
    for f in changed:
        sid = index.per_edge_node.get(f)
        if sid is not None:
            node_ids.add(sid)
    affected = set(changed) | {e_old}
    for sid in node_ids:
        affected |= index.nodes[sid].members
    projected = {f: up.get(f, wn.get(f, 0)) for f in affected}
    projected[e_old] = 0
    return UpdateScope(
        "delete", e_old, affected, node_ids, p, projected, changed
    )


def affected_edges(graph, decomp, index, kind, u, v):
    """Compute the update scope without mutating anything (the graph is
    briefly modified and restored for inserts; not safe under concurrency)."""
    wn = decomp.wing_number
    if kind == "insert":
        bound, delta, partners = _insert_bound_parts(graph, wn, u, v)
        graph.insert_edge(u, v)
        try:
            scope = _insert_scope(graph, wn, index, (u, v), bound, partners)
        finally:
            graph.delete_edge(u, v)
        scope.delta = delta
        return scope
    if kind == "delete":
        if not graph.has_edge(u, v):
            raise UnknownEdgeError(f"edge ({u}, {v}) not in graph")
        return _delete_scope(graph, wn, index, (u, v))
    raise InvalidArgumentError(f"unknown update kind {kind!r}")


def _reclassify(index, graph, wn, pool, removed_ids, r_total, events):
    """Re-form classes for the pooled edges, absorbing surviving classes the
    chained BFS reaches (their ids join removed_ids, members join r_total)."""
    new_ids = []
    pool = {f for f in pool if wn.get(f, 0) >= 1}
    visited = set()
    for start in sorted(pool, key=lambda f: (wn[f], f)):
        if start in visited:
            continue
        level = wn[start]
        comp = []
        stack = [start]
        visited.add(start)
        while stack:
            y = stack.pop()
            comp.append(y)
            for b in graph.butterflies_of_edge(*y):
                es = butterfly_edges(b)
                if min(wn.get(f, 0) for f in es) < level:
                    continue
                for z in es:
                    if z in visited or wn.get(z, 0) != level:
                        continue
                    sid = index.per_edge_node.get(z)
                    if sid is None:
                        visited.add(z)
                        stack.append(z)
                    else:
                        node = index.remove_node(sid)
                        removed_ids.add(sid)
                        r_total.update(node.members)
                        events.append(
                            f"absorbed surviving class {sid} at level {level}"
                        )
                        for m in node.members:
                            if m not in visited:
                                visited.add(m)
                                stack.append(m)
        nid = index.alloc_id()
        index.add_node(SuperNode(nid, level, comp))
        new_ids.append(nid)
    return new_ids


def _collect_min_shift_edges(graph, wn_old, wn_new, changed_edges, dying):
    """Unchanged edges sitting at the old/new min level of butterflies whose
    min level moved: their surviving classes need a chaining recheck."""
    drop_side = set()
    rise_side = set()
    seen = set()

    def handle(b, died=False):
        if b in seen:
            return
        seen.add(b)
        es = butterfly_edges(b)
        mo = min(wn_old.get(f, 0) for f in es)
        mn = 0 if died else min(wn_new.get(f, 0) for f in es)
        if mo == mn:
            return
        if mn < mo:
            for f in es:
                if wn_old.get(f, 0) == mo and wn_new.get(f, 0) == mo:
                    drop_side.add(f)
        else:
            for f in es:
                if wn_new.get(f, 0) == mn and wn_old.get(f, 0) == mn:
                    rise_side.add(f)

    for x in changed_edges:
        if graph.has_edge(*x):
            for b in graph.butterflies_of_edge(*x):
                handle(b)
    for b in dying:
        handle(b, died=True)
    return drop_side, rise_side


def _recheck_class(index, graph, wn, c_id, removed_ids, r_total, events):
    node = index.nodes.get(c_id)
    if node is None:
        return []
    members = set(node.members)
    level = node.level
    index.remove_node(c_id)
    pre_removed = set(removed_ids)
    sub_events = []
    new_ids = _reclassify(
        index, graph, wn, set(members), removed_ids, r_total, sub_events
    )
    if (
        len(new_ids) == 1
        and removed_ids == pre_removed
        and index.nodes[new_ids[0]].members == members
    ):
        index.remove_node(new_ids[0])
        index.add_node(SuperNode(c_id, level, members))
        return []
    removed_ids.add(c_id)
    r_total.update(members)
    events.extend(sub_events)
    events.append(f"rechained class {c_id} at level {level}")
    return new_ids


def _apply_count_delta(index, pairs, sign, touched_levels, level, events):
    counts = index.edge_counts
    for pair in pairs:
        touched_levels.add(level)
        c = counts.get(pair, 0) + sign
        if c < 0:
            events.append(f"negative count for super edge {pair}")
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
    index in place. Returns an UpdateReport."""
    wn = decomp.wing_number
    if index.edge_counts is None:
        rebuild_edge_counts(index, graph, wn)
    e = (u, v)
    wn_old = dict(wn)
    class_old = dict(index.per_edge_node)

    if kind == "insert":
        bound, delta, partners = _insert_bound_parts(graph, wn, u, v)
        graph.insert_edge(u, v)
        scope = _insert_scope(graph, wn, index, e, bound, partners)
        scope.delta = delta
        dying = []
        decomp.support[e] = len(partners)
        for u2, v2 in partners:
            for f in ((u, v2), (u2, v), (u2, v2)):
                decomp.support[f] = decomp.support.get(f, 0) + 1
    elif kind == "delete":
        if not graph.has_edge(u, v):
            raise UnknownEdgeError(f"edge ({u}, {v}) not in graph")
        scope = _delete_scope(graph, wn, index, e)
        dying = list(graph.butterflies_of_edge(u, v))
        for b in dying:
            for f in butterfly_edges(b):
                if f != e and f in decomp.support:
                    decomp.support[f] -= 1
        decomp.support.pop(e, None)
        graph.delete_edge(u, v)
    else:
        raise InvalidArgumentError(f"unknown update kind {kind!r}")

    report = UpdateReport(kind, e, scope.upper_bound, scope.delta)

    # new wing numbers
    changed_map = {}
    for f in scope.affected_edges:
        old = wn_old.get(f, 0)
        new = scope.projected.get(f, old)
        if old != new:
            changed_map[f] = (old, new)
    for f, (_old, new) in changed_map.items():
        wn[f] = new
    if kind == "insert":
        wn[e] = scope.projected.get(e, 0)
    else:
        wn.pop(e, None)
    report.changed = dict(changed_map)
    for old, new in report.changed.values():
        if old:
            report.touched_levels.add(old)
        if new:
            report.touched_levels.add(new)

    # partition surgery
    removed_ids = set(scope.affected_nodes)
    r_total = set(scope.affected_edges) | {e}
    events = report.events
    for sid in scope.affected_nodes:
        node = index.remove_node(sid)
        report.touched_levels.add(node.level)
    pool = {f for f in scope.affected_edges if f != e or kind == "insert"}
    new_ids = _reclassify(index, graph, wn, pool, removed_ids, r_total, events)

    # recheck surviving classes whose chaining may have shifted
    drop_side, rise_side = _collect_min_shift_edges(
        graph, wn_old, wn, set(report.changed) | {e}, dying
    )
    recheck = set()
    for f in drop_side:
        sid = class_old.get(f)
        if sid is not None and sid in index.nodes and sid not in set(new_ids):
            recheck.add(sid)
    for f in rise_side:
        sid = index.per_edge_node.get(f)
        if sid is not None and sid not in set(new_ids):
            recheck.add(sid)
    for sid in sorted(recheck):
        more = _recheck_class(
            index, graph, wn, sid, removed_ids, r_total, events
        )
        new_ids.extend(more)
    report.new_node_ids = new_ids
    report.removed_node_ids = removed_ids
    report.affected_nodes = set(removed_ids)
    report.affected_edges = set(r_total)
    for f in r_total:
        w0, w1 = wn_old.get(f, 0), wn.get(f, 0)
        if w0:
            report.touched_levels.add(w0)
        if w1:
            report.touched_levels.add(w1)
    for nid in new_ids:
        if nid in index.nodes:
            report.touched_levels.add(index.nodes[nid].level)

    # super edge surgery via justification counts
    seen = set()
    for f in sorted(r_total):
        if not graph.has_edge(*f):
            continue
        for b in graph.butterflies_of_edge(*f):
            if b in seen:
                continue
            seen.add(b)
            if kind == "insert" and e in butterfly_edges(b):
                continue
            es = butterfly_edges(b)
            mo = min(wn_old.get(g, 0) for g in es)
            if mo >= 1:
                _apply_count_delta(
                    index,
                    contribution_pairs(b, wn_old, class_old),
                    -1,
                    report.touched_levels,
                    mo,
                    events,
                )
    for b in dying:
        if b in seen:
            continue
        seen.add(b)
        es = butterfly_edges(b)
        mo = min(wn_old.get(g, 0) for g in es)
        if mo >= 1:
            _apply_count_delta(
                index,
                contribution_pairs(b, wn_old, class_old),
                -1,
                report.touched_levels,
                mo,
                events,
            )
    seen = set()
    for f in sorted(r_total):
        if not graph.has_edge(*f):
            continue
        for b in graph.butterflies_of_edge(*f):
            if b in seen:
                continue
            seen.add(b)
            es = butterfly_edges(b)
            mn = min(wn.get(g, 0) for g in es)
            if mn >= 1:
                _apply_count_delta(
                    index,
                    contribution_pairs(b, wn, index.per_edge_node),
                    +1,
                    report.touched_levels,
                    mn,
                    events,
                )
    index.refresh_k_max()

    # defensive validation; fall back to a scratch rebuild on any violation
    problems = index.validate()
    classed = set(index.per_edge_node)
    expected = {f for f, w in wn.items() if w >= 1}
    if classed != expected:
        problems.append("classed edges disagree with wing numbers")
    if problems:
        events.extend(problems)
        rebuilt = build_equiwing(graph, decomp)
        bad = rebuilt.validate()
        if bad:
            raise InternalConsistencyError(
                f"index rebuild failed validation: {bad[0]}"
            )
        index.replace_with(rebuilt)
        report.fell_back = True
        report.touched_levels = set(index.level_histogram())
    return report


def apply_update_comp(graph, decomp, index, comp, kind, u, v):
    """Like apply_update, additionally recompressing only the levels the
    update touched. Returns (report, new_comp)."""
    report = apply_update(graph, decomp, index, kind, u, v)
    lmax = max(report.touched_levels, default=0)
    if report.fell_back or comp is None:
        new_comp = compress(index)
    elif lmax <= 0:
        new_comp = comp
    else:
        new_comp = compress(
            index, levels=set(range(1, lmax + 1)), base=comp
        )
    return report, new_comp

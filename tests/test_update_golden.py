"""Multi-step maintenance golden: a seeded library session of 40 alternating
inserts and deletes on a planted-block graph, pinned step by step.

For every step the golden holds the update's payload lines
(`report.lines(i)`) and the sha256 of the plain and the compressed index
files after it, so a change to the update path that moves an event, a node
id or a single index byte shows up at the step where it first happens. The
session is chosen so that several steps absorb more than one surviving
class. To regenerate after a deliberate change of behaviour:

    PYTHONPATH=src python tests/test_update_golden.py

With `--digest` the script writes nothing. It runs the same kind of session
on several more planted-block graphs (1,200 updates) and prints one line per
step: the first 16 hex digits of the sha256 of the report lines, of the
sorted `changed` map, of the plain and the compressed index files, of
the sorted `edge_counts`, and of the state with every node id left out
(`_compact` in conftest.py, the form every differential compares). The
last column lets a differential survive a deliberate change of node ids.
To compare the update paths of two checkouts, run

    python tests/test_update_golden.py --digest > digest.txt

in each and `diff` the outputs. The script imports the `src/` beside it, so
copy it, with `conftest.py`, into a checkout that lacks the mode.

With `--reference` it runs the differential where classes have thousands
of members: four seeded updates, each on a fresh build of the 52,587-edge
criterion-9 graph. It prints one line per update: |changed|,
|affected_edges|, the update's seconds, their ratio to the seconds of the
build it ran on (peel, build and compress), the work counters
(`report.counters`), the seconds of each update phase (`report.timings`,
`<phase>_s`), the first 16 hex digits of the sha256 of the
report lines, the sorted `changed` map and both index files, and
`peak_rss_mb`, the process's peak resident set so far. An update that
fell back to a rebuild prints `fell_back` and its reason before the
hash. Compare the hashes of two checkouts; the seconds depend on the
machine, and the counters may vary a little with the string hash seed,
which orders the walk. It takes a few minutes.

With `--chained` it checks a maintained state against ground truth at
that scale: one build of the criterion-9 graph, then the four reference
updates and their undos in reverse order, each applied to the state the
last one left, which has no bloom record, no edge order and node ids
from surgery. After each update it peels, builds and compresses the same
graph afresh and compares the two states with node ids left out (see
`_compact` in conftest.py), and the `query_equiwing` and `query_comp`
answers at k = 2, 4 and 25 for both endpoints and two fixed vertices. It
prints the line `--reference` prints, with `equal yes` or `equal no` and
the parts that differ in place of the hash, and exits non-zero on any
difference. An update that falls back to a rebuild counts as one.

With `--stream` it replays 300 seeded alternating inserts and deletes on
the 1,702-edge graph of two 12x12 blocks, the graph of the benchmark's
update-mixed workload, from one fresh build. It prints, over all updates
and then per kind, the summed seconds of each update phase and the summed
work counters, and then the memory the updates cost: tracemalloc's live
growth and peak above the built state, and the process's peak resident
set. It takes about 15 s, most of it under tracemalloc; the seconds
depend on the machine.
"""

import os
import random
import resource
import sys
import time

from conftest import _compact, _sha, build

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "data", "update-session.txt")


def session(edges, seed, steps):
    """Alternate seeded random inserts and deletes on the graph of `edges`,
    yielding (step, report, decomp, index, comp) after each update."""
    g = build(edges)
    d, index, comp = _fresh(g)
    yield from updates(g, d, index, comp, seed, steps)


def updates(g, d, index, comp, seed, steps):
    """The updates of `session` on a built state."""
    from wingsearch import apply_update_comp

    r = random.Random(seed)
    for i in range(1, steps + 1):
        if i % 2:
            us, vs = sorted(g.adj_u), sorted(g.adj_v)
            u, v = r.choice(us), r.choice(vs)
            while g.has_edge(u, v):
                u, v = r.choice(us), r.choice(vs)
            kind = "insert"
        else:
            kind, (u, v) = "delete", r.choice(g.sorted_edges())
        report, comp = apply_update_comp(g, d, index, comp, kind, u, v)
        yield i, report, d, index, comp


def produce():
    """Run the session and return the golden text."""
    from wingsearch import generate_bipartite, serialize

    edges = generate_bipartite(30, 30, 0.08, 3, [(8, 8, 0.85), (6, 6, 0.9)])
    out = []
    for i, report, _d, index, comp in session(edges, 3, 40):
        out += report.lines(i)
        out.append(f"index sha256 {_sha(serialize(index))}")
        out.append(f"comp sha256 {_sha(serialize(comp))}")
    return "".join(line + "\n" for line in out)


def digest():
    """Yield one line of hashes per step of the differential sessions:
    twelve 30x30 graphs of 80 steps, a 60x60 graph and the 1,702-edge
    graph of two 12x12 blocks, 120 steps each."""
    from wingsearch import generate_bipartite, serialize

    blocks = [(8, 8, 0.9), (6, 6, 0.8)]
    graphs = [(f"30x30-{s}", (30, 30, 0.08, s, blocks), 80) for s in range(12)]
    graphs += [
        ("60x60", (60, 60, 0.06, 91, [(8, 8, 0.9)]), 120),
        ("200x200", (200, 200, 0.035, 91, [(12, 12, 0.9)] * 2), 120),
    ]
    for name, spec, steps in graphs:
        for i, report, d, index, comp in session(
            generate_bipartite(*spec), 7, steps
        ):
            texts = [
                "\n".join(report.lines(i)),
                repr(sorted(report.changed.items())),
                serialize(index),
                serialize(comp),
                repr(sorted(index.edge_counts.items())),
                repr(_compact(d, index, comp)),
            ]
            yield " ".join([name, str(i)] + [_sha(t)[:16] for t in texts])


# a delete of a level-4 edge, a delete of a random edge and two random
# inserts, drawn with random.Random(5)
REFERENCE_OPS = [
    ("delete", "a1825", "b552"),
    ("delete", "a864", "b1494"),
    ("insert", "a1659", "b664"),
    ("insert", "a471", "b936"),
]


def _reference_edges():
    from wingsearch import generate_bipartite

    return generate_bipartite(
        2000, 2000, 0.0125, seed=91, blocks=((30, 30, 0.9),) * 3
    )


def _fresh(g):
    """Peel, build and compress `g` from scratch: (decomp, index, comp)."""
    from wingsearch import build_equiwing, compress, wing_decomposition

    d = wing_decomposition(g)
    index = build_equiwing(g, d)
    return d, index, compress(index)


def _op_line(report, update_s, rebuild_s, outcome):
    """One line of `--reference` or `--chained` for `report`."""
    kind, (u, v) = report.kind, report.edge
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return (
        f"{kind} {u} {v} changed {len(report.changed)} "
        f"affected_edges {len(report.affected_edges)} "
        f"update_s {update_s:.2f} rebuild_s {rebuild_s:.2f} "
        f"ratio {update_s / rebuild_s:.2f} "
        + "".join(f"{k} {n} " for k, n in report.counters.items())
        + "".join(f"{k}_s {s:.2f} " for k, s in report.timings.items())
        + (f"fell_back {report.fallback_reason} " if report.fell_back else "")
        + f"{outcome} peak_rss_mb {peak_mb:.1f}"
    )


def reference():
    """Yield one line per update of REFERENCE_OPS, each run on a fresh
    build of the criterion-9 graph."""
    from wingsearch import apply_update_comp, serialize

    edges = _reference_edges()
    for kind, u, v in REFERENCE_OPS:
        g = build(edges)
        t0 = time.perf_counter()
        d, index, comp = _fresh(g)
        t1 = time.perf_counter()
        report, comp = apply_update_comp(g, d, index, comp, kind, u, v)
        t2 = time.perf_counter()
        text = "\n".join(report.lines() + [
            repr(sorted(report.changed.items())),
            serialize(index),
            serialize(comp),
        ])
        yield _op_line(report, t2 - t1, t1 - t0, f"sha {_sha(text)[:16]}")


def chained():
    """Yield one line per update of REFERENCE_OPS and then of their undos
    in reverse order, all applied to one maintained state and each
    compared with a fresh build of the graph it leaves."""
    from wingsearch import apply_update_comp, query_comp, query_equiwing

    g = build(_reference_edges())
    d, index, comp = _fresh(g)
    top = max(sorted(d.wing_number), key=d.wing_number.get)
    undo = {"insert": "delete", "delete": "insert"}
    ops = REFERENCE_OPS + [(undo[k], u, v) for k, u, v in REFERENCE_OPS[::-1]]
    for kind, u, v in ops:
        t0 = time.perf_counter()
        report, comp = apply_update_comp(g, d, index, comp, kind, u, v)
        t1 = time.perf_counter()
        fresh = _fresh(build(g.sorted_edges()))
        t2 = time.perf_counter()
        got, want = _compact(d, index, comp), _compact(*fresh)
        # a fallback rebuilds the index, so equality after it shows nothing
        differ = ["fell_back"] if report.fell_back else []
        differ += [part for part in got if got[part] != want[part]]
        for q in (u, v, "a0", top[0]):
            for k in (2, 4, 25):
                if (query_equiwing(index, q, k) != query_equiwing(fresh[1], q, k)
                        or query_comp(comp, q, k) != query_comp(fresh[2], q, k)):
                    differ.append(f"query:{q}:{k}")
        del fresh, got, want
        outcome = f"equal no {','.join(differ)}" if differ else "equal yes"
        yield _op_line(report, t1 - t0, t2 - t1, outcome)


def _tally(reports):
    """One line per group, all updates and then each kind: how many, the
    summed seconds of each phase (`report.timings`) and of the update, and
    the summed work counters (`report.counters`)."""
    groups = {"all": {}}
    for report in reports:
        for name in ("all", report.kind):
            group = groups.setdefault(name, {})
            group["updates"] = group.get("updates", 0) + 1
            seconds = {f"{k}_s": s for k, s in report.timings.items()}
            seconds["update_s"] = sum(report.timings.values())
            for k, n in [*seconds.items(), *report.counters.items()]:
                group[k] = group.get(k, 0) + n
    for name, group in groups.items():
        yield f"{name} " + " ".join(
            f"{k} {n:.3f}" if k.endswith("_s") else f"{k} {n}"
            for k, n in group.items())


def stream(steps=300, seed=5):
    """Yield the `--stream` lines: `_tally` of `steps` seeded alternating
    updates on the 1,702-edge graph of two 12x12 blocks, then the memory
    they cost. The updates run twice from the same fresh build: timed,
    after which `peak_rss_mb` is the process's peak resident set, and then
    under tracemalloc, whose `live_growth_mb` is what stays allocated once
    the last update returns and `traced_peak_mb` the highest point above
    the built state."""
    import gc
    import tracemalloc

    from wingsearch import generate_bipartite

    edges = generate_bipartite(200, 200, 0.035, 91, [(12, 12, 0.9)] * 2)
    g = build(edges)
    reports = [step[1] for step in updates(g, *_fresh(g), seed, steps)]
    yield from _tally(reports)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    del reports
    g = build(edges)
    state = _fresh(g)
    gc.collect()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    for _ in updates(g, *state, seed, steps):
        pass
    gc.collect()
    live, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    yield (f"memory live_growth_mb {(live - base) / 2**20:.3f} "
           f"traced_peak_mb {(peak - base) / 2**20:.3f} "
           f"peak_rss_mb {peak_mb:.1f}")


def test_session_matches_golden():
    with open(GOLDEN, encoding="utf-8", newline="") as fh:
        want = fh.read()
    assert produce() == want


def test_session_absorbs_several_classes_at_once():
    with open(GOLDEN, encoding="utf-8") as fh:
        steps = fh.read().split("mutation ")[1:]
    several = [s for s in steps if s.count("event absorbed") >= 2]
    assert len(several) >= 3


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    modes = {"--digest": digest, "--reference": reference,
             "--chained": chained, "--stream": stream}
    if len(sys.argv) == 2 and sys.argv[1] in modes:
        unequal = False
        for line in modes[sys.argv[1]]():
            print(line, flush=True)
            unequal |= " equal no " in line
        sys.exit(1 if unequal else 0)
    else:
        with open(GOLDEN, "w", encoding="utf-8", newline="") as fh:
            fh.write(produce())

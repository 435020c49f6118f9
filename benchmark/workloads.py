"""The three workloads: one caller, closed loop, one thread.

Each workload sets up R times (the median over these and any set-ups
sampled during the run is `setup_s`), then runs whole rounds of operations
until the measuring time is used up, timing every call into wingsearch on
its own, and checks the program's outputs after the timed loop. A traced run
alternates rounds between two equal start states, one untraced and one
traced, so comparing the two gives the tracing overhead.
"""

import argparse
import contextlib
import gc
import importlib
import io
import os
import random
import shutil
import time

from calibrate import Calibration
from inputs import (
    REFERENCE,
    SMALL,
    TINY,
    MutationStream,
    degree_deciles,
    dense_vertices,
    write_edge_list,
)
from tracing import instrumented

graph = importlib.import_module("wingsearch.graph")
decomposition = importlib.import_module("wingsearch.decomposition")
equiwing = importlib.import_module("wingsearch.equiwing")
compress = importlib.import_module("wingsearch.compress")
dynamic = importlib.import_module("wingsearch.dynamic")
baseline = importlib.import_module("wingsearch.baseline")
cli = importlib.import_module("wingsearch.cli")

now = time.perf_counter


class Failed(Exception):
    """An operation raised, so the state it leaves behind is unknown."""


def node_shapes(index):
    return {frozenset(n.members): n.level for n in index.nodes.values()}


def edge_shapes(index):
    nodes = index.nodes
    return {frozenset((frozenset(nodes[a].members), frozenset(nodes[b].members)))
            for a, b in index.super_edge_set}


def payload(wings):
    """The CLI's text payload for a query answer."""
    lines = []
    for i, wing in enumerate(wings):
        lines.append(f"wing {i} size {len(wing)}\n")
        lines.extend(f"{u} {v}\n" for u, v in wing)
    return "".join(lines)


def strip_comments(out):
    return "".join(line for line in out.splitlines(keepends=True)
                   if not line.startswith("# "))


class Library:
    """Graph, decomposition and both indices, built through the library,
    plus one warm-up query per engine.

    `stages` holds each stage's (start, seconds). Given a Calibration, the
    unit runs before and after every stage, so a set-up that lasts seconds
    is scaled stage by stage rather than by the units at its two ends."""

    def __init__(self, path, warm_vertex, cal=None):
        self.stages = []
        self.cal = cal
        self.g, _dups = self.stage(graph.load_edge_list, path)
        self.d = self.stage(decomposition.wing_decomposition, self.g)
        self.ix = self.stage(equiwing.build_equiwing, self.g, self.d)
        self.comp = self.stage(compress.compress, self.ix)
        self.stage(equiwing.query_equiwing, self.ix, warm_vertex, 2)
        self.stage(compress.query_comp, self.comp, warm_vertex, 2)
        if cal is not None:
            cal.pace(force=True)

    def stage(self, fn, *args):
        if self.cal is not None:
            self.cal.pace(force=True)
        t0 = now()
        out = fn(*args)
        self.stages.append((t0, now() - t0))
        return out


class Workload:
    # Op classes behind primary_ms, their mean scaled time. An update's cost
    # spans 100x between fringe and dense-block edges, and dense-block
    # updates carry ~40% of update-mixed's update time, so a median would
    # miss them and jump between modes from seed to seed.
    primary = ()
    secondary = ()   # op classes behind secondary_p50_ms
    named = ()       # (metric, op classes, percentile or None for a rate)
    reps = 3         # set-ups per run before measuring
    # Set-ups sampled while measuring, spread evenly over the run, each a
    # discarded build outside every timed op. On a shared 2-vCPU VM the CPU
    # speed drifts by +-15% over seconds, so a set-up that takes a fraction
    # of a second is sampled across the run rather than in one burst.
    extra_reps = 0

    def __init__(self, ctx):
        self.ctx = ctx
        self.spec = TINY if ctx.smoke else self.full_spec
        self.edges = self.spec.edges()
        self.path = os.path.join(ctx.workdir, "graph.tsv")
        write_edge_list(self.edges, self.path)
        self.deciles = degree_deciles(self.edges)
        self.warm = self.deciles[-1][-1]
        self.cal = Calibration()
        self.failed = 0
        self.checks = {}
        self.defects = {}  # known program defects a run reproduces

    # -- hooks -------------------------------------------------------------

    def setup(self):
        """Build the start state; returns (state, [(start, seconds)] of
        its timed stages)."""
        state = Library(self.path, self.warm, self.cal)
        self.dense = dense_vertices(state.d.wing_number, self.spec.k_dense)
        return state, state.stages

    def fresh(self, state):
        """A start state equal to the one `state` had after set-up."""
        return state

    def setup_sample(self):
        """The timed stages of one more set-up, whose result is thrown
        away."""
        return Library(self.path, self.warm, self.cal).stages

    def begin(self, state):
        """Reset per-pass schedule state."""

    def round(self, state, rng, ops):
        raise NotImplementedError

    def finish(self, state):
        """Output checks once a pass ends."""

    def probes(self, state):
        """Extra measurements, traced run only."""
        self.enumeration_probe(state)
        self.serialization_probe(state)

    # -- measuring ---------------------------------------------------------

    def run(self):
        setups = []
        state = None
        with self.traced():
            for _ in range(self.reps):
                state = None
                gc.collect()
                state, stages = self.setup()
                setups.append(stages)
        info = {"edges": state.g.num_edges, "k_max": state.d.k_max,
                "super_nodes": len(state.ix.nodes),
                "super_edges": len(state.ix.super_edge_set),
                "comp_nodes": len(state.comp.nodes),
                "dense_vertices": len(self.dense)}
        if info != self.spec.fingerprint:
            raise SystemExit(f"{self.spec.name} graph fingerprint {info} "
                             f"!= expected {self.spec.fingerprint}")
        info["comp_super_edges"] = len(state.comp.super_edge_set)
        if self.ctx.tracer is None:
            ops, traced_ops = self.run_pass([state], setups)[0], []
        else:
            # two equal start states run the same schedule, round by round
            # alternately, untraced (A) and traced (B): the two see the same
            # machine, so sum(B) / sum(A) is the tracing overhead
            ops, traced_ops = self.run_pass([state, self.fresh(state)],
                                            setups)
            with self.traced():
                self.probes(state)
        return {"setup": setups, "ops": ops, "traced_ops": traced_ops,
                "info": info, "cal": self.cal}

    def run_pass(self, states, setups):
        """Whole rounds until the measuring time is used up, then checks.
        With two states the second one's rounds and checks are traced.
        Also appends `extra_reps` set-up samples to `setups`."""
        gc.collect()
        rngs = [random.Random(self.ctx.seed) for _ in states]
        ops = [[] for _ in states]
        for state in states:
            self.begin(state)
        t0 = now()
        t_end = t0 + self.ctx.seconds
        gap = self.ctx.seconds / (self.extra_reps + 1)
        due = [t0 + gap * (i + 1) for i in range(self.extra_reps)]
        try:
            while now() < t_end:
                for i, state in enumerate(states):
                    with self.traced() if i else contextlib.nullcontext():
                        self.round(state, rngs[i], ops[i])
                if due and now() >= due[0]:
                    due.pop(0)
                    setups.append(self.setup_sample())
        except Failed as exc:
            self.failed += 1
            self.check(f"no exception: {exc}", False)
            return ops
        for i, state in enumerate(states):
            with self.traced() if i else contextlib.nullcontext():
                self.finish(state)
        return ops

    # -- helpers -----------------------------------------------------------

    def check(self, name, ok):
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def quiet(self):
        """Calls made inside are not traced (output checks, references)."""
        tracer = self.ctx.tracer
        return tracer.paused() if tracer else contextlib.nullcontext()

    @contextlib.contextmanager
    def traced(self):
        tracer = self.ctx.tracer
        if tracer is None:
            yield
            return
        with instrumented(tracer):
            tracer.on = True
            try:
                yield
            finally:
                tracer.on = False

    def ask(self, state, q, k, cls, ops):
        """One query on each engine; the answers must agree."""
        self.cal.pace()
        try:
            t0 = now()
            plain = equiwing.query_equiwing(state.ix, q, k)
            t1 = now()
            comp = compress.query_comp(state.comp, q, k)
            t2 = now()
        except Exception as exc:
            raise Failed(f"query {q} k={k}: {exc!r}") from exc
        ops.append((cls, t0, t1 - t0))
        ops.append((cls, t1, t2 - t1))
        self.count_failure("plain and comp answers agree", plain == comp)

    def count_failure(self, name, ok):
        self.check(name, ok)
        if not ok:
            self.failed += 1

    def baseline_check(self, g, d, ix, comp, q, k):
        """The index-free reference engine; traced as the baseline layer."""
        want = baseline.baseline_search(g, d, q, k)
        with self.quiet():
            got = [equiwing.query_equiwing(ix, q, k),
                   compress.query_comp(comp, q, k)]
        self.count_failure("answers equal baseline_search", got == [want, want])

    def serialization_probe(self, state):
        """Index file round trip, the path every CLI call pays."""
        for ser, deser, index in (
                (equiwing.serialize, equiwing.deserialize, state.ix),
                (compress.serialize_comp, compress.deserialize_comp,
                 state.comp)):
            text = ser(index)
            self.check("index files round-trip", ser(deser(text)) == text)

    def enumeration_probe(self, state):
        with self.ctx.tracer.span("graph.all_butterflies") as attrs:
            attrs["butterflies"] = sum(1 for _ in state.g.all_butterflies())


class QueryRef(Workload):
    """Queries on the reference graph at k=2 (the ~52k-edge giant wing) and
    k=25 (3,427-edge dense-block wings) on both engines; no updates."""

    full_spec = REFERENCE
    primary = ("k2",)
    secondary = ("kdense",)
    named = (("query_k2_p50_ms", ("k2",), 50),
             ("query_k2_p90_ms", ("k2",), 90),
             ("query_kdense_p50_ms", ("kdense",), 50),
             ("query_kdense_p99_ms", ("kdense",), 99))
    kdense_per_round = 60
    baseline_checks = 1
    # a set-up takes 8-13 s on a 2-vCPU VM; two keep a run near a minute
    reps = 2

    def round(self, state, rng, ops):
        for bucket in self.deciles:
            self.ask(state, rng.choice(bucket), 2, "k2", ops)
        n = min(self.kdense_per_round, len(self.dense))
        for q in rng.sample(self.dense, n):
            self.ask(state, q, self.spec.k_dense, "kdense", ops)

    def finish(self, state):
        rng = random.Random(self.ctx.seed)
        for q in rng.sample(self.dense, self.baseline_checks):
            self.baseline_check(state.g, state.d, state.ix, state.comp, q,
                                self.spec.k_dense)


class UpdateMixed(Workload):
    """Single-edge inserts and deletes through apply_update_comp on the
    plain+comp pair, each followed by k=2 reads of both endpoints on both
    engines."""

    full_spec = SMALL
    primary = ("update.insert", "update.delete")
    secondary = ("read",)
    extra_reps = 8
    named = (("update_p50_ms", primary, 50),
             ("update_p90_ms", primary, 90),
             ("updates_per_s", primary, None),
             ("read_after_write_p50_ms", secondary, 50),
             ("insert_p50_ms", ("update.insert",), 50),
             ("delete_p50_ms", ("update.delete",), 50))
    reps = 5

    def fresh(self, state):
        return Library(self.path, self.warm)

    def begin(self, state):
        state.stream = MutationStream(self.spec, self.edges, self.ctx.seed)
        state.touched = []

    def round(self, state, rng, ops):
        kind, (u, v) = state.stream.next()
        if self.ctx.tracer is not None and self.ctx.tracer.on:
            dynamic.affected_edges(state.g, state.d, state.ix, kind, u, v)
        self.cal.pace()
        try:
            t0 = now()
            _report, state.comp = dynamic.apply_update_comp(
                state.g, state.d, state.ix, state.comp, kind, u, v)
            t1 = now()
        except Exception as exc:
            raise Failed(f"{kind} {u} {v}: {exc!r}") from exc
        ops.append((f"update.{kind}", t0, t1 - t0))
        for q in (u, v):
            self.ask(state, q, 2, "read", ops)
        state.touched.append(u)

    def finish(self, state):
        g = state.g
        with self.quiet():
            scratch = decomposition.wing_decomposition(g)
            rebuilt = equiwing.build_equiwing(g, scratch)
            recomp = compress.compress(rebuilt)
        self.count_failure("graph holds the mutated edge set",
                           set(g.edges()) == state.stream.edges)
        self.count_failure("maintained wing numbers equal wing_decomposition",
                           state.d.wing_number == scratch.wing_number)
        self.count_failure("index shapes equal a scratch build",
                           node_shapes(state.ix) == node_shapes(rebuilt)
                           and edge_shapes(state.ix) == edge_shapes(rebuilt))
        self.count_failure("comp shapes equal a scratch compress",
                           node_shapes(state.comp) == node_shapes(recomp)
                           and edge_shapes(state.comp) == edge_shapes(recomp))
        rng = random.Random(self.ctx.seed)
        for q in rng.sample(state.touched, min(2, len(state.touched))):
            self.baseline_check(g, scratch, state.ix, state.comp, q, 2)


class CliSession(Workload):
    """`wingsearch.cli.main(argv)` in-process on a plain and a comp file
    pair: two builds, then rounds of `query` on both index files, `stats` on
    both, and eight mutations, each an `update` per format. Stdout is
    captured; interpreter start-up is not timed.

    A second `update` on a comp file that an `update` wrote corrupts it: the
    CLI rebuilds the plain index with fresh node ids, which no longer match
    the comp file's merge log. So every comp `update` here starts from a
    `build --comp` of the current graph, timed as its own op class, and
    `defect_probe` reproduces the corruption on every run until it is fixed.
    """

    full_spec = SMALL
    primary = ("update_plain", "update_comp")
    secondary = ("query_plain", "query_comp")
    named = (("cli_query_p50_ms", secondary, 50),
             ("cli_update_p50_ms", primary, 50),
             ("cli_stats_p50_ms", ("stats",), 50))
    dense_per_round = 4
    mutations_per_round = 8
    # Mutations come from the lowest 8 of 10 degree strata, off the dense
    # blocks. Their maintenance cost is update-mixed's subject; here one
    # ~0.5 s block mutation among a run's ~40 moved the mean CLI update by
    # ~15%.
    mutation_strata = 8
    extra_reps = 6

    def call(self, label, argv, ops=None):
        """Run one CLI command; returns (stdout, seconds). `label` names
        its span and its op class in `ops`."""
        self.cal.pace()
        out, err = io.StringIO(), io.StringIO()
        tracer = self.ctx.tracer
        span = (tracer.span(f"cli.{label}") if tracer is not None
                else contextlib.nullcontext())
        try:
            with span, contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                t0 = now()
                code = cli.main(argv)
                dt = now() - t0
        except (Exception, SystemExit) as exc:
            raise Failed(f"{' '.join(argv)}: {exc!r}") from exc
        self.count_failure("every exit code is 0", code == 0)
        if ops is not None:
            ops.append((label, t0, dt))
        return out.getvalue(), dt

    def file_pair(self, name):
        """fmt -> (graph file, index file) in a directory of their own."""
        directory = os.path.join(self.ctx.workdir, name)
        os.makedirs(directory, exist_ok=True)
        return {fmt: (os.path.join(directory, f"{fmt}.tsv"),
                      os.path.join(directory, f"{fmt}.idx"))
                for fmt in ("plain", "comp")}

    def builds(self, files):
        """`build` and `build --comp` from the start graph; their
        (start, seconds)."""
        calls = []
        for fmt, (graph_path, index_path) in files.items():
            shutil.copyfile(self.path, graph_path)
            argv = ["build", "--graph", graph_path, "--out", index_path]
            if fmt == "comp":
                self.call("build_comp", argv + ["--comp"], calls)
            else:
                self.call("build", argv, calls)
        self.cal.pace(force=True)
        return [(t0, dt) for _label, t0, dt in calls]

    def setup_sample(self):
        return self.builds(self.file_pair("sample"))

    def setup(self):
        files = self.file_pair("a")
        stages = self.builds(files)
        with self.quiet():
            state = Library(self.path, self.warm)
        state.files = files
        self.dense = dense_vertices(state.d.wing_number, self.spec.k_dense)
        return state, stages

    def fresh(self, state):
        copy = argparse.Namespace(**vars(state))
        copy.files = self.file_pair("b")
        for fmt, paths in state.files.items():
            for src, dst in zip(paths, copy.files[fmt]):
                shutil.copyfile(src, dst)
        return copy

    def begin(self, state):
        state.stream = MutationStream(self.spec, self.edges, self.ctx.seed,
                                      self.mutation_strata)
        state.last = self.warm

    def round(self, state, rng, ops):
        with self.quiet():
            ref = Library(state.files["plain"][0], self.warm)
        asks = [(rng.choice(b), 2) for b in self.deciles]
        n = min(self.dense_per_round, len(self.dense))
        asks += [(q, self.spec.k_dense) for q in rng.sample(self.dense, n)]
        for q, k in asks:
            with self.quiet():
                want = payload(equiwing.query_equiwing(ref.ix, q, k))
            for fmt, (_graph_path, index_path) in state.files.items():
                out, _dt = self.call(
                    f"query_{fmt}",
                    ["query", "--index", index_path, "-q", q, "-k", str(k)],
                    ops)
                self.count_failure("query payloads match the library",
                                   strip_comments(out) == want)
        for fmt, (_graph_path, index_path) in state.files.items():
            self.call("stats", ["stats", "--index", index_path], ops)
        for _ in range(self.mutations_per_round):
            kind, (u, v) = state.stream.next()
            for fmt, (graph_path, index_path) in state.files.items():
                if fmt == "comp":
                    self.call("build_comp", [
                        "build", "--graph", graph_path, "--out", index_path,
                        "--comp"], ops)
                self.call(f"update_{fmt}", ["update", "--graph", graph_path,
                                            "--index", index_path, f"--{kind}",
                                            f"{u}:{v}"], ops)
            state.last = u

    def finish(self, state):
        texts = []
        for graph_path, _index_path in state.files.values():
            with open(graph_path, encoding="utf-8") as fh:
                texts.append(fh.read())
        want = "".join(f"{u}\t{v}\n" for u, v in sorted(state.stream.edges))
        self.count_failure("graph files hold the mutated edge set",
                           texts == [want, want])
        with self.quiet():
            lib = Library(state.files["plain"][0], self.warm)
            # a delete can leave the last mutated vertex without edges
            q = state.last if lib.g.has_vertex(state.last) else self.warm
            out, _dt = self.call("query_comp",
                                 ["query", "--index", state.files["comp"][1],
                                  "-q", q, "-k", "2"])
        want = payload(baseline.baseline_search(lib.g, lib.d, q, 2))
        self.count_failure("answers equal baseline_search",
                           strip_comments(out) == want)
        if not self.defects:
            with self.quiet():
                self.defect_probe()

    def defect_probe(self):
        """Two `update` calls on one comp file, then `stats` on it."""
        graph_path = os.path.join(self.ctx.workdir, "probe.tsv")
        index_path = os.path.join(self.ctx.workdir, "probe.idx")
        shutil.copyfile(self.path, graph_path)
        status = "not reproduced"
        for argv in self.probe_calls(graph_path, index_path):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            if code:
                status = f"reproduced ({argv[0]} exit {code})"
                break
        self.defects["repeated update on a comp file corrupts it"] = status

    def probe_calls(self, graph_path, index_path):
        stream = MutationStream(self.spec, self.edges, 0)
        yield ["build", "--graph", graph_path, "--out", index_path, "--comp"]
        for _ in range(8):
            kind, (u, v) = stream.next()
            yield ["update", "--graph", graph_path, "--index", index_path,
                   f"--{kind}", f"{u}:{v}"]
            yield ["stats", "--index", index_path]


WORKLOADS = {"query-ref": QueryRef, "update-mixed": UpdateMixed,
             "cli-session": CliSession}

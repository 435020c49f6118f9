"""Command-line surface.

Exit codes: 0 success (an empty result is a success), 2 unreadable or
malformed files, 3 bad requests (unknown vertex or edge, invalid mutation,
malformed flags), 4 internal consistency failures. Timing and other
non-deterministic output goes on lines starting with "# " so golden-file
comparisons can strip them; everything else is deterministic for fixed
inputs and seed.

`main` parses with one argparse tree per process, built on its first call,
so in-process callers that run many commands do not rebuild it each time.
"""

import argparse
import functools
import json
import sys
import time

from .baseline import baseline_search
from .compress import components_top_down, compress, is_forest
from .decomposition import wing_decomposition
from .dynamic import apply_update
from .equiwing import (
    COMP_FORMAT_HEADER,
    FORMAT_HEADER,
    build_equiwing,
    deserialize,
    deserialize_comp,
    id_map,
    query_equiwing,
    rebuild_edge_counts,
    serialize,
)
from .errors import (
    GraphFormatError,
    IndexFormatError,
    InternalConsistencyError,
    InvalidArgumentError,
    UnknownEdgeError,
    UnknownVertexError,
)
from .generate import generate_bipartite
from .graph import (
    COMMENT_PREFIXES,
    BipartiteGraph,
    atomic_write_text,
    load_edge_list,
    save_edge_list,
)
from .bench import run_bench


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IndexFormatError(f"cannot read {path}: {exc}") from exc


def _sniff(text):
    head = text.split("\n", 1)[0]
    if head == FORMAT_HEADER:
        return "equiwing"
    if head == COMP_FORMAT_HEADER:
        return "comp"
    raise IndexFormatError(f"unsupported index format or version: {head!r}")


def _parse(text, kind):
    return deserialize(text) if kind == "equiwing" else deserialize_comp(text)


def _parse_edge(value):
    parts = value.split(":")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise InvalidArgumentError(
            f"mutations take the form u:v, got {value!r}"
        )
    # the edge is written as a line `u<TAB>v` of the graph file
    for label in parts:
        try:
            label.encode("utf-8")
        except UnicodeEncodeError:
            raise InvalidArgumentError(
                f"vertex label {label!r} is not valid UTF-8"
            ) from None
        if any(ch.isspace() for ch in label):
            raise InvalidArgumentError(
                f"vertex label {label!r} holds whitespace"
            )
    if parts[0].startswith(COMMENT_PREFIXES):
        raise InvalidArgumentError(
            f"vertex label {parts[0]!r} would start a comment line"
        )
    return parts[0], parts[1]


class _MutationAction(argparse.Action):
    """Collects --insert/--delete into one list, preserving order."""

    def __call__(self, parser, namespace, values, option_string=None):
        kind = "insert" if option_string == "--insert" else "delete"
        items = getattr(namespace, self.dest, None) or []
        items.append((kind, values))
        setattr(namespace, self.dest, items)


def _print_wings(wings, fmt):
    lines = []
    if fmt == "jsonlines":
        for i, wing in enumerate(wings):
            record = {
                "wing_index": i,
                "size": len(wing),
                "edges": [[u, v] for u, v in wing],
            }
            lines.append(json.dumps(record) + "\n")
    else:
        for i, wing in enumerate(wings):
            lines.append(f"wing {i} size {len(wing)}\n")
            lines.extend(f"{u} {v}\n" for u, v in wing)
    sys.stdout.write("".join(lines))


def _load_graph(path):
    """Load a graph file, noting on a `# ` line the duplicate edges it
    dropped."""
    graph, dups = load_edge_list(path)
    if dups:
        print(f"# ignored {dups} duplicate edges")
    return graph


def cmd_decompose(args):
    graph = _load_graph(args.graph)
    t0 = time.perf_counter()
    decomp = wing_decomposition(graph)
    dt = time.perf_counter() - t0
    body = "".join(
        f"{u}\t{v}\t{decomp.wing_number[(u, v)]}\n"
        for u, v in graph.sorted_edges()
    )
    print(f"# decompose time {dt:.6f}s")
    if args.out:
        atomic_write_text(args.out, body)
        print(f"# wrote {args.out}")
    else:
        sys.stdout.write(body)
    return 0


def cmd_build(args):
    graph = _load_graph(args.graph)
    t0 = time.perf_counter()
    decomp = wing_decomposition(graph)
    t1 = time.perf_counter()
    index = build_equiwing(graph, decomp)
    t2 = time.perf_counter()
    if args.comp:
        index = compress(index)
    t3 = time.perf_counter()
    text = serialize(index)
    dt = time.perf_counter() - t0
    atomic_write_text(args.out, text)
    print(f"# decompose time {t1 - t0:.6f}s")
    print(f"# index time {t2 - t1:.6f}s")
    if args.comp:
        print(f"# compress time {t3 - t2:.6f}s")
    print(f"# build time {dt:.6f}s")
    print(f"format {'equiwing-comp' if args.comp else 'equiwing'}")
    print(f"super_nodes {len(index.nodes)}")
    print(f"super_edges {len(index.super_edge_set)}")
    print(f"k_max {index.k_max}")
    if args.comp:
        print(f"compression_ratio {index.compression_ratio():g}")
    print(f"# wrote {args.out}")
    return 0


def cmd_query(args):
    if args.k < 1:
        raise InvalidArgumentError("k must be >= 1")
    engine = args.engine
    if engine == "baseline":
        if not args.graph:
            raise InvalidArgumentError("--engine baseline requires --graph")
        graph = _load_graph(args.graph)
        t0 = time.perf_counter()
        decomp = wing_decomposition(graph)
        wings = baseline_search(graph, decomp, args.q, args.k)
        dt = time.perf_counter() - t0
    else:
        if not args.index:
            raise InvalidArgumentError("--index is required for this engine")
        text = _read_text(args.index)
        kind = _sniff(text)
        if engine != "auto" and engine != kind:
            raise InvalidArgumentError(
                f"index file is {kind!r} but --engine asked for {engine!r}"
            )
        if args.graph:
            graph = _load_graph(args.graph)
            if not graph.has_vertex(args.q):
                raise UnknownVertexError(f"vertex {args.q!r} not in graph")
        t0 = time.perf_counter()
        index = _parse(text, kind)
        t1 = time.perf_counter()
        wings = query_equiwing(index, args.q, args.k)
        dt = time.perf_counter() - t1
        print(f"# parse time {t1 - t0:.6f}s")
    print(f"# query time {dt:.6f}s")
    print(f"# wings {len(wings)}")
    _print_wings(wings, args.format)
    return 0


def cmd_update(args):
    if not args.mutations:
        raise InvalidArgumentError(
            "update needs at least one --insert or --delete"
        )
    mutations = [(kind, _parse_edge(val)) for kind, val in args.mutations]
    t0 = time.perf_counter()
    graph = _load_graph(args.graph)
    text = _read_text(args.index)
    kind = _sniff(text)
    decomp = wing_decomposition(graph)
    index = _parse(text, kind)
    if kind == "comp":
        # the file's merge log names ids of the build that wrote it, so
        # updates run on this build's index, compressed once at the end
        loaded, index = index, build_equiwing(graph, decomp)
        id_map(loaded, compress(index))
    else:
        rebuild_edge_counts(index, graph, decomp)
    print(f"# check time {time.perf_counter() - t0:.6f}s")
    total0 = time.perf_counter()
    for i, (mkind, (u, v)) in enumerate(mutations, start=1):
        t0 = time.perf_counter()
        report = apply_update(graph, decomp, index, mkind, u, v)
        dt = time.perf_counter() - t0
        print(f"# mutation {i} time {dt:.6f}s")
        print(f"# mutation {i} phases " + " ".join(
            f"{phase} {s:.6f}s" for phase, s in report.timings.items()))
        print(f"# mutation {i} counters " + " ".join(
            f"{name} {n}" for name, n in report.counters.items()))
        if report.fell_back:
            print(f"# mutation {i} fallback {report.fallback_reason}")
        for line in report.lines(i):
            print(line)
    print(f"# total update time {time.perf_counter() - total0:.6f}s")
    if kind == "comp":
        t0 = time.perf_counter()
        index = compress(index)
        print(f"# compress time {time.perf_counter() - t0:.6f}s")
    out_text = serialize(index)
    save_edge_list(graph, args.graph)
    atomic_write_text(args.index, out_text)
    print(f"# wrote {args.graph}")
    print(f"# wrote {args.index}")
    return 0


def cmd_stats(args):
    text = _read_text(args.index)
    kind = _sniff(text)
    index = _parse(text, kind)
    print(f"format {'equiwing' if kind == 'equiwing' else 'equiwing-comp'}")
    print(f"super_nodes {len(index.nodes)}")
    print(f"super_edges {len(index.super_edge_set)}")
    print(f"classed_edges {len(index.per_edge_node)}")
    print(f"k_max {index.k_max}")
    for level, n in index.level_histogram().items():
        print(f"level {level} {n}")
    if kind == "comp":
        print(f"compression_ratio {index.compression_ratio():g}")
    print(f"forest {'yes' if is_forest(index) else 'no'}")
    # what a query costs: its answer is the members of the nodes it walks
    sizes = sorted(len(n.members) for n in index.nodes.values())
    if sizes:
        big = min(index.nodes.values(),
                  key=lambda n: (-len(n.members), n.sn_id))
        print(f"# largest_class {big.sn_id} level {big.level} "
              f"members {len(big.members)}")
        p50, p90 = (sizes[(p * len(sizes) + 99) // 100 - 1] for p in (50, 90))
        print(f"# members p50 {p50} p90 {p90} max {sizes[-1]}")
    wings = [(level, largest) for level, _ids, _parent, largest
             in components_top_down(index)]
    for level, largest in reversed(wings):
        print(f"# biggest_wing level {level} edges {largest}")
    return 0


def cmd_bench(args):
    # run_bench's count checks, on an empty graph before the costly set-up
    run_bench(BipartiteGraph(), [], args.k, args.per_bucket, n_buckets=args.buckets)
    graph = _load_graph(args.graph)
    t0 = time.perf_counter()
    decomp = wing_decomposition(graph)
    t_decomp = time.perf_counter() - t0
    t0 = time.perf_counter()
    index = build_equiwing(graph, decomp)
    comp = compress(index)
    t_build = time.perf_counter() - t0
    print(f"# decompose time {t_decomp:.6f}s build time {t_build:.6f}s")
    print(
        f"# graph edges {graph.num_edges} "
        f"index nodes {len(index.nodes)} comp nodes {len(comp.nodes)}"
    )
    engines = [
        ("baseline", lambda q, k: baseline_search(graph, decomp, q, k)),
        ("equiwing", lambda q, k: query_equiwing(index, q, k)),
        ("comp", lambda q, k: query_equiwing(comp, q, k)),
    ]
    rows = run_bench(
        graph,
        engines,
        args.k,
        per_bucket=args.per_bucket,
        seed=args.seed,
        n_buckets=args.buckets,
    )
    names = [name for name, _ in engines]
    print("bucket\tqueries\t" + "\t".join(f"{n}_s" for n in names))
    for row in rows:
        cells = [str(row["bucket"]), str(row["queries"])]
        cells += [f"{row['means'][n]:.9f}" for n in names]
        print("\t".join(cells))
    return 0


def cmd_gen(args):
    blocks = []
    for block_arg in args.block or []:
        parts = block_arg.split(":")
        if len(parts) != 3:
            raise InvalidArgumentError(
                f"--block takes ROWS:COLS:PROB, got {block_arg!r}"
            )
        try:
            blocks.append((int(parts[0]), int(parts[1]), float(parts[2])))
        except ValueError:
            raise InvalidArgumentError(
                f"--block takes ROWS:COLS:PROB, got {block_arg!r}"
            ) from None
    edges = generate_bipartite(args.nu, args.nv, args.p, args.seed, blocks)
    body = "".join(f"{u}\t{v}\n" for u, v in edges)
    atomic_write_text(args.out, body)
    print(f"# gen wrote {len(edges)} edges to {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wingsearch",
        description=(
            "Personalized dense-subgraph (k-wing) search over bipartite "
            "graphs, with equivalence-class indices and incremental "
            "maintenance."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="wing number of every edge")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("build", help="build an index file from a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--comp", action="store_true",
                   help="write the compressed variant")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="all k-wings containing a vertex")
    p.add_argument("--index")
    p.add_argument("--graph", help="needed for --engine baseline; otherwise "
                                   "enables vertex validation")
    p.add_argument("-q", required=True, metavar="VERTEX")
    p.add_argument("-k", required=True, type=int)
    p.add_argument("--engine", default="auto",
                   choices=["auto", "equiwing", "comp", "baseline"])
    p.add_argument("--format", default="text",
                   choices=["text", "jsonlines"])
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("update", help="apply edge mutations to graph + index")
    p.add_argument("--graph", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--insert", action=_MutationAction, dest="mutations",
                   metavar="U:V")
    p.add_argument("--delete", action=_MutationAction, dest="mutations",
                   metavar="U:V")
    p.set_defaults(func=cmd_update, mutations=None)

    p = sub.add_parser("stats", help="index summary")
    p.add_argument("--index", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("bench", help="query latency comparison")
    p.add_argument("--graph", required=True)
    p.add_argument("-k", required=True, type=int)
    p.add_argument("--per-bucket", type=int, default=100)
    p.add_argument("--buckets", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", help="seeded random bipartite graph")
    p.add_argument("--nu", required=True, type=int)
    p.add_argument("--nv", required=True, type=int)
    p.add_argument("--p", required=True, type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--block", action="append", metavar="ROWS:COLS:PROB")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)
    return parser


@functools.cache
def _parser():
    """The one parser of this process. Building the subcommand tree takes
    about 1 ms, a third of an in-process query on a 1,702-edge graph;
    parsing leaves the tree as it was, and each call gets a fresh
    namespace."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed help or its message
        return 0 if exc.code == 0 else 3
    try:
        return args.func(args)
    except (GraphFormatError, IndexFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UnknownVertexError, UnknownEdgeError, InvalidArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

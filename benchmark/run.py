"""wingsearch benchmark: one command, three workloads, every metric by name.

    python3 benchmark/run.py --workload query-ref --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory, never from an installed copy. Workloads (see README.md):

  query-ref     k=2 and k=25 queries on the 52,587-edge reference graph
  update-mixed  single-edge inserts/deletes plus reads on a 1,702-edge graph
  cli-session   `wingsearch.cli.main` in-process on the same small graph

The last line of stdout is one JSON object: correct, attempted, failed, and
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
Earlier lines carry the run context, every output check, and every metric
with its unit and sample count, including the workload's own named metrics.
--smoke runs every workload on a 284-edge graph, for a quick check.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PERCENTILE_METHOD = ("p50 is statistics.median; other percentiles are "
                     "statistics.quantiles(n=100, method='inclusive')")


def import_library():
    """Import wingsearch from this checkout's src/ or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "wingsearch", "__init__.py")):
        sys.exit(f"error: no wingsearch sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import wingsearch

    if not os.path.abspath(wingsearch.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported wingsearch from {wingsearch.__file__}")


def git_rev():
    """HEAD of the checkout when it is a git work tree, read from .git
    directly (no subprocess, nothing outside the checkout); else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "wingsearch")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def percentile(xs, p):
    if p == 50 or len(xs) < 2:
        return statistics.median(xs)
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


def timing(xs, p, scale, unit):
    """A latency percentile with its sample count; a tail is valid only when
    at least ten samples lie beyond it."""
    if not xs:
        return {"value": 0.0, "unit": unit, "samples": 0, "valid": False}
    return {"value": percentile(xs, p) * scale, "unit": unit,
            "samples": len(xs), "percentile": p,
            "valid": len(xs) * (100 - p) / 100 >= 10}


def rate(xs):
    """Operations completed per second of time spent in them."""
    if not xs:
        return {"value": 0.0, "unit": "1/s", "samples": 0}
    return {"value": len(xs) / sum(xs), "unit": "1/s", "samples": len(xs)}


def metric(value, unit, samples=None):
    out = {"value": value, "unit": unit}
    if samples is not None:
        out["samples"] = samples
    return out


def op_times(ops, classes):
    return [dt for cls, dt in ops if cls in classes]


def mean_ms(xs):
    if not xs:
        return {"value": 0.0, "unit": "ms", "samples": 0}
    return {"value": 1e3 * sum(xs) / len(xs), "unit": "ms",
            "samples": len(xs)}


def raw_setup(result):
    """Median unscaled set-up seconds."""
    return statistics.median(sum(dt for _t0, dt in stages)
                             for stages in result["setup"])


def end_to_end(wl, result):
    """End-to-end metrics from the untraced ops, each op's time scaled to
    nominal host speed (calibrate.py); the raw figures are named lines."""
    cal = result["cal"]
    raw = [(cls, dt) for cls, _t0, dt in result["ops"]]
    ops = [(cls, cal.scale(t0, dt)) for cls, t0, dt in result["ops"]]
    setups = [sum(cal.scale(t0, dt) for t0, dt in stages)
              for stages in result["setup"]]
    metrics = {
        "setup_s": metric(statistics.median(setups), "s", len(setups)),
        "primary_ms": mean_ms(op_times(ops, wl.primary)),
        "secondary_p50_ms": timing(op_times(ops, wl.secondary), 50, 1e3, "ms"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    named = {}
    for name, classes, p in wl.named:
        xs = op_times(ops, classes)
        named[name] = rate(xs) if p is None else timing(xs, p, 1e3, "ms")
    named["raw_primary_ms"] = mean_ms(op_times(raw, wl.primary))
    named["raw_secondary_p50_ms"] = timing(op_times(raw, wl.secondary), 50,
                                           1e3, "ms")
    named["raw_setup_s"] = metric(raw_setup(result), "s")
    named["cal_unit_ms"] = metric(cal.median() * 1e3, "ms", len(cal.seconds))
    attempted = len(raw) + len(result["traced_ops"]) + len(wl.checks)
    named["failed_ops_frac"] = metric(wl.failed / max(1, attempted), "ratio",
                                     attempted)
    return metrics, named


def per_layer(wl, result, tracer):
    from tracing import attr_values, durations, mean, median, self_times

    sp = tracer.spans
    info = result["info"]

    def med(name, scale=1.0, unit="s", **match):
        xs = durations(sp, name, **match)
        return metric(median(xs) * scale, unit, len(xs))

    def avg(names, key):
        xs = attr_values(sp, names, key)
        return metric(mean(xs), "count", len(xs))

    m = {}
    m["graph.load_s"] = med("graph.load_edge_list")
    m["graph.enum_s"] = med("graph.all_butterflies")
    m["graph.butterflies"] = metric(
        sum(attr_values(sp, {"graph.all_butterflies"}, "butterflies")), "count")
    m["decomposition.peel_s"] = med("decomposition.wing_decomposition")
    m["decomposition.k_max"] = metric(info["k_max"], "count")
    m["equiwing.build_s"] = med("equiwing.build_equiwing")
    m["equiwing.super_nodes"] = metric(info["super_nodes"], "count")
    m["equiwing.super_edges"] = metric(info["super_edges"], "count")
    for layer, query, ser, deser in (
            ("equiwing", "query_equiwing", "serialize", "deserialize"),
            ("compress", "query_comp", "serialize_comp", "deserialize_comp")):
        q = {f"{layer}.{query}"}
        m[f"{layer}.query_k2_p50_ms"] = med(f"{layer}.{query}", 1e3, "ms", k=2)
        m[f"{layer}.visited_nodes_mean"] = avg(q, "visited")
        m[f"{layer}.emitted_edges_mean"] = avg(q, "emitted")
        m[f"{layer}.serialize_s"] = med(f"{layer}.{ser}")
        m[f"{layer}.deserialize_s"] = med(f"{layer}.{deser}")
        sizes = attr_values(sp, {f"{layer}.{ser}"}, "bytes")
        m[f"{layer}.index_bytes"] = metric(median(sizes), "bytes", len(sizes))
    m["compress.compress_s"] = med("compress.compress")
    m["compress.ratio"] = metric(info["super_nodes"] / info["comp_nodes"],
                                "ratio")
    m["compress.super_nodes"] = metric(info["comp_nodes"], "count")
    m["compress.super_edges"] = metric(info["comp_super_edges"], "count")

    applies = {"dynamic.apply_update"}
    affected = attr_values(sp, applies, "affected")
    changed = attr_values(sp, applies, "changed")
    names = [s[0] for s in sp]
    outer = [e - s for n, s, e, parent, _a in sp
             if n in ("dynamic.apply_update", "dynamic.apply_update_comp")
             and (parent < 0 or not names[parent].startswith("dynamic."))]
    setup = raw_setup(result)
    m["dynamic.updates"] = metric(len(affected), "count")
    m["dynamic.affected_edges_mean"] = metric(mean(affected), "count",
                                             len(affected))
    m["dynamic.changed_mean"] = metric(mean(changed), "count", len(changed))
    m["dynamic.scope_waste_ratio"] = metric(
        sum(changed) / sum(affected) if sum(affected) else 0.0, "ratio")
    m["dynamic.fallbacks"] = metric(
        sum(attr_values(sp, applies, "fell_back")), "count")
    m["dynamic.update_per_rebuild"] = metric(median(outer) / setup, "ratio",
                                            len(outer))
    m["baseline.check_s"] = med("baseline.baseline_search")
    m["baseline.checks"] = metric(
        len(durations(sp, "baseline.baseline_search")), "count")

    selfs = self_times(sp)
    total = sum(selfs.values()) or 1.0
    for layer, seconds in selfs.items():
        m[f"{layer}.self_share"] = metric(seconds / total, "ratio")

    a = [dt for _c, _t0, dt in result["ops"]]
    b = [dt for _c, _t0, dt in result["traced_ops"]]
    n = min(len(a), len(b))
    m["trace.overhead_ratio"] = metric(
        sum(b[:n]) / sum(a[:n]) - 1 if n else 0.0, "ratio", n)
    m["trace.spans"] = metric(len(sp), "count")

    # layer times that exist on some workloads only: reported, not listed
    extra = {f"{layer}.self_s": metric(seconds, "s")
             for layer, seconds in selfs.items()}
    extra["dynamic.apply_s"] = metric(median(outer), "s", len(outer))
    extra["dynamic.scope_s"] = med("dynamic.affected_edges")
    extra["equiwing.query_kdense_p50_ms"] = med(
        "equiwing.query_equiwing", 1e3, "ms", k=wl.spec.k_dense)
    extra["compress.query_kdense_p50_ms"] = med(
        "compress.query_comp", 1e3, "ms", k=wl.spec.k_dense)
    for kind in ("insert", "delete"):
        extra[f"dynamic.{kind}_p50_ms"] = med(
            "dynamic.apply_update", 1e3, "ms", kind=kind)
    for label in ("build", "build_comp", "query_plain", "query_comp", "stats",
                  "update_plain", "update_comp"):
        extra[f"cli.{label}_s"] = med(f"cli.{label}")
    return m, extra


def emit(metrics, tag):
    for name, m in metrics.items():
        extra = ""
        if "samples" in m:
            extra += f" n={m['samples']}"
        if "percentile" in m:
            extra += f" p{m['percentile']}"
            if not m["valid"]:
                extra += " (tail has <10 samples beyond it)"
        print(f"{tag} {name} {m['value']!r} {m['unit']}{extra}")


def main(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run on the 284-edge smoke graph")
    args = ap.parse_args(argv)

    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    ctx = argparse.Namespace(seed=args.seed, seconds=args.seconds,
                             smoke=args.smoke, tracer=tracer, workdir=workdir)
    try:
        wl = WORKLOADS[args.workload](ctx)
        result = wl.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, named = end_to_end(wl, result)
    context = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "graph": wl.spec.name, "fingerprint": result["info"],
        "setup_reps": wl.reps,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_rev": git_rev(), "src_sha256": source_digest(),
        "loop": "closed, one client, one process, one thread",
        "percentiles": PERCENTILE_METHOD,
        "known_defects": wl.defects,
    }
    print("context " + json.dumps(context, sort_keys=True))
    for name, ok in wl.checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    for name, status in wl.defects.items():
        print(f"known defect, {status}: {name}")
    emit(e2e, "metric")
    emit(named, "named")
    if tracer is not None:
        layers, extra = per_layer(wl, result, tracer)
        emit(layers, "layer")
        emit(extra, "layer")
        path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write(path)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
        reported = layers
    else:
        reported = e2e

    attempted = (len(result["ops"]) + len(result["traced_ops"])
                 + len(wl.checks))
    failed = wl.failed
    correct = failed == 0 and all(wl.checks.values()) and bool(result["ops"])
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    import_library()
    sys.exit(main())

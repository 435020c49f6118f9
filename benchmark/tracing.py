"""Spans around the calls into wingsearch's public functions.

A traced run wraps the functions listed in TRACED in every wingsearch module
that binds them, so calls the benchmark makes and calls one layer makes into
another (the CLI into the library, an update into compression) each become a
span: name, start, end, parent, plus a few counts taken from the call. Spans
stay in memory and are written out once, when the run ends. The untraced run
installs nothing, so its timings carry no tracing cost.
"""

import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager

# layer (the module name) -> the public functions whose calls are spans
TRACED = {
    "graph": ("load_edge_list", "save_edge_list", "atomic_write_text"),
    "decomposition": ("wing_decomposition",),
    "equiwing": ("build_equiwing", "query_equiwing", "serialize",
                 "deserialize", "rebuild_edge_counts"),
    "compress": ("compress", "query_comp", "serialize_comp",
                 "deserialize_comp", "is_forest"),
    "dynamic": ("apply_update", "apply_update_comp", "affected_edges"),
    "baseline": ("baseline_search",),
}
LAYERS = ("graph", "decomposition", "equiwing", "compress", "dynamic", "cli",
          "baseline")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, attrs]
        self.on = False  # set while wrappers are installed
        self._open = []

    @contextmanager
    def span(self, name, **attrs):
        if not self.on:
            yield attrs
            return
        rec = [name, time.perf_counter(), None,
               self._open[-1] if self._open else -1, attrs]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield attrs
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    @contextmanager
    def paused(self):
        """Calls made inside are not recorded (output checks, resets)."""
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, **attrs}) + "\n")


def _record(fname, args, kwargs, result, attrs):
    """Counts worth keeping from one call, stored on its span."""
    if fname in ("query_equiwing", "query_comp"):
        attrs["k"] = args[2] if len(args) > 2 else kwargs["k"]
        counters = kwargs["counters"]
        attrs["visited"] = len(counters.visited_nodes)
        attrs["emitted"] = counters.emitted_edges
    elif fname in ("apply_update", "apply_update_comp"):
        comp = fname == "apply_update_comp"
        report = result[0] if comp else result
        attrs["kind"] = args[4] if comp else args[3]
        attrs["affected"] = len(report.affected_edges)
        attrs["changed"] = len(report.changed)
        attrs["fell_back"] = int(report.fell_back)
    elif fname in ("serialize", "serialize_comp"):
        attrs["bytes"] = len(result.encode("utf-8"))
    elif fname in ("deserialize", "deserialize_comp"):
        attrs["bytes"] = len(args[0].encode("utf-8"))


def _wrap(tracer, layer, fname, fn, counters_cls):
    name = f"{layer}.{fname}"
    is_query = fname in ("query_equiwing", "query_comp")

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        if is_query and kwargs.get("counters") is None:
            kwargs["counters"] = counters_cls()
        with tracer.span(name) as attrs:
            result = fn(*args, **kwargs)
        _record(fname, args, kwargs, result, attrs)
        return result

    return traced


@contextmanager
def instrumented(tracer):
    """Install span wrappers for the duration of the block."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "wingsearch" or n.startswith("wingsearch.")]
    counters_cls = sys.modules["wingsearch.equiwing"].QueryCounters
    patched = []
    for layer, names in TRACED.items():
        home = sys.modules[f"wingsearch.{layer}"]
        for fname in names:
            fn = getattr(home, fname)
            wrapper = _wrap(tracer, layer, fname, fn, counters_cls)
            for mod in modules:
                if getattr(mod, fname, None) is fn:
                    setattr(mod, fname, wrapper)
                    patched.append((mod, fname, fn))
    try:
        yield
    finally:
        for mod, fname, fn in patched:
            setattr(mod, fname, fn)


def self_times(spans):
    """Per-layer self time: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, _attrs in spans:
        if parent >= 0:
            child[parent] += end - start
    out = dict.fromkeys(LAYERS, 0.0)
    for i, (name, start, end, _parent, _attrs) in enumerate(spans):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
    return out


def durations(spans, name, **match):
    return [end - start for n, start, end, _p, attrs in spans
            if n == name and all(attrs.get(k) == v for k, v in match.items())]


def attr_values(spans, names, key):
    return [attrs[key] for n, _s, _e, _p, attrs in spans
            if n in names and key in attrs]


def median(xs):
    return statistics.median(xs) if xs else 0.0


def mean(xs):
    return statistics.fmean(xs) if xs else 0.0

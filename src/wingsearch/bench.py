"""Query latency comparison across engines.

Protocol: sort every vertex (both sides) by degree, split the order into
buckets (deciles by default), sample query vertices per bucket with a seeded
RNG, and time each engine on the same query set.
"""

import random
import time

from .errors import InvalidArgumentError


def degree_buckets(graph, n_buckets=10):
    if n_buckets < 1:
        raise InvalidArgumentError(f"need at least one bucket, got {n_buckets}")
    degs = [(len(nbrs), lbl) for lbl, nbrs in graph.adj_u.items()]
    degs += [(len(nbrs), lbl) for lbl, nbrs in graph.adj_v.items()]
    degs.sort()
    labels = [lbl for _, lbl in degs]
    if not labels:
        return []
    size = max(1, len(labels) // n_buckets)
    buckets = []
    for i in range(n_buckets):
        lo = i * size
        hi = (i + 1) * size if i < n_buckets - 1 else len(labels)
        if lo >= len(labels):
            break
        buckets.append(labels[lo:hi])
    return buckets


def run_bench(graph, engines, k, per_bucket=100, seed=0, n_buckets=10):
    """engines: list of (name, fn) with fn(q, k) -> wings. Every engine sees
    the same query vertices. Returns one row per bucket:
    {"bucket": i, "queries": n, "means": {name: seconds}}."""
    if k < 1:
        raise InvalidArgumentError(f"k must be >= 1, got {k}")
    if per_bucket < 1:
        raise InvalidArgumentError(
            f"need at least one query per bucket, got {per_bucket}"
        )
    rng = random.Random(seed)
    rows = []
    for bi, bucket in enumerate(degree_buckets(graph, n_buckets)):
        qs = [rng.choice(bucket) for _ in range(per_bucket)]
        row = {"bucket": bi, "queries": len(qs), "means": {}}
        for name, fn in engines:
            t0 = time.perf_counter()
            for q in qs:
                fn(q, k)
            dt = time.perf_counter() - t0
            row["means"][name] = dt / max(1, len(qs))
        rows.append(row)
    return rows

"""Seeded synthetic bipartite graphs for property suites and benchmarks."""

import random

from .errors import InvalidArgumentError


def generate_bipartite(n_u, n_v, p, seed, blocks=()):
    """Random bipartite edge list: every (u, v) pair independently with
    probability p, plus planted dense blocks. Each block is (rows, cols, q):
    a random rows x cols sub-rectangle filled with per-cell probability q.
    Deterministic for a given seed; labels a0..., b0...; returns sorted
    edge tuples. A negative side, a probability outside [0, 1] (NaN
    included) or a block larger than its side raises InvalidArgumentError."""
    if n_u < 0 or n_v < 0:
        raise InvalidArgumentError(f"a side cannot be negative: {n_u}x{n_v}")
    if not 0 <= p <= 1:
        raise InvalidArgumentError(f"p must lie in [0, 1], got {p}")
    for rows, cols, q in blocks:
        if not (0 <= rows <= n_u and 0 <= cols <= n_v):
            raise InvalidArgumentError(
                f"block {rows}x{cols} does not fit a {n_u}x{n_v} graph"
            )
        if not 0 <= q <= 1:
            raise InvalidArgumentError(
                f"block probability must lie in [0, 1], got {q}"
            )
    rng = random.Random(seed)
    edges = set()
    for i in range(n_u):
        base = f"a{i}"
        for j in range(n_v):
            if rng.random() < p:
                edges.add((base, f"b{j}"))
    for rows, cols, q in blocks:
        us = rng.sample(range(n_u), rows)
        vs = rng.sample(range(n_v), cols)
        for i in us:
            base = f"a{i}"
            for j in vs:
                if rng.random() < q:
                    edges.add((base, f"b{j}"))
    return sorted(edges)

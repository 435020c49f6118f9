"""Multi-step maintenance golden: a seeded library session of 40 alternating
inserts and deletes on a planted-block graph, pinned step by step.

For every step the golden holds the update's payload lines
(`report.lines(i)`) and the sha256 of the plain and the compressed index
files after it, so a change to the update path that moves an event, a node
id or a single index byte shows up at the step where it first happens. The
session is chosen so that several steps absorb more than one surviving
class. To regenerate after a deliberate change of behaviour:

    PYTHONPATH=src python tests/test_update_golden.py
"""

import hashlib
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "data", "update-session.txt")


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def produce():
    """Run the session and return the golden text."""
    from wingsearch import (
        BipartiteGraph,
        apply_update_comp,
        build_equiwing,
        compress,
        generate_bipartite,
        serialize,
        wing_decomposition,
    )

    g = BipartiteGraph()
    for u, v in generate_bipartite(30, 30, 0.08, 3, [(8, 8, 0.85), (6, 6, 0.9)]):
        g.insert_edge(u, v)
    d = wing_decomposition(g)
    index = build_equiwing(g, d)
    comp = compress(index)
    r = random.Random(3)
    out = []
    for i in range(1, 41):
        if i % 2:
            us, vs = sorted(g.adj_u), sorted(g.adj_v)
            u, v = r.choice(us), r.choice(vs)
            while g.has_edge(u, v):
                u, v = r.choice(us), r.choice(vs)
            kind = "insert"
        else:
            kind, (u, v) = "delete", r.choice(g.sorted_edges())
        report, comp = apply_update_comp(g, d, index, comp, kind, u, v)
        out += report.lines(i)
        out.append(f"index sha256 {_sha(serialize(index))}")
        out.append(f"comp sha256 {_sha(serialize(comp))}")
    return "".join(line + "\n" for line in out)


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
    with open(GOLDEN, "w", encoding="utf-8", newline="") as fh:
        fh.write(produce())

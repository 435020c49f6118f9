"""Pausing Python's cyclic garbage collector around bulk builders.

The peel (`wing_decomposition`), the index build (`build_equiwing`) and
the index reader (`equiwing._read`) each allocate hundreds of thousands of
lists, tuples, sets and objects that never form a reference cycle: their
memory is freed by reference counting alone. While they run, the cyclic
collector still rescans the young ones at every generation-0 collection
and, as the survivors pile up, in full collections too: 0.10-0.15 s of
the peel on the reference graph, and up to half of loading its compressed
index while another index is alive. `paused_collector` switches the
collector off for the length of one call; the first collection after it
scans the survivors once.

The previous state always comes back, in a `finally`, so it is restored
after an exception too; a collector the caller had turned off stays off.
`gc.isenabled()` is process-wide, so this assumes one thread builds at a
time: another thread would run without the collector during the pause
(and its garbage would wait for the next collection), and two overlapping
pauses could leave it on while the longer one still runs.
"""

import gc
from functools import wraps


def paused_collector(fn):
    """Decorate `fn` to run with the cyclic collector off."""

    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused

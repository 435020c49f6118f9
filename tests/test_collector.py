"""The cyclic collector is paused inside the peel, the index build and the
index reader.

Each paused call leaves `gc.isenabled()` as it found it, on success and on
error alike. No automatic collection runs inside one. And nothing those
phases allocate is cyclic garbage, which is why pausing holds nothing back:
a later change that made a paused phase leave a reference cycle behind
would fail `test_paused_phases_leave_no_cyclic_garbage`.
"""

import gc
import hashlib
import os
import sys

import pytest

from wingsearch import (
    WingDecomposition,
    build_equiwing,
    compress,
    deserialize,
    deserialize_comp,
    generate_bipartite,
    serialize,
    wing_decomposition,
)
from wingsearch import collector
from wingsearch.errors import IndexFormatError

from conftest import build


@pytest.fixture(scope="module")
def mid():
    """TestMidScale's 1,702-edge graph, its decomposition, the same
    decomposition without its bloom record, and both index files."""
    g = build(generate_bipartite(200, 200, 0.035, 91, [(12, 12, 0.9)] * 2))
    d = wing_decomposition(g)
    index = build_equiwing(g, d)
    bare = WingDecomposition(d.wing_number, d.support)
    return g, d, bare, serialize(index), serialize(compress(index))


def phases(g, d, bare, plain, comp):
    """Every paused entry point, each on the inputs it reads."""
    return {
        "wing_decomposition": lambda: wing_decomposition(g),
        "build_equiwing": lambda: build_equiwing(g, d),
        "build_equiwing without a record": lambda: build_equiwing(g, bare),
        "build_equiwing with its own peel": lambda: build_equiwing(g),
        "deserialize": lambda: deserialize(plain),
        "deserialize_comp": lambda: deserialize_comp(comp),
    }


@pytest.fixture
def restore_collector():
    """Let the test switch the collector, and put back its state after."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


def corrupt(text):
    """`text` with one member line's values dropped and the checksum
    resealed, so the reader fails in the middle of its structural parse."""
    lines = text.splitlines()[:-1]
    i = next(i for i, line in enumerate(lines) if line.startswith("m "))
    lines[i] = "m"
    body = "".join(line + "\n" for line in lines)
    return body + f"checksum sha256 {hashlib.sha256(body.encode()).hexdigest()}\n"


@pytest.mark.parametrize("enabled", [True, False])
def test_state_is_restored(restore_collector, mid, enabled):
    for name, call in phases(*mid).items():
        (gc.enable if enabled else gc.disable)()
        call()
        assert gc.isenabled() is enabled, name


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("reader, which", [(deserialize, 3),
                                           (deserialize_comp, 4)])
@pytest.mark.parametrize("tamper", [corrupt,
                                    lambda t: t.replace("m ", "n ", 1)],
                         ids=["resealed", "unsealed"])
def test_state_is_restored_after_a_malformed_index(restore_collector, mid,
                                                   enabled, reader, which,
                                                   tamper):
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(IndexFormatError):
        reader(tamper(mid[which]))
    assert gc.isenabled() is enabled


def test_no_collection_runs_inside_a_paused_phase(restore_collector, mid):
    """A collection that starts while a library frame other than the
    pause's own wrapper is on the stack ran inside a phase."""
    package = os.path.dirname(collector.__file__)
    inside = []

    def watch(phase, _info):
        frame = sys._getframe(1)
        while phase == "start" and frame is not None:
            path = frame.f_code.co_filename
            if (os.path.dirname(path) == package
                    and path != collector.__file__):
                inside.append(frame.f_code.co_name)
            frame = frame.f_back

    gc.enable()
    gc.callbacks.append(watch)
    try:
        for call in phases(*mid).values():
            call()
    finally:
        gc.callbacks.remove(watch)
    assert inside == []


def test_paused_phases_leave_no_cyclic_garbage(restore_collector, mid):
    calls = phases(*mid)
    gc.collect()
    gc.disable()
    kept = [call() for call in calls.values()]  # alive through the collect
    assert gc.collect() == 0, len(kept)

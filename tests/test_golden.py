"""Byte-for-byte goldens for the running example: the index files `build`
writes, the same files after `update --insert v4:u6`, and the payload lines
(everything but `# ` lines) of `build`, `stats` and `update` on both formats.

Round-trip tests only show that the reader and the writer agree with each
other; these pin what the writer produces. To regenerate after a deliberate
format change:

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "data", "golden")
FIG2 = os.path.join(HERE, "data", "fig2.tsv")


def _cli(*argv):
    from wingsearch.cli import main

    out = StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, argv
    return "".join(
        line for line in out.getvalue().splitlines(True)
        if not line.startswith("# ")
    )


def produce(workdir):
    """Run the CLI on fig2 and return {golden file name: text}."""
    out = {}
    for fmt, ext, extra in (("plain", "ew", ()), ("comp", "ewc", ("--comp",))):
        graph = os.path.join(workdir, f"fig2-{fmt}.tsv")
        index = os.path.join(workdir, f"fig2.{ext}")
        shutil.copyfile(FIG2, graph)
        out[f"build-{fmt}.out"] = _cli(
            "build", "--graph", graph, "--out", index, *extra
        )
        with open(index, encoding="utf-8") as fh:
            out[f"fig2.{ext}"] = fh.read()
        out[f"stats-{fmt}.out"] = _cli("stats", "--index", index)
        out[f"update-{fmt}.out"] = _cli(
            "update", "--graph", graph, "--index", index, "--insert", "v4:u6"
        )
        with open(index, encoding="utf-8") as fh:
            out[f"fig2-insert-v4-u6.{ext}"] = fh.read()
    return out


def _golden_names():
    return sorted(os.listdir(GOLDEN)) if os.path.isdir(GOLDEN) else []


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return produce(str(tmp_path_factory.mktemp("golden")))


def test_golden_set_is_complete(produced):
    assert _golden_names() == sorted(produced)


@pytest.mark.parametrize("name", _golden_names())
def test_matches_golden(produced, name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8", newline="") as fh:
        assert produced[name] == fh.read()


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    os.makedirs(GOLDEN, exist_ok=True)
    workdir = tempfile.mkdtemp()
    try:
        for name, text in produce(workdir).items():
            with open(os.path.join(GOLDEN, name), "w", encoding="utf-8",
                      newline="") as fh:
                fh.write(text)
    finally:
        shutil.rmtree(workdir)

"""Tampered index files, both layouts: every malformation is an
IndexFormatError in the library and exit 2 in the CLI, never a traceback
or the internal-error exit 4.

Cases: the file cut after every line, and for every body line (with the
checksum recomputed, so the structure check is what has to catch it) the
line duplicated, dropped, stripped of its values, or swapped with the next.
"""

import hashlib
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

from wingsearch import (
    build_equiwing,
    compress,
    deserialize,
    deserialize_comp,
    serialize,
)
from wingsearch.cli import main
from wingsearch.errors import IndexFormatError


def seal(body_lines):
    body = "".join(line + "\n" for line in body_lines)
    return body + f"checksum sha256 {hashlib.sha256(body.encode()).hexdigest()}\n"


def body_of(text):
    return text.splitlines()[:-1]


def tampered(text):
    """(name, text) pairs for every tampering of a valid index file."""
    lines = text.splitlines(True)
    for i in range(len(lines)):
        yield f"cut after {i} lines", "".join(lines[:i])
    body = body_of(text)
    for i, line in enumerate(body):
        yield f"duplicate {i}", seal(body[:i + 1] + body[i:])
        yield f"drop {i}", seal(body[:i] + body[i + 1:])
        yield f"strip {i}", seal(body[:i] + [line.split()[0]] + body[i + 1:])
        if i + 1 < len(body):
            swapped = body[:i] + [body[i + 1], line] + body[i + 2:]
            yield f"swap {i}", seal(swapped)


@pytest.fixture(params=["plain", "comp"])
def layout(request, fig2_graph):
    index = build_equiwing(fig2_graph)
    if request.param == "comp":
        return serialize(compress(index)), deserialize_comp
    return serialize(index), deserialize


def cli(*argv):
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        return main(list(argv))


def test_library_raises_only_index_format_error(layout):
    text, read = layout
    rejected = 0
    for name, bad in tampered(text):
        try:
            read(bad)
        except IndexFormatError:
            rejected += 1
        except Exception as exc:
            pytest.fail(f"{name}: {type(exc).__name__}: {exc}")
    assert rejected > 0


def test_cli_exits_0_or_2(layout, tmp_path):
    text, _read = layout
    path = tmp_path / "tampered.idx"
    for name, bad in tampered(text):
        path.write_text(bad)
        assert cli("stats", "--index", str(path)) in (0, 2), name
        assert cli("query", "--index", str(path), "-q", "v5",
                   "-k", "2") in (0, 2), name


def test_duplicated_node_block_exits_2(layout, tmp_path):
    text, read = layout
    body = body_of(text)
    start = next(i for i, line in enumerate(body) if line.startswith("node "))
    end = start + 1 + int(body[start].split()[3])
    bad = seal(body[:end] + body[start:end] + body[end:])
    with pytest.raises(IndexFormatError, match="duplicate super node"):
        read(bad)
    path = tmp_path / "dup.idx"
    path.write_text(bad)
    assert cli("stats", "--index", str(path)) == 2


def test_header_line_without_value_exits_2(layout, tmp_path):
    text, read = layout
    bad = seal(["kmax" if line.startswith("kmax") else line
                for line in body_of(text)])
    with pytest.raises(IndexFormatError, match="expected 'kmax'"):
        read(bad)
    path = tmp_path / "kmax.idx"
    path.write_text(bad)
    assert cli("stats", "--index", str(path)) == 2


def test_checksum_is_checked_before_structure(layout):
    text, read = layout
    body = body_of(text)
    # structurally broken and unsealed: the checksum is what gets reported
    broken = "".join(line + "\n" for line in body[:5]) + text.splitlines(True)[-1]
    with pytest.raises(IndexFormatError, match="checksum mismatch"):
        read(broken)

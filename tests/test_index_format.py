"""Tampered index files, both layouts: every malformation is an
IndexFormatError in the library and exit 2 in the CLI, never a traceback
or the internal-error exit 4.

Cases: the file cut after every line, and for every body line (with the
checksum recomputed, so the structure check is what has to catch it) the
line duplicated, dropped, stripped of its values, or swapped with the next;
then every byte flipped without resealing. A negative count in the header
and a super edge listed twice, with the counts made to agree, are rejected
too, and so is each resealed file that trips one of the reader's later
guards: a `kmax` that is not the top node level, a value that is not an
integer, a member block cut short by the end of the file, and a structure
that `validate` refuses. Member lines out of order inside a node are not a
malformation: the reader re-sorts them.
"""

import hashlib
import random
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

from wingsearch import (
    build_equiwing,
    compress,
    deserialize,
    deserialize_comp,
    query_equiwing,
    serialize,
)
from wingsearch.cli import main
from wingsearch.equiwing import id_map
from wingsearch.errors import IndexFormatError, InternalConsistencyError


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


def cli_out(*argv):
    """Exit code and payload lines (timing lines dropped) of one CLI call."""
    out = StringIO()
    with redirect_stdout(out), redirect_stderr(StringIO()):
        code = main(list(argv))
    payload = [l for l in out.getvalue().splitlines() if not l.startswith("# ")]
    return code, payload


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


def test_reader_resorts_members(layout, tmp_path):
    """Member lines out of order inside a node still load, answer in
    canonical order, and re-serialize to the canonical bytes."""
    text, read = layout
    body = body_of(text)
    start = next(i for i, line in enumerate(body)
                 if line.startswith("node ") and int(line.split()[3]) >= 2)
    swapped = body[:start + 1] + [body[start + 2], body[start + 1]] + body[start + 3:]
    bad = seal(swapped)
    assert bad != text
    index = read(bad)
    assert serialize(index) == text
    canonical = read(text)
    for q in ("v2", "v5", "u4"):
        for k in (1, 2, 3):
            assert query_equiwing(index, q, k) == query_equiwing(canonical, q, k)
    good, shuffled = tmp_path / "good.idx", tmp_path / "shuffled.idx"
    good.write_text(text)
    shuffled.write_text(bad)
    for k in ("1", "3"):
        assert cli_out("query", "--index", str(shuffled), "-q", "v2", "-k", k) \
            == cli_out("query", "--index", str(good), "-q", "v2", "-k", k)


def test_member_listed_twice_is_rejected(layout):
    text, read = layout
    body = body_of(text)
    start = next(i for i, line in enumerate(body)
                 if line.startswith("node ") and int(line.split()[3]) >= 2)
    twice = body[:start + 2] + [body[start + 1]] + body[start + 3:]
    with pytest.raises(IndexFormatError, match="member edge twice"):
        read(seal(twice))


def test_negative_count_is_rejected(layout, tmp_path):
    """A header with no body lines and one negative count: the reader
    raises, and `stats` and `query` exit 2. With every count 0 the same
    file is a valid empty index."""
    text, read = layout
    body = body_of(text)
    keys = [k for k in ("nodes", "edges", "merges")
            if any(line.startswith(k + " ") for line in body)]
    assert read(seal([body[0], "kmax 0"] + [f"{k} 0" for k in keys])).nodes == {}
    path = tmp_path / "negative.idx"
    for key in keys:
        bad = seal([body[0], "kmax 0"]
                   + [f"{k} {-2 if k == key else 0}" for k in keys])
        with pytest.raises(IndexFormatError, match=f"negative {key}"):
            read(bad)
        path.write_text(bad)
        assert cli("stats", "--index", str(path)) == 2, key
        assert cli("query", "--index", str(path), "-q", "v5",
                   "-k", "2") == 2, key


def test_super_edge_listed_twice_is_rejected(layout):
    """A repeated `sedge` line, as written or with its ends swapped, and an
    `edges` count raised to match it."""
    text, read = layout
    body = body_of(text)
    n = next(i for i, line in enumerate(body) if line.startswith("edges "))
    i = next(i for i, line in enumerate(body) if line.startswith("sedge "))
    a, b = body[i].split()[1:]
    for twice in (body[i], f"sedge {b} {a}"):
        lines = list(body)
        lines[n] = f"edges {int(body[n].split()[1]) + 1}"
        lines.insert(i + 1, twice)
        with pytest.raises(IndexFormatError, match="listed twice"):
            read(seal(lines))


def flipped(data, i, mask):
    return data[:i] + bytes([data[i] ^ mask]) + data[i + 1:]


def test_byte_flips_are_rejected(layout, tmp_path):
    """Every byte flipped, one at a time, without resealing: the library
    raises IndexFormatError, and for a seeded sample `stats` and `query`
    exit 2. Mask 0x01 keeps the byte ASCII; 0x80 makes it invalid UTF-8."""
    text, read = layout
    data = text.encode()
    flips = [(i, mask) for i in range(len(data)) for mask in (0x01, 0x80)]
    for i, mask in flips:
        bad = flipped(data, i, mask).decode("utf-8", errors="replace")
        with pytest.raises(IndexFormatError):
            read(bad)
    path = tmp_path / "flipped.idx"
    for i, mask in random.Random(5).sample(flips, 40):
        path.write_bytes(flipped(data, i, mask))
        assert cli("stats", "--index", str(path)) == 2, (i, mask)
        assert cli("query", "--index", str(path), "-q", "v5",
                   "-k", "2") == 2, (i, mask)


def test_kmax_disagreeing_with_the_levels_is_rejected(layout):
    text, read = layout
    bad = seal(["kmax 5" if line.startswith("kmax ") else line
                for line in body_of(text)])
    with pytest.raises(IndexFormatError, match="kmax disagrees with node"):
        read(bad)


def test_value_that_is_not_an_integer_is_rejected(layout):
    text, read = layout
    bad = seal(["kmax four" if line.startswith("kmax ") else line
                for line in body_of(text)])
    with pytest.raises(IndexFormatError, match="bad integer"):
        read(bad)


def test_member_block_cut_short_is_rejected(layout):
    """The file ends, resealed, halfway through its last node's members."""
    text, read = layout
    body = body_of(text)
    start = max(i for i, line in enumerate(body) if line.startswith("node "))
    n_members = int(body[start].split()[3])
    assert n_members >= 2
    with pytest.raises(IndexFormatError, match="truncated file"):
        read(seal(body[:start + 1 + n_members // 2]))


def test_structure_that_validate_refuses_is_rejected(layout, tmp_path):
    """Two nodes of one level joined by a super edge, with the `edges`
    count raised to match: every line parses, and `validate` refuses."""
    text, read = layout
    body = body_of(text)
    by_level = {}
    for line in body:
        if line.startswith("node "):
            _node, sn_id, level, _n = line.split()
            by_level.setdefault(level, []).append(sn_id)
    a, b = next(ids for ids in by_level.values() if len(ids) >= 2)[:2]
    n = next(i for i, line in enumerate(body) if line.startswith("edges "))
    i = next(i for i, line in enumerate(body) if line.startswith("sedge "))
    lines = list(body)
    lines[n] = f"edges {int(body[n].split()[1]) + 1}"
    lines.insert(i, f"sedge {a} {b}")
    bad = seal(lines)
    with pytest.raises(IndexFormatError, match="same-level super nodes"):
        read(bad)
    path = tmp_path / "adjacent.idx"
    path.write_text(bad)
    assert cli("stats", "--index", str(path)) == 2


def test_merge_log_of_the_wrong_length_does_not_match(fig2_graph):
    """A comp file with one merge line dropped, and its `merges` count
    lowered to match, loads, and `id_map` refuses it against the graph's
    compressed index: nodes and super edges agree, the merge log does not."""
    want = compress(build_equiwing(fig2_graph))
    assert want.merge_log
    body = body_of(serialize(want))
    drop = next(i for i, line in enumerate(body) if line.startswith("M "))
    lines = [f"merges {len(want.merge_log) - 1}" if line.startswith("merges ")
             else line for line in body[:drop] + body[drop + 1:]]
    loaded = deserialize_comp(seal(lines))
    with pytest.raises(InternalConsistencyError,
                       match="merge log has the wrong length"):
        id_map(loaded, want)

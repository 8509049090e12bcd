"""Difference-tree comparator: formats, localization, recursion, rendering."""

from __future__ import annotations

import difflib
import gzip as gzip_mod
import importlib.util
import io
import itertools
import json
import random
import tarfile
import tracemalloc
import zipfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reprokit import compare, formats
from reprokit.compare import (
    ByteRange,
    ByteRanges,
    Format,
    MetaDiff,
    ReportStyle,
    Status,
    TextDiff,
    byte_ranges,
    compare_bytes,
    compare_files,
    detect_format,
    node_to_json,
    render_report,
)
from reprokit.errors import FormatError
from reprokit.formats import (
    MAX_NESTING,
    META_FIELDS,
    Member,
    parse_gzip,
    parse_tar,
    parse_zip,
    parse_zip_with_errors,
    write_gzip,
    write_tar,
    write_zip,
)
from reprokit.normalize import NormalizePolicy, normalize_bytes


@pytest.mark.parametrize("data,expected", [
    (b"\x1f\x8b\x08rest", Format.GZIP),
    (b"PK\x03\x04rest", Format.ZIP),
    (b"x" * 257 + b"ustar\x00", Format.TAR),
    (b"plain text\n", Format.TEXT),
    (b"", Format.TEXT),
    (b"nul\x00inside", Format.BINARY),
    (b"\xff\xfe bad utf-8", Format.BINARY),
    (b"PK\x05\x06", Format.TEXT),
])
def test_detect_format(data, expected):
    assert detect_format(data) is expected


def test_byte_ranges_equal_inputs():
    assert byte_ranges(b"same", b"same") == ByteRanges(())


def test_byte_ranges_clusters_nearby_positions():
    a = bytearray(b"\x11" * 300)
    b = bytearray(a)
    b[10] = 0x22
    b[40] = 0x22  # 30 bytes later: same cluster
    b[200] = 0x22  # far away: new cluster
    got = byte_ranges(bytes(a), bytes(b)).ranges
    assert [(r.offset, r.len_first) for r in got] == [(10, 31), (200, 1)]
    assert got[1].first_hex == "11" and got[1].second_hex == "22"
    assert got[0].len_first == got[0].len_second


def test_byte_ranges_collapse_when_scattered():
    a = bytes(range(256)) * 20
    b = bytearray(a)
    for i in range(0, len(b), 130):  # > 32 clusters, gaps above the window
        b[i] ^= 0xFF
    got = byte_ranges(a, bytes(b)).ranges
    assert len(got) == 1
    assert got[0].offset == 0
    assert got[0].len_first > 4000


def test_byte_ranges_unequal_lengths_trim_prefix_suffix():
    a = b"HEAD" + b"xxx" + b"TAIL"
    b = b"HEAD" + b"yyyyyy" + b"TAIL"
    (r,) = byte_ranges(a, b).ranges
    assert r.offset == 4
    assert (r.len_first, r.len_second) == (3, 6)
    assert bytes.fromhex(r.first_hex) == b"xxx"
    assert bytes.fromhex(r.second_hex) == b"yyyyyy"


def test_byte_ranges_insertion_at_end():
    (r,) = byte_ranges(b"abc", b"abcdef").ranges
    assert (r.offset, r.len_first, r.len_second) == (3, 0, 3)
    assert r.first_hex == "" and bytes.fromhex(r.second_hex) == b"def"


def test_byte_ranges_excerpt_capped_at_64_bytes():
    (r,) = byte_ranges(b"", b"\xab" * 500).ranges
    assert r.len_second == 500
    assert len(bytes.fromhex(r.second_hex)) == 64


def test_byte_ranges_zero_flags():
    (r,) = byte_ranges(b"\x00" * 16 + b"!", b"\xcd" * 16 + b"!").ranges
    assert r.first_zero is True
    assert r.second_zero is False


# -- byte_ranges against a per-byte walk ------------------------------------


def _walk_all_zero(data: bytes) -> bool:
    return len(data) > 0 and data.strip(b"\x00") == b""


def _walk_range(a: bytes, b: bytes, offset: int, la: int, lb: int) -> ByteRange:
    span_a = a[offset:offset + la]
    span_b = b[offset:offset + lb]
    return ByteRange(
        offset=offset,
        len_first=la,
        len_second=lb,
        first_hex=span_a[:64].hex(),
        second_hex=span_b[:64].hex(),
        first_zero=_walk_all_zero(span_a),
        second_zero=_walk_all_zero(span_b),
    )


def walk_byte_ranges(a: bytes, b: bytes) -> ByteRanges:
    """Reference: the same ranges, found one byte at a time."""
    if a == b:
        return ByteRanges(())
    if len(a) == len(b):
        clusters: list[list[int]] = []
        for i, (x, y) in enumerate(zip(a, b)):
            if x == y:
                continue
            if clusters and i - clusters[-1][1] < 64:
                clusters[-1][1] = i + 1
            else:
                clusters.append([i, i + 1])
        if len(clusters) > 32:
            clusters = [[clusters[0][0], clusters[-1][1]]]
        return ByteRanges(tuple(_walk_range(a, b, s, e - s, e - s) for s, e in clusters))
    limit = min(len(a), len(b))
    prefix = 0
    while prefix < limit and a[prefix] == b[prefix]:
        prefix += 1
    suffix = 0
    while suffix < limit - prefix and a[-1 - suffix] == b[-1 - suffix]:
        suffix += 1
    return ByteRanges(
        (_walk_range(a, b, prefix, len(a) - prefix - suffix, len(b) - prefix - suffix),)
    )


@st.composite
def byte_pairs(draw):
    """Block and sub-block sizes to compare with and two inputs that differ
    around them: scattered flips, combs of flips 63 to 67 bytes apart, flips
    at block and sub-block boundaries, zeroed spans, and insertions or
    deletions."""
    block = draw(st.sampled_from([1, 2, 63, 64, 65, 200, compare._BLOCK]))
    sub_block = draw(st.sampled_from([1, 63, 64, 65, compare._SUB_BLOCK]))
    size = draw(st.integers(0, max(3 * block + 70, 4000)))
    base = draw(st.sampled_from(["zero", "random", "cycle"]))
    if base == "zero":
        a = bytes(size)
    elif base == "random":
        a = random.Random(draw(st.integers(0, 9))).randbytes(size)
    else:
        a = bytes(range(256)) * (size // 256) + bytes(range(size % 256))
    b = bytearray(a)

    def position() -> int:
        if draw(st.booleans()):
            return draw(st.integers(0, max(size - 1, 0)))
        unit = draw(st.sampled_from([block, sub_block]))
        near = draw(st.integers(0, size // unit)) * unit + draw(st.integers(-2, 2))
        return min(max(near, 0), max(size - 1, 0))

    for _ in range(draw(st.integers(0, 6)) if size else 0):
        kind = draw(st.sampled_from(["flip", "comb", "zero"]))
        start = position()
        if kind == "flip":
            b[start] ^= draw(st.integers(1, 255))
        elif kind == "comb":
            gap = draw(st.integers(62, 66))
            for p in range(start, size, gap + 1)[:draw(st.integers(1, 40))]:
                b[p] ^= 0xA5
        else:
            end = min(start + draw(st.integers(1, 200)), size)
            b[start:end] = bytes(end - start)
    if draw(st.booleans()):
        at = draw(st.integers(0, size))
        if draw(st.booleans()):
            b[at:at] = draw(st.binary(min_size=1, max_size=100))
        else:
            del b[at:at + draw(st.integers(1, 100))]
    pair = (a, bytes(b))
    return block, sub_block, pair if draw(st.booleans()) else pair[::-1]


def _comb(size: int, start: int, gap: int, count: int) -> tuple[bytes, bytes]:
    """Zeros against zeros with ``count`` set bytes, ``gap`` equal bytes apart."""
    b = bytearray(size)
    for p in range(start, size, gap + 1)[:count]:
        b[p] = 1
    return bytes(size), bytes(b)


@settings(max_examples=300, deadline=None)
@given(byte_pairs())
@example((200, compare._SUB_BLOCK, _comb(600, 10, 63, 5)))
@example((200, compare._SUB_BLOCK, _comb(600, 10, 64, 5)))
@example((200, compare._SUB_BLOCK, _comb(600, 10, 65, 5)))
@example((64, compare._SUB_BLOCK, _comb(600, 60, 64, 5)))
@example((compare._BLOCK, compare._SUB_BLOCK, _comb(3 * compare._BLOCK, compare._BLOCK - 100, 64, 40)))
@example((compare._BLOCK, compare._SUB_BLOCK, (b"", bytes(100))))
@example((1, compare._SUB_BLOCK, (b"abc", b"")))
@example((64, compare._SUB_BLOCK, (bytes(300), bytes(100) + b"\x01" * 50 + bytes(150))))
@example((200, compare._SUB_BLOCK, _comb(3000, 10, 64, 32)))
@example((200, compare._SUB_BLOCK, _comb(3000, 10, 64, 33)))
@example((200, compare._SUB_BLOCK, _comb(5050, 10, 64, 100)))
@example((200, compare._SUB_BLOCK, _comb(5050, 44, 64, 100)))
@example((compare._BLOCK, compare._SUB_BLOCK, _comb(2 * compare._BLOCK + 300, 10, 64, 3000)))
@example((200, 64, _comb(600, 63, 64, 8)))
@example((200, 63, _comb(600, 62, 65, 8)))
@example((64, 1, _comb(600, 10, 63, 5)))
@example((compare._BLOCK, 65, _comb(2 * compare._BLOCK, compare._BLOCK - 65, 64, 10)))
@example((compare._BLOCK, compare._SUB_BLOCK,
          _comb(3 * compare._BLOCK, compare._SUB_BLOCK - 1, compare._SUB_BLOCK - 1, 40)))
@example((compare._BLOCK, compare._SUB_BLOCK, _comb(3 * compare._BLOCK, compare._BLOCK - 1, 0, 2)))
@example((compare._BLOCK, compare._SUB_BLOCK,
          _comb(2 * compare._BLOCK, compare._SUB_BLOCK - 30, 63, 2)))
@example((compare._BLOCK, compare._SUB_BLOCK,
          _comb(2 * compare._BLOCK, compare._SUB_BLOCK - 30, 64, 2)))
def test_byte_ranges_matches_per_byte_walk(case):
    block, sub_block, (a, b) = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compare, "_BLOCK", block)
        mp.setattr(compare, "_SUB_BLOCK", sub_block)
        assert byte_ranges(a, b) == walk_byte_ranges(a, b)


def test_byte_ranges_stops_clustering_past_the_cap():
    # A flip every 65 bytes of 16 MiB: about 258k clusters, of which only
    # the first 33 need to be found.
    a, b = _comb(16 << 20, 0, 64, 1 << 20)
    seen = []
    differing_spans = compare._differing_spans

    def counted(x, y):
        for span in differing_spans(x, y):
            seen.append(span)
            yield span

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compare, "_differing_spans", counted)
        got = byte_ranges(a, b)
    assert len(seen) == compare._MAX_RANGES + 1
    assert got == walk_byte_ranges(a, b)


def test_byte_ranges_xors_only_the_differing_sub_blocks():
    a = random.Random(12).randbytes(16 << 20)
    b = bytearray(a)
    flips = sorted(random.Random(13).sample(range(len(a)), 24))
    for p in flips:
        b[p] ^= 0x5A
    xored = []
    xor = compare._xor
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compare, "_xor", lambda x, y: (xored.append(len(x)), xor(x, y))[1])
        got = byte_ranges(a, bytes(b))
    assert [r.offset for r in got.ranges] == flips
    assert sum(xored) <= 24 * compare._SUB_BLOCK


@pytest.mark.parametrize("edit", ["insert", "flip"])
def test_byte_ranges_memory_is_bounded(edit):
    a = random.Random(11).randbytes(16 << 20)
    mid = len(a) // 2
    if edit == "insert":
        b = a[:mid] + b"xyz" + a[mid:]
    else:
        b = a[:mid] + bytes([a[mid] ^ 1]) + a[mid + 1:]
    tracemalloc.start()
    try:
        got = byte_ranges(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    (r,) = got.ranges
    assert r.offset == mid
    assert (r.len_first, r.len_second) == ((0, 3) if edit == "insert" else (1, 1))


def test_compare_bytes_identical():
    node = compare_bytes(b"payload", b"payload", path="a.bin")
    assert node.status is Status.SAME
    assert node.path == "a.bin"
    assert node.detail is None and node.children == ()


def test_compare_bytes_text_hunks():
    node = compare_bytes(b"alpha\nbeta\ngamma\n", b"alpha\nBETA\ngamma\n")
    assert node.format is Format.TEXT and node.status is Status.DIFFERS
    assert isinstance(node.detail, TextDiff)
    assert node.detail.hunks[0].startswith("@@")
    assert "-beta" in node.detail.hunks and "+BETA" in node.detail.hunks
    assert not any(h.startswith(("--- ", "+++ ")) for h in node.detail.hunks)


@pytest.mark.parametrize("a,b,minus,plus", [
    (b"-- built 2020-09-13\nx\n", b"-- built 2022-03-15\nx\n",
     "--- built 2020-09-13", "+-- built 2022-03-15"),
    (b"++ one\nx\n", b"++ two\nx\n", "-++ one", "+++ two"),
], ids=["dashes", "pluses"])
def test_compare_bytes_text_keeps_lines_that_look_like_file_headers(a, b, minus, plus):
    node = compare_bytes(a, b)
    assert node.detail == TextDiff(("@@ -1,2 +1,2 @@", minus, plus, " x"))


def test_compare_bytes_text_ordering_only():
    a = b"".join(b"f%d\n" % i for i in range(10))
    b = b"f0\nf1\nf5\nf3\nf4\nf2\nf6\nf7\nf9\nf8\n"
    node = compare_bytes(a, b, path="list.txt")
    assert node.format is Format.TEXT and node.status is Status.DIFFERS
    assert node.detail == TextDiff(
        ("@@ ordering differences only: 4 of 10 lines moved @@", "-f2", "+f5"),
        ordering_only=True,
    )
    mirror = compare_bytes(b, a, path="list.txt")
    assert mirror.detail == TextDiff(
        ("@@ ordering differences only: 4 of 10 lines moved @@", "-f5", "+f2"),
        ordering_only=True,
    )
    _assert_mirrored(node, mirror)


def test_compare_bytes_text_ordering_only_needs_equal_multisets():
    # Same set of lines, different counts: a real edit, shown as hunks.
    node = compare_bytes(b"a\na\nb\n", b"a\nb\nb\n")
    assert node.detail.ordering_only is False
    assert "-a" in node.detail.hunks and "+b" in node.detail.hunks


def reference_text_diff(a: bytes, b: bytes) -> TextDiff | None:
    """``_text_diff`` with the ordering test it had first: sorted lists
    compared, and every moved position listed."""
    lines_a = a.decode("utf-8").splitlines()
    lines_b = b.decode("utf-8").splitlines()
    if lines_a == lines_b:
        return None
    if len(lines_a) == len(lines_b) and sorted(lines_a) == sorted(lines_b):
        moved = [i for i, (x, y) in enumerate(zip(lines_a, lines_b)) if x != y]
        summary = f"@@ ordering differences only: {len(moved)} of {len(lines_a)} lines moved @@"
        i = moved[0]
        return TextDiff((summary, f"-{lines_a[i]}", f"+{lines_b[i]}"), ordering_only=True)
    lines = difflib.unified_diff(lines_a, lines_b, lineterm="")
    return TextDiff(tuple(itertools.islice(lines, 2, None)))


@st.composite
def line_lists(draw):
    """Two line lists: a permutation, the same set of lines with one count
    moved to another line, or unrelated lines. Few distinct lines, so most
    lists repeat some."""
    line = st.text(alphabet="ab ", max_size=2)
    first = draw(st.lists(line, max_size=12))
    kind = draw(st.sampled_from(["permuted", "recounted", "unrelated"]))
    if kind == "unrelated":
        second = draw(st.lists(line, max_size=12))
    else:
        second = list(first)
        if kind == "recounted" and len(set(first)) > 1:
            at = draw(st.integers(0, len(first) - 1))
            second[at] = draw(st.sampled_from(sorted(set(first) - {first[at]})))
        second = draw(st.permutations(second))
    return ("\n".join(first) + "\n").encode(), ("\n".join(second) + "\n").encode()


@given(line_lists())
@example((b"a\na\nb\n", b"a\nb\nb\n"))  # same set, counts differ
@example((b"a\nb\nc\n", b"a\na\nb\n"))  # distinct against repeated
@example((b"a\na\nb\n", b"b\na\na\n"))  # repeated lines, permuted
@example((b"a\nb\nc\n", b"c\na\nb\n"))  # distinct lines, permuted
@settings(max_examples=300, deadline=None)
def test_text_diff_matches_the_sorted_oracle(pair):
    a, b = pair
    assert compare._text_diff(a, b) == reference_text_diff(a, b)


@pytest.mark.parametrize("a,b", [
    (b"x\ny\n", b"x\r\ny\r\n"),
    (b"x\ny\n", b"x\ny"),
    (b"x\ny", b"x\r\ny\n"),
], ids=["crlf", "final-newline", "both"])
def test_compare_bytes_text_line_endings_give_byte_ranges(a, b):
    for first, second in ((a, b), (b, a)):
        node = compare_bytes(first, second)
        assert node.format is Format.TEXT
        assert isinstance(node.detail, ByteRanges) and node.detail.ranges


def test_compare_bytes_text_same_lines_different_bytes():
    node = compare_bytes(b"line\n", b"line")
    assert node.format is Format.TEXT
    assert isinstance(node.detail, ByteRanges)


def test_compare_bytes_binary_fallback():
    node = compare_bytes(b"\x00\x01\x02", b"\x00\xff\x02")
    assert node.format is Format.BINARY
    assert isinstance(node.detail, ByteRanges)


def test_compare_tar_member_text_diff_and_only_in():
    ma = [Member(name="common.txt", content=b"v1\n"), Member(name="gone.txt", content=b"x\n")]
    mb = [Member(name="common.txt", content=b"v2\n"), Member(name="new.txt", content=b"y\n")]
    node = compare_bytes(write_tar(ma), write_tar(mb), path="dist.tar")
    assert node.format is Format.TAR and node.status is Status.DIFFERS
    by_path = {c.path: c for c in node.children}
    assert by_path["dist.tar!common.txt"].status is Status.DIFFERS
    assert isinstance(by_path["dist.tar!common.txt"].detail, TextDiff)
    assert by_path["dist.tar!gone.txt"].status is Status.ONLY_IN_FIRST
    assert by_path["dist.tar!new.txt"].status is Status.ONLY_IN_SECOND


def test_compare_tar_metadata_wrapper():
    ma = [Member(name="f", content=b"same\n", mtime=100, uid=0, uname="root")]
    mb = [Member(name="f", content=b"same\n", mtime=999, uid=7, uname="alice")]
    node = compare_bytes(write_tar(ma), write_tar(mb), path="t")
    (child,) = node.children
    assert isinstance(child.detail, MetaDiff)
    fields = {e[0]: (e[1], e[2]) for e in child.detail.entries}
    assert fields["mtime"] == ("100", "999")
    assert fields["uid"] == ("0", "7")
    assert fields["uname"] == ("root", "alice")
    assert "mode" not in fields
    # the wrapped content node is Same
    assert child.children[0].status is Status.SAME


def test_compare_tar_order_pseudo_field():
    ma = [Member(name="a", content=b"1"), Member(name="b", content=b"2")]
    node = compare_bytes(write_tar(ma), write_tar(list(reversed(ma))), path="t")
    assert isinstance(node.detail, MetaDiff)
    assert node.detail.entries == (("order", "a,b", "b,a"),)
    assert all(c.status is Status.SAME for c in node.children)


def test_compare_container_same_members_different_encoding():
    payload = b"identical payload" * 20
    a = gzip_mod.compress(payload, compresslevel=1, mtime=0)
    b = gzip_mod.compress(payload, compresslevel=9, mtime=0)
    assert a != b
    node = compare_bytes(a, b)
    assert node.status is Status.DIFFERS
    assert all(c.status is Status.SAME for c in node.children)
    assert isinstance(node.detail, ByteRanges) and node.detail.ranges


def test_compare_gzip_mtime_meta_wrapper():
    payload = b"identical payload"
    node = compare_bytes(write_gzip(payload, mtime=0), write_gzip(payload, mtime=12345))
    (child,) = node.children
    assert isinstance(child.detail, MetaDiff)
    assert child.detail.entries == (("mtime", "0", "12345"),)
    assert child.children[0].status is Status.SAME


def test_compare_gzip_positional_pairing():
    a = write_gzip(b"one\ntwo\n", mtime=0, filename="left.txt")
    b = write_gzip(b"one\n2\n", mtime=0, filename="right.txt")
    node = compare_bytes(a, b, path="x.gz")
    (child,) = node.children
    assert child.path == "x.gz!data"
    assert isinstance(child.detail, TextDiff)


def test_compare_tar_duplicate_names_fall_back_to_bytes():
    dup = write_tar([Member(name="a", content=b"1")])
    # two identical member blocks followed by the end marker
    raw = dup[:-1024] + dup[:-1024] + b"\x00" * 1024
    other = raw.replace(b"1", b"2", 1)
    node = compare_bytes(raw, other)
    assert node.children == ()
    assert isinstance(node.detail, ByteRanges)


def test_compare_nested_containers_and_depth_paths():
    inner_a = write_tar([Member(name="file.txt", content=b"old line\n")])
    inner_b = write_tar([Member(name="file.txt", content=b"new line\n")])
    outer_a = write_gzip(inner_a, mtime=0, filename="inner.tar")
    outer_b = write_gzip(inner_b, mtime=0, filename="inner.tar")
    node = compare_bytes(outer_a, outer_b, path="x.tar.gz")
    leaf = node.children[0].children[0]
    assert leaf.path == "x.tar.gz!inner.tar!file.txt"
    assert isinstance(leaf.detail, TextDiff)
    expected = [
        line for line in difflib.unified_diff(
            ["old line"], ["new line"], fromfile="first", tofile="second", lineterm="")
        if not line.startswith(("--- ", "+++ "))
    ]
    assert list(leaf.detail.hunks) == expected


def test_compare_respects_max_depth():
    # The outermost gzip is depth 0, so the tar sits one level past the limit.
    a = write_tar([Member(name="f", content=b"a\n")])
    b = write_tar([Member(name="f", content=b"b\n")])
    for _ in range(MAX_NESTING + 1):
        a, b = write_gzip(a, mtime=0), write_gzip(b, mtime=0)
    node = compare_bytes(a, b)
    for _ in range(MAX_NESTING + 1):
        (node,) = node.children
    assert node.format is Format.TAR
    assert node.depth_limited is True
    assert node.children == ()
    assert isinstance(node.detail, ByteRanges)


@pytest.mark.parametrize("levels", [MAX_NESTING, MAX_NESTING + 1, MAX_NESTING + 2])
def test_compare_and_normalize_open_the_same_levels(levels):
    a, b = b"a\n", b"b\n"
    for _ in range(levels):
        a, b = gzip_mod.compress(a, mtime=77), gzip_mod.compress(b, mtime=77)
    node, opened = compare_bytes(a, b), 0
    while node.children:
        (node,) = node.children
        opened += 1
    if levels > MAX_NESTING + 1:
        assert node.format is Format.GZIP and node.depth_limited is True
    else:
        # A text leaf is diffed at any depth, the limit's own included.
        assert node.detail == TextDiff(("@@ -1 +1 @@", "-a", "+b"))
    level, rewritten = normalize_bytes(a, NormalizePolicy(epoch=5)), 0
    while detect_format(level) is Format.GZIP:
        gs = parse_gzip(level)
        rewritten += gs.mtime == 5
        level = gs.payload
    assert opened == rewritten == min(levels, MAX_NESTING + 1)


def test_meta_fields_are_listed_in_one_order():
    first = Member(name="f", content=b"", mtime=1, uid=2, gid=3, uname="u", gname="g", mode=0o644)
    second = Member(name="f", content=b"", mtime=9, uid=8, gid=7, uname="v", gname="h", mode=0o600)
    assert tuple(first.meta()) == META_FIELDS
    assert tuple(name for name, _, _ in compare._meta_entries(first, second)) == META_FIELDS


def test_compare_zip_members():
    za = write_zip([Member(name="doc.txt", content=b"alpha\n", mtime=1_600_000_000, mode=0o644)])
    zb = write_zip([Member(name="doc.txt", content=b"beta\n", mtime=1_600_000_000, mode=0o644)])
    node = compare_bytes(za, zb, path="bundle.zip")
    assert node.format is Format.ZIP
    (child,) = node.children
    assert child.path == "bundle.zip!doc.txt"
    assert isinstance(child.detail, TextDiff)


def test_compare_corrupt_container_falls_back():
    a = bytearray(write_tar([Member(name="a", content=b"payload here")]))
    b = bytearray(a)
    a[150] ^= 0x01  # breaks the checksum but keeps the ustar magic
    b[400] ^= 0xFF
    node = compare_bytes(bytes(a), bytes(b))
    assert node.children == ()
    assert isinstance(node.detail, ByteRanges)


# -- the two sides of a container parsed as a pair --------------------------


def stdlib_archive(kind: str, entries) -> bytes:
    """A tar (USTAR) or zip written by the standard library. entries:
    (name, data, mtime, mode, zip method)."""
    buf = io.BytesIO()
    if kind == "tar":
        with tarfile.open(fileobj=buf, mode="w", format=tarfile.USTAR_FORMAT) as tf:
            for name, data, mtime, mode, _ in entries:
                info = tarfile.TarInfo(name)
                info.mtime, info.mode, info.size = mtime, mode, len(data)
                tf.addfile(info, io.BytesIO(data))
    else:
        with zipfile.ZipFile(buf, "w") as zf:
            for name, data, mtime, mode, method in entries:
                info = zipfile.ZipInfo(name, (1980 + mtime % 100, 1, 1, 0, 0, 0))
                info.external_attr, info.compress_type = mode << 16, method
                zf.writestr(info, data)
    return buf.getvalue()


#: Each shared member of the second side is kept, or given other content of
#: the same length (a tar header that matches over different content), or
#: another mtime or mode (a name that matches over other metadata), or dropped.
_EDITS = ("keep", "content", "mtime", "mode", "drop")


@st.composite
def archive_pairs(draw):
    kind = draw(st.sampled_from(["tar", "zip"]))
    methods = [zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED, zipfile.ZIP_BZIP2]
    first = [
        (f"m{i}.bin", draw(st.binary(min_size=1, max_size=600)), draw(st.integers(0, 99)),
         draw(st.sampled_from([0o644, 0o755])), draw(st.sampled_from(methods)))
        for i in range(draw(st.integers(1, 5)))
    ]
    second = []
    for name, data, mtime, mode, method in first:
        edit = draw(st.sampled_from(_EDITS))
        if edit == "content":
            data = bytes([data[0] ^ 0xFF]) + data[1:]
        elif edit == "mtime":
            mtime = (mtime + 1) % 100
        elif edit == "mode":
            mode ^= 0o111
        if edit != "drop":
            second.append((name, data, mtime, mode, method))
    # A new member in front shifts every shared member to another offset.
    added = draw(st.integers(0, 2))
    second[:0] = [(f"new{i}.bin", b"n" * (700 * i + 1), 0, 0o644, zipfile.ZIP_DEFLATED)
                  for i in range(added)]
    second = draw(st.permutations(second))
    return kind, stdlib_archive(kind, first), stdlib_archive(kind, second)


def _without_seen(data, fmt, seen=None, _unpack=compare.unpack):
    return _unpack(data, fmt)


@given(archive_pairs())
@settings(max_examples=150, deadline=None)
def test_second_side_parses_as_alone_and_reports_as_without_the_dict(pair):
    kind, a, b = pair
    parse = parse_tar if kind == "tar" else parse_zip_with_errors
    seen: dict = {}
    parse(a, seen)
    assert parse(b, seen) == parse(b)
    node = compare_bytes(a, b, path=f"x.{kind}")
    with mock.patch.object(compare, "unpack", _without_seen):
        alone = compare_bytes(a, b, path=f"x.{kind}")
    for style in ReportStyle:
        assert render_report(node, style) == render_report(alone, style)


def test_second_side_reuses_the_first_sides_members():
    shared = [(f"f{i}.txt", b"line %d\n" % i * 40, 10, 0o644, zipfile.ZIP_DEFLATED)
              for i in range(4)]
    edited = ("f1.txt", b"LINE 1\n" + b"line 1\n" * 39, 10, 0o644, zipfile.ZIP_DEFLATED)
    front = ("front.txt", b"new\n" * 100, 10, 0o644, zipfile.ZIP_DEFLATED)
    for kind, parse in (("tar", parse_tar), ("zip", parse_zip)):
        a = stdlib_archive(kind, shared)
        b = stdlib_archive(kind, [front, shared[0], edited, *shared[2:]])
        seen: dict = {}
        first = parse(a, seen)
        second = parse(b, seen)
        assert second == parse(b)
        # The tar header of f1 is shared but not its content; the zip entry
        # of f1 shares neither its CRC nor its compressed bytes.
        assert [m is n for m, n in zip(first, second[1:])] == [True, False, True, True]


def _zip_body_offset(data: bytes) -> int:
    """Where the first member's compressed bytes start (its local header at 0)."""
    name_len, extra_len = int.from_bytes(data[26:28], "little"), int.from_bytes(data[28:30], "little")
    return 30 + name_len + extra_len


def _spoiled_zip_pair(spoil) -> tuple[bytes, bytes]:
    """Two zips that share a first member spoiled by ``spoil`` and differ in a second."""
    pair = []
    for text in (b"one\n", b"two\n"):
        data = bytearray(write_zip([Member(name="bad.txt", content=b"shared payload\n" * 8),
                                    Member(name="other.txt", content=text)]))
        spoil(data)
        pair.append(bytes(data))
    return pair[0], pair[1]


def _corrupt_deflate(data: bytearray) -> None:
    data[_zip_body_offset(bytes(data))] = 0xFF  # final block of reserved type 3


def _wrong_crc(data: bytearray) -> None:
    eocd = bytes(data).rindex(b"PK\x05\x06")
    entry = int.from_bytes(data[eocd + 16:eocd + 20], "little")  # bad.txt's central entry
    data[entry + 16] ^= 0xFF


@pytest.mark.parametrize("spoil,message", [
    (_corrupt_deflate, "corrupt deflate stream in bad.txt"),
    (_wrong_crc, "CRC mismatch for member bad.txt"),
], ids=["corrupt-deflate", "crc-mismatch"])
def test_identical_spoiled_zip_member_still_falls_back_to_bytes(spoil, message):
    a, b = _spoiled_zip_pair(spoil)
    for side in (a, b):
        with pytest.raises(FormatError, match=message):
            parse_zip(side, {})
    node = compare_bytes(a, b)
    assert node.format is Format.ZIP and node.children == ()
    assert isinstance(node.detail, ByteRanges) and node.detail.ranges


def test_identical_unsupported_method_entry_is_an_error_on_both_sides():
    when = (2020, 1, 1, 0, 0, 0)
    pair = []
    for text in (b"one\n", b"two\n"):
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as zf:
            zf.writestr(zipfile.ZipInfo("packed.bin", when), b"squeeze me" * 20,
                        compress_type=zipfile.ZIP_BZIP2)
            zf.writestr(zipfile.ZipInfo("other.txt", when), text)
        pair.append(buf.getvalue())
    seen: dict = {}
    for side in pair:
        members, errors = parse_zip_with_errors(side, seen)
        assert errors == ["packed.bin: unsupported compression method 12"]
        assert members[0].content == b""
    node = compare_bytes(*pair)
    assert node.children == ()
    assert isinstance(node.detail, ByteRanges) and node.detail.ranges


@pytest.mark.parametrize("methods,texts", [
    ((zipfile.ZIP_DEFLATED, zipfile.ZIP_BZIP2), (b"same line\n" * 4,) * 2),
    ((zipfile.ZIP_BZIP2, zipfile.ZIP_BZIP2), (b"one\n", b"two\n")),
], ids=["deflate-vs-bzip2", "bzip2-both-sides"])
def test_undecoded_zip_member_is_not_compared_as_content(methods, texts):
    # An entry parse_zip cannot decode has no known content, so the zip is
    # compared as bytes, not as a member that is empty on that side.
    pair = []
    for method, text in zip(methods, texts):
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as zf:
            zf.writestr(zipfile.ZipInfo("a.txt", (2020, 1, 1, 0, 0, 0)), text,
                        compress_type=method)
        pair.append(buf.getvalue())
    node = compare_bytes(*pair)
    assert node.status is Status.DIFFERS
    assert node.format is Format.ZIP and node.children == ()
    assert isinstance(node.detail, ByteRanges) and node.detail.ranges


@pytest.mark.parametrize("kind", ["tar", "zip"])
def test_identical_duplicate_names_still_fall_back_to_bytes(kind):
    write = write_tar if kind == "tar" else write_zip
    parse = parse_tar if kind == "tar" else parse_zip
    twice = [Member(name="dup.txt", content=b"same\n")] * 2
    a = write([*twice, Member(name="other.txt", content=b"one\n")])
    b = write([*twice, Member(name="other.txt", content=b"two\n")])
    seen: dict = {}
    parse(a, seen)
    assert compare._index_members(parse(b, seen)) is None
    node = compare_bytes(a, b)
    assert node.children == ()
    assert isinstance(node.detail, ByteRanges)


def _module_state() -> dict:
    """The size of every dict, list and set each of ``formats`` and
    ``compare`` holds at module level, and whether any function there caches."""
    state = {}
    for module in (formats, compare):
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            if isinstance(value, (dict, list, set)):
                state[module.__name__, name] = len(value)
            assert not hasattr(value, "cache_info"), name
    return state


def _nested_tar_pair() -> tuple[bytes, bytes]:
    pair = []
    for text in (b"one\n", b"two\n"):
        inner = write_tar([Member(name="inner.txt", content=text),
                           Member(name="kept.txt", content=b"kept\n")])
        pair.append(write_tar([Member(name="inner.tar", content=inner),
                               Member(name="kept.txt", content=b"kept\n")]))
    return pair[0], pair[1]


def test_each_container_comparison_gets_a_fresh_empty_dict():
    calls = []

    def spy(original):
        def parse(data, seen=None):
            calls.append((seen, len(seen)))  # holds every dict, so no id is reused
            return original(data, seen)
        return parse

    tar_pair = _nested_tar_pair()
    zip_pair = tuple(write_zip([Member(name="f.txt", content=text)]) for text in (b"1\n", b"2\n"))
    before = _module_state()
    with mock.patch.object(compare, "parse_tar", spy(compare.parse_tar)), \
            mock.patch.object(compare, "parse_zip", spy(compare.parse_zip)):
        for _ in range(2):
            compare_bytes(*tar_pair)
            compare_bytes(*zip_pair)
    # Per pass: the outer tar, the inner tar and the zip, two sides each.
    assert len(calls) == 12
    firsts, seconds = calls[::2], calls[1::2]
    assert all(size == 0 for _, size in firsts)
    assert all(a is b for (a, _), (b, _) in zip(firsts, seconds))
    dicts = [seen for seen, _ in firsts]
    assert len({id(d) for d in dicts}) == len(dicts)
    assert _module_state() == before


def test_traced_diff_counts_both_sides_members():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tar_pair = tuple(write_tar([Member(name=f"f{i}.txt", content=b"%d %s\n" % (i, text))
                                for i in range(3)]) for text in (b"a", b"b"))
    zip_pair = tuple(write_zip([Member(name=f"f{i}.txt", content=b"%d\n" % i)
                                for i in range(n)]) for n in (4, 5))
    expected = sum(len(parse_tar(side)) for side in tar_pair)
    expected += sum(len(parse_zip(side)) for side in zip_pair)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        compare.compare_bytes(*tar_pair)
        compare.compare_bytes(*zip_pair)
    finally:
        tracer.remove()
    assert tracer.counts["formats.members_parsed"] == expected == 15
    assert tracer.counts["formats.bytes_parsed"] == sum(map(len, tar_pair + zip_pair))


def test_render_text_identical_exact():
    node = compare_bytes(b"x", b"x")
    assert render_report(node, ReportStyle.TEXT) == b"artifacts are identical\n"


def test_render_text_tree():
    a = write_tar([Member(name="f.txt", content=b"one\n"), Member(name="same.txt", content=b"s")])
    b = write_tar([Member(name="f.txt", content=b"two\n"), Member(name="same.txt", content=b"s")])
    out = render_report(compare_bytes(a, b, path="d.tar"), ReportStyle.TEXT).decode()
    assert "d.tar [tar] differs" in out
    assert "d.tar!f.txt [text] differs" in out
    assert "-one" in out and "+two" in out
    # unchanged members stay out of the rendering
    assert "same.txt" not in out


def test_render_json_schema():
    a = write_tar([Member(name="f", content=b"one\n", mtime=5)])
    b = write_tar([Member(name="f", content=b"two\n", mtime=9)])
    doc = json.loads(render_report(compare_bytes(a, b, path="d"), ReportStyle.JSON))
    assert set(doc) == {"path", "format", "status", "detail", "children"}
    assert doc["format"] == "tar" and doc["status"] == "differs"
    wrapper = doc["children"][0]
    assert wrapper["detail"]["kind"] == "meta"
    assert ["mtime", "5", "9"] in wrapper["detail"]["entries"]
    inner = wrapper["children"][0]
    assert inner["detail"]["kind"] == "text"
    assert any(h.startswith("@@") for h in inner["detail"]["hunks"])
    assert doc == node_to_json(compare_bytes(a, b, path="d"))


def test_render_json_bytes_detail():
    doc = json.loads(render_report(compare_bytes(b"\x00a", b"\x00b"), ReportStyle.JSON))
    assert doc["detail"]["kind"] == "bytes"
    r = doc["detail"]["ranges"][0]
    assert set(r) >= {"offset", "len_first", "len_second", "first_hex", "second_hex"}


def _ordering_tar_pair() -> tuple[bytes, bytes]:
    names = [f"usr/share/f{i:03d}" for i in range(200)]
    a = write_tar([Member(name="files.txt", content=("\n".join(names) + "\n").encode()),
                   Member(name="notes.txt", content=b"one\n")])
    b = write_tar([Member(name="files.txt", content=("\n".join(names[::-1]) + "\n").encode()),
                   Member(name="notes.txt", content=b"two\n")])
    return a, b


def test_render_json_marks_only_ordering_only_nodes():
    a, b = _ordering_tar_pair()
    doc = json.loads(render_report(compare_bytes(a, b, path="d.tar"), ReportStyle.JSON))
    flagged, stack = [], [doc]
    while stack:
        node = stack.pop()
        if node["detail"] is not None and "ordering_only" in node["detail"]:
            flagged.append((node["path"], node["detail"]["ordering_only"]))
        assert "ordering_only" not in node
        stack.extend(node["children"])
    assert flagged == [("d.tar!files.txt", True)]
    notes = next(c for c in doc["children"] if c["path"] == "d.tar!notes.txt")
    assert notes["detail"] == {"kind": "text", "hunks": ["@@ -1 +1 @@", "-one", "+two"]}


def test_render_text_and_html_show_the_ordering_summary():
    a, b = _ordering_tar_pair()
    node = compare_bytes(a, b, path="d.tar")
    summary = "@@ ordering differences only: 200 of 200 lines moved @@"
    text = render_report(node, ReportStyle.TEXT).decode()
    assert "  d.tar!files.txt [text] differs\n" in text
    assert (f"    {summary}\n    -usr/share/f000\n    +usr/share/f199\n") in text
    page = render_report(node, ReportStyle.HTML).decode()
    assert '<span class="path">d.tar!files.txt</span>' in page
    assert f'<tr class="hunk"><td colspan="2">{summary}</td></tr>' in page
    assert '<td class="del">-usr/share/f000</td>' in page
    assert '<td class="add">+usr/share/f199</td>' in page


def test_render_html_page():
    out = render_report(compare_bytes(b"a\n", b"b\n"), ReportStyle.HTML)
    assert out.startswith(b"<!DOCTYPE html>")
    text = out.decode()
    assert "http://" not in text and "https://" not in text
    assert "<script src" not in text
    node = compare_bytes(b"<tag>&amp\n", b"<tag>other\n")
    escaped = render_report(node, ReportStyle.HTML).decode()
    assert "<tag>" not in escaped.split("<body>", 1)[-1]


def test_render_report_deterministic():
    a = write_tar([Member(name="m", content=b"1\n", mtime=3)])
    b = write_tar([Member(name="m", content=b"2\n", mtime=4)])
    for style in ReportStyle:
        first = render_report(compare_bytes(a, b), style)
        second = render_report(compare_bytes(a, b), style)
        assert first == second


def test_compare_files_uses_first_name(tmp_path):
    pa = tmp_path / "left.txt"
    pb = tmp_path / "right.txt"
    pa.write_bytes(b"1\n")
    pb.write_bytes(b"2\n")
    assert compare_files(pa, pb).path == "left.txt"


def _random_artifact(rng: random.Random) -> bytes:
    kind = rng.randrange(4)
    if kind == 0:
        lines = ["line %d" % rng.randrange(50) for _ in range(rng.randint(0, 10))]
        return ("\n".join(lines) + "\n").encode()
    if kind == 1:
        return rng.randbytes(rng.randint(0, 300))
    if kind == 2:
        members = [
            Member(name=f"m{i}", content=rng.randbytes(rng.randint(0, 80)),
                   mtime=rng.randrange(2**30))
            for i in range(rng.randint(0, 4))
        ]
        return write_tar(members)
    return write_gzip(rng.randbytes(rng.randint(0, 200)), mtime=rng.randrange(2**30))


def test_reflexivity_random():
    rng = random.Random(20200913)
    for _ in range(100):
        data = _random_artifact(rng)
        node = compare_bytes(data, data)
        assert node.status is Status.SAME
        assert node.children == () and node.detail is None


def _mirror_status(status: Status) -> Status:
    if status is Status.ONLY_IN_FIRST:
        return Status.ONLY_IN_SECOND
    if status is Status.ONLY_IN_SECOND:
        return Status.ONLY_IN_FIRST
    return status


def _assert_mirrored(n1, n2) -> None:
    assert n2.path == n1.path
    assert n2.format is n1.format
    assert n2.status is _mirror_status(n1.status)
    assert n2.depth_limited == n1.depth_limited
    if isinstance(n1.detail, ByteRanges):
        assert isinstance(n2.detail, ByteRanges)
        for r1, r2 in zip(n1.detail.ranges, n2.detail.ranges, strict=True):
            assert (r2.offset, r2.len_first, r2.len_second) == (r1.offset, r1.len_second, r1.len_first)
            assert (r2.first_hex, r2.second_hex) == (r1.second_hex, r1.first_hex)
            assert (r2.first_zero, r2.second_zero) == (r1.second_zero, r1.first_zero)
    elif isinstance(n1.detail, MetaDiff):
        assert isinstance(n2.detail, MetaDiff)
        swapped = tuple((name, b, a) for name, a, b in n1.detail.entries)
        assert n2.detail.entries == swapped
    elif isinstance(n1.detail, TextDiff):
        assert isinstance(n2.detail, TextDiff)
        assert n2.detail.ordering_only == n1.detail.ordering_only
        minus = {h[1:] for h in n1.detail.hunks if h.startswith("-")}
        plus = {h[1:] for h in n1.detail.hunks if h.startswith("+")}
        minus2 = {h[1:] for h in n2.detail.hunks if h.startswith("-")}
        plus2 = {h[1:] for h in n2.detail.hunks if h.startswith("+")}
        assert (minus2, plus2) == (plus, minus)
    else:
        assert n1.detail is None and n2.detail is None
    assert len(n1.children) == len(n2.children)
    for c1, c2 in zip(n1.children, n2.children):
        _assert_mirrored(c1, c2)


def test_symmetry_random():
    rng = random.Random(42)
    for _ in range(100):
        a = _random_artifact(rng)
        b = _random_artifact(rng)
        _assert_mirrored(compare_bytes(a, b), compare_bytes(b, a))

"""Recursive artifact comparator.

Two byte strings go in; a difference tree comes out. Containers (gzip, tar,
zip) are unpacked and their members compared pairwise by name, so a one-line
change inside a tarball inside a gzip surfaces as a text diff three levels
down rather than as an opaque binary blob. Each tree node records where it
sits (a ``!``-separated descent path), what it is, whether it differs, and
one piece of evidence: unified text hunks, localized byte ranges, or a
metadata field table.

Reports render in three styles: an indented text tree, canonical JSON with
stable key order, and a self-contained HTML page with side-by-side hunks.
"""

from __future__ import annotations

import difflib
import enum
import html
import itertools
import json
import operator
import os
import re
from collections.abc import Iterable
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import FormatError, ValidationError
from .formats import (
    CONTAINERS,
    MAX_NESTING,
    META_FIELDS,
    Format,
    Member,
    detect_format,
    parse_gzip,
    parse_tar,
    parse_zip,
)

#: Byte positions closer than this merge into one reported range.
_RESYNC_WINDOW = 64

#: Cap on the hex evidence excerpt kept per range side.
_EXCERPT_BYTES = 64

_MAX_RANGES = 32


class Status(enum.Enum):
    SAME = "same"
    DIFFERS = "differs"
    ONLY_IN_FIRST = "only_in_first"
    ONLY_IN_SECOND = "only_in_second"


@dataclass(frozen=True)
class TextDiff:
    """Unified-diff hunks (the ``@@`` lines and their bodies, no file headers).

    When the two texts hold the same lines in a different order,
    ``ordering_only`` is set and the hunks are a fixed summary instead: an
    ``@@ ordering differences only: N of M lines moved @@`` line, then the
    two sides' lines at the first moved position as a ``-`` and a ``+`` line.
    """

    hunks: tuple[str, ...]
    ordering_only: bool = False


@dataclass(frozen=True)
class ByteRange:
    """One differing run of bytes: where it starts, each side's length and hex,
    and whether each side is all zero."""

    offset: int
    len_first: int
    len_second: int
    first_hex: str
    second_hex: str
    first_zero: bool
    second_zero: bool


@dataclass(frozen=True)
class ByteRanges:
    """The differing byte runs of two opaque blobs, in offset order."""

    ranges: tuple[ByteRange, ...]


@dataclass(frozen=True)
class MetaDiff:
    """Differing metadata fields as (field, first, second) rows."""

    entries: tuple[tuple[str, str, str], ...]


Detail = TextDiff | ByteRanges | MetaDiff


@dataclass(frozen=True)
class DiffNode:
    """One node of the difference tree: a path, its format and status, what
    differs at this level, and the nodes for its members."""

    path: str
    format: Format
    status: Status
    detail: Detail | None
    children: tuple[DiffNode, ...] = ()
    depth_limited: bool = False


def unpack(data: bytes, fmt: Format, seen: dict | None = None) -> list[Member]:
    """Open one container level. Gzip yields a single pseudo-member; ``seen``
    goes to the tar and zip parsers."""
    if fmt is Format.GZIP:
        gs = parse_gzip(data)
        return [Member(name=gs.filename or "data", content=gs.payload, mtime=gs.mtime)]
    if fmt is Format.TAR:
        return parse_tar(data, seen)
    if fmt is Format.ZIP:
        return parse_zip(data, seen)
    raise FormatError(f"{fmt.value} is not a container format")


# -- byte-range localization ------------------------------------------------

#: Inputs are compared in slices of at most this many bytes, so no step of
#: the localization copies more than a block of either input.
_BLOCK = 1 << 16

#: A block that differs is compared again in sub-blocks of this many bytes,
#: and only the sub-blocks that differ are XORed and scanned.
_SUB_BLOCK = 1 << 12

#: A run of equal bytes this long ends a cluster: in the XOR of two blocks
#: it is a run of zero bytes.
_RESYNC_GAP = bytes(_RESYNC_WINDOW)

_NONZERO = re.compile(rb"[^\x00]")


def _range_side(data: bytes, offset: int, length: int) -> tuple[str, bool]:
    """Hex excerpt and all-zero flag of one side, without copying its span."""
    end = offset + length
    excerpt = data[offset:min(end, offset + _EXCERPT_BYTES)].hex()
    return excerpt, length > 0 and data.count(0, offset, end) == length


def _make_range(a: bytes, b: bytes, offset: int, la: int, lb: int) -> ByteRange:
    first_hex, first_zero = _range_side(a, offset, la)
    second_hex, second_zero = _range_side(b, offset, lb)
    return ByteRange(
        offset=offset,
        len_first=la,
        len_second=lb,
        first_hex=first_hex,
        second_hex=second_hex,
        first_zero=first_zero,
        second_zero=second_zero,
    )


def _xor(a: bytes, b: bytes) -> bytes:
    """Bytewise XOR of two equal-length inputs: equal bytes become zeros."""
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")


def _differing_spans(a: bytes, b: bytes):
    """Yield (start, end) of each differing stretch of two equal-length inputs.

    Within one sub-block, a stretch runs from a differing byte to just past
    the last differing byte before the next run of ``_RESYNC_WINDOW`` equal
    bytes; stretches of adjacent sub-blocks are left to the caller to merge.
    Blocks, and then sub-blocks, that compare equal are skipped whole. A
    differing sub-block is XORed, so equal bytes become zeros that
    ``bytes.find`` and a regex scan in C.
    """
    for start in range(0, len(a), _BLOCK):
        end = min(start + _BLOCK, len(a))
        if a[start:end] == b[start:end]:
            continue
        for sub in range(start, end, _SUB_BLOCK):
            sub_end = min(sub + _SUB_BLOCK, end)
            sub_a, sub_b = a[sub:sub_end], b[sub:sub_end]
            if sub_a == sub_b:
                continue
            xor = _xor(sub_a, sub_b)
            found = _NONZERO.search(xor)
            while found:
                gap = xor.find(_RESYNC_GAP, found.start())
                if gap < 0:
                    yield sub + found.start(), sub + len(xor.rstrip(b"\x00"))
                    break
                yield sub + found.start(), sub + gap
                found = _NONZERO.search(xor, gap)


def _common_length(same, limit: int) -> int:
    """Length of the longest common run, at most ``limit``, counted from one
    end of both inputs; ``same(n, k)`` compares the ``k`` bytes that follow
    the first ``n`` from that end.
    """
    n = 0
    while n < limit:
        step = min(_BLOCK, limit - n)
        if same(n, step):
            n += step
            continue
        # The next step bytes hold a difference: halve them down to one byte.
        while step > 1:
            half = step // 2
            if same(n, half):
                n += half
                step -= half
            else:
                step = half
        break
    return n


def _common_suffix(a: bytes, b: bytes, limit: int) -> int:
    la, lb = len(a), len(b)
    return _common_length(
        lambda n, k: a[la - n - k:la - n] == b[lb - n - k:lb - n], limit
    )


def byte_ranges(a: bytes, b: bytes) -> ByteRanges:
    """Localize differing spans, symmetrically in the two inputs.

    Equal-length inputs get their differing positions clustered (gaps below
    the resync window merge); unequal lengths reduce to one range after
    common prefix and suffix trimming. More than ``_MAX_RANGES`` clusters
    collapse into one range from the first differing byte to the last.
    """
    if a == b:
        return ByteRanges(())
    if len(a) == len(b):
        clusters: list[list[int]] = []
        for start, end in _differing_spans(a, b):
            if clusters and start - clusters[-1][1] < _RESYNC_WINDOW:
                clusters[-1][1] = end
            elif len(clusters) < _MAX_RANGES:
                clusters.append([start, end])
            else:
                # Clusters never merge back, so this one is past the cap: the
                # collapsed range ends at the last differing byte, which a scan
                # from the end finds without walking the spans in between.
                clusters = [[clusters[0][0], len(a) - _common_suffix(a, b, len(a))]]
                break
        return ByteRanges(
            tuple(_make_range(a, b, s, e - s, e - s) for s, e in clusters)
        )
    la, lb = len(a), len(b)
    prefix = _common_length(lambda n, k: a[n:n + k] == b[n:n + k], min(la, lb))
    suffix = _common_suffix(a, b, min(la, lb) - prefix)
    return ByteRanges(
        (_make_range(a, b, prefix, la - prefix - suffix, lb - prefix - suffix),)
    )


# -- tree construction ------------------------------------------------------


def _same_lines(lines_a: list[str], lines_b: list[str]) -> bool:
    """Whether two line lists of equal length hold each line equally often.

    When one side's lines are all distinct, equal sets settle it: the other
    side then has as many lines, all drawn from that set and covering it.
    """
    distinct = set(lines_a)
    if len(distinct) == len(lines_a):
        return distinct == set(lines_b)
    return sorted(lines_a) == sorted(lines_b)


def _text_diff(a: bytes, b: bytes) -> TextDiff | None:
    """Hunks of two texts, or None when their lines are equal.

    Lines that are a permutation of each other's skip ``difflib``, whose cost
    and output grow with the number of moved lines, for a summary of the
    first moved position.
    """
    lines_a = a.decode("utf-8").splitlines()
    lines_b = b.decode("utf-8").splitlines()
    if lines_a == lines_b:
        return None
    if len(lines_a) == len(lines_b) and _same_lines(lines_a, lines_b):
        moved = sum(map(operator.ne, lines_a, lines_b))
        summary = f"@@ ordering differences only: {moved} of {len(lines_a)} lines moved @@"
        i = next(i for i, (x, y) in enumerate(zip(lines_a, lines_b)) if x != y)
        return TextDiff((summary, f"-{lines_a[i]}", f"+{lines_b[i]}"), ordering_only=True)
    lines = difflib.unified_diff(lines_a, lines_b, lineterm="")
    # The first two lines are the ---/+++ file headers.
    return TextDiff(tuple(itertools.islice(lines, 2, None)))


def _meta_entries(ma: Member, mb: Member) -> tuple[tuple[str, str, str], ...]:
    da, db = ma.meta(), mb.meta()
    if da == db:
        return ()
    return tuple(
        (name, da.get(name, ""), db.get(name, ""))
        for name in META_FIELDS
        if da.get(name) != db.get(name)
    )


def _index_members(members: list[Member]) -> dict[str, Member] | None:
    index: dict[str, Member] = {}
    for m in members:
        if m.name in index:
            return None
        index[m.name] = m
    return index


def _compare_members(
    a: bytes,
    b: bytes,
    fmt: Format,
    path: str,
    depth: int,
) -> DiffNode | None:
    """Container comparison; None means fall back to a byte comparison.

    The two sides are parsed through one dict made for this call, so side B
    reuses side A's decoded record wherever their raw bytes match. The dict
    goes when the call ends: kept longer, it would hold A's bytes alive.
    """
    seen: dict = {}
    try:
        members_a = unpack(a, fmt, seen)
        members_b = unpack(b, fmt, seen)
    except FormatError:
        return None
    if fmt is Format.GZIP and members_a[0].name != members_b[0].name:
        # Single member per side; pair positionally even when names differ.
        members_a = [replace(members_a[0], name="data")]
        members_b = [replace(members_b[0], name="data")]
    index_a = _index_members(members_a)
    index_b = _index_members(members_b)
    if index_a is None or index_b is None:
        return None

    children: list[DiffNode] = []
    for name in sorted(index_a.keys() | index_b.keys()):
        child_path = f"{path}!{name}"
        ma, mb = index_a.get(name), index_b.get(name)
        if ma is None or mb is None:
            only = Status.ONLY_IN_SECOND if ma is None else Status.ONLY_IN_FIRST
            children.append(DiffNode(child_path, detect_format((ma or mb).content), only, None))
            continue
        if ma is mb or ma == mb:
            children.append(DiffNode(child_path, detect_format(ma.content), Status.SAME, None))
            continue
        content_node = compare_bytes(ma.content, mb.content, child_path, depth + 1)
        meta = _meta_entries(ma, mb)
        if meta:
            children.append(
                DiffNode(
                    path=child_path,
                    format=content_node.format,
                    status=Status.DIFFERS,
                    detail=MetaDiff(meta),
                    children=(content_node,),
                )
            )
        else:
            children.append(content_node)

    detail: Detail | None = None
    names_a = [m.name for m in members_a]
    names_b = [m.name for m in members_b]
    if names_a != names_b and set(names_a) == set(names_b):
        detail = MetaDiff((("order", ",".join(names_a), ",".join(names_b)),))
    elif all(c.status is Status.SAME for c in children):
        # Same logical content, different container bytes (encoder settings,
        # stripped fields, padding): report the raw spans.
        detail = byte_ranges(a, b)
    return DiffNode(
        path=path,
        format=fmt,
        status=Status.DIFFERS,
        detail=detail,
        children=tuple(children),
    )


def compare_bytes(a: bytes, b: bytes, path: str = "artifact", depth: int = 0) -> DiffNode:
    """Compare two byte strings recursively; the result tree is pure data.

    Identical inputs give a Same node with no children. Containers of the
    same format are unpacked and matched member-by-member; two texts produce
    unified hunks, or an ordering-only summary when one holds the other's
    lines reordered; everything else produces byte ranges. A container nested
    deeper than ``MAX_NESTING`` levels is not opened: its node is closed out
    with whole-payload ranges and a depth_limited marker.
    """
    if a == b:
        return DiffNode(path=path, format=detect_format(a), status=Status.SAME, detail=None)
    fmt_a, fmt_b = detect_format(a), detect_format(b)
    fmt = fmt_a if fmt_a is fmt_b else Format.BINARY
    if fmt in CONTAINERS:
        if depth > MAX_NESTING:
            return DiffNode(
                path=path,
                format=fmt,
                status=Status.DIFFERS,
                detail=byte_ranges(a, b),
                depth_limited=True,
            )
        node = _compare_members(a, b, fmt, path, depth)
        if node is not None:
            return node
    if fmt is Format.TEXT:
        text = _text_diff(a, b)
        if text is not None:
            return DiffNode(path=path, format=Format.TEXT, status=Status.DIFFERS, detail=text)
        # Same lines, different bytes (line endings, final newline): ranges.
    return DiffNode(
        path=path, format=fmt, status=Status.DIFFERS, detail=byte_ranges(a, b)
    )


def compare_files(path_a, path_b) -> DiffNode:
    """Compare two files; the root node is named after the first, whose name
    must therefore be UTF-8 for the report to be."""
    a, b = Path(path_a), Path(path_b)
    try:
        a.name.encode()
    except UnicodeEncodeError:
        raise ValidationError(f"file name is not UTF-8: {os.fsencode(a.name)!r}") from None
    return compare_bytes(a.read_bytes(), b.read_bytes(), a.name)


# -- rendering --------------------------------------------------------------


class ReportStyle(enum.Enum):
    TEXT = "text"
    JSON = "json"
    HTML = "html"


_STATUS_WORDS = {
    Status.SAME: "identical",
    Status.DIFFERS: "differs",
    Status.ONLY_IN_FIRST: "only in first",
    Status.ONLY_IN_SECOND: "only in second",
}


def _describe_range(r: ByteRange) -> str:
    parts = [f"offset {r.offset}: {r.len_first} vs {r.len_second} bytes"]
    if r.first_hex or r.second_hex:
        parts.append(f"first {r.first_hex or '(empty)'}, second {r.second_hex or '(empty)'}")
    if r.first_zero:
        parts.append("first side all zeros")
    if r.second_zero:
        parts.append("second side all zeros")
    return "; ".join(parts)


def _render_text_node(node: DiffNode, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    flag = " (depth limit reached)" if node.depth_limited else ""
    out.append(f"{pad}{node.path} [{node.format.value}] {_STATUS_WORDS[node.status]}{flag}")
    body = "  " * (indent + 1)
    if isinstance(node.detail, TextDiff):
        for line in node.detail.hunks:
            out.append(f"{body}{line}")
    elif isinstance(node.detail, ByteRanges):
        for r in node.detail.ranges:
            out.append(f"{body}{_describe_range(r)}")
    elif isinstance(node.detail, MetaDiff):
        for name, first, second in node.detail.entries:
            out.append(f"{body}{name}: {first} != {second}")
    for child in node.children:
        if child.status is Status.SAME:
            continue
        _render_text_node(child, indent + 1, out)


def _detail_to_json(detail: Detail | None):
    if detail is None:
        return None
    if isinstance(detail, TextDiff):
        out = {"kind": "text", "hunks": list(detail.hunks)}
        if detail.ordering_only:
            out["ordering_only"] = True
        return out
    if isinstance(detail, ByteRanges):
        # Field order is key order; a copy, so the range keeps its own dict.
        return {"kind": "bytes", "ranges": [dict(vars(r)) for r in detail.ranges]}
    return {"kind": "meta", "entries": [list(e) for e in detail.entries]}


def node_to_json(node: DiffNode) -> dict:
    out = {
        "path": node.path,
        "format": node.format.value,
        "status": node.status.value,
        "detail": _detail_to_json(node.detail),
        "children": [node_to_json(c) for c in node.children],
    }
    if node.depth_limited:
        out["depth_limited"] = True
    return out


def _hunk_rows(hunks: tuple[str, ...]) -> list[str]:
    rows = []
    for line in hunks:
        esc = html.escape(line)
        if line.startswith("@@"):
            rows.append(f'<tr class="hunk"><td colspan="2">{esc}</td></tr>')
        elif line.startswith("-"):
            rows.append(f'<tr><td class="del">{esc}</td><td></td></tr>')
        elif line.startswith("+"):
            rows.append(f'<tr><td></td><td class="add">{esc}</td></tr>')
        else:
            rows.append(f'<tr><td class="ctx">{esc}</td><td class="ctx">{esc}</td></tr>')
    return rows


def _render_html_node(node: DiffNode, out: list[str]) -> None:
    status_class = node.status.value.replace("_", "-")
    out.append('<li class="node">')
    out.append(
        f'<span class="path">{html.escape(node.path)}</span> '
        f'<span class="fmt">[{node.format.value}]</span> '
        f'<span class="status {status_class}">{_STATUS_WORDS[node.status]}</span>'
    )
    if node.depth_limited:
        out.append('<span class="flag">depth limit reached</span>')
    if isinstance(node.detail, TextDiff):
        out.append('<table class="diff"><tr><th>first</th><th>second</th></tr>')
        out.extend(_hunk_rows(node.detail.hunks))
        out.append("</table>")
    elif isinstance(node.detail, ByteRanges):
        out.append("<ul>")
        for r in node.detail.ranges:
            out.append(f"<li><code>{html.escape(_describe_range(r))}</code></li>")
        out.append("</ul>")
    elif isinstance(node.detail, MetaDiff):
        out.append('<table class="diff"><tr><th>field</th><th>first</th><th>second</th></tr>')
        for name, first, second in node.detail.entries:
            out.append(
                "<tr><td>{}</td><td>{}</td><td>{}</td></tr>".format(
                    html.escape(name), html.escape(first), html.escape(second)
                )
            )
        out.append("</table>")
    differing = [c for c in node.children if c.status is not Status.SAME]
    if differing:
        out.append("<ul>")
        for child in differing:
            _render_html_node(child, out)
        out.append("</ul>")
    out.append("</li>")


_HTML_STYLE = (
    "body{font-family:monospace;margin:1em}"
    "ul{list-style:none;padding-left:1.2em}"
    ".path{font-weight:bold}"
    ".fmt{color:#555}"
    ".status.differs{color:#a00}"
    ".status.same{color:#070}"
    ".status.only-in-first,.status.only-in-second{color:#850}"
    ".flag{color:#a0a;margin-left:.5em}"
    "table.diff{border-collapse:collapse;margin:.3em 0}"
    "table.diff td,table.diff th{border:1px solid #bbb;padding:0 .4em;"
    "vertical-align:top;white-space:pre-wrap}"
    "td.del{background:#fdd}td.add{background:#dfd}td.ctx{color:#444}"
    "tr.hunk td{background:#eef;color:#225}"
)


def render_html_fragment(root: DiffNode) -> str:
    """One difference tree as an embeddable HTML list."""
    if root.status is Status.SAME:
        return "<p>artifacts are identical</p>"
    body: list[str] = []
    _render_html_node(root, body)
    return "<ul>" + "".join(body) + "</ul>"


def render_html_page(fragments: Iterable[str], heading: str = "artifact comparison") -> bytes:
    """A self-contained HTML page around pre-rendered fragments."""
    parts = [
        "<!DOCTYPE html>",
        '<html><head><meta charset="utf-8">',
        f"<title>{html.escape(heading)}</title>",
        f"<style>{_HTML_STYLE}</style>",
        "</head><body>",
        f"<h1>{html.escape(heading)}</h1>",
        *fragments,
        "</body></html>",
    ]
    return ("\n".join(parts) + "\n").encode("utf-8")


def render_report(root: DiffNode, style: ReportStyle) -> bytes:
    """Render a difference tree; equal trees always yield equal bytes."""
    if style is ReportStyle.TEXT:
        if root.status is Status.SAME:
            return b"artifacts are identical\n"
        lines: list[str] = []
        _render_text_node(root, 0, lines)
        return ("\n".join(lines) + "\n").encode("utf-8")
    if style is ReportStyle.JSON:
        text = json.dumps(node_to_json(root), indent=2, ensure_ascii=False)
        return (text + "\n").encode("utf-8")
    return render_html_page([render_html_fragment(root)])

"""Output checks computed apart from reprokit, with the stdlib as reference.

Every function returns a list of error strings; an empty list accepts the
output. None of this imports reprokit: containers are read with
``tarfile``, ``gzip`` and ``zipfile``, verdicts come from a brute-force
majority, and causes from the design the inputs were built with.
"""

from __future__ import annotations

import calendar
import gzip
import html.parser
import io
import json
import math
import tarfile
import zipfile


def container_kind(data: bytes) -> str | None:
    if data[:2] == b"\x1f\x8b":
        return "gzip"
    if data[:4] == b"PK\x03\x04":
        return "zip"
    if data[257:262] == b"ustar":
        return "tar"
    return None


def _gzip_name(data: bytes) -> str:
    """The stored FNAME of a gzip header, or "data" when there is none."""
    if data[3] & 8:
        pos = 10
        if data[3] & 4:
            pos += 2 + int.from_bytes(data[10:12], "little")
        end = data.index(b"\x00", pos)
        return data[pos:end].decode("latin-1")
    return "data"


def entries(data: bytes) -> list[dict]:
    """One container level: name, content and whatever metadata it records."""
    kind = container_kind(data)
    if kind == "gzip":
        return [{"name": _gzip_name(data), "content": gzip.decompress(data),
                 "mtime": int.from_bytes(data[4:8], "little")}]
    if kind == "tar":
        out = []
        with tarfile.open(fileobj=io.BytesIO(data), mode="r:") as tf:
            for info in tf.getmembers():
                content = tf.extractfile(info).read() if info.isfile() else b""
                out.append({"name": info.name, "content": content, "mtime": info.mtime,
                            "uid": info.uid, "gid": info.gid, "uname": info.uname,
                            "gname": info.gname})
        return out
    if kind == "zip":
        with zipfile.ZipFile(io.BytesIO(data)) as zf:
            return [{"name": info.filename, "content": zf.read(info),
                     "mtime": calendar.timegm(info.date_time + (0, 0, -1))}
                    for info in zf.infolist()]
    raise ValueError("not a container")


def leaves(data: bytes, prefix: str = "") -> dict[str, bytes]:
    """Every non-container member, keyed by its ``!``-joined descent path."""
    out: dict[str, bytes] = {}
    for entry in entries(data):
        path = prefix + entry["name"]
        if container_kind(entry["content"]) is not None:
            out.update(leaves(entry["content"], path + "!"))
        else:
            out[path] = entry["content"]
    return out


def _all_entries(data: bytes, prefix: str = ""):
    for entry in entries(data):
        yield prefix + entry["name"], entry
        if container_kind(entry["content"]) is not None:
            yield from _all_entries(entry["content"], prefix + entry["name"] + "!")


# -- check-corpus ------------------------------------------------------------


def check_corpus_op(variant: str, kind: str, exit_code: int, report: bytes | None,
                    designed_causes: dict[str, str]) -> list[str]:
    """Exit 1 with the designed cause among the findings for a defect, else 0."""
    defect = variant == "orig" and kind != "control"
    want = 1 if defect else 0
    if exit_code != want:
        return [f"{variant}/{kind}: exit {exit_code}, expected {want}"]
    try:
        payload = json.loads(report)
    except (TypeError, ValueError) as err:
        return [f"{variant}/{kind}: report does not parse: {err}"]
    if payload.get("reproducible") is not (not defect):
        return [f"{variant}/{kind}: report says reproducible={payload.get('reproducible')}"]
    if defect:
        causes = {f["cause"] for f in payload.get("findings", [])}
        if designed_causes[kind] not in causes:
            return [f"{variant}/{kind}: findings {sorted(causes)} lack "
                    f"{designed_causes[kind]!r}"]
    return []


# -- release-diff ------------------------------------------------------------


class _HTMLCheck(html.parser.HTMLParser):
    def __init__(self) -> None:
        super().__init__()
        self.text: list[str] = []

    def handle_data(self, data: str) -> None:
        self.text.append(data)


def _common_prefix(a: bytes, b: bytes) -> int:
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def release_diff_pair(pair: dict, capture: dict, report: bytes, style: str) -> list[str]:
    """Leaves, causes, ranges and the rendered report of one compared pair."""
    errors: list[str] = []
    root = pair["name"] + "!"

    def rel(path: str) -> str:
        return path[len(root):] if path.startswith(root) else path

    designed = pair["findings"]
    differing = {rel(path) for path, status, detail, _ in capture["nodes"]
                 if status == "differs" and detail is not None}
    changed = {path for path, _ in designed}
    if differing != changed:
        errors.append(f"{pair['name']}: differing nodes {sorted(differing ^ changed)} "
                      "are not the changed members")
    found = {(rel(path), cause) for path, cause, _ in capture["findings"]}
    if found != designed:
        errors.append(f"{pair['name']}: findings differ from design: "
                      f"extra {sorted(found - designed)}, missing {sorted(designed - found)}")

    if pair["ranged"]:
        first, second = leaves(pair["first"]), leaves(pair["second"])
        ranges = {rel(path): rs for path, _, _, rs in capture["nodes"] if rs}
        for member, spec in pair["ranged"].items():
            a, b = first[member], second[member]
            got = ranges.get(member)
            if not got:
                errors.append(f"{member}: no byte ranges reported")
                continue
            for off, la, lb in got:
                if a[off:off + la] == b[off:off + lb]:
                    errors.append(f"{member}: range at {off} holds no difference")
            if "flips" in spec:
                for flip in spec["flips"]:
                    if not any(off <= flip < off + la for off, la, _ in got):
                        errors.append(f"{member}: flipped offset {flip} outside every range")
            else:
                prefix = _common_prefix(a, b)
                suffix = _common_prefix(a[prefix:][::-1], b[prefix:][::-1])
                want = [[prefix, len(a) - prefix - suffix, len(b) - prefix - suffix]]
                if got != want:
                    errors.append(f"{member}: range {got}, expected {want}")

    paths = [path for path, status, detail, _ in capture["nodes"]
             if status == "differs" and detail is not None]
    if style == "json":
        try:
            tree = json.loads(report)
        except ValueError as err:
            return errors + [f"{pair['name']}: JSON report does not parse: {err}"]
        seen, stack = set(), [tree]
        while stack:
            node = stack.pop()
            if node["status"] == "differs" and node["detail"] is not None:
                seen.add(node["path"])
            stack.extend(node["children"])
        if seen != set(paths):
            errors.append(f"{pair['name']}: JSON report nodes differ from the tree")
    else:
        text = report.decode("utf-8")
        if style == "html":
            parser = _HTMLCheck()
            parser.feed(text)
            parser.close()
            text = "".join(parser.text)
        missing = [p for p in paths if p not in text]
        if missing:
            errors.append(f"{pair['name']}: {style} report omits {missing[:3]}")
    return errors


# -- release-normalize -------------------------------------------------------


def normalized_archive(original: bytes, output: bytes, epoch: int) -> list[str]:
    """Same leaves, clamped times, zeroed owners."""
    errors: list[str] = []
    if leaves(output) != leaves(original):
        errors.append("normalized leaves differ from the original's")
    for path, entry in _all_entries(output):
        if entry["mtime"] > epoch:
            errors.append(f"{path}: mtime {entry['mtime']} after epoch {epoch}")
        if "uid" in entry and (entry["uid"], entry["gid"], entry["uname"], entry["gname"]) \
                != (0, 0, "root", "root"):
            errors.append(f"{path}: owner not zeroed")
    top = int.from_bytes(output[4:8], "little") if container_kind(output) == "gzip" else 0
    if top > epoch:
        errors.append(f"gzip header mtime {top} after epoch {epoch}")
    return errors


# -- consensus-trust ---------------------------------------------------------


def majority(claims: list[str], local: str) -> int:
    """Brute force: trusted (0) iff a unique most-claimed checksum held by at
    least half the claims equals the local one; rejected (1) if it differs;
    inconclusive (2) without such a checksum."""
    counts = {c: claims.count(c) for c in set(claims)}
    top = max(counts.values())
    leaders = [c for c, n in counts.items() if n == top]
    if len(leaders) != 1 or top < math.ceil(len(claims) / 2):
        return 2
    return 0 if leaders[0] == local else 1

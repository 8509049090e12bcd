"""Archive normalization: scrub environment-inherited metadata.

Archives pick up whatever the build environment hands them: the build user's
uid and name, file modification times, directory enumeration order, the
local compressor's settings. Normalization rewrites a container so that none
of that survives: timestamps are clamped to a reference epoch (never moved
forward), ownership is zeroed, members are sorted, gzip's optional original
filename is dropped, and payloads are re-emitted through the canonical
writers. Two archives holding the same files therefore normalize to the
same bytes no matter who built them, where, or when.

Clamping means ``min(original, epoch)``: a timestamp older than the epoch is
genuine information and stays; one newer can only be build-time leakage.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
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
    parse_zip_with_errors,
    write_gzip,
    write_tar,
    write_zip,
)


@dataclass(frozen=True)
class NormalizePolicy:
    epoch: int
    zero_ownership: bool = True
    sort_members: bool = True

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise ValidationError("policy epoch must be non-negative")


def policy_from_env(environ=None) -> NormalizePolicy:
    """Default policy: epoch from SOURCE_DATE_EPOCH when set, else zero."""
    env = os.environ if environ is None else environ
    raw = env.get("SOURCE_DATE_EPOCH", "0")
    try:
        epoch = int(raw)
    except ValueError:
        raise ValidationError(f"bad SOURCE_DATE_EPOCH value {raw!r}") from None
    return NormalizePolicy(epoch=epoch)


def _scrub(member: Member, policy: NormalizePolicy, content: bytes) -> Member:
    scrubbed = {name: getattr(member, name) for name in META_FIELDS}
    scrubbed["mtime"] = min(member.mtime or 0, policy.epoch)
    if policy.zero_ownership:
        scrubbed["uid"] = 0 if member.uid is not None else None
        scrubbed["gid"] = 0 if member.gid is not None else None
        scrubbed["uname"] = "root" if member.uname is not None else None
        scrubbed["gname"] = "root" if member.gname is not None else None
        if member.mode is not None:
            scrubbed["mode"] = 0o755 if member.is_dir else 0o644
    return Member(name=member.name, content=content, is_dir=member.is_dir, **scrubbed)


def normalize_bytes(data: bytes, policy: NormalizePolicy, _depth: int = 0) -> bytes:
    """Normalize recursively: inner archives are normalized before their
    containers are re-emitted. Non-containers pass through unchanged, as do
    containers nested deeper than ``MAX_NESTING`` levels, members that merely
    look like containers but fail to parse, and nested containers that a
    canonical writer refuses (a zip directory entry that carries data, say).
    At the top level either failure is raised.
    """
    fmt = detect_format(data)
    if fmt not in CONTAINERS or _depth > MAX_NESTING:
        return data
    try:
        return _normalize_container(data, fmt, policy, _depth)
    except (FormatError, ValidationError):
        if _depth == 0:
            raise
        return data


def _normalize_container(
    data: bytes, fmt: Format, policy: NormalizePolicy, depth: int
) -> bytes:
    """One container level: parse, normalize the contents, scrub the
    metadata, sort members, and re-emit through the canonical writer, which
    drops gzip's original filename.
    """
    if fmt is Format.GZIP:
        gs = parse_gzip(data)
        payload = normalize_bytes(gs.payload, policy, depth + 1)
        return write_gzip(payload, mtime=min(gs.mtime, policy.epoch))
    if fmt is Format.TAR:
        parsed, write = parse_tar(data), write_tar
    else:
        parsed, errors = parse_zip_with_errors(data)
        if errors:
            raise FormatError("cannot normalize: " + "; ".join(errors))
        write = write_zip
    members = [
        _scrub(m, policy, m.content if m.is_dir else normalize_bytes(m.content, policy, depth + 1))
        for m in parsed
    ]
    if policy.sort_members:
        members.sort(key=lambda m: m.name.encode())
    return write(members)


def normalize_auto(path: Path | str, policy: NormalizePolicy) -> bytes:
    """Read a file and normalize it, descending through nested containers."""
    data = Path(path).read_bytes()
    try:
        return normalize_bytes(data, policy)
    except FormatError as err:
        raise FormatError(f"{Path(path).name}: {err}") from None

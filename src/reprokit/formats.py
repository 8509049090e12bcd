"""Container codecs: ustar, gzip, and zip, parsed and written by hand.

The comparator and the normalizer both need to see *inside* archives, and the
normalizer additionally needs full control over every emitted byte, which
off-the-shelf writers do not give (they pad, they pick compression settings,
they fill in host metadata). So this module owns the byte-level formats:

* parsers that read the common output of ordinary tools strictly enough to
  reject corruption, with byte offsets in tar and zip errors and zlib's
  reason in gzip errors;
* canonical writers whose output depends only on the member list passed in
  and on the zlib that deflates it, so equal logical archives always
  serialize to equal bytes on one zlib build.

Each on-disk record is one full-width ``struct.Struct`` that its parser
unpacks and its writer packs; ``pack`` NUL-pads short byte fields and cuts
long ones, so writers check lengths and ranges first. Every deflated body,
gzip or zip, is raw deflate. A body of at most ``DEFLATE_BLOCK`` bytes is
deflated at zlib level 6, the default of GNU ``gzip -n`` and ``git archive``.
A longer one is deflated in blocks of that size at level 5, as ``pigz``
does, side by side on the usable CPUs, except that a block whose sample a
level-1 probe cannot shrink by more than 1/16 is stored. The bytes depend on
the block size, the two levels and the probe's sample and ratio, never on
the number of threads.

Members carry the union of the metadata the three formats support; fields a
format lacks stay None. This module also owns the decisions every reader of
containers shares: how a byte string's format is detected, how deep nested
containers are opened, and which member fields count as metadata.
"""

from __future__ import annotations

import enum
import functools
import os
import struct
import zlib
from dataclasses import dataclass, replace
from datetime import datetime, timezone

from .errors import FormatError, ValidationError

TAR_BLOCK = 512

#: Container levels opened below the outermost one. The comparator and the
#: normalizer both open a container at depth ``MAX_NESTING`` (the artifact
#: itself is depth 0) and leave one deeper closed.
MAX_NESTING = 8

#: Member metadata fields, in the order they are listed and compared.
META_FIELDS = ("mtime", "uid", "gid", "uname", "gname", "mode")


class Format(enum.Enum):
    GZIP = "gzip"
    TAR = "tar"
    ZIP = "zip"
    TEXT = "text"
    BINARY = "binary"


CONTAINERS = (Format.GZIP, Format.TAR, Format.ZIP)


def detect_format(data: bytes) -> Format:
    """Classify bytes by magic numbers; falls back to text, then binary."""
    if data[0:2] == _GZIP_MAGIC:
        return Format.GZIP
    if data[0:4] == _ZIP_LOCAL_SIG:
        return Format.ZIP
    if data[257:262] == _TAR_MAGIC:
        return Format.TAR
    if b"\x00" not in data:
        try:
            data.decode("utf-8")
            return Format.TEXT
        except UnicodeDecodeError:
            pass
    return Format.BINARY


@dataclass(frozen=True)
class Member:
    """One archive entry with whatever metadata its container records."""

    name: str
    content: bytes
    mtime: int | None = None
    uid: int | None = None
    gid: int | None = None
    uname: str | None = None
    gname: str | None = None
    mode: int | None = None
    is_dir: bool = False

    def meta(self) -> dict[str, str]:
        """Present metadata fields rendered as strings, in ``META_FIELDS`` order."""
        out: dict[str, str] = {}
        for name in META_FIELDS:
            value = getattr(self, name)
            if value is not None:
                out[name] = format(value, "04o") if name == "mode" else str(value)
        return out


# -- ustar ------------------------------------------------------------------


#: The ustar header block, field by field: name, mode, uid, gid, size, mtime,
#: chksum, typeflag, linkname, magic, version, uname, gname, devmajor,
#: devminor and prefix, then 12 pad bytes.
_TAR_HEADER = struct.Struct("100s8s8s8s12s12s8sc100s6s2s32s32s8s8s155s12x")
#: POSIX magic is ``ustar`` and a NUL, GNU magic ``ustar`` and a space.
_TAR_MAGIC = b"ustar"


def _tar_octal(raw: bytes, offset: int, what: str) -> int:
    """An octal field: digits only between leading spaces and trailing NULs
    or spaces. ``bytes.isdigit`` is ASCII-only and ``int`` then refuses 8
    and 9; ``int`` alone would also take a sign or an underscore."""
    digits = raw.rstrip(b"\x00 ").lstrip(b" ") or b"0"
    try:
        if not digits.isdigit():
            raise ValueError
        return int(digits, 8)
    except ValueError:
        raise FormatError(f"bad octal {what} field {raw!r}", offset) from None


def _tar_string(raw: bytes, offset: int, what: str) -> str:
    try:
        return raw.partition(b"\x00")[0].decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"undecodable {what} field", offset) from None


def _byte_sum(span: bytes) -> int:
    """Sum of at most 256 bytes. Adler-32's low half is 1 plus the byte sum
    modulo 65521, and 256 bytes sum to at most 65280, so it is exact."""
    return (zlib.adler32(span) & 0xFFFF) - 1


def _tar_header_sum(block: bytes) -> int:
    """The byte sum of a 512-byte header block, the ustar checksum when its
    chksum field holds eight spaces."""
    return _byte_sum(block[:256]) + _byte_sum(block[256:])


def _tar_content(data: bytes, pos: int, size: int) -> tuple[bytes, int]:
    """The content of the member whose header block is at ``pos``, and the
    offset of the block after its padding."""
    start = pos + TAR_BLOCK
    end = start + ((size + TAR_BLOCK - 1) // TAR_BLOCK) * TAR_BLOCK
    if end > len(data):
        raise FormatError("truncated member content", start)
    return data[start:start + size], end


def parse_tar(data: bytes, seen: dict | None = None) -> list[Member]:
    """Read a ustar archive into members, in archive order.

    Accepts POSIX and GNU magic, verifies every header checksum, and allows
    only regular-file and directory entries. Trailing zero padding of any
    length is accepted after the end-of-archive marker.

    ``seen``, when given, maps header blocks to the members decoded from
    them, and each block this call decodes is added to it. One shared by the
    two sides of a comparison spares the second side decoding any header
    the first side decoded, and where the content is equal too, the second
    side gets the first side's member itself.
    """
    members: list[Member] = []
    pos = 0
    while True:
        if pos + TAR_BLOCK > len(data):
            raise FormatError("truncated header block", pos)
        block = data[pos:pos + TAR_BLOCK]
        if block == b"\x00" * TAR_BLOCK:
            if data[pos:].strip(b"\x00") != b"":
                raise FormatError("data after end-of-archive marker", pos)
            return members
        known = seen.get(block) if seen is not None else None
        if known is not None:
            content, pos = _tar_content(data, pos, len(known.content))
            members.append(known if content == known.content else replace(known, content=content))
            continue
        (name_raw, mode, uid, gid, size_raw, mtime, chksum, typeflag, _linkname,
         magic, _version, uname, gname, _devmajor, _devminor, prefix_raw,
         ) = _TAR_HEADER.unpack_from(block)
        if magic[:5] != _TAR_MAGIC:
            raise FormatError("bad magic (not a ustar header)", pos + 257)
        stored_sum = _tar_octal(chksum, pos + 148, "chksum")
        # The checksum counts its own field as eight spaces.
        actual_sum = _tar_header_sum(block) - sum(chksum) + 8 * 0x20
        if stored_sum != actual_sum:
            raise FormatError(
                f"header checksum mismatch (stored {stored_sum}, actual {actual_sum})",
                pos + 148,
            )
        if typeflag not in (b"0", b"\x00", b"5"):
            raise FormatError(f"unsupported member type {typeflag!r}", pos + 156)
        name = _tar_string(name_raw, pos, "name")
        prefix = _tar_string(prefix_raw, pos + 345, "prefix")
        if prefix:
            name = prefix + "/" + name
        if not name:
            raise FormatError("empty member name", pos)
        size = _tar_octal(size_raw, pos + 124, "size")
        content, next_pos = _tar_content(data, pos, size)
        member = Member(
            name=name,
            content=content,
            mtime=_tar_octal(mtime, pos + 136, "mtime"),
            uid=_tar_octal(uid, pos + 108, "uid"),
            gid=_tar_octal(gid, pos + 116, "gid"),
            uname=_tar_string(uname, pos + 265, "uname"),
            gname=_tar_string(gname, pos + 297, "gname"),
            mode=_tar_octal(mode, pos + 100, "mode"),
            is_dir=typeflag == b"5",
        )
        if seen is not None:
            seen[block] = member
        members.append(member)
        pos = next_pos


def _tar_number_field(value: int, width: int, what: str) -> bytes:
    """``width - 1`` octal digits, which ``pack`` ends with a NUL, or all
    ``width`` with no NUL where the value needs them, as libarchive writes."""
    if value < 0 or value >= 8 ** width:
        raise ValidationError(f"tar {what} {value} out of octal range")
    return format(value, f"0{width - 1}o").encode()


def _tar_text_field(value: str, width: int, what: str) -> bytes:
    """A text field, which ``pack`` pads with NULs; a value of exactly
    ``width`` bytes fills it with no terminator, as stdlib ``tarfile`` writes
    and ``parse_tar`` reads.
    """
    raw = value.encode("utf-8")
    if len(raw) > width:
        raise ValidationError(f"tar {what} {value!r} longer than {width} bytes")
    return raw


def _tar_split_name(name: str) -> tuple[bytes, bytes]:
    """Split a path into the ustar (prefix, name) fields at the first ``/``
    that fits both, as stdlib ``tarfile`` does; names of up to 100 bytes stay
    whole. The prefix may not be empty, since the parser ignores an empty one;
    the name may, for a directory whose last component went to the prefix.
    """
    raw = name.encode("utf-8")
    if 0 < len(raw) <= 100:
        return b"", raw
    cut = raw.find(b"/", 1)
    while 0 < cut <= 155:
        if len(raw) - cut - 1 <= 100:
            return raw[:cut], raw[cut + 1:]
        cut = raw.find(b"/", cut + 1)
    raise ValidationError(
        f"tar member name must be 1..100 bytes or split at a '/' into "
        f"a prefix of at most 155 and a name of at most 100: {name!r}"
    )


def write_tar(members: list[Member]) -> bytes:
    """Emit a canonical ustar archive: fixed field encodings, minimal padding.

    Directory names gain a trailing slash if missing. A name longer than 100
    bytes is split at a ``/`` into the prefix field (at most 155 bytes) and
    the name field (at most 100 bytes); one with no such split is rejected.
    """
    chunks: list[bytes] = []
    for m in members:
        name = m.name
        if m.is_dir and not name.endswith("/"):
            name += "/"
        prefix_raw, name_raw = _tar_split_name(name)
        if m.is_dir and m.content:
            raise ValidationError(f"directory member {m.name!r} must have empty content")
        default_mode = 0o755 if m.is_dir else 0o644
        header = bytearray(_TAR_HEADER.pack(
            name_raw,
            _tar_number_field(m.mode if m.mode is not None else default_mode, 8, "mode"),
            _tar_number_field(m.uid or 0, 8, "uid"),
            _tar_number_field(m.gid or 0, 8, "gid"),
            _tar_number_field(len(m.content), 12, "size"),
            _tar_number_field(m.mtime or 0, 12, "mtime"),
            b" " * 8, b"5" if m.is_dir else b"0", b"", _TAR_MAGIC, b"00",
            _tar_text_field(m.uname or "root", 32, "uname"),
            _tar_text_field(m.gname or "root", 32, "gname"),
            b"0000000", b"0000000", prefix_raw,
        ))
        # Summed with its own field as eight spaces, the checksum is six
        # digits, a NUL, and the last of those spaces.
        header[148:155] = b"%06o\x00" % _tar_header_sum(header)
        chunks += (header, m.content, b"\x00" * (-len(m.content) % TAR_BLOCK))
    chunks.append(b"\x00" * (2 * TAR_BLOCK))
    return b"".join(chunks)


# -- gzip -------------------------------------------------------------------

#: The gzip header: magic, method, flags, mtime, extra flags and OS.
_GZIP_HEADER = struct.Struct("<2sBBIBB")
#: The gzip trailer: the payload's CRC-32 and its length modulo 2**32.
_GZIP_TRAILER = struct.Struct("<II")
_GZIP_MAGIC = b"\x1f\x8b"

_GZIP_FEXTRA = 4
_GZIP_FNAME = 8


@dataclass(frozen=True)
class GzipStream:
    """A decoded gzip file: its payload and the header's mtime and filename."""

    payload: bytes
    mtime: int
    filename: str | None


def parse_gzip(data: bytes) -> GzipStream:
    """Decode a single-stream gzip file.

    zlib checks the framing: magic, method, reserved flags, the header CRC
    where present, and the trailer's CRC-32 and length. A FormatError names
    zlib's reason.
    """
    decomp = zlib.decompressobj(wbits=31)
    try:
        payload = decomp.decompress(data) + decomp.flush()
    except zlib.error as err:
        raise FormatError(f"corrupt gzip stream: {err}") from None
    if not decomp.eof:
        raise FormatError("truncated gzip stream", len(data))
    if decomp.unused_data:
        raise FormatError("data after gzip stream", len(data) - len(decomp.unused_data))
    # zlib accepted the header, so its fields are all present.
    _magic, _method, flags, mtime, _xfl, _os = _GZIP_HEADER.unpack_from(data)
    pos = _GZIP_HEADER.size
    if flags & _GZIP_FEXTRA:
        pos += 2 + int.from_bytes(data[pos:pos + 2], "little")
    filename: str | None = None
    if flags & _GZIP_FNAME:
        filename = data[pos:data.index(b"\x00", pos)].decode("latin-1")
    return GzipStream(payload=payload, mtime=mtime, filename=filename)


#: Input bytes per canonical deflate block. It is part of the canonical
#: format: another size deflates a longer body to other bytes.
DEFLATE_BLOCK = 128 * 1024
#: zlib level of a body of at most one block, the default of GNU ``gzip -n``
#: and ``git archive``.
DEFLATE_LEVEL = 6
#: zlib level of every block of a longer body: the same lazy matching with
#: match chains of 32 instead of 128, which saves time on long text. Both
#: levels are part of the canonical format, as the block size is.
DEFLATE_BLOCK_LEVEL = 5
#: Input bytes before a block that prime its compressor: deflate's window.
_DEFLATE_WINDOW = 32 * 1024
#: A block of a longer body is probed before it is deflated: its sample is
#: the first ``_PROBE_SLICE`` bytes of every ``_PROBE_STRIDE`` bytes of the
#: block, 16 KiB of a full block. When a level-1 deflate of the sample is at
#: least ``_PROBE_STORED`` (numerator, denominator) of the sample's length,
#: the block is stored (zlib level 0): its bytes are random or already
#: compressed, and the level-5 search would save next to nothing. The
#: sample and the ratio are part of the canonical format.
_PROBE_SLICE = 1024
_PROBE_STRIDE = 8 * 1024
_PROBE_STORED = (15, 16)


def _deflate_block(data: bytes, start: int) -> bytes:
    """The block of ``data`` at ``start``, deflated by a compressor primed
    with the input before it, at ``DEFLATE_LEVEL`` when it is the whole body.
    A block of a longer body is stored when its probe does not shrink its
    sample enough, and deflated at ``DEFLATE_BLOCK_LEVEL`` otherwise. A block
    that is not the last ends with a sync flush, so the next block's deflate
    starts on a byte boundary."""
    end = start + DEFLATE_BLOCK
    block = memoryview(data)[start:end]
    if len(data) <= DEFLATE_BLOCK:
        level = DEFLATE_LEVEL
    else:
        sample = b"".join(block[i:i + _PROBE_SLICE] for i in range(0, len(block), _PROBE_STRIDE))
        num, den = _PROBE_STORED
        stored = len(zlib.compress(sample, 1, wbits=-15)) * den >= len(sample) * num
        level = 0 if stored else DEFLATE_BLOCK_LEVEL
    if start:
        comp = zlib.compressobj(level, wbits=-15, zdict=data[max(0, start - _DEFLATE_WINDOW):start])
    else:
        comp = zlib.compressobj(level, wbits=-15)
    body = comp.compress(block)
    return body + comp.flush(zlib.Z_SYNC_FLUSH if end < len(data) else zlib.Z_FINISH)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this OS
        return os.cpu_count() or 1


def _deflate(data: bytes) -> bytes:
    """The canonical deflate body: raw deflate, with no zlib header.

    A body of at most ``DEFLATE_BLOCK`` bytes is deflated by one compressor
    at ``DEFLATE_LEVEL`` in one call, so its bytes are plain level-6 raw
    deflate. A longer body is one stream deflated in ``DEFLATE_BLOCK``-byte
    blocks, each by its own compressor primed with up to 32 KiB of the input
    before it: at level 0 (stored) when a level-1 deflate of the block's
    sample is at least 15/16 of the sample, and at ``DEFLATE_BLOCK_LEVEL``
    otherwise. The choice reads only the block's own bytes. Every block but
    the last ends with a sync flush, and the last ends the stream. zlib
    releases the GIL while it deflates, so those blocks are deflated on up
    to one thread per usable CPU; the threads are joined before this
    returns.
    """
    starts = range(0, len(data), DEFLATE_BLOCK)
    if len(starts) <= 1:
        return _deflate_block(data, 0)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(min(len(starts), _usable_cpus())) as pool:
        return b"".join(pool.map(functools.partial(_deflate_block, data), starts))


def write_gzip(payload: bytes, mtime: int = 0, filename: str | None = None) -> bytes:
    """Emit a canonical gzip file: the canonical deflate body, XFL=0, OS
    byte 255.

    XFL 0 because RFC 1952 reserves 2 for maximum and 4 for fastest
    compression, and levels 5 and 6 are neither.
    """
    if not 0 <= mtime < 1 << 32:
        raise ValidationError("gzip mtime out of 32-bit range")
    flags = _GZIP_FNAME if filename is not None else 0
    header = _GZIP_HEADER.pack(_GZIP_MAGIC, 8, flags, mtime, 0, 255)
    name_field = filename.encode("latin-1") + b"\x00" if filename is not None else b""
    trailer = _GZIP_TRAILER.pack(zlib.crc32(payload), len(payload) % (1 << 32))
    return header + name_field + _deflate(payload) + trailer


# -- zip --------------------------------------------------------------------

_ZIP_LOCAL_SIG = b"PK\x03\x04"
_ZIP_CENTRAL_SIG = b"PK\x01\x02"
_ZIP_EOCD_SIG = b"PK\x05\x06"

#: A local header: signature, version needed, flags, method, DOS time and
#: date, CRC-32, compressed and uncompressed sizes, name and extra lengths.
_ZIP_LOCAL = struct.Struct("<4sHHHHHIIIHH")
#: A central-directory entry's fixed part: signature, version made by, the
#: local header's fields from version needed on, comment length, start disk,
#: internal and external attributes, and the local header's offset.
_ZIP_CENTRAL = struct.Struct("<4sHHHHHHIIIHHHHHII")
#: The end-of-central-directory record: signature, this disk's number, the
#: central directory's disk, its entry counts on this disk and in all, its
#: size and offset, and the comment length.
_ZIP_EOCD = struct.Struct("<4sHHHHIIH")


def _dos_to_unix(dos_date: int, dos_time: int, offset: int) -> int:
    year = 1980 + (dos_date >> 9)
    month = (dos_date >> 5) & 0xF
    day = dos_date & 0x1F
    hour = dos_time >> 11
    minute = (dos_time >> 5) & 0x3F
    second = (dos_time & 0x1F) * 2
    try:
        stamp = datetime(year, month, day, hour, minute, second, tzinfo=timezone.utc)
    except ValueError as err:
        raise FormatError(f"invalid DOS timestamp: {err}", offset) from None
    return int(stamp.timestamp())


def _unix_to_dos(mtime: int) -> tuple[int, int]:
    # Clamp below the DOS epoch; floor to zip's native 2-second resolution.
    if mtime < 315532800:  # 1980-01-01T00:00:00Z
        return (1 << 5) | 1, 0
    t = datetime.fromtimestamp(mtime, tz=timezone.utc)
    if t.year > 2107:
        t = datetime(2107, 12, 31, 23, 59, 58, tzinfo=timezone.utc)
    dos_date = ((t.year - 1980) << 9) | (t.month << 5) | t.day
    dos_time = (t.hour << 11) | (t.minute << 5) | (t.second // 2)
    return dos_date, dos_time


def _zip_find_eocd(data: bytes) -> int:
    floor = max(0, len(data) - 65557)
    idx = data.rfind(_ZIP_EOCD_SIG, floor)
    if idx < 0:
        raise FormatError("no end-of-central-directory record", len(data))
    return idx


def parse_zip(data: bytes, seen: dict | None = None) -> list[Member]:
    """Read a zip archive into members, in central-directory order.

    Needs stored or deflated entries with a usable central directory; each
    entry's CRC is verified. A member using any other compression method is
    a FormatError naming the first such member, since its content is not
    known; ``parse_zip_with_errors`` returns those members with empty
    content instead.

    ``seen``, when given, maps an entry's central-directory record, less its
    local header offset, and its compressed bytes to the member decoded from
    them, and each entry this call decodes without error is added to it. One
    shared by the two sides of a comparison gives the second side the first
    side's member for every entry whose record and compressed bytes match,
    wherever it sits, without inflating it again.
    """
    members, errors = parse_zip_with_errors(data, seen)
    if errors:
        raise FormatError(f"cannot decode {errors[0]}")
    return members


def _unpack_padded(fields: struct.Struct, data: bytes, pos: int) -> tuple:
    """``fields`` read at ``pos``. Bytes past the end of ``data`` read as
    zeros, so a little-endian field cut short keeps its low bytes and a
    record cut short fails the checks on its fields, not the decode."""
    if pos + fields.size <= len(data):
        return fields.unpack_from(data, pos)
    return fields.unpack(data[pos:pos + fields.size].ljust(fields.size, b"\x00"))


def parse_zip_with_errors(
    data: bytes, seen: dict | None = None
) -> tuple[list[Member], list[str]]:
    eocd = _zip_find_eocd(data)
    if len(data) - eocd < _ZIP_EOCD.size:
        raise FormatError("truncated end-of-central-directory record", eocd)
    (_sig, disk_no, cd_disk, _disk_entries, entry_count, _cd_size, cd_offset, _comment_len,
     ) = _ZIP_EOCD.unpack_from(data, eocd)
    if disk_no != 0 or cd_disk != 0:
        raise FormatError("multi-disk zip archives unsupported", eocd + 4)

    members: list[Member] = []
    errors: list[str] = []
    pos = cd_offset
    for _ in range(entry_count):
        (sig, version_made_by, _needed, flags, method, dos_time, dos_date, crc, comp_size,
         _size, name_len, extra_len, comment_len, _disk, _internal, external_attr, local_offset,
         ) = _unpack_padded(_ZIP_CENTRAL, data, pos)
        if sig != _ZIP_CENTRAL_SIG:
            raise FormatError("bad central-directory entry signature", pos)
        name_start = pos + _ZIP_CENTRAL.size
        name_raw = data[name_start:name_start + name_len]
        if len(name_raw) != name_len:
            raise FormatError("truncated central-directory entry", pos)
        try:
            name = name_raw.decode("utf-8" if flags & 0x800 else "cp437")
        except UnicodeDecodeError:
            raise FormatError("undecodable zip member name", name_start) from None
        if not name:
            raise FormatError("empty zip member name", name_start)
        entry, pos = pos, name_start + name_len + extra_len + comment_len

        (sig, _needed, _flags, _method, _time, _date, _crc, _comp_size, _size, l_name_len,
         l_extra_len) = _unpack_padded(_ZIP_LOCAL, data, local_offset)
        if sig != _ZIP_LOCAL_SIG:
            raise FormatError("bad local header signature", local_offset)
        data_start = local_offset + _ZIP_LOCAL.size + l_name_len + l_extra_len
        raw = data[data_start:data_start + comp_size]
        if len(raw) != comp_size:
            raise FormatError("truncated member data", data_start)
        if seen is not None:
            # Without the local header offset, the fixed part's last four
            # bytes, an entry matches wherever the other archive put it.
            key = (data[entry:name_start - 4], data[name_start:pos], raw)
            known = seen.get(key)
            if known is not None:
                members.append(known)
                continue

        mtime = _dos_to_unix(dos_date, dos_time, entry + 12)
        mode = (external_attr >> 16) & 0xFFFF
        is_dir = name.endswith("/")
        creator_unix = (version_made_by >> 8) == 3

        decoded = method in (0, 8)
        if method == 0:
            content = raw
        elif method == 8:
            try:
                decomp = zlib.decompressobj(wbits=-15)
                content = decomp.decompress(raw) + decomp.flush()
            except zlib.error as err:
                raise FormatError(f"corrupt deflate stream in {name}: {err}", data_start) from None
        else:
            errors.append(f"{name}: unsupported compression method {method}")
            content = b""
        if decoded and not is_dir and zlib.crc32(content) != crc:
            raise FormatError(f"CRC mismatch for member {name}", data_start)
        member = Member(
            name=name, content=content, mtime=mtime,
            mode=mode if creator_unix and mode else None, is_dir=is_dir,
        )
        if decoded and seen is not None:
            seen[key] = member
        members.append(member)
    return members, errors


def write_zip(members: list[Member]) -> bytes:
    """Emit a canonical zip: the canonical deflate body for files, stored
    directories, no extra fields, no comments."""
    locals_out: list[bytes] = []
    centrals: list[bytes] = []
    offset = 0
    for m in members:
        name = m.name
        if m.is_dir and not name.endswith("/"):
            name += "/"
        name_raw = name.encode("utf-8")
        if len(name_raw) > 0xFFFF:
            raise ValidationError(f"zip member name of {len(name_raw)} bytes exceeds 65535")
        flags = 0 if name.isascii() else 0x800  # bit 11: the name is UTF-8
        if m.is_dir and m.content:
            raise ValidationError(f"directory member {m.name!r} must have empty content")
        mode = m.mode if m.mode is not None else (0o755 if m.is_dir else 0o644)
        if not 0 <= mode <= 0xFFFF:
            raise ValidationError(f"zip mode {mode:#o} of {m.name!r} out of 16-bit range")
        method, body = (0, b"") if m.is_dir else (8, _deflate(m.content))
        dos_date, dos_time = _unix_to_dos(m.mtime or 0)
        # Both headers hold these, from version needed (2.0) to extra length.
        shared = (20, flags, method, dos_time, dos_date, zlib.crc32(m.content), len(body),
                  len(m.content), len(name_raw), 0)
        local = _ZIP_LOCAL.pack(_ZIP_LOCAL_SIG, *shared) + name_raw + body
        # Made by Unix (3) 2.0; no comment, disk 0, no internal attributes.
        centrals.append(_ZIP_CENTRAL.pack(
            _ZIP_CENTRAL_SIG, (3 << 8) | 20, *shared, 0, 0, 0,
            (mode << 16) | (0x10 if m.is_dir else 0), offset) + name_raw)
        locals_out.append(local)
        offset += len(local)

    central_blob = b"".join(centrals)
    eocd = _ZIP_EOCD.pack(_ZIP_EOCD_SIG, 0, 0, len(members), len(members), len(central_blob),
                          offset, 0)
    return b"".join(locals_out) + central_blob + eocd

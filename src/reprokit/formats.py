"""Container codecs: ustar, gzip, and zip, parsed and written by hand.

The comparator and the normalizer both need to see *inside* archives, and the
normalizer additionally needs full control over every emitted byte, which
off-the-shelf writers do not give (they pad, they pick compression settings,
they fill in host metadata). So this module owns the byte-level formats:

* parsers that read the common output of ordinary tools strictly enough to
  reject corruption, with byte offsets in errors;
* canonical writers whose output depends only on the member list passed in,
  so equal logical archives always serialize to equal bytes.

Members carry the union of the metadata the three formats support; fields a
format lacks stay None.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from datetime import datetime, timezone

from .errors import FormatError, ValidationError

TAR_BLOCK = 512

_GZIP_FTEXT = 1
_GZIP_FHCRC = 2
_GZIP_FEXTRA = 4
_GZIP_FNAME = 8
_GZIP_FCOMMENT = 16


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
        """Present metadata fields rendered as strings, for meta-diffing."""
        out: dict[str, str] = {}
        if self.mtime is not None:
            out["mtime"] = str(self.mtime)
        if self.uid is not None:
            out["uid"] = str(self.uid)
        if self.gid is not None:
            out["gid"] = str(self.gid)
        if self.uname is not None:
            out["uname"] = self.uname
        if self.gname is not None:
            out["gname"] = self.gname
        if self.mode is not None:
            out["mode"] = format(self.mode, "04o")
        return out


# -- ustar ------------------------------------------------------------------


def _tar_octal(raw: bytes, offset: int, what: str) -> int:
    text = raw.rstrip(b"\x00 ").lstrip(b" ")
    if text == b"":
        return 0
    try:
        value = int(text, 8)
    except ValueError:
        raise FormatError(f"bad octal {what} field {raw!r}", offset) from None
    return value


def _tar_string(raw: bytes, offset: int, what: str) -> str:
    end = raw.find(b"\x00")
    if end >= 0:
        raw = raw[:end]
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"undecodable {what} field", offset) from None


def parse_tar(data: bytes) -> list[Member]:
    """Read a ustar archive into members, in archive order.

    Accepts POSIX and GNU magic, verifies every header checksum, and allows
    only regular-file and directory entries. Trailing zero padding of any
    length is accepted after the end-of-archive marker.
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
        if block[257:262] != b"ustar":
            raise FormatError("bad magic (not a ustar header)", pos + 257)
        stored_sum = _tar_octal(block[148:156], pos + 148, "chksum")
        actual_sum = sum(block[:148]) + 8 * 0x20 + sum(block[156:])
        if stored_sum != actual_sum:
            raise FormatError(
                f"header checksum mismatch (stored {stored_sum}, actual {actual_sum})",
                pos + 148,
            )
        typeflag = block[156:157]
        if typeflag not in (b"0", b"\x00", b"5"):
            raise FormatError(f"unsupported member type {typeflag!r}", pos + 156)
        name = _tar_string(block[0:100], pos, "name")
        prefix = _tar_string(block[345:500], pos + 345, "prefix")
        if prefix:
            name = prefix + "/" + name
        if not name:
            raise FormatError("empty member name", pos)
        size = _tar_octal(block[124:136], pos + 124, "size")
        content_start = pos + TAR_BLOCK
        content_end = content_start + size
        padded_end = content_start + ((size + TAR_BLOCK - 1) // TAR_BLOCK) * TAR_BLOCK
        if padded_end > len(data):
            raise FormatError("truncated member content", content_start)
        members.append(
            Member(
                name=name,
                content=data[content_start:content_end],
                mtime=_tar_octal(block[136:148], pos + 136, "mtime"),
                uid=_tar_octal(block[108:116], pos + 108, "uid"),
                gid=_tar_octal(block[116:124], pos + 116, "gid"),
                uname=_tar_string(block[265:297], pos + 265, "uname"),
                gname=_tar_string(block[297:329], pos + 297, "gname"),
                mode=_tar_octal(block[100:108], pos + 100, "mode"),
                is_dir=typeflag == b"5",
            )
        )
        pos = padded_end


def _tar_number_field(value: int, width: int, what: str) -> bytes:
    if value < 0 or value >= 8 ** (width - 1):
        raise ValidationError(f"tar {what} {value} out of octal range")
    return format(value, f"0{width - 1}o").encode() + b"\x00"


def _tar_text_field(value: str, width: int, what: str) -> bytes:
    raw = value.encode("utf-8")
    if len(raw) >= width:
        raise ValidationError(f"tar {what} {value!r} longer than {width - 1} bytes")
    return raw + b"\x00" * (width - len(raw))


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
        header = b"".join(
            [
                name_raw + b"\x00" * (100 - len(name_raw)),
                _tar_number_field(m.mode if m.mode is not None else default_mode, 8, "mode"),
                _tar_number_field(m.uid or 0, 8, "uid"),
                _tar_number_field(m.gid or 0, 8, "gid"),
                _tar_number_field(len(m.content), 12, "size"),
                _tar_number_field(m.mtime or 0, 12, "mtime"),
                b" " * 8,
                b"5" if m.is_dir else b"0",
                b"\x00" * 100,
                b"ustar\x00" + b"00",
                _tar_text_field(m.uname or "root", 32, "uname"),
                _tar_text_field(m.gname or "root", 32, "gname"),
                _tar_number_field(0, 8, "devmajor"),
                _tar_number_field(0, 8, "devminor"),
                prefix_raw + b"\x00" * (155 - len(prefix_raw)),
            ]
        )
        header = header + b"\x00" * (TAR_BLOCK - len(header))
        checksum = format(sum(header), "06o").encode() + b"\x00 "
        header = header[:148] + checksum + header[156:]
        chunks.append(header)
        chunks.append(m.content)
        remainder = len(m.content) % TAR_BLOCK
        if remainder:
            chunks.append(b"\x00" * (TAR_BLOCK - remainder))
    chunks.append(b"\x00" * (2 * TAR_BLOCK))
    return b"".join(chunks)


# -- gzip -------------------------------------------------------------------


@dataclass(frozen=True)
class GzipStream:
    payload: bytes
    mtime: int
    filename: str | None


def parse_gzip(data: bytes) -> GzipStream:
    """Decode a single-stream gzip file, verifying CRC32 and length."""
    if len(data) < 18:
        raise FormatError("gzip stream shorter than minimal file", 0)
    if data[0:2] != b"\x1f\x8b":
        raise FormatError("bad gzip magic", 0)
    if data[2] != 8:
        raise FormatError(f"unsupported gzip compression method {data[2]}", 2)
    flags = data[3]
    if flags & 0xE0:
        raise FormatError("reserved gzip flag bits set", 3)
    mtime = int.from_bytes(data[4:8], "little")
    pos = 10
    if flags & _GZIP_FEXTRA:
        if pos + 2 > len(data):
            raise FormatError("truncated FEXTRA length", pos)
        xlen = int.from_bytes(data[pos:pos + 2], "little")
        pos += 2 + xlen
    filename: str | None = None
    if flags & _GZIP_FNAME:
        end = data.find(b"\x00", pos)
        if end < 0:
            raise FormatError("unterminated FNAME", pos)
        filename = data[pos:end].decode("latin-1")
        pos = end + 1
    if flags & _GZIP_FCOMMENT:
        end = data.find(b"\x00", pos)
        if end < 0:
            raise FormatError("unterminated FCOMMENT", pos)
        pos = end + 1
    if flags & _GZIP_FHCRC:
        pos += 2
    if pos > len(data):
        raise FormatError("truncated gzip header", len(data))
    decomp = zlib.decompressobj(wbits=-15)
    try:
        payload = decomp.decompress(data[pos:])
        payload += decomp.flush()
    except zlib.error as err:
        raise FormatError(f"corrupt deflate stream: {err}", pos) from None
    if not decomp.eof:
        raise FormatError("truncated deflate stream", len(data))
    trailer = decomp.unused_data
    if len(trailer) != 8:
        raise FormatError("bad gzip trailer length", len(data) - len(trailer))
    crc = int.from_bytes(trailer[0:4], "little")
    isize = int.from_bytes(trailer[4:8], "little")
    if crc != zlib.crc32(payload):
        raise FormatError("gzip CRC mismatch", len(data) - 8)
    if isize != len(payload) % (1 << 32):
        raise FormatError("gzip ISIZE mismatch", len(data) - 4)
    return GzipStream(payload=payload, mtime=mtime, filename=filename)


def write_gzip(payload: bytes, mtime: int = 0, filename: str | None = None) -> bytes:
    """Emit a canonical gzip file: level-9 deflate, XFL=2, OS byte 255."""
    if not 0 <= mtime < 1 << 32:
        raise ValidationError("gzip mtime out of 32-bit range")
    flags = _GZIP_FNAME if filename is not None else 0
    header = b"\x1f\x8b\x08" + bytes([flags]) + mtime.to_bytes(4, "little") + b"\x02\xff"
    name_field = filename.encode("latin-1") + b"\x00" if filename is not None else b""
    comp = zlib.compressobj(level=9, wbits=-15)
    body = comp.compress(payload) + comp.flush()
    trailer = zlib.crc32(payload).to_bytes(4, "little")
    trailer += (len(payload) % (1 << 32)).to_bytes(4, "little")
    return header + name_field + body + trailer


# -- zip --------------------------------------------------------------------

_ZIP_LOCAL_SIG = b"PK\x03\x04"
_ZIP_CENTRAL_SIG = b"PK\x01\x02"
_ZIP_EOCD_SIG = b"PK\x05\x06"


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


def parse_zip(data: bytes) -> list[Member]:
    """Read a zip archive into members, in central-directory order.

    Needs stored or deflated entries with a usable central directory; each
    entry's CRC is verified. A member using any other compression method is
    returned with empty content and counted as undecodable by the caller's
    policy (its metadata is still real).
    """
    members, _ = parse_zip_with_errors(data)
    return members


def parse_zip_with_errors(data: bytes) -> tuple[list[Member], list[str]]:
    eocd = _zip_find_eocd(data)
    if len(data) - eocd < 22:
        raise FormatError("truncated end-of-central-directory record", eocd)
    disk_no = int.from_bytes(data[eocd + 4:eocd + 6], "little")
    cd_disk = int.from_bytes(data[eocd + 6:eocd + 8], "little")
    if disk_no != 0 or cd_disk != 0:
        raise FormatError("multi-disk zip archives unsupported", eocd + 4)
    entry_count = int.from_bytes(data[eocd + 10:eocd + 12], "little")
    cd_offset = int.from_bytes(data[eocd + 16:eocd + 20], "little")

    members: list[Member] = []
    errors: list[str] = []
    pos = cd_offset
    for _ in range(entry_count):
        if data[pos:pos + 4] != _ZIP_CENTRAL_SIG:
            raise FormatError("bad central-directory entry signature", pos)
        version_made_by = int.from_bytes(data[pos + 4:pos + 6], "little")
        flags = int.from_bytes(data[pos + 8:pos + 10], "little")
        method = int.from_bytes(data[pos + 10:pos + 12], "little")
        dos_time = int.from_bytes(data[pos + 12:pos + 14], "little")
        dos_date = int.from_bytes(data[pos + 14:pos + 16], "little")
        crc = int.from_bytes(data[pos + 16:pos + 20], "little")
        comp_size = int.from_bytes(data[pos + 20:pos + 24], "little")
        name_len = int.from_bytes(data[pos + 28:pos + 30], "little")
        extra_len = int.from_bytes(data[pos + 30:pos + 32], "little")
        comment_len = int.from_bytes(data[pos + 32:pos + 34], "little")
        external_attr = int.from_bytes(data[pos + 38:pos + 42], "little")
        local_offset = int.from_bytes(data[pos + 42:pos + 46], "little")
        name_raw = data[pos + 46:pos + 46 + name_len]
        if len(name_raw) != name_len:
            raise FormatError("truncated central-directory entry", pos)
        encoding = "utf-8" if flags & 0x800 else "cp437"
        name = name_raw.decode(encoding)
        if not name:
            raise FormatError("empty zip member name", pos + 46)
        pos += 46 + name_len + extra_len + comment_len

        if data[local_offset:local_offset + 4] != _ZIP_LOCAL_SIG:
            raise FormatError("bad local header signature", local_offset)
        l_name_len = int.from_bytes(data[local_offset + 26:local_offset + 28], "little")
        l_extra_len = int.from_bytes(data[local_offset + 28:local_offset + 30], "little")
        data_start = local_offset + 30 + l_name_len + l_extra_len
        raw = data[data_start:data_start + comp_size]
        if len(raw) != comp_size:
            raise FormatError("truncated member data", data_start)

        mtime = _dos_to_unix(dos_date, dos_time, pos)
        mode = (external_attr >> 16) & 0xFFFF
        is_dir = name.endswith("/")
        creator_unix = (version_made_by >> 8) == 3

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
            members.append(
                Member(
                    name=name, content=b"", mtime=mtime,
                    mode=mode if creator_unix and mode else None, is_dir=is_dir,
                )
            )
            continue
        if not is_dir and zlib.crc32(content) != crc:
            raise FormatError(f"CRC mismatch for member {name}", data_start)
        members.append(
            Member(
                name=name, content=content, mtime=mtime,
                mode=mode if creator_unix and mode else None, is_dir=is_dir,
            )
        )
    return members, errors


def write_zip(members: list[Member]) -> bytes:
    """Emit a canonical zip: deflate level 9, no extra fields, no comments."""
    locals_out: list[bytes] = []
    centrals: list[bytes] = []
    offset = 0
    for m in members:
        name = m.name
        if m.is_dir and not name.endswith("/"):
            name += "/"
        try:
            name_raw = name.encode("ascii")
            flags = 0
        except UnicodeEncodeError:
            name_raw = name.encode("utf-8")
            flags = 0x800
        if m.is_dir and m.content:
            raise ValidationError(f"directory member {m.name!r} must have empty content")
        if m.is_dir:
            method, body = 0, b""
        else:
            comp = zlib.compressobj(level=9, wbits=-15)
            method, body = 8, comp.compress(m.content) + comp.flush()
        crc = zlib.crc32(m.content)
        dos_date, dos_time = _unix_to_dos(m.mtime or 0)
        mode = m.mode if m.mode is not None else (0o755 if m.is_dir else 0o644)
        external = (mode << 16) | (0x10 if m.is_dir else 0)
        version_made_by = (3 << 8) | 20

        fixed = (
            (20).to_bytes(2, "little")
            + flags.to_bytes(2, "little")
            + method.to_bytes(2, "little")
            + dos_time.to_bytes(2, "little")
            + dos_date.to_bytes(2, "little")
            + crc.to_bytes(4, "little")
            + len(body).to_bytes(4, "little")
            + len(m.content).to_bytes(4, "little")
            + len(name_raw).to_bytes(2, "little")
            + (0).to_bytes(2, "little")
        )
        locals_out.append(_ZIP_LOCAL_SIG + fixed + name_raw + body)
        centrals.append(
            _ZIP_CENTRAL_SIG
            + version_made_by.to_bytes(2, "little")
            + fixed
            + (0).to_bytes(2, "little")  # comment length
            + (0).to_bytes(2, "little")  # disk number start
            + (0).to_bytes(2, "little")  # internal attributes
            + external.to_bytes(4, "little")
            + offset.to_bytes(4, "little")
            + name_raw
        )
        offset += len(locals_out[-1])

    central_blob = b"".join(centrals)
    eocd = (
        _ZIP_EOCD_SIG
        + (0).to_bytes(2, "little")
        + (0).to_bytes(2, "little")
        + len(members).to_bytes(2, "little")
        + len(members).to_bytes(2, "little")
        + len(central_blob).to_bytes(4, "little")
        + offset.to_bytes(4, "little")
        + (0).to_bytes(2, "little")
    )
    return b"".join(locals_out) + central_blob + eocd

"""Container codecs checked against the standard library in both directions."""

from __future__ import annotations

import datetime
import gzip as gzip_mod
import io
import random
import shutil
import struct
import subprocess
import tarfile
import threading
import zipfile
import zlib
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reprokit import formats
from reprokit.compare import ByteRanges, compare_bytes
from reprokit.errors import FormatError, ValidationError
from reprokit.formats import (
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


def stdlib_tar(entries) -> bytes:
    """entries: list of (name, data_or_None, mtime, uid, gid, uname, gname, mode)."""
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w", format=tarfile.USTAR_FORMAT) as tf:
        for name, data, mtime, uid, gid, uname, gname, mode in entries:
            info = tarfile.TarInfo(name)
            info.mtime = mtime
            info.uid, info.gid = uid, gid
            info.uname, info.gname = uname, gname
            info.mode = mode
            if data is None:
                info.type = tarfile.DIRTYPE
                tf.addfile(info)
            else:
                info.size = len(data)
                tf.addfile(info, io.BytesIO(data))
    return buf.getvalue()


def test_parse_tar_reads_stdlib_output():
    data = stdlib_tar([
        ("docs", None, 1_600_000_000, 0, 0, "root", "root", 0o755),
        ("docs/readme.txt", b"hello tar\n", 1_600_000_123, 1000, 100, "alice", "users", 0o644),
        ("empty.bin", b"", 7, 2, 3, "u", "g", 0o600),
    ])
    members = parse_tar(data)
    assert [m.name for m in members] == ["docs/", "docs/readme.txt", "empty.bin"]
    assert members[0].is_dir and members[0].content == b""
    assert members[1].content == b"hello tar\n"
    assert (members[1].uid, members[1].gid) == (1000, 100)
    assert (members[1].uname, members[1].gname) == ("alice", "users")
    assert members[1].mode == 0o644
    assert members[1].mtime == 1_600_000_123
    assert members[2].mode == 0o600


def test_stdlib_reads_write_tar_output():
    members = [
        Member(name="pkg", content=b"", is_dir=True, mtime=9, uid=0, gid=0,
               uname="root", gname="root", mode=0o755),
        Member(name="pkg/a.txt", content=b"alpha\n", mtime=1_600_000_000,
               uid=12, gid=34, uname="alice", gname="users", mode=0o640),
    ]
    data = write_tar(members)
    with tarfile.open(fileobj=io.BytesIO(data)) as tf:
        infos = tf.getmembers()
        assert [i.name for i in infos] == ["pkg", "pkg/a.txt"]
        assert infos[0].isdir()
        assert infos[1].uid == 12 and infos[1].gname == "users"
        assert infos[1].mode == 0o640 and infos[1].mtime == 1_600_000_000
        assert tf.extractfile("pkg/a.txt").read() == b"alpha\n"


def test_tar_round_trip_random_against_stdlib():
    rng = random.Random(1789)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-._"
    for _ in range(50):
        entries = []
        used = set()
        for _ in range(rng.randint(1, 6)):
            name = "".join(rng.choices(alphabet, k=rng.randint(1, 20)))
            if name in used:
                continue
            used.add(name)
            is_dir = rng.random() < 0.2
            entries.append((
                name,
                None if is_dir else rng.randbytes(rng.randint(0, 600)),
                rng.randint(0, 2**31 - 1),
                rng.randint(0, 0o7777),
                rng.randint(0, 0o7777),
                rng.choice(["root", "alice", "bob"]),
                rng.choice(["root", "users"]),
                rng.choice([0o644, 0o600, 0o755, 0o444]),
            ))
        reference = stdlib_tar(entries)
        members = parse_tar(reference)
        # re-emitting what the reference encoder produced must be stable
        mine = write_tar(members)
        assert parse_tar(mine) == members
        assert write_tar(parse_tar(mine)) == mine
        with tarfile.open(fileobj=io.BytesIO(mine)) as tf:
            for entry, info in zip(entries, tf.getmembers()):
                assert info.name.rstrip("/") == entry[0]
                if entry[1] is not None:
                    assert tf.extractfile(info).read() == entry[1]


def test_parse_tar_rejects_bad_checksum():
    data = bytearray(stdlib_tar([("a", b"x", 0, 0, 0, "u", "g", 0o644)]))
    data[148] = ord("7") if data[148] != ord("7") else ord("6")
    with pytest.raises(FormatError):
        parse_tar(bytes(data))


def test_parse_tar_rejects_unsupported_member_types(tmp_path):
    target = tmp_path / "target"
    target.write_text("x")
    link = tmp_path / "link"
    link.symlink_to(target)
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w", format=tarfile.USTAR_FORMAT) as tf:
        tf.add(link, arcname="link")
    with pytest.raises(FormatError) as err:
        parse_tar(buf.getvalue())
    assert "offset" in str(err.value)


def test_parse_tar_rejects_truncation_and_garbage_tail():
    data = stdlib_tar([("a", b"payload", 0, 0, 0, "u", "g", 0o644)])
    with pytest.raises(FormatError):
        parse_tar(data[:700])
    with pytest.raises(FormatError):
        parse_tar(data + b"\x00" * 100 + b"junk")


def test_parse_tar_accepts_padding_to_any_zero_length():
    data = write_tar([Member(name="a", content=b"x")])
    assert parse_tar(data + b"\x00" * 5120) == parse_tar(data)


def test_write_tar_rejects_overlong_names_and_dir_content():
    with pytest.raises(ValidationError):
        write_tar([Member(name="n" * 101, content=b"")])
    with pytest.raises(ValidationError):
        write_tar([Member(name="d", content=b"oops", is_dir=True)])


def test_write_tar_defaults():
    data = write_tar([Member(name="a", content=b"x")])
    members = parse_tar(data)
    assert members[0].mode == 0o644
    assert members[0].uid == 0 and members[0].uname == "root"
    assert members[0].mtime == 0


def test_parse_gzip_reads_stdlib_output():
    buf = io.BytesIO()
    with gzip_mod.GzipFile(filename="inner.tar", mode="wb", fileobj=buf, mtime=1234):
        pass
    buf = io.BytesIO()
    with gzip_mod.GzipFile(filename="inner.tar", mode="wb", fileobj=buf, mtime=1234) as gz:
        gz.write(b"payload bytes\n")
    stream = parse_gzip(buf.getvalue())
    assert stream.payload == b"payload bytes\n"
    assert stream.mtime == 1234
    assert stream.filename == "inner.tar"


def test_stdlib_reads_write_gzip_output():
    data = write_gzip(b"some payload" * 10, mtime=77, filename="x.txt")
    assert gzip_mod.decompress(data) == b"some payload" * 10
    stream = parse_gzip(data)
    assert stream.mtime == 77 and stream.filename == "x.txt"


def test_gzip_round_trip_random():
    rng = random.Random(93)
    for _ in range(50):
        payload = rng.randbytes(rng.randint(0, 4000))
        mtime = rng.randint(0, 2**31 - 1)
        filename = rng.choice([None, "data", "a.bin"])
        data = write_gzip(payload, mtime=mtime, filename=filename)
        stream = parse_gzip(data)
        assert (stream.payload, stream.mtime, stream.filename) == (payload, mtime, filename)
        assert write_gzip(stream.payload, stream.mtime, stream.filename) == data
        assert gzip_mod.decompress(data) == payload


def gzip_with_flags(payload: bytes, extra=None, name=None, comment=None, hcrc=False) -> bytes:
    flg = ((4 if extra else 0) | (8 if name else 0) | (16 if comment else 0)
           | (2 if hcrc else 0))
    header = struct.pack("<BBBBIBB", 0x1F, 0x8B, 8, flg, 0, 0, 255)
    if extra:
        header += struct.pack("<H", len(extra)) + extra
    if name:
        header += name + b"\x00"
    if comment:
        header += comment + b"\x00"
    if hcrc:
        header += struct.pack("<H", zlib.crc32(header) & 0xFFFF)
    body = zlib.compress(payload, 9)[2:-4]
    trailer = struct.pack("<II", zlib.crc32(payload), len(payload) % 2**32)
    return header + body + trailer


def test_parse_gzip_optional_header_fields():
    payload = b"optional header exercise\n"
    data = gzip_with_flags(payload, extra=b"xx01", name=b"named.bin", comment=b"a comment", hcrc=True)
    assert gzip_mod.decompress(data) == payload
    stream = parse_gzip(data)
    assert stream.payload == payload
    assert stream.filename == "named.bin"


def test_parse_gzip_rejects_corruption():
    good = write_gzip(b"payload", mtime=0)
    bad_magic = b"\x1e" + good[1:]
    with pytest.raises(FormatError):
        parse_gzip(bad_magic)
    reserved = bytearray(good)
    reserved[3] |= 0x80
    with pytest.raises(FormatError):
        parse_gzip(bytes(reserved))
    bad_crc = bytearray(good)
    bad_crc[-8] ^= 0xFF
    with pytest.raises(FormatError):
        parse_gzip(bytes(bad_crc))
    bad_size = bytearray(good)
    bad_size[-1] ^= 0xFF
    with pytest.raises(FormatError):
        parse_gzip(bytes(bad_size))
    with pytest.raises(FormatError):
        parse_gzip(good[:-3])
    with pytest.raises(FormatError):
        parse_gzip(good + b"tail")


def test_parse_gzip_rejects_a_wrong_header_crc():
    data = bytearray(gzip_with_flags(b"payload\n", name=b"n", hcrc=True))
    data[12] ^= 0xFF  # the FHCRC field, after the 10-byte header and "n\0"
    # Stdlib gzip skips FHCRC unchecked, so it cannot be the oracle here.
    assert gzip_mod.decompress(bytes(data)) == b"payload\n"
    with pytest.raises(FormatError, match="header crc mismatch"):
        parse_gzip(bytes(data))


def stdlib_zip(entries, comment=b"") -> bytes:
    """entries: (name, data_or_None, date_time, mode, method)."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        if comment:
            zf.comment = comment
        for name, data, date_time, mode, method in entries:
            if data is None:
                info = zipfile.ZipInfo(name + "/", date_time)
                info.external_attr = (mode << 16) | 0x10
                zf.writestr(info, b"")
            else:
                info = zipfile.ZipInfo(name, date_time)
                info.external_attr = mode << 16
                info.compress_type = method
                zf.writestr(info, data)
    return buf.getvalue()


def test_parse_zip_reads_stdlib_output():
    data = stdlib_zip([
        ("docs", None, (2020, 9, 13, 12, 26, 40), 0o755, zipfile.ZIP_STORED),
        ("docs/a.txt", b"zip payload\n", (2020, 9, 13, 12, 26, 40), 0o644, zipfile.ZIP_DEFLATED),
        ("raw.bin", b"stored", (1999, 1, 2, 3, 4, 6), 0o600, zipfile.ZIP_STORED),
    ])
    members = parse_zip(data)
    assert [m.name for m in members] == ["docs/", "docs/a.txt", "raw.bin"]
    assert members[0].is_dir
    assert members[1].content == b"zip payload\n"
    assert members[1].mode == 0o644
    expected = int(datetime.datetime(2020, 9, 13, 12, 26, 40, tzinfo=datetime.timezone.utc).timestamp())
    assert members[1].mtime == expected


def test_stdlib_reads_write_zip_output():
    members = [
        Member(name="d/", content=b"", is_dir=True, mtime=0, mode=0o755),
        Member(name="d/x.txt", content=b"content here\n", mtime=1_600_000_000, mode=0o640),
        Member(name="café.txt", content=b"accent", mtime=1_600_000_000, mode=0o644),
    ]
    data = write_zip(members)
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        assert zf.testzip() is None
        assert zf.namelist() == ["d/", "d/x.txt", "café.txt"]
        assert zf.read("d/x.txt") == b"content here\n"
        info = zf.getinfo("d/x.txt")
        assert (info.external_attr >> 16) == 0o640
        assert zf.getinfo("d/").external_attr & 0x10
        assert zf.getinfo("café.txt").flag_bits & 0x800


def test_zip_round_trip_random_against_stdlib():
    rng = random.Random(404)
    for _ in range(40):
        entries = []
        used = set()
        for _ in range(rng.randint(1, 6)):
            name = "".join(rng.choices("abcdeftuvz0123-_.", k=rng.randint(1, 14)))
            if name in used or name.startswith("."):
                continue
            used.add(name)
            is_dir = rng.random() < 0.2
            date_time = (rng.randint(1980, 2090), rng.randint(1, 12), rng.randint(1, 28),
                         rng.randint(0, 23), rng.randint(0, 59), rng.randint(0, 58))
            entries.append((
                name,
                None if is_dir else rng.randbytes(rng.randint(0, 500)),
                date_time,
                rng.choice([0o644, 0o755, 0o600]),
                rng.choice([zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED]),
            ))
        reference = stdlib_zip(entries, comment=rng.choice([b"", b"release note"]))
        members = parse_zip(reference)
        mine = write_zip(members)
        assert parse_zip(mine) == members
        assert write_zip(parse_zip(mine)) == mine
        with zipfile.ZipFile(io.BytesIO(mine)) as zf:
            assert zf.testzip() is None


def test_parse_zip_empty_archive():
    empty = b"PK\x05\x06" + b"\x00" * 18
    assert parse_zip(empty) == []
    buf = io.BytesIO()
    zipfile.ZipFile(buf, "w").close()
    assert parse_zip(buf.getvalue()) == []


def test_parse_zip_unsupported_method_is_member_level():
    data = stdlib_zip([
        ("ok.txt", b"fine", (2020, 1, 1, 0, 0, 0), 0o644, zipfile.ZIP_STORED),
        ("packed.bin", b"squeeze me hard enough and anything fits", (2020, 1, 1, 0, 0, 0), 0o644, zipfile.ZIP_BZIP2),
    ])
    members, errors = parse_zip_with_errors(data)
    assert [m.name for m in members] == ["ok.txt", "packed.bin"]
    assert members[0].content == b"fine"
    assert members[1].content == b""
    assert len(errors) == 1 and "packed.bin" in errors[0]
    with pytest.raises(FormatError, match="packed.bin: unsupported compression method 12"):
        parse_zip(data)


def test_zip_dos_time_rounding_and_clamping():
    floor_even = write_zip([Member(name="a", content=b"x", mtime=1_600_000_001)])
    assert parse_zip(floor_even)[0].mtime == 1_600_000_000
    epoch_1980 = int(datetime.datetime(1980, 1, 1, tzinfo=datetime.timezone.utc).timestamp())
    early = write_zip([Member(name="a", content=b"x", mtime=3)])
    assert parse_zip(early)[0].mtime == epoch_1980
    none_time = write_zip([Member(name="a", content=b"x", mtime=None)])
    assert parse_zip(none_time)[0].mtime == epoch_1980


def test_parse_zip_rejects_crc_mismatch():
    data = bytearray(stdlib_zip([("a.txt", b"check this payload", (2020, 1, 1, 0, 0, 0), 0o644, zipfile.ZIP_STORED)]))
    at = bytes(data).index(b"check this")
    data[at] ^= 0xFF
    with pytest.raises(FormatError) as err:
        parse_zip(bytes(data))
    assert "CRC" in str(err.value)


def test_parse_zip_rejects_missing_eocd():
    with pytest.raises(FormatError):
        parse_zip(b"PK\x03\x04" + b"\x00" * 40)


def raw_deflate_level6(data: bytes) -> bytes:
    """This host's zlib at the canonical setting, the oracle for every body
    of at most one block."""
    comp = zlib.compressobj(6, wbits=-15)
    return comp.compress(data) + comp.flush()


def source_like(seed: int) -> bytes:
    """Varied, repetitive text, which levels 6 and 9 deflate differently."""
    rng = random.Random(seed)
    return "".join(
        f"def func_{rng.randrange(1000)}(value, other={rng.randrange(100)}):\n"
        f"    return value * {rng.randrange(10**6)} + other\n"
        for _ in range(300)
    ).encode()


CANONICAL_PAYLOADS = [
    b"",
    b"a",
    b"text line\n" * 3000,
    source_like(6),
    random.Random(6).randbytes(20_000),
]


@pytest.mark.parametrize("filename,flags", [(None, 0), ("x.tar", 8)])
def test_write_gzip_header_bytes(filename, flags):
    data = write_gzip(b"payload", mtime=77, filename=filename)
    assert data[:3] == b"\x1f\x8b\x08"
    assert data[3] == flags
    assert data[4:8] == (77).to_bytes(4, "little")
    assert data[8] == 0  # XFL: neither maximum (2) nor fastest (4) compression
    assert data[9] == 255  # OS: unknown
    assert data[10:].startswith(b"x.tar\x00" if filename else b"")


@pytest.mark.parametrize("payload", CANONICAL_PAYLOADS, ids=len)
def test_write_gzip_body_is_level_6_raw_deflate(payload):
    data = write_gzip(payload, filename="n")
    assert data[12:-8] == raw_deflate_level6(payload)


def test_write_zip_refuses_fields_wider_than_their_record():
    with pytest.raises(ValidationError, match="out of 16-bit range"):
        write_zip([Member(name="a", content=b"x", mode=0o2000000)])
    with pytest.raises(ValidationError, match="exceeds 65535"):
        write_zip([Member(name="\u2591" * 30_000, content=b"x")])


def test_write_zip_bodies_are_level_6_raw_deflate():
    members = [Member(name="d/", content=b"", is_dir=True, mtime=0)] + [
        Member(name=f"f{i}", content=payload, mtime=0)
        for i, payload in enumerate(CANONICAL_PAYLOADS)
    ]
    data = write_zip(members)
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        infos = zf.infolist()
    assert [i.filename for i in infos] == [m.name for m in members]
    for info, member in zip(infos, members):
        local = info.header_offset
        name_len, extra_len = struct.unpack("<HH", data[local + 26:local + 30])
        start = local + 30 + name_len + extra_len
        body = data[start:start + info.compress_size]
        if member.is_dir:
            assert (info.compress_type, body) == (zipfile.ZIP_STORED, b"")
        else:
            assert info.compress_type == zipfile.ZIP_DEFLATED
            assert body == raw_deflate_level6(member.content)


#: The canonical deflate block, the input that primes each block after the
#: first, the level of a body of at most one block and the level of every
#: block of a longer body, fixed here as part of the format.
BLOCK = 128 * 1024
WINDOW = 32 * 1024
LEVEL = 6
BLOCK_LEVEL = 5
#: Since 0.5.0 each block of a longer body is probed: the first
#: ``PROBE_SLICE`` bytes of every ``PROBE_STRIDE`` bytes of the block make a
#: sample, and when the sample's level-1 raw deflate is at least
#: ``STORED_RATIO`` of its length the block is stored (level 0).
PROBE_SLICE = 1024
PROBE_STRIDE = 8 * 1024
STORED_RATIO = Fraction(15, 16)


def probe_stores(block: bytes) -> bool:
    """Whether the 0.5.0 rule stores ``block``."""
    sample = b""
    for offset in range(0, len(block), PROBE_STRIDE):
        sample += block[offset:offset + PROBE_SLICE]
    return Fraction(len(zlib.compress(sample, 1, wbits=-15)), len(sample)) >= STORED_RATIO


def blocked_deflate(data: bytes, level: int = BLOCK_LEVEL, probe: bool = True) -> bytes:
    """Serial reference of the canonical body: a body of one block is plain
    level-6 raw deflate; a longer one is deflated ``BLOCK`` bytes at a time,
    each block by a compressor primed with the ``WINDOW`` bytes before it,
    and every block but the last ends with a sync flush. A block the probe
    stores is deflated at level 0 and every other one at ``level``. With
    ``probe`` False it gives the bodies that version 0.4.0 wrote, and with
    ``level`` 6 as well those that 0.3.0 wrote."""
    if len(data) <= BLOCK:
        return raw_deflate_level6(data)
    out = []
    for start in range(0, len(data), BLOCK):
        block = data[start:start + BLOCK]
        block_level = 0 if probe and probe_stores(block) else level
        if start == 0:
            comp = zlib.compressobj(block_level, wbits=-15)
        else:
            comp = zlib.compressobj(block_level, wbits=-15, zdict=data[max(0, start - WINDOW):start])
        last = start + BLOCK >= len(data)
        out.append(comp.compress(block) + comp.flush(zlib.Z_FINISH if last else zlib.Z_SYNC_FLUSH))
    return b"".join(out)


def sized_payload(kind: str, size: int) -> bytes:
    if kind == "random":
        return random.Random(size).randbytes(size)
    text = source_like(size)
    return (text * (size // len(text) + 1))[:size]


def only_zip_body(data: bytes) -> bytes:
    """The compressed bytes of a one-member zip that has no extra field."""
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        [info] = zf.infolist()
    start = 30 + len(info.filename.encode())
    return data[start:start + info.compress_size]


BLOCK_SIZES = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + WINDOW, 5 * BLOCK + 7]


def test_deflate_block_is_the_reference_block():
    assert formats.DEFLATE_BLOCK == BLOCK


def test_deflate_levels_are_the_reference_levels():
    assert (formats.DEFLATE_LEVEL, formats.DEFLATE_BLOCK_LEVEL) == (LEVEL, BLOCK_LEVEL)


@pytest.mark.parametrize("kind", ["text", "random"])
def test_one_block_is_level_6_and_one_byte_more_is_level_5_blocks(kind):
    payload = sized_payload(kind, BLOCK + 1)
    assert formats._deflate(payload[:BLOCK]) == raw_deflate_level6(payload[:BLOCK])
    assert formats._deflate(payload) == blocked_deflate(payload, level=BLOCK_LEVEL)
    if kind == "text":
        # Text is where the two levels' match chains find different matches.
        assert blocked_deflate(payload, level=BLOCK_LEVEL) != blocked_deflate(payload, level=LEVEL)


@pytest.mark.parametrize("size", BLOCK_SIZES)
@pytest.mark.parametrize("kind", ["text", "random"])
def test_bodies_are_the_block_reference_and_read_back(kind, size):
    payload = sized_payload(kind, size)
    expected = blocked_deflate(payload)
    assert formats._deflate(payload) == expected
    assert zlib.decompress(expected, wbits=-15) == payload
    gz = write_gzip(payload, filename="n")
    assert gz[12:-8] == expected
    assert gzip_mod.decompress(gz) == payload
    zipped = write_zip([Member(name="f", content=payload, mtime=0)])
    assert only_zip_body(zipped) == expected
    with zipfile.ZipFile(io.BytesIO(zipped)) as zf:
        assert zf.testzip() is None
        assert zf.read("f") == payload


@pytest.mark.parametrize("kind", ["text", "random"])
def test_deflate_bytes_and_workers_follow_the_usable_cpus(kind, monkeypatch):
    """One usable CPU gives one worker, many give one per block at most,
    and without ``sched_getaffinity`` the CPU count counts; the bytes are
    the same every time."""
    import concurrent.futures

    payload = sized_payload(kind, 5 * BLOCK + 7)
    workers = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    bodies = []
    for cpus in ({0}, set(range(8))):
        monkeypatch.setattr(formats.os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        bodies.append(formats._deflate(payload))
    monkeypatch.delattr(formats.os, "sched_getaffinity")
    monkeypatch.setattr(formats.os, "cpu_count", lambda: 3)
    bodies.append(formats._deflate(payload))
    assert workers == [1, 6, 3]
    assert bodies == [blocked_deflate(payload)] * 3


@pytest.mark.skipif(shutil.which("gzip") is None, reason="no gzip on PATH")
@pytest.mark.parametrize("kind", ["text", "random"])
def test_gnu_gzip_accepts_multi_block_output(kind, tmp_path):
    path = tmp_path / "body.gz"
    path.write_bytes(write_gzip(sized_payload(kind, 5 * BLOCK + 7)))
    proc = subprocess.run(["gzip", "-t", str(path)], capture_output=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_probe_constants_are_the_reference_constants():
    assert (formats._PROBE_SLICE, formats._PROBE_STRIDE) == (PROBE_SLICE, PROBE_STRIDE)
    assert Fraction(*formats._PROBE_STORED) == STORED_RATIO


@pytest.mark.parametrize("size", [BLOCK + 1, 5 * BLOCK + 7])
def test_a_short_last_block_is_stored(size):
    """A last block of a few bytes deflates at level 1 to no fewer bytes
    than it holds, so the probe stores it: the body ends with one final
    stored block that holds those bytes as they are."""
    payload = sized_payload("text", size)
    tail = payload[size // BLOCK * BLOCK:]
    assert len(tail) == size % BLOCK
    assert len(zlib.compress(tail, 1, wbits=-15)) >= len(tail)
    body = formats._deflate(payload)
    assert body.endswith(b"\x01" + struct.pack("<HH", len(tail), len(tail) ^ 0xFFFF) + tail)
    assert body == blocked_deflate(payload)


def mixed_payload() -> bytes:
    """Three random blocks, two text blocks, and a block half text and half
    random."""
    return (sized_payload("random", 3 * BLOCK) + sized_payload("text", 2 * BLOCK)
            + sized_payload("text", BLOCK // 2) + sized_payload("random", BLOCK // 2))


def test_random_blocks_are_stored_and_text_blocks_are_not(monkeypatch):
    """Each block's deflate starts on a byte boundary with a block header
    whose type bits are 00 when the block is stored, and a stored block is
    longer than its input. The half-text block shrinks, so it is deflated.
    The bytes are the same for 1, 3 and 8 workers, and the stdlib reads them
    back."""
    payload = mixed_payload()
    pieces = [formats._deflate_block(payload, start) for start in range(0, len(payload), BLOCK)]
    stored = [piece[0] & 0b110 == 0 and len(piece) > BLOCK for piece in pieces]
    assert stored == [True] * 3 + [False] * 3
    expected = blocked_deflate(payload)
    assert b"".join(pieces) == expected
    for cpus in ({0}, {0, 1, 2}, set(range(8))):
        monkeypatch.setattr(formats.os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        assert formats._deflate(payload) == expected
    assert gzip_mod.decompress(write_gzip(payload, filename="n")) == payload
    with zipfile.ZipFile(io.BytesIO(write_zip([Member(name="f", content=payload, mtime=0)]))) as zf:
        assert zf.testzip() is None
        assert zf.read("f") == payload


@pytest.mark.skipif(shutil.which("gzip") is None, reason="no gzip on PATH")
def test_gnu_gzip_accepts_stored_blocks(tmp_path):
    path = tmp_path / "body.gz"
    path.write_bytes(write_gzip(mixed_payload()))
    proc = subprocess.run(["gzip", "-t", str(path)], capture_output=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")


TEXT_POOL = sized_payload("text", 7 * BLOCK)


@st.composite
def mixed_bodies(draw) -> bytes:
    """More than one block and at most six, made of runs of random and of
    text bytes whose lengths are random shares of the whole."""
    size = draw(st.integers(BLOCK + 1, 6 * BLOCK))
    runs = draw(st.lists(st.tuples(st.booleans(), st.integers(1, 1000), st.integers(0, BLOCK)),
                         min_size=1, max_size=8))
    total, done, parts = sum(weight for _, weight, _ in runs), 0, []
    for is_random, weight, seed in runs:
        start, end = size * done // total, size * (done + weight) // total
        done += weight
        parts.append(random.Random(seed).randbytes(end - start) if is_random
                     else TEXT_POOL[seed:seed + end - start])
    return b"".join(parts)


@settings(max_examples=10, deadline=None)
@given(mixed_bodies())
def test_mixed_bodies_are_the_reference_and_normalize_idempotently(body):
    expected = blocked_deflate(body)
    assert formats._deflate(body) == expected
    assert zlib.decompress(expected, wbits=-15) == body
    policy = NormalizePolicy(epoch=0)
    tar_gz = gzip_mod.compress(stdlib_tar([("m.bin", body, 5, 1, 1, "u", "g", 0o644)]), mtime=5)
    zipped = stdlib_zip([("m.bin", body, (2020, 1, 1, 0, 0, 0), 0o644, zipfile.ZIP_DEFLATED)])
    for archive in (tar_gz, zipped):
        once = normalize_bytes(archive, policy)
        assert normalize_bytes(once, policy) == once


def test_a_failing_block_propagates_and_leaves_no_thread(monkeypatch):
    real = zlib.compressobj
    failure = RuntimeError("second block")
    calls = []
    lock = threading.Lock()

    def second_call_fails(*args, **kwargs):
        with lock:
            calls.append(None)
            if len(calls) == 2:
                raise failure
        return real(*args, **kwargs)

    before = threading.active_count()
    monkeypatch.setattr(zlib, "compressobj", second_call_fails)
    with pytest.raises(RuntimeError) as raised:
        formats._deflate(sized_payload("text", 3 * BLOCK))
    assert raised.value is failure
    assert threading.active_count() == before


def test_0_4_0_blocks_normalize_again_to_0_5_0_blocks(monkeypatch):
    """A multi-block gzip and zip member written as 0.4.0 wrote them, with
    every block at level 5, normalize again to the bytes of 0.5.0, which
    store the random block and the short last one. The members they decode
    to are the same, the new bytes are idempotent, and the stdlib reads them
    back."""
    content = sized_payload("text", 2 * BLOCK) + sized_payload("random", BLOCK) + b"tail\n"
    canonical = dict(mtime=0, uid=0, gid=0, uname="root", gname="root", mode=0o644)
    members = [Member(name="a.txt", content=b"ay\n", **canonical),
               Member(name="big.txt", content=content, **canonical)]
    tar = write_tar(members)
    zip_members = [Member(name="big.txt", content=content, mtime=0, mode=0o644)]
    with monkeypatch.context() as patch:
        patch.setattr(formats, "_deflate", lambda data: blocked_deflate(data, probe=False))
        old_gz = write_gzip(tar)
        old_zip = write_zip(zip_members)
    assert old_gz[10:-8] == blocked_deflate(tar, probe=False)
    assert only_zip_body(old_zip) == blocked_deflate(content, probe=False)

    policy = NormalizePolicy(epoch=0)
    new_gz, new_zip = normalize_bytes(old_gz, policy), normalize_bytes(old_zip, policy)
    assert new_gz == write_gzip(tar) != old_gz
    assert new_gz[10:-8] == blocked_deflate(tar)
    assert new_zip == write_zip(zip_members) != old_zip
    assert only_zip_body(new_zip) == blocked_deflate(content)
    assert parse_tar(parse_gzip(new_gz).payload) == parse_tar(parse_gzip(old_gz).payload) == members
    assert parse_zip(new_zip) == parse_zip(old_zip)
    assert normalize_bytes(new_gz, policy) == new_gz
    assert normalize_bytes(new_zip, policy) == new_zip

    with tarfile.open(fileobj=io.BytesIO(gzip_mod.decompress(new_gz))) as tf:
        assert {m.name: tf.extractfile(m).read() for m in tf.getmembers()} == {
            m.name: m.content for m in members}
    with zipfile.ZipFile(io.BytesIO(new_zip)) as zf:
        assert zf.testzip() is None
        assert zf.read("big.txt") == content


def central_entry_offsets(data: bytes) -> list[int]:
    """Where each central-directory entry starts, read with stdlib ``struct``."""
    eocd = data.rindex(b"PK\x05\x06")
    count, offset = struct.unpack_from("<H4xI", data, eocd + 10)
    offsets = []
    for _ in range(count):
        offsets.append(offset)
        name_len, extra_len, comment_len = struct.unpack_from("<HHH", data, offset + 28)
        offset += 46 + name_len + extra_len + comment_len
    return offsets


def test_invalid_dos_timestamp_names_the_entry_time_field():
    when = (2020, 1, 1, 0, 0, 0)
    data = bytearray(stdlib_zip([
        ("first.txt", b"one", when, 0o644, zipfile.ZIP_STORED),
        ("second.txt", b"two", when, 0o644, zipfile.ZIP_STORED),
    ]))
    entry = central_entry_offsets(bytes(data))[1]
    dos_date = int.from_bytes(data[entry + 14:entry + 16], "little")
    data[entry + 14:entry + 16] = (dos_date & ~(0xF << 5)).to_bytes(2, "little")  # month 0
    with pytest.raises(FormatError) as err:
        parse_zip(bytes(data))
    assert "invalid DOS timestamp" in str(err.value)
    assert err.value.offset == entry + 12


def test_undecodable_utf8_zip_name_is_a_format_error():
    data = bytearray(stdlib_zip([("café.txt", b"x", (2020, 1, 1, 0, 0, 0), 0o644, zipfile.ZIP_STORED)]))
    entry = central_entry_offsets(bytes(data))[0]
    data[entry + 46 + 3] = 0xFF  # the first byte of "é"
    with pytest.raises(FormatError) as err:
        parse_zip(bytes(data))
    assert err.value.offset == entry + 46


# -- header decode against the field-by-field reader it replaced -----------


def _reference_octal(raw: bytes, offset: int, what: str) -> int:
    text = raw.rstrip(b"\x00 ").lstrip(b" ")
    if text == b"":
        return 0
    try:
        return int(text, 8)
    except ValueError:
        raise FormatError(f"bad octal {what} field {raw!r}", offset) from None


def _reference_string(raw: bytes, offset: int, what: str) -> str:
    end = raw.find(b"\x00")
    if end >= 0:
        raw = raw[:end]
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"undecodable {what} field", offset) from None


def reference_parse_tar(data: bytes) -> list[Member]:
    """``parse_tar`` as it read headers one slice and one helper at a time."""
    members = []
    pos = 0
    while True:
        if pos + 512 > len(data):
            raise FormatError("truncated header block", pos)
        block = data[pos:pos + 512]
        if block == b"\x00" * 512:
            if data[pos:].strip(b"\x00") != b"":
                raise FormatError("data after end-of-archive marker", pos)
            return members
        if block[257:262] != b"ustar":
            raise FormatError("bad magic (not a ustar header)", pos + 257)
        stored_sum = _reference_octal(block[148:156], pos + 148, "chksum")
        actual_sum = sum(block[:148]) + 8 * 0x20 + sum(block[156:])
        if stored_sum != actual_sum:
            raise FormatError(
                f"header checksum mismatch (stored {stored_sum}, actual {actual_sum})", pos + 148
            )
        typeflag = block[156:157]
        if typeflag not in (b"0", b"\x00", b"5"):
            raise FormatError(f"unsupported member type {typeflag!r}", pos + 156)
        name = _reference_string(block[0:100], pos, "name")
        prefix = _reference_string(block[345:500], pos + 345, "prefix")
        if prefix:
            name = prefix + "/" + name
        if not name:
            raise FormatError("empty member name", pos)
        size = _reference_octal(block[124:136], pos + 124, "size")
        content_start = pos + 512
        padded_end = content_start + ((size + 511) // 512) * 512
        if padded_end > len(data):
            raise FormatError("truncated member content", content_start)
        members.append(Member(
            name=name,
            content=data[content_start:content_start + size],
            mtime=_reference_octal(block[136:148], pos + 136, "mtime"),
            uid=_reference_octal(block[108:116], pos + 108, "uid"),
            gid=_reference_octal(block[116:124], pos + 116, "gid"),
            uname=_reference_string(block[265:297], pos + 265, "uname"),
            gname=_reference_string(block[297:329], pos + 297, "gname"),
            mode=_reference_octal(block[100:108], pos + 100, "mode"),
            is_dir=typeflag == b"5",
        ))
        pos = padded_end


def reference_parse_zip(data: bytes) -> tuple[list[Member], list[str]]:
    """``parse_zip_with_errors`` as it read each field with ``int.from_bytes``
    on a slice, with two faults mended: the timestamp error names the entry's
    time field, and an undecodable UTF-8 name is a ``FormatError``."""

    def le(start: int, width: int) -> int:
        return int.from_bytes(data[start:start + width], "little")

    eocd = data.rfind(b"PK\x05\x06", max(0, len(data) - 65557))
    if eocd < 0:
        raise FormatError("no end-of-central-directory record", len(data))
    if len(data) - eocd < 22:
        raise FormatError("truncated end-of-central-directory record", eocd)
    if le(eocd + 4, 2) != 0 or le(eocd + 6, 2) != 0:
        raise FormatError("multi-disk zip archives unsupported", eocd + 4)
    members, errors = [], []
    pos = le(eocd + 16, 4)
    for _ in range(le(eocd + 10, 2)):
        if data[pos:pos + 4] != b"PK\x01\x02":
            raise FormatError("bad central-directory entry signature", pos)
        name_len = le(pos + 28, 2)
        name_raw = data[pos + 46:pos + 46 + name_len]
        if len(name_raw) != name_len:
            raise FormatError("truncated central-directory entry", pos)
        try:
            name = name_raw.decode("utf-8" if le(pos + 8, 2) & 0x800 else "cp437")
        except UnicodeDecodeError:
            raise FormatError("undecodable zip member name", pos + 46) from None
        if not name:
            raise FormatError("empty zip member name", pos + 46)
        entry = pos
        pos += 46 + name_len + le(pos + 30, 2) + le(pos + 32, 2)
        local = le(entry + 42, 4)
        if data[local:local + 4] != b"PK\x03\x04":
            raise FormatError("bad local header signature", local)
        data_start = local + 30 + le(local + 26, 2) + le(local + 28, 2)
        comp_size = le(entry + 20, 4)
        raw = data[data_start:data_start + comp_size]
        if len(raw) != comp_size:
            raise FormatError("truncated member data", data_start)
        mtime = formats._dos_to_unix(le(entry + 14, 2), le(entry + 12, 2), entry + 12)
        mode = (le(entry + 38, 4) >> 16) & 0xFFFF
        mode = mode if le(entry + 4, 2) >> 8 == 3 and mode else None
        is_dir = name.endswith("/")
        method = le(entry + 10, 2)
        if method not in (0, 8):
            errors.append(f"{name}: unsupported compression method {method}")
            members.append(Member(name=name, content=b"", mtime=mtime, mode=mode, is_dir=is_dir))
            continue
        content = raw
        if method == 8:
            try:
                decomp = zlib.decompressobj(wbits=-15)
                content = decomp.decompress(raw) + decomp.flush()
            except zlib.error as err:
                raise FormatError(f"corrupt deflate stream in {name}: {err}", data_start) from None
        if not is_dir and zlib.crc32(content) != le(entry + 16, 4):
            raise FormatError(f"CRC mismatch for member {name}", data_start)
        members.append(Member(name=name, content=content, mtime=mtime, mode=mode, is_dir=is_dir))
    return members, errors


def outcome(parse, data: bytes):
    """What a parser makes of ``data``: its result, or a FormatError's message
    and offset. Any other exception propagates and fails the test."""
    try:
        return "parsed", parse(data)
    except FormatError as err:
        return "error", str(err), err.offset


def parse_tar_gz(parse_payload):
    return lambda data: parse_payload(parse_gzip(data).payload)


def header_corruptions(data: bytes, spans: list[tuple[int, int]]):
    """Each byte of each span set to a few values that reach different
    checks: NUL, space, octal and non-octal digits, a high byte, bit flips."""
    for start, end in spans:
        for at in range(start, end):
            for value in {0x00, 0x20, 0x30, 0x37, 0x38, 0xFF, data[at] ^ 0x01, data[at] ^ 0x80}:
                if value != data[at]:
                    yield data[:at] + bytes([value]) + data[at + 1:]


def with_tar_checksum(data: bytes, header: int) -> bytes:
    """``data`` with the header at ``header`` given a checksum matching its
    bytes, so that a corruption reaches the checks after the checksum."""
    block = bytearray(data[header:header + 512])
    block[148:156] = b" " * 8
    block[148:156] = format(sum(block), "06o").encode() + b"\x00 "
    return data[:header] + bytes(block) + data[header + 512:]


@pytest.mark.parametrize("start,width,field,text", [
    (136, 12, "mtime", b"-0000000005\x00"),
    (108, 8, "uid", b"+000005\x00"),
    (100, 8, "mode", b"0_00644\x00"),
], ids=["signed-mtime", "signed-uid", "underscored-mode"])
def test_tar_number_field_must_be_octal_digits(start, width, field, text):
    data = stdlib_tar([("f.txt", b"x", 7, 2, 3, "u", "g", 0o644)])
    assert len(text) == width
    patched = with_tar_checksum(data[:start] + text + data[start + width:], 0)
    with pytest.raises(FormatError) as err:
        parse_tar(patched)
    assert str(err.value) == f"bad octal {field} field {text!r} (offset {start})"
    assert err.value.offset == start
    # Normalize refuses the archive; a diff compares it as bytes.
    with pytest.raises(FormatError):
        normalize_bytes(patched, NormalizePolicy(epoch=0))
    root = compare_bytes(patched, data)
    assert isinstance(root.detail, ByteRanges) and root.children == ()


ROBUSTNESS_TAR = stdlib_tar([
    ("docs", None, 1_600_000_000, 0, 0, "root", "root", 0o755),
    ("d" * 60 + "/" + "e" * 60 + ".txt", b"hello tar\n" * 60, 1_600_000_123, 1000, 100, "alice", "users", 0o644),
    ("empty.bin", b"", 7, 2, 3, "u", "g", 0o600),
])
ROBUSTNESS_TAR_HEADERS = [0, 512, 2048]
ROBUSTNESS_ZIP = stdlib_zip([
    ("docs", None, (2020, 9, 13, 12, 26, 40), 0o755, zipfile.ZIP_STORED),
    ("docs/a.txt", b"zip payload\n" * 20, (2020, 9, 13, 12, 26, 40), 0o644, zipfile.ZIP_DEFLATED),
    ("café.bin", b"stored", (1999, 1, 2, 3, 4, 6), 0o600, zipfile.ZIP_STORED),
])


def test_robustness_inputs_parse_as_written():
    assert [m.name for m in parse_tar(ROBUSTNESS_TAR)] == [
        "docs/", "d" * 60 + "/" + "e" * 60 + ".txt", "empty.bin"]
    assert [h for h in range(0, len(ROBUSTNESS_TAR), 512)
            if ROBUSTNESS_TAR[h + 257:h + 262] == b"ustar"] == ROBUSTNESS_TAR_HEADERS
    assert ROBUSTNESS_TAR[512 + 345:512 + 405] == b"d" * 60  # the prefix field is used
    assert [m.name for m in parse_zip(ROBUSTNESS_ZIP)] == ["docs/", "docs/a.txt", "café.bin"]


def test_tar_header_of_high_bytes_parses_as_the_reference():
    # Every field full, of bytes 0xC3 and 0xBF ("ÿ" in UTF-8) or 0xFF: sums
    # that overflow Adler-32's modulus unless taken in spans of 256 bytes.
    prefix, name = "ÿ" * 77 + "a", "ÿ" * 50
    data = stdlib_tar([(prefix + "/" + name, b"x", 0o7777777, 0o777, 0o777, "ÿ" * 16, "ÿ" * 16, 0o777)])
    block = bytearray(data[:512])
    assert block[345:500] == prefix.encode() and block[0:100] == name.encode()
    for start, end in [(157, 257), (263, 265), (329, 345), (500, 512)]:
        block[start:end] = b"\xff" * (end - start)  # fields parse_tar does not read
    data = with_tar_checksum(bytes(block) + data[512:], 0)
    assert sum(data[148:512]) > 65521
    assert outcome(parse_tar, data) == outcome(reference_parse_tar, data)
    assert parse_tar(data)[0].name == prefix + "/" + name


@pytest.mark.parametrize(
    "parse,reference,data",
    [
        (parse_tar, reference_parse_tar, ROBUSTNESS_TAR),
        (parse_tar_gz(parse_tar), parse_tar_gz(reference_parse_tar),
         gzip_mod.compress(ROBUSTNESS_TAR, mtime=0)),
        (parse_zip_with_errors, reference_parse_zip, ROBUSTNESS_ZIP),
    ],
    ids=["tar", "tar.gz", "zip"],
)
def test_every_prefix_parses_or_fails_as_the_reference(parse, reference, data):
    for end in range(len(data) + 1):
        assert outcome(parse, data[:end]) == outcome(reference, data[:end]), end


def test_tar_header_corruptions_parse_or_fail_as_the_reference():
    for header in ROBUSTNESS_TAR_HEADERS:
        for corrupt in header_corruptions(ROBUSTNESS_TAR, [(header, header + 500)]):
            assert outcome(parse_tar, corrupt) == outcome(reference_parse_tar, corrupt)
            resummed = with_tar_checksum(corrupt, header)
            assert outcome(parse_tar, resummed) == outcome(reference_parse_tar, resummed)


def test_tar_gz_header_corruptions_parse_or_fail_as_the_reference():
    data = gzip_mod.compress(ROBUSTNESS_TAR, mtime=0)
    for corrupt in header_corruptions(data, [(0, 10), (len(data) - 8, len(data))]):
        assert outcome(parse_tar_gz(parse_tar), corrupt) == \
            outcome(parse_tar_gz(reference_parse_tar), corrupt)


def test_zip_header_corruptions_parse_or_fail_as_the_reference():
    data = ROBUSTNESS_ZIP
    entries = central_entry_offsets(data)
    locals_ = [int.from_bytes(data[e + 42:e + 46], "little") for e in entries]
    eocd = data.rindex(b"PK\x05\x06")
    names = [int.from_bytes(data[e + 28:e + 30], "little") for e in entries]
    spans = [(e, e + 46 + n) for e, n in zip(entries, names)]
    spans += [(h, h + 30) for h in locals_] + [(eocd, eocd + 22)]
    for corrupt in header_corruptions(data, spans):
        assert outcome(parse_zip_with_errors, corrupt) == outcome(reference_parse_zip, corrupt)


# -- the second side of a pair, parsed through the first side's records -----


def second_side(parse, first: bytes):
    """``parse`` through a dict that parsing ``first`` filled, as a
    comparison parses its second side."""
    def parse_after(data: bytes):
        seen: dict = {}
        parse(first, seen)
        return parse(data, seen)
    return parse_after


@pytest.mark.parametrize(
    "parse,reference,data,end",
    [
        (parse_tar, reference_parse_tar, ROBUSTNESS_TAR, ROBUSTNESS_TAR_HEADERS[-1] + 512),
        (parse_zip_with_errors, reference_parse_zip, ROBUSTNESS_ZIP, len(ROBUSTNESS_ZIP)),
    ],
    ids=["tar", "zip"],
)
def test_second_side_parses_or_fails_as_the_reference(parse, reference, data, end):
    # The archive, each of its prefixes up to ``end`` and each of its bytes
    # up to ``end`` corrupted, parsed after the intact archive: records it
    # decoded are reused only where decoding would give the same member, and
    # every error keeps its message and offset.
    after = second_side(parse, data)
    variants = [data] + [data[:cut] for cut in range(end)]
    variants += header_corruptions(data, [(0, end)])
    for variant in variants:
        assert outcome(after, variant) == outcome(reference, variant)


# -- canonical writers against the concatenating writers they replaced ------
#
# The writers as they built each record field by field and padded by hand.
# Name splitting, DOS time conversion and deflate are shared with the
# writers under test: they did not change.


def _reference_tar_number(value: int, width: int, what: str) -> bytes:
    if value < 0 or value >= 8 ** (width - 1):
        raise ValidationError(f"tar {what} {value} out of octal range")
    return format(value, f"0{width - 1}o").encode() + b"\x00"


def _reference_tar_text(value: str, width: int, what: str) -> bytes:
    raw = value.encode("utf-8")
    if len(raw) > width:
        raise ValidationError(f"tar {what} {value!r} longer than {width} bytes")
    return raw + b"\x00" * (width - len(raw))


def reference_write_tar(members: list[Member]) -> bytes:
    chunks: list[bytes] = []
    for m in members:
        name = m.name
        if m.is_dir and not name.endswith("/"):
            name += "/"
        prefix_raw, name_raw = formats._tar_split_name(name)
        if m.is_dir and m.content:
            raise ValidationError(f"directory member {m.name!r} must have empty content")
        default_mode = 0o755 if m.is_dir else 0o644
        header = b"".join(
            [
                name_raw + b"\x00" * (100 - len(name_raw)),
                _reference_tar_number(m.mode if m.mode is not None else default_mode, 8, "mode"),
                _reference_tar_number(m.uid or 0, 8, "uid"),
                _reference_tar_number(m.gid or 0, 8, "gid"),
                _reference_tar_number(len(m.content), 12, "size"),
                _reference_tar_number(m.mtime or 0, 12, "mtime"),
                b" " * 8,
                b"5" if m.is_dir else b"0",
                b"\x00" * 100,
                b"ustar\x00" + b"00",
                _reference_tar_text(m.uname or "root", 32, "uname"),
                _reference_tar_text(m.gname or "root", 32, "gname"),
                _reference_tar_number(0, 8, "devmajor"),
                _reference_tar_number(0, 8, "devminor"),
                prefix_raw + b"\x00" * (155 - len(prefix_raw)),
            ]
        )
        header = header + b"\x00" * (512 - len(header))
        checksum = format(sum(header), "06o").encode() + b"\x00 "
        header = header[:148] + checksum + header[156:]
        chunks.append(header)
        chunks.append(m.content)
        remainder = len(m.content) % 512
        if remainder:
            chunks.append(b"\x00" * (512 - remainder))
    chunks.append(b"\x00" * 1024)
    return b"".join(chunks)


def reference_write_gzip(payload: bytes, mtime: int = 0, filename: str | None = None) -> bytes:
    if not 0 <= mtime < 1 << 32:
        raise ValidationError("gzip mtime out of 32-bit range")
    flags = 8 if filename is not None else 0
    header = b"\x1f\x8b\x08" + bytes([flags]) + mtime.to_bytes(4, "little") + b"\x00\xff"
    name_field = filename.encode("latin-1") + b"\x00" if filename is not None else b""
    body = formats._deflate(payload)
    trailer = zlib.crc32(payload).to_bytes(4, "little")
    trailer += (len(payload) % (1 << 32)).to_bytes(4, "little")
    return header + name_field + body + trailer


def reference_write_zip(members: list[Member]) -> bytes:
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
            method, body = 8, formats._deflate(m.content)
        crc = zlib.crc32(m.content)
        dos_date, dos_time = formats._unix_to_dos(m.mtime or 0)
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
        locals_out.append(b"PK\x03\x04" + fixed + name_raw + body)
        centrals.append(
            b"PK\x01\x02"
            + version_made_by.to_bytes(2, "little")
            + fixed
            + (0).to_bytes(2, "little")
            + (0).to_bytes(2, "little")
            + (0).to_bytes(2, "little")
            + external.to_bytes(4, "little")
            + offset.to_bytes(4, "little")
            + name_raw
        )
        offset += len(locals_out[-1])
    central_blob = b"".join(centrals)
    eocd = (
        b"PK\x05\x06"
        + (0).to_bytes(2, "little")
        + (0).to_bytes(2, "little")
        + len(members).to_bytes(2, "little")
        + len(members).to_bytes(2, "little")
        + len(central_blob).to_bytes(4, "little")
        + offset.to_bytes(4, "little")
        + (0).to_bytes(2, "little")
    )
    return b"".join(locals_out) + central_blob + eocd


def written(write, *args):
    """What a writer makes of its arguments: its bytes, or its exception's
    type and message."""
    try:
        return "written", write(*args)
    except Exception as err:  # noqa: BLE001 - compared, not handled
        return "error", type(err), str(err)


#: The ustar number fields a member sets, as (offset, width). The size is
#: left out: a full-width size needs 8 GiB of content.
TAR_NUMBER_FIELDS = {"mode": (100, 8), "uid": (108, 8), "gid": (116, 8), "mtime": (136, 12)}


def full_width(member: Member) -> dict[str, int]:
    """The member's number fields whose values need all their field's digits."""
    found = {}
    for name, (_, width) in TAR_NUMBER_FIELDS.items():
        value = getattr(member, name)
        if value is not None and 8 ** (width - 1) <= value < 8 ** width:
            found[name] = value
    return found


def expected_tar(members: list[Member]):
    """The reference writer's outcome, except that a value needing every
    digit of its field is written whole with no NUL instead of refused:
    the reference runs on the members with such values cut to their low
    digits, and the fields are then patched and the headers re-summed."""
    lowered = [replace(m, **{name: v % 8 ** (TAR_NUMBER_FIELDS[name][1] - 1)
                             for name, v in full_width(m).items()}) for m in members]
    outcome = written(reference_write_tar, lowered)
    if outcome[0] != "written":
        return outcome
    data = bytearray(outcome[1])
    pos = 0
    for m in members:
        for name, value in full_width(m).items():
            at, width = TAR_NUMBER_FIELDS[name]
            data[pos + at:pos + at + width] = b"%0*o" % (width, value)
        data[pos + 148:pos + 156] = b" " * 8
        data[pos + 148:pos + 155] = b"%06o\x00" % sum(data[pos:pos + 512])
        pos += 512 + -(-len(m.content) // 512) * 512
    return "written", bytes(data)


def around(*limits: int):
    return st.sampled_from(sorted({limit + d for limit in limits for d in (-2, -1, 0, 1)}))


#: The DOS time range zip clamps to: 1980-01-01 and the start of 2108.
DOS_FIRST = 315_532_800
DOS_END = int(datetime.datetime(2108, 1, 1, tzinfo=datetime.timezone.utc).timestamp())

OCTAL_8 = st.one_of(st.none(), st.integers(0, 8 ** 7 - 1), around(0, 8 ** 7, 8 ** 8))
MTIMES = st.one_of(st.none(), st.integers(0, 2 ** 33), around(0, 8 ** 11, 8 ** 12, DOS_FIRST, DOS_END))
#: 0 to 33 bytes: the 32-byte ustar owner fields, full and one over.
OWNERS = st.one_of(
    st.none(), st.integers(0, 33).map(lambda n: "u" * n), st.integers(0, 17).map(lambda n: "ü" * n))
#: Path components of byte lengths at and around the ustar name field's 100
#: bytes and the prefix field's 155, in ASCII and in 2- and 3-byte UTF-8.
COMPONENTS = st.tuples(
    st.sampled_from(["a", "é", "日"]),
    st.sampled_from([1, 3, 50, 98, 99, 100, 101, 102, 153, 154, 155, 156, 157]),
).map(lambda cn: cn[0] * max(1, cn[1] // len(cn[0].encode())))
NAMES = st.one_of(
    st.lists(COMPONENTS, min_size=1, max_size=3).map("/".join),
    st.text(alphabet="ab/é", min_size=1, max_size=8),
    st.text(alphabet="ab/é", max_size=8),
)


@st.composite
def archive_members(draw, modes=OCTAL_8):
    is_dir = draw(st.booleans())
    return Member(
        name=draw(NAMES) + draw(st.sampled_from(["", "", "/"])),
        content=b"" if is_dir and draw(st.integers(0, 3)) else draw(st.binary(max_size=1100)),
        mtime=draw(MTIMES),
        uid=draw(OCTAL_8),
        gid=draw(OCTAL_8),
        uname=draw(OWNERS),
        gname=draw(OWNERS),
        mode=draw(modes),
        is_dir=is_dir,
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(archive_members(), max_size=3))
def test_write_tar_writes_or_fails_as_the_reference(members):
    assert written(write_tar, members) == expected_tar(members)


#: Zip keeps a mode in the 16 high bits of the external attributes. A mode
#: outside them fails in both writers, with different untyped errors, so
#: none is drawn.
ZIP_MODES = st.one_of(st.none(), st.integers(0, 0xFFFF), st.sampled_from([0, 1, 0xFFFE, 0xFFFF]))


@settings(max_examples=200, deadline=None)
@given(st.lists(archive_members(ZIP_MODES), max_size=3))
def test_write_zip_writes_or_fails_as_the_reference(members):
    assert written(write_zip, members) == written(reference_write_zip, members)


@settings(max_examples=200, deadline=None)
@given(
    st.binary(max_size=2000),
    st.one_of(st.integers(0, 2 ** 32 - 1), around(0, 2 ** 32)),
    st.one_of(st.none(), st.text(max_size=6), st.text(alphabet="aÿ\x00", max_size=6)),
)
def test_write_gzip_writes_or_fails_as_the_reference(payload, mtime, filename):
    assert written(write_gzip, payload, mtime, filename) == \
        written(reference_write_gzip, payload, mtime, filename)


def test_full_width_values_are_the_one_difference_from_the_reference():
    members = [Member(name="f", content=b"x", uid=0o17777777, mtime=8 ** 11, mode=0o7777777)]
    assert written(reference_write_tar, members) == \
        ("error", ValidationError, "tar uid 4194303 out of octal range")
    data = write_tar(members)
    assert data[100:148] == b"7777777\x00" + b"17777777" + b"0000000\x00" + \
        b"00000000001\x00" + b"100000000000"
    assert ("written", data) == expected_tar(members)

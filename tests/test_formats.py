"""Container codecs checked against the standard library in both directions."""

from __future__ import annotations

import datetime
import gzip as gzip_mod
import io
import random
import struct
import tarfile
import zipfile
import zlib

import pytest

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
    assert parse_zip(data) == members


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
    """This host's zlib at the canonical setting, the oracle for every body."""
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

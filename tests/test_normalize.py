"""Normalization: convergence, idempotence, clamping, policy knobs."""

from __future__ import annotations

import gzip as gzip_mod
import io
import random
import tarfile
import zipfile

import pytest

from reprokit.errors import FormatError, ValidationError
from reprokit.formats import Member, parse_gzip, parse_tar, parse_zip, write_gzip, write_tar
from reprokit.normalize import (
    MAX_NESTING,
    NormalizePolicy,
    normalize_auto,
    normalize_bytes,
    policy_from_env,
)

EPOCH = 1_600_000_000
POLICY = NormalizePolicy(epoch=EPOCH)


def stdlib_tar(entries) -> bytes:
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w", format=tarfile.USTAR_FORMAT) as tf:
        for name, data, mtime, uid, gid, uname, gname, mode in entries:
            info = tarfile.TarInfo(name)
            info.mtime, info.uid, info.gid = mtime, uid, gid
            info.uname, info.gname, info.mode = uname, gname, mode
            if data is None:
                info.type = tarfile.DIRTYPE
                tf.addfile(info)
            else:
                info.size = len(data)
                tf.addfile(info, io.BytesIO(data))
    return buf.getvalue()


def stdlib_zip(entries) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, data, date_time, mode, method in entries:
            info = zipfile.ZipInfo(name, date_time)
            info.external_attr = mode << 16
            info.compress_type = method
            zf.writestr(info, data)
    return buf.getvalue()


def test_tar_convergence_across_environments():
    files = [("z.txt", b"zeta\n"), ("a.txt", b"alpha\n")]
    one = stdlib_tar([
        (n, d, 1_700_000_000, 1000, 100, "alice", "users", 0o664) for n, d in files
    ])
    two = stdlib_tar([
        (n, d, 1_650_000_123, 2000, 200, "bob", "staff", 0o600)
        for n, d in reversed(files)
    ])
    assert one != two
    na, nb = normalize_bytes(one, POLICY), normalize_bytes(two, POLICY)
    assert na == nb
    members = parse_tar(na)
    assert [m.name for m in members] == ["a.txt", "z.txt"]
    assert all(m.uid == 0 and m.uname == "root" and m.mode == 0o644 for m in members)
    assert all(m.mtime == EPOCH for m in members)


def test_tar_normalized_output_readable_by_stdlib():
    raw = stdlib_tar([
        ("d", None, 1_700_000_000, 1000, 100, "alice", "users", 0o775),
        ("d/f.bin", b"\x00\x01", 1_700_000_000, 1000, 100, "alice", "users", 0o640),
    ])
    out = normalize_bytes(raw, POLICY)
    with tarfile.open(fileobj=io.BytesIO(out)) as tf:
        d, f = tf.getmembers()
        assert d.isdir() and d.mode == 0o755
        assert f.uid == 0 and f.uname == "root" and f.mode == 0o644
        assert f.mtime == EPOCH
        assert tf.extractfile(f).read() == b"\x00\x01"


def test_clamp_never_moves_timestamps_forward():
    old = stdlib_tar([("a", b"x", 5, 0, 0, "root", "root", 0o644)])
    assert parse_tar(normalize_bytes(old, POLICY))[0].mtime == 5
    new = stdlib_tar([("a", b"x", EPOCH + 999, 0, 0, "root", "root", 0o644)])
    assert parse_tar(normalize_bytes(new, POLICY))[0].mtime == EPOCH


def test_keep_owners_policy():
    raw = stdlib_tar([("a", b"x", 50, 1234, 60, "alice", "users", 0o640)])
    policy = NormalizePolicy(epoch=EPOCH, zero_ownership=False)
    m = parse_tar(normalize_bytes(raw, policy))[0]
    assert (m.uid, m.gid, m.uname, m.gname, m.mode) == (1234, 60, "alice", "users", 0o640)
    assert m.mtime == 50


def test_no_sort_policy_keeps_order():
    raw = stdlib_tar([
        ("z", b"1", 0, 0, 0, "root", "root", 0o644),
        ("a", b"2", 0, 0, 0, "root", "root", 0o644),
    ])
    policy = NormalizePolicy(epoch=EPOCH, sort_members=False)
    assert [m.name for m in parse_tar(normalize_bytes(raw, policy))] == ["z", "a"]
    assert [m.name for m in parse_tar(normalize_bytes(raw, POLICY))] == ["a", "z"]


def test_gzip_convergence_and_name_stripping():
    payload = b"the payload" * 40
    variants = [
        gzip_mod.compress(payload, compresslevel=1, mtime=1_700_000_000),
        gzip_mod.compress(payload, compresslevel=9, mtime=1_680_000_000),
    ]
    buf = io.BytesIO()
    with gzip_mod.GzipFile("orig-name.tar", "wb", fileobj=buf, mtime=1_650_000_000) as gz:
        gz.write(payload)
    variants.append(buf.getvalue())
    outs = {normalize_bytes(v, POLICY) for v in variants}
    assert len(outs) == 1
    gs = parse_gzip(outs.pop())
    assert gs.payload == payload
    assert gs.filename is None
    assert gs.mtime == EPOCH


def test_gzip_keep_name_policy():
    raw = write_gzip(b"x", mtime=0, filename="keep.me")
    policy = NormalizePolicy(epoch=EPOCH, strip_names=False)
    assert parse_gzip(normalize_bytes(raw, policy)).filename == "keep.me"


def test_zip_convergence_across_environments():
    files = [("b.txt", b"bee\n"), ("a.txt", b"ay\n")]
    one = stdlib_zip([
        (n, d, (2024, 5, 6, 7, 8, 10), 0o664, zipfile.ZIP_DEFLATED) for n, d in files
    ])
    two = stdlib_zip([
        (n, d, (2022, 1, 2, 3, 4, 6), 0o600, zipfile.ZIP_STORED)
        for n, d in reversed(files)
    ])
    na, nb = normalize_bytes(one, POLICY), normalize_bytes(two, POLICY)
    assert na == nb
    members = parse_zip(na)
    assert [m.name for m in members] == ["a.txt", "b.txt"]
    assert all(m.mode == 0o644 for m in members)


def test_zip_unsupported_method_refuses():
    raw = stdlib_zip([("p", b"squeeze this payload until it stores", (2020, 1, 1, 0, 0, 0),
                       0o644, zipfile.ZIP_BZIP2)])
    with pytest.raises(FormatError) as err:
        normalize_bytes(raw, POLICY)
    assert "cannot normalize" in str(err.value)


def test_normalize_bytes_passthrough_for_non_containers():
    for data in (b"plain text\n", b"\x00\x01\x02", b""):
        assert normalize_bytes(data, POLICY) == data


def test_normalize_bytes_descends_into_nested_containers():
    inner = stdlib_tar([("f.txt", b"inner\n", 1_700_000_000, 500, 500, "u", "g", 0o600)])
    raw = gzip_mod.compress(inner, mtime=1_700_000_000)
    out = normalize_bytes(raw, POLICY)
    gs = parse_gzip(out)
    assert gs.mtime == EPOCH
    (m,) = parse_tar(gs.payload)
    assert (m.uid, m.uname, m.mode, m.mtime) == (0, "root", 0o644, EPOCH)


def test_prefix_field_names_normalize_and_read_back():
    name = "d" * 60 + "/" + "f" * 60  # 121 bytes: stdlib puts "d"*60 in the prefix field
    # A 121-byte directory name ("e"*120 + "/") leaves the name field empty.
    raw = stdlib_tar([
        (name, b"long\n", 1_700_000_000, 7, 7, "u", "g", 0o600),
        ("e" * 120, None, 1_700_000_000, 7, 7, "u", "g", 0o700),
    ])
    assert raw[345:405] == b"d" * 60
    for out in (normalize_bytes(raw, POLICY),
                parse_gzip(normalize_bytes(gzip_mod.compress(raw, mtime=5), POLICY)).payload):
        with tarfile.open(fileobj=io.BytesIO(out)) as tf:
            assert tf.getnames() == [name, "e" * 120]
            assert tf.extractfile(name).read() == b"long\n"
        assert [m.name for m in parse_tar(out)] == [name, "e" * 120 + "/"]


def test_normalize_bytes_idempotent():
    inner = stdlib_tar([("f", b"x", 1_700_000_000, 5, 5, "u", "g", 0o755)])
    raw = gzip_mod.compress(inner, mtime=99)
    once = normalize_bytes(raw, POLICY)
    assert normalize_bytes(once, POLICY) == once


def test_nested_lookalike_member_left_alone():
    fake = b"\x1f\x8b\x08" + b"not really gzip"
    raw = write_tar([Member(name="fake.gz", content=fake, mtime=9)])
    out = normalize_bytes(raw, POLICY)
    assert parse_tar(out)[0].content == fake


def test_top_level_corrupt_container_raises():
    with pytest.raises(FormatError):
        normalize_bytes(b"\x1f\x8b\x08" + b"not really gzip", POLICY)


def test_depth_cap_stops_descent():
    payload = gzip_mod.compress(b"core", mtime=77)
    for _ in range(MAX_NESTING + 1):
        payload = gzip_mod.compress(payload, mtime=77)
    out = normalize_bytes(payload, POLICY)
    # walk down: the normalized levels have mtime 0, the innermost kept 77
    level = out
    mtimes = []
    for _ in range(MAX_NESTING + 2):
        gs = parse_gzip(level)
        mtimes.append(gs.mtime)
        level = gs.payload
    assert gs.payload == b"core"
    assert mtimes[-1] == 77
    assert all(t == min(77, EPOCH) for t in mtimes[:-1])


def test_normalize_auto_reads_files(tmp_path):
    raw = stdlib_tar([("a", b"x", 1_700_000_000, 9, 9, "u", "g", 0o600)])
    src = tmp_path / "in.tar"
    src.write_bytes(raw)
    assert normalize_auto(src, POLICY) == normalize_bytes(raw, POLICY)
    with pytest.raises(FileNotFoundError):
        normalize_auto(tmp_path / "missing.tar", POLICY)
    bad = tmp_path / "bad.gz"
    bad.write_bytes(b"\x1f\x8b\x08broken")
    with pytest.raises(FormatError) as err:
        normalize_auto(bad, POLICY)
    assert "bad.gz" in str(err.value)


def test_policy_rejects_negative_epoch():
    with pytest.raises(ValidationError):
        NormalizePolicy(epoch=-1)


def test_policy_from_env():
    assert policy_from_env({}).epoch == 0
    assert policy_from_env({"SOURCE_DATE_EPOCH": "123"}).epoch == 123
    with pytest.raises(ValidationError):
        policy_from_env({"SOURCE_DATE_EPOCH": "soon"})


def test_random_convergence_same_logical_content():
    rng = random.Random(7071)
    for _ in range(25):
        files = sorted(
            {("f%d" % rng.randrange(8)): rng.randbytes(rng.randint(0, 60))
             for _ in range(rng.randint(1, 5))}.items()
        )
        raws = []
        for _ in range(2):
            order = list(files)
            rng.shuffle(order)
            raws.append(stdlib_tar([
                (n, d, rng.randrange(EPOCH, 2**31), rng.randrange(4000), rng.randrange(4000),
                 rng.choice(["a", "b"]), rng.choice(["g", "h"]),
                 rng.choice([0o600, 0o640, 0o664, 0o755]))
                for n, d in order
            ]))
        outs = {normalize_bytes(r, POLICY) for r in raws}
        assert len(outs) == 1
        assert [m.content for m in parse_tar(outs.pop())] == [d for _, d in files]

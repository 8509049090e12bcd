"""Seeded input synthesis for the four workloads, stdlib only.

Everything here runs in the orchestrating process, never in the process
that runs reprokit, so synthesis costs no set-up time and no resident
memory of the measured process. Each builder returns the files it wrote
plus the design the oracles check reprokit's outputs against.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import random
import tarfile
import time
import zipfile
from pathlib import Path

#: Clamp epoch for release-normalize; member mtimes straddle it.
NORMALIZE_EPOCH = 1_650_000_000

#: The nine fixtures, in the corpus's own order, and the cause each defect
#: is built around (the classifier's RootCause values).
FIXTURE_KINDS = (
    "control", "timestamp", "build-path", "fs-ordering", "archive-metadata",
    "randomness", "uninitialized-memory", "locale-timezone", "build-time-secret",
)
DESIGNED_CAUSES = {
    "timestamp": "timestamp",
    "build-path": "build_path",
    "fs-ordering": "fs_ordering",
    "archive-metadata": "archive_metadata",
    "randomness": "randomness",
    "uninitialized-memory": "uninitialized_memory",
    "locale-timezone": "locale_or_timezone",
    "build-time-secret": "randomness",
}

#: Six letters each, so member sizes, and with them memory, do not vary by seed.
_WORDS = (
    "basket", "candle", "dragon", "falcon", "garden", "harbor", "indigo", "jigsaw",
    "kettle", "lagoon", "meadow", "nickel", "orchid", "pepper", "quartz", "rocket",
    "saddle", "timber", "velvet", "walnut", "yellow", "zephyr", "almond", "breeze",
    "canyon", "copper", "desert", "forest", "glider", "island",
)

# Release make-up. Sizes are fixed; only contents depend on the seed.
IDENTICAL_MEMBERS = 300
IDENTICAL_LINES = 40
FILELIST_LINES = 8000
BLOB_EQUAL_BYTES = 512 << 10
BLOB_EQUAL_FLIPS = 24
BLOB_UNEQUAL_BYTES = 384 << 10
BLOB_INSERT_BYTES = 96
RECORD_BYTES = 64 << 10
INNER_MEMBERS = 12
INNER_BLOB_BYTES = 256 << 10
META_PAIR_MEMBERS = 60


# -- release archives --------------------------------------------------------


def _words_line(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(n))


def _text(rng: random.Random, lines: int) -> bytes:
    return "".join(_words_line(rng, 8) + "\n" for _ in range(lines)).encode()


def _nonzero_bytes(rng: random.Random, n: int) -> bytes:
    return rng.randbytes(n).replace(b"\x00", b"\x5a")


def _flip_equal(rng: random.Random, data: bytes, flips: int) -> tuple[bytes, list[int]]:
    """Flip bytes at spread-out offsets to other nonzero values."""
    out = bytearray(data)
    step = len(data) // flips
    offsets = sorted(i * step + rng.randrange(step) for i in range(flips))
    for off in offsets:
        out[off] = out[off] + 1 if out[off] != 255 else 1
    return bytes(out), offsets


def _tar(members: list[tuple[str, bytes, int, int, str]]) -> bytes:
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w", format=tarfile.USTAR_FORMAT) as tf:
        for name, data, mtime, uid, uname in members:
            info = tarfile.TarInfo(name)
            info.size = len(data)
            info.mtime = mtime
            info.mode = 0o644
            info.uid = info.gid = uid
            info.uname = info.gname = uname
            tf.addfile(info, io.BytesIO(data))
    return buf.getvalue()


def _zip(members: list[tuple[str, bytes, int, int, str]]) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", compression=zipfile.ZIP_DEFLATED) as zf:
        for name, data, mtime, _uid, _uname in members:
            info = zipfile.ZipInfo(name, date_time=time.gmtime(mtime)[:6])
            info.external_attr = 0o644 << 16
            info.create_system = 3
            info.compress_type = zipfile.ZIP_DEFLATED
            zf.writestr(info, data, compresslevel=6)
    return buf.getvalue()


def _gz(payload: bytes, mtime: int) -> bytes:
    return gzip.compress(payload, compresslevel=6, mtime=mtime)


def _defect_pair(rng: random.Random, outer: str) -> dict:
    """One release pair: identical members plus one member per designed defect."""
    base_mtime = NORMALIZE_EPOCH + 86_400
    old_mtime = NORMALIZE_EPOCH - 86_400 * 30
    first: list[tuple[str, bytes, int, int, str]] = []
    second: list[tuple[str, bytes, int, int, str]] = []
    design: dict[str, str] = {}
    ranged: dict[str, dict] = {}

    def both(name, data, mtime=base_mtime):
        first.append((name, data, mtime, 1000, "builder"))
        second.append((name, data, mtime, 1000, "builder"))

    def differ(name, a, b, cause, mtime=base_mtime):
        first.append((name, a, mtime, 1000, "builder"))
        second.append((name, b, mtime, 1000, "builder"))
        design[name] = cause

    for i in range(IDENTICAL_MEMBERS):
        both(f"pkg/src/{rng.choice(_WORDS)}_{i:03d}.py", _text(rng, IDENTICAL_LINES),
             old_mtime if i % 2 else base_mtime)

    y1, y2 = rng.randrange(2019, 2021), rng.randrange(2022, 2024)
    changelog = _text(rng, 200)
    differ(
        "pkg/CHANGELOG",
        changelog + f"Built: {y1}-0{rng.randrange(1, 10)}-1{rng.randrange(10)} 12:26:40\n".encode(),
        changelog + f"Built: {y2}-0{rng.randrange(1, 10)}-2{rng.randrange(10)} 21:46:40\n".encode(),
        "timestamp",
    )
    head, tail = _text(rng, 150), _text(rng, 150)
    leaf = rng.choice(_WORDS) + ".c"
    differ(
        "pkg/build.log",
        head + f"compiled /build/{rng.choice(_WORDS)}-first/src/{leaf} ok\n".encode() + tail,
        head + f"compiled /tmp/{rng.choice(_WORDS)}-second-tree/src/{leaf} ok\n".encode() + tail,
        "build_path",
    )
    names = sorted({
        "usr/share/pkg/" + "-".join(rng.choice(_WORDS) for _ in range(3)) + ".dat"
        for _ in range(FILELIST_LINES * 2)
    })[:FILELIST_LINES]
    shuffled = list(names)
    rng.shuffle(shuffled)
    differ("pkg/filelist.txt", ("\n".join(names) + "\n").encode(),
           ("\n".join(shuffled) + "\n").encode(), "fs_ordering")
    notes = _text(rng, 20)
    differ(
        "pkg/locale.txt",
        notes + b"release month: March\nutc offset: +0000\n",
        notes + "release month: mars\nutc offset: +1400\n".encode(),
        "locale_or_timezone",
    )
    differ(
        "pkg/token.txt",
        b"endpoint = local\nsession = " + rng.randbytes(16).hex().encode() + b"\n",
        b"endpoint = local\nsession = " + rng.randbytes(16).hex().encode() + b"\n",
        "randomness",
    )
    record = bytearray(_nonzero_bytes(rng, RECORD_BYTES))
    pad = rng.randrange(1024, RECORD_BYTES - 1024)
    record[pad:pad + 16] = b"\x00" * 16
    garbage = bytearray(record)
    garbage[pad:pad + 16] = _nonzero_bytes(rng, 16)
    differ("pkg/record.bin", bytes(record), bytes(garbage), "uninitialized_memory")
    ranged["pkg/record.bin"] = {"flips": list(range(pad, pad + 16))}
    blob = _nonzero_bytes(rng, BLOB_EQUAL_BYTES)
    flipped, offsets = _flip_equal(rng, blob, BLOB_EQUAL_FLIPS)
    differ("pkg/blob.bin", blob, flipped, "unknown")
    ranged["pkg/blob.bin"] = {"flips": offsets}
    blob2 = _nonzero_bytes(rng, BLOB_UNEQUAL_BYTES)
    at = rng.randrange(BLOB_UNEQUAL_BYTES // 4, 3 * BLOB_UNEQUAL_BYTES // 4)
    differ("pkg/blob2.bin", blob2,
           blob2[:at] + _nonzero_bytes(rng, BLOB_INSERT_BYTES) + blob2[at:], "unknown")
    ranged["pkg/blob2.bin"] = {"insert_at": at, "insert_len": BLOB_INSERT_BYTES}
    meta = _text(rng, 30)
    first.append(("pkg/meta.txt", meta, base_mtime, 1000, "builder"))
    second.append(("pkg/meta.txt", meta, base_mtime + 3600, 2000, "other"))
    design["pkg/meta.txt"] = "archive_metadata"

    inner_first, inner_second = [], []
    for i in range(INNER_MEMBERS):
        entry = (f"inner/part_{i:02d}.txt", _text(rng, 30), base_mtime, 0, "root")
        inner_first.append(entry)
        inner_second.append(entry)
    inner_first.append(("inner/VERSION", b"inner library built Mar 15 2022\n",
                        base_mtime, 0, "root"))
    inner_second.append(("inner/VERSION", b"inner library built Sep 13 2020\n",
                         base_mtime, 0, "root"))
    iblob = _nonzero_bytes(rng, INNER_BLOB_BYTES)
    iflipped, ioffsets = _flip_equal(rng, iblob, 8)
    inner_first.append(("inner/data.bin", iblob, base_mtime, 0, "root"))
    inner_second.append(("inner/data.bin", iflipped, base_mtime, 0, "root"))
    inner_mtime = base_mtime - 7
    both_inner = "pkg/lib/inner.tar.gz"
    first.append((both_inner, _gz(_tar(inner_first), inner_mtime), base_mtime, 1000, "builder"))
    second.append((both_inner, _gz(_tar(inner_second), inner_mtime), base_mtime, 1000, "builder"))
    inner_prefix = both_inner + "!data!"
    design[inner_prefix + "inner/VERSION"] = "timestamp"
    design[inner_prefix + "inner/data.bin"] = "unknown"
    ranged[inner_prefix + "inner/data.bin"] = {"flips": ioffsets}

    if outer == "zip":
        a, b, name, root = _zip(first), _zip(second), "release.zip", ""
    else:
        gz_mtime = base_mtime + 60
        a = _gz(_tar(first), gz_mtime)
        b = _gz(_tar(second), gz_mtime)
        name, root = "release.tar.gz", "data!"
    return {
        "name": name,
        "first": a,
        "second": b,
        "findings": {(root + k, v) for k, v in design.items()},
        "ranged": {root + k: v for k, v in ranged.items()},
        "metadata_only": False,
    }


def _metadata_pair(rng: random.Random) -> dict:
    """Same files, different order, ownership and times: normalizes to one archive."""
    mtime = NORMALIZE_EPOCH + 5000
    members = [(f"share/doc/{rng.choice(_WORDS)}_{i:02d}.txt", _text(rng, 20))
               for i in range(META_PAIR_MEMBERS)]
    first = [(n, d, mtime, 1000, "alice") for n, d in members]
    second = [(n, d, mtime + 777, 1001, "bob") for n, d in reversed(members)]
    findings = {("data!" + n, "archive_metadata") for n, _ in members}
    # The gzip header times differ too, and the inner tar's member order.
    findings.add(("data", "archive_metadata"))
    findings.add(("data", "fs_ordering"))
    return {
        "name": "docs.tar.gz",
        "first": _gz(_tar(first), mtime),
        "second": _gz(_tar(second), mtime + 999),
        "findings": findings,
        "ranged": {},
        "metadata_only": True,
    }


def release_family(seed: int) -> list[dict]:
    """Three defect pairs (tar.gz, zip, tar.gz) and one metadata-only pair."""
    rng = random.Random(seed)
    return [
        _defect_pair(rng, "tar.gz"),
        _defect_pair(rng, "zip"),
        _defect_pair(rng, "tar.gz"),
        _metadata_pair(rng),
    ]


def write_family(family: list[dict], root: Path) -> list[tuple[Path, Path]]:
    paths = []
    for i, pair in enumerate(family):
        pa = root / f"pair{i}" / "first" / pair["name"]
        pb = root / f"pair{i}" / "second" / pair["name"]
        for path, data in ((pa, pair["first"]), (pb, pair["second"])):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        paths.append((pa, pb))
    return paths


def prefix_name_archive() -> bytes:
    """A small USTAR archive whose one member name lives in the prefix field.

    It is the same on every seed: normalize fails on it every time.
    """
    # 104 bytes: tarfile's USTAR writer moves the directory part to the prefix.
    name = "pkg/" + "nested-directory-" * 5 + "deep/readme.txt"
    return _tar([(name, b"prefix-split member name\n", NORMALIZE_EPOCH + 10, 1000, "builder")])


# -- consensus artifacts -----------------------------------------------------

#: Releases and their artifact sizes, 1 KiB to 64 MiB.
RELEASES = (
    ("1.0", (1 << 10, 64 << 10, 4 << 20, 64 << 20)),
    ("1.1", (16 << 10, 1 << 20, 16 << 20)),
)
BUILDERS = 12


def consensus_inputs(seed: int, root: Path) -> dict:
    """Artifacts (honest and tampered copies), builder keys, and who lies.

    Each artifact has 0 to 6 of the 12 builders attesting the tampered
    copy's checksum, so the verdict after each submission ranges over
    trusted, rejected and inconclusive.
    """
    rng = random.Random(seed)
    builders = [f"rebuilder-{i:02d}" for i in range(BUILDERS)]
    keys = {b: rng.randbytes(32) for b in builders}
    (root / "keys").mkdir(parents=True)
    for b, key in keys.items():
        (root / "keys" / f"{b}.key").write_bytes(key)
    releases = []
    for version, sizes in RELEASES:
        honest_dir = root / version / "honest"
        tampered_dir = root / version / "tampered"
        honest_dir.mkdir(parents=True)
        tampered_dir.mkdir(parents=True)
        artifacts = []
        for j, size in enumerate(sizes):
            name = f"pkg-{version}-part{j}.bin"
            data = bytearray(rng.randbytes(size))
            (honest_dir / name).write_bytes(data)
            good = hashlib.sha256(data).hexdigest()
            pos = rng.randrange(size)
            data[pos] ^= 0xFF
            (tampered_dir / name).write_bytes(data)
            bad = hashlib.sha256(data).hexdigest()
            del data
            liars = set(rng.sample(builders, rng.randrange(0, 7)))
            artifacts.append({"name": name, "size": size, "sha256": good,
                              "tampered_sha256": bad, "liars": sorted(liars)})
        order = list(builders)
        rng.shuffle(order)
        releases.append({"version": version, "honest": honest_dir,
                         "tampered": tampered_dir, "artifacts": artifacts,
                         "order": order})
    return {"builders": builders, "releases": releases}


def corpus_order(seed: int) -> list[tuple[str, str]]:
    """The 18 checks (nine fixtures, as generated and remediated) in seeded order."""
    ops = [(variant, kind) for variant in ("orig", "fixed") for kind in FIXTURE_KINDS]
    random.Random(seed).shuffle(ops)
    return ops

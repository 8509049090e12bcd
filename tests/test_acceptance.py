"""Top-level acceptance gate.

Each criterion prints one `[acceptance] criterion N (<name>): PASS|FAIL`
line directly to the real stdout so the summary survives output capture.
"""

from __future__ import annotations

import contextlib
import difflib
import gzip as gzip_mod
import hashlib
import io
import itertools
import random
import sys
import tarfile
import time
import zipfile

import pytest

from reprokit import cli
from reprokit.attestation import (
    Attestation,
    ChecksumEntry,
    DependencyPin,
    make_attestation,
    parse_buildinfo,
    serialize_buildinfo,
)
from reprokit.classify import RootCause, classify, primary_finding
from reprokit.compare import (
    ByteRanges,
    MetaDiff,
    Status,
    TextDiff,
    compare_bytes,
)
from reprokit.consensus import ConsensusTally, Decision, verdict
from reprokit.fixtures import (
    ALL_KINDS,
    DESIGNED_CAUSES,
    FixtureKind,
    generate_all,
    remediate_fixture,
)
from reprokit.formats import Member, parse_gzip, parse_tar, parse_zip, write_gzip, write_tar
from reprokit.normalize import NormalizePolicy, normalize_bytes
from reprokit.runner import double_build


_CAPTURE_MANAGER = [None]


@pytest.fixture(autouse=True)
def _route_emit(request):
    _CAPTURE_MANAGER[0] = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _emit(line: str) -> None:
    manager = _CAPTURE_MANAGER[0]
    if manager is not None:
        with manager.global_and_fixture_disabled():
            sys.stdout.write(line + "\n")
            sys.stdout.flush()
    else:
        sys.stdout.write(line + "\n")
        sys.stdout.flush()


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        _emit(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    _emit(f"[acceptance] criterion {number} ({name}): PASS")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    return generate_all(root), root


@pytest.fixture(scope="module")
def corpus_verdicts(corpus, tmp_path_factory):
    reqs, _ = corpus
    staging = tmp_path_factory.mktemp("corpus-stage")
    return {
        kind: double_build(req, staging_root=staging / kind.value)
        for kind, req in reqs.items()
    }


def test_criterion_1_corpus_detection(corpus, tmp_path):
    with criterion(1, "corpus detection"):
        reqs, _ = corpus
        start = time.monotonic()
        exit_codes = {}
        for kind, req in reqs.items():
            exit_codes[kind] = cli.main([
                "check", str(req.source_dir),
                "--staging", str(tmp_path / f"stage-{kind.value}"),
            ])
        elapsed = time.monotonic() - start
        assert exit_codes[FixtureKind.CONTROL] == 0
        for kind in ALL_KINDS:
            if kind is not FixtureKind.CONTROL:
                assert exit_codes[kind] == 1, kind
        assert elapsed < 180, f"corpus checks took {elapsed:.1f}s"


def test_criterion_2_classifier_accuracy(corpus_verdicts):
    with criterion(2, "classifier accuracy"):
        hits, misses = 0, []
        for kind, designed in DESIGNED_CAUSES.items():
            v = corpus_verdicts[kind]
            findings = []
            for name in v.mismatched_files:
                a = (v.first.artifacts / name).read_bytes()
                b = (v.second.artifacts / name).read_bytes()
                findings.extend(classify(compare_bytes(a, b, path=name)))
            primary = primary_finding(findings)
            if primary is not None and primary.cause is designed:
                hits += 1
            else:
                misses.append(kind.value)
        assert hits == 8, f"only {hits}/8 designed causes matched; missed {misses}"


def test_criterion_3_remediation_soundness(tmp_path):
    with criterion(3, "remediation soundness"):
        reqs = generate_all(tmp_path / "corpus")
        for kind, req in reqs.items():
            remediate_fixture(kind, req.source_dir)
            code = cli.main([
                "check", str(req.source_dir),
                "--staging", str(tmp_path / f"stage-{kind.value}"),
            ])
            assert code == 0, kind


def _stdlib_tar(entries) -> bytes:
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w", format=tarfile.USTAR_FORMAT) as tf:
        for name, data, meta in entries:
            info = tarfile.TarInfo(name)
            info.size = len(data)
            info.mtime, info.uid, info.gid = meta["mtime"], meta["uid"], meta["gid"]
            info.uname, info.gname, info.mode = meta["uname"], meta["gname"], meta["mode"]
            tf.addfile(info, io.BytesIO(data))
    return buf.getvalue()


def _stdlib_zip(entries) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, data, meta in entries:
            info = zipfile.ZipInfo(name, meta["date_time"])
            info.external_attr = meta["mode"] << 16
            info.compress_type = meta["method"]
            zf.writestr(info, data)
        zf.comment = meta.get("comment", b"")
    return buf.getvalue()


def _stdlib_gzip(payload: bytes, meta) -> bytes:
    buf = io.BytesIO()
    with gzip_mod.GzipFile(
        filename=meta["filename"], mode="wb", fileobj=buf,
        compresslevel=meta["level"], mtime=meta["mtime"],
    ) as gz:
        gz.write(payload)
    return buf.getvalue()


EPOCH = 1_600_000_000


def _random_content_map(rng: random.Random) -> dict[str, bytes]:
    names = rng.sample(
        ["alpha.txt", "beta.bin", "gamma.dat", "delta.cfg", "readme"],
        k=rng.randint(1, 4),
    )
    return {name: rng.randbytes(rng.randint(0, 120)) for name in names}


def _random_tar_meta(rng: random.Random) -> dict:
    return {
        "mtime": rng.randrange(EPOCH, 2**31),
        "uid": rng.randrange(0, 4000),
        "gid": rng.randrange(0, 4000),
        "uname": rng.choice(["root", "alice", "builder"]),
        "gname": rng.choice(["root", "users", "staff"]),
        "mode": rng.choice([0o600, 0o640, 0o644, 0o664, 0o755]),
    }


def _random_zip_meta(rng: random.Random) -> dict:
    return {
        "date_time": (
            rng.randint(2021, 2089), rng.randint(1, 12), rng.randint(1, 28),
            rng.randint(0, 23), rng.randint(0, 59), rng.randint(0, 58),
        ),
        "mode": rng.choice([0o600, 0o644, 0o664, 0o755]),
        "method": rng.choice([zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED]),
        "comment": rng.choice([b"", b"built on ci-worker-7"]),
    }


def _random_gzip_meta(rng: random.Random) -> dict:
    return {
        "mtime": rng.randrange(EPOCH, 2**31),
        "filename": rng.choice([None, "payload.tar", "data.bin"]),
        "level": rng.randint(1, 9),
    }


def test_criterion_4_normalizer_convergence():
    with criterion(4, "normalizer convergence"):
        policy = NormalizePolicy(epoch=EPOCH)
        rng = random.Random(20200913)
        rounds = 200

        def check_case(variant_a: bytes, variant_b: bytes, content) -> None:
            na, nb = normalize_bytes(variant_a, policy), normalize_bytes(variant_b, policy)
            assert na == nb
            assert normalize_bytes(na, policy) == na
            assert content(na) == content(variant_a)

        for _ in range(rounds):
            files = _random_content_map(rng)
            ordered = list(files.items())

            def tar_variant():
                order = list(ordered)
                rng.shuffle(order)
                return _stdlib_tar([(n, d, _random_tar_meta(rng)) for n, d in order])

            check_case(
                tar_variant(), tar_variant(),
                lambda data: {m.name: m.content for m in parse_tar(data)},
            )

        for _ in range(rounds):
            payload = rng.randbytes(rng.randint(0, 400))
            check_case(
                _stdlib_gzip(payload, _random_gzip_meta(rng)),
                _stdlib_gzip(payload, _random_gzip_meta(rng)),
                lambda data: parse_gzip(data).payload,
            )

        for _ in range(rounds):
            files = _random_content_map(rng)
            ordered = list(files.items())

            def zip_variant():
                order = list(ordered)
                rng.shuffle(order)
                return _stdlib_zip([(n, d, _random_zip_meta(rng)) for n, d in order])

            check_case(
                zip_variant(), zip_variant(),
                lambda data: {m.name: m.content for m in parse_zip(data)},
            )


def _random_attestation(rng: random.Random) -> Attestation:
    def token(k: int) -> str:
        return "".join(rng.choices("abcdefghijklmnopqrstuvwxyz0123456789", k=k))

    n_files = rng.randint(0, 4)
    names = sorted({f"{token(6)}_{i}.deb" for i in range(n_files)})
    checksums = [
        ChecksumEntry(
            filename=name,
            size=rng.randrange(0, 10**9),
            sha1=hashlib.sha1(f"{name}|{rng.random()}".encode()).hexdigest(),
            sha256=hashlib.sha256(f"{name}|{rng.random()}".encode()).hexdigest(),
        )
        for name in names
    ]
    deps = [
        DependencyPin(name=f"lib{token(5)}{i}", version=f"{rng.randint(0, 9)}.{token(3)}")
        for i in range(rng.randint(0, 5))
    ]
    value_chars = "abc XYZ0123-_/.,;"
    env = {
        f"VAR_{token(4).upper()}{i}": "".join(
            rng.choices(value_chars, k=rng.randint(0, 18))
        ).strip()
        for i in range(rng.randint(0, 6))
    }
    return make_attestation(
        source=token(rng.randint(1, 12)),
        version=f"{rng.randint(0, 99)}.{token(4)}",
        architecture=rng.choice(["all", "amd64", "arm64"]),
        checksums=checksums,
        depends=deps,
        environment=env,
        builder_id=f"rebuilder-{token(6)}",
    )


def test_criterion_5_attestation_round_trip():
    with criterion(5, "attestation round-trip"):
        rng = random.Random(1598862579)
        for _ in range(1000):
            att = _random_attestation(rng)
            wire = serialize_buildinfo(att)
            parsed = parse_buildinfo(wire)
            assert parsed == att
            assert serialize_buildinfo(parsed) == wire

        files = [
            ("black_20.8b1-1.dsc", 2584, "9915459ae7a1a5c3efb984d7e5472f7976e996b1"),
            ("black_20.8b1-1_all.deb", 111096, "14bfd3011b795f85edbc8cc4dc034a91cfaa9bcd"),
            ("python-black-doc_20.8b1-1_all.deb", 285684,
             "69c3d4ae7115c51e7b00befe8b4afd5963601d66"),
        ]
        sha1_lines = "".join(f"  {sha1} {size} {name}\n" for name, size, sha1 in files)
        sha256_lines = "".join(
            f"  {hashlib.sha256(name.encode()).hexdigest()} {size} {name}\n"
            for name, size, _ in files
        )
        golden = (
            "Source: black\n"
            "Version: 20.8b1-1\n"
            "Checksums-Sha1:\n" + sha1_lines +
            "Checksums-Sha256:\n" + sha256_lines +
            "Build-Architecture: amd64\n"
            "Installed-Build-Depends:\n"
            " dpkg-dev (= 1.20.5)\n"
            " gcc (= 4:10.2.0-1)\n"
            " python3 (= 3.8.6-1)\n"
            "Environment:\n"
            ' DEB_BUILD_OPTIONS="parallel=4"\n'
            ' LANG="C.UTF-8"\n'
            ' SOURCE_DATE_EPOCH="1598862579"\n'
            "Builder-Id: rebuilder-01\n"
        ).encode("utf-8")
        att = parse_buildinfo(golden)
        assert att.source == "black"
        assert att.version == "20.8b1-1"
        assert att.architecture == "amd64"
        assert att.checksum_for("black_20.8b1-1.dsc").sha1 == files[0][2]
        assert att.checksum_for("black_20.8b1-1_all.deb").size == 111096
        assert DependencyPin(name="gcc", version="4:10.2.0-1") in att.depends
        assert att.builder_id == "rebuilder-01"
        assert serialize_buildinfo(att) == golden


def test_criterion_6_consensus_oracle_equivalence():
    with criterion(6, "consensus oracle equivalence"):
        H, D = (hashlib.sha256(s).hexdigest() for s in (b"honest", b"divergent"))

        def tally_of(counts):
            return ConsensusTally(
                artifact="pkg.deb", counts=counts, total_builders=sum(counts.values())
            )

        def oracle(counts, local):
            total = sum(counts.values())
            winners = [
                d for d, n in counts.items()
                if 2 * n >= total and all(m < n for x, m in counts.items() if x != d)
            ]
            if not winners:
                return Decision.INCONCLUSIVE
            return Decision.TRUSTED if winners[0] == local else Decision.REJECTED

        cases = 0
        for n in range(1, 6):
            for assignment in itertools.product((H, D), repeat=n):
                counts = {}
                for digest in assignment:
                    counts[digest] = counts.get(digest, 0) + 1
                for local in (H, D):
                    got = verdict(tally_of(counts), local).decision
                    assert got is oracle(counts, local), (assignment, local)
                    cases += 1
        assert cases == (2 + 4 + 8 + 16 + 32) * 2

        for f in (1, 2):
            n = 2 * f + 1
            for k in range(1, f + 1):
                for compromised in itertools.combinations(range(n), k):
                    counts = {H: n - k, D: k}
                    assert verdict(tally_of(counts), H).decision is Decision.TRUSTED
                    assert verdict(tally_of(counts), D).decision is Decision.REJECTED


def _random_artifact(rng: random.Random) -> bytes:
    kind = rng.randrange(4)
    if kind == 0:
        lines = ["line %d" % rng.randrange(60) for _ in range(rng.randint(0, 10))]
        return ("\n".join(lines) + "\n").encode()
    if kind == 1:
        return rng.randbytes(rng.randint(0, 256))
    if kind == 2:
        return write_tar([
            Member(name=f"m{i}", content=rng.randbytes(rng.randint(0, 64)),
                   mtime=rng.randrange(2**30))
            for i in range(rng.randint(0, 4))
        ])
    return write_gzip(rng.randbytes(rng.randint(0, 180)), mtime=rng.randrange(2**30))


def _mirror_status(status: Status) -> Status:
    if status is Status.ONLY_IN_FIRST:
        return Status.ONLY_IN_SECOND
    if status is Status.ONLY_IN_SECOND:
        return Status.ONLY_IN_FIRST
    return status


def _check_mirrored(n1, n2) -> None:
    assert n2.path == n1.path
    assert n2.format is n1.format
    assert n2.status is _mirror_status(n1.status)
    if isinstance(n1.detail, ByteRanges):
        for r1, r2 in zip(n1.detail.ranges, n2.detail.ranges, strict=True):
            assert (r2.offset, r2.len_first, r2.len_second) == (
                r1.offset, r1.len_second, r1.len_first)
            assert (r2.first_hex, r2.second_hex) == (r1.second_hex, r1.first_hex)
            assert (r2.first_zero, r2.second_zero) == (r1.second_zero, r1.first_zero)
    elif isinstance(n1.detail, MetaDiff):
        swapped = tuple((name, b, a) for name, a, b in n1.detail.entries)
        assert n2.detail.entries == swapped
    elif isinstance(n1.detail, TextDiff):
        minus = {h[1:] for h in n1.detail.hunks if h.startswith("-")}
        plus = {h[1:] for h in n1.detail.hunks if h.startswith("+")}
        minus2 = {h[1:] for h in n2.detail.hunks if h.startswith("-")}
        plus2 = {h[1:] for h in n2.detail.hunks if h.startswith("+")}
        assert (minus2, plus2) == (plus, minus)
    else:
        assert n1.detail is None and n2.detail is None
    assert len(n1.children) == len(n2.children)
    for c1, c2 in zip(n1.children, n2.children):
        _check_mirrored(c1, c2)


def test_criterion_7_comparator_properties():
    with criterion(7, "comparator properties"):
        rng = random.Random(424242)
        for _ in range(100):
            data = _random_artifact(rng)
            node = compare_bytes(data, data)
            assert node.status is Status.SAME
            assert node.detail is None and node.children == ()

        for _ in range(100):
            a, b = _random_artifact(rng), _random_artifact(rng)
            _check_mirrored(compare_bytes(a, b), compare_bytes(b, a))

        inner_a = write_tar([Member(name="file.txt", content=b"old contents\n")])
        inner_b = write_tar([Member(name="file.txt", content=b"new contents\n")])
        node = compare_bytes(
            write_gzip(inner_a, mtime=0, filename="inner.tar"),
            write_gzip(inner_b, mtime=0, filename="inner.tar"),
            path="x.tar.gz",
        )
        leaf = node.children[0].children[0]
        assert leaf.path == "x.tar.gz!inner.tar!file.txt"
        plain = [
            line for line in difflib.unified_diff(
                ["old contents"], ["new contents"],
                fromfile="first", tofile="second", lineterm="")
            if not line.startswith(("--- ", "+++ "))
        ]
        assert list(leaf.detail.hunks) == plain


def test_criterion_8_harness_self_determinism(corpus, tmp_path, capsys):
    with criterion(8, "harness self-determinism"):
        reqs, _ = corpus
        control = reqs[FixtureKind.CONTROL]
        runs = []
        for label in ("one", "two"):
            reports = {}
            for style in ("json", "text"):
                report = tmp_path / f"report-{label}.{style}"
                code = cli.main([
                    "check", str(control.source_dir),
                    "--staging", str(tmp_path / f"stage-{label}-{style}"),
                    "--report", str(report), "--format", style,
                ])
                reports[style] = (code, report.read_bytes())
            runs.append((reports, capsys.readouterr().out))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]
        assert runs[0][0]["json"][0] == 0

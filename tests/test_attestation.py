"""Attestation model, wire format, checksums, and signatures."""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import hashlib
import itertools
import os
import random
import threading
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reprokit import attestation
from reprokit.attestation import (
    Attestation,
    ChecksumEntry,
    DependencyPin,
    checksum_file,
    compute_checksums,
    generate_signing_key,
    key_fingerprint,
    make_attestation,
    parse_buildinfo,
    parse_signed,
    public_key_for,
    serialize_buildinfo,
    serialize_signed,
    sign_attestation,
    validate_attestation,
    verify_signature,
)
from reprokit.errors import ParseError, StructuralError, ValidationError

EMPTY_SHA1 = "da39a3ee5e6b4b0d3255bfef95601890afd80709"
EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def entry_for(filename: str, data: bytes) -> ChecksumEntry:
    return ChecksumEntry(
        filename=filename,
        size=len(data),
        sha1=hashlib.sha1(data).hexdigest(),
        sha256=hashlib.sha256(data).hexdigest(),
    )


def random_attestation(rng: random.Random) -> Attestation:
    names = sorted(
        {"".join(rng.choices("abcdefghijklmnop-._", k=rng.randint(3, 12))) + ".bin"
         for _ in range(rng.randint(1, 5))}
    )
    checksums = [
        entry_for(name, rng.randbytes(rng.randint(0, 64))) for name in names
    ]
    dep_names = sorted(
        {"".join(rng.choices("abcdefghij", k=rng.randint(2, 8)))
         for _ in range(rng.randint(0, 4))}
    )
    depends = [
        DependencyPin(name=n, version=f"{rng.randint(0, 20)}.{rng.randint(0, 99)}-{rng.randint(1, 9)}")
        for n in dep_names
    ]
    env_names = sorted(
        {"".join(rng.choices("ABCDEFGH_", k=rng.randint(2, 10)))
         for _ in range(rng.randint(0, 5))}
    )
    value_chars = "abc XYZ0123-_/.,;"
    environment = [
        (n, "".join(rng.choices(value_chars, k=rng.randint(0, 12)))) for n in env_names
    ]
    return make_attestation(
        source="pkg-" + "".join(rng.choices("abcxyz", k=4)),
        version=f"{rng.randint(0, 9)}.{rng.randint(0, 99)}",
        architecture=rng.choice(["amd64", "arm64", "all"]),
        checksums=checksums,
        depends=depends,
        environment=dict(environment),
        builder_id="builder-" + "".join(rng.choices("0123456789", k=3)),
    )


def small_attestation() -> Attestation:
    return make_attestation(
        source="demo",
        version="1.0-1",
        architecture="all",
        checksums=[entry_for("a.txt", b"hello\n")],
        depends=[DependencyPin(name="gcc", version="12.2")],
        environment={"LANG": "C", "TZ": "UTC"},
        builder_id="builder-1",
    )


def test_compute_checksums_empty_file_digests(tmp_path):
    (tmp_path / "a").write_bytes(b"")
    entries = compute_checksums(tmp_path)
    assert entries == (
        ChecksumEntry(filename="a", size=0, sha1=EMPTY_SHA1, sha256=EMPTY_SHA256),
    )


def test_checksum_file_streams_large_files(tmp_path):
    data = random.Random(7).randbytes((16 << 20) + 123)
    path = tmp_path / "big.deb"
    path.write_bytes(data)
    expected = ChecksumEntry(
        filename="big.deb",
        size=len(data),
        sha1=hashlib.sha1(data).hexdigest(),
        sha256=hashlib.sha256(data).hexdigest(),
    )
    del data
    tracemalloc.start()
    try:
        entry = checksum_file(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert entry == expected
    assert peak < 4 << 20


def test_checksum_file_unreadable(tmp_path):
    with pytest.raises(OSError, match="cannot read artifact file .*absent.deb"):
        checksum_file(tmp_path / "absent.deb")


@pytest.mark.parametrize("size", [
    0, 1, attestation._HASH_CHUNK - 1, attestation._HASH_CHUNK, attestation._HASH_CHUNK + 1,
    3 * attestation._HASH_CHUNK + 7,
])
def test_checksum_file_matches_hashlib_at_chunk_edges(tmp_path, size):
    data = random.Random(size).randbytes(size)
    path = tmp_path / "pkg.deb"
    path.write_bytes(data)
    threads = threading.active_count()
    assert checksum_file(path) == ChecksumEntry(
        filename="pkg.deb",
        size=size,
        sha1=hashlib.sha1(data).hexdigest(),
        sha256=hashlib.sha256(data).hexdigest(),
    )
    assert threading.active_count() == threads


class _FailingFile:
    """A file whose read fails with EIO once ``good_reads`` reads succeeded."""

    def __init__(self, f, good_reads: int):
        self._f, self._left = f, good_reads

    def read(self, size: int) -> bytes:
        if not self._left:
            raise OSError(errno.EIO, "Input/output error")
        self._left -= 1
        return self._f.read(size)


@pytest.mark.parametrize("good_reads", [0, 1, 3])
def test_checksum_file_read_error_leaves_no_thread(tmp_path, monkeypatch, good_reads):
    path = tmp_path / "pkg.deb"
    path.write_bytes(random.Random(3).randbytes(5 * attestation._HASH_CHUNK))
    real_reader = attestation._read_artifact

    @contextlib.contextmanager
    def failing_reader(p):
        with real_reader(p) as (f, st):
            yield _FailingFile(f, good_reads), st

    monkeypatch.setattr(attestation, "_read_artifact", failing_reader)
    threads = threading.active_count()
    with pytest.raises(OSError, match="cannot read artifact file .*pkg.deb: .*Input/output error"):
        checksum_file(path)
    assert threading.active_count() == threads


@pytest.mark.parametrize("read", [attestation.artifact_size, checksum_file])
def test_artifact_readers_refuse_what_is_not_a_regular_file(read):
    with pytest.raises(StructuralError, match="^not a regular file: /dev/null$"):
        read("/dev/null")


def test_compute_checksums_sorted_by_filename(tmp_path):
    (tmp_path / "b").write_bytes(b"two")
    (tmp_path / "a").write_bytes(b"one")
    assert [e.filename for e in compute_checksums(tmp_path)] == ["a", "b"]


def test_compute_checksums_rejects_subdirectories(tmp_path):
    (tmp_path / "sub").mkdir()
    with pytest.raises(StructuralError):
        compute_checksums(tmp_path)


def test_compute_checksums_rejects_symlinks(tmp_path):
    (tmp_path / "real").write_bytes(b"x")
    (tmp_path / "link").symlink_to(tmp_path / "real")
    with pytest.raises(StructuralError):
        compute_checksums(tmp_path)


def test_compute_checksums_refuses_a_name_that_is_not_utf8_before_hashing(
    tmp_path, monkeypatch
):
    (tmp_path / "a").write_bytes(b"one")
    (tmp_path / os.fsdecode(b"b\xff")).write_bytes(b"two")

    def hash_nothing(path):
        raise AssertionError(f"hashed {path}")

    monkeypatch.setattr(attestation, "checksum_file", hash_nothing)
    with pytest.raises(StructuralError) as err:
        compute_checksums(tmp_path)
    assert str(err.value) == "artifact file name is not UTF-8: b'b\\xff'"


@settings(max_examples=300)
@given(st.lists(st.text(st.characters(blacklist_categories=("Cs",)))))
def test_code_point_order_is_utf8_byte_order(names):
    """Names that encode sort the same as strings and as UTF-8 bytes, so
    sorting and comparing them as strings gives their byte order."""
    assert sorted(names) == sorted(names, key=str.encode)


def test_make_attestation_refuses_a_filename_that_is_not_utf8():
    with pytest.raises(ValidationError, match="artifact filename must be UTF-8"):
        make_attestation(
            source="demo", version="1", architecture="all",
            checksums=[entry_for("b", b"2"), entry_for("a\udcff", b"1")],
            depends=[], environment={}, builder_id="b1",
        )


@pytest.mark.parametrize("override,message", [
    ({"source": "demo\udcff"}, "Source must be UTF-8: 'demo\\udcff'"),
    ({"version": "1\udcff"}, "Version must be UTF-8: '1\\udcff'"),
    ({"architecture": "\udcffall"}, "Build-Architecture must be UTF-8: '\\udcffall'"),
    ({"builder_id": "b\udcff"}, "Builder-Id must be UTF-8: 'b\\udcff'"),
    ({"depends": [DependencyPin("gcc", "1\udcff")]},
     "dependency version for gcc must be UTF-8: '1\\udcff'"),
    ({"environment": {"A": "x\udcff"}}, "environment value for A must be UTF-8: 'x\\udcff'"),
], ids=["source", "version", "architecture", "builder-id", "dependency-version",
        "environment-value"])
def test_make_attestation_refuses_a_string_that_is_not_utf8(override, message):
    fields = dict(source="demo", version="1", architecture="all",
                  checksums=[entry_for("a", b"1")], depends=[], environment={},
                  builder_id="b1")
    with pytest.raises(ValidationError) as err:
        make_attestation(**{**fields, **override})
    assert str(err.value) == message


def test_make_attestation_sorts_lists():
    att = make_attestation(
        source="demo",
        version="1",
        architecture="all",
        checksums=[entry_for("b", b"2"), entry_for("a", b"1")],
        depends=[DependencyPin("zlib", "1"), DependencyPin("abc", "2")],
        environment={"Z": "1", "A": "2"},
        builder_id="b1",
    )
    assert [e.filename for e in att.checksums] == ["a", "b"]
    assert [d.name for d in att.depends] == ["abc", "zlib"]
    assert [n for n, _ in att.environment] == ["A", "Z"]


def test_validate_rejects_duplicate_filenames():
    att = small_attestation()
    bad = Attestation(
        source=att.source,
        version=att.version,
        architecture=att.architecture,
        checksums=(att.checksums[0], att.checksums[0]),
        depends=att.depends,
        environment=att.environment,
        builder_id=att.builder_id,
    )
    with pytest.raises(ValidationError):
        validate_attestation(bad)


@pytest.mark.parametrize(
    "field,value",
    [
        ("source", ""),
        ("source", "demo "),
        ("version", "1.0\n"),
        ("version", "1 0"),
        ("architecture", " amd64"),
        ("builder_id", ""),
    ],
)
def test_validate_rejects_bad_scalars(field, value):
    bad = dataclasses.replace(small_attestation(), **{field: value})
    with pytest.raises(ValidationError):
        validate_attestation(bad)


# A `$` anchor also matches before one trailing newline, so a digest or
# name ending in "\n" must be rejected by matching the whole value.
@pytest.mark.parametrize("sha1", ["", "ABCD", "g" * 40, "a" * 39, "a" * 41, EMPTY_SHA1 + "\n"])
def test_validate_rejects_bad_sha1(sha1):
    entry = ChecksumEntry(filename="a", size=1, sha1=sha1, sha256="0" * 64)
    with pytest.raises(ValidationError):
        make_attestation(
            source="s", version="1", architecture="all",
            checksums=[entry], depends=[], environment={}, builder_id="b",
        )


@pytest.mark.parametrize("sha256", ["", "g" * 64, "a" * 63, EMPTY_SHA256 + "\n"])
def test_validate_rejects_bad_sha256(sha256):
    entry = ChecksumEntry(filename="a", size=1, sha1="0" * 40, sha256=sha256)
    with pytest.raises(ValidationError, match="bad sha256"):
        make_attestation(
            source="s", version="1", architecture="all",
            checksums=[entry], depends=[], environment={}, builder_id="b",
        )


@pytest.mark.parametrize("name", ["", "Has-Upper", "-leading", "sp ace", "zlib\n"])
def test_validate_rejects_bad_package_names(name):
    with pytest.raises(ValidationError):
        make_attestation(
            source="s", version="1", architecture="all",
            checksums=[entry_for("a", b"")],
            depends=[DependencyPin(name=name, version="1")],
            environment={}, builder_id="b",
        )


@pytest.mark.parametrize("version", ["", "1 2", "1\u30002", "1\n", "(1", "1)", "1(2)"])
def test_validate_rejects_dependency_versions_the_parser_cannot_read(version):
    """A version in parentheses or with whitespace would serialize to a
    ``name (= version)`` line that ``parse_buildinfo`` refuses."""
    with pytest.raises(ValidationError, match="^bad dependency version for gcc$"):
        make_attestation(
            source="s", version="1", architecture="all",
            checksums=[entry_for("a", b"")],
            depends=[DependencyPin(name="gcc", version=version)],
            environment={}, builder_id="b",
        )


@pytest.mark.parametrize("name", ["", "1ST", "HAS-DASH", "TZ\n"])
def test_validate_rejects_bad_env_names(name):
    with pytest.raises(ValidationError, match="bad environment variable name"):
        make_attestation(
            source="s", version="1", architecture="all",
            checksums=[entry_for("a", b"")],
            depends=[], environment={name: "1"}, builder_id="b",
        )


@pytest.mark.parametrize("value", ['say "hi"', "back\\slash", "new\nline"])
def test_validate_rejects_unrepresentable_env_values(value):
    with pytest.raises(ValidationError):
        make_attestation(
            source="s", version="1", architecture="all",
            checksums=[entry_for("a", b"")],
            depends=[], environment={"NAME": value}, builder_id="b",
        )


def test_serialize_exact_bytes():
    data = b"hello\n"
    expected = (
        "Source: demo\n"
        "Version: 1.0-1\n"
        "Checksums-Sha1:\n"
        f"  {hashlib.sha1(data).hexdigest()} 6 a.txt\n"
        "Checksums-Sha256:\n"
        f"  {hashlib.sha256(data).hexdigest()} 6 a.txt\n"
        "Build-Architecture: all\n"
        "Installed-Build-Depends:\n"
        " gcc (= 12.2)\n"
        "Environment:\n"
        ' LANG="C"\n'
        ' TZ="UTC"\n'
        "Builder-Id: builder-1\n"
    ).encode("utf-8")
    assert serialize_buildinfo(small_attestation()) == expected


def test_serialize_empty_lists_keep_headers():
    att = make_attestation(
        source="s", version="1", architecture="all",
        checksums=[entry_for("a", b"")], depends=[], environment={},
        builder_id="b",
    )
    text = serialize_buildinfo(att).decode("utf-8")
    assert "Installed-Build-Depends:\nEnvironment:\n" in text


def test_round_trip_random_attestations():
    rng = random.Random(20210907)
    for _ in range(100):
        att = random_attestation(rng)
        data = serialize_buildinfo(att)
        again = parse_buildinfo(data)
        assert again == att
        assert serialize_buildinfo(again) == data


def test_parse_reference_document():
    files = [
        ("black_20.8b1-1.dsc", 2584, "9915459ae7a1a5c3efb984d7e5472f7976e996b1"),
        ("black_20.8b1-1_all.deb", 111096, "14bfd3011b795f85edbc8cc4dc034a91cfaa9bcd"),
        ("python-black-doc_20.8b1-1_all.deb", 285684, "69c3d4ae7115c51e7b00befe8b4afd5963601d66"),
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
    assert len(att.checksums) == 3
    assert att.checksum_for("black_20.8b1-1.dsc").sha1 == files[0][2]
    assert att.checksum_for("black_20.8b1-1_all.deb").size == 111096
    assert DependencyPin(name="gcc", version="4:10.2.0-1") in att.depends
    assert att.env_map()["SOURCE_DATE_EPOCH"] == "1598862579"
    assert serialize_buildinfo(att) == golden


def base_lines() -> list[str]:
    return serialize_buildinfo(small_attestation()).decode("utf-8").split("\n")[:-1]


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda ls: [l for l in ls if not l.startswith("Version:")], "Version"),
        (lambda ls: ls + ["Version: 2"], "duplicate"),
        (lambda ls: ls + ["X-Custom: v"], "unknown"),
        (lambda ls: [ls[1], ls[0]] + ls[2:], "order"),
        (lambda ls: [l.replace(" 6 a.txt", " 6") for l in ls], "checksum"),
        (lambda ls: [l.replace(" 6 a.txt", " 06 a.txt") for l in ls], "size"),
    ],
)
def test_parse_rejects_malformed(mutate, needle):
    lines = mutate(base_lines())
    data = ("\n".join(lines) + "\n").encode("utf-8")
    with pytest.raises(ParseError) as err:
        parse_buildinfo(data)
    assert needle.lower() in str(err.value).lower()


# Each malformed document and the line its ParseError names (None: the
# document as a whole), with a fragment of the message.
@pytest.mark.parametrize(
    "lineno,text,line,needle",
    [
        (1, "Source: demo\r", 1, "CR line ending"),
        (1, " Source: demo", 1, "continuation line"),
        (2, "Version:1.0-1", 2, "one space"),
        (2, "Version:  1.0-1", 2, "bad scalar value"),
        (2, "Version: 1.0\xa01", None, "Version must not contain whitespace"),
        (3, "Checksums-Sha1: x", 3, "no inline value"),
        (4, "   {sha1} 6 a.txt", 4, "exactly two spaces"),
        (4, "  {sha1} 6 a\u2028.txt", 4, "must not contain whitespace"),
        (4, "  {sha1} 6 a\x1f.txt", 4, "must not contain whitespace"),
        (4, "  {sha1} 6 a\x00.txt", 4, "must not contain whitespace"),
        (4, "  {sha1} 6 dir/a.txt", 4, "basename"),
        (6, "  {sha256} 6", 6, "checksum line must be"),
        (6, "  {sha256_upper} 6 a.txt", 6, "64-char hex digest"),
        (6, "  {sha256} 06 a.txt", 6, "bad size"),
        (4, "  {sha1} \u00b2 a.txt", 4, "bad size"),
        (6, "  {sha256} 6 dir/a.txt", 6, "basename"),
        (7, "", 7, "blank line"),
        (7, "Build-Architecture all", 7, "Field: value"),
        (9, " gcc (=12.2)", 9, "dependency line"),
        (9, " gcc (= 12\u30002)", None, "bad dependency version"),
        (12, ' TZ=UTC', 12, "environment line"),
        (14, "Source: demo", 14, "duplicate field"),
        (14, "X-Custom: v", 14, "unknown field"),
    ],
)
def test_parse_error_line_numbers(lineno, text, line, needle):
    lines = base_lines()
    digests = {"sha1": lines[3].split()[0], "sha256": lines[5].split()[0]}
    digests["sha256_upper"] = digests["sha256"].upper()
    lines[lineno - 1:lineno - 1] = [text.format(**digests)]
    if lineno <= 13:
        del lines[lineno]
    with pytest.raises(ParseError) as err:
        parse_buildinfo(("\n".join(lines) + "\n").encode("utf-8"))
    assert err.value.line == line
    assert needle in str(err.value)


# Faults the line grammar lets through, each a change to a valid attestation
# that validate_attestation rejects.
_SEMANTIC_FAULTS = {
    "version whitespace": lambda a: dataclasses.replace(a, version="1.0\u30001"),
    "checksums unsorted": lambda a: dataclasses.replace(a, checksums=a.checksums[::-1]),
    "dependency name": lambda a: dataclasses.replace(
        a, depends=(DependencyPin("Gcc", "12"),) + a.depends[1:]),
    "dependency version": lambda a: dataclasses.replace(
        a, depends=a.depends[:1] + (DependencyPin("make", "4\u30002"),)),
    "depends unsorted": lambda a: dataclasses.replace(a, depends=a.depends[::-1]),
    "environment name": lambda a: dataclasses.replace(
        a, environment=a.environment[:1] + (("9TZ", "UTC"),)),
    "environment value": lambda a: dataclasses.replace(
        a, environment=(("LANG", "C\\x"),) + a.environment[1:]),
    "environment unsorted": lambda a: dataclasses.replace(a, environment=a.environment[::-1]),
}


@pytest.mark.parametrize(
    "faults",
    [(name,) for name in _SEMANTIC_FAULTS]
    + [pair for pair in itertools.combinations(_SEMANTIC_FAULTS, 2)],
    ids=" + ".join,
)
def test_parse_rejects_what_validate_rejects_with_the_same_message(faults, monkeypatch):
    att = make_attestation(
        source="demo", version="1.0", architecture="all",
        checksums=[entry_for("a.txt", b"a"), entry_for("b.txt", b"b")],
        depends=[DependencyPin("gcc", "12"), DependencyPin("make", "4")],
        environment={"LANG": "C", "TZ": "UTC"}, builder_id="builder-1",
    )
    for name in faults:
        att = _SEMANTIC_FAULTS[name](att)
    with pytest.raises(ValidationError) as expected:
        validate_attestation(att)
    with monkeypatch.context() as mp:
        mp.setattr(attestation, "validate_attestation", lambda att: None)
        data = serialize_buildinfo(att)
    with pytest.raises(ParseError) as err:
        parse_buildinfo(data)
    assert err.value.line is None
    assert str(err.value) == str(expected.value)


def test_parse_checks_each_filename_once(monkeypatch):
    att = make_attestation(
        source="demo", version="1.0", architecture="all",
        checksums=[entry_for(f"{i}.bin", b"") for i in range(5)],
        depends=[], environment={}, builder_id="builder-1",
    )
    data = serialize_buildinfo(att)
    checked = []
    check_filename = attestation._check_filename
    monkeypatch.setattr(
        attestation, "_check_filename", lambda f: (checked.append(f), check_filename(f))
    )
    assert parse_buildinfo(data) == att
    assert checked == [f"{i}.bin" for i in range(5)]


# Characters that break an invariant or the line grammar when put into a
# name, version or value: whitespace, quotes, backslashes, newlines,
# parentheses, '=', an upper-case letter and a '-'.
_ODD_CHARS = ' \t\u3000"\\\n()=B-'
_VERSIONS = st.from_regex(r"[0-9][a-z0-9.:~+-]{0,5}", fullmatch=True)
_DEP_NAMES = st.sampled_from(["gcc", "g++", "libc6", "make", "zlib"])
_ENV_NAMES = st.sampled_from(["LANG", "SOURCE_DATE_EPOCH", "TZ", "_X"])
_ENV_VALUES = st.sampled_from(["", "C", "UTC", "1598862579"])


def _keyed_lists(items):
    """Lists of ``items`` either sorted by key with each key once, or as
    drawn, where keys may be unsorted or repeated."""
    return st.lists(items, max_size=3).flatmap(lambda drawn: st.sampled_from([
        sorted({item[0]: item for item in drawn}.values(), key=lambda item: item[0].encode()),
        drawn,
    ]))


@st.composite
def _unchecked_attestations(draw):
    """Attestations with well-formed scalars and checksum entries, whose
    lists may be unsorted or repeat a key, and in which up to two of the
    Version, dependency and environment strings are emptied or given one
    character from ``_ODD_CHARS``."""
    filenames = draw(_keyed_lists(st.tuples(st.sampled_from(["a.txt", "b.txt", "c.txt"]))))
    version = [draw(_VERSIONS)]
    depends = [list(pair) for pair in draw(_keyed_lists(st.tuples(_DEP_NAMES, _VERSIONS)))]
    environment = [list(pair) for pair in draw(_keyed_lists(st.tuples(_ENV_NAMES, _ENV_VALUES)))]
    slots = [(version, 0)] + [(pair, i) for pair in depends + environment for i in (0, 1)]
    for _ in range(draw(st.integers(0, 2))):
        holder, i = draw(st.sampled_from(slots))
        text = holder[i]
        at = draw(st.integers(0, len(text)))
        holder[i] = draw(st.sampled_from(["", *(text[:at] + c + text[at:] for c in _ODD_CHARS)]))
    return Attestation(
        source="demo",
        version=version[0],
        architecture="all",
        checksums=tuple(entry_for(name, name.encode()) for (name,) in filenames),
        depends=tuple(DependencyPin(name, dep_version) for name, dep_version in depends),
        environment=tuple((name, value) for name, value in environment),
        builder_id="builder-1",
    )


def _breaks_the_line_grammar(att: Attestation) -> bool:
    """True iff some field's text cannot go through the line grammar as it
    is: these are the faults a parse reports with a line number."""
    return (
        att.version != att.version.strip() or not att.version or "\n" in att.version
        or any(
            not dep.name or any(c in dep.name for c in " \n")
            or not dep.version or any(c in dep.version for c in " ()\n")
            for dep in att.depends
        )
        or any(
            not name or any(c in name for c in "=\n") or any(c in value for c in '"\n')
            for name, value in att.environment
        )
    )


@settings(max_examples=400, deadline=None)
@given(_unchecked_attestations())
@example(small_attestation())
@example(dataclasses.replace(small_attestation(), version="1.0 1"))
@example(dataclasses.replace(small_attestation(), depends=(DependencyPin("gcc", "(0"),)))
@example(dataclasses.replace(small_attestation(), environment=(("TZ", "UTC"), ("TZ", 'U"C'))))
def test_parse_accepts_exactly_what_validate_accepts(att):
    """The generated form of the fixed fault table above: whatever the lists
    hold, a parse of the unchecked serialization agrees with
    ``validate_attestation``, and a fault the line grammar cannot see is
    reported with no line and ``validate_attestation``'s exact message."""
    try:
        validate_attestation(att)
        expected = None
    except ValidationError as err:
        expected = str(err)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(attestation, "validate_attestation", lambda att: None)
        data = serialize_buildinfo(att)
    try:
        parsed = parse_buildinfo(data)
    except ParseError as err:
        assert expected is not None
        assert (err.line is not None) == _breaks_the_line_grammar(att)
        if err.line is None:
            assert str(err) == expected
    else:
        assert expected is None
        assert parsed == att


def _has_whitespace_oracle(text: str) -> bool:
    """The per-character whitespace test the attestation checks used before."""
    return any(c.isspace() for c in text)


@settings(max_examples=500, deadline=None)
@given(st.text(st.characters(codec=None, exclude_categories=())))
@example("")
@example("\x1c\x1d\x1e\x1f")
@example("a\x85b")
@example("\xa0")
@example("pkg\u2028deb")
@example("\u3000")
@example("a\u200bb")  # zero-width space is not whitespace to either
def test_is_token_matches_the_per_character_oracle(text):
    assert attestation._is_token(text) == (text != "" and not _has_whitespace_oracle(text))


def test_is_token_matches_the_oracle_on_every_code_point():
    for cp in range(0x110000):
        c = chr(cp)
        if attestation._is_token(c) == c.isspace():
            pytest.fail(f"U+{cp:04X}: the predicates disagree")


def test_parse_requires_trailing_newline():
    data = serialize_buildinfo(small_attestation())
    with pytest.raises(ParseError):
        parse_buildinfo(data[:-1])


def test_parse_rejects_carriage_returns_and_blank_lines():
    data = serialize_buildinfo(small_attestation())
    with pytest.raises(ParseError):
        parse_buildinfo(data.replace(b"\n", b"\r\n", 1))
    with pytest.raises(ParseError):
        parse_buildinfo(data.replace(b"Build-Architecture", b"\nBuild-Architecture", 1))


def test_parse_rejects_disagreeing_digest_sections():
    data = serialize_buildinfo(small_attestation())
    swapped = data.replace(b" 6 a.txt\n", b" 7 a.txt\n", 1)
    with pytest.raises(ParseError):
        parse_buildinfo(swapped)


def test_parse_rejects_unsorted_checksums():
    att = small_attestation()
    two = make_attestation(
        source=att.source, version=att.version, architecture=att.architecture,
        checksums=[entry_for("a.txt", b"1"), entry_for("b.txt", b"2")],
        depends=[], environment={}, builder_id="b1",
    )
    text = serialize_buildinfo(two).decode("utf-8")
    lines = text.split("\n")
    sha1_start = lines.index("Checksums-Sha1:") + 1
    lines[sha1_start], lines[sha1_start + 1] = lines[sha1_start + 1], lines[sha1_start]
    sha256_start = lines.index("Checksums-Sha256:") + 1
    lines[sha256_start], lines[sha256_start + 1] = lines[sha256_start + 1], lines[sha256_start]
    with pytest.raises(ParseError):
        parse_buildinfo("\n".join(lines).encode("utf-8"))


def test_sign_verify_truth_table():
    att = small_attestation()
    private_key, public_key = generate_signing_key()
    other_private, other_public = generate_signing_key()
    sa = sign_attestation(att, private_key)
    assert verify_signature(sa, public_key) is True
    tampered = parse_signed(
        serialize_signed(sa).replace(b"Source: demo", b"Source: demq")
    )
    assert verify_signature(tampered, public_key) is False
    assert verify_signature(sa, other_public) is False


def test_verify_signature_is_total_on_garbage():
    att = small_attestation()
    private_key, public_key = generate_signing_key()
    sa = sign_attestation(att, private_key)
    from reprokit.attestation import SignedAttestation

    garbage = SignedAttestation(
        body=sa.body, signature=b"\x01\x02", public_key_fingerprint=sa.public_key_fingerprint
    )
    assert verify_signature(garbage, public_key) is False
    assert verify_signature(sa, b"not a key") is False


def test_signed_container_round_trip():
    att = small_attestation()
    private_key, public_key = generate_signing_key()
    sa = sign_attestation(att, private_key)
    data = serialize_signed(sa)
    again = parse_signed(data)
    assert again == sa
    assert serialize_signed(again) == data
    assert parse_buildinfo(again.body) == att


def test_parse_signed_rejects_missing_marker_and_bad_hex():
    att = small_attestation()
    private_key, _ = generate_signing_key()
    data = serialize_signed(sign_attestation(att, private_key))
    with pytest.raises(ParseError):
        parse_signed(data.replace(b"-----SIGNATURE-----", b"----signature----"))
    with pytest.raises(ParseError):
        parse_signed(data.replace(b"-----SIGNATURE-----\n", b"-----SIGNATURE-----\nzz\n", 1))


def test_key_fingerprint_and_public_derivation():
    private_key, public_key = generate_signing_key()
    assert len(private_key) == 32 and len(public_key) == 32
    assert public_key_for(private_key) == public_key
    assert key_fingerprint(public_key) == hashlib.sha256(public_key).hexdigest()
    att = small_attestation()
    sa = sign_attestation(att, private_key)
    assert sa.public_key_fingerprint == key_fingerprint(public_key)

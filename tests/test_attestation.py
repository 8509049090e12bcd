"""Attestation model, wire format, checksums, and signatures."""

from __future__ import annotations

import dataclasses
import hashlib
import random
import tracemalloc

import pytest

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

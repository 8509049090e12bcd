"""Build attestations: the record binding source and environment to checksums.

An :class:`Attestation` is the in-memory form of a ``.buildinfo``-style file.
The wire format is deliberately strict and canonical: fixed field order, LF
line endings, exact indentation, sorted list fields, and no unknown fields.
Equal attestations therefore serialize to byte-equal files, which is what
makes them usable as consensus inputs.

Signing uses Ed25519 detached signatures (64 bytes) over the canonical
serialization. A builder's key fingerprint is the lowercase hex SHA-256 of
the raw 32-byte public key. The Ed25519 backend, ``cryptography``, is
imported on first key use, so code that never generates, derives, signs
with or verifies against a key does not load it.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import re
import stat
import threading
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError, ReproError, StructuralError, ValidationError

_SHA1_RE = re.compile(r"[0-9a-f]{40}")
#: A lowercase hex SHA-256 digest, matched with ``fullmatch``.
SHA256_HEX = re.compile(r"[0-9a-f]{64}")
_PKGNAME_RE = re.compile(r"[a-z0-9][a-z0-9+.-]*")
_ENVNAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEPENDS_LINE_RE = re.compile(r" ([^ ]+) \(= ([^ ()]+)\)")
_ENV_LINE_RE = re.compile(r' ([^=]+)="([^"]*)"')

# Canonical field order of the wire format.
_FIELDS = (
    "Source",
    "Version",
    "Checksums-Sha1",
    "Checksums-Sha256",
    "Build-Architecture",
    "Installed-Build-Depends",
    "Environment",
    "Builder-Id",
)
_LIST_FIELDS = {"Checksums-Sha1", "Checksums-Sha256", "Installed-Build-Depends", "Environment"}

_SIGNATURE_MARKER = b"-----SIGNATURE-----\n"

_HASH_CHUNK = 1 << 20


@dataclass(frozen=True)
class ChecksumEntry:
    """Checksums of one artifact file (basename only, no directories)."""

    filename: str
    size: int
    sha1: str
    sha256: str


@dataclass(frozen=True)
class DependencyPin:
    """One exact build-dependency version, as in ``gcc (= 4:10.2.0-1)``."""

    name: str
    version: str


@dataclass(frozen=True)
class Attestation:
    """One build's record: source, version, architecture, artifact checksums,
    pinned dependencies, environment and the builder that made it."""

    source: str
    version: str
    architecture: str
    checksums: tuple[ChecksumEntry, ...]
    depends: tuple[DependencyPin, ...]
    environment: tuple[tuple[str, str], ...]
    builder_id: str

    def env_map(self) -> dict[str, str]:
        return dict(self.environment)

    def checksum_for(self, filename: str) -> ChecksumEntry | None:
        for entry in self.checksums:
            if entry.filename == filename:
                return entry
        return None


@dataclass(frozen=True)
class SignedAttestation:
    """Canonical attestation bytes plus a detached Ed25519 signature."""

    body: bytes
    signature: bytes
    public_key_fingerprint: str


def make_attestation(
    source: str,
    version: str,
    architecture: str,
    checksums,
    depends,
    environment,
    builder_id: str,
) -> Attestation:
    """Build an Attestation with list fields sorted into canonical order.

    ``environment`` may be a mapping or an iterable of pairs. Raises
    ValidationError if the sorted result still breaks an invariant
    (duplicate filenames, malformed hex, ...).
    """
    if hasattr(environment, "items"):
        env_pairs = list(environment.items())
    else:
        env_pairs = [(k, v) for k, v in environment]
    att = Attestation(
        source=source,
        version=version,
        architecture=architecture,
        checksums=tuple(sorted(checksums, key=lambda e: e.filename)),
        depends=tuple(sorted(depends, key=lambda d: d.name)),
        environment=tuple(sorted(env_pairs, key=lambda kv: kv[0])),
        builder_id=builder_id,
    )
    validate_attestation(att)
    return att


def _check_utf8(what: str, text: str) -> None:
    """Refuse text with a lone surrogate, which has no UTF-8 form."""
    try:
        text.encode()
    except UnicodeEncodeError:
        raise ValidationError(f"{what} must be UTF-8: {text!r}") from None


def _check_scalar(name: str, value: str) -> None:
    if not value:
        raise ValidationError(f"{name} must be nonempty")
    if "\n" in value or value != value.strip():
        raise ValidationError(f"{name} must have no newlines or surrounding whitespace")
    _check_utf8(name, value)


def _is_token(text: str) -> bool:
    """True iff ``text`` is nonempty and no character of it ``isspace()``.

    ``str.split()`` splits at exactly the characters ``str.isspace()``
    accepts, so this is that per-character test done in one C call.
    """
    return text.split() == [text]


def _check_filename(filename: str) -> None:
    if not filename or "/" in filename or "\\" in filename:
        raise ValidationError(f"artifact filename must be a basename: {filename!r}")
    if not _is_token(filename) or "\x00" in filename:
        raise ValidationError(f"artifact filename must not contain whitespace: {filename!r}")
    _check_utf8("artifact filename", filename)


def validate_attestation(att: Attestation) -> None:
    """Check every type invariant; raise ValidationError on the first breach.

    The checks that ``parse_buildinfo``'s line grammar or its UTF-8 decode
    also makes come first: the four scalars, each checksum entry's filename,
    size and digests, then that each dependency version and environment
    value encodes. ``_check_relations`` makes the rest, for both.
    """
    _check_scalar("Source", att.source)
    _check_scalar("Version", att.version)
    _check_scalar("Build-Architecture", att.architecture)
    _check_scalar("Builder-Id", att.builder_id)
    for entry in att.checksums:
        _check_filename(entry.filename)
        if entry.size < 0:
            raise ValidationError(f"negative size for {entry.filename}")
        if not _SHA1_RE.fullmatch(entry.sha1):
            raise ValidationError(f"bad sha1 for {entry.filename}")
        if not SHA256_HEX.fullmatch(entry.sha256):
            raise ValidationError(f"bad sha256 for {entry.filename}")
    for dep in att.depends:
        _check_utf8(f"dependency version for {dep.name}", dep.version)
    for name, value in att.environment:
        _check_utf8(f"environment value for {name}", value)
    _check_relations(att)


def _check_strictly_sorted(keys, message: str) -> None:
    """Raise ValidationError(message) unless ``keys`` rise strictly in their
    UTF-8 bytes, which also rules out duplicates."""
    # Code-point order is UTF-8 byte order for every string that encodes, and
    # every key checked here does, so comparing the strings is comparing bytes.
    keys = list(keys)
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise ValidationError(message)


def _check_relations(att: Attestation) -> None:
    """The invariants the buildinfo line grammar does not make on its own:
    the Version token, the three sorted orders, and the dependency and
    environment names and values. (The grammar also refuses a dependency
    version holding a parenthesis; in a built one, only this check does.)"""
    if not _is_token(att.version):
        raise ValidationError("Version must not contain whitespace")
    _check_strictly_sorted(
        (entry.filename for entry in att.checksums), "checksums must be strictly sorted by filename"
    )
    for dep in att.depends:
        if not _PKGNAME_RE.fullmatch(dep.name):
            raise ValidationError(f"bad dependency name {dep.name!r}")
        if not _is_token(dep.version) or "(" in dep.version or ")" in dep.version:
            raise ValidationError(f"bad dependency version for {dep.name}")
    _check_strictly_sorted(
        (dep.name for dep in att.depends), "depends must be strictly sorted by name"
    )
    for name, value in att.environment:
        if not _ENVNAME_RE.fullmatch(name):
            raise ValidationError(f"bad environment variable name {name!r}")
        if '"' in value or "\n" in value or "\\" in value:
            raise ValidationError(f"environment value for {name} contains forbidden characters")
    _check_strictly_sorted(
        (name for name, _ in att.environment), "environment keys must be strictly sorted"
    )


@contextlib.contextmanager
def _read_artifact(path: Path):
    """Open an artifact file for reading and yield it with its ``fstat``;
    any failure names the file.

    The open does not block and anything but a regular file is refused, so
    a FIFO or device left where an artifact should be cannot hang the read.
    ``O_NONBLOCK`` leaves reads of a regular file as they are.
    """
    try:
        with open(path, "rb", opener=lambda p, flags: os.open(p, flags | os.O_NONBLOCK)) as f:
            st = os.fstat(f.fileno())
            if not stat.S_ISREG(st.st_mode):
                raise StructuralError(f"not a regular file: {path}")
            yield f, st
    except OSError as err:
        raise OSError(f"cannot read artifact file {path}: {err}") from err


def artifact_size(path: Path | str) -> int:
    """Size of one artifact file, read from the file opened as
    :func:`checksum_file` opens it, so a file it could not read fails here
    with the same error and without hashing a byte."""
    with _read_artifact(Path(path)) as (_, st):
        return st.st_size


def checksum_file(path: Path | str) -> ChecksumEntry:
    """Size, SHA-1 and SHA-256 of one artifact file, under its basename.

    The file is read in chunks of ``_HASH_CHUNK`` bytes on the calling
    thread, which feeds SHA-256, and one helper thread feeds SHA-1 the same
    chunks through a queue that holds one of them. hashlib releases the GIL
    for buffers this large, so the two digests run side by side. At most
    three chunks are alive at once whatever the artifact's size, and the
    helper has ended whenever this returns or raises.
    """
    import queue  # here, so that commands which hash nothing do not load it

    path = Path(path)
    sha1, sha256, size = hashlib.sha1(), hashlib.sha256(), 0
    chunks: queue.Queue[bytes | None] = queue.Queue(maxsize=1)

    def feed_sha1() -> None:
        while (chunk := chunks.get()) is not None:
            sha1.update(chunk)

    with _read_artifact(path) as (f, _):
        helper = threading.Thread(target=feed_sha1, name="reprokit-sha1", daemon=True)
        helper.start()
        try:
            while chunk := f.read(_HASH_CHUNK):
                chunks.put(chunk)
                sha256.update(chunk)
                size += len(chunk)
        finally:
            chunks.put(None)
            helper.join()
    return ChecksumEntry(
        filename=path.name,
        size=size,
        sha1=sha1.hexdigest(),
        sha256=sha256.hexdigest(),
    )


def compute_checksums(artifact_dir: Path | str) -> tuple[ChecksumEntry, ...]:
    """Hash every regular file in a flat artifact directory.

    Entries come back sorted by filename. Subdirectories, symlinks and file
    names that are not UTF-8 are structural errors, the last before any file
    is hashed: artifact directories are flat by contract, and an attestation
    is UTF-8 text.
    """
    root = Path(artifact_dir)
    if not root.is_dir():
        raise StructuralError(f"not a directory: {root}")
    children = sorted(root.iterdir(), key=lambda p: p.name)
    for child in children:
        try:
            child.name.encode()
        except UnicodeEncodeError:
            raise StructuralError(
                f"artifact file name is not UTF-8: {os.fsencode(child.name)!r}"
            ) from None
    entries = []
    for child in children:
        if child.is_symlink():
            raise StructuralError(f"symlink not allowed in artifact dir: {child.name}")
        if child.is_dir():
            raise StructuralError(f"subdirectory not allowed in artifact dir: {child.name}")
        entries.append(checksum_file(child))
    return tuple(entries)


def serialize_buildinfo(att: Attestation) -> bytes:
    """Render the canonical wire form. Equal attestations yield equal bytes."""
    validate_attestation(att)
    lines = [
        f"Source: {att.source}",
        f"Version: {att.version}",
        "Checksums-Sha1:",
    ]
    for e in att.checksums:
        lines.append(f"  {e.sha1} {e.size} {e.filename}")
    lines.append("Checksums-Sha256:")
    for e in att.checksums:
        lines.append(f"  {e.sha256} {e.size} {e.filename}")
    lines.append(f"Build-Architecture: {att.architecture}")
    lines.append("Installed-Build-Depends:")
    for d in att.depends:
        lines.append(f" {d.name} (= {d.version})")
    lines.append("Environment:")
    for name, value in att.environment:
        lines.append(f' {name}="{value}"')
    lines.append(f"Builder-Id: {att.builder_id}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _scan_fields(text: str) -> list[tuple[str, object, int]]:
    """Split buildinfo text into (field, value-or-items, line_no) triples."""
    fields: list[tuple[str, object, int]] = []
    current_items: list[tuple[str, int]] | None = None
    for line_no, line in enumerate(text.split("\n")[:-1], start=1):
        if line.endswith("\r"):
            raise ParseError("CR line ending (LF only)", line_no)
        if not line:
            raise ParseError("blank line not allowed", line_no)
        if line[0] == " ":
            if current_items is None:
                raise ParseError("continuation line outside a list field", line_no)
            current_items.append((line, line_no))
            continue
        current_items = None
        name, sep, rest = line.partition(":")
        if not sep:
            raise ParseError("expected 'Field: value'", line_no)
        if name in _LIST_FIELDS:
            if rest:
                raise ParseError(f"{name} header must have no inline value", line_no)
            current_items = []
            fields.append((name, current_items, line_no))
        else:
            if not rest.startswith(" "):
                raise ParseError(f"expected one space after '{name}:'", line_no)
            value = rest[1:]
            if value != value.strip() or not value:
                raise ParseError(f"bad scalar value for {name}", line_no)
            fields.append((name, value, line_no))
    return fields


def _parse_checksum_items(
    items: list[tuple[str, int]],
    digest_re: re.Pattern,
    hex_len: int,
    checked: frozenset[str] = frozenset(),
) -> list[tuple[str, int, str]]:
    """(digest, size, filename) per checksum line; filenames in ``checked``
    have passed ``_check_filename`` already."""
    out = []
    for line, line_no in items:
        if not line.startswith("  ") or line[2:3] == " ":
            raise ParseError("checksum line must start with exactly two spaces", line_no)
        tokens = line[2:].split(" ")
        if len(tokens) != 3:
            raise ParseError("checksum line must be '<hash> <size> <filename>'", line_no)
        digest, size_s, filename = tokens
        if not digest_re.fullmatch(digest):
            raise ParseError(f"bad {hex_len}-char hex digest", line_no)
        if not size_s.isdecimal() or size_s != str(int(size_s)):
            raise ParseError("bad size", line_no)
        if filename not in checked:
            try:
                _check_filename(filename)
            except ValidationError as err:
                raise ParseError(str(err), line_no) from err
        out.append((digest, int(size_s), filename))
    return out


def parse_buildinfo(data: bytes) -> Attestation:
    """Parse canonical buildinfo bytes back into an Attestation.

    Strict: unknown fields, duplicates, wrong field order, unsorted lists,
    and malformed lines are all rejected, so parse(serialize(a)) == a and
    anything that parses re-serializes byte-identically.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(f"not UTF-8: {err}") from None
    if text and not text.endswith("\n"):
        raise ParseError("missing trailing newline")

    fields = _scan_fields(text)
    seen: dict[str, object] = {}
    for name, value, line_no in fields:
        if name not in _FIELDS:
            raise ParseError(f"unknown field: {name}", line_no)
        if name in seen:
            raise ParseError(f"duplicate field: {name}", line_no)
        seen[name] = value
    for name in _FIELDS:
        if name not in seen:
            raise ParseError(f"missing field: {name}")
    if [name for name, _, _ in fields] != list(_FIELDS):
        raise ParseError("fields out of canonical order")

    sha1_items = _parse_checksum_items(seen["Checksums-Sha1"], _SHA1_RE, 40)
    sha256_items = _parse_checksum_items(
        seen["Checksums-Sha256"], SHA256_HEX, 64, frozenset(f for _, _, f in sha1_items)
    )
    if [(f, s) for _, s, f in sha1_items] != [(f, s) for _, s, f in sha256_items]:
        raise ParseError("Checksums-Sha1 and Checksums-Sha256 disagree on files or sizes")
    checksums = tuple(
        ChecksumEntry(filename=f, size=s, sha1=d1, sha256=d256)
        for (d1, s, f), (d256, _, _) in zip(sha1_items, sha256_items)
    )

    depends = []
    for line, line_no in seen["Installed-Build-Depends"]:
        m = _DEPENDS_LINE_RE.fullmatch(line)
        if not m:
            raise ParseError("dependency line must be ' name (= version)'", line_no)
        depends.append(DependencyPin(name=m.group(1), version=m.group(2)))

    environment = []
    for line, line_no in seen["Environment"]:
        m = _ENV_LINE_RE.fullmatch(line)
        if not m:
            raise ParseError("environment line must be ' NAME=\"value\"'", line_no)
        environment.append((m.group(1), m.group(2)))

    att = Attestation(
        source=seen["Source"],
        version=seen["Version"],
        architecture=seen["Build-Architecture"],
        checksums=checksums,
        depends=tuple(depends),
        environment=tuple(environment),
        builder_id=seen["Builder-Id"],
    )
    try:
        _check_relations(att)
    except ValidationError as err:
        raise ParseError(str(err)) from err
    return att


# -- signing ----------------------------------------------------------------


@functools.cache
def _ed25519():
    """``(Ed25519PrivateKey, Ed25519PublicKey, InvalidSignature)``, imported
    from ``cryptography`` on the first call.

    A missing or broken backend is a ReproError, so the CLI reports it as an
    input error (exit 3) and never as a verdict.
    """
    try:
        from cryptography.exceptions import InvalidSignature
        from cryptography.hazmat.primitives.asymmetric.ed25519 import (
            Ed25519PrivateKey,
            Ed25519PublicKey,
        )
    except ImportError as err:
        raise ReproError(f"cannot load the Ed25519 backend 'cryptography': {err}") from err

    return Ed25519PrivateKey, Ed25519PublicKey, InvalidSignature


def generate_signing_key() -> tuple[bytes, bytes]:
    """Return (private, public) raw Ed25519 key bytes (32 bytes each)."""
    private_key_class, _, _ = _ed25519()
    private = private_key_class.generate()
    private_raw = private.private_bytes_raw()
    public_raw = private.public_key().public_bytes_raw()
    return private_raw, public_raw


def public_key_for(private_key: bytes) -> bytes:
    private_key_class, _, _ = _ed25519()
    return private_key_class.from_private_bytes(private_key).public_key().public_bytes_raw()


def key_fingerprint(public_key: bytes) -> str:
    """Lowercase hex SHA-256 of the raw public key bytes."""
    return hashlib.sha256(public_key).hexdigest()


def sign_attestation(att: Attestation, private_key: bytes) -> SignedAttestation:
    """Sign the canonical serialization with a raw 32-byte Ed25519 key."""
    if len(private_key) != 32:
        raise ValidationError("private key must be 32 raw Ed25519 bytes")
    private_key_class, _, _ = _ed25519()
    key = private_key_class.from_private_bytes(private_key)
    body = serialize_buildinfo(att)
    signature = key.sign(body)
    return SignedAttestation(
        body=body,
        signature=signature,
        public_key_fingerprint=key_fingerprint(key.public_key().public_bytes_raw()),
    )


def verify_signature(sa: SignedAttestation, public_key: bytes) -> bool:
    """True iff the signature is valid over the body under this key.

    Total: malformed keys or signature bytes yield False, never an exception.
    """
    _, public_key_class, invalid_signature = _ed25519()
    try:
        public_key_class.from_public_bytes(public_key).verify(sa.signature, sa.body)
        return True
    except (invalid_signature, ValueError, TypeError):
        return False


def serialize_signed(sa: SignedAttestation) -> bytes:
    """Signed container: body, marker line, hex signature, hex fingerprint."""
    return (
        sa.body
        + _SIGNATURE_MARKER
        + sa.signature.hex().encode() + b"\n"
        + sa.public_key_fingerprint.encode() + b"\n"
    )


def parse_signed(data: bytes) -> SignedAttestation:
    """Parse the signed container; the embedded body is kept verbatim."""
    idx = data.find(_SIGNATURE_MARKER)
    if idx < 0:
        raise ParseError("missing signature marker")
    body = data[:idx]
    tail = data[idx + len(_SIGNATURE_MARKER):].split(b"\n")
    if len(tail) != 3 or tail[2] != b"":
        raise ParseError("signature block must be two hex lines")
    try:
        signature = bytes.fromhex(tail[0].decode("ascii"))
    except (UnicodeDecodeError, ValueError) as err:
        raise ParseError(f"bad signature hex: {err}") from None
    fingerprint = tail[1].decode("ascii", errors="replace")
    if not SHA256_HEX.fullmatch(fingerprint):
        raise ParseError("bad key fingerprint")
    return SignedAttestation(body=body, signature=signature, public_key_fingerprint=fingerprint)

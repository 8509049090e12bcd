"""Multi-builder attestation store and the majority trust verdict.

Independent builders sign attestations for the same source release; a user
holding a downloaded artifact asks the store whether their checksum matches
what the builder community saw. Trust requires a *unique* checksum reported
by at least half of the builders that attested the artifact: a bare 50%
tie is deliberately Inconclusive, since accepting either side of a tie
would let half-compromised communities force trust.

The store is a plain directory tree, auditable with ls and sha256sum:
``keys/<builder_id>.pub`` pins one Ed25519 public key per builder, and
``att/<source>_<version>_<arch>/<builder_id>.buildinfo.signed`` holds the
signed attestations. Every read re-verifies signatures, so a corrupted
entry is caught when it is used, not trusted silently.
"""

from __future__ import annotations

import enum
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path

from .attestation import (
    SHA256_HEX,
    Attestation,
    SignedAttestation,
    key_fingerprint,
    parse_buildinfo,
    parse_signed,
    serialize_signed,
    verify_signature,
)
from .errors import ParseError, StoreError, ValidationError

_SAFE_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._+-]*")

_SIGNED_SUFFIX = ".buildinfo.signed"


class Decision(enum.Enum):
    TRUSTED = "trusted"
    REJECTED = "rejected"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ConsensusTally:
    """The SHA-256 digests stored attestations claim for one artifact, each
    with the number of builders that claim it."""

    artifact: str
    counts: dict[str, int]
    total_builders: int


@dataclass(frozen=True)
class Verdict:
    """The trust decision for a local artifact, with the majority digest and
    how many of the builders agree with it."""

    decision: Decision
    majority_checksum: str | None
    agreeing: int
    total: int


def _safe(name: str, what: str) -> str:
    if not _SAFE_NAME.fullmatch(name):
        raise ValidationError(f"unsafe {what} for store paths: {name!r}")
    return name


def _place_file(path: Path, data: bytes, place) -> None:
    """Write ``data`` beside ``path`` under a temporary name, then put it at
    ``path`` with ``place(tmp, path)``, so a reader sees the old bytes or the
    new and never a part.

    ``os.replace`` overwrites an existing ``path``; ``os.link`` raises
    ``FileExistsError`` instead. The temporary name ends in ``.tmp``, never in
    a suffix the store reads, and is always removed.
    """
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.write(data)
        place(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class AttestationStore:
    """Directory-backed attestation store with pinned builder keys."""

    def __init__(self, root: Path | str):
        self.root = Path(root)

    @property
    def keys_dir(self) -> Path:
        return self.root / "keys"

    @property
    def att_dir(self) -> Path:
        return self.root / "att"

    def _key_path(self, builder_id: str) -> Path:
        return self.keys_dir / f"{_safe(builder_id, 'builder id')}.pub"

    def _group_dir(self, source: str, version: str, architecture: str) -> Path:
        group = "_".join(
            (
                _safe(source, "source"),
                _safe(version, "version"),
                _safe(architecture, "architecture"),
            )
        )
        return self.att_dir / group

    def register_builder(self, builder_id: str, public_key: bytes) -> None:
        """Pin a builder's key. Re-registering a different key is refused.

        The key is linked into place, which fails if a key is already there,
        so of two concurrent registrations of different keys exactly one
        succeeds.
        """
        if len(public_key) != 32:
            raise ValidationError("public key must be 32 raw Ed25519 bytes")
        path = self._key_path(builder_id)
        self.keys_dir.mkdir(parents=True, exist_ok=True)
        try:
            _place_file(path, public_key, os.link)
        except FileExistsError:
            if path.read_bytes() != public_key:
                raise StoreError(
                    f"builder {builder_id!r} already registered with a different key"
                ) from None

    def registered_key(self, builder_id: str) -> bytes:
        path = self._key_path(builder_id)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            raise StoreError(f"builder {builder_id!r} is not registered") from None

    def _unsigned_reason(self, sa: SignedAttestation, builder_id: str) -> str | None:
        """Why ``sa`` is not signed by ``builder_id``'s pinned key, or None if
        it is. An unregistered builder is a StoreError."""
        key = self.registered_key(builder_id)
        if sa.public_key_fingerprint != key_fingerprint(key):
            return f"fingerprint does not match the pinned key of {builder_id!r}"
        if not verify_signature(sa, key):
            return f"bad signature from {builder_id!r}"
        return None

    def submit(self, sa: SignedAttestation) -> Attestation:
        """Verify and store one attestation, replacing the builder's prior one.

        Returns the parsed attestation that was stored.
        """
        try:
            att = parse_buildinfo(sa.body)
        except ParseError as err:
            raise StoreError(f"rejected: unparseable attestation body: {err}") from None
        if reason := self._unsigned_reason(sa, att.builder_id):
            raise StoreError(f"rejected: {reason}")
        group = self._group_dir(att.source, att.version, att.architecture)
        group.mkdir(parents=True, exist_ok=True)
        path = group / f"{att.builder_id}{_SIGNED_SUFFIX}"
        _place_file(path, serialize_signed(sa), os.replace)
        return att

    def load(
        self, source: str, version: str, architecture: str
    ) -> list[tuple[str, Attestation]]:
        """All stored attestations for a release, re-verified on read."""
        group = self._group_dir(source, version, architecture)
        if not group.is_dir():
            return []
        out: list[tuple[str, Attestation]] = []
        for path in sorted(group.iterdir(), key=lambda p: p.name):
            if not path.name.endswith(_SIGNED_SUFFIX):
                continue
            builder_id = path.name[: -len(_SIGNED_SUFFIX)]
            try:
                sa = parse_signed(path.read_bytes())
                att = parse_buildinfo(sa.body)
            except ParseError as err:
                raise StoreError(f"corrupt store entry {path.name}: {err}") from None
            if att.builder_id != builder_id:
                raise StoreError(
                    f"corrupt store entry {path.name}: builder id mismatch"
                )
            if reason := self._unsigned_reason(sa, builder_id):
                raise StoreError(f"corrupt store entry {path.name}: {reason}")
            out.append((builder_id, att))
        return out

    def tally(
        self, source: str, version: str, architecture: str, artifact: str
    ) -> ConsensusTally:
        """Count distinct builders per distinct checksum of one artifact.

        Builders that attested the release but not this artifact are left
        out entirely: an absent claim is not agreement.
        """
        attestations = self.load(source, version, architecture)
        if not attestations:
            raise StoreError(
                f"no attestations stored for {source} {version} {architecture}"
            )
        counts: dict[str, int] = {}
        for _, att in attestations:
            entry = att.checksum_for(artifact)
            if entry is None:
                continue
            counts[entry.sha256] = counts.get(entry.sha256, 0) + 1
        if not counts:
            raise StoreError(f"no stored attestation mentions artifact {artifact!r}")
        return ConsensusTally(
            artifact=artifact,
            counts=counts,
            total_builders=sum(counts.values()),
        )


def verdict(tally: ConsensusTally, local_sha256: str) -> Verdict:
    """Decide trust: a unique checksum held by at least half the builders
    wins; the local artifact is Trusted iff it matches the winner. Without
    a unique at-least-half majority the answer is Inconclusive.

    ``agreeing`` counts the builders whose checksum equals the local one.
    The local digest is compared in lowercase and must be 64 hex characters.
    """
    local_sha256 = local_sha256.lower()
    if not SHA256_HEX.fullmatch(local_sha256):
        raise ValidationError(f"local digest is not a sha256 hex digest: {local_sha256!r}")
    total = tally.total_builders
    agreeing = tally.counts.get(local_sha256, 0)
    max_count = max(tally.counts.values())
    leaders = [digest for digest, n in tally.counts.items() if n == max_count]
    if len(leaders) == 1 and max_count >= math.ceil(total / 2):
        majority = leaders[0]
        decision = Decision.TRUSTED if local_sha256 == majority else Decision.REJECTED
        return Verdict(
            decision=decision, majority_checksum=majority, agreeing=agreeing, total=total
        )
    return Verdict(
        decision=Decision.INCONCLUSIVE, majority_checksum=None, agreeing=agreeing, total=total
    )

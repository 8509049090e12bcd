"""Attestation store and the unique-majority trust decision."""

from __future__ import annotations

import hashlib
import itertools

import pytest

from reprokit import consensus
from reprokit.attestation import (
    ChecksumEntry,
    generate_signing_key,
    key_fingerprint,
    make_attestation,
    parse_signed,
    serialize_signed,
    sign_attestation,
)
from reprokit.consensus import (
    AttestationStore,
    ConsensusTally,
    Decision,
    verdict,
)
from reprokit.errors import StoreError, ValidationError

H_GOOD = hashlib.sha256(b"good artifact").hexdigest()
H_BAD = hashlib.sha256(b"tampered artifact").hexdigest()
H_THIRD = hashlib.sha256(b"third variant").hexdigest()


def entry(filename: str, sha256: str) -> ChecksumEntry:
    return ChecksumEntry(
        filename=filename,
        size=1000,
        sha1=hashlib.sha1(sha256.encode()).hexdigest(),
        sha256=sha256,
    )


def signed_attestation(builder_id: str, private_key: bytes, files: dict[str, str],
                       source="demo", version="1.0", arch="all"):
    att = make_attestation(
        source=source,
        version=version,
        architecture=arch,
        checksums=[entry(name, digest) for name, digest in sorted(files.items())],
        depends=[],
        environment={"TZ": "UTC"},
        builder_id=builder_id,
    )
    return sign_attestation(att, private_key)


@pytest.fixture
def store(tmp_path):
    return AttestationStore(tmp_path / "store")


def builders(n: int):
    return [(f"rebuilder-{i:02d}", *generate_signing_key()) for i in range(n)]


def test_register_and_layout(store):
    private_key, public_key = generate_signing_key()
    store.register_builder("rebuilder-01", public_key)
    assert (store.root / "keys" / "rebuilder-01.pub").read_bytes() == public_key
    assert store.registered_key("rebuilder-01") == public_key
    # same key again is a no-op
    store.register_builder("rebuilder-01", public_key)
    _, other = generate_signing_key()
    with pytest.raises(StoreError) as err:
        store.register_builder("rebuilder-01", other)
    assert "different key" in str(err.value)


def test_register_input_validation(store):
    with pytest.raises(ValidationError):
        store.register_builder("rebuilder-01", b"short")
    _, public_key = generate_signing_key()
    with pytest.raises(ValidationError):
        store.register_builder("../escape", public_key)
    with pytest.raises(StoreError):
        store.registered_key("never-registered")


# `$` also matches before a trailing newline, so the whole name must match.
@pytest.mark.parametrize("builder_id", ["", ".hidden", "a/b", "evil\n"])
def test_register_rejects_unsafe_builder_ids(store, builder_id):
    _, public_key = generate_signing_key()
    with pytest.raises(ValidationError, match="unsafe builder id"):
        store.register_builder(builder_id, public_key)
    assert not store.keys_dir.exists() or not any(store.keys_dir.iterdir())


def test_submit_and_store_layout(store):
    private_key, public_key = generate_signing_key()
    store.register_builder("rebuilder-01", public_key)
    sa = signed_attestation("rebuilder-01", private_key, {"pkg.deb": H_GOOD})
    store.submit(sa)
    path = store.root / "att" / "demo_1.0_all" / "rebuilder-01.buildinfo.signed"
    assert path.is_file()
    assert parse_signed(path.read_bytes()) == sa
    loaded = store.load("demo", "1.0", "all")
    assert [(b, a.checksum_for("pkg.deb").sha256) for b, a in loaded] == [
        ("rebuilder-01", H_GOOD)
    ]


def test_submit_requires_registration(store):
    private_key, _ = generate_signing_key()
    sa = signed_attestation("rebuilder-01", private_key, {"pkg.deb": H_GOOD})
    with pytest.raises(StoreError) as err:
        store.submit(sa)
    assert "not registered" in str(err.value)


def test_submit_rejects_wrong_fingerprint(store):
    private_key, public_key = generate_signing_key()
    other_private, other_public = generate_signing_key()
    store.register_builder("rebuilder-01", public_key)
    sa = signed_attestation("rebuilder-01", other_private, {"pkg.deb": H_GOOD})
    with pytest.raises(StoreError) as err:
        store.submit(sa)
    assert "fingerprint" in str(err.value)


def test_submit_rejects_forged_signature(store):
    import dataclasses

    private_key, public_key = generate_signing_key()
    other_private, other_public = generate_signing_key()
    store.register_builder("rebuilder-01", public_key)
    # signed by the other key but carrying the pinned key's fingerprint
    sa = signed_attestation("rebuilder-01", other_private, {"pkg.deb": H_BAD})
    forged = dataclasses.replace(sa, public_key_fingerprint=key_fingerprint(public_key))
    with pytest.raises(StoreError) as err:
        store.submit(forged)
    assert "bad signature" in str(err.value)


def test_submit_replaces_prior_attestation(store):
    private_key, public_key = generate_signing_key()
    store.register_builder("rebuilder-01", public_key)
    store.submit(signed_attestation("rebuilder-01", private_key, {"pkg.deb": H_BAD}))
    store.submit(signed_attestation("rebuilder-01", private_key, {"pkg.deb": H_GOOD}))
    tally = store.tally("demo", "1.0", "all", "pkg.deb")
    assert tally.counts == {H_GOOD: 1}
    assert tally.total_builders == 1


def test_failed_replace_leaves_the_earlier_entry_and_no_temporary_file(store, monkeypatch):
    private_key, public_key = generate_signing_key()
    store.register_builder("rebuilder-01", public_key)
    store.submit(signed_attestation("rebuilder-01", private_key, {"pkg.deb": H_GOOD}))
    group = store.root / "att" / "demo_1.0_all"
    before = {p.name: p.read_bytes() for p in group.iterdir()}
    tally = store.tally("demo", "1.0", "all", "pkg.deb")
    moved = []

    def failing_replace(src, dst):
        moved.append((src, dst))
        raise OSError("disk gone")

    monkeypatch.setattr(consensus.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk gone"):
        store.submit(signed_attestation("rebuilder-01", private_key, {"pkg.deb": H_BAD}))
    [(src, dst)] = moved
    assert dst == group / "rebuilder-01.buildinfo.signed"
    assert src.parent == group
    assert not src.name.endswith((".buildinfo.signed", ".pub"))
    assert {p.name: p.read_bytes() for p in group.iterdir()} == before
    assert store.tally("demo", "1.0", "all", "pkg.deb") == tally

    # A key is pinned by linking, not renaming, its temporary file into place.
    monkeypatch.setattr(consensus.os, "link", failing_replace)
    _, other_public = generate_signing_key()
    with pytest.raises(OSError, match="disk gone"):
        store.register_builder("rebuilder-02", other_public)
    src, dst = moved[-1]
    assert (src.parent, dst) == (store.keys_dir, store.keys_dir / "rebuilder-02.pub")
    assert not src.name.endswith((".buildinfo.signed", ".pub"))
    assert sorted(p.name for p in store.keys_dir.iterdir()) == ["rebuilder-01.pub"]


def test_conflicting_registrations_pin_exactly_one_key(store, monkeypatch):
    """A second registration runs between the first's temporary write and its
    link: the one that links first wins, and the other is refused."""
    _, first = generate_signing_key()
    _, second = generate_signing_key()
    real_link = consensus.os.link
    outcomes = {}

    def register(name, key):
        try:
            store.register_builder("rebuilder-01", key)
            outcomes[name] = "pinned"
        except StoreError:
            outcomes[name] = "refused"

    def link_after_a_rival(src, dst):
        monkeypatch.setattr(consensus.os, "link", real_link)
        register("second", second)
        real_link(src, dst)

    monkeypatch.setattr(consensus.os, "link", link_after_a_rival)
    register("first", first)
    assert outcomes == {"second": "pinned", "first": "refused"}
    assert store.registered_key("rebuilder-01") == second
    assert [p.name for p in store.keys_dir.iterdir()] == ["rebuilder-01.pub"]
    store.register_builder("rebuilder-01", second)
    assert store.registered_key("rebuilder-01") == second


def test_load_detects_corruption(store):
    private_key, public_key = generate_signing_key()
    store.register_builder("rebuilder-01", public_key)
    store.submit(signed_attestation("rebuilder-01", private_key, {"pkg.deb": H_GOOD}))
    path = store.root / "att" / "demo_1.0_all" / "rebuilder-01.buildinfo.signed"
    data = bytearray(path.read_bytes())
    at = data.index(b"Version: 1.0")
    data[at + 9:at + 12] = b"6.6"
    path.write_bytes(bytes(data))
    with pytest.raises(StoreError) as err:
        store.load("demo", "1.0", "all")
    assert "corrupt store entry" in str(err.value)


def test_load_refuses_an_entry_whose_fingerprint_names_another_key(store):
    private_key, public_key = generate_signing_key()
    _, other_public = generate_signing_key()
    store.register_builder("rebuilder-01", public_key)
    store.submit(signed_attestation("rebuilder-01", private_key, {"pkg.deb": H_GOOD}))
    path = store.root / "att" / "demo_1.0_all" / "rebuilder-01.buildinfo.signed"
    data = path.read_bytes()
    pinned, other = key_fingerprint(public_key), key_fingerprint(other_public)
    assert data.endswith(pinned.encode() + b"\n")
    rewritten = data[: -len(pinned) - 1] + other.encode() + b"\n"
    path.write_bytes(rewritten)
    # the signature still verifies under the pinned key; only the line lies
    with pytest.raises(StoreError) as err:
        store.load("demo", "1.0", "all")
    assert "corrupt store entry rebuilder-01.buildinfo.signed" in str(err.value)
    assert "fingerprint" in str(err.value)
    with pytest.raises(StoreError) as err:
        store.submit(parse_signed(rewritten))
    assert "fingerprint" in str(err.value)


def test_load_detects_renamed_entry(store):
    private_key, public_key = generate_signing_key()
    for builder_id in ("rebuilder-01", "rebuilder-02"):
        store.register_builder(builder_id, public_key)
    store.submit(signed_attestation("rebuilder-01", private_key, {"pkg.deb": H_GOOD}))
    group = store.root / "att" / "demo_1.0_all"
    (group / "rebuilder-01.buildinfo.signed").rename(
        group / "rebuilder-02.buildinfo.signed"
    )
    with pytest.raises(StoreError) as err:
        store.load("demo", "1.0", "all")
    assert "builder id mismatch" in str(err.value)


@pytest.mark.parametrize("forgery,reason", [
    ("fingerprint", "fingerprint does not match the pinned key of 'rebuilder-01'"),
    ("signature", "bad signature from 'rebuilder-01'"),
])
def test_submit_and_load_give_the_same_reason_for_a_forged_entry(store, forgery, reason):
    import dataclasses

    private_key, public_key = generate_signing_key()
    other_private, other_public = generate_signing_key()
    store.register_builder("rebuilder-01", public_key)
    if forgery == "fingerprint":
        # signed by the pinned key, but the fingerprint line names another
        sa = signed_attestation("rebuilder-01", private_key, {"pkg.deb": H_GOOD})
        forged = dataclasses.replace(sa, public_key_fingerprint=key_fingerprint(other_public))
    else:
        # signed by another key, but carrying the pinned key's fingerprint
        sa = signed_attestation("rebuilder-01", other_private, {"pkg.deb": H_GOOD})
        forged = dataclasses.replace(sa, public_key_fingerprint=key_fingerprint(public_key))
    with pytest.raises(StoreError) as submitted:
        store.submit(forged)
    group = store.root / "att" / "demo_1.0_all"
    group.mkdir(parents=True)
    (group / "rebuilder-01.buildinfo.signed").write_bytes(serialize_signed(forged))
    with pytest.raises(StoreError) as loaded:
        store.load("demo", "1.0", "all")
    assert str(submitted.value) == f"rejected: {reason}"
    assert str(loaded.value) == f"corrupt store entry rebuilder-01.buildinfo.signed: {reason}"


def test_submit_and_load_refuse_an_unparseable_body(store):
    import dataclasses

    private_key, public_key = generate_signing_key()
    store.register_builder("rebuilder-01", public_key)
    sa = signed_attestation("rebuilder-01", private_key, {"pkg.deb": H_GOOD})
    junk = dataclasses.replace(sa, body=b"not a buildinfo\n")
    with pytest.raises(StoreError, match="^rejected: unparseable attestation body: "):
        store.submit(junk)
    group = store.root / "att" / "demo_1.0_all"
    group.mkdir(parents=True)
    (group / "rebuilder-01.buildinfo.signed").write_bytes(b"not signed\n")
    with pytest.raises(StoreError, match="^corrupt store entry rebuilder-01.buildinfo.signed: "):
        store.load("demo", "1.0", "all")


def test_load_skips_files_that_are_not_signed_entries(store):
    private_key, public_key = generate_signing_key()
    store.register_builder("rebuilder-01", public_key)
    store.submit(signed_attestation("rebuilder-01", private_key, {"pkg.deb": H_GOOD}))
    (store.root / "att" / "demo_1.0_all" / "rebuilder-02.buildinfo").write_bytes(b"junk\n")
    assert [b for b, _ in store.load("demo", "1.0", "all")] == ["rebuilder-01"]


def test_load_empty_and_unknown_release(store):
    assert store.load("demo", "1.0", "all") == []


def test_tally_counts_and_exclusions(store):
    team = builders(4)
    files_by_builder = [
        {"pkg.deb": H_GOOD, "doc.deb": H_THIRD},
        {"pkg.deb": H_GOOD},
        {"pkg.deb": H_BAD},
        {"doc.deb": H_THIRD},  # never saw pkg.deb: excluded from its tally
    ]
    for (builder_id, private_key, public_key), files in zip(team, files_by_builder):
        store.register_builder(builder_id, public_key)
        store.submit(signed_attestation(builder_id, private_key, files))
    tally = store.tally("demo", "1.0", "all", "pkg.deb")
    assert tally.artifact == "pkg.deb"
    assert tally.counts == {H_GOOD: 2, H_BAD: 1}
    assert tally.total_builders == 3
    doc = store.tally("demo", "1.0", "all", "doc.deb")
    assert doc.counts == {H_THIRD: 2}


def test_tally_errors(store):
    with pytest.raises(StoreError) as err:
        store.tally("demo", "1.0", "all", "pkg.deb")
    assert "no attestations" in str(err.value)
    builder_id, private_key, public_key = builders(1)[0]
    store.register_builder(builder_id, public_key)
    store.submit(signed_attestation(builder_id, private_key, {"other.deb": H_GOOD}))
    with pytest.raises(StoreError) as err:
        store.tally("demo", "1.0", "all", "pkg.deb")
    assert "pkg.deb" in str(err.value)


def tally_of(counts: dict[str, int]) -> ConsensusTally:
    return ConsensusTally(
        artifact="pkg.deb", counts=counts, total_builders=sum(counts.values())
    )


def test_verdict_majority_examples():
    v = verdict(tally_of({H_GOOD: 2, H_BAD: 1}), H_GOOD)
    assert v.decision is Decision.TRUSTED
    assert v.majority_checksum == H_GOOD
    assert (v.agreeing, v.total) == (2, 3)

    v = verdict(tally_of({H_GOOD: 2, H_BAD: 1}), H_BAD)
    assert v.decision is Decision.REJECTED
    assert v.majority_checksum == H_GOOD
    assert (v.agreeing, v.total) == (1, 3)

    # local checksum nobody attested
    v = verdict(tally_of({H_GOOD: 3}), H_THIRD)
    assert v.decision is Decision.REJECTED
    assert v.agreeing == 0


def test_verdict_reads_the_local_digest_in_lowercase():
    v = verdict(tally_of({H_GOOD: 2, H_BAD: 1}), H_GOOD.upper())
    assert v.decision is Decision.TRUSTED
    assert v.agreeing == 2


@pytest.mark.parametrize("local", ["nothex", H_GOOD[:-1], H_GOOD + "0", H_GOOD + "\n", "g" * 64])
def test_verdict_rejects_a_local_digest_that_is_not_sha256(local):
    with pytest.raises(ValidationError) as err:
        verdict(tally_of({H_GOOD: 1}), local)
    assert "sha256" in str(err.value)


def test_verdict_tie_is_inconclusive():
    v = verdict(tally_of({H_GOOD: 2, H_BAD: 2}), H_GOOD)
    assert v.decision is Decision.INCONCLUSIVE
    assert v.majority_checksum is None
    assert (v.agreeing, v.total) == (2, 4)


def test_verdict_plurality_below_half_is_inconclusive():
    counts = {H_GOOD: 2, H_BAD: 2, H_THIRD: 1}
    assert verdict(tally_of(counts), H_GOOD).decision is Decision.INCONCLUSIVE


def test_verdict_single_builder():
    assert verdict(tally_of({H_GOOD: 1}), H_GOOD).decision is Decision.TRUSTED
    assert verdict(tally_of({H_GOOD: 1}), H_BAD).decision is Decision.REJECTED


def brute_force_decision(counts: dict[str, int], local: str) -> Decision:
    total = sum(counts.values())
    winners = [
        d for d, n in counts.items()
        if 2 * n >= total and all(m < n for x, m in counts.items() if x != d)
    ]
    if not winners:
        return Decision.INCONCLUSIVE
    return Decision.TRUSTED if winners[0] == local else Decision.REJECTED


def test_verdict_against_brute_force_oracle():
    digests = [H_GOOD, H_BAD, H_THIRD]
    for n in range(1, 6):
        for assignment in itertools.product(digests, repeat=n):
            counts: dict[str, int] = {}
            for d in assignment:
                counts[d] = counts.get(d, 0) + 1
            for local in digests:
                expected = brute_force_decision(counts, local)
                assert verdict(tally_of(counts), local).decision is expected, (
                    counts, local)


def test_f_compromised_builders_cannot_flip_an_honest_majority(store):
    # with n builders and f < n/2 compromised, honest output stays trusted
    for n, f in ((3, 1), (5, 2)):
        for bad_set in itertools.combinations(range(n), f):
            counts = {H_GOOD: n - f, H_BAD: f}
            v = verdict(tally_of(counts), H_GOOD)
            assert v.decision is Decision.TRUSTED
            assert verdict(tally_of(counts), H_BAD).decision is Decision.REJECTED


def test_verdict_monotone_in_agreement():
    # adding one more agreeing builder never downgrades the decision
    rank = {Decision.REJECTED: 0, Decision.INCONCLUSIVE: 0, Decision.TRUSTED: 1}
    for others in range(0, 4):
        prev = None
        for agree in range(0, 6):
            counts = {H_BAD: others} if others else {}
            if agree:
                counts[H_GOOD] = agree
            if not counts:
                continue
            v = verdict(tally_of(counts), H_GOOD)
            if prev is not None:
                assert rank[v.decision] >= prev
            prev = rank[v.decision]


def test_end_to_end_majority_flow(store):
    team = builders(5)
    for i, (builder_id, private_key, public_key) in enumerate(team):
        store.register_builder(builder_id, public_key)
        digest = H_BAD if i < 2 else H_GOOD
        store.submit(signed_attestation(builder_id, private_key, {"pkg.deb": digest}))
    tally = store.tally("demo", "1.0", "all", "pkg.deb")
    assert verdict(tally, H_GOOD).decision is Decision.TRUSTED
    assert verdict(tally, H_BAD).decision is Decision.REJECTED

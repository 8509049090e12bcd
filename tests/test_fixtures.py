"""Defect corpus: generation, designed divergence, remediation."""

from __future__ import annotations

import pytest

from reprokit.classify import RootCause, classify, primary_finding
from reprokit.compare import compare_bytes
from reprokit.errors import FixtureError
from reprokit.fixtures import (
    ALL_KINDS,
    DESIGNED_CAUSES,
    FixtureKind,
    generate_all,
    generate_fixture,
    kind_from_token,
    remediate_fixture,
)
from reprokit.formats import parse_tar, write_tar
from reprokit.normalize import NormalizePolicy, normalize_bytes
from reprokit.runner import META_FILENAME, double_build, parse_meta


def test_kind_from_token():
    assert kind_from_token("timestamp") is FixtureKind.TIMESTAMP
    assert kind_from_token("archive-metadata") is FixtureKind.ARCHIVE_METADATA
    with pytest.raises(FixtureError):
        kind_from_token("nonsense")


def test_generate_fixture_layout(tmp_path):
    req = generate_fixture(FixtureKind.CONTROL, tmp_path / "control")
    assert req.source_dir == tmp_path / "control"
    assert req.build_entry == "build"
    assert req.output_subdir == "out"
    entry = tmp_path / "control" / "build"
    assert entry.is_file()
    assert entry.stat().st_mode & 0o111
    meta = parse_meta(tmp_path / "control" / META_FILENAME)
    assert meta.source == "control"
    assert meta.version == "1.0"
    assert meta.architecture == "all"
    assert len(meta.depends) >= 1


def test_generate_fixture_requires_empty_dest(tmp_path):
    dest = tmp_path / "occupied"
    dest.mkdir()
    (dest / "leftover").write_text("x")
    with pytest.raises(FixtureError):
        generate_fixture(FixtureKind.CONTROL, dest)


def test_generate_all_covers_every_kind(tmp_path):
    reqs = generate_all(tmp_path)
    assert set(reqs) == set(ALL_KINDS)
    for kind, req in reqs.items():
        assert req.source_dir == tmp_path / kind.value
        assert (req.source_dir / META_FILENAME).is_file()


def test_remediate_requires_generated_fixture(tmp_path):
    with pytest.raises(FixtureError):
        remediate_fixture(FixtureKind.TIMESTAMP, tmp_path / "nothing-here")


def test_control_fixture_is_reproducible(tmp_path):
    req = generate_fixture(FixtureKind.CONTROL, tmp_path / "src")
    verdict = double_build(req, staging_root=tmp_path / "staging")
    assert verdict.reproducible is True
    assert verdict.first.checksums


def test_timestamp_fixture_diverges_with_designed_cause(tmp_path):
    req = generate_fixture(FixtureKind.TIMESTAMP, tmp_path / "src")
    verdict = double_build(req, staging_root=tmp_path / "staging")
    assert verdict.reproducible is False
    (name,) = verdict.mismatched_files
    a = (verdict.first.artifacts / name).read_bytes()
    b = (verdict.second.artifacts / name).read_bytes()
    findings = classify(compare_bytes(a, b, path=name))
    assert primary_finding(findings).cause is RootCause.TIMESTAMP


def test_archive_metadata_fixture_tar_is_canonical(tmp_path):
    req = generate_fixture(FixtureKind.ARCHIVE_METADATA, tmp_path / "src")
    verdict = double_build(req, staging_root=tmp_path / "staging")
    assert verdict.reproducible is False
    raw = (verdict.first.artifacts / "dist.tar").read_bytes()
    # the fixture's inline tar encoder agrees byte-for-byte with the library's
    members = parse_tar(raw)
    assert [m.name for m in members] == sorted(m.name for m in members)
    assert write_tar(members) == raw


def test_remediated_archive_metadata_matches_normalize(tmp_path):
    req = generate_fixture(FixtureKind.ARCHIVE_METADATA, tmp_path / "src")
    verdict = double_build(req, staging_root=tmp_path / "stage1")
    raw = (verdict.first.artifacts / "dist.tar").read_bytes()

    remediate_fixture(FixtureKind.ARCHIVE_METADATA, tmp_path / "src")
    fixed_verdict = double_build(req, staging_root=tmp_path / "stage2")
    assert fixed_verdict.reproducible is True
    fixed = (fixed_verdict.second.artifacts / "dist.tar").read_bytes()
    assert fixed == normalize_bytes(raw, NormalizePolicy(epoch=0))


def test_remediate_control_is_a_no_op_for_outputs(tmp_path):
    req = generate_fixture(FixtureKind.CONTROL, tmp_path / "src")
    before = double_build(req, staging_root=tmp_path / "stage1")
    remediate_fixture(FixtureKind.CONTROL, tmp_path / "src")
    after = double_build(req, staging_root=tmp_path / "stage2")
    assert [e.sha256 for e in before.first.checksums] == [
        e.sha256 for e in after.first.checksums
    ]


@pytest.mark.parametrize("kind", [k for k in ALL_KINDS if k is not FixtureKind.CONTROL])
def test_every_defect_fixture_diverges_and_remediates(tmp_path, kind):
    req = generate_fixture(kind, tmp_path / "src")
    verdict = double_build(req, staging_root=tmp_path / "stage1")
    assert verdict.reproducible is False, kind
    assert verdict.mismatched_files or verdict.missing_in_one

    remediate_fixture(kind, tmp_path / "src")
    fixed = double_build(req, staging_root=tmp_path / "stage2")
    assert fixed.reproducible is True, kind


@pytest.mark.parametrize("kind", sorted(DESIGNED_CAUSES, key=lambda k: k.value))
def test_designed_causes_mostly_classified(tmp_path, kind):
    req = generate_fixture(kind, tmp_path / "src")
    verdict = double_build(req, staging_root=tmp_path / "staging")
    findings = []
    for name in verdict.mismatched_files:
        a = (verdict.first.artifacts / name).read_bytes()
        b = (verdict.second.artifacts / name).read_bytes()
        findings.extend(classify(compare_bytes(a, b, path=name)))
    primary = primary_finding(findings)
    assert primary is not None
    if kind is FixtureKind.UNINITIALIZED_MEMORY:
        # padding bytes drawn from two live environments are both nonzero,
        # so the zero-vs-garbage signature cannot appear in this pairing
        assert primary.cause in (RootCause.UNINITIALIZED_MEMORY, RootCause.UNKNOWN)
    else:
        assert primary.cause is DESIGNED_CAUSES[kind], (kind, findings)

"""The adversarial double build.

One build request is executed twice, once under each variation profile, in
staged copies of the source tree. The two artifact sets are then compared
checksum-by-checksum, filename-wise: a renamed but byte-identical artifact
still counts as a failure, because downstream verification is per file. The
builds run sequentially, never in parallel, so the harness cannot introduce
nondeterminism of its own through shared caches or temp directories.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from .attestation import (
    ChecksumEntry,
    DependencyPin,
    SignedAttestation,
    compute_checksums,
    make_attestation,
    sign_attestation,
)
from .errors import ParseError, ValidationError
from .varenv import (
    BuildRequest,
    PreparedBuild,
    VariationProfile,
    apply_profile,
    default_profiles,
    read_settings,
    validate_request,
)

#: Exit code reserved for builds killed by the timeout.
TIMEOUT_EXIT_CODE = 124

META_FILENAME = "repro.meta"


@dataclass(frozen=True)
class BuildResult:
    profile_name: str
    exit_code: int
    artifacts: Path | None
    checksums: tuple[ChecksumEntry, ...]
    duration_ms: int
    log: bytes
    env: dict[str, str]


@dataclass(frozen=True)
class ReproVerdict:
    reproducible: bool
    first: BuildResult
    second: BuildResult
    mismatched_files: tuple[str, ...]
    missing_in_one: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class SourceMeta:
    source: str
    version: str
    architecture: str
    depends: tuple[DependencyPin, ...]


def parse_meta(path: Path | str) -> SourceMeta:
    """Read the ``repro.meta`` description at a source tree's root."""
    values: dict[str, str] = {}
    depends: list[DependencyPin] = []
    for key, value, line_no in read_settings(path):
        if key == "dep":
            dep_name, dep_sep, dep_version = (part.strip() for part in value.partition("="))
            if not dep_sep or not dep_name or not dep_version:
                raise ParseError("expected 'dep=<name>=<version>'", line_no)
            depends.append(DependencyPin(name=dep_name, version=dep_version))
        elif key in ("source", "version", "arch"):
            if key in values:
                raise ParseError(f"duplicate key {key!r}", line_no)
            values[key] = value
        else:
            raise ParseError(f"unknown key {key!r}", line_no)
    for required in ("source", "version", "arch"):
        if required not in values:
            raise ParseError(f"missing key {required!r} in {path}")
    return SourceMeta(
        source=values["source"],
        version=values["version"],
        architecture=values["arch"],
        depends=tuple(depends),
    )


def run_build(pb: PreparedBuild, req: BuildRequest) -> BuildResult:
    """Execute the staged build; the child sees exactly the profile's env."""
    entry = pb.workdir / req.build_entry
    if not entry.is_file():
        raise ValidationError(f"build entry missing from workdir: {entry}")
    start = time.monotonic()
    with subprocess.Popen(
        [str(entry)],
        cwd=pb.workdir,
        env=pb.env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        start_new_session=True,
    ) as proc:
        try:
            log, _ = proc.communicate(timeout=req.timeout_seconds)
            exit_code = proc.returncode
        except BaseException as err:
            # On a timeout or an interrupt, kill the build's whole process
            # group so helpers it forked die with it; in its own session it
            # no longer gets the terminal's Ctrl-C. The pipe is not drained
            # afterwards: a process that left the group could hold it open.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if not isinstance(err, subprocess.TimeoutExpired):
                raise
            exit_code = TIMEOUT_EXIT_CODE
            log = (err.stdout or b"") + b"\n[build timed out]\n"
    duration_ms = int((time.monotonic() - start) * 1000)
    Path(str(pb.workdir) + ".log").write_bytes(log)

    if exit_code == 0:
        out_dir = pb.workdir / req.output_subdir
        out_dir.mkdir(parents=True, exist_ok=True)
        checksums = compute_checksums(out_dir)
        artifacts: Path | None = out_dir
    else:
        checksums, artifacts = (), None
    return BuildResult(
        profile_name=pb.profile.name,
        exit_code=exit_code,
        artifacts=artifacts,
        checksums=checksums,
        duration_ms=duration_ms,
        log=log,
        env=dict(pb.env),
    )


def double_build(
    req: BuildRequest,
    profiles: tuple[VariationProfile, VariationProfile] | None = None,
    staging_root: Path | str | None = None,
) -> ReproVerdict:
    """Build under both profiles and compare artifacts filename-wise.

    Without ``staging_root`` the builds are staged in a fresh ``mkdtemp``
    directory that is left in place, because the verdict's artifact paths
    point into it; callers that want it gone pass a root they remove.
    """
    validate_request(req)
    first_profile, second_profile = profiles if profiles is not None else default_profiles()
    if staging_root is None:
        staging_root = tempfile.mkdtemp(prefix="reprokit-")
    first_pb = apply_profile(first_profile, req, staging_root)
    first = run_build(first_pb, req)
    if second_profile.build_path_component == first_profile.build_path_component:
        # Both builds must see the identical working path, so park the first
        # workdir out of the way once its checksums are taken.
        parked = first_pb.workdir.with_name(first_pb.workdir.name + ".first")
        if parked.exists():
            raise ValidationError(f"staging collision: {parked}")
        first_pb.workdir.rename(parked)
        log_path = Path(str(first_pb.workdir) + ".log")
        if log_path.exists():
            log_path.rename(str(parked) + ".log")
        if first.artifacts is not None:
            first = dataclasses.replace(first, artifacts=parked / req.output_subdir)
    second = run_build(apply_profile(second_profile, req, staging_root), req)

    by_name_first = {e.filename: e.sha256 for e in first.checksums}
    by_name_second = {e.filename: e.sha256 for e in second.checksums}
    mismatched = tuple(
        name
        for name in sorted(by_name_first.keys() & by_name_second.keys())
        if by_name_first[name] != by_name_second[name]
    )
    missing = tuple(
        [(name, "second") for name in sorted(by_name_first.keys() - by_name_second.keys())]
        + [(name, "first") for name in sorted(by_name_second.keys() - by_name_first.keys())]
    )
    reproducible = (
        first.exit_code == 0
        and second.exit_code == 0
        and not mismatched
        and not missing
    )
    return ReproVerdict(
        reproducible=reproducible,
        first=first,
        second=second,
        mismatched_files=mismatched,
        missing_in_one=missing,
    )


def attest_build(
    br: BuildResult, req: BuildRequest, builder_id: str, private_key: bytes
) -> SignedAttestation:
    """Sign an attestation binding this build's environment to its checksums."""
    if br.exit_code != 0:
        raise ValidationError("cannot attest a failed build")
    meta = parse_meta(Path(req.source_dir) / META_FILENAME)
    att = make_attestation(
        source=meta.source,
        version=meta.version,
        architecture=meta.architecture,
        checksums=br.checksums,
        depends=meta.depends,
        environment=br.env,
        builder_id=builder_id,
    )
    return sign_attestation(att, private_key)

"""The adversarial double build.

One build request is executed twice, once under each variation profile, in
staged copies of the source tree. The two artifact sets are then compared
checksum-by-checksum, filename-wise: a renamed but byte-identical artifact
still counts as a failure, because downstream verification is per file. The
two builds run side by side, because the harness gives them nothing in
common: each has its own staged tree, its own exact environment (no ``HOME``
or ``TMPDIR`` is passed) and its own ``<workdir>.log``. Only a pair whose
build paths are equal runs one build after the other, since both must see
the same working path.
"""

from __future__ import annotations

import dataclasses
import os
import selectors
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from .attestation import (
    ChecksumEntry,
    DependencyPin,
    SignedAttestation,
    compute_checksums,
    make_attestation,
    sign_attestation,
)
from .errors import ParseError, StructuralError, ValidationError
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

#: Bytes read from a build's output pipe at a time.
_READ_SIZE = 1 << 16

#: Seconds between exit checks on a build whose pipe closed, where the OS
#: offers no descriptor that reports the exit.
_EXIT_POLL_S = 0.01

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


@dataclass
class _Started:
    """A build the wait loop has started and not yet turned into a result."""

    pb: PreparedBuild
    proc: subprocess.Popen
    start: float
    deadline: float
    exit_fd: int | None
    watching: list[object] = field(default_factory=list)
    chunks: list[bytes] = field(default_factory=list)
    exit_code: int | None = None
    duration_ms: int = 0


def _exit_fd(pid: int) -> int | None:
    """A descriptor that turns readable once ``pid`` exits, where the OS has one."""
    try:
        return os.pidfd_open(pid)
    except (AttributeError, OSError):
        return None


def _time_out(sel: selectors.BaseSelector, build: _Started) -> None:
    """Stop watching ``build`` and kill its whole process group.

    Helpers it forked die with it. The pipe is not drained afterwards: a
    process that left the group could hold it open.
    """
    for fileobj in build.watching:
        sel.unregister(fileobj)
    build.watching.clear()
    os.killpg(build.proc.pid, signal.SIGKILL)
    build.proc.wait()
    build.chunks.append(b"\n[build timed out]\n")
    build.exit_code = TIMEOUT_EXIT_CODE


def _result(build: _Started, req: BuildRequest) -> BuildResult:
    pb = build.pb
    log = b"".join(build.chunks)
    Path(str(pb.workdir) + ".log").write_bytes(log)
    if build.exit_code == 0:
        # Resolved first, so a build cannot point its artifacts elsewhere
        # with a symlink or a '..'.
        out_dir = (pb.workdir / req.output_subdir).resolve()
        if not out_dir.is_relative_to(pb.workdir.resolve()):
            raise StructuralError(f"artifact directory resolves outside the workdir: {out_dir}")
        out_dir.mkdir(parents=True, exist_ok=True)
        checksums = compute_checksums(out_dir)
        artifacts: Path | None = out_dir
    else:
        checksums, artifacts = (), None
    return BuildResult(
        profile_name=pb.profile.name,
        exit_code=build.exit_code,
        artifacts=artifacts,
        checksums=checksums,
        duration_ms=build.duration_ms,
        log=log,
        env=dict(pb.env),
    )


def run_builds(pbs: list[PreparedBuild], req: BuildRequest) -> list[BuildResult]:
    """Execute staged builds side by side; results come in the order of ``pbs``.

    Each child sees exactly its profile's env and runs in a session of its
    own. One selector loop drains every build's output pipe, and its exit
    where the OS offers an exit descriptor, so no build waits on another.
    Each build's timeout counts from its own start. On any exception every
    started build's process group is killed and reaped before it propagates:
    in their own sessions the builds no longer get the terminal's Ctrl-C.
    """
    entries = [pb.workdir / req.build_entry for pb in pbs]
    for entry in entries:
        if not entry.is_file():
            raise ValidationError(f"build entry missing from workdir: {entry}")
    builds: list[_Started] = []
    try:
        with selectors.DefaultSelector() as sel:
            for pb, entry in zip(pbs, entries):
                start = time.monotonic()
                proc = subprocess.Popen(
                    [str(entry)],
                    cwd=pb.workdir,
                    env=pb.env,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT,
                    start_new_session=True,
                )
                build = _Started(pb, proc, start, start + req.timeout_seconds, _exit_fd(proc.pid))
                builds.append(build)
                for fileobj in (proc.stdout, build.exit_fd):
                    if fileobj is not None:
                        sel.register(fileobj, selectors.EVENT_READ, build)
                        build.watching.append(fileobj)
            while live := [b for b in builds if b.exit_code is None]:
                wait = max(0.0, min(b.deadline for b in live) - time.monotonic())
                if any(not b.watching for b in live):
                    # The pipe closed and no descriptor reports the exit.
                    wait = min(wait, _EXIT_POLL_S)
                for key, _ in sel.select(wait):
                    build = key.data
                    if key.fileobj is build.proc.stdout:
                        chunk = os.read(key.fd, _READ_SIZE)
                        if chunk:
                            build.chunks.append(chunk)
                            continue
                    sel.unregister(key.fileobj)
                    build.watching.remove(key.fileobj)
                now = time.monotonic()
                for build in live:
                    if not build.watching and build.proc.poll() is not None:
                        build.exit_code = build.proc.returncode
                    elif build.deadline <= now:
                        _time_out(sel, build)
                    else:
                        continue
                    build.duration_ms = int((time.monotonic() - build.start) * 1000)
    except BaseException:
        for build in builds:
            if build.proc.returncode is None:
                os.killpg(build.proc.pid, signal.SIGKILL)
                build.proc.wait()
        raise
    finally:
        for build in builds:
            build.proc.stdout.close()
            if build.exit_fd is not None:
                os.close(build.exit_fd)
    return [_result(build, req) for build in builds]


def run_build(pb: PreparedBuild, req: BuildRequest) -> BuildResult:
    """Execute one staged build; the child sees exactly the profile's env."""
    return run_builds([pb], req)[0]


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
    if second_profile.build_path_component != first_profile.build_path_component:
        second_pb = apply_profile(second_profile, req, staging_root)
        first, second = run_builds([first_pb, second_pb], req)
    else:
        # Both builds must see the identical working path, so the first
        # runs alone and its workdir is parked once its checksums are taken.
        [first] = run_builds([first_pb], req)
        parked = first_pb.workdir.with_name(first_pb.workdir.name + ".first")
        if parked.exists():
            raise ValidationError(f"staging collision: {parked}")
        first_pb.workdir.rename(parked)
        log_path = Path(str(first_pb.workdir) + ".log")
        if log_path.exists():
            log_path.rename(str(parked) + ".log")
        if first.artifacts is not None:
            first = dataclasses.replace(first, artifacts=parked / req.output_subdir)
        [second] = run_builds([apply_profile(second_profile, req, staging_root)], req)

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

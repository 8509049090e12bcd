"""The adversarial double build.

One build request is executed twice, once under each variation profile, in
staged copies of the source tree. The two artifact sets are then compared
checksum-by-checksum, filename-wise: a renamed but byte-identical artifact
still counts as a failure, because downstream verification is per file. The
two builds run side by side, because the harness gives them nothing in
common: each has its own staged tree, its own exact environment (no ``HOME``
or ``TMPDIR`` is passed) and its own ``<workdir>.log``, written as it runs.
Only a pair whose build paths are equal runs one build after the other,
since both must see the same working path.
"""

from __future__ import annotations

import contextlib
import dataclasses
import fcntl
import os
import selectors
import signal
import subprocess
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
from .errors import ParseError, StructuralError, ValidationError
from .varenv import (
    BuildRequest,
    PreparedBuild,
    VariationProfile,
    apply_profile,
    default_profiles,
    read_settings,
)

#: Exit code reserved for builds killed by the timeout.
TIMEOUT_EXIT_CODE = 124

#: Seconds between exit checks on a build whose exit no descriptor reports,
#: or whose output a process it left behind still holds open.
_EXIT_POLL_S = 0.01

META_FILENAME = "repro.meta"


@dataclass(frozen=True)
class BuildResult:
    """One build's outcome: exit code, artifacts and their checksums, run time,
    log and the file it was written to, and the environment it ran in."""

    profile_name: str
    exit_code: int
    artifacts: Path | None
    checksums: tuple[ChecksumEntry, ...]
    duration_ms: int
    log: bytes
    log_path: Path
    env: dict[str, str]


@dataclass(frozen=True)
class ReproVerdict:
    """A double build's outcome: both results and the artifacts that differ or
    that only one build made."""

    reproducible: bool
    first: BuildResult
    second: BuildResult
    mismatched_files: tuple[str, ...]
    missing_in_one: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class SourceMeta:
    """A source tree's ``repro.meta``: name, version, architecture and pinned
    dependencies."""

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
    log_fd: int
    start: float
    deadline: float
    #: Reports the build's exit; None where the OS offers none, or once it has.
    exit_fd: int | None
    exit_code: int | None = None
    duration_ms: int = 0


def _exit_fd(pid: int) -> int | None:
    """A descriptor that turns readable once ``pid`` exits, where the OS has one."""
    try:
        return os.pidfd_open(pid)
    except (AttributeError, OSError):
        return None


def _log_path(workdir: Path) -> Path:
    """Where the build staged in ``workdir`` writes its log: ``<workdir>.log``."""
    return workdir.with_name(workdir.name + ".log")


def _create_log(path: Path) -> int:
    """Create an empty log at ``path``, removing, not following, what a build left there."""
    path.unlink(missing_ok=True)
    return os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT | os.O_EXCL, 0o666)


def _output_released(build: _Started) -> bool:
    """Whether no process, the build or a helper it left, holds its output
    open any more, which keeps the lock taken on it before the start."""
    try:
        fcntl.flock(build.log_fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        return False
    return True


def _exited(pid: int) -> bool:
    """Whether the child ``pid`` has exited, leaving it unreaped."""
    return os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None


def _end(build: _Started) -> int:
    """Kill what is left of ``build``'s process group, so helpers it forked
    die with it, then reap its leader and return the leader's exit code."""
    # Systems differ on whether a group of zombies can be signalled.
    with contextlib.suppress(ProcessLookupError):
        os.killpg(build.proc.pid, signal.SIGKILL)
    return build.proc.wait()


def _result(build: _Started, req: BuildRequest) -> BuildResult:
    pb = build.pb
    # Read through the runner's own descriptor, so a build that replaces
    # its log path cannot change the log it is judged by.
    os.lseek(build.log_fd, 0, os.SEEK_SET)
    log = open(build.log_fd, "rb", closefd=False).read()
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
        log_path=_log_path(pb.workdir),
        env=pb.profile.env,
    )


def run_builds(pbs: list[PreparedBuild], req: BuildRequest) -> list[BuildResult]:
    """Execute staged builds side by side; results come in the order of ``pbs``.

    Each child sees exactly its profile's env and runs in a session of its
    own, with stdout and stderr going straight into its ``<workdir>.log`` as
    it runs. One selector loop waits on every build's exit, through an exit
    descriptor where the OS offers one, so no build waits on another. A build
    ends once it has exited and no process holds its output open any more,
    so helpers it leaves behind finish before its artifacts are checksummed.
    Each build's timeout counts from its own start. On any exception every
    started build is ended before it propagates: in their own sessions the
    builds no longer get the terminal's Ctrl-C. However a build ends, what is
    left of its process group is killed before its leader is reaped, even
    where a group of zombies refuses the signal, so no helper that let go of
    the output writes later. A helper that called ``setsid()`` has left the
    group and escapes.
    """
    entries = [pb.workdir / req.build_entry for pb in pbs]
    for entry in entries:
        if not entry.is_file():
            raise ValidationError(f"build entry missing from workdir: {entry}")
    builds: list[_Started] = []
    fds: list[int] = []
    try:
        with selectors.DefaultSelector() as sel:
            for pb, entry in zip(pbs, entries):
                log_path = _log_path(pb.workdir)
                log_fd = _create_log(log_path)
                fds.append(log_fd)
                # The build writes through an open file of its own, so a lock
                # on it lasts until the last process holding it closes it.
                out_fd = os.open(log_path, os.O_WRONLY | os.O_NOFOLLOW)
                fds.append(out_fd)
                fcntl.flock(out_fd, fcntl.LOCK_SH)
                start = time.monotonic()
                proc = subprocess.Popen(
                    [str(entry)],
                    cwd=pb.workdir,
                    env=pb.profile.env,
                    stdout=out_fd,
                    stderr=subprocess.STDOUT,
                    start_new_session=True,
                )
                os.close(fds.pop())  # out_fd: the build holds its own copy now
                build = _Started(
                    pb, proc, log_fd, start, start + req.timeout_seconds, _exit_fd(proc.pid)
                )
                builds.append(build)
                if build.exit_fd is not None:
                    fds.append(build.exit_fd)
                    sel.register(build.exit_fd, selectors.EVENT_READ, build)
            while live := [b for b in builds if b.exit_code is None]:
                wait = max(0.0, min(b.deadline for b in live) - time.monotonic())
                if any(b.exit_fd is None for b in live):
                    wait = min(wait, _EXIT_POLL_S)
                for key, _ in sel.select(wait):
                    sel.unregister(key.fileobj)
                    key.data.exit_fd = None
                now = time.monotonic()
                for build in live:
                    # Reaped only once its output is released and the helpers
                    # it left are killed, so the group keeps the build's id.
                    if _output_released(build) and _exited(build.proc.pid):
                        build.exit_code = _end(build)
                    elif build.deadline <= now:
                        _end(build)
                        os.write(build.log_fd, b"\n[build timed out]\n")
                        build.exit_code = TIMEOUT_EXIT_CODE
                    else:
                        continue
                    build.duration_ms = int((time.monotonic() - build.start) * 1000)
            return [_result(build, req) for build in builds]
    except BaseException:
        for build in builds:
            if build.proc.returncode is None:
                _end(build)
        raise
    finally:
        for fd in fds:
            os.close(fd)


def run_build(pb: PreparedBuild, req: BuildRequest) -> BuildResult:
    """Execute one staged build; the child sees exactly the profile's env."""
    return run_builds([pb], req)[0]


def double_build(
    req: BuildRequest,
    profiles: tuple[VariationProfile, VariationProfile] | None = None,
    *,
    staging_root: Path | str,
) -> ReproVerdict:
    """Build under both profiles and compare artifacts filename-wise.

    The builds are staged under ``staging_root``, which the caller owns: the
    verdict's artifact and log paths point into it, and it is left in place.
    """
    first_profile, second_profile = profiles if profiles is not None else default_profiles()
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
        # From the result, not the log path, which the build may have removed.
        parked_log = _log_path(parked)
        with open(_create_log(parked_log), "wb") as log_file:
            log_file.write(first.log)
        artifacts = parked / req.output_subdir if first.artifacts is not None else None
        first = dataclasses.replace(first, artifacts=artifacts, log_path=parked_log)
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

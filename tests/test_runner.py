"""Build execution: metadata parsing, staged runs, the double build."""

from __future__ import annotations

import functools
import os
import selectors
import sys
import tempfile
import time
from pathlib import Path

import pytest

from reprokit import cli
from reprokit.attestation import parse_buildinfo, parse_signed, verify_signature
from reprokit.errors import ParseError, StructuralError, ValidationError
from reprokit.runner import (
    META_FILENAME,
    TIMEOUT_EXIT_CODE,
    BuildRequest,
    attest_build,
    double_build,
    parse_meta,
    run_build,
    run_builds,
)
from reprokit.varenv import apply_profile, default_profiles

SHEBANG = "#!" + sys.executable + "\n"


def make_source(tmp_path, script_body: str, meta: str | None = None, name="src"):
    src = tmp_path / name
    src.mkdir()
    if meta is None:
        meta = "source=demo\nversion=1.0\narch=all\ndep=coreutils=9.1\n"
    (src / META_FILENAME).write_text(meta)
    entry = src / "build"
    entry.write_text(SHEBANG + script_body)
    entry.chmod(0o755)
    return src


def request(src, timeout=30) -> BuildRequest:
    return BuildRequest(
        source_dir=src, build_entry="build", output_subdir="out", timeout_seconds=timeout
    )


def test_parse_meta_good(tmp_path):
    path = tmp_path / META_FILENAME
    path.write_text(
        "source=widget\n"
        "\n"
        "version=2.1\n"
        "arch=amd64\n"
        "dep=libc6=2.31-13\n"
        "dep=zlib1g=1:1.2.11\n"
    )
    meta = parse_meta(path)
    assert meta.source == "widget"
    assert meta.version == "2.1"
    assert meta.architecture == "amd64"
    assert [(d.name, d.version) for d in meta.depends] == [
        ("libc6", "2.31-13"), ("zlib1g", "1:1.2.11"),
    ]


def test_parse_meta_comments_and_spaces(tmp_path):
    path = tmp_path / META_FILENAME
    path.write_text(
        "# release description\n"
        "source = demo\n"
        "  version=1.0  \n"
        "arch =all\n"
        "dep = zlib1g = 1:1.2.11\n"
    )
    meta = parse_meta(path)
    assert (meta.source, meta.version, meta.architecture) == ("demo", "1.0", "all")
    assert [(d.name, d.version) for d in meta.depends] == [("zlib1g", "1:1.2.11")]


@pytest.mark.parametrize("body,needle", [
    ("source=a\nversion=1\n", "missing key 'arch'"),
    ("source=a\nsource=b\nversion=1\narch=all\n", "duplicate"),
    ("source=a\nversion=1\narch=all\ncolor=red\n", "unknown key"),
    ("source=a\nversion=1\narch=all\ndep=oops\n", "dep"),
    ("just words\n", "key=value"),
])
def test_parse_meta_rejects(tmp_path, body, needle):
    path = tmp_path / META_FILENAME
    path.write_text(body)
    with pytest.raises(ParseError) as err:
        parse_meta(path)
    assert needle in str(err.value)


def test_parse_meta_missing_file(tmp_path):
    with pytest.raises(ParseError) as err:
        parse_meta(tmp_path / "absent.meta")
    assert "cannot read" in str(err.value)


def test_run_build_sees_exactly_the_profile_env(tmp_path):
    src = make_source(tmp_path, (
        "import os, pathlib\n"
        "pathlib.Path('out').mkdir()\n"
        "names = ','.join(sorted(os.environ))\n"
        "pathlib.Path('out/env.txt').write_text(names + '\\n')\n"
    ))
    profile = default_profiles()[0]
    req = request(src)
    pb = apply_profile(profile, req, tmp_path / "staging")
    result = run_build(pb, req)
    assert result.exit_code == 0
    assert result.profile_name == profile.name
    assert result.env == profile.env
    listed = (pb.workdir / "out" / "env.txt").read_text().strip().split(",")
    assert sorted(listed) == sorted(profile.env)
    assert "PATH" not in listed
    assert [e.filename for e in result.checksums] == ["env.txt"]


def test_run_build_failure_keeps_log_and_no_checksums(tmp_path):
    src = make_source(tmp_path, "import sys\nprint('exploding now')\nsys.exit(3)\n")
    req = request(src)
    pb = apply_profile(default_profiles()[0], req, tmp_path / "staging")
    result = run_build(pb, req)
    assert result.exit_code == 3
    assert result.checksums == () and result.artifacts is None
    assert b"exploding now" in result.log
    log_file = pb.workdir.parent / (pb.workdir.name + ".log")
    assert log_file.read_bytes() == result.log


def test_run_build_timeout(tmp_path):
    src = make_source(tmp_path, "import time\ntime.sleep(30)\n")
    req = request(src, timeout=1)
    pb = apply_profile(default_profiles()[0], req, tmp_path / "staging")
    result = run_build(pb, req)
    assert result.exit_code == TIMEOUT_EXIT_CODE
    assert b"[build timed out]" in result.log
    assert result.checksums == ()


# A build that forks a sleeper into its process group, records both pids,
# and then overruns any short timeout.
_FORKING_BUILD = (
    "import os, pathlib, sys, time\n"
    "sleeper = os.fork()\n"
    "if sleeper == 0:\n"
    "    time.sleep(10)\n"
    "    os._exit(0)\n"
    "pathlib.Path(sys.argv[0]).with_name('pids').write_text(f'{os.getpid()} {sleeper}')\n"
    "time.sleep(10)\n"
)


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def wait_dead(pids, seconds=5.0) -> list[int]:
    deadline = time.monotonic() + seconds
    while any(alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    return [p for p in pids if alive(p)]


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_run_build_timeout_kills_the_process_group(tmp_path):
    src = make_source(tmp_path, _FORKING_BUILD)
    req = request(src, timeout=2)
    pb = apply_profile(default_profiles()[0], req, tmp_path / "staging")
    result = run_build(pb, req)
    assert result.exit_code == TIMEOUT_EXIT_CODE
    pids = [int(p) for p in (pb.workdir / "pids").read_text().split()]
    assert wait_dead(pids) == []


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_run_build_interrupt_kills_the_process_group(tmp_path, monkeypatch):
    src = make_source(tmp_path, _FORKING_BUILD)
    req = request(src)
    pb = apply_profile(default_profiles()[0], req, tmp_path / "staging")
    pid_file = pb.workdir / "pids"

    def interrupted(self, timeout=None):
        deadline = time.monotonic() + 10
        while not (pid_file.exists() and pid_file.read_text()) and time.monotonic() < deadline:
            time.sleep(0.05)
        raise KeyboardInterrupt

    monkeypatch.setattr(selectors.DefaultSelector, "select", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_build(pb, req)
    pids = [int(p) for p in pid_file.read_text().split()]
    assert wait_dead(pids) == []


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_double_build_interrupt_kills_both_process_groups(tmp_path, monkeypatch):
    src = make_source(tmp_path, _FORKING_BUILD)
    staging = tmp_path / "staging"
    pid_files = [staging / p.build_path_component / "pids" for p in default_profiles()]

    def interrupted(self, timeout=None):
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and not all(
            f.exists() and f.read_text() for f in pid_files
        ):
            time.sleep(0.05)
        raise KeyboardInterrupt

    monkeypatch.setattr(selectors.DefaultSelector, "select", interrupted)
    with pytest.raises(KeyboardInterrupt):
        double_build(request(src), staging_root=staging)
    pids = [int(p) for f in pid_files for p in f.read_text().split()]
    assert len(pids) == 4
    assert wait_dead(pids) == []


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_check_timeout_leaves_no_process_and_only_its_logs(tmp_path, monkeypatch):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmpdir))
    monkeypatch.setattr(cli, "BuildRequest", functools.partial(BuildRequest, timeout_seconds=1))
    pid_file = tmp_path / "pids"
    src = make_source(tmp_path, (
        "import os, time\n"
        "sleeper = os.fork()\n"
        "if sleeper == 0:\n"
        "    time.sleep(10)\n"
        "    os._exit(0)\n"
        f"with open({str(pid_file)!r}, 'a') as fh:\n"
        "    fh.write(f'{os.getpid()} {sleeper} ')\n"
        "time.sleep(10)\n"
    ))
    assert cli.main(["check", str(src)]) == 4
    pids = [int(p) for p in pid_file.read_text().split()]
    assert len(pids) == 4
    assert wait_dead(pids) == []
    [log_dir] = tmpdir.iterdir()
    assert log_dir.name.startswith("reprokit-logs-")
    assert b"[build timed out]" in (log_dir / "first-build.log").read_bytes()


def test_run_build_missing_entry(tmp_path):
    src = make_source(tmp_path, "pass\n")
    req = request(src)
    pb = apply_profile(default_profiles()[0], req, tmp_path / "staging")
    (pb.workdir / "build").unlink()
    with pytest.raises(ValidationError):
        run_build(pb, req)


def test_symlinked_artifact_directory_is_refused(tmp_path, capsys):
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    (elsewhere / "secret.txt").write_text("not a build output\n")
    src = make_source(tmp_path, f"import os\nos.symlink({str(elsewhere)!r}, 'out')\n")
    req = request(src)
    pb = apply_profile(default_profiles()[0], req, tmp_path / "staging")
    with pytest.raises(StructuralError, match="outside the workdir"):
        run_build(pb, req)
    with pytest.raises(StructuralError, match="outside the workdir"):
        double_build(req, staging_root=tmp_path / "double")
    assert cli.main(["check", str(src), "--staging", str(tmp_path / "cli")]) == 3
    assert "outside the workdir" in capsys.readouterr().err
    assert (elsewhere / "secret.txt").read_text() == "not a build output\n"


def test_artifact_directory_may_be_a_symlink_inside_the_workdir(tmp_path):
    src = make_source(tmp_path, (
        "import os, pathlib\n"
        "pathlib.Path('build.d/out').mkdir(parents=True)\n"
        "pathlib.Path('build.d/out/a.txt').write_text('a\\n')\n"
        "os.symlink('build.d/out', 'out')\n"
    ))
    req = request(src)
    pb = apply_profile(default_profiles()[0], req, tmp_path / "staging")
    result = run_build(pb, req)
    assert [e.filename for e in result.checksums] == ["a.txt"]
    assert result.artifacts == (pb.workdir / "build.d" / "out").resolve()


def test_double_build_reproducible(tmp_path):
    src = make_source(tmp_path, (
        "import pathlib\n"
        "pathlib.Path('out').mkdir()\n"
        "pathlib.Path('out/fixed.txt').write_text('constant payload\\n')\n"
    ))
    verdict = double_build(request(src), staging_root=tmp_path / "staging")
    assert verdict.reproducible is True
    assert verdict.mismatched_files == () and verdict.missing_in_one == ()
    assert verdict.first.profile_name == "baseline"
    assert verdict.second.profile_name == "divergent"
    assert {e.filename for e in verdict.first.checksums} == {"fixed.txt"}


def test_double_build_mismatch(tmp_path):
    src = make_source(tmp_path, (
        "import os, pathlib\n"
        "pathlib.Path('out').mkdir()\n"
        "pathlib.Path('out/id.txt').write_text(os.environ['HOSTNAME'] + '\\n')\n"
    ))
    verdict = double_build(request(src), staging_root=tmp_path / "staging")
    assert verdict.reproducible is False
    assert verdict.mismatched_files == ("id.txt",)
    assert verdict.missing_in_one == ()


def test_double_build_missing_sides(tmp_path):
    src = make_source(tmp_path, (
        "import os, pathlib\n"
        "pathlib.Path('out').mkdir()\n"
        "host = os.environ['HOSTNAME']\n"
        "pathlib.Path('out/%s.txt' % host).write_text('x')\n"
        "pathlib.Path('out/common.txt').write_text('y')\n"
    ))
    verdict = double_build(request(src), staging_root=tmp_path / "staging")
    assert verdict.reproducible is False
    assert verdict.mismatched_files == ()
    assert verdict.missing_in_one == (("alpha.txt", "second"), ("beta.txt", "first"))


def test_double_build_failure_is_not_reproducible(tmp_path):
    src = make_source(tmp_path, (
        "import os, sys, pathlib\n"
        "if os.environ['HOSTNAME'] == 'beta':\n"
        "    sys.exit(9)\n"
        "pathlib.Path('out').mkdir()\n"
        "pathlib.Path('out/a.txt').write_text('x')\n"
    ))
    verdict = double_build(request(src), staging_root=tmp_path / "staging")
    assert verdict.reproducible is False
    assert verdict.first.exit_code == 0
    assert verdict.second.exit_code == 9
    assert verdict.second.checksums == ()


def test_double_build_stages_both_before_building(tmp_path):
    src = make_source(tmp_path, (
        "import pathlib\n"
        "print('built')\n"
        "pathlib.Path('out').mkdir()\n"
        "pathlib.Path('out/a.txt').write_text('x')\n"
    ))
    first, second = default_profiles()
    staging = tmp_path / "staging"
    (staging / second.build_path_component).mkdir(parents=True)
    with pytest.raises(StructuralError):
        double_build(request(src), staging_root=staging)
    first_workdir = staging / first.build_path_component
    assert not (staging / (first.build_path_component + ".log")).exists()
    assert not (first_workdir / "out").exists()


def test_double_build_runs_the_builds_side_by_side(tmp_path):
    # Each build waits for the other's marker: run one after the other, the
    # first would give up and the pair would not reproduce.
    src = make_source(tmp_path, (
        "import os, pathlib, sys, time\n"
        "root = pathlib.Path('..')\n"
        "me = os.environ['USER']\n"
        "other = {'builder-a': 'builder-b', 'builder-b': 'builder-a'}[me]\n"
        "(root / (me + '.ready')).write_text('')\n"
        "deadline = time.monotonic() + 5\n"
        "while not (root / (other + '.ready')).exists():\n"
        "    if time.monotonic() > deadline:\n"
        "        sys.exit(1)\n"
        "    time.sleep(0.01)\n"
        "pathlib.Path('out').mkdir()\n"
        "pathlib.Path('out/met.txt').write_text('both ran\\n')\n"
    ))
    verdict = double_build(request(src), staging_root=tmp_path / "staging")
    assert (verdict.first.exit_code, verdict.second.exit_code) == (0, 0)
    assert verdict.reproducible is True


def test_double_build_times_out_one_side_only(tmp_path):
    src = make_source(tmp_path, (
        "import os, pathlib, time\n"
        "print('started', flush=True)\n"
        "if os.environ['UMASK'] == '077':\n"
        "    time.sleep(30)\n"
        "pathlib.Path('out').mkdir()\n"
        "pathlib.Path('out/a.txt').write_text('x')\n"
    ))
    staging = tmp_path / "staging"
    verdict = double_build(request(src, timeout=1), staging_root=staging)
    assert verdict.reproducible is False
    assert verdict.first.exit_code == 0
    assert [e.filename for e in verdict.first.checksums] == ["a.txt"]
    assert verdict.second.exit_code == TIMEOUT_EXIT_CODE
    assert verdict.second.log.endswith(b"[build timed out]\n")
    assert verdict.second.checksums == () and verdict.second.artifacts is None
    for result, profile in zip((verdict.first, verdict.second), default_profiles()):
        assert result.log.startswith(b"started\n")
        log_file = staging / (profile.build_path_component + ".log")
        assert log_file.read_bytes() == result.log


def test_double_build_drains_large_logs_from_both_builds(tmp_path):
    # 1 MiB each, far beyond a pipe's capacity: an undrained side would block.
    src = make_source(tmp_path, (
        "import os, sys\n"
        "line = (os.environ['USER'] + ' ').encode() * 13 + b'\\n'\n"
        "sys.stdout.buffer.write((line * (1 << 20))[: 1 << 20])\n"
    ))
    staging = tmp_path / "staging"
    verdict = double_build(request(src), staging_root=staging)
    for result, profile in zip((verdict.first, verdict.second), default_profiles()):
        line = (profile.username + " ").encode() * 13 + b"\n"
        assert result.exit_code == 0
        assert result.log == (line * (1 << 20))[: 1 << 20]
        log_file = staging / (profile.build_path_component + ".log")
        assert log_file.read_bytes() == result.log


def test_run_build_log_is_what_the_build_printed_even_if_it_replaces_the_file(tmp_path):
    src = make_source(tmp_path, (
        "import os, pathlib\n"
        "print('real output', flush=True)\n"
        "log = pathlib.Path(os.getcwd() + '.log')\n"
        "log.unlink()\n"
        "log.write_text('forged\\n')\n"
    ))
    req = request(src)
    pb = apply_profile(default_profiles()[0], req, tmp_path / "staging")
    result = run_build(pb, req)
    assert result.exit_code == 0
    assert result.log == b"real output\n"


def test_double_build_same_path_keeps_the_first_log_the_build_removed(tmp_path):
    src = make_source(tmp_path, (
        "import os, pathlib\n"
        "print('built', flush=True)\n"
        "pathlib.Path(os.getcwd() + '.log').unlink()\n"
        "pathlib.Path('out').mkdir()\n"
    ))
    profile = default_profiles()[0]
    staging = tmp_path / "staging"
    verdict = double_build(request(src), profiles=(profile, profile), staging_root=staging)
    assert verdict.reproducible is True
    assert verdict.first.log == verdict.second.log == b"built\n"
    parked_log = staging / (profile.build_path_component + ".first.log")
    assert parked_log.read_bytes() == b"built\n"
    assert verdict.first.log_path == parked_log.resolve()


def test_double_build_same_path_follows_no_symlink_a_build_planted(tmp_path):
    targets = [tmp_path / "target-log", tmp_path / "target-first-log"]
    for target in targets:
        target.write_text("keep\n")
    src = make_source(tmp_path, (
        "import os, pathlib\n"
        "print('built', flush=True)\n"
        "work = os.getcwd()\n"
        "if os.path.lexists(work + '.log'):\n"
        "    os.unlink(work + '.log')\n"
        f"os.symlink({str(targets[0])!r}, work + '.log')\n"
        "if not os.path.lexists(work + '.first.log'):\n"
        f"    os.symlink({str(targets[1])!r}, work + '.first.log')\n"
        "pathlib.Path('out').mkdir()\n"
    ))
    profile = default_profiles()[0]
    staging = tmp_path / "staging"
    verdict = double_build(request(src), profiles=(profile, profile), staging_root=staging)
    assert verdict.reproducible is True
    assert verdict.first.log == verdict.second.log == b"built\n"
    assert [t.read_text() for t in targets] == ["keep\n", "keep\n"]
    parked_log = staging / (profile.build_path_component + ".first.log")
    assert not parked_log.is_symlink()
    assert parked_log.read_bytes() == b"built\n"


@pytest.mark.parametrize("exit_fd", [True, False], ids=["exit-fd", "no-exit-fd"])
def test_run_build_waits_for_a_helper_that_holds_its_output(tmp_path, monkeypatch, exit_fd):
    # The build exits at once; the helper it started writes later, and both
    # its output and its artifact belong to the build.
    if not exit_fd:
        monkeypatch.delattr(os, "pidfd_open", raising=False)
    helper = (
        "import pathlib, time\n"
        "time.sleep(0.3)\n"
        "print('late', flush=True)\n"
        "pathlib.Path('out/late.txt').write_text('x')\n"
    )
    src = make_source(tmp_path, (
        "import pathlib, subprocess, sys\n"
        "pathlib.Path('out').mkdir()\n"
        f"subprocess.Popen([sys.executable, '-c', {helper!r}])\n"
    ))
    req = request(src)
    result = run_build(apply_profile(default_profiles()[0], req, tmp_path / "staging"), req)
    assert result.exit_code == 0
    assert [e.filename for e in result.checksums] == ["late.txt"]
    assert result.log == b"late\n"


_FD_CASES = {
    "success": ("import pathlib\npathlib.Path('out').mkdir()\n", 30, 0),
    "failure": ("import sys\nsys.exit(3)\n", 30, 3),
    "timeout": ("import time\ntime.sleep(30)\n", 1, TIMEOUT_EXIT_CODE),
    "interrupt": ("import time\ntime.sleep(30)\n", 30, None),
}


@pytest.mark.skipif(not Path("/proc/self/fd").exists(), reason="needs /proc")
@pytest.mark.parametrize("case", list(_FD_CASES))
def test_run_builds_leaves_no_descriptor_open(tmp_path, monkeypatch, case):
    body, timeout, exit_code = _FD_CASES[case]
    src = make_source(tmp_path, body)
    req = request(src, timeout=timeout)
    pbs = [apply_profile(p, req, tmp_path / "staging") for p in default_profiles()]
    before = len(os.listdir("/proc/self/fd"))
    if exit_code is None:
        def interrupted(self, timeout=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(selectors.DefaultSelector, "select", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_builds(pbs, req)
    else:
        assert [r.exit_code for r in run_builds(pbs, req)] == [exit_code] * 2
    assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize("exit_fd", [True, False], ids=["exit-fd", "no-exit-fd"])
def test_run_builds_wait_for_exit_after_the_pipe_closes(tmp_path, monkeypatch, exit_fd):
    # A build that closes its output and keeps running is still waited for,
    # and one that never exits still times out, with or without an exit fd.
    if not exit_fd:
        monkeypatch.delattr(os, "pidfd_open", raising=False)
    # The never-exiting side closes first, so a loop that blocked on it
    # would see the other side only after its deadline.
    src = make_source(tmp_path, (
        "import os, pathlib, time\n"
        "if os.environ['HOSTNAME'] == 'alpha':\n"
        "    time.sleep(0.2)\n"
        "os.close(1)\n"
        "os.close(2)\n"
        "if os.environ['HOSTNAME'] == 'beta':\n"
        "    time.sleep(30)\n"
        "time.sleep(0.3)\n"
        "pathlib.Path('out').mkdir()\n"
        "pathlib.Path('out/late.txt').write_text('x')\n"
    ))
    req = request(src, timeout=2)
    pbs = [apply_profile(p, req, tmp_path / "staging") for p in default_profiles()]
    first, second = run_builds(pbs, req)
    assert first.exit_code == 0
    assert first.duration_ms < 1500
    assert [e.filename for e in first.checksums] == ["late.txt"]
    assert second.exit_code == TIMEOUT_EXIT_CODE
    assert second.log == b"\n[build timed out]\n"


def test_double_build_same_profile_shares_the_workdir_path(tmp_path):
    src = make_source(tmp_path, (
        "import os, pathlib\n"
        "pathlib.Path('out').mkdir()\n"
        "pathlib.Path('out/where.txt').write_text(os.getcwd() + '\\n')\n"
    ))
    profile = default_profiles()[0]
    verdict = double_build(
        request(src), profiles=(profile, profile), staging_root=tmp_path / "staging"
    )
    # both builds saw the identical absolute cwd, so embedding it reproduces
    assert verdict.reproducible is True
    parked = tmp_path / "staging" / (profile.build_path_component + ".first")
    live = tmp_path / "staging" / profile.build_path_component
    assert parked.is_dir() and live.is_dir()
    assert (parked / "out" / "where.txt").read_text() == (live / "out" / "where.txt").read_text()
    assert verdict.first.artifacts == parked / "out"


def test_double_build_validates_request(tmp_path):
    src = make_source(tmp_path, "pass\n")
    bad = BuildRequest(source_dir=src, build_entry="build", output_subdir="out",
                       timeout_seconds=0)
    with pytest.raises(ValidationError):
        double_build(bad, staging_root=tmp_path / "staging")


def test_attest_build_binds_env_and_checksums(tmp_path):
    from reprokit.attestation import generate_signing_key

    src = make_source(tmp_path, (
        "import pathlib\n"
        "pathlib.Path('out').mkdir()\n"
        "pathlib.Path('out/pkg.bin').write_bytes(b'artifact body')\n"
    ))
    req = request(src)
    profile = default_profiles()[0]
    pb = apply_profile(profile, req, tmp_path / "staging")
    result = run_build(pb, req)
    private_key, public_key = generate_signing_key()
    sa = attest_build(result, req, "rebuilder-01", private_key)
    att = parse_buildinfo(sa.body)
    assert att.source == "demo" and att.version == "1.0"
    assert att.architecture == "all"
    assert [c.filename for c in att.checksums] == ["pkg.bin"]
    assert dict(att.environment) == profile.env
    assert [(d.name, d.version) for d in att.depends] == [("coreutils", "9.1")]
    assert verify_signature(sa, public_key)
    # wire round-trip survives
    from reprokit.attestation import serialize_signed
    assert parse_signed(serialize_signed(sa)) == sa


def test_attest_build_refuses_failed_builds(tmp_path):
    from reprokit.attestation import generate_signing_key

    src = make_source(tmp_path, "import sys\nsys.exit(1)\n")
    req = request(src)
    pb = apply_profile(default_profiles()[0], req, tmp_path / "staging")
    result = run_build(pb, req)
    private_key, _ = generate_signing_key()
    with pytest.raises(ValidationError):
        attest_build(result, req, "rebuilder-01", private_key)

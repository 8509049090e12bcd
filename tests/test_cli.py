"""Command-line interface: every subcommand and every exit code."""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import zipfile
import zlib
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import reprokit
from reprokit import cli
from reprokit.fixtures import FixtureKind, generate_fixture
from reprokit.formats import Member, parse_tar, write_tar
from reprokit.runner import META_FILENAME
from reprokit.varenv import default_profiles

SHEBANG = "#!" + sys.executable + "\n"


def make_tree(tmp_path, script_body: str, name="src"):
    src = tmp_path / name
    src.mkdir()
    (src / META_FILENAME).write_text("source=demo\nversion=1.0\narch=all\n")
    entry = src / "build"
    entry.write_text(SHEBANG + script_body)
    entry.chmod(0o755)
    return src


def test_check_reproducible_exact_output(tmp_path, capsys):
    generate_fixture(FixtureKind.CONTROL, tmp_path / "src")
    code = cli.main(["check", str(tmp_path / "src"), "--staging", str(tmp_path / "stage")])
    assert code == 0
    assert capsys.readouterr().out == "reproducible: 1 artifact(s) bit-for-bit identical\n"


@pytest.mark.parametrize("staging", [True, False], ids=["staging", "no-staging"])
def test_check_names_each_build_its_duration_and_kept_log(tmp_path, capsys, staging):
    """One stderr line per build; a log is named only where it outlives the
    command, under --staging. Stdout is the same either way."""
    generate_fixture(FixtureKind.CONTROL, tmp_path / "src")
    stage = tmp_path / "stage"
    argv = ["check", str(tmp_path / "src")] + (["--staging", str(stage)] if staging else [])
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == "reproducible: 1 artifact(s) bit-for-bit identical\n"
    lines = captured.err.splitlines()
    assert len(lines) == 2, lines
    for line, profile in zip(lines, default_profiles()):
        found = re.fullmatch(
            rf"build under profile '{profile.name}': duration_ms=(\d+)(?:, log: (.+))?", line)
        assert found, line
        if staging:
            log = stage.resolve() / (profile.build_path_component + ".log")
            assert (found[2], log.is_file()) == (str(log), True)
        else:
            assert found[2] is None


def test_check_unreproducible_with_json_report(tmp_path, capsys):
    generate_fixture(FixtureKind.TIMESTAMP, tmp_path / "src")
    report = tmp_path / "report.json"
    code = cli.main([
        "check", str(tmp_path / "src"),
        "--staging", str(tmp_path / "stage"),
        "--report", str(report), "--format", "json",
    ])
    assert code == 1
    assert capsys.readouterr().out == "unreproducible: 1 artifact(s) differ\n"
    doc = json.loads(report.read_bytes())
    assert doc["reproducible"] is False
    assert doc["mismatched"] == ["tool.txt"]
    assert doc["artifacts"][0]["path"] == "tool.txt"
    assert doc["findings"][0]["cause"] == "timestamp"


def test_check_text_report_carries_findings(tmp_path):
    generate_fixture(FixtureKind.LOCALE_TIMEZONE, tmp_path / "src")
    report = tmp_path / "report.txt"
    code = cli.main([
        "check", str(tmp_path / "src"),
        "--staging", str(tmp_path / "stage"),
        "--report", str(report),
    ])
    assert code == 1
    text = report.read_text()
    assert text.startswith("verdict: unreproducible")
    assert "locale_or_timezone" in text


def test_check_reports_are_deterministic(tmp_path):
    generate_fixture(FixtureKind.TIMESTAMP, tmp_path / "src")
    reports = []
    for run in ("one", "two"):
        report = tmp_path / f"report-{run}.json"
        code = cli.main([
            "check", str(tmp_path / "src"),
            "--staging", str(tmp_path / f"stage-{run}"),
            "--report", str(report), "--format", "json",
        ])
        assert code == 1
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


def test_check_html_reports_are_deterministic(tmp_path):
    generate_fixture(FixtureKind.TIMESTAMP, tmp_path / "src")
    reports = []
    for run in ("one", "two"):
        report = tmp_path / f"report-{run}.html"
        code = cli.main([
            "check", str(tmp_path / "src"),
            "--staging", str(tmp_path / f"stage-{run}"),
            "--report", str(report), "--format", "html",
        ])
        assert code == 1
        reports.append(report.read_text(encoding="utf-8"))
    assert reports[0] == reports[1]
    assert re.findall(r"<h2>([^<]*)</h2>", reports[0]) == ["tool.txt", "findings"]
    assert "<tr><td>timestamp</td><td>tool.txt</td>" in reports[0]


def test_check_text_report_names_an_artifact_one_build_missed(tmp_path):
    src = make_tree(tmp_path, (
        "import os, pathlib\n"
        "pathlib.Path('out').mkdir()\n"
        "pathlib.Path('out/a.txt').write_text('a')\n"
        "if 'SOURCE_DATE_EPOCH' in os.environ:\n"
        "    pathlib.Path('out/extra.txt').write_text('e')\n"
    ))
    report = tmp_path / "report.txt"
    code = cli.main(["check", str(src), "--staging", str(tmp_path / "stage"),
                     "--report", str(report)])
    assert code == 1
    assert report.read_text().splitlines()[:2] == [
        "verdict: unreproducible", "missing from second build: extra.txt",
    ]


def test_check_missing_meta_is_usage_error(tmp_path, capsys):
    (tmp_path / "src").mkdir()
    code = cli.main(["check", str(tmp_path / "src")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_check_build_failure(tmp_path, capsys):
    src = make_tree(tmp_path, "import sys\nprint('kaboom')\nsys.exit(7)\n")
    code = cli.main(["check", str(src), "--staging", str(tmp_path / "stage")])
    assert code == 4
    err = capsys.readouterr().err
    assert "build failed under profile" in err
    assert ".log" in err
    log = tmp_path / "stage" / "first-build.log"
    assert b"kaboom" in log.read_bytes()


@pytest.fixture
def private_tmpdir(tmp_path, monkeypatch):
    """Point the tempfile module at an empty directory of the test's own."""
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmpdir))
    return tmpdir


@pytest.mark.parametrize("kind,expected", [
    (FixtureKind.CONTROL, 0),
    (FixtureKind.TIMESTAMP, 1),
])
def test_check_without_staging_leaves_nothing_behind(tmp_path, private_tmpdir, kind, expected):
    generate_fixture(kind, tmp_path / "src")
    report = tmp_path / "report.json"
    code = cli.main(["check", str(tmp_path / "src"), "--report", str(report), "--format", "json"])
    assert code == expected
    assert json.loads(report.read_bytes())["reproducible"] is (expected == 0)
    assert list(private_tmpdir.iterdir()) == []


def test_check_build_failure_without_staging_keeps_only_its_logs(tmp_path, private_tmpdir, capsys):
    src = make_tree(tmp_path, "import sys\nprint('kaboom')\nsys.exit(7)\n")
    assert cli.main(["check", str(src)]) == 4
    [log_dir] = private_tmpdir.iterdir()
    assert log_dir.name.startswith("reprokit-logs-")
    assert str(log_dir / "first-build.log") in capsys.readouterr().err
    assert b"kaboom" in (log_dir / "first-build.log").read_bytes()


#: A file name that is not UTF-8, as ``os.listdir`` returns it.
NOT_UTF8 = os.fsdecode(b"\xff")


def non_utf8_probe(tmp_path, probe: str) -> list[str]:
    """The arguments of one command that meets a file name that is not UTF-8."""
    if probe == "diff":
        (tmp_path / f"x{NOT_UTF8}").write_text("one\n")
        (tmp_path / "y").write_text("two\n")
        return ["diff", f"x{NOT_UTF8}", "y"]
    if probe == "source":
        src = make_tree(tmp_path, "import os\nos.mkdir('out')\nopen('out/a.txt', 'w').write('a')\n")
        (src / f"b{NOT_UTF8}").write_text("staged, never built from\n")
        return ["check", str(src)]
    src = make_tree(tmp_path, "import os\nos.mkdir('out')\nopen(b'out/a\\xff', 'w').write('a')\n")
    if probe == "check":
        return ["check", str(src)]
    return ["attest", str(src), "--builder-id", "b-01", "--key", "k", "--generate-key"]


@pytest.mark.parametrize("probe,code,err", [
    ("source", 0, None),
    ("check", 3, "error: artifact file name is not UTF-8: b'a\\xff'\n"),
    ("attest", 3, "error: artifact file name is not UTF-8: b'a\\xff'\n"),
    ("diff", 3, "error: file name is not UTF-8: b'x\\xff'\n"),
])
def test_a_file_name_that_is_not_utf8_stages_or_is_refused(tmp_path, probe, code, err):
    """A source file's name is staged as its bytes; an artifact's name, or the
    name a diff report starts from, is an input error. Neither is a
    traceback, and no staging is left behind."""
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    argv = non_utf8_probe(tmp_path, probe)
    proc = subprocess.run(
        [sys.executable, "-m", "reprokit.cli", *argv], capture_output=True, text=True,
        cwd=tmp_path, env=source_tree_env() | {"TMPDIR": str(tmpdir)}, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if err is not None:
        assert (proc.stdout, proc.stderr) == ("", err)
    else:
        assert proc.stdout == "reproducible: 1 artifact(s) bit-for-bit identical\n"
    assert list(tmpdir.iterdir()) == []


def write_profile(path: Path, name: str, clock_skew_seconds: int) -> Path:
    path.write_text(
        f"name = {name}\nclock_skew_seconds = {clock_skew_seconds}\n"
        f"build_path_component = {name}\nfs_ordering = forward\numask = 022\n"
        "locale = C\ntimezone = UTC\nhostname = h\nusername = u\n"
    )
    return path


def test_check_classifies_against_the_loaded_profiles_clocks(tmp_path):
    # Both clocks lie far outside the stock profiles' timestamp window.
    src = make_tree(tmp_path, (
        "import os\nos.makedirs('out')\n"
        "with open('out/stamp.txt', 'w') as fh:\n"
        "    fh.write('built at ' + os.environ['REPRO_EPOCH'] + '\\n')\n"
    ))
    report = tmp_path / "report.json"
    code = cli.main([
        "check", str(src), "--staging", str(tmp_path / "stage"),
        "--profile-a", str(write_profile(tmp_path / "a.profile", "one", 450_000_000)),
        "--profile-b", str(write_profile(tmp_path / "b.profile", "two", 400_000_000)),
        "--report", str(report), "--format", "json",
    ])
    assert code == 1
    [finding] = json.loads(report.read_bytes())["findings"]
    assert (finding["cause"], finding["confidence"]) == ("timestamp", "high")


@pytest.mark.parametrize("old,new", [
    ("umask = 022", "umask = -1"),
    ("umask = 022", "umask = 17777"),
    ("username = u", "username = u\nsource_date_epoch = -5"),
], ids=["negative-umask", "wide-umask", "negative-source-date-epoch"])
def test_check_refuses_a_profile_knob_out_of_range(tmp_path, capsys, old, new):
    src = make_tree(tmp_path, "raise SystemExit('no build runs')\n")
    profile = write_profile(tmp_path / "a.profile", "one", 0)
    profile.write_text(profile.read_text().replace(old, new))
    stage = tmp_path / "stage"
    code = cli.main(["check", str(src), "--staging", str(stage), "--profile-a", str(profile)])
    assert code == 3
    knob = new.rsplit("\n", 1)[-1].split(" = ")[0]
    assert knob in capsys.readouterr().err
    assert not stage.exists()


def test_check_unknown_flag_is_usage_error(tmp_path, capsys):
    code = cli.main(["check", str(tmp_path), "--frobnicate"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_diff_identical_and_different(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("same\n")
    b.write_text("same\n")
    assert cli.main(["diff", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "artifacts are identical\n"
    b.write_text("changed\n")
    assert cli.main(["diff", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "-same" in out and "+changed" in out


def test_diff_report_file_and_json(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("one\n")
    b.write_text("two\n")
    report = tmp_path / "diff.json"
    code = cli.main(["diff", str(a), str(b), "--report", str(report), "--format", "json"])
    assert code == 1
    assert capsys.readouterr().out == f"report written: {report}\n"
    doc = json.loads(report.read_bytes())
    assert doc["path"] == "a.txt" and doc["status"] == "differs"


def test_diff_missing_file(tmp_path, capsys):
    a = tmp_path / "a.txt"
    a.write_text("x")
    assert cli.main(["diff", str(a), str(tmp_path / "nope")]) == 3
    assert "error:" in capsys.readouterr().err


def test_normalize_default_output(tmp_path, capsys):
    raw = write_tar([Member(name="f", content=b"x", mtime=8_000_000_000, uid=77,
                            uname="alice")])
    archive = tmp_path / "a.tar"
    archive.write_bytes(raw)
    code = cli.main(["normalize", "--epoch", "1600000000", str(archive)])
    assert code == 0
    out_path = tmp_path / "a.tar.norm"
    assert capsys.readouterr().out == f"wrote {out_path}\n"
    (m,) = parse_tar(out_path.read_bytes())
    assert (m.mtime, m.uid, m.uname) == (1_600_000_000, 0, "root")


def test_normalize_stdout_and_keep_owners(tmp_path, capsysbinary):
    raw = write_tar([Member(name="f", content=b"x", mtime=50, uid=77, uname="alice")])
    archive = tmp_path / "a.tar"
    archive.write_bytes(raw)
    code = cli.main(["normalize", "--epoch", "100", "--keep-owners", str(archive), "-"])
    assert code == 0
    (m,) = parse_tar(capsysbinary.readouterr().out)
    assert (m.uid, m.uname, m.mtime) == (77, "alice", 50)


def test_normalize_epoch_from_environment(tmp_path, capsys, monkeypatch):
    raw = write_tar([Member(name="f", content=b"x", mtime=8_000_000_000)])
    archive = tmp_path / "a.tar"
    archive.write_bytes(raw)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "123")
    assert cli.main(["normalize", str(archive)]) == 0
    capsys.readouterr()
    assert parse_tar((tmp_path / "a.tar.norm").read_bytes())[0].mtime == 123
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "garbage")
    assert cli.main(["normalize", str(archive)]) == 3
    assert "SOURCE_DATE_EPOCH" in capsys.readouterr().err


def test_normalize_zip_its_writer_refuses_is_a_one_line_error(tmp_path, capsys):
    # One name of 30,000 cp437 bytes is 90,000 bytes in UTF-8, more than a
    # zip name length can hold.
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("x" * 30_000, b"wide\n")
    archive = tmp_path / "wide.zip"
    archive.write_bytes(buf.getvalue().replace(b"x" * 30_000, b"\xb0" * 30_000))
    assert cli.main(["normalize", "--epoch", "100", str(archive)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exceeds 65535" in err
    assert not (tmp_path / "wide.zip.norm").exists()


def test_normalize_epoch_flag_wins_over_environment(tmp_path, capsys, monkeypatch):
    raw = write_tar([Member(name="f", content=b"x", mtime=8_000_000_000)])
    archive = tmp_path / "a.tar"
    archive.write_bytes(raw)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "garbage")
    assert cli.main(["normalize", "--epoch", "100", str(archive)]) == 0
    assert capsys.readouterr().err == ""
    assert parse_tar((tmp_path / "a.tar.norm").read_bytes())[0].mtime == 100


@pytest.mark.parametrize("spelling,message", [
    ("1_000", None), ("+5", None), (" 7 ", None), ("\u0663", None), ("", None),
    ("-5", "policy epoch must be non-negative"),
], ids=["underscore", "plus-sign", "spaces", "arabic-indic", "empty", "negative"])
@pytest.mark.parametrize("via", ["flag", "environment"])
def test_normalize_epoch_is_ascii_decimal_digits(tmp_path, capsys, monkeypatch, spelling,
                                                 message, via):
    archive = tmp_path / "a.tar"
    archive.write_bytes(write_tar([Member(name="f", content=b"x", mtime=50)]))
    argv = ["normalize", str(archive)]
    if via == "flag":
        argv[1:1] = ["--epoch", spelling]
        message = message or f"argument --epoch: invalid int value: {spelling!r}"
    else:
        monkeypatch.setenv("SOURCE_DATE_EPOCH", spelling)
        message = message or f"bad SOURCE_DATE_EPOCH value {spelling!r}"
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.endswith(f"error: {message}\n")
    assert not (tmp_path / "a.tar.norm").exists()


def test_attest_verify_round_trip(tmp_path, capsys):
    generate_fixture(FixtureKind.CONTROL, tmp_path / "src")
    key = tmp_path / "builder.key"
    signed_path = tmp_path / "control.buildinfo.signed"
    code = cli.main([
        "attest", str(tmp_path / "src"),
        "--builder-id", "rebuilder-01",
        "--key", str(key), "--generate-key",
        "--staging", str(tmp_path / "stage"),
        "--out", str(signed_path),
    ])
    assert code == 0
    assert capsys.readouterr().out == f"attestation written: {signed_path}\n"
    assert len(key.read_bytes()) == 32
    assert len((tmp_path / "builder.key.pub").read_bytes()) == 32

    (artifact,) = (tmp_path / "stage").glob("*/out/*")
    code = cli.main([
        "verify", str(artifact),
        "--attestation", str(signed_path),
        "--pubkey", str(tmp_path / "builder.key.pub"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "signature: ok\n" in out
    assert f"verified: {artifact.name} matches the attestation\n" in out

    artifact.write_bytes(artifact.read_bytes() + b"tampered")
    code = cli.main(["verify", str(artifact), "--attestation", str(signed_path)])
    assert code == 1
    assert "mismatch" in capsys.readouterr().out


def test_attest_refuses_a_builder_id_that_is_not_utf8(tmp_path, capsys):
    # Argument bytes that do not decode reach the program as lone surrogates.
    builder_id = os.fsdecode(b"b\xff")
    generate_fixture(FixtureKind.CONTROL, tmp_path / "src")
    signed_path = tmp_path / "att.signed"
    code = cli.main([
        "attest", str(tmp_path / "src"), "--builder-id", builder_id,
        "--key", str(tmp_path / "builder.key"), "--generate-key",
        "--staging", str(tmp_path / "stage"), "--out", str(signed_path),
    ])
    assert code == 3
    assert capsys.readouterr().err == "error: Builder-Id must be UTF-8: 'b\\udcff'\n"
    assert not signed_path.exists()


def test_verify_wrong_public_key(tmp_path, capsys):
    from reprokit.attestation import generate_signing_key

    generate_fixture(FixtureKind.CONTROL, tmp_path / "src")
    key = tmp_path / "builder.key"
    signed_path = tmp_path / "att.signed"
    assert cli.main([
        "attest", str(tmp_path / "src"), "--builder-id", "rebuilder-01",
        "--key", str(key), "--generate-key",
        "--staging", str(tmp_path / "stage"), "--out", str(signed_path),
    ]) == 0
    capsys.readouterr()
    _, other_public = generate_signing_key()
    wrong = tmp_path / "wrong.pub"
    wrong.write_bytes(other_public)
    (artifact,) = (tmp_path / "stage").glob("*/out/*")
    code = cli.main([
        "verify", str(artifact), "--attestation", str(signed_path),
        "--pubkey", str(wrong),
    ])
    assert code == 1
    assert "fingerprint" in capsys.readouterr().out


def test_generate_key_creates_a_private_key_and_never_replaces_one(tmp_path, capsys):
    generate_fixture(FixtureKind.CONTROL, tmp_path / "src")
    key, pub = tmp_path / "builder.key", tmp_path / "builder.key.pub"
    stage, signed_path = tmp_path / "stage", tmp_path / "att.signed"
    argv = [
        "attest", str(tmp_path / "src"), "--builder-id", "rebuilder-01",
        "--key", str(key), "--generate-key",
        "--staging", str(stage), "--out", str(signed_path),
    ]
    umask = os.umask(0o022)
    try:
        assert cli.main(argv) == 0
    finally:
        os.umask(umask)
    assert (key.stat().st_mode & 0o777, pub.stat().st_mode & 0o777) == (0o600, 0o644)
    pair = (key.read_bytes(), pub.read_bytes())
    signed_path.unlink()
    staged = sorted(stage.iterdir())
    capsys.readouterr()

    # A second run refuses before it builds and leaves the pinned pair alone.
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == f"error: key file exists, not replaced: {key}\n"
    assert (key.read_bytes(), pub.read_bytes()) == pair
    assert sorted(stage.iterdir()) == staged
    assert not signed_path.exists()

    # With only the public half left, no private key is left behind either.
    key.unlink()
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == f"error: key file exists, not replaced: {pub}\n"
    assert not key.exists()
    assert pub.read_bytes() == pair[1]


def signed_pair(tmp_path, artifact: Path, *, listed_as=None, size=None, forge=False):
    """Sign an attestation of ``artifact`` and return (attestation, pinned key).

    ``listed_as`` and ``size`` change what the entry claims; with ``forge``
    another key signs while the pinned key's fingerprint is carried.
    """
    import dataclasses

    from reprokit.attestation import (
        ChecksumEntry, generate_signing_key, key_fingerprint, make_attestation,
        serialize_signed, sign_attestation,
    )

    data = artifact.read_bytes()
    entry = ChecksumEntry(
        filename=listed_as or artifact.name, size=len(data) if size is None else size,
        sha1=hashlib.sha1(data).hexdigest(), sha256=hashlib.sha256(data).hexdigest(),
    )
    att = make_attestation(
        source="demo", version="1.0", architecture="all", checksums=[entry],
        depends=[], environment={}, builder_id="rebuilder-01",
    )
    private_key, public_key = generate_signing_key()
    signer = generate_signing_key()[0] if forge else private_key
    signed = dataclasses.replace(sign_attestation(att, signer),
                                 public_key_fingerprint=key_fingerprint(public_key))
    signed_path = tmp_path / "att.signed"
    signed_path.write_bytes(serialize_signed(signed))
    pub_path = tmp_path / "builder.pub"
    pub_path.write_bytes(public_key)
    return signed_path, pub_path


def attest_one_file(tmp_path, artifact: Path) -> Path:
    """Sign an attestation that lists only ``artifact``, hashed independently."""
    return signed_pair(tmp_path, artifact)[0]


def test_verify_artifact_not_listed(tmp_path, capsys):
    listed = tmp_path / "pkg.deb"
    listed.write_bytes(b"payload\n")
    signed_path = attest_one_file(tmp_path, listed)
    assert cli.main(["verify", str(listed), "--attestation", str(signed_path)]) == 0
    assert capsys.readouterr().out == "verified: pkg.deb matches the attestation\n"

    other = tmp_path / "other.deb"
    other.write_bytes(b"payload\n")
    assert cli.main(["verify", str(other), "--attestation", str(signed_path)]) == 1
    assert capsys.readouterr().out == "mismatch: other.deb is not listed in the attestation\n"


def test_verify_missing_artifact_file(tmp_path, capsys):
    listed = tmp_path / "pkg.deb"
    listed.write_bytes(b"payload\n")
    signed_path = attest_one_file(tmp_path, listed)
    listed.unlink()
    assert cli.main(["verify", str(listed), "--attestation", str(signed_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("claim,code,out,hashes", [
    ({}, 0, "signature: ok\nverified: pkg.deb matches the attestation\n", 1),
    ({"forge": True}, 1, "signature: INVALID\n", 0),
    ({"listed_as": "other.deb"}, 1,
     "signature: ok\nmismatch: pkg.deb is not listed in the attestation\n", 0),
    ({"size": 9}, 1,
     "signature: ok\nmismatch: pkg.deb does not match the attested checksums\n", 0),
])
def test_verify_hashes_only_after_the_cheap_checks(tmp_path, capsys, monkeypatch,
                                                   claim, code, out, hashes):
    artifact = tmp_path / "pkg.deb"
    artifact.write_bytes(b"payload\n")
    signed_path, pub_path = signed_pair(tmp_path, artifact, **claim)
    real, calls = cli.checksum_file, []

    def counting_checksum_file(path):
        calls.append(path)
        return real(path)

    monkeypatch.setattr(cli, "checksum_file", counting_checksum_file)
    assert cli.main(["verify", str(artifact), "--attestation", str(signed_path),
                     "--pubkey", str(pub_path)]) == code
    assert capsys.readouterr().out == out
    assert len(calls) == hashes


def test_verify_unreadable_artifact_is_refused_before_anything_is_printed(tmp_path, capsys):
    artifact = tmp_path / "pkg.deb"
    artifact.write_bytes(b"payload\n")
    signed_path, pub_path = signed_pair(tmp_path, artifact)
    artifact.unlink()
    artifact.mkdir()
    assert cli.main(["verify", str(artifact), "--attestation", str(signed_path),
                     "--pubkey", str(pub_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read artifact file {artifact}: ")


@pytest.mark.parametrize("node", ["fifo", "/dev/zero"])
def test_verify_refuses_what_is_not_a_regular_file(tmp_path, node):
    """A FIFO or device is refused before a read that would never end; the
    command runs in a child process, so a hang fails at the timeout."""
    listed = tmp_path / "pkg.deb"
    listed.write_bytes(b"payload\n")
    signed_path, _ = signed_pair(tmp_path, listed)
    if node == "fifo":
        (tmp_path / "fifo").mkdir()
        node = tmp_path / "fifo" / "pkg.deb"
        os.mkfifo(node)
    proc = subprocess.run(
        [sys.executable, "-m", "reprokit.cli", "verify", str(node),
         "--attestation", str(signed_path)],
        capture_output=True, text=True, cwd=tmp_path, env=source_tree_env(), timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
    assert proc.stderr == f"error: not a regular file: {node}\n"


def test_check_refuses_a_fifo_the_build_leaves_in_its_output(tmp_path):
    """A build that exits 0 leaving a FIFO among its artifacts is an input
    error, not a read that never ends; a hang fails at the timeout."""
    src = make_tree(tmp_path, "import os\nos.mkdir('out')\nos.mkfifo('out/pkg.deb')\n")
    proc = subprocess.run(
        [sys.executable, "-m", "reprokit.cli", "check", str(src), "--staging", "stage"],
        capture_output=True, text=True, cwd=tmp_path, env=source_tree_env(), timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
    assert proc.stderr.startswith("error: not a regular file: "), proc.stderr
    assert proc.stderr.endswith("/out/pkg.deb\n"), proc.stderr


def test_parser_is_built_once_per_process_and_not_at_import(tmp_path):
    script = (
        "from reprokit import cli\n"
        "assert cli._parser.cache_info().currsize == 0, 'built at import'\n"
        "real, built = cli.build_parser, []\n"
        "cli.build_parser = lambda: built.append(1) or real()\n"
        "codes = [cli.main(['not-a-command']), cli.main(['fixtures', 'generate', '--all',\n"
        "         '--dest', 'corpus']), cli.main(['--help'])]\n"
        "assert codes == [3, 0, 0], codes\n"
        "assert built == [1], built\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=tmp_path, env=source_tree_env())
    assert proc.returncode == 0, proc.stderr


def run_alone(argv: list[str], cwd: Path) -> tuple[int, bytes]:
    """Exit code and stdout of one ``cli.main`` call in a fresh interpreter."""
    launcher = "import sys; from reprokit import cli; sys.exit(cli.main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", launcher, *argv], capture_output=True,
                          cwd=cwd, env=source_tree_env())
    return proc.returncode, proc.stdout


def repeated_call_cases(tmp_path) -> dict[str, list[list[str]]]:
    archive = tmp_path / "a.tar"
    archive.write_bytes(write_tar([Member(name="f", content=b"x", mtime=50, uid=77,
                                          uname="alice")]))
    good = hashlib.sha256(b"good").hexdigest()
    store_dir = consensus_setup(tmp_path, [good, good])
    listed = tmp_path / "pkg.deb"
    listed.write_bytes(b"payload\n")
    signed_path, pub_path = signed_pair(tmp_path, listed)
    return {
        "usage-error-then-valid": [
            ["normalize", "--no-such-flag", str(archive)],
            ["normalize", "--epoch", "100", str(archive), "-"],
        ],
        "keep-owners-then-default": [
            ["normalize", "--epoch", "100", "--keep-owners", str(archive), "-"],
            ["normalize", "--epoch", "100", str(archive), "-"],
        ],
        "verify-then-verdict": [
            ["verify", str(listed), "--attestation", str(signed_path),
             "--pubkey", str(pub_path)],
            verdict_args(store_dir, good),
        ],
    }


@pytest.mark.parametrize("case", ["usage-error-then-valid", "keep-owners-then-default",
                                  "verify-then-verdict"])
def test_repeated_main_calls_match_calls_made_alone(tmp_path, capsysbinary, case):
    calls = repeated_call_cases(tmp_path)[case]
    capsysbinary.readouterr()
    alone = [run_alone(argv, tmp_path) for argv in calls]
    together = []
    for argv in calls:
        code = cli.main(argv)
        together.append((code, capsysbinary.readouterr().out))
    assert together == alone
    assert len({out for _, out in alone}) == len(alone)


def test_attest_build_failure(tmp_path, capsys):
    src = make_tree(tmp_path, "import sys\nsys.exit(2)\n")
    key = tmp_path / "k"
    code = cli.main([
        "attest", str(src), "--builder-id", "b-01", "--key", str(key),
        "--generate-key", "--staging", str(tmp_path / "stage"),
    ])
    assert code == 4
    assert "build failed" in capsys.readouterr().err


@pytest.mark.parametrize("slot", ["first", "second", "attest"])
def test_kept_build_log_replaces_a_planted_symlink(tmp_path, capsys, slot):
    # A failing build points the name its log will be kept under, one
    # directory up in the staging root, at a file of the user's.
    victim = tmp_path / "victim"
    victim.write_text("precious\n")
    src = make_tree(tmp_path, (
        "import contextlib, os, sys\n"
        "with contextlib.suppress(FileExistsError):  # the other build planted it\n"
        f"    os.symlink({str(victim)!r}, '../{slot}-build.log')\n"
        "print('attacker-controlled line')\n"
        "sys.exit(1)\n"
    ))
    stage = tmp_path / "stage"
    if slot == "attest":
        args = ["attest", str(src), "--builder-id", "b-01", "--key", str(tmp_path / "k"),
                "--generate-key", "--staging", str(stage)]
    else:
        args = ["check", str(src), "--staging", str(stage)]
    assert cli.main(args) == 4
    log = stage / f"{slot}-build.log"
    assert f"log: {log}" in capsys.readouterr().err
    assert victim.read_text() == "precious\n"
    assert not log.is_symlink()
    assert log.read_bytes() == b"attacker-controlled line\n"


def test_attest_build_failure_without_staging_keeps_only_its_log(tmp_path, private_tmpdir, capsys):
    src = make_tree(tmp_path, "import sys\nprint('kaboom')\nsys.exit(7)\n")
    code = cli.main([
        "attest", str(src), "--builder-id", "b-01",
        "--key", str(tmp_path / "k"), "--generate-key",
    ])
    assert code == 4
    [log_dir] = private_tmpdir.iterdir()
    assert log_dir.name.startswith("reprokit-logs-")
    [log] = log_dir.iterdir()
    assert str(log) in capsys.readouterr().err
    assert b"kaboom" in log.read_bytes()


def test_attest_without_staging_leaves_nothing_behind(tmp_path, private_tmpdir, capsys):
    generate_fixture(FixtureKind.CONTROL, tmp_path / "src")
    signed = tmp_path / "control.signed"
    code = cli.main([
        "attest", str(tmp_path / "src"), "--builder-id", "b-01",
        "--key", str(tmp_path / "k"), "--generate-key", "--out", str(signed),
    ])
    assert code == 0
    assert signed.is_file()
    assert list(private_tmpdir.iterdir()) == []


def consensus_setup(tmp_path, digests: list[str]):
    """Register n builders and store one single-file attestation each."""
    from reprokit.attestation import (
        ChecksumEntry, generate_signing_key, make_attestation,
        serialize_signed, sign_attestation,
    )

    store_dir = tmp_path / "store"
    for i, digest in enumerate(digests):
        builder_id = f"rebuilder-{i:02d}"
        private_key, public_key = generate_signing_key()
        pub_path = tmp_path / f"{builder_id}.pub"
        pub_path.write_bytes(public_key)
        assert cli.main([
            "consensus", "register", "--store", str(store_dir),
            "--builder-id", builder_id, "--pubkey", str(pub_path),
        ]) == 0
        att = make_attestation(
            source="demo", version="1.0", architecture="all",
            checksums=[ChecksumEntry(
                filename="pkg.deb", size=10,
                sha1=hashlib.sha1(digest.encode()).hexdigest(), sha256=digest,
            )],
            depends=[], environment={}, builder_id=builder_id,
        )
        sa_path = tmp_path / f"{builder_id}.signed"
        sa_path.write_bytes(serialize_signed(sign_attestation(att, private_key)))
        assert cli.main([
            "consensus", "submit", "--store", str(store_dir),
            "--attestation", str(sa_path),
        ]) == 0
    return store_dir


def verdict_args(store_dir, local: str) -> list[str]:
    return [
        "consensus", "verdict", "--store", str(store_dir),
        "--source", "demo", "--version", "1.0", "--arch", "all",
        "--artifact", "pkg.deb", "--local-sha256", local,
    ]


def test_consensus_verdict_exit_codes(tmp_path, capsys):
    good = hashlib.sha256(b"good").hexdigest()
    bad = hashlib.sha256(b"bad").hexdigest()
    store_dir = consensus_setup(tmp_path, [good, good, bad])
    assert cli.main(verdict_args(store_dir, good)) == 0
    assert capsys.readouterr().out.endswith("trusted: 2 of 3 builder(s) agree\n")
    assert cli.main(verdict_args(store_dir, bad)) == 1
    assert f"rejected: majority checksum {good}" in capsys.readouterr().out


def test_consensus_tie_is_inconclusive(tmp_path, capsys):
    good = hashlib.sha256(b"good").hexdigest()
    bad = hashlib.sha256(b"bad").hexdigest()
    store_dir = consensus_setup(tmp_path, [good, bad])
    assert cli.main(verdict_args(store_dir, good)) == 2
    assert capsys.readouterr().out.endswith("inconclusive: no unique majority\n")


def test_consensus_input_errors(tmp_path, capsys):
    good = hashlib.sha256(b"good").hexdigest()
    store_dir = consensus_setup(tmp_path, [good])
    capsys.readouterr()
    assert cli.main(verdict_args(store_dir, "nothex")) == 3
    assert "sha256" in capsys.readouterr().err
    args = verdict_args(store_dir, good)
    args[args.index("--source") + 1] = "never-built"
    assert cli.main(args) == 3
    assert "no attestations" in capsys.readouterr().err


def test_fixtures_cli(tmp_path, capsys):
    dest = tmp_path / "one"
    assert cli.main(["fixtures", "generate", "--kind", "timestamp", "--dest", str(dest)]) == 0
    assert capsys.readouterr().out == f"generated fixture 'timestamp' at {dest}\n"
    assert (dest / "build").is_file()
    assert cli.main(["fixtures", "remediate", "--kind", "timestamp", "--dest", str(dest)]) == 0
    capsys.readouterr()

    corpus = tmp_path / "corpus"
    assert cli.main(["fixtures", "generate", "--all", "--dest", str(corpus)]) == 0
    assert capsys.readouterr().out == f"generated 9 fixtures under {corpus}\n"
    assert sorted(p.name for p in corpus.iterdir()) == sorted(
        k.value for k in FixtureKind
    )
    assert cli.main(["fixtures", "remediate", "--all", "--dest", str(corpus)]) == 0


def test_fixtures_cli_errors(tmp_path, capsys):
    assert cli.main(["fixtures", "generate", "--kind", "bogus",
                     "--dest", str(tmp_path / "x")]) == 3
    assert "error:" in capsys.readouterr().err
    assert cli.main(["fixtures", "generate", "--kind", "timestamp", "--all",
                     "--dest", str(tmp_path / "y")]) == 3
    assert cli.main(["fixtures", "generate", "--dest", str(tmp_path / "z")]) == 3


def test_fixtures_remediate_refuses_another_kinds_fixture(tmp_path, capsys):
    dest = tmp_path / "fx"
    assert cli.main(["fixtures", "generate", "--kind", "timestamp", "--dest", str(dest)]) == 0
    before = (dest / "build").read_bytes()
    capsys.readouterr()
    assert cli.main(["fixtures", "remediate", "--kind", "randomness", "--dest", str(dest)]) == 3
    err = capsys.readouterr().err
    assert "'timestamp'" in err and "'randomness'" in err
    assert (dest / "build").read_bytes() == before


def test_usage_errors(capsys):
    assert cli.main([]) == 3
    assert cli.main(["not-a-command"]) == 3
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "check" in out and "consensus" in out


def source_tree_env() -> dict[str, str]:
    """The environment with the imported source tree first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(reprokit.__file__).resolve().parents[1]),
                    env.get("PYTHONPATH")) if p
    )
    return env


def test_console_script_wiring(tmp_path):
    """`[project.scripts] reprokit` resolves to `cli.main` and runs as a launcher would."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    value = tomllib.loads(pyproject.read_text())["project"]["scripts"]["reprokit"]
    ep = EntryPoint(name="reprokit", value=value, group="console_scripts")
    assert ep.load() is cli.main

    # Run the imported source tree, not some other installed copy.
    env = source_tree_env()
    # The body of the launcher script that pip generates for a console_scripts entry.
    launcher = f"import sys; from {ep.module} import {ep.attr}; sys.exit({ep.attr}())"
    proc = subprocess.run([sys.executable, "-c", launcher, "--help"],
                          capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "reprokit" in proc.stdout, proc.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "reprokit.cli", "diff", "--help"],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(shutil.which("reprokit") is None,
                    reason="reprokit launcher not on PATH")
def test_installed_console_script():
    proc = subprocess.run([shutil.which("reprokit"), "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "reprokit" in proc.stdout, proc.stderr


def test_version_names_reprokit_and_its_zlib(capsys):
    """`--version` names both things normalized bytes depend on, and README's
    example of it names the version that `pyproject.toml` and the package do."""
    assert cli.main(["--version"]) == 0
    assert capsys.readouterr().out == (
        f"reprokit {reprokit.__version__} (zlib {zlib.ZLIB_RUNTIME_VERSION})\n"
    )
    root = Path(__file__).resolve().parents[1]
    examples = re.findall(r"reprokit (\S+) \(zlib ", (root / "README.md").read_text())
    assert examples and set(examples) == {reprokit.__version__}
    tomllib = pytest.importorskip("tomllib")
    assert tomllib.loads((root / "pyproject.toml").read_text())["project"]["version"] == reprokit.__version__


#: Modules that only some commands need: the Ed25519 backend, the build
#: runner, the queue that hands each chunk of an artifact to the SHA-1
#: helper thread, and the executor that deflates a body of more than one
#: block, which no probe input has.
WATCHED = ("cryptography", "reprokit.runner", "subprocess", "queue", "concurrent.futures")

_PROBE = (
    "import json, sys\n"
    "backend, mode, *argv = sys.argv[1:]\n"
    "if backend == 'blocked':\n"
    "    sys.modules['cryptography'] = None\n"
    "from reprokit import cli\n"
    "code = cli.main(argv) if mode == 'run' else 0\n"
    "sys.stdout.flush()\n"
    f"loaded = [m for m in {WATCHED!r} if sys.modules.get(m) is not None]\n"
    "sys.stderr.write(json.dumps(loaded) + '\\n')\n"
    "sys.exit(code)\n"
)


def run_probed(argv: list[str] | None, cwd: Path, *, backend: bool = True):
    """Exit code, stdout, the stderr lines the command wrote and the
    ``WATCHED`` modules loaded after one ``cli.main`` call in a fresh
    interpreter; ``argv=None`` only imports the CLI. Without ``backend``,
    importing ``cryptography`` fails there."""
    mode = ["present" if backend else "blocked", "import" if argv is None else "run"]
    proc = subprocess.run([sys.executable, "-c", _PROBE, *mode, *(argv or [])],
                          capture_output=True, cwd=cwd, env=source_tree_env())
    assert proc.stderr.endswith(b"]\n"), proc.stderr.decode()
    *err, loaded = proc.stderr.decode().splitlines()
    return proc.returncode, proc.stdout, err, json.loads(loaded)


def probe_cases(tmp_path) -> dict[str, tuple[list[str] | None, int, list[str]]]:
    """Per case: argv, exit code, and the ``WATCHED`` modules it must load."""
    from reprokit.consensus import AttestationStore

    generate_fixture(FixtureKind.TIMESTAMP, tmp_path / "src")
    first, second = tmp_path / "a.tar", tmp_path / "b.tar"
    first.write_bytes(write_tar([Member(name="f", content=b"x", mtime=50, uid=77)]))
    second.write_bytes(write_tar([Member(name="f", content=b"y", mtime=60)]))
    good = hashlib.sha256(b"good").hexdigest()
    store_dir = consensus_setup(tmp_path, [good])
    listed = tmp_path / "pkg.deb"
    listed.write_bytes(b"payload\n")
    signed_path, pub_path = signed_pair(tmp_path, listed)
    submit_store = tmp_path / "submit-store"
    AttestationStore(submit_store).register_builder("rebuilder-01", pub_path.read_bytes())
    runner, backend, hashing = ["reprokit.runner", "subprocess"], ["cryptography"], ["queue"]
    return {
        "import": (None, 0, []),
        "diff": (["diff", str(first), str(second), "--format", "json"], 1, []),
        "normalize": (["normalize", "--epoch", "100", str(first), "-"], 0, []),
        "fixtures-generate": (["fixtures", "generate", "--kind", "control",
                               "--dest", "generated"], 0, []),
        "verify": (["verify", str(listed), "--attestation", str(signed_path)], 0, hashing),
        "consensus-register": (["consensus", "register", "--store", str(store_dir),
                                "--builder-id", "newcomer", "--pubkey", str(pub_path)], 0, []),
        "check": (["check", "src", "--report", "check.json", "--format", "json"], 1,
                  runner + hashing),
        "attest": (["attest", "src", "--builder-id", "b-01", "--key", "k", "--generate-key",
                    "--out", "att.signed"], 0, backend + runner + hashing),
        "verify-pubkey": (["verify", str(listed), "--attestation", str(signed_path),
                           "--pubkey", str(pub_path)], 0, backend + hashing),
        "consensus-submit": (["consensus", "submit", "--store", str(submit_store),
                              "--attestation", str(signed_path)], 0, backend),
        "consensus-verdict": (verdict_args(store_dir, good), 0, backend),
    }


@pytest.mark.parametrize("case", [
    "import", "diff", "normalize", "fixtures-generate", "verify", "consensus-register",
    "check", "attest", "verify-pubkey", "consensus-submit", "consensus-verdict",
])
def test_each_command_loads_only_the_backend_and_runner_it_uses(tmp_path, case):
    argv, expected_code, expected_loaded = probe_cases(tmp_path)[case]
    code, _, _, loaded = run_probed(argv, tmp_path)
    assert (code, loaded) == (expected_code, expected_loaded)


@pytest.mark.parametrize("case", ["diff", "normalize", "check", "verify"])
def test_keyless_commands_run_the_same_without_the_ed25519_backend(tmp_path, case):
    argv, _, _ = probe_cases(tmp_path)[case]
    report = tmp_path / "check.json"
    runs = []
    for backend in (True, False):
        code, out, _, _ = run_probed(argv, tmp_path, backend=backend)
        runs.append((code, out, report.read_bytes() if report.exists() else None))
        report.unlink(missing_ok=True)
    assert runs[0] == runs[1]
    assert runs[0][1], "the command printed nothing"


@pytest.mark.parametrize("case", [
    "attest", "verify-pubkey", "consensus-submit", "consensus-verdict",
])
def test_key_commands_without_the_ed25519_backend_are_input_errors(tmp_path, case):
    """A missing backend is exit 3 with one error line, never a verdict."""
    argv, _, _ = probe_cases(tmp_path)[case]
    code, out, err, _ = run_probed(argv, tmp_path, backend=False)
    assert (code, out) == (3, b""), err
    assert len(err) == 1 and err[0].startswith(
        "error: cannot load the Ed25519 backend 'cryptography': "), err

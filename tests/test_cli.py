"""Command-line interface: every subcommand and every exit code."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import reprokit
from reprokit import cli
from reprokit.fixtures import FixtureKind, generate_fixture
from reprokit.formats import Member, parse_tar, write_tar
from reprokit.runner import META_FILENAME

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


def test_normalize_epoch_flag_wins_over_environment(tmp_path, capsys, monkeypatch):
    raw = write_tar([Member(name="f", content=b"x", mtime=8_000_000_000)])
    archive = tmp_path / "a.tar"
    archive.write_bytes(raw)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "garbage")
    assert cli.main(["normalize", "--epoch", "100", str(archive)]) == 0
    assert capsys.readouterr().err == ""
    assert parse_tar((tmp_path / "a.tar.norm").read_bytes())[0].mtime == 100


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


def attest_one_file(tmp_path, artifact: Path) -> Path:
    """Sign an attestation that lists only ``artifact``, hashed independently."""
    from reprokit.attestation import (
        ChecksumEntry, generate_signing_key, make_attestation,
        serialize_signed, sign_attestation,
    )

    data = artifact.read_bytes()
    entry = ChecksumEntry(
        filename=artifact.name, size=len(data),
        sha1=hashlib.sha1(data).hexdigest(), sha256=hashlib.sha256(data).hexdigest(),
    )
    att = make_attestation(
        source="demo", version="1.0", architecture="all", checksums=[entry],
        depends=[], environment={}, builder_id="rebuilder-01",
    )
    private_key, _ = generate_signing_key()
    signed_path = tmp_path / "att.signed"
    signed_path.write_bytes(serialize_signed(sign_attestation(att, private_key)))
    return signed_path


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


def test_attest_build_failure(tmp_path, capsys):
    src = make_tree(tmp_path, "import sys\nsys.exit(2)\n")
    key = tmp_path / "k"
    code = cli.main([
        "attest", str(src), "--builder-id", "b-01", "--key", str(key),
        "--generate-key", "--staging", str(tmp_path / "stage"),
    ])
    assert code == 4
    assert "build failed" in capsys.readouterr().err


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


def test_usage_errors(capsys):
    assert cli.main([]) == 3
    assert cli.main(["not-a-command"]) == 3
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "check" in out and "consensus" in out


def test_console_script_wiring(tmp_path):
    """`[project.scripts] reprokit` resolves to `cli.main` and runs as a launcher would."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    value = tomllib.loads(pyproject.read_text())["project"]["scripts"]["reprokit"]
    ep = EntryPoint(name="reprokit", value=value, group="console_scripts")
    assert ep.load() is cli.main

    # Run the imported source tree, not some other installed copy.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(reprokit.__file__).resolve().parents[1]),
                    env.get("PYTHONPATH")) if p
    )
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

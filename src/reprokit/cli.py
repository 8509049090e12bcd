"""The ``reprokit`` command: one entry point over the whole toolkit.

Subcommands cover the full verification workflow: ``check`` runs the
adversarial double build on a source tree; ``diff`` explains how two
artifacts differ; ``normalize`` strips the usual nondeterminism from a
container; ``attest`` builds once and signs the result; ``verify`` checks a
file against an attestation; ``consensus`` manages the multi-builder store
and renders the trust verdict; ``fixtures`` emits the defect corpus.

Exit codes are uniform: 0 success/identical/trusted, 1 mismatch/rejected,
2 inconclusive, 3 usage or input errors, 4 the build itself failed. Every
success-path byte written (verdict lines, reports) is deterministic, so the
verifier can itself be verified.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import html
import json
import os
import sys
import zlib
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .attestation import (
    artifact_size,
    checksum_file,
    generate_signing_key,
    key_fingerprint,
    parse_buildinfo,
    parse_signed,
    serialize_signed,
    verify_signature,
)
from .classify import RootCauseFinding, classify, findings_to_json
from .compare import (
    DiffNode,
    ReportStyle,
    Status,
    compare_bytes,
    compare_files,
    node_to_json,
    render_html_fragment,
    render_html_page,
    render_report,
)
from .consensus import AttestationStore, Decision, verdict
from .errors import ReproError
from .fixtures import ALL_KINDS, generate_fixture, kind_from_token, remediate_fixture
from .normalize import NormalizePolicy, normalize_auto, policy_from_env
from .varenv import BuildRequest, _knob_int, apply_profile, default_profiles, load_profile

# The build runner loads in the commands that build (check and attest) and
# the Ed25519 backend on first key use, so other commands import neither.
if TYPE_CHECKING:
    from .runner import ReproVerdict


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code of this tool's contract."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(3)


def _load_profile_pair(args: argparse.Namespace):
    first, second = default_profiles()
    if args.profile_a:
        first = load_profile(args.profile_a)
    if args.profile_b:
        second = load_profile(args.profile_b)
    return first, second


def _compare_mismatches(v: ReproVerdict) -> list[DiffNode]:
    trees = []
    for name in v.mismatched_files:
        first = (v.first.artifacts / name).read_bytes()
        second = (v.second.artifacts / name).read_bytes()
        trees.append(compare_bytes(first, second, path=name))
    return trees


def _check_report(
    v: ReproVerdict,
    trees: list[DiffNode],
    findings: list[RootCauseFinding],
    style: ReportStyle,
) -> bytes:
    if style is ReportStyle.JSON:
        payload = {
            "reproducible": v.reproducible,
            "mismatched": list(v.mismatched_files),
            "missing_in_one": [list(pair) for pair in v.missing_in_one],
            "artifacts": [node_to_json(t) for t in trees],
            "findings": findings_to_json(findings),
        }
        return (json.dumps(payload, indent=2, ensure_ascii=False) + "\n").encode("utf-8")

    if style is ReportStyle.TEXT:
        lines = [f"verdict: {'reproducible' if v.reproducible else 'unreproducible'}"]
        for name, side in v.missing_in_one:
            lines.append(f"missing from {side} build: {name}")
        for tree in trees:
            lines.append("")
            lines.append(render_report(tree, ReportStyle.TEXT).decode("utf-8").rstrip("\n"))
        if findings:
            lines.append("")
            lines.append("findings:")
            for f in findings:
                lines.append(f"  {f.cause.value} at {f.node_path} ({f.confidence.value})")
                lines.append(f"    first:  {f.evidence[0]}")
                lines.append(f"    second: {f.evidence[1]}")
        return ("\n".join(lines) + "\n").encode("utf-8")

    fragments = []
    if v.reproducible:
        fragments.append("<p>reproducible</p>")
    for name, side in v.missing_in_one:
        fragments.append(f"<p>missing from {html.escape(side)} build: {html.escape(name)}</p>")
    for tree in trees:
        fragments.append(f"<h2>{html.escape(tree.path)}</h2>")
        fragments.append(render_html_fragment(tree))
    if findings:
        fragments.append("<h2>findings</h2>")
        rows = ["<table class=\"diff\"><tr><th>cause</th><th>node</th>"
                "<th>confidence</th><th>first</th><th>second</th></tr>"]
        for f in findings:
            rows.append(
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>".format(
                    html.escape(f.cause.value),
                    html.escape(f.node_path),
                    html.escape(f.confidence.value),
                    html.escape(f.evidence[0]),
                    html.escape(f.evidence[1]),
                )
            )
        rows.append("</table>")
        fragments.append("".join(rows))
    return render_html_page(fragments, "reproducibility check")


def _staging(given: str | None) -> contextlib.AbstractContextManager[str]:
    """The given staging root, or a temporary one removed when the command ends."""
    if given:
        return contextlib.nullcontext(given)
    import tempfile

    return tempfile.TemporaryDirectory(prefix="reprokit-")


def _report_failed_builds(results, staging: str | None) -> None:
    """Keep each failed build's log, under ``--staging`` or else in a new
    ``reprokit-logs-*`` directory, and name it on stderr. Whatever a build
    left at the log's name is replaced, not followed."""
    import tempfile

    from .runner import _create_log

    log_dir = Path(staging) if staging else Path(tempfile.mkdtemp(prefix="reprokit-logs-"))
    for slot, result in results:
        if result.exit_code != 0:
            log_path = log_dir / f"{slot}-build.log"
            with open(_create_log(log_path), "wb") as log_file:
                log_file.write(result.log)
            print(
                f"build failed under profile '{result.profile_name}' "
                f"(exit {result.exit_code}); log: {log_path}",
                file=sys.stderr,
            )


def cmd_check(args: argparse.Namespace) -> int:
    from .runner import META_FILENAME, double_build, parse_meta

    source = Path(args.source_dir)
    parse_meta(source / META_FILENAME)
    req = BuildRequest(
        source_dir=source, build_entry=args.entry, output_subdir=args.out_subdir
    )
    profiles = _load_profile_pair(args)
    with _staging(args.staging) as staging:
        v = double_build(req, profiles, staging_root=staging)
        # A failed build has no checksums, so nothing is compared for it.
        trees = _compare_mismatches(v)

    if v.first.exit_code != 0 or v.second.exit_code != 0:
        _report_failed_builds((("first", v.first), ("second", v.second)), args.staging)
        return 4
    for result in (v.first, v.second):
        # A log outlives the command only under --staging.
        kept = f", log: {result.log_path}" if result.log_path.is_file() else ""
        print(f"build under profile '{result.profile_name}': "
              f"duration_ms={result.duration_ms}{kept}", file=sys.stderr)

    # Bare Unix-timestamp integers are recognized near the builds' own clocks.
    epochs = tuple(int(p.env["REPRO_EPOCH"]) for p in profiles)
    findings = [f for tree in trees for f in classify(tree, epochs)]
    if args.report:
        Path(args.report).write_bytes(
            _check_report(v, trees, findings, ReportStyle(args.format))
        )

    if v.reproducible:
        print(f"reproducible: {len(v.first.checksums)} artifact(s) bit-for-bit identical")
        return 0
    differing = len(v.mismatched_files) + len(v.missing_in_one)
    print(f"unreproducible: {differing} artifact(s) differ")
    return 1


def cmd_diff(args: argparse.Namespace) -> int:
    root = compare_files(args.first, args.second)
    payload = render_report(root, ReportStyle(args.format))
    if args.report:
        Path(args.report).write_bytes(payload)
        print(f"report written: {args.report}")
    else:
        sys.stdout.buffer.write(payload)
    return 0 if root.status is Status.SAME else 1


def cmd_normalize(args: argparse.Namespace) -> int:
    policy = NormalizePolicy(
        epoch=args.epoch if args.epoch is not None else policy_from_env().epoch,
        zero_ownership=not args.keep_owners,
        sort_members=not args.no_sort,
    )
    normalized = normalize_auto(args.file, policy)
    if args.output == "-":
        sys.stdout.buffer.write(normalized)
        return 0
    out_path = Path(args.output) if args.output else Path(str(args.file) + ".norm")
    out_path.write_bytes(normalized)
    print(f"wrote {out_path}")
    return 0


def cmd_attest(args: argparse.Namespace) -> int:
    from .runner import META_FILENAME, attest_build, parse_meta, run_build

    source = Path(args.source_dir)
    meta = parse_meta(source / META_FILENAME)
    key_path = Path(args.key)
    if args.generate_key:
        # Never replace a key that a store may have pinned; the private one is 0600.
        pairs = ((key_path, 0o600), (Path(f"{key_path}.pub"), 0o644))
        if existing := [path for path, _ in pairs if os.path.lexists(path)]:
            raise ReproError(f"key file exists, not replaced: {existing[0]}")
        for (path, mode), data in zip(pairs, generate_signing_key()):
            with open(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode), "wb") as f:
                f.write(data)
    private_key = key_path.read_bytes()

    req = BuildRequest(
        source_dir=source, build_entry=args.entry, output_subdir=args.out_subdir
    )
    profile = load_profile(args.profile) if args.profile else default_profiles()[0]
    with _staging(args.staging) as staging:
        result = run_build(apply_profile(profile, req, staging), req)
    if result.exit_code != 0:
        _report_failed_builds((("attest", result),), args.staging)
        return 4
    signed = attest_build(result, req, args.builder_id, private_key)
    out_path = (
        Path(args.out)
        if args.out
        else Path(f"{meta.source}_{meta.version}_{meta.architecture}.buildinfo.signed")
    )
    out_path.write_bytes(serialize_signed(signed))
    print(f"attestation written: {out_path}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    # Every check that reads no artifact byte comes before the hash, so a
    # forged, unlisted or wrong-sized claim is refused without hashing.
    size = artifact_size(args.artifact)
    signed = parse_signed(Path(args.attestation).read_bytes())
    att = parse_buildinfo(signed.body)

    if args.pubkey:
        public_key = Path(args.pubkey).read_bytes()
        if key_fingerprint(public_key) != signed.public_key_fingerprint:
            print("signature: key fingerprint does not match")
            return 1
        if not verify_signature(signed, public_key):
            print("signature: INVALID")
            return 1
        print("signature: ok")

    name = Path(args.artifact).name
    entry = att.checksum_for(name)
    if entry is None:
        print(f"mismatch: {name} is not listed in the attestation")
        return 1
    if size != entry.size or checksum_file(args.artifact) != entry:
        print(f"mismatch: {name} does not match the attested checksums")
        return 1
    print(f"verified: {name} matches the attestation")
    return 0


def cmd_consensus(args: argparse.Namespace) -> int:
    store = AttestationStore(Path(args.store))
    if args.consensus_cmd == "register":
        store.register_builder(args.builder_id, Path(args.pubkey).read_bytes())
        print(f"registered builder '{args.builder_id}'")
        return 0
    if args.consensus_cmd == "submit":
        att = store.submit(parse_signed(Path(args.attestation).read_bytes()))
        print(f"attestation stored for builder '{att.builder_id}'")
        return 0

    tally = store.tally(args.source, args.version, args.arch, args.artifact)
    decision = verdict(tally, args.local_sha256)
    if decision.decision is Decision.TRUSTED:
        print(f"trusted: {decision.agreeing} of {decision.total} builder(s) agree")
        return 0
    if decision.decision is Decision.REJECTED:
        print(f"rejected: majority checksum {decision.majority_checksum} (local differs)")
        return 1
    print("inconclusive: no unique majority")
    return 2


def cmd_fixtures(args: argparse.Namespace) -> int:
    dest = Path(args.dest)
    if args.fixtures_cmd == "generate":
        verb, make = "generated", generate_fixture
    else:
        verb, make = "remediated", remediate_fixture
    if args.all:
        for kind in ALL_KINDS:
            make(kind, dest / kind.value)
        print(f"{verb} {len(ALL_KINDS)} fixtures under {dest}")
    else:
        make(kind_from_token(args.kind), dest)
        print(f"{verb} fixture '{args.kind}' at {dest}")
    return 0


def _epoch(text: str) -> int:
    """An ``--epoch`` value, read as ``SOURCE_DATE_EPOCH`` is."""
    try:
        return _knob_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _add_build_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--entry", default="build", metavar="NAME",
                        help="build entry point inside the source dir (default: build)")
    parser.add_argument("--out-subdir", default="out", dest="out_subdir", metavar="DIR",
                        help="artifact directory the build writes (default: out)")
    parser.add_argument("--staging", metavar="DIR",
                        help="directory to stage builds under (default: a temporary directory, "
                             "removed when the command ends)")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="reprokit",
        description="double-build reproducibility harness, differ, and attestation tools",
    )
    # Normalized bytes depend on both: another zlib build may deflate differently.
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__} (zlib {zlib.ZLIB_RUNTIME_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser,
                                metavar="<command>")
    styles = sorted(style.value for style in ReportStyle)

    p = sub.add_parser("check", help="build twice under divergent profiles and compare")
    p.add_argument("source_dir")
    _add_build_args(p)
    p.add_argument("--report", metavar="PATH", help="write the difference report here")
    p.add_argument("--format", choices=styles, default="text")
    p.add_argument("--profile-a", metavar="FILE", help="profile file for the first build")
    p.add_argument("--profile-b", metavar="FILE", help="profile file for the second build")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("diff", help="explain how two artifacts differ")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--report", metavar="PATH", help="write the report here instead of stdout")
    p.add_argument("--format", choices=styles, default="text")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("normalize", help="strip nondeterministic container metadata")
    p.add_argument("file")
    p.add_argument("output", nargs="?", default=None,
                   help="output path; '-' writes to stdout (default: <file>.norm)")
    p.add_argument("--epoch", type=_epoch, metavar="SECS",
                   help="clamp timestamps to this epoch (default: $SOURCE_DATE_EPOCH or 0)")
    p.add_argument("--keep-owners", action="store_true",
                   help="keep uid/gid/user/group instead of zeroing them")
    p.add_argument("--no-sort", action="store_true",
                   help="keep member order instead of sorting bytewise")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("attest", help="build once and sign the result")
    p.add_argument("source_dir")
    _add_build_args(p)
    p.add_argument("--builder-id", required=True, metavar="ID")
    p.add_argument("--key", required=True, metavar="FILE", help="32-byte private signing key")
    p.add_argument("--generate-key", action="store_true",
                   help="generate the key pair at --key / --key.pub first")
    p.add_argument("--profile", metavar="FILE", help="profile file for the build")
    p.add_argument("--out", metavar="PATH",
                   help="signed attestation path (default: <source>_<version>_<arch>.buildinfo.signed)")
    p.set_defaults(func=cmd_attest)

    p = sub.add_parser("verify", help="check a file against a signed attestation")
    p.add_argument("artifact")
    p.add_argument("--attestation", required=True, metavar="FILE")
    p.add_argument("--pubkey", metavar="FILE", help="verify the signature with this public key")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("consensus", help="multi-builder attestation store and verdict")
    csub = p.add_subparsers(dest="consensus_cmd", required=True, parser_class=_Parser,
                            metavar="<action>")
    c = csub.add_parser("register", help="pin a builder's public key")
    c.add_argument("--store", required=True, metavar="DIR")
    c.add_argument("--builder-id", required=True, metavar="ID")
    c.add_argument("--pubkey", required=True, metavar="FILE")
    c.set_defaults(func=cmd_consensus)
    c = csub.add_parser("submit", help="store a signed attestation")
    c.add_argument("--store", required=True, metavar="DIR")
    c.add_argument("--attestation", required=True, metavar="FILE")
    c.set_defaults(func=cmd_consensus)
    c = csub.add_parser("verdict", help="decide trust for a local artifact")
    c.add_argument("--store", required=True, metavar="DIR")
    c.add_argument("--source", required=True)
    c.add_argument("--version", required=True)
    c.add_argument("--arch", required=True)
    c.add_argument("--artifact", required=True, metavar="FILENAME")
    c.add_argument("--local-sha256", required=True, dest="local_sha256", metavar="HEX")
    c.set_defaults(func=cmd_consensus)

    p = sub.add_parser("fixtures", help="generate or remediate the defect corpus")
    fsub = p.add_subparsers(dest="fixtures_cmd", required=True, parser_class=_Parser,
                            metavar="<action>")
    for action, help_text in (
        ("generate", "write fixture source trees"),
        ("remediate", "swap fixtures' builds for their fixed variants"),
    ):
        f = fsub.add_parser(action, help=help_text)
        group = f.add_mutually_exclusive_group(required=True)
        group.add_argument("--kind", metavar="KIND",
                           help="one of: " + ", ".join(k.value for k in ALL_KINDS))
        group.add_argument("--all", action="store_true", help="the whole corpus")
        f.add_argument("--dest", required=True, metavar="DIR")
        f.set_defaults(func=cmd_fixtures)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The process's one parser, built on the first :func:`main` call.

    Parsing keeps no state in the parser: each call gets a fresh namespace
    and no option has a mutable default, so one parser serves every call.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command; may be called any number of times in one process."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ReproError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

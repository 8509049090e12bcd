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
import html
import json
import sys
import tempfile
from pathlib import Path

from .attestation import (
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
from .errors import ReproError, ValidationError
from .fixtures import ALL_KINDS, generate_all, generate_fixture, kind_from_token, remediate_fixture
from .normalize import NormalizePolicy, normalize_auto, policy_from_env
from .runner import META_FILENAME, ReproVerdict, attest_build, double_build, parse_meta, run_build
from .varenv import BuildRequest, apply_profile, default_profiles, load_profile

_STYLES = {
    "text": ReportStyle.TEXT,
    "json": ReportStyle.JSON,
    "html": ReportStyle.HTML,
}

_SHA256_HEX = 64


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


def cmd_check(args: argparse.Namespace) -> int:
    source = Path(args.source_dir)
    parse_meta(source / META_FILENAME)
    req = BuildRequest(
        source_dir=source, build_entry=args.entry, output_subdir=args.out_subdir
    )
    profiles = _load_profile_pair(args)
    v = double_build(req, profiles, args.staging)

    if v.first.exit_code != 0 or v.second.exit_code != 0:
        log_dir = Path(args.staging) if args.staging else Path(tempfile.mkdtemp(prefix="reprokit-logs-"))
        for slot, result in (("first", v.first), ("second", v.second)):
            if result.exit_code != 0:
                log_path = log_dir / f"{slot}-build.log"
                log_path.write_bytes(result.log)
                print(
                    f"build failed under profile '{result.profile_name}' "
                    f"(exit {result.exit_code}); log: {log_path}",
                    file=sys.stderr,
                )
        return 4

    trees = _compare_mismatches(v)
    findings = [f for tree in trees for f in classify(tree)]
    if args.report:
        Path(args.report).write_bytes(
            _check_report(v, trees, findings, _STYLES[args.format])
        )

    if v.reproducible:
        print(f"reproducible: {len(v.first.checksums)} artifact(s) bit-for-bit identical")
        return 0
    differing = len(v.mismatched_files) + len(v.missing_in_one)
    print(f"unreproducible: {differing} artifact(s) differ")
    return 1


def cmd_diff(args: argparse.Namespace) -> int:
    root = compare_files(args.first, args.second)
    payload = render_report(root, _STYLES[args.format])
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
    source = Path(args.source_dir)
    meta = parse_meta(source / META_FILENAME)
    key_path = Path(args.key)
    if args.generate_key:
        private_key, public_key = generate_signing_key()
        key_path.write_bytes(private_key)
        Path(str(key_path) + ".pub").write_bytes(public_key)
    private_key = key_path.read_bytes()

    req = BuildRequest(
        source_dir=source, build_entry=args.entry, output_subdir=args.out_subdir
    )
    profile = load_profile(args.profile) if args.profile else default_profiles()[0]
    staging = args.staging if args.staging else tempfile.mkdtemp(prefix="reprokit-")
    result = run_build(apply_profile(profile, req, staging), req)
    if result.exit_code != 0:
        print(
            f"build failed under profile '{result.profile_name}' (exit {result.exit_code})",
            file=sys.stderr,
        )
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
    observed = checksum_file(args.artifact)
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

    name = observed.filename
    entry = att.checksum_for(name)
    if entry is None:
        print(f"mismatch: {name} is not listed in the attestation")
        return 1
    if observed != entry:
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
        signed = parse_signed(Path(args.attestation).read_bytes())
        store.submit(signed)
        builder_id = parse_buildinfo(signed.body).builder_id
        print(f"attestation stored for builder '{builder_id}'")
        return 0

    local = args.local_sha256.lower()
    if len(local) != _SHA256_HEX or any(c not in "0123456789abcdef" for c in local):
        raise ValidationError(f"--local-sha256 is not a sha256 hex digest: {args.local_sha256!r}")
    tally = store.tally(args.source, args.version, args.arch, args.artifact)
    decision = verdict(tally, local)
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
        if args.all:
            generate_all(dest)
            print(f"generated {len(ALL_KINDS)} fixtures under {dest}")
        else:
            generate_fixture(kind_from_token(args.kind), dest)
            print(f"generated fixture '{args.kind}' at {dest}")
        return 0
    if args.all:
        for kind in ALL_KINDS:
            remediate_fixture(kind, dest / kind.value)
        print(f"remediated {len(ALL_KINDS)} fixtures under {dest}")
    else:
        kind = kind_from_token(args.kind)
        remediate_fixture(kind, dest)
        print(f"remediated fixture '{args.kind}' at {dest}")
    return 0


def _add_build_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--entry", default="build", metavar="NAME",
                        help="build entry point inside the source dir (default: build)")
    parser.add_argument("--out-subdir", default="out", dest="out_subdir", metavar="DIR",
                        help="artifact directory the build writes (default: out)")
    parser.add_argument("--staging", metavar="DIR",
                        help="directory to stage builds under (default: a fresh temp dir)")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="reprokit",
        description="double-build reproducibility harness, differ, and attestation tools",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser,
                                metavar="<command>")

    p = sub.add_parser("check", help="build twice under divergent profiles and compare")
    p.add_argument("source_dir")
    _add_build_args(p)
    p.add_argument("--report", metavar="PATH", help="write the difference report here")
    p.add_argument("--format", choices=sorted(_STYLES), default="text")
    p.add_argument("--profile-a", metavar="FILE", help="profile file for the first build")
    p.add_argument("--profile-b", metavar="FILE", help="profile file for the second build")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("diff", help="explain how two artifacts differ")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--report", metavar="PATH", help="write the report here instead of stdout")
    p.add_argument("--format", choices=sorted(_STYLES), default="text")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("normalize", help="strip nondeterministic container metadata")
    p.add_argument("file")
    p.add_argument("output", nargs="?", default=None,
                   help="output path; '-' writes to stdout (default: <file>.norm)")
    p.add_argument("--epoch", type=int, metavar="SECS",
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

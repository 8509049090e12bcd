"""The measured process: imports reprokit, sets up, and times whole passes.

Started by ``run.py`` with a plan file that lists one pass's operations.
Set-up time runs from the moment ``run.py`` spawned this interpreter (its
``--t0``, on the shared monotonic clock) to the first timed operation.
Nothing else runs in this process while a pass is timed; reprokit's build
subprocesses are its only children. Each pass runs in a fresh directory
``p<n>`` of the plan's work dir. Results go to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path


def _parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--plan", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup-only", dest="setup_only", default=None, metavar="DIR",
                   help="set up inside DIR, record set-up time and exit")
    return p.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    from reprokit import cli  # set-up covers importing the CLI
    from reprokit import attestation, compare, fixtures
    # The package re-exports the function ``classify`` over its module's name.
    classify = importlib.import_module("reprokit.classify")

    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    work = Path(plan["work"])
    tracer = None
    if args.trace:
        from tracing import Tracer, layer_metrics, write_spans
        tracer = Tracer()
        tracer.install()

    # -- set-up: the workload's own reprokit preparation ----------------------
    prep_root = Path(args.setup_only) if args.setup_only else work
    if plan["workload"] == "check-corpus":
        corpus = prep_root / "corpus"
        fixtures.generate_all(corpus / "orig")
        fixtures.generate_all(corpus / "fixed")
        for kind in fixtures.ALL_KINDS:
            fixtures.remediate_fixture(kind, corpus / "fixed" / kind.value)
    elif plan["workload"] == "consensus-trust":
        for key_path in sorted((work / "inputs" / "keys").iterdir()):
            pub = attestation.public_key_for(key_path.read_bytes())
            (prep_root / "pub").mkdir(exist_ok=True)
            (prep_root / "pub" / (key_path.stem + ".pub")).write_bytes(pub)
    setup_s = time.monotonic() - args.t0
    result: dict = {"setup_s": setup_s}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0

    setup_layers = setup_spans = None
    if tracer is not None:
        setup_spans, setup_counts = tracer.take()
        setup_layers = layer_metrics(setup_spans, setup_counts)
        tracer.remove()

    styles = {s.value: s for s in compare.ReportStyle}
    signing: dict[str, tuple] = {}

    def run(op: dict):
        kind = op["kind"]
        if kind == "cli":
            return cli.main(op["argv"]), None
        if kind == "diff":
            tree = compare.compare_files(op["first"], op["second"])
            findings = classify.classify(tree)
            return 0, (tree, findings, compare.render_report(tree, styles[op["style"]]))
        if kind == "hash":
            signing[op["version"]] = (
                attestation.compute_checksums(op["honest"]),
                attestation.compute_checksums(op["tampered"]),
            )
            return 0, None
        if kind == "sign":
            honest, tampered = signing[op["version"]]
            lies = set(op["lies"])
            entries = [t if h.filename in lies else h for h, t in zip(honest, tampered)]
            att = attestation.make_attestation(
                source="pkg", version=op["version"], architecture="all",
                checksums=entries,
                depends=[attestation.DependencyPin("python-runtime", "3.11")],
                environment={"SOURCE_DATE_EPOCH": "1650000000"},
                builder_id=op["builder"],
            )
            signed = attestation.sign_attestation(att, Path(op["key"]).read_bytes())
            Path(op["out"]).write_bytes(attestation.serialize_signed(signed))
            return 0, None
        raise ValueError(f"unknown operation kind {kind!r}")

    ops = plan["ops"]
    passes: list[float] = []
    op_times: list[list[float]] = []
    traced_flags: list[bool] = []
    exit_codes: list[list[int]] = []
    digests: list[list[str | None]] = []
    traced_layers: list[dict] = []
    spans_out: list[list] = []
    deadline = time.monotonic() + args.seconds
    p = 0
    min_passes = 2 if tracer is not None else 1
    while p < min_passes or time.monotonic() < deadline:
        p += 1
        traced = tracer is not None and p % 2 == 0
        pass_dir = work / f"p{p}"
        pass_dir.mkdir()
        os.chdir(pass_dir)
        if traced:
            tracer.install()
        codes: list[int] = []
        outs: list[str | None] = []
        times: list[float] = []
        for op in ops:
            t = time.perf_counter()
            rc, output = tracer.run_op(op["id"], run, op) if traced else run(op)
            times.append(time.perf_counter() - t)
            codes.append(rc)
            outs.append(_capture(output, op["output"]) if output is not None
                        else _digest(op.get("output")))
        if traced:
            tracer.remove()
            spans, counts = tracer.take()
            traced_layers.append(layer_metrics(spans, counts))
            if not spans_out:
                spans_out = spans
        passes.append(sum(times))
        op_times.append(times)
        traced_flags.append(traced)
        exit_codes.append(codes)
        digests.append(outs)
        os.chdir(work)
        # The first pass's outputs stay for the oracles in run.py.
        if p > 1 and not plan["keep_passes"]:
            shutil.rmtree(pass_dir)

    result.update(
        passes=passes,
        op_times=op_times,
        traced=traced_flags,
        exit_codes=exit_codes,
        digests=digests,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if plan["workload"] == "release-normalize":
        result["idempotent"] = _idempotent(plan)
    if tracer is not None:
        result["layers"] = {
            name: setup_layers[name] + statistics.median(layers[name] for layers in traced_layers)
            for name in setup_layers
        }
        write_spans(Path(plan["trace_file"]), setup_spans + spans_out)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _digest(path: str | None) -> str | None:
    if path is None:
        return None
    try:
        with open(path, "rb") as fh:
            return hashlib.file_digest(fh, "sha256").hexdigest()
    except FileNotFoundError:
        return "missing"


def _capture(output: tuple, path: str) -> str:
    """Write one diff result for the oracles (the report beside it) and digest it."""
    from reprokit.compare import ByteRanges

    tree, findings, report = output
    nodes = []
    stack = [tree]
    while stack:
        node = stack.pop()
        ranges = None
        if isinstance(node.detail, ByteRanges):
            ranges = [[r.offset, r.len_first, r.len_second] for r in node.detail.ranges]
        nodes.append([node.path, node.status.value,
                      type(node.detail).__name__ if node.detail is not None else None,
                      ranges])
        stack.extend(reversed(node.children))
    capture = json.dumps({
        "nodes": nodes,
        "findings": [[f.node_path, f.cause.value, f.confidence.value] for f in findings],
    }).encode()
    Path(path).write_bytes(capture)
    Path(f"{path}.report").write_bytes(report)
    return hashlib.sha256(capture + report).hexdigest()


def _idempotent(plan: dict) -> list[bool]:
    """Normalizing a first-pass output again must give the same bytes."""
    from reprokit.normalize import NormalizePolicy, normalize_bytes

    policy = NormalizePolicy(epoch=plan["epoch"])
    out = []
    for op in plan["ops"]:
        first = Path(plan["work"]) / "p1" / op["output"]
        if first.exists():
            data = first.read_bytes()
            out.append(normalize_bytes(data, policy) == data)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

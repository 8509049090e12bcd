"""Span recorder for the traced run, applied from outside reprokit.

Each public function is replaced where its callers look it up (the module
namespace that imported it, or the class that defines it), so the program
itself is untouched. A span records its name, start, end, parent span and
the operation it belongs to; spans stay in memory and are written out when
the run ends. Layer metrics are self times (a span's duration minus its
children's) and counts taken at the same boundaries.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import Counter
from pathlib import Path

#: Per-layer metric -> unit, as BENCHMARK.json lists them.
LAYER_UNITS = {
    m["name"]: m["unit"]
    for m in json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                        .read_text(encoding="utf-8"))["per_layer"]
}

#: Self-time metric -> span name.
_SELF_TIMES = {
    "varenv.stage_s": "varenv.stage",
    "runner.build_s": "runner.build",
    "attestation.checksum_s": "attestation.checksum",
    "attestation.verify_s": "attestation.verify",
    "attestation.parse_s": "attestation.parse",
    "attestation.sign_s": "attestation.sign",
    "formats.parse_s": "formats.parse",
    "formats.write_s": "formats.write",
    "compare.self_s": "compare",
    "compare.byte_ranges_s": "compare.byte_ranges",
    "compare.render_s": "compare.render",
    "classify.self_s": "classify",
    "normalize.self_s": "normalize",
    "consensus.submit_s": "consensus.submit",
    "consensus.load_s": "consensus.load",
    "cli.self_s": "cli",
    "fixtures.generate_s": "fixtures.generate",
}


def _tree_size(path: Path) -> tuple[int, int]:
    files = size = 0
    for dirpath, _dirs, names in os.walk(path):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, name))
    return files, size


class Tracer:
    """Spans and counts for one run; ``install`` patches, ``remove`` undoes."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, op, name, start_ns, end_ns]
        self.counts: Counter = Counter()
        self.op: str | None = None
        self._base = 0  # id of self.spans[0]; ids stay unique across take()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        sid = self._base + len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, self.op, name, time.perf_counter_ns(), 0])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid - self._base][5] = time.perf_counter_ns()
        self._stack.pop()

    def run_op(self, op_id: str, fn, *args):
        """Run one benchmark operation under a root span."""
        self.op = op_id
        sid = self._open("bench.op")
        try:
            return fn(*args)
        finally:
            self._close(sid)
            self.op = None

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(sid)
            if count is not None:
                # Counting is charged to its own span, so no layer's self
                # time includes it.
                cid = tracer._open("trace.count")
                count(tracer.counts, args, result)
                tracer._close(cid)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> None:
        """Wrap reprokit's public functions at the names their callers use."""
        from reprokit import attestation, cli, compare, consensus, fixtures, normalize, runner
        classify = importlib.import_module("reprokit.classify")

        def parsed(c, args, result):
            c["formats.bytes_parsed"] += len(args[0])
            c["formats.members_parsed"] += len(result[0]) if isinstance(result, tuple) \
                else (len(result) if isinstance(result, list) else 1)

        def written(c, args, result):
            c["formats.bytes_written"] += len(result)

        def hashed(c, args, result):
            c["attestation.bytes_hashed"] += sum(e.size for e in result)

        def verified(c, args, result):
            c["attestation.signatures_verified"] += 1

        def staged(c, args, result):
            files, size = _tree_size(result.workdir)
            c["varenv.files_staged"] += files
            c["varenv.bytes_staged"] += size

        def built(c, args, result):
            c["runner.builds"] += 1

        def compared(c, args, result):
            c["compare.nodes"] += 1

        def opened(c, args, result):
            c["compare.containers_opened" if result is not None
              else "compare.container_fallbacks"] += 1

        def ranged(c, args, result):
            c["compare.bytes_ranged"] += len(args[0]) + len(args[1])

        def rendered(c, args, result):
            c["compare.report_bytes"] += len(result)

        def classified(c, args, result):
            c["classify.nodes_classified"] += len(result)
            c["classify.unknown_findings"] += sum(f.cause.value == "unknown" for f in result)

        def containers(c, args, result):
            c["normalize.containers"] += 1

        def normalized(c, args, result):
            c["normalize.bytes_out"] += len(result)

        def loaded(c, args, result):
            c["consensus.entries_loaded"] += len(result)

        def decided(c, args, result):
            c["consensus.verdicts"] += 1

        wrap = self.wrap
        wrap(cli, "main", "cli")
        for owner in (cli, compare):
            wrap(owner, "compare_bytes", "compare", compared)
            wrap(owner, "compare_files", "compare")
            wrap(owner, "render_report", "compare.render", rendered)
        wrap(compare, "_compare_members", "compare", opened)
        wrap(compare, "byte_ranges", "compare.byte_ranges", ranged)
        wrap(compare, "parse_gzip", "formats.parse", parsed)
        wrap(compare, "parse_tar", "formats.parse", parsed)
        wrap(compare, "parse_zip", "formats.parse", parsed)
        wrap(cli, "render_html_page", "compare.render", rendered)
        wrap(cli, "render_html_fragment", "compare.render")
        wrap(cli, "node_to_json", "compare.render")
        for owner in (cli, classify):
            wrap(owner, "classify", "classify", classified)
        wrap(cli, "normalize_auto", "normalize", normalized)
        wrap(normalize, "normalize_bytes", "normalize")
        wrap(normalize, "_normalize_container", "normalize", containers)
        wrap(normalize, "parse_gzip", "formats.parse", parsed)
        wrap(normalize, "parse_tar", "formats.parse", parsed)
        wrap(normalize, "parse_zip_with_errors", "formats.parse", parsed)
        for fn in ("write_gzip", "write_tar", "write_zip"):
            wrap(normalize, fn, "formats.write", written)
        wrap(runner, "apply_profile", "varenv.stage", staged)
        wrap(runner, "run_build", "runner.build", built)
        for owner in (runner, attestation):
            wrap(owner, "compute_checksums", "attestation.checksum", hashed)
        wrap(attestation, "make_attestation", "attestation.sign")
        wrap(attestation, "sign_attestation", "attestation.sign")
        for owner in (cli, consensus):
            wrap(owner, "parse_signed", "attestation.parse")
            wrap(owner, "parse_buildinfo", "attestation.parse")
            wrap(owner, "verify_signature", "attestation.verify", verified)
        wrap(consensus.AttestationStore, "submit", "consensus.submit")
        wrap(consensus.AttestationStore, "load", "consensus.load", loaded)
        wrap(consensus.AttestationStore, "tally", "consensus.load")
        wrap(cli, "verdict", "consensus.verdict", decided)
        wrap(fixtures, "generate_all", "fixtures.generate")
        wrap(fixtures, "remediate_fixture", "fixtures.generate")

    def take(self) -> tuple[list[list], Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self._base += len(spans)
        self.spans, self.counts = [], Counter()
        return spans, counts


def layer_metrics(spans: list[list], counts: Counter) -> dict[str, float]:
    """Self times per layer plus counts, for one stretch of spans."""
    child_ns: Counter = Counter()
    for _sid, parent, _op, _name, start, end in spans:
        if parent is not None:
            child_ns[parent] += end - start
    self_ns: Counter = Counter()
    cli_ns = 0
    for sid, parent, _op, name, start, end in spans:
        self_ns[name] += end - start - child_ns[sid]
        if name == "cli":
            cli_ns += end - start
    out = {name: 0.0 for name in LAYER_UNITS}
    for metric, span_name in _SELF_TIMES.items():
        out[metric] = self_ns[span_name] / 1e9
    for metric in LAYER_UNITS:
        if metric in counts:
            out[metric] = float(counts[metric])
    if counts["runner.builds"]:
        out["runner.harness_s"] = cli_ns / 1e9 - out["runner.build_s"]
    return out


def write_spans(path: Path, spans: list[list]) -> None:
    keys = ("id", "parent", "op", "name", "start_ns", "end_ns")
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")

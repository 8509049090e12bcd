"""reprokit's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload release-diff --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The orchestrating process (this one)
synthesizes the seeded inputs, starts the measured process
(``measure.py``) several times to sample set-up time, then once more to
time whole passes for ``--seconds``, and finally checks reprokit's outputs
against ``oracles.py``. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are ``setup_s``, ``pass_s`` and ``peak_rss_mb``,
with ``--trace 1`` the per-layer metrics of ``tracing.py``.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import oracles
from tracing import LAYER_UNITS

WORKLOADS = ("check-corpus", "release-diff", "release-normalize", "consensus-trust")

#: Operations that fail on every run because of known faults in reprokit.
KNOWN_FAULTS = {
    # classify's uninitialized-memory rule needs one all-zero side, but the
    # fixture pads both builds with environment-derived bytes.
    "check:orig/uninitialized-memory",
    # write_tar rejects a name that parse_tar read from the ustar prefix field.
    "normalize:prefix-name",
}

#: Set-up samples per run: this many set-up-only processes plus the measured one.
SETUP_SAMPLES = 6

HERE = Path(__file__).resolve().parent

_STYLES = ("text", "json", "html")


def _plan(workload: str, seed: int, work: Path) -> tuple[dict, dict]:
    """The pass's operations for ``measure.py`` and the design to check them by.

    Each pass runs in a fresh directory of its own (``p1``, ``p2``, ... under
    ``work``), so the paths an operation writes are relative to it. An
    operation's ``output``, when it has one, is digested after it runs.
    """
    plan: dict = {
        "workload": workload, "work": str(work),
        # reprokit's report on the randomness fixture differs from pass to
        # pass, so check-corpus's reports are checked in every pass; the other
        # workloads are checked in full on the first pass and by digest after.
        "keep_passes": workload == "check-corpus",
    }
    design: dict = {}
    if workload == "check-corpus":
        design["order"] = inputs.corpus_order(seed)
        plan["ops"] = [
            {"id": f"check:{variant}/{kind}", "kind": "cli", "output": f"{variant}-{kind}.json",
             "argv": ["check", str(work / "corpus" / variant / kind),
                      "--report", f"{variant}-{kind}.json", "--format", "json",
                      "--staging", f"stage/{variant}-{kind}"]}
            for variant, kind in design["order"]
        ]
    elif workload in ("release-diff", "release-normalize"):
        family = inputs.release_family(seed)
        paths = inputs.write_family(family, work / "inputs")
        design["family"] = family
        if workload == "release-diff":
            plan["ops"] = [
                {"id": f"diff:pair{i}", "kind": "diff", "first": str(a), "second": str(b),
                 "style": _STYLES[i % len(_STYLES)], "output": f"pair{i}.json"}
                for i, (a, b) in enumerate(paths)
            ]
        else:
            prefix = work / "inputs" / "prefix-name.tar"
            prefix.write_bytes(inputs.prefix_name_archive())
            sources = [(f"pair{i}-{side}", path)
                       for i, pair in enumerate(paths)
                       for side, path in zip(("first", "second"), pair)]
            sources.append(("prefix-name", prefix))
            plan["ops"] = [
                {"id": f"normalize:{name}", "kind": "cli", "output": name,
                 "argv": ["normalize", str(src), name, "--epoch", str(inputs.NORMALIZE_EPOCH)]}
                for name, src in sources
            ]
            plan["epoch"] = inputs.NORMALIZE_EPOCH
            design["sources"] = [src for _, src in sources]
    else:
        plan["ops"] = _consensus_ops(inputs.consensus_inputs(seed, work / "inputs"), work)
    return plan, design


def _consensus_ops(cons: dict, work: Path) -> list[dict]:
    """consensus-trust's pass; each operation carries the exit code that the
    benchmark's assignment of honest and lying builders implies."""
    pub = work / "pub"

    def claim(b: str, art: dict) -> str:
        return art["tampered_sha256"] if b in art["liars"] else art["sha256"]

    ops = [
        {"id": f"register:{b}", "kind": "cli", "expect": 0, "argv": [
            "consensus", "register", "--store", "store", "--builder-id", b,
            "--pubkey", str(pub / f"{b}.pub")]}
        for b in cons["builders"]
    ]
    for rel in cons["releases"]:
        v, arts = rel["version"], rel["artifacts"]
        ops.append({"id": f"hash:{v}", "kind": "hash", "expect": 0, "version": v,
                    "honest": str(rel["honest"]), "tampered": str(rel["tampered"])})
        submitted = []
        for k, b in enumerate(rel["order"]):
            att = f"{b}-{v}.signed"
            ops.append({"id": f"sign:{v}/{b}", "kind": "sign", "expect": 0, "builder": b,
                        "version": v, "out": att,
                        "key": str(work / "inputs" / "keys" / f"{b}.key"),
                        "lies": [a["name"] for a in arts if b in a["liars"]]})
            ops.append({"id": f"submit:{v}/{b}", "kind": "cli", "expect": 0, "argv": [
                "consensus", "submit", "--store", "store", "--attestation", att]})
            submitted.append(b)
            # The user downloads one artifact, honest or tampered in turn.
            art = arts[k % len(arts)]
            copy = "honest" if (k // len(arts)) % 2 == 0 else "tampered"
            held = art["sha256"] if copy == "honest" else art["tampered_sha256"]
            ops.append({"id": f"verify:{v}/{b}/{art['name']}/{copy}", "kind": "cli",
                        "expect": 0 if claim(b, art) == held else 1,
                        "argv": ["verify", str(rel[copy] / art["name"]),
                                 "--attestation", att, "--pubkey", str(pub / f"{b}.pub")]})
            for x in arts:
                local = held if x is art else x["sha256"]
                ops.append({"id": f"verdict:{v}/{k}/{x['name']}", "kind": "cli",
                            "expect": oracles.majority([claim(s, x) for s in submitted], local),
                            "argv": ["consensus", "verdict", "--store", "store",
                                     "--source", "pkg", "--version", v, "--arch", "all",
                                     "--artifact", x["name"], "--local-sha256", local]})
    return ops


def _by_digest(ops: list[dict], result: dict, bad: list[str]) -> list[list[str]]:
    """Failed operations per pass, when the first pass was checked in full:
    later passes fail an operation that exits non-zero or changes its output."""
    first = result["digests"][0]
    return [bad + [op["id"] for op, rc, d, d1 in zip(ops, codes, digests, first)
                   if (rc != 0 or d != d1) and op["id"] not in bad]
            for codes, digests in zip(result["exit_codes"], result["digests"])]


def _check(plan: dict, design: dict, result: dict):
    """Failed operations per pass, and errors that are not per operation."""
    workload, ops, work = plan["workload"], plan["ops"], Path(plan["work"])
    errors: list[str] = []
    if workload == "consensus-trust":
        return [[op["id"] for op, rc in zip(ops, codes) if rc != op["expect"]]
                for codes in result["exit_codes"]], errors
    if workload == "check-corpus":
        failed = []
        for p, codes in enumerate(result["exit_codes"], start=1):
            bad = []
            for op, rc, (variant, kind) in zip(ops, codes, design["order"]):
                report_path = work / f"p{p}" / op["output"]
                report = report_path.read_bytes() if report_path.exists() else None
                if oracles.check_corpus_op(variant, kind, rc, report, inputs.DESIGNED_CAUSES):
                    bad.append(op["id"])
            failed.append(bad)
        return failed, errors
    outputs = [work / "p1" / op["output"] for op in ops]
    bad = []
    if workload == "release-diff":
        for op, pair, out in zip(ops, design["family"], outputs):
            report = Path(f"{out}.report").read_bytes()
            errs = oracles.release_diff_pair(pair, json.loads(out.read_text()), report,
                                             op["style"])
            if errs:
                bad.append(op["id"])
                errors.extend(errs)
        return _by_digest(ops, result, bad), errors
    for op, src, out in zip(ops, design["sources"], outputs):
        if not out.exists():
            bad.append(op["id"])
            continue
        errs = oracles.normalized_archive(src.read_bytes(), out.read_bytes(), plan["epoch"])
        if errs:
            bad.append(op["id"])
            errors.extend(f"{op['id']}: {e}" for e in errs)
    for i, pair in enumerate(design["family"]):
        if pair["metadata_only"] and outputs[2 * i].exists() and \
                outputs[2 * i].read_bytes() != outputs[2 * i + 1].read_bytes():
            errors.append(f"pair{i}: metadata-only pair does not converge")
    if not all(result["idempotent"]):
        errors.append("a normalized output changes when normalized again")
    return _by_digest(ops, result, bad), errors


def _spawn(cmd: list[str], env: dict, log: Path, timeout: float) -> None:
    """Run one measured process to its end; its whole process group dies with it."""
    with open(log, "ab") as err:
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
        try:
            rc = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if rc is None:
        raise RuntimeError(f"measured process exceeded {timeout:.0f} s")
    if rc != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise RuntimeError(f"measured process exited {rc}:\n{tail}")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # A terminated run still removes its scratch root and measured processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    src = root / "src"
    if not (src / "reprokit" / "cli.py").is_file():
        print(f"error: no reprokit sources under {src}; run from a checkout's root",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(src / "reprokit"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        plan, design = _plan(args.workload, args.seed, work)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        plan["trace_file"] = str(results_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["PYTHONHASHSEED"] = "0"
        measure = [sys.executable, str(HERE / "measure.py"), "--plan", str(plan_path)]
        log = work / "measure.log"

        setups = []
        for i in range(0 if args.trace else SETUP_SAMPLES):
            prep = work / f"setup-{i}"
            prep.mkdir()
            out = work / f"setup-{i}.json"
            _spawn(measure + ["--result", str(out), "--setup-only", str(prep),
                              "--t0", repr(time.monotonic())], env, log, 120)
            setups.append(json.loads(out.read_text())["setup_s"])

        out = work / "result.json"
        _spawn(measure + ["--result", str(out), "--seconds", str(args.seconds),
                          "--trace", str(args.trace), "--t0", repr(time.monotonic())],
               env, log, args.seconds + 150)
        result = json.loads(out.read_text())
        setups.append(result["setup_s"])

        failed_ops, errors = _check(plan, design, result)
        unexpected = sorted({op for ops in failed_ops for op in ops} - KNOWN_FAULTS)
        correct = not errors and not unexpected
        attempted = len(plan["ops"]) * len(result["passes"])
        failed = sum(len(ops) for ops in failed_ops)
        untraced = [t for t, traced in zip(result["passes"], result["traced"]) if not traced]

        for e in errors + [f"unexpected failure: {op}" for op in unexpected]:
            print(f"check: {e}", file=sys.stderr)
        print(f"workload {args.workload}, seed {args.seed}: {len(result['passes'])} passes "
              f"of {len(plan['ops'])} operations; attempted {attempted}, failed {failed} "
              f"({', '.join(sorted({op for ops in failed_ops for op in ops})) or 'none'})")
        print("raw pass wall seconds: " + " ".join(f"{t:.4f}" for t in result["passes"]))
        if args.trace:
            traced = [t for t, tr in zip(result["passes"], result["traced"]) if tr]
            overhead = statistics.median(traced) / statistics.median(untraced) - 1
            print(f"tracing overhead: {100 * overhead:+.1f}% (median traced pass "
                  f"{statistics.median(traced):.4f} s over {len(traced)}, untraced "
                  f"{statistics.median(untraced):.4f} s over {len(untraced)}); spans in "
                  f"{plan['trace_file']}")
            metrics = {name: {"value": result["layers"][name], "unit": unit}
                       for name, unit in LAYER_UNITS.items()}
        else:
            print("set-up wall seconds: " + " ".join(f"{t:.4f}" for t in setups))
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "pass_s": {"value": statistics.median(untraced), "unit": "s"},
                "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024, "unit": "MB"},
            }
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        line = {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": metrics}
        (results_dir / f"{tag}.json").write_text(
            json.dumps({**line, "passes": result["passes"], "op_times": result["op_times"],
                        "setups": setups, "failed_ops": failed_ops, "errors": errors}, indent=1))
        print(json.dumps(line))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (HERE / ".work").rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

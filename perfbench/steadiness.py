"""Steadiness check: two sets of runs of one commit, made one after the other.

    python3 perfbench/steadiness.py --runs 10

Run from the root of a checkout. Each set runs ``run.py`` ``--runs`` times
per workload of BENCHMARK.json, for its ``run_seconds`` and with
``--trace 0``, a different seed each time, workloads interleaved so that a
slow stretch of the host falls on all of them. For each workload and
end-to-end metric it prints both sets' medians and quartiles, the spread
(distance between the quartiles over the median), and whether the sets
agree within the metric's bound from BENCHMARK.json: each set's spread
within the bound, and the second set's median within the bound of the
first's in either direction. The share of failed operations must also be
the same in both sets. The full table is written to
``perfbench/results/steadiness-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv: list[str]) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload in each set")
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    sets = []
    for s in range(2):
        runs: dict[str, list[dict]] = {w: [] for w in workloads}
        started = time.strftime("%Y-%m-%dT%H:%M:%S")
        for i in range(args.runs):
            for w in workloads:
                line = _run(w, 1000 * (s + 1) + i, bench["run_seconds"])
                runs[w].append(line)
                print(f"set {s + 1} run {i + 1} {w}: " + " ".join(
                    f"{k}={v['value']:.4f}" for k, v in line["metrics"].items())
                    + f" failed={line['failed']}/{line['attempted']}"
                    + ("" if line["correct"] else " INCORRECT"), flush=True)
        sets.append({"started": started, "runs": runs})

    table = []
    ok = True
    for w in workloads:
        shares = {round(sum(r["failed"] for r in st["runs"][w])
                        / sum(r["attempted"] for r in st["runs"][w]), 12) for st in sets}
        correct = all(r["correct"] for st in sets for r in st["runs"][w])
        if len(shares) != 1 or not correct:
            ok = False
        print(f"\n{w}: failed share per set {sorted(shares)}; all correct: {correct}")
        for metric, bound in bounds.items():
            summaries = [_summary([r["metrics"][metric]["value"] for r in st["runs"][w]])
                         for st in sets]
            first = summaries[0]
            for k, sm in enumerate(summaries):
                drift = sm["median"] / first["median"] - 1
                agree = sm["spread"] <= bound and abs(drift) <= bound
                ok &= agree
                print(f"  {metric:12s} set {k + 1}: median {sm['median']:.5g}  "
                      f"q1 {sm['q1']:.5g}  q3 {sm['q3']:.5g}  spread {100 * sm['spread']:.1f}%  "
                      f"vs set 1 {100 * drift:+.1f}%  bound {100 * bound:.0f}%  "
                      f"{'agrees' if agree else 'DISAGREES'}")
                table.append({"workload": w, "metric": metric, "set": k + 1,
                              "drift": drift, "agrees": agree, **sm})
    out = HERE / "results" / f"steadiness-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"sets": [{"started": st["started"]} for st in sets],
                               "table": table}, indent=1))
    print(f"\n{'steady' if ok else 'NOT steady'}; table in {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

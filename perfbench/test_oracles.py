"""Each output check accepts reprokit's right output and rejects a wrong one.

    python3 perfbench/test_oracles.py        (or: python3 -m pytest perfbench)

Run from the root of a checkout; reprokit is imported from ``src``.
Inputs are the benchmark's own generators at reduced sizes.
"""

from __future__ import annotations

import copy
import importlib
import io
import json
import sys
import tarfile
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import measure  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402

from reprokit import compare  # noqa: E402
from reprokit.normalize import NormalizePolicy, normalize_bytes  # noqa: E402

classify = importlib.import_module("reprokit.classify")

# Small make-up so the tests run in about a second.
for _name, _value in (("IDENTICAL_MEMBERS", 4), ("FILELIST_LINES", 200),
                      ("BLOB_EQUAL_BYTES", 16 << 10), ("BLOB_UNEQUAL_BYTES", 16 << 10),
                      ("RECORD_BYTES", 4 << 10), ("INNER_MEMBERS", 2),
                      ("INNER_BLOB_BYTES", 8 << 10), ("META_PAIR_MEMBERS", 4)):
    setattr(inputs, _name, _value)


def _diff(pair: dict, style: str, tmp: Path) -> tuple[dict, bytes]:
    a, b = tmp / "a" / pair["name"], tmp / "b" / pair["name"]
    for path, data in ((a, pair["first"]), (b, pair["second"])):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    tree = compare.compare_files(a, b)
    output = (tree, classify.classify(tree),
              compare.render_report(tree, compare.ReportStyle(style)))
    cap = tmp / "capture.json"
    measure._capture(output, str(cap))
    return json.loads(cap.read_text()), output[2]


def test_release_diff_accepts_reprokit_and_rejects_wrong_outputs():
    family = inputs.release_family(7)
    with tempfile.TemporaryDirectory() as tmp:
        for i, pair in enumerate(family):
            for style in ("text", "json", "html"):
                cap, report = _diff(pair, style, Path(tmp) / f"{i}{style}")
                assert oracles.release_diff_pair(pair, cap, report, style) == []
        pair = family[0]
        cap, report = _diff(pair, "json", Path(tmp) / "wrong")

    wrong = copy.deepcopy(cap)
    wrong["findings"] = [f if not f[0].endswith("pkg/CHANGELOG") else [f[0], "unknown", "low"]
                         for f in wrong["findings"]]
    assert oracles.release_diff_pair(pair, wrong, report, "json")

    wrong = copy.deepcopy(cap)
    wrong["nodes"] = [n for n in wrong["nodes"] if not n[0].endswith("pkg/token.txt")]
    assert oracles.release_diff_pair(pair, wrong, report, "json")

    for shift in ((1, 0), (0, -1)):
        wrong = copy.deepcopy(cap)
        for node in wrong["nodes"]:
            if node[0].endswith("pkg/blob.bin"):
                node[3] = [[off + shift[0], la + shift[1], lb + shift[1]]
                           for off, la, lb in node[3]]
        assert oracles.release_diff_pair(pair, wrong, report, "json")

    wrong = copy.deepcopy(cap)
    for node in wrong["nodes"]:
        if node[0].endswith("pkg/blob2.bin"):
            node[3] = [[node[3][0][0] - 1, node[3][0][1] + 1, node[3][0][2] + 1]]
    assert oracles.release_diff_pair(pair, wrong, report, "json")

    wrong = copy.deepcopy(cap)
    for node in wrong["nodes"]:
        if node[0].endswith("pkg/record.bin"):
            node[3] = [[0, 4, 4]]  # identical bytes on both sides
    assert oracles.release_diff_pair(pair, wrong, report, "json")

    assert oracles.release_diff_pair(pair, cap, report[:-40], "json")
    text = report.decode().replace("pkg/CHANGELOG", "pkg/CHANGELOX").encode()
    assert oracles.release_diff_pair(pair, cap, text, "text")


def _tar(name: str, data: bytes, mtime: int, uid: int, uname: str) -> bytes:
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w", format=tarfile.USTAR_FORMAT) as tf:
        info = tarfile.TarInfo(name)
        info.size, info.mtime, info.uid, info.gid = len(data), mtime, uid, uid
        info.uname = info.gname = uname
        tf.addfile(info, io.BytesIO(data))
    return buf.getvalue()


def test_normalized_archive_accepts_reprokit_and_rejects_wrong_outputs():
    epoch = inputs.NORMALIZE_EPOCH
    policy = NormalizePolicy(epoch=epoch)
    for pair in inputs.release_family(3):
        for data in (pair["first"], pair["second"]):
            assert oracles.normalized_archive(data, normalize_bytes(data, policy), epoch) == []
    original = _tar("a.txt", b"alpha\n", epoch + 50, 1000, "builder")
    assert oracles.normalized_archive(original, normalize_bytes(original, policy), epoch) == []
    assert oracles.normalized_archive(original, _tar("a.txt", b"alpha\n", epoch, 0, "root"),
                                      epoch) == []
    for wrong in (_tar("a.txt", b"alpha\n", epoch + 1, 0, "root"),
                  _tar("a.txt", b"alpha\n", epoch, 1000, "builder"),
                  _tar("a.txt", b"alphb\n", epoch, 0, "root"),
                  _tar("b.txt", b"alpha\n", epoch, 0, "root")):
        assert oracles.normalized_archive(original, wrong, epoch)


def test_check_corpus_op_accepts_right_and_rejects_wrong_outputs():
    causes = inputs.DESIGNED_CAUSES

    def report(reproducible, *found):
        return json.dumps({"reproducible": reproducible,
                           "findings": [{"cause": c} for c in found]}).encode()

    ok = oracles.check_corpus_op
    assert ok("orig", "timestamp", 1, report(False, "timestamp"), causes) == []
    assert ok("orig", "build-time-secret", 1, report(False, "unknown", "randomness"), causes) == []
    assert ok("orig", "control", 0, report(True), causes) == []
    assert ok("fixed", "timestamp", 0, report(True), causes) == []
    assert ok("orig", "timestamp", 0, report(False, "timestamp"), causes)
    assert ok("orig", "timestamp", 1, report(False, "unknown"), causes)
    assert ok("orig", "uninitialized-memory", 1, report(False, "unknown"), causes)
    assert ok("fixed", "randomness", 1, report(False, "randomness"), causes)
    assert ok("fixed", "randomness", 0, report(False), causes)
    assert ok("fixed", "randomness", 0, None, causes)


def test_majority_matches_hand_computed_verdicts():
    assert oracles.majority(["a"], "a") == 0
    assert oracles.majority(["a", "a", "b"], "b") == 1
    assert oracles.majority(["a", "b"], "a") == 2
    assert oracles.majority(["a", "a", "b", "b", "c"], "a") == 2
    assert oracles.majority(["a", "a", "b", "c", "d"], "a") == 2  # 2 of 5 is under half
    assert oracles.majority(["a", "a", "b", "c"], "a") == 0  # 2 of 4 is half


def test_consensus_ops_expect_what_the_assignment_implies():
    art = {"name": "x.bin", "sha256": "g", "tampered_sha256": "t", "liars": ["b1", "b2"]}
    cons = {"builders": ["b0", "b1", "b2"],
            "releases": [{"version": "1", "artifacts": [art], "order": ["b1", "b2", "b0"],
                          "honest": Path("h"), "tampered": Path("t")}]}
    want = {op["id"]: op["expect"] for op in run._consensus_ops(cons, Path("w"))}
    # b1 lies first, so the user's honest copy is rejected.
    assert want["verdict:1/0/x.bin"] == 1
    # After the second submission the user holds the tampered copy, which
    # both liars vouch for.
    assert want["verdict:1/1/x.bin"] == 0
    assert want["verdict:1/2/x.bin"] == 1
    assert want["verify:1/b1/x.bin/honest"] == 1
    assert want["verify:1/b2/x.bin/tampered"] == 0
    assert want["verify:1/b0/x.bin/honest"] == 0
    assert want["register:b0"] == want["submit:1/b1"] == want["sign:1/b2"] == 0


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")

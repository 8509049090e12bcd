"""Output identity on the benchmark's release family.

For every pair of release-family seeds 1-2, ``identity_digests.json`` pins
the sha256 of the diff report in each style, of the findings JSON, and of
``normalize_bytes`` on each side under the four ownership/sorting policies
(or of the refusal's type and text where normalization raises). A change
that means to keep every output byte must leave all of them equal.

The inputs are written with stdlib ``gzip`` and ``zipfile``, so both the
inputs and the outputs depend on zlib: the digests are kept per
``zlib.ZLIB_RUNTIME_VERSION``, and another zlib has no reference.

Regenerate the current zlib's entry with::

    PYTHONPATH=src python tests/test_identity.py --write
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
import tempfile
import zlib
from pathlib import Path

import pytest

from reprokit.classify import classify, findings_to_json
from reprokit.compare import ReportStyle, compare_files, render_report
from reprokit.errors import ReproError
from reprokit.normalize import NormalizePolicy, normalize_bytes

DIGESTS = Path(__file__).with_name("identity_digests.json")
INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
SEEDS = (1, 2)


def _inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(seed: int, root: Path) -> dict[str, str]:
    """``<seed>/<pair>/<output>`` to the sha256 of that output."""
    inputs = _inputs()
    out: dict[str, str] = {}
    for i, (first, second) in enumerate(inputs.write_family(inputs.release_family(seed), root)):
        prefix = f"{seed}/pair{i}"
        tree = compare_files(first, second)
        for style in ReportStyle:
            out[f"{prefix}/report.{style.value}"] = _sha(render_report(tree, style))
        findings = json.dumps(findings_to_json(classify(tree)), sort_keys=True)
        out[f"{prefix}/findings"] = _sha(findings.encode("utf-8"))
        for side, path in (("first", first), ("second", second)):
            data = path.read_bytes()
            for zero_ownership in (False, True):
                for sort_members in (False, True):
                    policy = NormalizePolicy(
                        epoch=inputs.NORMALIZE_EPOCH,
                        zero_ownership=zero_ownership,
                        sort_members=sort_members,
                    )
                    try:
                        normalized = normalize_bytes(data, policy)
                    except ReproError as err:
                        normalized = f"{type(err).__name__}: {err}".encode("utf-8")
                    key = f"zero={int(zero_ownership)},sort={int(sort_members)}"
                    out[f"{prefix}/normalize.{side}.{key}"] = _sha(normalized)
    return out


def _reference() -> dict[str, str] | None:
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(zlib.ZLIB_RUNTIME_VERSION)


@pytest.mark.parametrize("seed", SEEDS)
def test_release_family_outputs_match_their_digests(seed, tmp_path):
    reference = _reference()
    if reference is None:
        pytest.skip(f"no reference digests for zlib {zlib.ZLIB_RUNTIME_VERSION}")
    got = output_digests(seed, tmp_path)
    want = {key: value for key, value in reference.items() if key.startswith(f"{seed}/")}
    assert want
    assert got == want


def _write() -> None:
    table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    digests: dict[str, str] = {}
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as root:
            digests.update(output_digests(seed, Path(root)))
    table[zlib.ZLIB_RUNTIME_VERSION] = digests
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests for zlib {zlib.ZLIB_RUNTIME_VERSION} to {DIGESTS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    _write()

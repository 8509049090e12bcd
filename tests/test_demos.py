"""The demos are the README's library examples: each must run to completion."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import reprokit

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # Run against the imported source tree, not some other installed copy.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(reprokit.__file__).resolve().parents[1]),
                    env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          cwd=tmp_path, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr

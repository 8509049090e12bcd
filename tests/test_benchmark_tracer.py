"""The traced benchmark wraps reprokit's functions by the names their callers
look them up under, so each of those names must exist, and removing the
tracer must put every original back.

``perfbench/tracing.py`` is loaded from its file and left unchanged.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_name_and_restores_it():
    tracer = _load_tracing().Tracer()
    try:
        # A missing name raises here, after the names before it were wrapped.
        tracer.install()
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.remove()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr

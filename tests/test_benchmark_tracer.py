"""The traced benchmark wraps reprokit's functions by the names their callers
look them up under, so each of those names must exist, a module that imports
one must call it by that name, and removing the tracer must put every
original back.

``perfbench/tracing.py`` is loaded from its file and left unchanged.
"""

from __future__ import annotations

import ast
import importlib.util
import inspect
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


def called_names(source: str) -> set[str]:
    """Every bare name that ``source`` calls, as in ``name(...)``."""
    return {
        node.func.id for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


def test_the_check_sees_calls_and_not_names_held_in_a_table():
    source = "T = {1: parse_tar}\nT[1](b'')\ndef f(d):\n    return [compare_bytes(d)]\n"
    assert called_names(source) == {"compare_bytes"}


def test_every_wrapped_import_is_called_by_its_name():
    """A module that imports a name the tracer wraps must call it by that
    name. Held in a table or bound to another name, the original would run
    unwrapped, and its layer would read 0 while the names above still exist."""
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
    finally:
        tracer.remove()
    imported = [
        (owner, attr) for owner, attr, original in patched
        if inspect.ismodule(owner) and original.__module__ != owner.__name__
    ]
    assert imported
    for owner, attr in imported:
        source = Path(owner.__file__).read_text(encoding="utf-8")
        assert attr in called_names(source), f"{owner.__name__} never calls {attr}()"

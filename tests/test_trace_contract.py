"""The benchmark's layer trace binds rdslab names; keep them resolvable.

``perfbench/layertrace.py`` wraps functions and methods by dotted name
and its hooks read call arguments by parameter name.  A refactor that
renames one of them does not fail the program, it silently makes a
traced benchmark run report ``correct: false``.  This test reads that
file as text (it imports and edits nothing there) and checks every
target and every argument name a hook reads against the package.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"

# Targets removed on purpose; the trace lists them as absent and reads 0.
RETIRED = {"noise.ou_vector": "folded into ou_series, the only OU evaluator"}


def _wrappers() -> tuple[list[tuple[str, str | None]], dict[str, set[str]]]:
    """(target, hook name) per Wrapper, and the args[...] keys each hook reads."""
    tree = ast.parse(LAYERTRACE.read_text(encoding="utf-8"))
    wrappers = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Wrapper":
            hook = next((kw.value.id for kw in node.keywords if kw.arg == "hook"), None)
            wrappers.append((node.args[0].value, hook))
    reads = {}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            reads[fn.name] = {
                sub.slice.value
                for sub in ast.walk(fn)
                if isinstance(sub, ast.Subscript)
                and getattr(sub.value, "id", None) == "args"
                and isinstance(sub.slice, ast.Constant)
            }
    return wrappers, reads


def _resolve(target: str):
    module_name, *owner, attr = target.split(".")
    holder = importlib.import_module("rdslab." + module_name)
    for part in owner:
        holder = getattr(holder, part, None)
    return getattr(holder, attr, None) if holder is not None else None


WRAPPERS, HOOK_READS = _wrappers()


def test_layertrace_declares_wrappers():
    assert len(WRAPPERS) >= 10
    assert {hook for _, hook in WRAPPERS if hook} <= set(HOOK_READS)


@pytest.mark.parametrize("target,hook", WRAPPERS, ids=[t for t, _ in WRAPPERS])
def test_trace_target_resolves_with_hook_arguments(target, hook):
    fn = _resolve(target)
    if target in RETIRED:
        assert fn is None, f"{target} is back; drop it from RETIRED"
        return
    assert callable(fn), f"{target} no longer resolves in rdslab"
    params = inspect.signature(fn).parameters
    missing = HOOK_READS.get(hook, set()) - set(params)
    assert not missing, f"hook {hook} reads {sorted(missing)}, absent from {target}{inspect.signature(fn)}"

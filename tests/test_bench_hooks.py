"""The benchmark's hooks: every package attribute that
``perfbench/tracing.py`` wraps exists.  The benchmark looks each one up
even when it traces nothing, so a deleted or renamed hook fails here
instead of failing every benchmark run."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
TABLES = ("SPANNED", "RHS_FACTORIES", "STATE_LEAVES", "COUNTED")


def _tables() -> dict:
    """The tracer's tables of hooks, read from its source without importing
    it (which would write its bytecode beside it)."""
    tables = {}
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        target = node.targets[0] if isinstance(node, ast.Assign) else None
        if isinstance(target, ast.Name) and target.id in TABLES:
            tables[target.id] = ast.literal_eval(node.value)
    return tables


def _hooks() -> list[tuple[str, str]]:
    """(layer, attribute) of every hook: a layer is a module of the package."""
    tables = _tables()
    hooks = {(layer, name) for layer, names in tables["SPANNED"].items() for name in names}
    hooks |= set(tables["RHS_FACTORIES"]) | set(tables["STATE_LEAVES"])
    hooks |= {tuple(name.split(".")) for name in tables["COUNTED"]}
    return sorted(hooks)


def test_the_tracer_declares_every_table():
    assert sorted(_tables()) == sorted(TABLES)


def test_every_attribute_the_benchmark_wraps_exists():
    hooks = _hooks()
    # the first operation looks up the compact chart's solve even untraced
    assert {("rescaled", "solve_rescaled"), ("trajectory", "unpack_state")} <= set(hooks)
    missing = [
        f"solitonlab.{layer}.{name}"
        for layer, name in hooks
        if not callable(getattr(importlib.import_module(f"solitonlab.{layer}"), name, None))
    ]
    assert missing == []

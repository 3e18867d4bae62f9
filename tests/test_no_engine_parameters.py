"""No function in the library takes an engine-selection parameter.

Every batch runs on a ``PeeledCSR`` view and picks its kernel by size
(:data:`repro.nibble.lockstep.LOCKSTEP_CELL_BUDGET`); a single ``nibble``
call runs the engine its graph's type names.  This guard parses every
module under ``src/repro`` and fails on any function, method, or lambda
with a parameter named ``backend`` or ``csr`` — the user-set engine string
and the prebuilt-snapshot side channel that used to thread through every
layer — so neither can creep back in.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
FORBIDDEN = {"backend", "csr"}


def engine_parameters(path: Path) -> list[str]:
    """``file:line name(param)`` of every forbidden parameter in one module."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        name = getattr(node, "name", "<lambda>")
        hits += [
            f"{path}:{node.lineno} {name}({param.arg})"
            for param in params
            if param.arg in FORBIDDEN
        ]
    return hits


def test_no_function_takes_an_engine_parameter():
    modules = sorted(SRC.rglob("*.py"))
    assert modules, f"no modules found under {SRC}"
    hits = [hit for path in modules for hit in engine_parameters(path)]
    assert not hits, "engine-selection parameters in src/repro:\n" + "\n".join(hits)


def test_guard_detects_every_parameter_kind(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def a(graph, backend='auto'): pass\n"
        "def b(graph, *, csr=None): pass\n"
        "class C:\n"
        "    async def d(self, csr, /): pass\n"
        "e = lambda backend: backend\n"
        "def ok(graph, snapshot=None): pass\n"
    )
    assert len(engine_parameters(bad)) == 4

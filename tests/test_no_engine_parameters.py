"""No function in the library takes an engine-selection parameter.

Every batch runs on a ``PeeledCSR`` view and picks its kernel by size
(:data:`repro.nibble.lockstep.LOCKSTEP_CELL_BUDGET`); a single ``nibble``
call and every triangle enumeration run on a snapshot whatever the
input's type.  This guard parses every module under ``src/repro`` and
fails on any function, method, or lambda with a parameter named
``backend``, ``csr`` or ``fast_path`` — the user-set engine string, the
prebuilt-snapshot side channel and the pre-check switch that used to
thread through every layer — so none can creep back in.  A second guard
greps ``src/repro`` for the names of the deleted triangle engine rule and
dict enumerators.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
FORBIDDEN = {"backend", "csr", "fast_path"}

#: Names of the deleted triangle engine switch and its dict engines.
DELETED_NAMES = (
    "CSR_AUTO_THRESHOLD",
    "uses_csr_engine",
    "_oriented_dict",
    "_cluster_triangles_dict",
)


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


def deleted_names(path: Path) -> list[str]:
    """``file:line name`` of every deleted engine name left in one module."""
    return [
        f"{path}:{lineno} {name}"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        for name in DELETED_NAMES
        if name in line
    ]


def test_guard_detects_every_parameter_kind(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def a(graph, backend='auto'): pass\n"
        "def b(graph, *, csr=None): pass\n"
        "class C:\n"
        "    async def d(self, csr, /): pass\n"
        "e = lambda backend: backend\n"
        "def f(graph, fast_path=True): pass\n"
        "def ok(graph, snapshot=None): pass\n"
    )
    assert len(engine_parameters(bad)) == 5


def test_triangle_engine_rule_is_gone():
    modules = sorted(SRC.rglob("*.py"))
    hits = [hit for path in modules for hit in deleted_names(path)]
    assert not hits, "deleted triangle engine names in src/repro:\n" + "\n".join(hits)


def test_name_guard_bites(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("if uses_csr_engine(n):\n    x = CSR_AUTO_THRESHOLD\n")
    assert len(deleted_names(bad)) == 2

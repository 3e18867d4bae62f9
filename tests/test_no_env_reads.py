"""The library reads no environment variables.

Every configuration of ``repro`` is an explicit argument, so two runs with
the same arguments behave the same whatever the shell exports.  This guard
parses every module under ``src/repro`` and fails on any read of
``os.environ`` / ``os.getenv`` (attribute access or ``from os import``),
which keeps process-wide switches from creeping back in.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def env_reads(path: Path) -> list[str]:
    """``file:line`` of every environment read in one module."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ENV_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            hits.append(f"{path}:{node.lineno}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ENV_NAMES for alias in node.names):
                hits.append(f"{path}:{node.lineno}")
    return hits


def test_src_reads_no_environment_variables():
    modules = sorted(SRC.rglob("*.py"))
    assert modules, f"no modules found under {SRC}"
    hits = [hit for path in modules for hit in env_reads(path)]
    assert not hits, "environment reads in src/repro:\n" + "\n".join(hits)


def test_guard_detects_both_spellings(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import os\nfrom os import getenv\n"
        "A = os.environ.get('X')\nB = os.getenv('Y')\n"
    )
    assert len(env_reads(bad)) == 3

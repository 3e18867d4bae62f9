"""Docs gate for CI: user docs must exist, public APIs must be documented.

Walks the AST of every module under ``repro.nibble``,
``repro.decomposition``, ``repro.parallel``, ``repro.resilience``,
``repro.triangles`` and ``repro.worlds``, plus the graph layers the
pipeline runs on (``repro.graphs.csr``, ``repro.graphs.peel`` and
``repro.graphs.spectral``), and fails (exit code 1) if any module, public
class, or public function/method lacks a docstring, or if any of the
required user-facing documents (``README.md`` and the ``docs/`` guides
listed in :data:`REQUIRED_DOCS`) is missing.  Pure stdlib, grep-free, no third-party linter needed.

Usage::

    python tools/check_docstrings.py [repo_root]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Paths (relative to the repo root) whose public APIs the gate covers.
CHECKED_PATHS = [
    "src/repro/nibble",
    "src/repro/decomposition",
    "src/repro/parallel",
    "src/repro/resilience",
    "src/repro/triangles",
    "src/repro/graphs/csr.py",
    "src/repro/graphs/peel.py",
    "src/repro/graphs/spectral.py",
    "src/repro/worlds",
]

#: User-facing documents the repository must ship (checked like the README:
#: a rename or deletion fails the gate loudly instead of rotting quietly).
REQUIRED_DOCS = [
    "README.md",
    "docs/ARCHITECTURE.md",
    "docs/KERNELS.md",
    "docs/PARALLEL.md",
    "docs/PEELING.md",
    "docs/RESILIENCE.md",
    "docs/TRIANGLES.md",
    "docs/WORLDS.md",
]


def iter_python_files(root: Path) -> list[Path]:
    """All Python files under the checked paths, sorted for stable output."""
    files: list[Path] = []
    for rel in CHECKED_PATHS:
        path = root / rel
        if path.is_file():
            files.append(path)
        elif path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            # A renamed/moved path must fail the gate loudly, not shrink
            # its coverage silently.
            raise FileNotFoundError(f"docs gate path does not exist: {path}")
    return files


def is_public(name: str) -> bool:
    """Dunder and underscore-prefixed names are exempt from the gate."""
    return not name.startswith("_")


def missing_docstrings(path: Path) -> list[str]:
    """Return 'file:line: description' entries for every undocumented API."""
    tree = ast.parse(path.read_text(), filename=str(path))
    problems: list[str] = []
    if ast.get_docstring(tree) is None:
        problems.append(f"{path}:1: module lacks a docstring")

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{owner}{child.name}"
                kind = "class" if isinstance(child, ast.ClassDef) else "function"
                if is_public(child.name) and ast.get_docstring(child) is None:
                    problems.append(
                        f"{path}:{child.lineno}: public {kind} {name!r} lacks a docstring"
                    )
                if isinstance(child, ast.ClassDef) and is_public(child.name):
                    visit(child, f"{name}.")

    visit(tree, "")
    return problems


def main(root: Path) -> int:
    """Run the gate; print violations and return a process exit code."""
    problems: list[str] = []
    for rel in REQUIRED_DOCS:
        if not (root / rel).is_file():
            problems.append(f"{root / rel}: missing (required user-facing doc)")
    for path in iter_python_files(root):
        problems.extend(missing_docstrings(path))
    if problems:
        print(f"docs gate FAILED ({len(problems)} problem(s)):")
        for line in problems:
            print(f"  {line}")
        return 1
    print("docs gate passed: required docs present, all public APIs documented")
    return 0


if __name__ == "__main__":
    repo_root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    sys.exit(main(repo_root))

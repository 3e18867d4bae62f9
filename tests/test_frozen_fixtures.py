"""The frozen fixtures stay byte-for-byte what their writing commit wrote.

Several tests compare today's outputs against files an older build wrote
(the dict-oracle signatures, the power-law and Lanczos digests, the
journal-compat directories).  Rewriting one of them to match a changed
output would turn its test into a tautology, so ``tests/data/FROZEN.sha256``
pins every such file by sha256, next to the commit that wrote it.  This
test fails when a listed file is missing or differs, and when a file
under ``tests/data/`` is not listed, so a new fixture joins the manifest
when it is added.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "tests" / "data"
MANIFEST = DATA / "FROZEN.sha256"


def manifest_entries() -> dict[str, tuple[str, str]]:
    """``{repo-relative path: (sha256, writing commit)}`` from the manifest."""
    entries = {}
    for line in MANIFEST.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        digest, commit, path = line.split()
        assert path not in entries, f"{path} listed twice"
        entries[path] = (digest, commit)
    return entries


def test_manifest_lines_are_well_formed():
    entries = manifest_entries()
    assert "tests/differential/oracle_signatures.json" in entries
    for path, (digest, commit) in entries.items():
        assert re.fullmatch(r"[0-9a-f]{64}", digest), path
        assert re.fullmatch(r"[0-9a-f]{40}", commit), path


def test_every_listed_fixture_is_unchanged():
    for path, (digest, commit) in manifest_entries().items():
        file = REPO / path
        assert file.is_file(), f"frozen fixture {path} is missing"
        actual = hashlib.sha256(file.read_bytes()).hexdigest()
        assert actual == digest, (
            f"frozen fixture {path} differs from what {commit[:12]} wrote"
        )


def test_every_file_under_tests_data_is_listed():
    listed = set(manifest_entries())
    present = {
        file.relative_to(REPO).as_posix()
        for file in DATA.rglob("*")
        if file.is_file() and file != MANIFEST
    }
    assert sorted(present - listed) == [], "fixtures missing from FROZEN.sha256"

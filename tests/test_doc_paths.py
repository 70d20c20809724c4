"""Every repository path the docs name in backticks exists.

README.md, DESIGN.md and EXPERIMENTS.md point readers at benchmark,
source, test and example files; a renamed or folded file leaves such a
pointer dangling. ROADMAP.md is not scanned: it quotes stale paths on
purpose when it records drift.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
PATH = re.compile(r"`((?:benchmarks|src|tests|examples)/[^`\s]*)`")


def named_paths(doc: str) -> list[tuple[int, str]]:
    """``(line, path)`` of every backticked repository path in *doc*;
    a pytest node id (``file::test``) names its file."""
    text = (ROOT / doc).read_text(encoding="utf-8")
    return [
        (text.count("\n", 0, match.start()) + 1, match.group(1).split("::")[0])
        for match in PATH.finditer(text)
    ]


@pytest.mark.parametrize("doc", DOCS)
def test_backticked_paths_exist(doc):
    paths = named_paths(doc)
    assert paths, f"{doc} names no repository path"
    missing = [(line, path) for line, path in paths if not (ROOT / path).exists()]
    assert not missing, f"{doc} names missing paths: {missing}"

"""Knob inventory: the ``REPRO_*`` environment names the package reads
are exactly the ones docs/api.md documents, and no user-facing doc names
a knob that nothing reads."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KNOB = re.compile(r"REPRO_[A-Z0-9_]+")

#: Read by the benchmark suites under benchmarks/, not by the package.
BENCHMARK_KNOBS = {"REPRO_BENCH_SMOKE"}


def knobs_read_under(root: Path) -> set[str]:
    """``REPRO_*`` names that occur as a whole string constant in code —
    the environment lookups and the ``*_ENV`` constants feeding them.
    Docstrings and help texts that merely mention a knob do not count."""
    found: set[str] = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and KNOB.fullmatch(node.value)
            ):
                found.add(node.value)
    return found


def knobs_named_in(path: Path) -> set[str]:
    return set(KNOB.findall(path.read_text()))


def test_api_doc_lists_exactly_the_knobs_src_reads():
    read = knobs_read_under(ROOT / "src")
    documented = knobs_named_in(ROOT / "docs" / "api.md")
    assert read - documented == set(), "read under src/ but missing from docs/api.md"
    assert documented - read == set(), "in docs/api.md but read by nothing under src/"


def test_docs_name_no_unread_knob():
    assert BENCHMARK_KNOBS <= knobs_read_under(ROOT / "benchmarks")
    live = knobs_read_under(ROOT / "src") | BENCHMARK_KNOBS
    for doc in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        stale = knobs_named_in(doc) - live
        assert stale == set(), f"{doc.relative_to(ROOT)} names knobs nothing reads"

"""Shared fixtures of the analyzer tests."""

from __future__ import annotations

from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def src_lint_report():
    """The lint report of the shipped ``src/`` tree, computed once: two
    acceptance tests read it, and one full run takes several seconds."""
    from repro.analysis import lint_paths, load_config

    return lint_paths([REPO / "src"], load_config(REPO / "src"))

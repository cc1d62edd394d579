"""Interprocedural exactness-flow coverage.

Two layers: the checked-in cross-module fixture package under
``flowpkgs`` (helper in one module, lossy sink in another — one sink per
XF rule), and the seeded-mutation acceptance checks that prove the
analyzer catches the exact regressions it exists for (a deleted
``timeout=`` propagation in ``repro.serve`` and a ``float()`` cast
slipped into a ``repro.mxu`` helper).
"""

import shutil
from pathlib import Path

import pytest

from repro.analysis import LintConfig, lint_file, lint_paths

FLOWPKGS = Path(__file__).parent / "flowpkgs"
REPO = Path(__file__).resolve().parents[2]


class TestCrossModuleTaint:
    @pytest.fixture(scope="class")
    def report(self):
        return lint_paths([FLOWPKGS], LintConfig())

    def test_each_xf_rule_fires_exactly_once_across_modules(self, report):
        found = [(f.rule_id, f.line) for f in report.findings]
        assert found == [
            ("XF501", 9),
            ("XF502", 13),
            ("XF503", 17),
            ("XF504", 21),
            ("XF505", 25),
        ]
        assert all(f.path.endswith("sinks.py") for f in report.findings)

    def test_origin_cites_the_helper_module(self, report):
        for finding in report.findings:
            # The taint entered the program one module away: the message
            # must name the source call and its file so the report is
            # actionable without re-running the analysis.
            assert "aligned_sum_groups()" in finding.message
            assert "helpers.py" in finding.message
            assert "reduce_exact()" in finding.message


class TestSanitizer:
    def test_quantize_ends_the_taint(self, tmp_path):
        pkg = tmp_path / "repro" / "gemm"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("", encoding="utf-8")
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        mod = pkg / "ok.py"
        mod.write_text(
            "from repro.arith.accumulator import aligned_sum_groups\n"
            "from repro.types.quantize import quantize\n"
            "\n"
            "\n"
            "def helper(groups):\n"
            "    return aligned_sum_groups(groups, acc_bits=48)\n"
            "\n"
            "\n"
            "def finish(groups, fmt):\n"
            "    q = quantize(helper(groups), fmt)\n"
            "    return float(q)\n",
            encoding="utf-8",
        )
        assert lint_file(mod, LintConfig()) == []


def _copy_into_package(src: Path, tmp_path: Path, *parts: str) -> Path:
    """Copy a shipped source file into a ``repro/...`` package skeleton so
    scope gating (path fragments) and relative imports resolve."""
    pkg = tmp_path.joinpath(*parts)
    pkg.mkdir(parents=True)
    for depth in range(1, len(parts) + 1):
        (tmp_path.joinpath(*parts[:depth]) / "__init__.py").write_text(
            "", encoding="utf-8"
        )
    dest = pkg / src.name
    shutil.copy(src, dest)
    return dest


class TestSeededMutations:
    """Acceptance: known regressions must produce >=1 finding."""

    def test_pristine_copies_lint_clean(self, tmp_path):
        for rel, parts in (
            ("src/repro/serve/server.py", ("repro", "serve")),
            ("src/repro/mxu/fused.py", ("repro", "mxu")),
        ):
            dest = _copy_into_package(REPO / rel, tmp_path / parts[-1], *parts)
            assert lint_file(dest, LintConfig()) == []

    def test_deleting_timeout_propagation_is_caught(self, tmp_path):
        dest = _copy_into_package(
            REPO / "src/repro/serve/server.py", tmp_path, "repro", "serve"
        )
        source = dest.read_text(encoding="utf-8")
        # Drop the deadline from _dispatch's pool call (the one
        # `timeout=remaining,` in the file) — a hung worker would now
        # hang the request forever instead of being killed.
        idx = source.rfind("timeout=remaining,")
        assert idx != -1, "server.py no longer propagates timeout=remaining"
        dest.write_text(
            source[:idx] + source[idx + len("timeout=remaining,"):],
            encoding="utf-8",
        )
        rules = [f.rule_id for f in lint_file(dest, LintConfig())]
        assert "AS604" in rules

    def test_inserting_float_cast_into_mxu_helper_is_caught(self, tmp_path):
        dest = _copy_into_package(
            REPO / "src/repro/mxu/fused.py", tmp_path, "repro", "mxu"
        )
        dest.write_text(
            dest.read_text(encoding="utf-8")
            + "\n\ndef _mutant(groups):\n"
            "    wide = aligned_sum_groups(groups, acc_bits=48)\n"
            "    return float(wide)\n",
            encoding="utf-8",
        )
        findings = lint_file(dest, LintConfig())
        assert "XF501" in [f.rule_id for f in findings]

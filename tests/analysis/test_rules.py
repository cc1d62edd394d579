"""Per-rule fixture coverage: exact rule-id/line findings, zero noise.

Each fixture under ``fixtures/`` contains one known-bad snippet per rule
alongside deliberately-clean lookalikes; the tests pin the *exact*
(rule_id, line) set so both missed findings and false positives fail.
"""

from pathlib import Path

import pytest

from repro.analysis import LintConfig, lint_file

FIXTURES = Path(__file__).parent / "fixtures"
REPO = Path(__file__).resolve().parents[2]

#: fixture path (relative to FIXTURES) -> exact expected (rule_id, line) set.
EXPECTED = {
    "repro/types/ps101_float_arith.py": [("PS101", 5), ("PS101", 6)],
    "repro/types/ps102_math_call.py": [("PS102", 7)],
    "ps103_float_eq.py": [("PS103", 5), ("PS103", 7)],
    "repro/arith/ps104_shift_window.py": [("PS104", 8), ("PS104", 20)],
    "repro/mxu/ps105_f32_cast.py": [("PS105", 7), ("PS105", 8), ("PS105", 9)],
    "dt201_unseeded_rng.py": [("DT201", 7), ("DT201", 8)],
    "dt202_global_numpy.py": [("DT202", 7), ("DT202", 8)],
    "dt203_stdlib_random.py": [("DT203", 8), ("DT203", 9)],
    "fs301_lambda_task.py": [("FS301", 11), ("FS301", 16)],
    "fs302_global_mutation.py": [("FS302", 10), ("FS302", 11), ("FS302", 12)],
    "fs303_shm_leak.py": [("FS303", 7)],
    "fs303_shm_registry.py": [("FS303", 15)],
    "fs304_transitive_mutation.py": [("FS304", 19)],
    "rh401_bare_except.py": [("RH401", 8)],
    "rh402_raw_pickle.py": [("RH402", 8), ("RH402", 12)],
    "rh403_silent_swallow.py": [("RH403", 7)],
    "repro/gemm/xf501_float_cast.py": [("XF501", 16)],
    "repro/gemm/xf502_narrow_cast.py": [("XF502", 14)],
    "repro/gemm/xf503_unordered_sum.py": [("XF503", 18)],
    "repro/gemm/xf504_nonrne_round.py": [("XF504", 14)],
    "repro/gemm/xf505_lossy_arith.py": [("XF505", 12)],
    "as601_blocking_coroutine.py": [("AS601", 10)],
    "as602_orphan_task.py": [("AS602", 11)],
    "repro/serve/as603_shared_state_race.py": [("AS603", 12)],
    "repro/serve/as604_missing_timeout.py": [("AS604", 11)],
    "as605_unawaited_coroutine.py": [("AS605", 11)],
    "repro/types/clean_ok.py": [],
}


def _lint(rel: str):
    return lint_file(FIXTURES / rel, LintConfig())


@pytest.mark.parametrize("rel", sorted(EXPECTED))
def test_fixture_findings_exact(rel):
    found = [(f.rule_id, f.line) for f in _lint(rel)]
    assert found == sorted(EXPECTED[rel], key=lambda t: t[1])


@pytest.mark.parametrize("rel", sorted(EXPECTED))
def test_fixture_is_valid_python(rel):
    compile((FIXTURES / rel).read_text(encoding="utf-8"), rel, "exec")


def test_findings_carry_location_and_render(tmp_path):
    findings = _lint("repro/types/ps101_float_arith.py")
    first = findings[0]
    assert first.line == 5 and first.col >= 0
    rendered = first.render()
    assert "ps101_float_arith.py:5:" in rendered
    assert "PS101" in rendered and "error" in rendered


def test_inline_allow_suppresses_ps101():
    # Line 13 of the PS101 fixture repeats the violation under a
    # `# repro: allow[PS101]` comment — it must not be reported.
    lines = [f.line for f in _lint("repro/types/ps101_float_arith.py")]
    assert 13 not in lines


def test_scoped_rules_silent_outside_bit_exact_modules(tmp_path):
    # The identical PS101/PS102 source outside a bit-exact path fragment
    # must produce no findings: precision rules are scope-gated.
    for rel in ("repro/types/ps101_float_arith.py", "repro/types/ps102_math_call.py"):
        src = (FIXTURES / rel).read_text(encoding="utf-8")
        out = tmp_path / Path(rel).name
        out.write_text(src, encoding="utf-8")
        assert lint_file(out, LintConfig()) == []


def test_ps103_exact_literals_never_flagged(tmp_path):
    out = tmp_path / "eq.py"
    out.write_text(
        "def f(x):\n"
        "    return x == 0.25 or x == 1024.0 or x != 65504.0 or x == 1e3\n",
        encoding="utf-8",
    )
    assert lint_file(out, LintConfig()) == []


def test_ps103_escape_hatch_config(tmp_path):
    out = tmp_path / "eq.py"
    out.write_text("def f(x):\n    return x == 0.1\n", encoding="utf-8")
    assert [f.rule_id for f in lint_file(out, LintConfig())] == ["PS103"]
    relaxed = LintConfig(exact_float_literals=frozenset({0.1}))
    assert lint_file(out, relaxed) == []


def test_ps104_window_tracks_config(tmp_path):
    out = tmp_path / "repro" / "arith" / "sched.py"
    out.parent.mkdir(parents=True)
    out.write_text("schedule = [(0, 0, 24)]\n", encoding="utf-8")
    # 24 + 2*12 == 48 fits the default window ...
    assert lint_file(out, LintConfig()) == []
    # ... but escapes a narrowed 40-bit window.
    narrow = LintConfig(acc_window_bits=40)
    assert [f.rule_id for f in lint_file(out, narrow)] == ["PS104"]


def test_clean_src_tree_has_zero_findings(src_lint_report):
    """Acceptance: the shipped source tree lints clean (no FP noise)."""
    report = src_lint_report
    assert report.files_checked > 30
    assert report.parse_errors == []
    assert report.findings == [], "\n" + report.render()

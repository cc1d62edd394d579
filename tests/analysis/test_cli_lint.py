"""`repro lint` CLI contract: exit codes, --json, --list-rules, --fix."""

import json
from pathlib import Path

import pytest

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
REPO = Path(__file__).resolve().parents[2]

ALL_FIXTURES = sorted(
    p.relative_to(FIXTURES).as_posix()
    for p in FIXTURES.rglob("*.py")
    if p.name != "clean_ok.py"
)


def test_lint_src_exits_zero(capsys, monkeypatch, src_lint_report):
    """Acceptance: `repro lint src/` exits 0 on the shipped tree (the
    CLI reports the test session's one lint run of src/)."""
    import repro.analysis

    def lint_src(paths, cfg):
        assert paths == [REPO / "src"]
        return src_lint_report

    monkeypatch.setattr(repro.analysis, "lint_paths", lint_src)
    assert main(["lint", str(REPO / "src")]) == 0
    out = capsys.readouterr().out
    assert "0 error(s), 0 warning(s)" in out


@pytest.mark.parametrize("rel", ALL_FIXTURES)
def test_lint_each_fixture_exits_nonzero(rel, capsys):
    """Acceptance: every known-bad fixture fails the lint gate with a
    file:line:rule-id finding on stdout."""
    path = FIXTURES / rel
    assert main(["lint", str(path)]) == 1
    out = capsys.readouterr().out
    rule_id = Path(rel).name.split("_")[0].upper()
    assert f"{rule_id} error:" in out
    assert any(
        line.startswith(str(path)) and f": {rule_id} " in line
        for line in out.splitlines()
    )


def test_lint_clean_fixture_exits_zero(capsys):
    assert main(["lint", str(FIXTURES / "repro/types/clean_ok.py")]) == 0


def test_missing_path_is_usage_error(capsys):
    assert main(["lint", str(FIXTURES / "does_not_exist.py")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("PS101", "PS105", "DT201", "FS303", "RH403"):
        assert rule_id in out
    assert "precision" in out and "fork-safety" in out


def test_json_output(capsys):
    assert main(["lint", "--json", str(FIXTURES / "rh402_raw_pickle.py")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 1
    rules = [f["rule_id"] for f in payload["findings"]]
    assert rules == ["RH402", "RH402"]
    assert payload["findings"][0]["line"] == 8


def test_json_reports_effective_severity(tmp_path, capsys):
    """A config severity override must show up in --json output (CI
    dashboards have to match exit-code behavior, not registry defaults)."""
    (tmp_path / "pyproject.toml").write_text(
        "[tool.repro.lint.severity]\nRH402 = \"warning\"\n", encoding="utf-8"
    )
    target = tmp_path / "f.py"
    target.write_text(
        "import pickle\n\ndef f(b):\n    return pickle.loads(b)\n",
        encoding="utf-8",
    )
    assert main(["lint", "--json", str(target)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exit_code"] == 0
    assert [f["severity"] for f in payload["findings"]] == ["warning"]


def test_graph_flag_dumps_call_graph(tmp_path, capsys):
    out = tmp_path / "graph.json"
    assert main(
        ["lint", "--graph", str(out), str(FIXTURES / "repro/types/clean_ok.py")]
    ) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert set(payload) == {"modules", "functions", "edges"}
    assert "call graph written" in capsys.readouterr().err


def test_sarif_flag_writes_sarif(tmp_path, capsys):
    out = tmp_path / "lint.sarif"
    assert main(
        ["lint", "--sarif", str(out), str(FIXTURES / "rh402_raw_pickle.py")]
    ) == 1
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    results = run["results"]
    assert [r["ruleId"] for r in results] == ["RH402", "RH402"]
    assert all(r["level"] == "error" for r in results)
    loc = results[0]["locations"][0]["physicalLocation"]
    assert loc["region"]["startLine"] == 8


def test_fix_flag_applies_and_relints(tmp_path, capsys):
    out = tmp_path / "rh401.py"
    out.write_text(
        "def f(p):\n"
        "    try:\n"
        "        return open(p).read()\n"
        "    except:\n"
        "        return ''\n",
        encoding="utf-8",
    )
    assert main(["lint", "--fix", str(out)]) == 0
    assert "except Exception:" in out.read_text(encoding="utf-8")


def test_parse_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n", encoding="utf-8")
    assert main(["lint", str(bad)]) == 1
    assert "parse error" in capsys.readouterr().out

"""run_all and the report renderer."""

from __future__ import annotations

import pytest

from repro.eval import runner
from repro.eval.experiments import ExperimentResult


def _stub_result(name: str) -> ExperimentResult:
    return ExperimentResult(name, [{"x": 1.0}], {"k": 1.0}, {"k": 1.0})


@pytest.fixture
def counting_experiments(monkeypatch):
    """Replace the experiment registry with counting stubs."""
    calls: dict[str, int] = {"e1": 0, "e2": 0}

    def make(name):
        def exp():
            calls[name] += 1
            return _stub_result(name)

        return exp

    monkeypatch.setattr(
        runner, "ALL_EXPERIMENTS", {n: make(n) for n in calls}
    )
    return calls


class TestRunAll:
    def test_selection_order_preserved(self, counting_experiments):
        out = runner.run_all(only=["e2", "e1"])
        assert list(out) == ["e2", "e1"]
        assert counting_experiments == {"e1": 1, "e2": 1}

    def test_every_sweep_computes_afresh(self, counting_experiments):
        first = runner.run_all()
        first["e1"].rows.append({"junk": 0.0})
        second = runner.run_all()
        assert counting_experiments == {"e1": 2, "e2": 2}
        assert second["e1"].rows == [{"x": 1.0}]


class TestRenderReport:
    def test_empty_dict_renders_empty_without_running(self, counting_experiments):
        assert runner.render_report({}) == ""
        assert counting_experiments == {"e1": 0, "e2": 0}

    def test_none_runs_all(self, counting_experiments):
        text = runner.render_report()
        assert "== e1 ==" in text and "== e2 ==" in text
        assert counting_experiments == {"e1": 1, "e2": 1}

    def test_explicit_results_rendered(self):
        text = runner.render_report({"x": _stub_result("only-this")})
        assert "only-this" in text

"""Run every experiment and render the full paper-vs-measured report.

:func:`run_all` computes the selected experiments one after another, in
selection order. The whole report takes a fraction of a second, so it
needs neither a result cache nor a worker pool.
"""

from __future__ import annotations

from typing import Callable

from .experiments import (
    ExperimentResult,
    accuracy_claims,
    fig2_instruction_mix,
    fig4_gemm_speedups,
    fig5_energy_and_peak,
    fig6_fft,
    fig7_dnn,
    fig8_mrf,
    fig9_knn,
    section3c_projections,
    table1_throughput,
    table3_synthesis,
)

__all__ = ["ALL_EXPERIMENTS", "run_all", "render_report"]

ALL_EXPERIMENTS: dict[str, Callable[[], ExperimentResult]] = {
    "table1": table1_throughput,
    "section3c": section3c_projections,
    "fig2": fig2_instruction_mix,
    "table3": table3_synthesis,
    "fig4": fig4_gemm_speedups,
    "fig5": fig5_energy_and_peak,
    "fig6": fig6_fft,
    "fig7": fig7_dnn,
    "fig8": fig8_mrf,
    "fig9": fig9_knn,
    "accuracy": accuracy_claims,
}


def run_all(only: list[str] | None = None) -> dict[str, ExperimentResult]:
    """Execute the selected (default: all) experiments, in order."""
    return {name: ALL_EXPERIMENTS[name]() for name in only or ALL_EXPERIMENTS}


def render_report(results: dict[str, ExperimentResult] | None = None) -> str:
    """The full text report (what EXPERIMENTS.md summarises)."""
    if results is None:  # an explicit empty selection renders empty
        results = run_all()
    return "\n\n".join(r.render() for r in results.values())


if __name__ == "__main__":  # pragma: no cover
    print(render_report())

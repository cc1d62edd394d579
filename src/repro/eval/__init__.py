"""Per-table/figure experiment runners (the reproduction's front door)."""

from .experiments import (
    GEMM_SIZES,
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
from .export import export_csv, export_json, rows_to_csv_text
from .runner import ALL_EXPERIMENTS, render_report, run_all

__all__ = [
    "ExperimentResult",
    "GEMM_SIZES",
    "table1_throughput",
    "section3c_projections",
    "fig2_instruction_mix",
    "table3_synthesis",
    "fig4_gemm_speedups",
    "fig5_energy_and_peak",
    "fig6_fft",
    "fig7_dnn",
    "fig8_mrf",
    "fig9_knn",
    "accuracy_claims",
    "ALL_EXPERIMENTS",
    "run_all",
    "render_report",
    "export_csv",
    "export_json",
    "rows_to_csv_text",
]

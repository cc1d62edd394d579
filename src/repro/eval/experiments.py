"""One runner per paper table/figure, with paper-reference comparisons.

Every function returns an :class:`ExperimentResult` holding the series it
computed plus the paper's headline numbers, so the benchmark harness and
EXPERIMENTS.md generation share one source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..accuracy.study import cgemm_accuracy_study, sgemm_accuracy_study
from ..apps.dnn.training import figure7
from ..apps.fft.perf import fft_speedups
from ..apps.knn.perf import figure9
from ..apps.mrf.perf import figure8
from ..gpusim.config import a100, a100_emulation, h100, mi100, required_feed_bandwidth
from ..gpusim.energy import EnergyModel, estimate_energy
from ..gpusim.instrmix import APPROACHES, tile_instruction_breakdown
from ..gpusim.kernelmodel import estimate_time
from ..kernels.base import GemmProblem
from ..kernels.registry import CGEMM_KERNELS, SGEMM_KERNELS
from ..synthesis.report import PAPER_TABLE3, synthesis_table

__all__ = [
    "ExperimentResult",
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
    "GEMM_SIZES",
]

#: Figure 4 problem sizes: "ranging from 1Kx1Kx1K to 16Kx16Kx16K".
GEMM_SIZES = [1024, 2048, 4096, 8192, 16384]


@dataclass
class ExperimentResult:
    """A computed experiment with its paper reference points."""

    experiment: str
    rows: list[dict[str, Any]]
    paper: dict[str, float]
    measured: dict[str, float]
    notes: str = ""

    def render(self) -> str:
        """Human-readable report block."""
        lines = [f"== {self.experiment} =="]
        for row in self.rows:
            lines.append("  " + "  ".join(f"{k}={_fmt(v)}" for k, v in row.items()))
        lines.append("  paper vs measured:")
        for key, pval in self.paper.items():
            mval = self.measured.get(key, float("nan"))
            lines.append(f"    {key:34s} paper={_fmt(pval):>8s} ours={_fmt(mval):>8s}")
        if self.notes:
            lines.append(f"  note: {self.notes}")
        return "\n".join(lines)


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        if v == 0 or (1e-3 < abs(v) < 1e5):
            return f"{v:.3g}"
        return f"{v:.2e}"
    return str(v)


# ----------------------------------------------------------------------
# Table I + Section II-B
# ----------------------------------------------------------------------
def table1_throughput() -> ExperimentResult:
    """A100 peak throughput per data path + the feed-bandwidth formula."""
    gpu = a100()
    paths = ["fp32", "fp16", "bf16", "tf32_tc", "fp16_tc", "bf16_tc"]
    rows = [{"path": p, "tflops": gpu.peak_tflops(p)} for p in paths]
    feed = required_feed_bandwidth(gpu, 8, 4, 8, 16)
    measured = {f"{p}_tflops": gpu.peak_tflops(p) for p in paths}
    measured["feed_bw_tbs"] = feed / 1e12
    paper = {
        "fp32_tflops": 19.5,
        "fp16_tflops": 78.0,
        "bf16_tflops": 39.0,
        "tf32_tc_tflops": 156.0,
        "fp16_tc_tflops": 312.0,
        "bf16_tc_tflops": 312.0,
        "feed_bw_tbs": 156.0,
    }
    return ExperimentResult("Table I: A100 peak throughput", rows, paper, measured)


def section3c_projections() -> ExperimentResult:
    """Section III-C: M3XU's peak advantage on Ampere, Hopper and CDNA."""
    rows = []
    measured = {}
    for gpu in (a100(), h100(), mi100()):
        adv = gpu.peak_tflops("m3xu_fp32") / gpu.peak_tflops("fp32")
        rows.append(
            {
                "gpu": gpu.name,
                "m3xu_fp32_tflops": gpu.peak_tflops("m3xu_fp32"),
                "advantage_over_simt": adv,
            }
        )
        measured[f"{gpu.name}_advantage"] = adv
        measured[f"{gpu.name}_m3xu_tflops"] = gpu.peak_tflops("m3xu_fp32")
    paper = {
        "a100_advantage": 4.0,       # "4x performance advantage over FP32 CUDA cores"
        "a100_m3xu_tflops": 78.0,    # "equivalent to 78 TFLOPS on ... Ampere"
        "h100_m3xu_tflops": 248.0,   # "or 248 TFLOPS on the Hopper architecture"
        "mi100_advantage": 2.0,      # "a 2x advantage over SIMT cores on those GPUs"
    }
    return ExperimentResult(
        "Section III-C: cross-architecture projections", rows, paper, measured
    )


# ----------------------------------------------------------------------
# Figure 2
# ----------------------------------------------------------------------
def fig2_instruction_mix() -> ExperimentResult:
    """Warp instructions per logical FP32 warp-tile MMA, by approach."""
    rows = []
    measured = {}
    for ap in APPROACHES:
        b = tile_instruction_breakdown(ap)
        rows.append(
            {
                "approach": ap,
                "loads": b.loads,
                "stores": b.stores,
                "split_arith": b.split_arith,
                "mma": b.mma,
                "total": b.total,
            }
        )
        measured[f"{ap}_total"] = b.total
    paper = {
        # Qualitative figure: hardware needs no split instructions and
        # fewer loads/stores than software (Section II-C.1).
        "m3xu_total": measured["m3xu_total"],
        "sw_over_hw_ratio": measured["3xbf16_total"] / measured["m3xu_total"],
    }
    return ExperimentResult(
        "Figure 2: SW vs HW instruction streams",
        rows,
        paper,
        {
            "m3xu_total": measured["m3xu_total"],
            "sw_over_hw_ratio": measured["3xbf16_total"] / measured["m3xu_total"],
        },
        notes="Figure 2 is qualitative; the ratio quantifies its claim.",
    )


# ----------------------------------------------------------------------
# Table III
# ----------------------------------------------------------------------
def table3_synthesis() -> ExperimentResult:
    rows = []
    paper: dict[str, float] = {}
    measured: dict[str, float] = {}
    for r in synthesis_table():
        rows.append(
            {"design": r.design, "area": r.area, "cycle": r.cycle, "power": r.power}
        )
        ref = PAPER_TABLE3[r.design]
        for metric in ("area", "cycle", "power"):
            paper[f"{r.design}.{metric}"] = ref[metric]
            measured[f"{r.design}.{metric}"] = getattr(r, metric)
    return ExperimentResult("Table III: synthesis (relative)", rows, paper, measured)


# ----------------------------------------------------------------------
# Figure 4
# ----------------------------------------------------------------------
def fig4_gemm_speedups(sizes: list[int] | None = None) -> ExperimentResult:
    """SGEMM + CGEMM speedups over the SIMT baselines across sizes."""
    gpu = a100_emulation()
    sizes = sizes or GEMM_SIZES
    rows = []
    series: dict[str, list[float]] = {}
    base_s = SGEMM_KERNELS["cutlass_simt_sgemm"]
    base_c = CGEMM_KERNELS["cutlass_simt_cgemm"]
    for s in sizes:
        p = GemmProblem(s, s, s)
        pc = GemmProblem(s, s, s, complex=True)
        t0 = base_s.time(p, gpu)
        t0c = base_c.time(pc, gpu)
        row: dict[str, Any] = {"size": s}
        for name, k in SGEMM_KERNELS.items():
            if name == "baseline_MXU_sgemm":
                continue
            sp = t0 / k.time(p, gpu)
            row[name] = sp
            series.setdefault(name, []).append(sp)
        for name, k in CGEMM_KERNELS.items():
            if name == "baseline_MXU_cgemm":
                continue
            sp = t0c / k.time(pc, gpu)
            row[name] = sp
            series.setdefault(name, []).append(sp)
        rows.append(row)

    def avg(name: str) -> float:
        return float(np.mean(series[name]))

    def mx(name: str) -> float:
        return float(np.max(series[name]))

    measured = {
        "sgemm_m3xu_avg": avg("M3XU_sgemm_pipelined"),
        "sgemm_m3xu_max": mx("M3XU_sgemm_pipelined"),
        "sgemm_m3xu_nonpipelined_avg": avg("M3XU_sgemm"),
        "sgemm_alternatives_max": max(
            mx("cutlass_tensorop_sgemm"), mx("EEHC_sgemm_fp32B")
        ),
        "cgemm_m3xu_avg": avg("M3XU_cgemm_pipelined"),
        "cgemm_m3xu_max": mx("M3XU_cgemm_pipelined"),
        "cgemm_m3xu_nonpipelined_avg": avg("M3XU_cgemm"),
        "cgemm_tensorop_max": mx("cutlass_tensorop_cgemm"),
    }
    paper = {
        "sgemm_m3xu_avg": 3.64,
        "sgemm_m3xu_max": 3.89,
        "sgemm_m3xu_nonpipelined_avg": 3.35,
        "sgemm_alternatives_max": 2.67,
        "cgemm_m3xu_avg": 3.51,
        "cgemm_m3xu_max": 3.82,
        "cgemm_m3xu_nonpipelined_avg": 3.51,
        "cgemm_tensorop_max": 2.1,
    }
    return ExperimentResult(
        "Figure 4: GEMM speedups over SIMT", rows, paper, measured,
        notes="speedup saturates above 8K^3, as in the paper",
    )


# ----------------------------------------------------------------------
# Figure 5
# ----------------------------------------------------------------------
def fig5_energy_and_peak(size: int = 8192) -> ExperimentResult:
    """Relative energy vs the FP32-MXU references + % of theoretical peak."""
    gpu = a100_emulation()
    model = EnergyModel()
    p = GemmProblem(size, size, size)
    pc = GemmProblem(size, size, size, complex=True)

    def energy(kernels, name, problem):
        k = kernels[name]
        total = 0.0
        for spec in k.build(problem, gpu):
            t = estimate_time(spec, gpu)
            mode = k.energy_mode_override if spec.work.tc_macs else None
            total += estimate_energy(spec, gpu, model, t, tc_mode_override=mode).total_j
        return total

    e_ref_s = energy(SGEMM_KERNELS, "baseline_MXU_sgemm", p)
    e_ref_c = energy(CGEMM_KERNELS, "baseline_MXU_cgemm", pc)
    rows = []
    measured = {}
    for name in ("M3XU_sgemm_pipelined", "M3XU_sgemm", "cutlass_tensorop_sgemm", "EEHC_sgemm_fp32B"):
        rel = energy(SGEMM_KERNELS, name, p) / e_ref_s
        rows.append({"kernel": name, "rel_energy_vs_fp32mxu": rel})
        measured[f"energy.{name}"] = rel
    for name in ("M3XU_cgemm_pipelined", "M3XU_cgemm", "cutlass_tensorop_cgemm"):
        rel = energy(CGEMM_KERNELS, name, pc) / e_ref_c
        rows.append({"kernel": name, "rel_energy_vs_fp32mxu": rel})
        measured[f"energy.{name}"] = rel

    # % of theoretical peak (Fig 5c/d): targets are 25% / 6.25% of FP16 TOPS.
    target_s = gpu.peak_tflops("m3xu_fp32")
    target_c = gpu.peak_tflops("m3xu_fp32c")
    for name in ("M3XU_sgemm_pipelined", "cutlass_tensorop_sgemm", "EEHC_sgemm_fp32B"):
        frac = SGEMM_KERNELS[name].tflops(p, gpu) / target_s
        rows.append({"kernel": name, "pct_of_target": 100 * frac})
        measured[f"peak.{name}"] = 100 * frac
    frac_c = CGEMM_KERNELS["M3XU_cgemm_pipelined"].tflops(pc, gpu) / target_c
    rows.append({"kernel": "M3XU_cgemm_pipelined", "pct_of_target": 100 * frac_c})
    measured["peak.M3XU_cgemm_pipelined"] = 100 * frac_c

    paper = {
        "energy.M3XU_sgemm_pipelined": 0.39,   # "61% lower than FP32-MXU"
        "energy.M3XU_sgemm": 0.29,             # non-pipelined: "71% lower"
        "energy.M3XU_cgemm_pipelined": 0.43,   # "57% lower"
        "energy.M3XU_cgemm": 0.32,             # "68% lower"
        "peak.M3XU_sgemm_pipelined": 94.0,     # ">94% of theoretical"
        "peak.M3XU_cgemm_pipelined": 94.0,
        "peak.cutlass_tensorop_sgemm": 63.0,   # "up to 63% of the target"
        "peak.EEHC_sgemm_fp32B": 63.0,
    }
    return ExperimentResult("Figure 5: energy and % of peak", rows, paper, measured)


# ----------------------------------------------------------------------
# Figures 6-9
# ----------------------------------------------------------------------
def fig6_fft() -> ExperimentResult:
    perf = fft_speedups()
    rows = [
        {"n": r.n, "m3xu_speedup": r.m3xu_speedup, "tcfft_speedup": r.tcfft_speedup}
        for r in perf
    ]
    sp = [r.m3xu_speedup for r in perf]
    tc = [r.tcfft_speedup for r in perf]
    measured = {
        "m3xu_fft_max": float(np.max(sp)),
        "m3xu_fft_avg": float(np.mean(sp)),
        "tcfft_avg": float(np.mean(tc)),
    }
    paper = {"m3xu_fft_max": 1.99, "m3xu_fft_avg": 1.52, "tcfft_avg": 1.0}
    return ExperimentResult("Figure 6: FFT speedup over cuFFT", rows, paper, measured)


def fig7_dnn() -> ExperimentResult:
    data = figure7()
    rows = []
    measured = {}
    speedups = []
    for net, d in data.items():
        base, ours = d["mixed_precision"], d["m3xu"]
        sp = base.total_s / ours.total_s
        speedups.append(sp)
        rows.append(
            {
                "network": net,
                "baseline_ms": base.total_s * 1e3,
                "m3xu_ms": ours.total_s * 1e3,
                "speedup": sp,
                "bwd_fraction": base.backward_fraction,
                "bwd_speedup": base.backward_s / ours.backward_s,
            }
        )
        measured[f"bwd_frac.{net}"] = base.backward_fraction
    measured["dnn_speedup_avg"] = float(np.mean(speedups))
    measured["bwd_speedup_max"] = max(r["bwd_speedup"] for r in rows)
    paper = {
        "dnn_speedup_avg": 1.65,
        "bwd_speedup_max": 3.6,
        "bwd_frac.VGG16": 0.396,
        "bwd_frac.ResNet50": 0.391,
        "bwd_frac.AlexNet": 0.465,
    }
    return ExperimentResult(
        "Figure 7: CNN training latency", rows, paper, measured,
        notes=(
            "backward fractions are calibrated to the paper's profile; the "
            "end-to-end gap traces to memory-bound backward layers our "
            "kernel model keeps at ~1x (see EXPERIMENTS.md)"
        ),
    )


def fig8_mrf() -> ExperimentResult:
    perf = figure8()
    rows = [
        {"atoms": r.n_atoms, "speedup": r.speedup, "cgemm_fraction": r.cgemm_fraction}
        for r in perf
    ]
    measured = {
        "mrf_speedup_max": max(r.speedup for r in perf),
        "cgemm_fraction_large": perf[-1].cgemm_fraction,
    }
    paper = {"mrf_speedup_max": 1.26, "cgemm_fraction_large": 0.22}
    return ExperimentResult(
        "Figure 8: MRF dictionary generation", rows, paper, measured
    )


def fig9_knn() -> ExperimentResult:
    perf = figure9()
    rows = [
        {"points": r.n_points, "dim": r.dim, "speedup": r.speedup} for r in perf
    ]
    measured = {"knn_speedup_max": max(r.speedup for r in perf)}
    paper = {"knn_speedup_max": 1.8}
    return ExperimentResult("Figure 9: kNN speedup heatmap", rows, paper, measured)


# ----------------------------------------------------------------------
# Section V-B numerical claims
# ----------------------------------------------------------------------
def accuracy_claims() -> ExperimentResult:
    sres = {r.name: r for r in sgemm_accuracy_study()}
    cres = {r.name: r for r in cgemm_accuracy_study()}
    rows = [
        {"impl": r.name, "matching_bits": r.matching_bits, "max_rel": r.max_rel_error}
        for r in list(sres.values()) + list(cres.values())
    ]
    measured = {
        "m3xu_bits_minus_fp32_bits": sres["m3xu_fp32"].matching_bits
        - sres["fp32_simt"].matching_bits,
        "m3xu_bits_minus_3xbf16_bits": sres["m3xu_fp32"].matching_bits
        - sres["3xbf16"].matching_bits,
        "m3xu_c_bits_minus_fp32c_bits": cres["m3xu_fp32c"].matching_bits
        - cres["fp32c_simt"].matching_bits,
    }
    paper = {
        "m3xu_bits_minus_fp32_bits": 0.0,       # "no additional error"
        "m3xu_bits_minus_3xbf16_bits": 1.0,     # "one to several bits" lost
        "m3xu_c_bits_minus_fp32c_bits": 0.0,
    }
    return ExperimentResult(
        "Section V-B: numerical exactness", rows, paper, measured,
        notes=">= 0 measured means M3XU is at least as accurate as FP32 SIMT",
    )

"""Benchmark-suite fixtures.

Every ``bench_*`` module regenerates one of the paper's tables/figures:
the benchmark measures the model's runtime, and the reproduced rows plus
the paper-vs-measured comparison are emitted in the terminal summary
(after pytest-benchmark's own table), where pytest never captures them —
so ``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` records
the regenerated artifacts.
"""

from __future__ import annotations

import pytest

_REPORT_BLOCKS: list[str] = []


def bench_print(text: str) -> None:
    """Queue a line for the end-of-run report section."""
    _REPORT_BLOCKS.append(text)


def report_once(result) -> None:
    """Queue an ExperimentResult block (called once per module)."""
    _REPORT_BLOCKS.append("\n" + result.render())


def column_block_width(a, b, workers: int | None = None) -> int:
    """Columns per block when the tiled driver runs this FP32 GEMM on a
    bit-level unit at *workers* (all of N when it stays in process)."""
    from repro.gemm.tiled import TiledGEMM
    from repro.mxu import BitLevelMXU, MXUMode

    gemm = TiledGEMM(BitLevelMXU(), MXUMode.FP32, workers=workers)
    blocks = gemm._column_blocks(a, b)
    return max((hi - lo for lo, hi in blocks), default=b.shape[-1])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORT_BLOCKS:
        return
    terminalreporter.write_sep("=", "regenerated paper tables & figures")
    for block in _REPORT_BLOCKS:
        for line in block.splitlines():
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def gpu():
    from repro.gpusim import a100_emulation

    return a100_emulation()

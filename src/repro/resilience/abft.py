"""Algorithm-based fault tolerance (ABFT) for the emulated GEMM paths.

The classic Huang–Abraham scheme protects ``C = A @ B`` with row/column
checksums: corruption of any single output element perturbs exactly one
row checksum and one column checksum, so an O(n^2) comparison detects
and *localises* silent data corruption that a long multi-step emulated
reduction would otherwise propagate everywhere. This module adapts the
scheme to the functional MXU pipelines, whose results are *rounded* —
checksum equality is therefore tested against a rigorous rounding
tolerance rather than exactly.

How the guard works, per GEMM:

1. The guarded result is computed through the (possibly faulty) MXU
   path as usual.
2. The output is partitioned into ``tile x tile`` blocks. For each
   block, the measured row sums ``sum_j C[i, j]`` are compared against
   reference checksums ``A[i, :] @ (sum_j B[:, j]) + sum_j C0[i, j]``
   evaluated in float64 (one small matmul per tile column — O(MK)
   work, negligible next to the emulated GEMM), and likewise for
   column sums. The checksum datapath is independent of the MXU model,
   playing the role of ABFT's checksum unit.
3. The comparison tolerance is the sum over the block of per-element
   rounding radii ``eps[i, j] = safety * u * (K * rowmax|A|_i *
   colmax|B|_j + |C0[i, j]|)`` with ``u`` the unit roundoff of the
   mode (2^-23 for FP32 outputs). A fault whose effect on any element
   exceeds twice the block tolerance *provably* trips a row or column
   residual; smaller upsets are below the model's legitimate rounding
   noise and are classified as masked.
4. Flagged blocks are recomputed through the same MXU path (restricted
   to the block's rows and columns — bit-identical element-wise, since
   every output element's reduction is independent) and re-verified,
   up to ``max_rounds`` times. A transient upset therefore heals
   transparently; a persistent one raises
   :class:`AbftUncorrectedError` instead of returning corrupt data.

Enable globally with ``REPRO_ABFT=1`` or per-driver with
``TiledGEMM(..., abft=True)`` (``mxu_sgemm(..., abft=True)``). The driver
guards a stack of GEMMs matrix by matrix, each against its own
checksums.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "ABFT_ENV",
    "resolve_abft",
    "AbftConfig",
    "Detection",
    "AbftReport",
    "AbftUncorrectedError",
    "element_tolerance",
    "sdc_threshold",
    "guarded_gemm",
]

#: Environment switch: ``REPRO_ABFT=1`` guards every TiledGEMM run.
ABFT_ENV = "REPRO_ABFT"


def resolve_abft(flag: bool | None = None) -> bool:
    """Whether ABFT guarding is on: explicit *flag* wins, else the
    ``REPRO_ABFT`` environment gate (default off)."""
    if flag is not None:
        return bool(flag)
    return os.environ.get(ABFT_ENV, "").strip().lower() in ("1", "true", "on")


@dataclass(frozen=True)
class AbftConfig:
    """Guard parameters.

    Parameters
    ----------
    tile:
        Output-block edge for checksum localisation. Smaller tiles
        localise more precisely (and recompute less on detection) at
        slightly higher checksum cost.
    safety:
        Inflation applied over the rigorous per-element rounding radius.
        Raising it trades detection sensitivity for zero false alarms.
    max_rounds:
        Recompute-and-reverify rounds before a persistent corruption is
        escalated as :class:`AbftUncorrectedError`.
    """

    tile: int = 32
    safety: float = 8.0
    max_rounds: int = 3

    def __post_init__(self) -> None:
        if self.tile < 1:
            raise ValueError("tile must be >= 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


@dataclass(frozen=True)
class Detection:
    """One flagged output block: where, and which checksums tripped."""

    tile: tuple[int, int]  # (tile-row, tile-col) coordinates
    rows: tuple[int, ...]  # absolute output rows with tripped row checksums
    cols: tuple[int, ...]  # absolute output cols with tripped col checksums
    worst_residual: float  # largest |measured - reference| in the block


@dataclass
class AbftReport:
    """What the guard saw while protecting one GEMM (or one stack: counts
    summed over its matrices, detections in matrix order)."""

    shape: tuple[int, ...]
    tile: int
    checks: int = 0
    detections: list[Detection] = field(default_factory=list)
    recompute_rounds: int = 0
    recomputed_tiles: int = 0

    @property
    def detected(self) -> bool:
        return bool(self.detections)


class AbftUncorrectedError(RuntimeError):
    """Corruption persisted through every recompute round — the fault is
    not transient, and the result cannot be trusted."""

    def __init__(self, report: AbftReport):
        self.report = report
        tiles = sorted({d.tile for d in report.detections})
        super().__init__(
            f"ABFT: corruption persisted after {report.recompute_rounds} "
            f"recompute round(s) in output tiles {tiles}"
        )


# ----------------------------------------------------------------------
# Tolerances
# ----------------------------------------------------------------------
def element_tolerance(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    roundoff: float,
    safety: float,
) -> np.ndarray:
    """Per-element rounding radius of the emulated ``A @ B + C``.

    ``|exact[i, j]| <= K * rowmax|A|_i * colmax|B|_j + |C[i, j]|`` bounds
    the magnitude every rounding error is relative to; multiplying by the
    mode's unit roundoff and the safety factor yields a radius that the
    fault-free emulated result provably stays inside.
    """
    k = a.shape[-1]
    arow = np.abs(a).max(axis=-1)  # (M,)
    bcol = np.abs(b).max(axis=-2)  # (N,)
    scale = k * arow[:, None] * bcol[None, :] + np.abs(c)
    return safety * roundoff * scale


def _tile_starts(n: int, tile: int) -> np.ndarray:
    return np.arange(0, n, tile)


def _block_tolerances(
    eps: np.ndarray, tile: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row/col checksum tolerances per block: ``tol_rows[i, tj]`` bounds
    the legitimate residual of row *i*'s checksum within tile column
    *tj*, and ``tol_cols[ti, j]`` the transpose counterpart."""
    row_starts = _tile_starts(eps.shape[0], tile)
    col_starts = _tile_starts(eps.shape[1], tile)
    tol_rows = np.add.reduceat(eps, col_starts, axis=1)  # (M, nTj)
    tol_cols = np.add.reduceat(eps, row_starts, axis=0)  # (nTi, N)
    return row_starts, col_starts, tol_rows, tol_cols


def sdc_threshold(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    roundoff: float,
    config: AbftConfig | None = None,
) -> np.ndarray:
    """Per-element silent-data-corruption threshold under this guard.

    An element whose error exceeds ``2 * (tol_row + tol_col)`` of its
    block *cannot* escape detection: the checksum residual it induces
    (at least the error minus the block's legitimate rounding, itself
    bounded by the block tolerance) exceeds the detection threshold on
    its row or its column. The campaign engine classifies outcomes with
    exactly this bound, which is what makes "0 undetected SDC" a
    theorem the randomized campaign then checks empirically.
    """
    cfg = config or AbftConfig()
    eps = element_tolerance(a, b, c, roundoff, cfg.safety)
    row_starts, col_starts, tol_rows, tol_cols = _block_tolerances(eps, cfg.tile)
    col_widths = np.diff(np.append(col_starts, eps.shape[1]))
    row_widths = np.diff(np.append(row_starts, eps.shape[0]))
    per_elem_row = np.repeat(tol_rows, col_widths, axis=1)  # (M, N)
    per_elem_col = np.repeat(tol_cols, row_widths, axis=0)  # (M, N)
    return 2.0 * (per_elem_row + per_elem_col)


# ----------------------------------------------------------------------
# Verification + recovery
# ----------------------------------------------------------------------
def _verify(
    out: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    eps: np.ndarray,
    tile: int,
) -> list[Detection]:
    """Checksum every ``tile x tile`` output block; return the flagged ones."""
    row_starts, col_starts, tol_rows, tol_cols = _block_tolerances(eps, tile)

    # NaN/Inf corruption in ``out`` is expected input here, not a numeric
    # accident — keep numpy's invalid/overflow warnings out of the logs.
    with np.errstate(invalid="ignore", over="ignore"):
        # Row checksums, all tile columns at once: one (M, K) @ (K, nTj)
        # matmul.
        b_colsums = np.add.reduceat(b, col_starts, axis=1)
        want_rows = a @ b_colsums + np.add.reduceat(c, col_starts, axis=1)
        got_rows = np.add.reduceat(out, col_starts, axis=1)
        # ``~(residual <= tol)`` (not ``residual > tol``) so NaN corruption
        # — where every comparison is False — is flagged, never waved
        # through.
        row_bad = ~(np.abs(got_rows - want_rows) <= tol_rows)  # (M, nTj)

        # Column checksums: (nTi, K) @ (K, N).
        a_rowsums = np.add.reduceat(a, row_starts, axis=0)
        want_cols = a_rowsums @ b + np.add.reduceat(c, row_starts, axis=0)
        got_cols = np.add.reduceat(out, row_starts, axis=0)
        col_bad = ~(np.abs(got_cols - want_cols) <= tol_cols)  # (nTi, N)

    detections: list[Detection] = []
    m, n = out.shape
    for ti, r0 in enumerate(row_starts):
        r1 = min(r0 + tile, m)
        for tj, c0 in enumerate(col_starts):
            c1 = min(c0 + tile, n)
            rows = np.nonzero(row_bad[r0:r1, tj])[0] + r0
            cols = np.nonzero(col_bad[ti, c0:c1])[0] + c0
            if rows.size == 0 and cols.size == 0:
                continue
            residuals = [
                np.abs(got_rows[rows, tj] - want_rows[rows, tj]),
                np.abs(got_cols[ti, cols] - want_cols[ti, cols]),
            ]
            worst = float(max((r.max() for r in residuals if r.size), default=0.0))
            detections.append(
                Detection(
                    tile=(ti, tj),
                    rows=tuple(int(r) for r in rows),
                    cols=tuple(int(col) for col in cols),
                    worst_residual=worst,
                )
            )
    return detections


def guarded_gemm(
    compute: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    *,
    roundoff: float,
    config: AbftConfig | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, AbftReport]:
    """Run ``compute(A, B, C)`` under checksum guard with tile recompute.

    Parameters
    ----------
    compute:
        The GEMM kernel. Must also accept row/column-restricted operands
        — ``compute(a[r0:r1], b[:, c0:c1], c[r0:r1, c0:c1])`` — and be
        element-wise deterministic on them (true of every per-element
        reduction in this package), so recomputed tiles are bit-identical
        to a clean full run.
    a, b, c:
        Operands *as the kernel consumes them* (already quantised to the
        mode's register formats), with ``c`` broadcast to the output
        shape. The checksum reference is evaluated on exactly these
        values in float64.
    roundoff:
        Unit roundoff of the mode (``2**-23`` for FP32 results).
    out:
        Optional precomputed ``compute(a, b, c)`` result, verified
        instead of computed: one matrix of a stack the tiled driver ran
        in one call, or a cached result the server re-verifies. It is
        never written to; a recomputed result is a copy.

    Returns
    -------
    (result, report):
        The verified (possibly partially recomputed) result, and the
        guard's :class:`AbftReport`.
    """
    cfg = config or AbftConfig()
    c = np.broadcast_to(c, (a.shape[0], b.shape[1]))
    if out is None:
        out = compute(a, b, c)
    eps = element_tolerance(a, b, c, roundoff, cfg.safety)
    report = AbftReport(shape=(a.shape[0], b.shape[1]), tile=cfg.tile)
    copied = False
    for round_idx in range(cfg.max_rounds + 1):
        flagged = _verify(out, a, b, c, eps, cfg.tile)
        report.checks += 1
        if not flagged:
            return out, report
        report.detections.extend(flagged)
        if round_idx == cfg.max_rounds:
            raise AbftUncorrectedError(report)
        if not copied:  # never mutate the kernel's own return buffer
            out = np.array(out, copy=True)
            copied = True
        m, n = out.shape
        for det in flagged:
            r0 = det.tile[0] * cfg.tile
            c0 = det.tile[1] * cfg.tile
            r1, c1 = min(r0 + cfg.tile, m), min(c0 + cfg.tile, n)
            out[r0:r1, c0:c1] = compute(a[r0:r1], b[:, c0:c1], c[r0:r1, c0:c1])
        report.recomputed_tiles += len(flagged)
        report.recompute_rounds += 1
    raise AssertionError("unreachable")  # pragma: no cover

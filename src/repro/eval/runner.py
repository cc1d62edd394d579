"""Run every experiment and render the full paper-vs-measured report.

Experiments are independent of each other, so :func:`run_all` can fan
them out across worker processes (``workers=N`` or ``REPRO_WORKERS``);
results are reassembled in experiment order and identical for every
worker count.

Results are also content-addressed through :mod:`repro.cache`: a second
``run_all`` (or report render) in the same process — or across
processes when ``REPRO_CACHE_DIR`` is set — replays cached experiment
results instead of recomputing them. ``use_cache=False`` (CLI:
``--no-cache``; env: ``REPRO_CACHE=0``) forces the cold path, which is
bit-identical by construction.

On top of the cache sits the crash-tolerance layer
(:mod:`repro.resilience.checkpoint`): with ``REPRO_CHECKPOINT_DIR`` set
(or an explicit ``checkpoint=`` target), every completed experiment is
appended to a JSONL journal *as it finishes* — not when the sweep ends —
so a ``run_all`` killed mid-flight loses only the in-flight work.
``resume=True`` (CLI: ``--resume``) replays the journal's surviving
entries (validated by per-record checksum and keyed by the same
code-salted content address the cache uses, so stale journals are
ignored) and computes only what is missing; the resumed sweep's results
are bit-identical to an uninterrupted run. Per-task ``retries`` /
``timeout`` compose via :func:`repro.parallel.parallel_map`.
"""

from __future__ import annotations

from typing import Callable

from ..cache import CODE_SALT, DEFAULT_CACHE, cache_enabled, stable_digest
from ..parallel import parallel_map
from ..resilience.checkpoint import CheckpointJournal
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

__all__ = ["ALL_EXPERIMENTS", "register_experiment", "run_all", "render_report"]

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


def register_experiment(name: str, fn: Callable[[], ExperimentResult]) -> None:
    """Register an additional experiment (used by tests and extensions).

    The function must be picklable (module-level) for parallel runs; the
    experiment's cache/journal key folds the function in, so replacing an
    implementation invalidates previously journaled results for *name*.
    """
    ALL_EXPERIMENTS[name] = fn


def _run_experiment(name: str) -> ExperimentResult:
    """Module-level (picklable) single-experiment entry point."""
    return ALL_EXPERIMENTS[name]()


def _experiment_key(name: str) -> str:
    """Content address of one experiment: its name, the function that
    computes it, and the cache code salt."""
    return stable_digest(CODE_SALT, "experiment", name, ALL_EXPERIMENTS[name])


_MISS = object()


def run_all(
    only: list[str] | None = None,
    workers: int | None = None,
    use_cache: bool | None = None,
    checkpoint: "str | CheckpointJournal | None" = None,
    resume: bool = False,
    retries: int | None = None,
    timeout: float | None = None,
) -> dict[str, ExperimentResult]:
    """Execute the selected (default: all) experiments.

    Cached results are replayed where available (same keys, same code
    salt); only the misses are computed — fanned out across *workers*
    processes when requested — then stored for the next sweep.

    *checkpoint* (or ``REPRO_CHECKPOINT_DIR``) names a journal that
    records every completed experiment durably as it finishes;
    ``resume=True`` replays its validated entries before computing the
    remainder, so an interrupted sweep continues instead of restarting.
    *retries*/*timeout* harden each experiment task (see
    :func:`repro.parallel.parallel_map`).
    """
    names = only or list(ALL_EXPERIMENTS)
    caching = cache_enabled() if use_cache is None else use_cache
    journal = CheckpointJournal.resolve(checkpoint)
    results: dict[str, ExperimentResult] = {}

    if resume and journal is not None:
        for name, (key, value) in journal.load().items():
            # A journal entry only counts when its content address still
            # matches: same experiment, same code, same salt.
            if name in names and key == _experiment_key(name):
                results[name] = value

    missing: list[str] = []
    for name in names:
        if name in results:
            continue
        hit = DEFAULT_CACHE.get(_experiment_key(name), _MISS) if caching else _MISS
        if hit is _MISS:
            missing.append(name)
        else:
            results[name] = hit
            if journal is not None:
                journal.append(name, _experiment_key(name), hit)

    if missing:

        def record(index: int, result: ExperimentResult) -> None:
            name = missing[index]
            if caching:
                DEFAULT_CACHE.put(_experiment_key(name), result)
            if journal is not None:
                journal.append(name, _experiment_key(name), result)

        computed = parallel_map(
            _run_experiment,
            missing,
            workers=workers,
            retries=retries,
            timeout=timeout,
            on_result=record,
        )
        for name, result in zip(missing, computed):
            results[name] = result
    return {name: results[name] for name in names}


def render_report(results: dict[str, ExperimentResult] | None = None) -> str:
    """The full text report (what EXPERIMENTS.md summarises)."""
    if results is None:  # an explicit empty selection renders empty
        results = run_all()
    return "\n\n".join(r.render() for r in results.values())


if __name__ == "__main__":  # pragma: no cover
    print(render_report())

"""Resilience subsystem: fault-tolerant execution and ABFT.

Three layers, one theme — a long numerical campaign must survive its
environment:

- :mod:`repro.resilience.failures` — structured task failures and the
  retry/timeout policy consumed by :func:`repro.parallel.parallel_map`.
- :mod:`repro.resilience.abft` — Huang–Abraham row/column checksum
  guards adapted to rounded emulated arithmetic, wrapped around the
  tiled GEMM drivers (``REPRO_ABFT=1`` / ``abft=True``).
- :mod:`repro.resilience.campaign` — randomized datapath
  fault-injection campaigns that demonstrate inject → detect → recover
  end to end (imported lazily: it drives the GEMM stack, which itself
  imports the ABFT guard from here).
"""

from __future__ import annotations

from .abft import (
    ABFT_ENV,
    AbftConfig,
    AbftReport,
    AbftUncorrectedError,
    Detection,
    element_tolerance,
    guarded_gemm,
    resolve_abft,
    sdc_threshold,
)
from .failures import ParallelTaskError, RetryPolicy, TaskFailure, resolve_policy

__all__ = [
    "ABFT_ENV",
    "AbftConfig",
    "AbftReport",
    "AbftUncorrectedError",
    "Detection",
    "element_tolerance",
    "guarded_gemm",
    "resolve_abft",
    "sdc_threshold",
    "ParallelTaskError",
    "RetryPolicy",
    "TaskFailure",
    "resolve_policy",
    # lazy (see __getattr__): the campaign engine pulls in the GEMM stack
    "CampaignConfig",
    "CampaignResult",
    "Outcome",
    "TrialRecord",
    "run_campaign",
]

_CAMPAIGN_NAMES = frozenset(
    {"CampaignConfig", "CampaignResult", "Outcome", "TrialRecord", "run_campaign"}
)


def __getattr__(name: str) -> object:
    if name in _CAMPAIGN_NAMES:
        from . import campaign

        return getattr(campaign, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

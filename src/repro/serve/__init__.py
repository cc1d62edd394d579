"""GEMM-as-a-service: fault-aware async serving for the emulated datapath.

The serving layer turns the repo's bit-exact GEMM/FFT/MRF stack into a
long-running service with explicit robustness semantics: admission
control and backpressure (:mod:`.admission`), request coalescing into
stacked GEMMs (:mod:`.batcher`), a degradation ladder and a
pool circuit breaker (:mod:`.degrade`), per-request deadline propagation
into the worker pool, and one ``run_table.csv`` row per request
(:mod:`.records`). See :mod:`.server` for the protocol and
:mod:`.client` for clients plus the fault-injecting load generator.
"""

from .admission import AdmissionController, TokenBucket
from .batcher import Batcher, BatchKey, PendingJob
from .client import (
    AsyncConnection,
    LoadgenConfig,
    ServeClient,
    run_loadgen,
    run_loadgen_async,
)
from .degrade import CircuitBreaker, DegradeLevel, DegradePolicy
from .records import RUN_TABLE_COLUMNS, RequestRecord, RunTable, percentile
from .server import GemmServer, ServeConfig, serve_forever

__all__ = [
    "AdmissionController",
    "TokenBucket",
    "Batcher",
    "BatchKey",
    "PendingJob",
    "AsyncConnection",
    "LoadgenConfig",
    "ServeClient",
    "run_loadgen",
    "run_loadgen_async",
    "CircuitBreaker",
    "DegradeLevel",
    "DegradePolicy",
    "RUN_TABLE_COLUMNS",
    "RequestRecord",
    "RunTable",
    "percentile",
    "GemmServer",
    "ServeConfig",
    "serve_forever",
]

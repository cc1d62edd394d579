"""GEMM-as-a-service: the fault-aware asyncio serving front end.

``GemmServer`` accepts GEMM/FFT/MRF jobs over a line-delimited JSON
protocol (one request object per line, one response object per line,
matched by ``id``; responses may arrive out of order), and executes them
on the repo's emulation stack with the full robustness kit engaged:

* **Admission control** (:mod:`repro.serve.admission`): token-bucket
  rate limiting plus queue-depth backpressure. Overload produces
  structured ``REJECTED`` responses (``overload`` / ``queue_full``)
  instead of hangs or unbounded queues.
* **Group commit** (:mod:`repro.serve.batcher`): every job goes through
  one queue. A job that finds the executor idle runs at once; jobs that
  arrive while it is busy leave together, and shape-compatible small
  GEMMs among them are stacked into one GEMM with a leading batch axis
  (run by :class:`repro.gemm.tiled.TiledGEMM` like any other GEMM) —
  bit-identical per matrix to a lone request. Every group, coalesced or
  alone, reaches the pool through one ``parallel_map`` dispatch.
* **Content-addressed cache** (:mod:`repro.cache`): repeat payloads are
  served from an in-memory LRU that lasts as long as the server; at full
  fidelity the cached result is ABFT re-verified before it leaves the
  building.
* **Deadlines**: each request's remaining budget propagates into
  :func:`repro.parallel.parallel_map` timeouts, so a hung worker is
  killed and the pool respawned instead of the request hanging.
* **Circuit breaker + degradation ladder**
  (:mod:`repro.serve.degrade`): consecutive broken-pool/timeout events
  (observed through the health counters in
  :func:`repro.parallel.pool_info`) trip the breaker; under pressure the
  server sheds assurance level by level down to tagged FP32-reference
  results, and :class:`~repro.resilience.abft.AbftUncorrectedError`
  always fails the one request it hit, never the server.

Every request leaves one ``run_table.csv``-shaped
:class:`~repro.serve.records.RequestRecord` behind for analysis.

Request schema (all arrays as nested JSON lists; complex values as
``{"re": ..., "im": ...}``)::

    {"id": "r1", "op": "gemm", "a": [[...]], "b": [[...]],
     "deadline_ms": 500, "fault": {"kind": "stall", "ms": 2000}}

Ops: ``gemm`` (FP32 ``A @ B``), ``cgemm`` (FP32C), ``fft`` (1-D GEMM-FFT
of ``x``), ``mrf`` (dictionary-match correlation scores), ``ping``,
``stats``, ``shutdown`` (honoured only with ``allow_shutdown=True``).
``fault`` is honoured only when the server runs with
``fault_injection=True`` (the load-test configuration) and exercises the
resilience machinery: ``kill_worker`` SIGKILLs the executing pool
worker, ``stall`` sleeps past the deadline inside the worker,
``poison`` runs the GEMM on a transient-fault datapath behind the ABFT
guard (``seed``, default 0, picks the fault). A ``deadline_ms`` that
is not a finite number, a ``fault`` that is not an object, a fault
``ms`` that is not a finite number >= 0 or a ``seed`` that is not an
integer >= 0 is answered ``ERROR(bad_request)`` like any other
malformed request; a valid ``deadline_ms`` is clamped to
[1, ``max_deadline_ms``].
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import pathlib
import tempfile
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

import numpy as np

from .. import parallel
from ..cache import ResultCache, stable_digest
from ..gemm.tiled import TiledGEMM
from ..mxu.m3xu import M3XU
from ..mxu.modes import MXUMode
from ..resilience.abft import AbftUncorrectedError, guarded_gemm, resolve_abft
from ..resilience.failures import TaskFailure
from ..types.formats import FP32
from ..types.quantize import quantize, quantize_complex
from .admission import AdmissionController
from .batcher import Batcher, BatchKey, PendingJob
from .degrade import CircuitBreaker, DegradeLevel, DegradePolicy
from .records import RequestRecord, RunTable

__all__ = ["ServeConfig", "GemmServer", "serve_forever"]

#: Deployment settings read by :meth:`ServeConfig.from_env` (CLI flags
#: and explicit config win over these).
PORT_ENV = "REPRO_SERVE_PORT"
HOST_ENV = "REPRO_SERVE_HOST"

#: The port :meth:`ServeConfig.from_env` picks when ``REPRO_SERVE_PORT``
#: is unset.
DEFAULT_SERVE_PORT = 8135

#: Upper bound on any injected stall, so even an in-process stall (pool
#: circuit open) keeps the executor thread's occupancy bounded.
MAX_STALL_MS = 30_000.0

#: Stream-reader line limit. Sized to fit a ``max_elements`` complex
#: operand pair in JSON with headroom; an over-limit line is a protocol
#: violation and closes the connection (it cannot be resynchronized).
STREAM_LIMIT = 128 * 1024 * 1024

_COMPUTE_OPS = ("gemm", "cgemm", "fft", "mrf")


@dataclass
class ServeConfig:
    """Everything one ``GemmServer`` needs; :meth:`from_env` reads the
    host and port from the ``REPRO_SERVE_*`` environment."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: ephemeral — read ``server.port`` after start()
    #: Admitted-but-unfinished request ceiling (queue-depth backpressure).
    max_queue: int = 64
    #: Default per-request deadline; a request may lower (never raise
    #: above ``max_deadline_ms``) it with its own ``deadline_ms``.
    deadline_ms: float = 10_000.0
    max_deadline_ms: float = 60_000.0
    #: Token-bucket admission rate in requests/second (0 disables).
    rate: float = 0.0
    burst: float | None = None
    #: Degradation policy mode: ``auto`` | ``off`` | ``"0"``-``"3"``.
    degrade: str = "auto"
    #: Pool slices per coalesced group (None: ``REPRO_WORKERS``).
    workers: int | None = None
    #: Retries for pool-routed work (None: no retry).
    retries: int | None = 1
    #: ABFT guard for served results (None: ``REPRO_ABFT`` gate).
    abft: bool | None = None
    #: Circuit breaker: consecutive pool failures to trip, and cooldown
    #: seconds before a half-open probe.
    breaker_threshold: int = 3
    breaker_cooldown: float = 1.0
    #: Honour per-request ``fault`` directives (load tests only).
    fault_injection: bool = False
    #: Honour the ``shutdown`` op from clients.
    allow_shutdown: bool = False
    #: Result-cache entries kept in memory.
    cache_size: int = 512
    #: Reject operands above this element count (robustness: a huge
    #: payload must shed, not OOM the server).
    max_elements: int = 1 << 20

    @classmethod
    def from_env(cls, **overrides: Any) -> "ServeConfig":
        """The ``repro serve`` config: host and port from the environment
        (port :data:`DEFAULT_SERVE_PORT` when unset, ``0`` for an
        OS-assigned one), then every override that is not ``None``.
        A malformed ``REPRO_SERVE_PORT`` raises :class:`ValueError`."""
        raw_port = os.environ.get(PORT_ENV, "").strip()
        try:
            port = int(raw_port) if raw_port else DEFAULT_SERVE_PORT
        except ValueError:
            raise ValueError(f"{PORT_ENV}={raw_port!r} is not a port number") from None
        cfg = cls(host=os.environ.get(HOST_ENV, "").strip() or cls.host, port=port)
        for name, value in overrides.items():
            if value is not None:
                setattr(cfg, name, value)
        return cfg


# ----------------------------------------------------------------------
# Wire encoding
# ----------------------------------------------------------------------
def encode_array(x: np.ndarray) -> Any:
    """ndarray -> JSON-serializable nested lists (complex split re/im)."""
    if np.iscomplexobj(x):
        return {"re": x.real.tolist(), "im": x.imag.tolist()}
    return x.tolist()


def decode_array(obj: Any, max_elements: int) -> np.ndarray:
    """Inverse of :func:`encode_array`, with size/type validation."""
    if obj is None:
        raise ValueError("missing operand")
    try:
        if isinstance(obj, dict):
            if set(obj) != {"re", "im"}:
                raise ValueError("complex arrays must be {'re': ..., 'im': ...}")
            re = np.asarray(obj["re"], dtype=np.float64)
            im = np.asarray(obj["im"], dtype=np.float64)
            if re.shape != im.shape:
                raise ValueError("re/im shape mismatch")
            x: np.ndarray = re + 1j * im
        else:
            x = np.asarray(obj, dtype=np.float64)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"non-numeric operand: {exc}") from exc
    if x.size == 0:
        raise ValueError("empty operand")
    if x.size > max_elements:
        raise ValueError(f"operand of {x.size} elements exceeds the "
                         f"{max_elements}-element service limit")
    if not np.all(np.isfinite(np.abs(x))):
        raise ValueError("operands must be finite")
    return x


def _finite_number(x: Any) -> bool:
    """A finite JSON number: an int (not a bool, of any size) or a finite
    float."""
    if isinstance(x, bool):
        return False
    return isinstance(x, int) or (isinstance(x, float) and math.isfinite(x))


# ----------------------------------------------------------------------
# Worker-side execution (module-level: must pickle into pool workers)
# ----------------------------------------------------------------------
def _build_unit(fault: dict[str, Any] | None) -> M3XU | Any:
    if fault and fault.get("kind") == "poison":
        from ..mxu.faults import FaultSpec, FaultStage, FaultyM3XU

        spec = FaultSpec.random(
            np.random.default_rng(int(fault.get("seed", 0))),
            FaultStage.ACCUMULATOR,
        )
        return FaultyM3XU(spec)
    return M3XU()


def _apply_preexec_fault(fault: dict[str, Any] | None) -> None:
    if not fault:
        return
    kind = fault.get("kind")
    if kind == "stall":
        time.sleep(min(float(fault.get("ms", 1000.0)), MAX_STALL_MS) / 1e3)
    elif kind == "kill_worker":
        marker = pathlib.Path(fault["marker"])
        if not marker.exists():
            # First attempt: die like a segfaulting worker. The marker
            # file makes the retry attempt succeed, so the request
            # demonstrates recovery, not a permanent black hole.
            try:
                marker.write_text("1")
            except OSError:
                pass
            os._exit(23)


def _exec_job(payload: dict[str, Any]) -> np.ndarray:
    """Execute one slice of a group (possibly fault-injected): a stack of
    gemm/cgemm operands, or one fft/mrf job. Runs in a pool worker for
    deadline-enforced requests, in-process for degraded ones."""
    fault = payload.get("fault")
    _apply_preexec_fault(fault)
    unit = _build_unit(fault)
    poisoned = bool(fault and fault.get("kind") == "poison")
    # A poisoned request always runs guarded: the ABFT guard correcting
    # (or refusing to return) the corrupted result is the contract.
    abft = True if poisoned else bool(payload.get("abft", False))
    op = payload["op"]
    # workers=1: the server already cut the group into one slice per
    # worker, and an in-process (SERIAL) slice must never reach the pool.
    mode = MXUMode.FP32 if op == "gemm" else MXUMode.FP32C
    gemm = TiledGEMM(unit, mode, abft=abft, workers=1)
    if op in ("gemm", "cgemm"):
        return gemm.run(payload["a"], payload["b"])
    if op == "fft":
        from ..apps.fft import gemm_fft

        return gemm_fft(payload["x"], cgemm=gemm.run)
    if op == "mrf":
        return np.abs(gemm.run(np.conj(payload["a"]), payload["b"].T))
    raise ValueError(f"unknown op {op!r}")


def _reference_result(payload: dict[str, Any]) -> np.ndarray:
    """The FP32 numpy reference — the degradation ladder's last rung."""
    op = payload["op"]
    if op == "gemm":
        a32 = payload["a"].astype(np.float32)
        b32 = payload["b"].astype(np.float32)
        return np.asarray(a32 @ b32, dtype=np.float64)
    if op == "cgemm":
        a64 = payload["a"].astype(np.complex64)
        b64 = payload["b"].astype(np.complex64)
        return np.asarray(a64 @ b64, dtype=np.complex128)
    if op == "fft":
        return np.asarray(np.fft.fft(payload["x"]), dtype=np.complex128)
    if op == "mrf":
        return np.abs(np.conj(payload["a"]) @ payload["b"].T)
    raise ValueError(f"unknown op {op!r}")


# ----------------------------------------------------------------------
# The server
# ----------------------------------------------------------------------
@dataclass
class _JobOutcome:
    """What a compute path hands back through a job's future."""

    value: np.ndarray
    cached: bool = False
    batched: bool = False
    retries: int = 0


class GemmServer:
    """The asyncio GEMM service. ``await start()``; ``await stop()``."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        cfg = self.config
        self.admission = AdmissionController(
            rate=cfg.rate or None, burst=cfg.burst, max_queue=cfg.max_queue
        )
        self.breaker = CircuitBreaker(
            threshold=cfg.breaker_threshold, cooldown=cfg.breaker_cooldown
        )
        self.policy = DegradePolicy(mode=cfg.degrade)
        self.cache = ResultCache(maxsize=cfg.cache_size)
        self.run_table = RunTable()
        self.batcher = Batcher(self._flush_batch)
        self.degrade_counts = {int(level): 0 for level in DegradeLevel}
        self._server: asyncio.base_events.Server | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-exec"
        )
        self._closing = False
        self._stopped = asyncio.Event()
        self._request_seq = 0
        self._inflight: set[asyncio.Task[None]] = set()
        self._connections: set[asyncio.StreamWriter] = set()
        self._fault_dir: tempfile.TemporaryDirectory[str] | None = None
        self._stop_task: asyncio.Task[None] | None = None
        self._abft_on = resolve_abft(cfg.abft)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            return self.config.port
        return int(self._server.sockets[0].getsockname()[1])

    async def start(self) -> None:
        if self.config.fault_injection:
            self._fault_dir = tempfile.TemporaryDirectory(prefix="repro-serve-fault-")
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=STREAM_LIMIT,
        )

    async def serve_forever(self) -> None:
        """Run until :meth:`stop` (e.g. via the ``shutdown`` op)."""
        assert self._server is not None, "call start() first"
        await self._stopped.wait()

    async def stop(self, drain: float = 10.0) -> None:
        """Graceful shutdown: stop admitting, drain, release resources.

        Bounded: in-flight work gets *drain* seconds, then the server
        closes regardless — a shutdown can be late, never hung.
        """
        if self._closing:
            self._stopped.set()
            return
        self._closing = True
        try:
            await asyncio.wait_for(self._drain(), timeout=drain)
        except asyncio.TimeoutError:
            for task in list(self._inflight):
                task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._connections):
            try:
                writer.close()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        await asyncio.sleep(0)  # let connection handlers observe EOF
        self._executor.shutdown(wait=False, cancel_futures=True)
        if self._fault_dir is not None:
            self._fault_dir.cleanup()
            self._fault_dir = None
        self._stopped.set()

    async def _drain(self) -> None:
        await self.batcher.drain()
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    # ------------------------------------------------------------------
    # Connection + protocol plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        self._connections.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.IncompleteReadError):
                    break
                except ValueError:
                    # Line beyond the stream limit: the framing cannot be
                    # recovered, so the connection is dropped (the client
                    # sees EOF, never a hang).
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.get_running_loop().create_task(
                    self._handle_line(line, writer, write_lock)
                )
                self._inflight.add(task)
                task.add_done_callback(self._inflight.discard)
        except asyncio.CancelledError:
            pass  # loop teardown mid-read: close the socket quietly
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _handle_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        response = await self._process_line(line)
        payload = (json.dumps(response, separators=(",", ":")) + "\n").encode()
        async with write_lock:
            try:
                writer.write(payload)
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass  # client went away; the record is already written

    async def _process_line(self, line: bytes) -> dict[str, Any]:
        t0 = time.monotonic()
        self._request_seq += 1
        seq = self._request_seq
        fallback_id = f"srv-{seq}"
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
        except (json.JSONDecodeError, UnicodeDecodeError, ValueError) as exc:
            return self._finish_error(
                RequestRecord(request_id=fallback_id, op="?"),
                t0, "bad_request", f"unparseable request: {exc}",
            )
        request_id = str(request.get("id", fallback_id))
        op = str(request.get("op", ""))

        if op == "ping":
            return {"id": request_id, "status": "OK", "result": "pong"}
        if op == "stats":
            return {"id": request_id, "status": "OK", "result": self.stats()}
        if op == "shutdown":
            if not self.config.allow_shutdown:
                return {"id": request_id, "status": "ERROR",
                        "reason": "shutdown_not_allowed"}
            # Keep a strong reference: asyncio holds running tasks only
            # weakly, and the drain must outlive this handler returning.
            self._stop_task = asyncio.get_running_loop().create_task(
                self.stop()
            )
            return {"id": request_id, "status": "OK", "result": "stopping"}

        record = RequestRecord(request_id=request_id, op=op)
        if op not in _COMPUTE_OPS:
            return self._finish_error(record, t0, "bad_request",
                                      f"unknown op {op!r}")
        if self._closing:
            return self._finish_rejected(record, t0, "shutting_down")

        # ---- admission: shed at the door, before decoding operands ----
        reason = self.admission.admit()
        if reason is not None:
            return self._finish_rejected(record, t0, reason)
        try:
            return await self._admitted(request, record, t0, seq)
        finally:
            self.admission.release()

    # ------------------------------------------------------------------
    # Admitted-request pipeline
    # ------------------------------------------------------------------
    async def _admitted(
        self, request: dict[str, Any], record: RequestRecord, t0: float, seq: int
    ) -> dict[str, Any]:
        try:
            payload, deadline_ms = self._parse_payload(request, record)
        except ValueError as exc:
            return self._finish_error(record, t0, "bad_request", str(exc))
        deadline = t0 + deadline_ms / 1e3

        level = self.policy.decide(
            self.admission.pressure(exclude_self=True), self.breaker.state
        )
        self.degrade_counts[int(level)] += 1
        record.degrade_level = int(level)
        record.degraded = level >= DegradeLevel.REFERENCE

        if (
            record.op in ("gemm", "cgemm")
            and payload["fault"] is None
            and level <= DegradeLevel.NO_REVERIFY
        ):
            key = BatchKey(record.op, record.m, record.k, record.n,
                           int(level), self._abft_on)
        else:
            # Fault-injected, fft, mrf and degraded jobs run alone.
            key = BatchKey(record.op, 0, 0, 0, int(level), self._abft_on, seq=seq)
        future: asyncio.Future[Any] = asyncio.get_running_loop().create_future()
        job = PendingJob(key, payload, future, deadline)
        self.batcher.submit(job)

        try:
            result = await self._wait(job, record)
        except asyncio.TimeoutError:
            return self._finish_error(record, t0, "deadline",
                                      "request exceeded its deadline")
        except AbftUncorrectedError:
            return self._finish_error(
                record, t0, "abft_uncorrected",
                "ABFT guard could not repair the result; request failed "
                "rather than returning corrupt data",
            )
        except _JobFailed as exc:
            record.retries = exc.retries
            return self._finish_error(record, t0, exc.reason, exc.detail)
        except Exception as exc:  # repro: allow[RH403] request-level firewall
            return self._finish_error(record, t0, "internal",
                                      f"{type(exc).__name__}: {exc}")
        if isinstance(result, _JobOutcome):
            record.cached = result.cached
            record.batched = result.batched
            record.retries = result.retries
            result = result.value
        return self._finish_ok(record, t0, result)

    @staticmethod
    async def _wait(job: PendingJob, record: RequestRecord) -> Any:
        """The job's result. Whatever the outcome, *record* gets the job's
        queue time (to the start of its group, or to now if it never
        started) and the size of its group."""
        try:
            return await asyncio.wait_for(
                job.future, timeout=max(job.deadline - time.monotonic(), 0.0) + 5.0
            )
        finally:
            end = time.monotonic() if job.started is None else job.started
            record.queue_ms = (end - job.enqueued) * 1e3
            record.batch = job.batch

    def _parse_payload(
        self, request: dict[str, Any], record: RequestRecord
    ) -> tuple[dict[str, Any], float]:
        """The worker payload and the clamped deadline in ms; a malformed
        request raises :class:`ValueError`."""
        cfg = self.config
        op = record.op
        deadline_ms = request.get("deadline_ms")
        if deadline_ms is None:
            deadline_ms = cfg.deadline_ms
        elif not _finite_number(deadline_ms):
            raise ValueError(f"deadline_ms must be a finite number, not {deadline_ms!r}")
        deadline_ms = float(min(max(deadline_ms, 1.0), cfg.max_deadline_ms))
        fault = request.get("fault") if cfg.fault_injection else None
        if fault is not None:
            if not isinstance(fault, dict):
                raise ValueError(f"fault must be an object, not {fault!r}")
            fault = dict(fault)
            if fault.get("kind") not in ("stall", "kill_worker", "poison"):
                raise ValueError(f"unknown fault kind {fault.get('kind')!r}")
            if "ms" in fault:
                ms = fault["ms"]
                if not (_finite_number(ms) and ms >= 0):
                    raise ValueError(f"fault ms must be a finite number >= 0, not {ms!r}")
                # Clamped here: the worker's float() of a JSON integer
                # beyond float64 would raise.
                fault["ms"] = float(min(ms, MAX_STALL_MS))
            seed = fault.get("seed", 0)
            if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
                raise ValueError(f"fault seed must be an integer >= 0, not {seed!r}")
            if fault.get("kind") == "kill_worker":
                assert self._fault_dir is not None
                fault["marker"] = os.path.join(
                    self._fault_dir.name, f"kill-{record.request_id}-{uuid.uuid4().hex}"
                )
        payload: dict[str, Any] = {"op": op, "fault": fault, "abft": self._abft_on}
        if op in ("gemm", "cgemm"):
            a = decode_array(request.get("a"), cfg.max_elements)
            b = decode_array(request.get("b"), cfg.max_elements)
            if a.ndim != 2 or b.ndim != 2:
                raise ValueError("gemm operands must be 2-D matrices")
            if a.shape[1] != b.shape[0]:
                raise ValueError(f"K mismatch: A{a.shape} @ B{b.shape}")
            if op == "gemm":
                if np.iscomplexobj(a) or np.iscomplexobj(b):
                    raise ValueError("op 'gemm' takes real operands; use 'cgemm'")
                a, b = quantize(a.real, FP32), quantize(b.real, FP32)
            else:
                a = quantize_complex(a.astype(np.complex128), FP32)
                b = quantize_complex(b.astype(np.complex128), FP32)
            payload["a"], payload["b"] = a, b
            record.m, record.k = a.shape
            record.n = b.shape[1]
        elif op == "fft":
            x = decode_array(request.get("x"), cfg.max_elements)
            x = np.asarray(x, dtype=np.complex128)
            n = x.shape[-1]
            if n < 2 or (n & (n - 1)) != 0:
                raise ValueError("fft length must be a power of two >= 2")
            payload["x"] = x
            record.m, record.n, record.k = x.size // n, n, n
        elif op == "mrf":
            a = decode_array(request.get("a"), cfg.max_elements)
            b = decode_array(request.get("b"), cfg.max_elements)
            if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
                raise ValueError(
                    "mrf expects dictionary (A, T) and voxels (V, T) operands"
                )
            payload["a"] = np.asarray(a, dtype=np.complex128)
            payload["b"] = np.asarray(b, dtype=np.complex128)
            record.m, record.k, record.n = a.shape[0], a.shape[1], b.shape[0]
        return payload, deadline_ms

    # ------------------------------------------------------------------
    # Execution (group -> executor thread -> pool)
    # ------------------------------------------------------------------
    async def _flush_batch(self, key: BatchKey, jobs: list[PendingJob]) -> None:
        loop = asyncio.get_running_loop()
        try:
            results = await loop.run_in_executor(
                self._executor, self._compute_batch, key, jobs
            )
        except Exception as exc:  # repro: allow[RH403] futures carry failures
            for job in jobs:
                if not job.future.done():
                    job.future.set_exception(exc)
            return
        for job, result in zip(jobs, results):
            if job.future.done():
                continue
            if isinstance(result, BaseException):
                job.future.set_exception(result)
            else:
                job.future.set_result(result)

    def _compute_batch(
        self, key: BatchKey, jobs: list[PendingJob]
    ) -> list[Any]:
        """Runs on the single executor thread: cache, then one dispatch.

        Returns one :class:`_JobOutcome` or exception per job, in order.
        """
        started = time.monotonic()
        for job in jobs:
            job.started, job.batch = started, len(jobs)
        level = DegradeLevel(key.level)
        results: list[Any] = [None] * len(jobs)

        # -- content-addressed cache: repeat payloads never recompute --
        misses: list[int] = []
        for i, job in enumerate(jobs):
            cached = self._cache_get(job, level)
            if cached is not None:
                results[i] = _JobOutcome(cached, cached=True)
            else:
                misses.append(i)
        if not misses:
            return results

        if level >= DegradeLevel.REFERENCE:
            for i in misses:
                results[i] = self._safe(_reference_result, jobs[i].payload)
            return results

        outcomes = self._dispatch([jobs[i] for i in misses], level)
        for i, outcome in zip(misses, outcomes):
            results[i] = outcome
            if isinstance(outcome, _JobOutcome):
                self._cache_put(jobs[i], outcome.value)
        return results

    def _dispatch(self, group: list[PendingJob], level: DegradeLevel) -> list[Any]:
        """Run one group, coalesced or alone; one result per job.

        A gemm/cgemm group is stacked (a lone request is a stack of one)
        and cut into one slice per worker; an fft or mrf job is its own
        slice. Each slice is one :func:`_exec_job` payload and fails only
        its own jobs. The group inherits its *tightest* member deadline as
        the pool task timeout, so no request is held past its budget by
        its groupmates.
        """
        deadline = min(job.deadline for job in group)
        remaining = deadline - time.monotonic()
        if remaining <= 0.0:
            return [_JobFailed("deadline", "expired while queued") for _ in group]
        payload = dict(group[0].payload)
        fault = payload["fault"]
        use_pool = level < DegradeLevel.SERIAL and self.breaker.allow_pool()
        if not use_pool and fault is not None:
            if fault["kind"] == "kill_worker":
                # Never run a worker-kill in-process: that would kill the
                # server. With the pool out of service the request sheds.
                return [_JobFailed("circuit_open", "pool unavailable for fault job")]
            if fault["kind"] == "stall":
                # In-process stalls stay bounded by the deadline.
                payload["fault"] = dict(
                    fault, ms=min(float(fault.get("ms", 0.0)), remaining * 1e3)
                )
        stacked = payload["op"] in ("gemm", "cgemm")
        if stacked:
            a = np.stack([job.payload["a"] for job in group])
            b = np.stack([job.payload["b"] for job in group])
            ranges = parallel.split_ranges(
                len(group), parallel.resolve_workers(self.config.workers)
            )
            slices = [dict(payload, a=a[lo:hi], b=b[lo:hi]) for lo, hi in ranges]
        else:
            ranges, slices = [(0, 1)], [payload]

        retries = 0
        if use_pool:
            before = parallel.pool_info()
            try:
                outs: list[Any] = parallel.parallel_map(
                    _exec_job,
                    slices,
                    workers=len(slices),
                    timeout=remaining,
                    retries=self.config.retries,
                    return_failures=True,
                )
            except Exception as exc:  # repro: allow[RH403] per-request firewall
                self._observe_pool(before, ok=False)
                return [self._classify(exc)] * len(group)
            ok = not any(isinstance(out, TaskFailure) for out in outs)
            retries = self._observe_pool(before, ok=ok)
        else:
            outs = [self._exec_in_process(piece, deadline) for piece in slices]

        coalesced = len(group) > 1
        results: list[Any] = []
        for (lo, hi), out in zip(ranges, outs):
            if isinstance(out, TaskFailure):
                failed = self._classify_failure(out)
                failed.retries = max(out.attempts - 1, 0)
                results += [failed] * (hi - lo)
            elif isinstance(out, BaseException):
                results += [out] * (hi - lo)
            elif stacked:
                results += [_JobOutcome(value, batched=coalesced, retries=retries)
                            for value in out]
            else:
                results.append(_JobOutcome(np.asarray(out), retries=retries))
        return results

    def _exec_in_process(self, payload: dict[str, Any], deadline: float) -> Any:
        """One slice on the executor thread (SERIAL level or breaker
        open): its result, or the exception its jobs fail with."""
        try:
            out = _exec_job(payload)
        except AbftUncorrectedError as exc:
            return exc
        except Exception as exc:  # repro: allow[RH403] per-request firewall
            return self._classify(exc)
        if time.monotonic() > deadline:
            return _JobFailed("deadline", "deadline passed during in-process execution")
        return out

    # ------------------------------------------------------------------
    # Failure classification + breaker feeding
    # ------------------------------------------------------------------
    def _observe_pool(self, before: dict[str, Any], ok: bool) -> int:
        """Feed the circuit breaker from the pool health counters.

        Returns the retry-count delta so the caller can attribute
        recovered attempts to the request record.
        """
        after = parallel.pool_info()
        if ok:
            self.breaker.record_success()
        else:
            events = (after["broken_events"] - before["broken_events"]) + (
                after["timeout_events"] - before["timeout_events"]
            )
            self.breaker.record_events(max(events, 1))
        return max(int(after["task_retries"] - before["task_retries"]), 0)

    def _classify_failure(self, failure: TaskFailure) -> Any:
        if failure.error_type == "AbftUncorrectedError":
            return _JobFailed("abft_uncorrected", failure.message)
        if failure.cause == "timeout":
            return _JobFailed("deadline", str(failure))
        if failure.cause == "broken-pool":
            return _JobFailed("worker_lost", str(failure))
        return _JobFailed("execution", str(failure))

    def _classify(self, exc: BaseException) -> "_JobFailed":
        from concurrent.futures.process import BrokenProcessPool

        from ..resilience.failures import ParallelTaskError

        if isinstance(exc, ParallelTaskError) and exc.failures:
            classified = self._classify_failure(exc.failures[0])
            if isinstance(classified, _JobFailed):
                return classified
        if isinstance(exc, BrokenProcessPool):
            return _JobFailed("worker_lost", str(exc))
        return _JobFailed("execution", f"{type(exc).__name__}: {exc}")

    def _safe(self, fn: Any, payload: dict[str, Any]) -> Any:
        try:
            return _JobOutcome(np.asarray(fn(payload)))
        except Exception as exc:  # repro: allow[RH403] per-request firewall
            return _JobFailed("execution", f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    # Cache
    # ------------------------------------------------------------------
    def _cache_key(self, job: PendingJob) -> str | None:
        payload = job.payload
        if payload.get("fault") is not None:
            return None
        op = payload["op"]
        if op in ("gemm", "cgemm"):
            return stable_digest("serve", op, self._abft_on,
                                 payload["a"], payload["b"])
        if op == "fft":
            return stable_digest("serve", op, self._abft_on, payload["x"])
        if op == "mrf":
            return stable_digest("serve", op, self._abft_on,
                                 payload["a"], payload["b"])
        return None

    def _cache_get(self, job: PendingJob, level: DegradeLevel) -> np.ndarray | None:
        if level >= DegradeLevel.REFERENCE:
            return None  # reference results are not full-fidelity: no cache
        key = self._cache_key(job)
        if key is None:
            return None
        hit = self.cache.get(key)
        if hit is None:
            return None
        if (
            level == DegradeLevel.NORMAL
            and self._abft_on
            and job.payload["op"] in ("gemm", "cgemm")
        ):
            # Full fidelity: re-verify the cached bytes before serving.
            # Under pressure (level >= NO_REVERIFY) this step is shed.
            try:
                hit = self._reverify(job.payload, hit)
            except AbftUncorrectedError:
                return None  # drop the poisoned entry; recompute fresh
        return hit

    def _reverify(self, payload: dict[str, Any], out: np.ndarray) -> np.ndarray:
        mode = MXUMode.FP32 if payload["op"] == "gemm" else MXUMode.FP32C
        a, b = payload["a"], payload["b"]

        def compute(aa: np.ndarray, bb: np.ndarray, cc: np.ndarray) -> np.ndarray:
            # In process: a cache re-verify never reaches the pool.
            return TiledGEMM(M3XU(), mode, workers=1).run(aa, bb, 0.0)

        zero = np.zeros((a.shape[0], b.shape[1]), dtype=out.dtype)
        verified, _report = guarded_gemm(
            compute, a, b, zero, roundoff=2.0**-23, out=out
        )
        return verified

    def _cache_put(self, job: PendingJob, result: Any) -> None:
        if not isinstance(result, np.ndarray):
            return
        key = self._cache_key(job)
        if key is not None:
            self.cache.put(key, result)

    # ------------------------------------------------------------------
    # Response finalization
    # ------------------------------------------------------------------
    def _finish(
        self, record: RequestRecord, t0: float, outcome: str, reason: str = ""
    ) -> None:
        record.outcome = outcome
        record.reason = reason
        record.latency_ms = (time.monotonic() - t0) * 1e3
        record.service_ms = record.latency_ms - record.queue_ms
        self.run_table.add(record)

    def _finish_ok(
        self, record: RequestRecord, t0: float, result: Any
    ) -> dict[str, Any]:
        self._finish(record, t0, "OK")
        return {
            "id": record.request_id,
            "status": "OK",
            "result": encode_array(np.asarray(result)),
            "degraded": record.degraded,
            "degrade_level": record.degrade_level,
            "cached": record.cached,
            "batched": record.batched,
            "latency_ms": record.latency_ms,
        }

    def _finish_rejected(
        self, record: RequestRecord, t0: float, reason: str
    ) -> dict[str, Any]:
        self._finish(record, t0, "REJECTED", reason)
        return {
            "id": record.request_id,
            "status": "REJECTED",
            "reason": reason,
            "latency_ms": record.latency_ms,
        }

    def _finish_error(
        self, record: RequestRecord, t0: float, reason: str, detail: str
    ) -> dict[str, Any]:
        self._finish(record, t0, "ERROR", reason)
        return {
            "id": record.request_id,
            "status": "ERROR",
            "reason": reason,
            "detail": detail,
            "degrade_level": record.degrade_level,
            "latency_ms": record.latency_ms,
        }

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        return {
            "admission": self.admission.info(),
            "breaker": self.breaker.info(),
            "pool": parallel.pool_info(),
            "cache": self.cache.info(),
            "batcher": self.batcher.info(),
            "degrade_counts": {str(k): v for k, v in self.degrade_counts.items()},
            "summary": self.run_table.summary(),
            "closing": self._closing,
        }


class _JobFailed(Exception):
    """Internal: a structured per-request failure (reason + detail)."""

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(detail or reason)
        self.reason = reason
        self.detail = detail
        self.retries = 0


async def serve_forever(config: ServeConfig | None = None) -> None:
    """Start a server and run until shut down (the CLI entry point)."""
    server = GemmServer(config)
    await server.start()
    try:
        await server.serve_forever()
    finally:
        await server.stop()

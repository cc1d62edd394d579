"""Open-loop load for ``repro serve`` and the checks on what comes back.

The generator is one asyncio task set in the benchmark process, with two
pipelined connections and no threads. Every request line, its send time
and its float64 reference are built before the window opens; during the
window the sender only sleeps until each request is due and writes it,
and each connection's reader only stamps and stores response lines.
Responses are parsed and checked after the window.

Latency is measured from each request's *scheduled* send time, so a
stall of the generator or the server shows up in every request due
during it. ``lag`` records how late the generator actually sent.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from bench.inproc import tolerance

HOST = "127.0.0.1"

#: Per-request deadline sent with every request. A failed, refused or
#: lost request counts as taking this long.
DEADLINE_MS = 2000.0

#: Line limit for response reads (the server's own stream limit).
STREAM_LIMIT = 128 * 1024 * 1024


@dataclass(frozen=True)
class ServeSpec:
    """One traffic mix.

    ``mixed``: the loadgen op mix at ``size``, a share of requests
    resending an earlier payload byte for byte. ``fixed``: every request
    is a gemm with the same ``size`` x ``size`` A and a fresh
    ``size`` x ``b_cols`` B.
    """

    name: str
    kind: str
    rate: float
    size: int
    warmup_s: float
    repeat_frac: float = 0.0
    b_cols: int = 8
    mix: tuple[float, float, float, float] = (0.70, 0.15, 0.10, 0.05)


#: Rates sit near 15% of each mix's closed-loop capacity on a 2-core x86
#: box (mixed ~340 rps, fixed-weights ~85 rps with 16 requests in
#: flight), where latency is mostly service time rather than queueing:
#: on a shared VM whose speed drifts, queueing would amplify the drift.
FULL = {
    "serve-mixed": ServeSpec("serve-mixed", "mixed", rate=60.0, size=16, warmup_s=2.0, repeat_frac=0.25),
    "serve-fixed-weights": ServeSpec("serve-fixed-weights", "fixed", rate=10.0, size=128, warmup_s=2.0),
}
SMOKE = {
    "serve-mixed": ServeSpec("serve-mixed", "mixed", rate=60.0, size=8, warmup_s=0.5, repeat_frac=0.25),
    "serve-fixed-weights": ServeSpec("serve-fixed-weights", "fixed", rate=10.0, size=64, warmup_s=0.5),
}

OPS = ("gemm", "cgemm", "fft", "mrf")


@dataclass
class Request:
    """One prepared request: when it is due, its wire bytes, its check."""

    t: float
    rid: str
    parts: list[bytes]
    op: str
    k: int
    ref: np.ndarray
    measured: bool

    @property
    def nbytes(self) -> int:
        return sum(len(p) for p in self.parts)


def _lists(x: np.ndarray) -> Any:
    if np.iscomplexobj(x):
        return {"re": x.real.tolist(), "im": x.imag.tolist()}
    return x.tolist()


def _f32(x: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(x):
        return x.astype(np.complex64).astype(np.complex128)
    return x.astype(np.float32).astype(np.float64)


def _mixed_body(rng: np.random.Generator, spec: ServeSpec) -> tuple[bytes, str, int, np.ndarray]:
    """One request of the loadgen mix: body bytes (after the id), op, K,
    reference."""
    n = spec.size
    op = OPS[int(rng.choice(4, p=np.asarray(spec.mix) / sum(spec.mix)))]
    fields: dict[str, Any] = {"op": op, "deadline_ms": DEADLINE_MS}
    if op in ("gemm", "cgemm"):
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        if op == "cgemm":
            a = a + 1j * rng.standard_normal((n, n))
            b = b + 1j * rng.standard_normal((n, n))
        fields["a"], fields["b"] = _lists(a), _lists(b)
        ref, k = _f32(a) @ _f32(b), n
    elif op == "fft":
        k = 1 << max((n - 1).bit_length(), 1)
        x = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        fields["x"] = _lists(x)
        ref = np.fft.fft(x)
    else:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        fields["a"], fields["b"] = _lists(a), _lists(b)
        ref, k = np.abs(np.conj(a) @ b.T), n
    body = json.dumps(fields, separators=(",", ":"))[1:].encode()
    return body, op, k, ref


def arrivals(rng: np.random.Generator, rate: float, horizon: float) -> list[float]:
    """Poisson arrival times in ``[0, horizon)``."""
    times: list[float] = []
    t = float(rng.exponential(1.0 / rate))
    while t < horizon:
        times.append(t)
        t += float(rng.exponential(1.0 / rate))
    return times


def build_requests(spec: ServeSpec, seed: int, seconds: float) -> list[Request]:
    """Every request of the warm-up and the window, fully encoded."""
    rng = np.random.default_rng([seed, 7 if spec.kind == "mixed" else 8])
    schedule = arrivals(rng, spec.rate, spec.warmup_s + seconds)
    reqs: list[Request] = []
    if spec.kind == "mixed":
        bodies: list[tuple[bytes, str, int, np.ndarray]] = []
        for i, t in enumerate(schedule):
            if bodies and rng.random() < spec.repeat_frac:
                body = bodies[int(rng.integers(len(bodies)))]
            else:
                body = _mixed_body(rng, spec)
                bodies.append(body)
            rid = f"q{i}"
            reqs.append(
                Request(t, rid, [b'{"id":"' + rid.encode() + b'",' + body[0] + b"\n"],
                        body[1], body[2], body[3], t >= spec.warmup_s)
            )
        return reqs
    n = spec.size
    a = rng.standard_normal((n, n))
    a_json = json.dumps(a.tolist()).encode()
    a32 = _f32(a)
    for i, t in enumerate(schedule):
        b = rng.standard_normal((n, spec.b_cols))
        rid = f"q{i}"
        head = b'{"id":"' + rid.encode() + b'","op":"gemm","deadline_ms":' + repr(DEADLINE_MS).encode() + b',"a":'
        tail = b',"b":' + json.dumps(b.tolist()).encode() + b"}\n"
        reqs.append(Request(t, rid, [head, a_json, tail], "gemm", n, a32 @ _f32(b), t >= spec.warmup_s))
    return reqs


@dataclass
class LoadResult:
    """What the generator saw: send stamps, response lines, and the
    server's ``stats`` at both ends of the window."""

    sent_at: dict[str, float] = field(default_factory=dict)
    lateness_ms: dict[str, float] = field(default_factory=dict)
    received: list[tuple[float, bytes]] = field(default_factory=list)
    stats_before: dict[str, Any] = field(default_factory=dict)
    stats_after: dict[str, Any] = field(default_factory=dict)
    traced_blocks: list[tuple[float, float]] = field(default_factory=list)
    t_start: float = 0.0


class _Conn:
    """One pipelined connection whose reader only stamps and stores."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, sink: list) -> None:
        self.reader = reader
        self.writer = writer
        self.sink = sink
        self.task = asyncio.get_running_loop().create_task(self._read())

    async def _read(self) -> None:
        while True:
            try:
                line = await self.reader.readline()
            except (ConnectionError, asyncio.IncompleteReadError, ValueError):
                return
            if not line:
                return
            self.sink.append((time.perf_counter(), line))

    async def close(self) -> None:
        self.task.cancel()
        try:
            await self.task
        except asyncio.CancelledError:
            pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _open(port: int, sink: list) -> _Conn:
    reader, writer = await asyncio.open_connection(HOST, port, limit=STREAM_LIMIT)
    return _Conn(reader, writer, sink)


async def _control(port: int, op: str) -> dict[str, Any]:
    reader, writer = await asyncio.open_connection(HOST, port, limit=STREAM_LIMIT)
    try:
        writer.write(json.dumps({"id": f"ctl-{op}", "op": op}).encode() + b"\n")
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout=30.0)
    finally:
        writer.close()
    return json.loads(line) if line else {}


async def drive(
    port: int,
    reqs: list[Request],
    spec: ServeSpec,
    seconds: float,
    toggle_pid: int | None = None,
) -> LoadResult:
    """Send *reqs* on schedule and collect every response line.

    With ``toggle_pid`` the window alternates untraced and traced blocks
    (one second, or a quarter of a shorter window) by signalling the
    traced server: SIGUSR1 switches tracing on, SIGUSR2 off.
    """
    block_s = min(1.0, seconds / 4)
    out = LoadResult()
    conns = [await _open(port, out.received) for _ in range(2)]
    loop = asyncio.get_running_loop()
    t_start = out.t_start = time.perf_counter() + 0.05
    window = (t_start + spec.warmup_s, t_start + spec.warmup_s + seconds)

    async def toggler() -> None:
        assert toggle_pid is not None
        t, on = window[0], False
        while t < window[1]:
            await asyncio.sleep(max(0.0, t - time.perf_counter()))
            os.kill(toggle_pid, signal.SIGUSR1 if on else signal.SIGUSR2)
            if on:
                out.traced_blocks.append((t, min(t + block_s, window[1])))
            t, on = t + block_s, not on
        os.kill(toggle_pid, signal.SIGUSR2)

    async def stats_at_window_start() -> None:
        await asyncio.sleep(max(0.0, window[0] - time.perf_counter()))
        out.stats_before = await _control(port, "stats")

    helpers = [loop.create_task(stats_at_window_start())]
    if toggle_pid is not None:
        helpers.append(loop.create_task(toggler()))
    try:
        for i, req in enumerate(reqs):
            due = t_start + req.t
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            now = time.perf_counter()
            conns[i % 2].writer.writelines(req.parts)
            out.sent_at[req.rid] = now
            out.lateness_ms[req.rid] = (now - due) * 1e3
        give_up = time.perf_counter() + DEADLINE_MS / 1e3 + 10.0
        while len(out.received) < len(reqs) and time.perf_counter() < give_up:
            await asyncio.sleep(0.01)
        for task in helpers:
            await task
        out.stats_after = await _control(port, "stats")
    finally:
        for conn in conns:
            await conn.close()
    return out


async def capacity(port: int, spec: ServeSpec, seed: int, seconds: float, in_flight: int = 16) -> float:
    """Closed loop with *in_flight* requests outstanding and unique
    payloads; completed requests per second."""
    rng = np.random.default_rng([seed, 9])
    sink: list = []
    conns = [await _open(port, sink) for _ in range(2)]
    a_json = json.dumps(rng.standard_normal((spec.size, spec.size)).tolist()).encode()

    def line(i: int) -> list[bytes]:
        rid = f"cap{i}".encode()
        if spec.kind == "mixed":
            return [b'{"id":"' + rid + b'",' + _mixed_body(rng, spec)[0] + b"\n"]
        b = json.dumps(rng.standard_normal((spec.size, spec.b_cols)).tolist()).encode()
        return [b'{"id":"' + rid + b'","op":"gemm","a":', a_json, b',"b":' + b + b"}\n"]

    sent = 0
    t_end = time.perf_counter() + seconds
    t0 = time.perf_counter()
    try:
        while time.perf_counter() < t_end:
            while sent - len(sink) < in_flight:
                conns[sent % 2].writer.writelines(line(sent))
                sent += 1
            await asyncio.sleep(0.0005)
        done = len(sink)
        elapsed = time.perf_counter() - t0
        give_up = time.perf_counter() + DEADLINE_MS / 1e3 + 10.0
        while len(sink) < sent and time.perf_counter() < give_up:
            await asyncio.sleep(0.01)
    finally:
        for conn in conns:
            await conn.close()
    return done / elapsed


@dataclass
class Row:
    """One measured request as the client saw it."""

    due: float
    latency_ms: float
    lateness_ms: float
    request_bytes: int
    ok: bool
    service_ms: float = 0.0
    wire_ms: float = 0.0
    response_bytes: int = 0


@dataclass
class Checked:
    """Every measured request, and what the checks found."""

    rows: list[Row] = field(default_factory=list)
    failed: int = 0
    statuses: dict[str, int] = field(default_factory=dict)
    wrong: list[str] = field(default_factory=list)


def _decode(obj: Any) -> np.ndarray:
    if isinstance(obj, dict):
        return np.asarray(obj["re"], dtype=np.float64) + 1j * np.asarray(obj["im"], dtype=np.float64)
    return np.asarray(obj, dtype=np.float64)


def check(reqs: list[Request], load: LoadResult) -> Checked:
    """Match responses to requests and check every OK result against its
    float64 reference with the loadgen silent-corruption tolerance.

    A failed, refused or lost request counts as taking ``DEADLINE_MS``.
    """
    by_id: dict[str, tuple[float, bytes, dict]] = {}
    for t_recv, raw in load.received:
        resp = json.loads(raw)
        by_id[str(resp.get("id"))] = (t_recv, raw, resp)
    out = Checked()
    for req in reqs:
        if not req.measured:
            continue
        due = load.t_start + req.t
        lateness = load.lateness_ms.get(req.rid, 0.0)
        got = by_id.get(req.rid)
        status = str(got[2].get("status", "?")) if got else "LOST"
        out.statuses[status] = out.statuses.get(status, 0) + 1
        if got is None or status != "OK":
            out.failed += 1
            out.rows.append(Row(due, DEADLINE_MS, lateness, req.nbytes, ok=False))
            continue
        t_recv, raw, resp = got
        result = _decode(resp["result"])
        stages = 64 if req.op == "fft" else 4
        if result.shape != req.ref.shape or not (
            float(np.max(np.abs(result - req.ref))) <= tolerance(req.k, req.ref, stages)
        ):
            out.failed += 1
            out.wrong.append(req.rid)
        service = float(resp["latency_ms"])
        out.rows.append(Row(
            due, (t_recv - due) * 1e3, lateness, req.nbytes, ok=True, service_ms=service,
            wire_ms=(t_recv - load.sent_at[req.rid]) * 1e3 - service, response_bytes=len(raw),
        ))
    return out


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
def server_command(root: Path, trace_dir: Path | None) -> list[str]:
    args = ["serve", "--port", "0", "--workers", "1", "--allow-shutdown"]
    if trace_dir is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(root / "bench" / "traced_serve.py"), str(trace_dir), *args]


def start_server(cmd: list[str], env: dict[str, str]) -> tuple[subprocess.Popen, int]:
    """Launch a server and return it with the port it listens on."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
    assert proc.stdout is not None
    line = proc.stdout.readline().decode()
    if "listening on" not in line:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"server did not start: {line!r}")
    return proc, int(line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])


def first_response(port: int) -> None:
    """One 16x16 gemm, waited for until it answers OK."""
    import socket

    a = np.arange(256, dtype=np.float64).reshape(16, 16) / 256.0
    req = json.dumps({"id": "setup", "op": "gemm", "a": a.tolist(), "b": a.T.tolist()})
    with socket.create_connection((HOST, port), timeout=60.0) as sock:
        sock.sendall(req.encode() + b"\n")
        resp = json.loads(sock.makefile("rb").readline())
    if resp.get("status") != "OK":
        raise RuntimeError(f"setup request failed: {resp}")


def stop_server(proc: subprocess.Popen, port: int) -> None:
    """Ask the server to shut down; kill it if it does not exit."""
    try:
        asyncio.run(_control(port, "shutdown"))
        proc.wait(timeout=30.0)
    except (OSError, subprocess.TimeoutExpired, asyncio.TimeoutError):
        proc.kill()
        proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()

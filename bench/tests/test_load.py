"""Open-loop load generation: a stall must show up in later latencies."""

from __future__ import annotations

import asyncio
import json
import socketserver
import threading
import time

import numpy as np

from bench.serve_load import Request, ServeSpec, check, drive


class _Echo(socketserver.StreamRequestHandler):
    """Answers every request line at once with a 1x1 zero result."""

    def handle(self) -> None:
        for line in self.rfile:
            rid = json.loads(line).get("id")
            reply = {"id": rid, "status": "OK", "result": [[0.0]], "latency_ms": 0.0}
            self.wfile.write(json.dumps(reply).encode() + b"\n")
            self.wfile.flush()


class _Server(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True


def test_generator_stall_shows_in_later_latencies():
    server = _Server(("127.0.0.1", 0), _Echo)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        line = json.dumps({"op": "gemm"})[1:].encode()
        reqs = [
            Request(0.01 * i, f"q{i}", [b'{"id":"q%d",' % i + line + b"\n"], "gemm", 1, np.zeros((1, 1)), True)
            for i in range(100)
        ]
        spec = ServeSpec("stall", "mixed", rate=100.0, size=2, warmup_s=0.0)
        stall: dict[str, float] = {}

        def pause() -> None:
            stall["t0"] = time.perf_counter()
            time.sleep(0.2)  # the generator's loop stops for 200 ms
            stall["t1"] = time.perf_counter()

        async def main():
            asyncio.get_running_loop().call_later(0.5, pause)
            return await drive(server.server_address[1], reqs, spec, seconds=1.0)

        load = asyncio.run(main())
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()

    rows = check(reqs, load).rows
    assert len(rows) == 100 and all(r.ok for r in rows)
    during = [r for r in rows if stall["t0"] <= r.due < stall["t1"]]
    assert len(during) >= 15
    for r in during:
        # Each request due during the pause waited until it ended.
        assert r.latency_ms >= (stall["t1"] - r.due) * 1e3 - 1.0
        assert r.lateness_ms >= (stall["t1"] - r.due) * 1e3 - 1.0
    after = [r for r in rows if r.due > stall["t1"] + 0.1]
    assert after and max(r.latency_ms for r in after) < 50.0

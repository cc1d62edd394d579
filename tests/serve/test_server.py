"""End-to-end serving tests: protocol, fidelity, faults, overload.

Each test hosts a real :class:`GemmServer` on an ephemeral port inside
``asyncio.run`` and talks to it over TCP — the same path production
clients use. Blocking-client scenarios run in an executor thread;
pipelined/overload scenarios use :class:`AsyncConnection` in-loop.
"""

from __future__ import annotations

import asyncio
import re
import selectors
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np
import pytest

from repro.serve import GemmServer, ServeConfig, ServeClient
from repro.serve.client import AsyncConnection
from repro.serve.server import decode_array, encode_array


SRC = Path(__file__).resolve().parents[2] / "src"


def with_server(cfg: ServeConfig, fn: Callable[[GemmServer], Any]) -> Any:
    """Host a server, run blocking *fn(server)* in a thread, stop it."""

    async def main() -> Any:
        server = GemmServer(cfg)
        await server.start()
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(None, fn, server)
        finally:
            await server.stop()

    return asyncio.run(main())


def client_for(server: GemmServer, timeout: float = 60.0) -> ServeClient:
    return ServeClient("127.0.0.1", server.port, timeout=timeout)


class TestServeConfigFromEnv:
    """``repro serve``'s config: host and port from the environment."""

    def test_port_defaults_to_8135_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_PORT", raising=False)
        assert ServeConfig.from_env().port == 8135

    def test_explicit_zero_is_kept(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_PORT", "0")
        assert ServeConfig.from_env().port == 0

    def test_malformed_port_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_PORT", "abc")
        with pytest.raises(ValueError, match="REPRO_SERVE_PORT"):
            ServeConfig.from_env()

    def test_overrides_win_and_none_is_skipped(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_PORT", "9000")
        cfg = ServeConfig.from_env(port=0, rate=None)
        assert cfg.port == 0 and cfg.rate == ServeConfig.rate

    def test_cli_port_zero_from_env_is_os_assigned(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_PORT", "0")
        monkeypatch.setenv("PYTHONPATH", str(SRC))
        # Block-buffered stdout, as in CI: the readiness line must be
        # flushed by the CLI itself.
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "1",
             "--allow-shutdown"],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            # A bounded wait: a line left in the child's buffer fails the
            # test instead of hanging it.
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                assert sel.select(timeout=60), "no readiness line in 60 s"
            line = proc.stdout.readline()
            match = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
            assert match, line
            port = int(match.group(1))
            assert port not in (0, 8135)
            with ServeClient("127.0.0.1", port, timeout=30.0) as client:
                assert client.shutdown()["status"] == "OK"
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()


class TestWireEncoding:
    def test_real_round_trip(self, rng):
        x = rng.standard_normal((3, 4))
        np.testing.assert_array_equal(decode_array(encode_array(x), 1 << 20), x)

    def test_complex_round_trip(self, rng):
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        np.testing.assert_array_equal(decode_array(encode_array(x), 1 << 20), x)

    def test_rejects_oversized_missing_and_nonfinite(self):
        with pytest.raises(ValueError):
            decode_array([[1.0] * 10] * 10, max_elements=50)
        with pytest.raises(ValueError):
            decode_array(None, max_elements=50)
        with pytest.raises(ValueError):
            decode_array([float("nan")], max_elements=50)
        with pytest.raises(ValueError):
            decode_array({"re": [1.0], "im": [1.0, 2.0]}, max_elements=50)
        with pytest.raises(ValueError):
            decode_array(["zebra"], max_elements=50)


class TestServingFidelity:
    def test_gemm_is_bit_exact_with_local_datapath(self, rng):
        from repro.gemm.tiled import mxu_sgemm

        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))

        def scenario(server: GemmServer):
            with client_for(server) as client:
                response = client.gemm(a, b)
                assert response["status"] == "OK"
                assert response["degraded"] is False
                return client.result(response)

        served = with_server(ServeConfig(port=0), scenario)
        np.testing.assert_array_equal(served, mxu_sgemm(a, b))

    def test_cgemm_is_bit_exact_with_local_datapath(self, rng):
        from repro.gemm.tiled import mxu_cgemm

        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))

        def scenario(server: GemmServer):
            with client_for(server) as client:
                return client.result(client.gemm(a, b))

        served = with_server(ServeConfig(port=0), scenario)
        np.testing.assert_array_equal(served, mxu_cgemm(a, b))

    def test_fft_and_mrf_ops(self, rng):
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        dictionary = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
        voxels = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))

        def scenario(server: GemmServer):
            with client_for(server) as client:
                fft = client.result(client.fft(x))
                mrf = client.result(client.request({
                    "op": "mrf",
                    "a": encode_array(dictionary),
                    "b": encode_array(voxels),
                }))
                return fft, mrf

        fft, mrf = with_server(ServeConfig(port=0), scenario)
        np.testing.assert_allclose(fft, np.fft.fft(x), rtol=0, atol=1e-4)
        ref = np.abs(np.conj(dictionary) @ voxels.T)
        assert mrf.shape == (5, 2)
        np.testing.assert_allclose(mrf, ref, rtol=0, atol=1e-4)

    def test_repeat_payload_served_from_cache_bit_identically(self, rng):
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))

        def scenario(server: GemmServer):
            with client_for(server) as client:
                first = client.gemm(a, b)
                second = client.gemm(a, b)
                assert first["cached"] is False
                assert second["cached"] is True
                np.testing.assert_array_equal(
                    client.result(first), client.result(second)
                )
                return server.cache.hits

        hits = with_server(ServeConfig(port=0), scenario)
        assert hits >= 1


class TestProtocolRobustness:
    def test_structured_errors_for_bad_requests(self):
        def scenario(server: GemmServer):
            with client_for(server) as client:
                cases = [
                    {"op": "nope"},
                    {"op": "gemm", "a": [[1.0, 2.0]], "b": [[1.0, 2.0]]},
                    {"op": "gemm", "a": [[1.0]]},
                    {"op": "fft", "x": {"re": [1.0, 2.0, 3.0],
                                        "im": [0.0, 0.0, 0.0]}},
                    {"op": "gemm", "a": [["x"]], "b": [[1.0]]},
                ]
                out = [client.request(case) for case in cases]
                assert all(r["status"] == "ERROR" for r in out)
                assert all(r["reason"] == "bad_request" for r in out)
                # The server survives garbage and still serves.
                assert client.ping()["status"] == "OK"

        with_server(ServeConfig(port=0), scenario)

    def test_malformed_deadline_and_fault_get_bad_request(self):
        a = [[1.0, 2.0], [3.0, 4.0]]
        cases = [
            *({"deadline_ms": bad} for bad in ("abc", [1], {"x": 1}, "nan",
                                               float("nan"), float("inf"))),
            *({"fault": bad} for bad in (5, [1, 2])),
        ]

        def scenario(server: GemmServer):
            # A bounded wait: a request the server never answers fails
            # the test with a socket timeout instead of hanging it.
            with client_for(server, timeout=8.0) as client:
                for extra in cases:
                    response = client.request({"op": "gemm", "a": a, "b": a, **extra})
                    assert response["status"] == "ERROR", extra
                    assert response["reason"] == "bad_request", extra
                assert client.gemm(np.asarray(a), np.asarray(a))["status"] == "OK"
            return server.run_table.rows()

        rows = with_server(ServeConfig(port=0, fault_injection=True), scenario)
        assert [r.reason for r in rows] == ["bad_request"] * len(cases) + [""]

    def test_malformed_fault_fields_get_bad_request(self):
        # A fault whose ms or seed the worker cannot use is refused at the
        # door: it never reaches the pool, so nothing is retried and the
        # circuit breaker does not see it.
        a = [[1.0, 2.0], [3.0, 4.0]]
        faults = [
            *({"kind": "stall", "ms": bad}
              for bad in ("abc", -1, True, None, [5], float("nan"), float("inf"))),
            *({"kind": "poison", "seed": bad} for bad in ("x", -1, False, 1.5, None)),
        ]

        def scenario(server: GemmServer):
            before = server.breaker.info()
            with client_for(server, timeout=8.0) as client:
                for fault in faults:
                    response = client.request({"op": "gemm", "a": a, "b": a, "fault": fault})
                    assert response["status"] == "ERROR", fault
                    assert response["reason"] == "bad_request", fault
                stall = {"kind": "stall", "ms": 1}
                response = client.request({"op": "gemm", "a": a, "b": a, "fault": stall})
                assert response["status"] == "OK"
            return before, server.breaker.info(), server.run_table.rows()

        before, after, rows = with_server(
            ServeConfig(port=0, fault_injection=True, breaker_threshold=1), scenario
        )
        assert after == before
        assert [r.reason for r in rows] == ["bad_request"] * len(faults) + [""]
        assert all(r.retries == 0 for r in rows)

    def test_integers_too_large_for_a_float_get_an_answer(self):
        # JSON integers have no size limit, and float() of one beyond
        # float64 raises OverflowError rather than ValueError.
        huge = 10**400
        a = [[1.0, 2.0], [3.0, 4.0]]

        def scenario(server: GemmServer):
            with client_for(server, timeout=8.0) as client:
                return (
                    client.request({"op": "gemm", "a": [[huge]], "b": [[1.0]]}),
                    client.request({"op": "gemm", "a": a, "b": a, "deadline_ms": huge}),
                )

        operand, deadline = with_server(ServeConfig(port=0), scenario)
        assert (operand["status"], operand["reason"]) == ("ERROR", "bad_request")
        assert deadline["status"] == "OK"  # clamped to max_deadline_ms

    def test_unparseable_line_gets_structured_error(self):
        def scenario(server: GemmServer):
            import json
            import socket

            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=30
            ) as sock:
                sock.sendall(b"this is not json\n")
                response = json.loads(sock.makefile("rb").readline())
                assert response["status"] == "ERROR"
                assert response["reason"] == "bad_request"

        with_server(ServeConfig(port=0), scenario)

    def test_oversized_operand_is_shed_not_fatal(self):
        def scenario(server: GemmServer):
            with client_for(server) as client:
                big = [[1.0] * 40] * 40  # 1600 > max_elements=1000
                response = client.request({"op": "gemm", "a": big, "b": big})
                assert response["status"] == "ERROR"
                assert response["reason"] == "bad_request"
                assert client.ping()["status"] == "OK"

        with_server(ServeConfig(port=0, max_elements=1000), scenario)

    def test_shutdown_op_gated_by_config(self):
        def denied(server: GemmServer):
            with client_for(server) as client:
                response = client.shutdown()
                assert response["status"] == "ERROR"
                assert response["reason"] == "shutdown_not_allowed"
                assert client.ping()["status"] == "OK"

        with_server(ServeConfig(port=0), denied)

    def test_remote_shutdown_stops_the_server(self):
        async def main():
            server = GemmServer(ServeConfig(port=0, allow_shutdown=True))
            await server.start()
            loop = asyncio.get_running_loop()

            def scenario():
                with ServeClient("127.0.0.1", server.port) as client:
                    assert client.shutdown()["status"] == "OK"

            await loop.run_in_executor(None, scenario)
            await asyncio.wait_for(server.serve_forever(), timeout=10.0)

        asyncio.run(main())  # wait_for guards against a hung shutdown


class TestCoalescing:
    def test_requests_queued_behind_a_busy_executor_leave_as_one_batch(self, rng):
        from repro.gemm.tiled import mxu_sgemm

        a = rng.standard_normal((4, 8, 8))
        b = rng.standard_normal((4, 8, 8))
        held = rng.standard_normal((4, 4)).tolist()

        async def main():
            server = GemmServer(ServeConfig(port=0, fault_injection=True))
            await server.start()
            conn = await AsyncConnection.open("127.0.0.1", server.port)
            try:
                # An in-pool stall holds the executor thread.
                blocker = asyncio.get_running_loop().create_task(conn.request({
                    "op": "gemm", "a": held, "b": held,
                    "fault": {"kind": "stall", "ms": 2000}, "deadline_ms": 30000,
                }))
                while server.admission.info()["in_flight"] < 1:
                    await asyncio.sleep(0.01)
                before = server.stats()["batcher"]
                responses = await asyncio.gather(*(
                    conn.request({"op": "gemm", "a": a[i].tolist(),
                                  "b": b[i].tolist(), "deadline_ms": 30000})
                    for i in range(len(a))
                ))
                after = server.stats()["batcher"]
                assert (await blocker)["status"] == "OK"
            finally:
                await conn.close()
                await server.stop()
            return responses, before, after

        responses, before, after = asyncio.run(main())
        assert after["flushes"] - before["flushes"] == 1
        assert after["coalesced"] - before["coalesced"] == len(a)
        for i, response in enumerate(responses):
            assert response["status"] == "OK"
            assert response["batched"] is True
            served = decode_array(response["result"], 1 << 20)
            alone = np.asarray(mxu_sgemm(a[i], b[i]), dtype=np.float64)
            assert served.tobytes() == alone.tobytes()


    def test_run_table_rows_carry_queue_time_and_group_size(self, rng):
        a = rng.standard_normal((3, 8, 8))
        held = rng.standard_normal((4, 4)).tolist()

        async def main():
            server = GemmServer(ServeConfig(port=0, fault_injection=True))
            await server.start()
            conn = await AsyncConnection.open("127.0.0.1", server.port)
            try:
                blocker = asyncio.get_running_loop().create_task(conn.request({
                    "id": "blocker", "op": "gemm", "a": held, "b": held,
                    "fault": {"kind": "stall", "ms": 500}, "deadline_ms": 30000,
                }))
                while server.admission.info()["in_flight"] < 1:
                    await asyncio.sleep(0.01)
                await asyncio.gather(*(
                    conn.request({"id": f"q{i}", "op": "gemm", "a": a[i].tolist(),
                                  "b": a[i].tolist(), "deadline_ms": 30000})
                    for i in range(len(a))
                ))
                assert (await blocker)["status"] == "OK"
            finally:
                await conn.close()
                await server.stop()
            return {row.request_id: row for row in server.run_table.rows()}

        rows = asyncio.run(main())
        assert rows["blocker"].batch == 1
        for i in range(len(a)):
            row = rows[f"q{i}"]
            # Queued behind the 500 ms stall, then run as one group.
            assert row.batch == len(a)
            assert row.queue_ms > 100.0
            assert row.service_ms == pytest.approx(row.latency_ms - row.queue_ms)
            assert 0.0 < row.service_ms < row.latency_ms


class TestFaultInjection:
    def test_fault_directives_ignored_without_opt_in(self, rng):
        a = rng.standard_normal((4, 4))

        def scenario(server: GemmServer):
            with client_for(server) as client:
                response = client.request({
                    "op": "gemm", "a": a.tolist(), "b": a.tolist(),
                    "fault": {"kind": "stall", "ms": 60000},
                    "deadline_ms": 5000,
                })
                assert response["status"] == "OK"

        t0 = time.monotonic()
        with_server(ServeConfig(port=0, fault_injection=False), scenario)
        assert time.monotonic() - t0 < 30.0

    def test_worker_kill_recovers_via_retry(self, rng):
        from repro.gemm.tiled import mxu_sgemm

        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))

        def scenario(server: GemmServer):
            with client_for(server) as client:
                response = client.request({
                    "op": "gemm", "a": a.tolist(), "b": b.tolist(),
                    "fault": {"kind": "kill_worker"},
                    "deadline_ms": 30000,
                })
                assert response["status"] == "OK"
                return client.result(response)

        served = with_server(
            ServeConfig(port=0, fault_injection=True), scenario
        )
        np.testing.assert_array_equal(served, mxu_sgemm(a, b))

    def test_stalled_worker_is_killed_at_the_deadline(self, rng):
        a = rng.standard_normal((4, 4))

        def scenario(server: GemmServer):
            with client_for(server) as client:
                t0 = time.monotonic()
                response = client.request({
                    "op": "gemm", "a": a.tolist(), "b": a.tolist(),
                    "fault": {"kind": "stall", "ms": 60000},
                    "deadline_ms": 500,
                })
                elapsed = time.monotonic() - t0
                assert response["status"] == "ERROR"
                assert response["reason"] == "deadline"
                assert elapsed < 20.0  # killed, not waited out
                # The next clean request still succeeds.
                ok = client.request({
                    "op": "gemm", "a": a.tolist(), "b": a.tolist(),
                    "deadline_ms": 30000,
                })
                assert ok["status"] == "OK"

        with_server(
            ServeConfig(port=0, fault_injection=True, retries=0,
                        breaker_threshold=5),
            scenario,
        )

    def test_poisoned_datapath_is_repaired_by_abft(self, rng):
        from repro.gemm.tiled import mxu_sgemm

        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))

        def scenario(server: GemmServer):
            with client_for(server) as client:
                response = client.request({
                    "op": "gemm", "a": a.tolist(), "b": b.tolist(),
                    "fault": {"kind": "poison", "seed": 11},
                    "deadline_ms": 30000,
                })
                assert response["status"] == "OK"
                return client.result(response)

        served = with_server(
            ServeConfig(port=0, fault_injection=True, abft=True), scenario
        )
        # ABFT repaired the corrupted tiles: bit-identical to clean run.
        np.testing.assert_array_equal(served, mxu_sgemm(a, b))


class TestOverloadAndDegradation:
    def test_queue_full_sheds_with_structured_rejection(self, rng):
        a = rng.standard_normal((4, 4)).tolist()

        async def main():
            server = GemmServer(ServeConfig(
                port=0, fault_injection=True, max_queue=1, retries=0,
                breaker_threshold=100,
            ))
            await server.start()
            conn = await AsyncConnection.open("127.0.0.1", server.port)
            try:
                blocker = asyncio.get_running_loop().create_task(
                    conn.request({
                        "op": "gemm", "a": a, "b": a,
                        "fault": {"kind": "stall", "ms": 60000},
                        "deadline_ms": 1500,
                    })
                )
                await asyncio.sleep(0.3)  # let the stall occupy the queue
                shed = await conn.request(
                    {"op": "gemm", "a": a, "b": a, "deadline_ms": 1500}
                )
                assert shed["status"] == "REJECTED"
                assert shed["reason"] == "queue_full"
                blocked = await asyncio.wait_for(blocker, timeout=30.0)
                assert blocked["status"] == "ERROR"
                summary = server.run_table.summary()
                assert summary["rejected"] >= 1
            finally:
                await conn.close()
                await server.stop()

        asyncio.run(main())

    def test_token_bucket_sheds_overload(self, rng):
        a = rng.standard_normal((4, 4))

        def scenario(server: GemmServer):
            with client_for(server) as client:
                first = client.gemm(a, a)
                second = client.gemm(a, a)
                assert first["status"] == "OK"
                assert second["status"] == "REJECTED"
                assert second["reason"] == "overload"

        with_server(ServeConfig(port=0, rate=0.001, burst=1.0), scenario)

    def test_pinned_reference_level_serves_tagged_results(self, rng):
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))

        def scenario(server: GemmServer):
            with client_for(server) as client:
                response = client.gemm(a, b)
                assert response["status"] == "OK"
                assert response["degraded"] is True
                assert response["degrade_level"] == 3
                return client.result(response)

        served = with_server(ServeConfig(port=0, degrade="3"), scenario)
        ref = a.astype(np.float32) @ b.astype(np.float32)
        np.testing.assert_allclose(served, ref, rtol=0, atol=1e-5)

    def test_breaker_trips_and_recovers_via_half_open_probe(self, rng):
        a = rng.standard_normal((4, 4))

        def scenario(server: GemmServer):
            with client_for(server) as client:
                stall = {
                    "op": "gemm", "a": a.tolist(), "b": a.tolist(),
                    "fault": {"kind": "stall", "ms": 60000},
                    "deadline_ms": 400,
                }
                assert client.request(dict(stall))["status"] == "ERROR"
                info = client.stats()["result"]["breaker"]
                assert info["state"] == "open"
                assert info["trips"] == 1
                # While open, requests still get answered (degraded path).
                during = client.gemm(a, a)
                assert during["status"] == "OK"
                assert during["degrade_level"] >= 2
                time.sleep(0.6)  # past the cooldown: half-open
                # Fresh operands: a cache hit would never probe the pool.
                fresh = rng.standard_normal((4, 4))
                after = client.gemm(fresh, fresh)
                assert after["status"] == "OK"
                info = client.stats()["result"]["breaker"]
                assert info["state"] == "closed"
                assert info["recoveries"] == 1

        with_server(
            ServeConfig(port=0, fault_injection=True, retries=0,
                        breaker_threshold=1, breaker_cooldown=0.5),
            scenario,
        )

    def test_every_request_leaves_a_run_table_row(self, rng):
        a = rng.standard_normal((4, 4))

        def scenario(server: GemmServer):
            with client_for(server) as client:
                client.gemm(a, a)
                client.request({"op": "nope"})
                client.gemm(a, a)
            return server.run_table

        table = with_server(ServeConfig(port=0), scenario)
        rows = table.rows()
        assert len(rows) == 3
        assert [r.outcome for r in rows] == ["OK", "ERROR", "OK"]
        assert rows[2].cached  # repeat payload

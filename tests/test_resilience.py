"""The resilience subsystem: ABFT guards, campaigns, retry jitter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gemm import tiled
from repro.gemm.tiled import TiledGEMM, mxu_sgemm
from repro.mxu.faults import FaultSpec, FaultStage, FaultyM3XU
from repro.mxu.m3xu import M3XU
from repro.mxu.modes import MXUMode
from repro.resilience import (
    AbftConfig,
    AbftUncorrectedError,
    resolve_abft,
    sdc_threshold,
)
from repro.resilience.campaign import CampaignConfig, Outcome, run_campaign


@pytest.fixture
def operands(rng):
    return rng.uniform(-2.0, 2.0, size=(24, 24)), rng.uniform(-2.0, 2.0, size=(24, 20))


# ----------------------------------------------------------------------
# ABFT guard
# ----------------------------------------------------------------------
class TestAbftGuard:
    def test_guarded_run_bit_identical_every_mode(self, operands):
        a, b = operands
        for mode in (MXUMode.FP32, MXUMode.FP64, MXUMode.FP16,
                     MXUMode.BF16, MXUMode.TF32):
            plain = TiledGEMM(M3XU(), mode).run(a, b)
            guard = TiledGEMM(M3XU(), mode, abft=True,
                              abft_config=AbftConfig(tile=8))
            np.testing.assert_array_equal(guard.run(a, b), plain)
            assert guard.abft_report is not None
            assert not guard.abft_report.detected  # zero false alarms

    def test_guarded_run_bit_identical_complex(self, operands):
        a, b = operands
        ac, bc = a + 1j * a[::-1], b - 1j * b[::-1]
        plain = TiledGEMM(M3XU(), MXUMode.FP32C).run(ac, bc)
        guard = TiledGEMM(M3XU(), MXUMode.FP32C, abft=True,
                          abft_config=AbftConfig(tile=8))
        np.testing.assert_array_equal(guard.run(ac, bc), plain)

    def test_env_gate(self, operands, monkeypatch):
        a, b = operands
        monkeypatch.setenv("REPRO_ABFT", "1")
        assert resolve_abft() and resolve_abft(None)
        driver = TiledGEMM(M3XU(), MXUMode.FP32)
        driver.run(a, b)
        assert driver.abft_report is not None  # guard engaged via env
        monkeypatch.setenv("REPRO_ABFT", "0")
        assert not resolve_abft()
        assert resolve_abft(True)  # explicit flag beats the env

    @pytest.mark.parametrize(
        "spec",
        [
            FaultSpec(FaultStage.SIGN_FLIP, call_index=0, element=(3, 4)),
            FaultSpec(FaultStage.SHIFT_ALIGN, call_index=1, element=(0, 0), shift=6),
            FaultSpec(FaultStage.ACCUMULATOR, call_index=0, element=(5, 1), bit=30),
            FaultSpec(FaultStage.OPERAND, call_index=0, element=(2, 3), seed=9),
        ],
        ids=lambda s: s.stage.value,
    )
    def test_inject_detect_recover(self, operands, spec):
        """The tentpole demonstration: a transient fault at each datapath
        stage is detected, localised, and healed — the guarded output is
        bit-identical to a fault-free run."""
        a, b = operands
        clean = TiledGEMM(M3XU(), MXUMode.FP32).run(a, b)
        unit = FaultyM3XU(spec, M3XU())
        guard = TiledGEMM(unit, MXUMode.FP32, abft=True,
                          abft_config=AbftConfig(tile=8))
        out = guard.run(a, b)
        report = guard.abft_report
        assert report.detected, "the injected fault must trip a checksum"
        assert report.recomputed_tiles >= 1
        np.testing.assert_array_equal(out, clean)

    def test_detection_localises_the_tile(self, operands):
        a, b = operands
        spec = FaultSpec(FaultStage.SIGN_FLIP, call_index=0, element=(13, 17))
        unit = FaultyM3XU(spec, M3XU())
        guard = TiledGEMM(unit, MXUMode.FP32, abft=True,
                          abft_config=AbftConfig(tile=8))
        guard.run(a, b)
        tiles = {d.tile for d in guard.abft_report.detections}
        assert (13 // 8, 17 // 8) in tiles
        rows = {r for d in guard.abft_report.detections for r in d.rows}
        cols = {c for d in guard.abft_report.detections for c in d.cols}
        assert 13 in rows and 17 in cols

    def test_nan_corruption_is_detected(self, operands):
        a, b = operands

        class NaNOnce:
            def __init__(self):
                self.unit = M3XU()
                self.config = self.unit.config
                self.fired = False

            def chain(self, *args, **kwargs):
                out = self.unit.chain(*args, **kwargs)
                if not self.fired:
                    self.fired = True
                    out = np.array(out, copy=True)
                    out[0, 0] = np.nan
                return out

        guard = TiledGEMM(NaNOnce(), MXUMode.FP32, k_chunk=4, abft=True,
                          abft_config=AbftConfig(tile=8))
        clean = TiledGEMM(M3XU(), MXUMode.FP32, k_chunk=4).run(a, b)
        np.testing.assert_array_equal(guard.run(a, b), clean)
        assert guard.abft_report.detected

    def test_persistent_fault_raises_not_corrupts(self, operands):
        a, b = operands

        class AlwaysBad:
            """A stuck-at fault: every MMA corrupts the same element."""

            def __init__(self):
                self.unit = M3XU()
                self.config = self.unit.config

            def chain(self, *args, **kwargs):
                out = np.array(self.unit.chain(*args, **kwargs), copy=True)
                out[2, 2] = -out[2, 2] + 7.0
                return out

        guard = TiledGEMM(AlwaysBad(), MXUMode.FP32, k_chunk=4, abft=True,
                          abft_config=AbftConfig(tile=8, max_rounds=2))
        with pytest.raises(AbftUncorrectedError) as err:
            guard.run(a, b)
        assert err.value.report.recompute_rounds == 2
        assert guard.abft_report is err.value.report

    def test_batched_guard_bit_identical_and_correcting(self, rng):
        a = rng.uniform(-1.0, 1.0, size=(4, 16, 12))
        b = rng.uniform(-1.0, 1.0, size=(4, 12, 10))
        plain = mxu_sgemm(a, b)
        np.testing.assert_array_equal(mxu_sgemm(a, b, abft=True), plain)
        spec = FaultSpec(FaultStage.SIGN_FLIP, call_index=1, element=(2, 3, 4))
        bad_unit = FaultyM3XU(spec, M3XU())
        healed = mxu_sgemm(a, b, mxu=bad_unit, abft=True)
        np.testing.assert_array_equal(healed, plain)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_batched_guard_faulty_unit_collapses_to_serial(self, rng, monkeypatch, workers):
        # The one-shot fault wrapper is stateful: a fan-out would run a
        # pickled copy per worker, firing the fault once per column block
        # against block-local (out-of-range) indices. requires_serial
        # keeps it in process even where the stack would fan out.
        a = rng.uniform(-1.0, 1.0, size=(4, 16, 12))
        b = rng.uniform(-1.0, 1.0, size=(4, 12, 10))
        plain = mxu_sgemm(a, b, workers=1)

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("a requires_serial unit must not fan out")

        monkeypatch.setattr(tiled, "SHARD_MIN_MACS", 1)
        monkeypatch.setattr(tiled, "parallel_map", forbidden)
        spec = FaultSpec(FaultStage.SIGN_FLIP, call_index=1, element=(2, 3, 4))
        bad_unit = FaultyM3XU(spec, M3XU())
        healed = mxu_sgemm(a, b, mxu=bad_unit, abft=True, workers=workers)
        np.testing.assert_array_equal(healed, plain)
        assert bad_unit.fired

    @pytest.mark.parametrize("mode", [MXUMode.FP32, MXUMode.FP32C], ids=["fp32", "fp32c"])
    def test_stacked_guard_bit_identical(self, rng, mode):
        def draw(*shape):
            x = rng.uniform(-1.0, 1.0, size=shape)
            if mode is MXUMode.FP32C:
                x = x + 1j * rng.uniform(-1.0, 1.0, size=shape)
            return x

        # A stack, and one shared A broadcast against a stack of B.
        for a, b in ((draw(3, 8, 12), draw(3, 12, 5)), (draw(8, 12), draw(3, 12, 5))):
            plain = TiledGEMM(M3XU(), mode, abft=False).run(a, b)
            guard = TiledGEMM(M3XU(), mode, abft=True, abft_config=AbftConfig(tile=4))
            assert guard.run(a, b).tobytes() == plain.tobytes()
            assert guard.abft_report.shape == plain.shape == (3, 8, 5)
            assert guard.abft_report.checks == 3
            assert not guard.abft_report.detected

    def test_stacked_report_sums_its_matrices(self, rng):
        # A sign flip in matrix 1 of three: the stack's one report is the
        # three matrices' reports summed, detections in matrix order.
        a = rng.uniform(-1.0, 1.0, size=(3, 16, 12))
        b = rng.uniform(-1.0, 1.0, size=(3, 12, 10))

        def guarded(unit, x, y):
            gemm = TiledGEMM(unit, MXUMode.FP32, k_chunk=4, abft=True,
                             abft_config=AbftConfig(tile=8))
            return gemm.run(x, y), gemm.abft_report

        def flipped(element):
            spec = FaultSpec(FaultStage.SIGN_FLIP, call_index=1, element=element)
            return FaultyM3XU(spec, M3XU())

        got, report = guarded(flipped((1, 3, 4)), a, b)
        parts = [guarded(flipped((3, 4)) if i == 1 else M3XU(), a[i], b[i])
                 for i in range(3)]
        np.testing.assert_array_equal(got, np.stack([out for out, _ in parts]))
        assert report.shape == (3, 16, 10)
        assert report.tile == 8
        assert report.checks == sum(p.checks for _, p in parts) == 4
        assert report.recompute_rounds == sum(p.recompute_rounds for _, p in parts) == 1
        assert report.recomputed_tiles == sum(p.recomputed_tiles for _, p in parts) == 1
        assert report.detections == [d for _, p in parts for d in p.detections]
        assert report.detected

    def test_persistent_fault_in_a_stack_raises(self, rng):
        class AlwaysBad:
            """A stuck-at fault on element (2, 2) of every matrix."""

            def __init__(self):
                self.unit = M3XU()
                self.config = self.unit.config

            def chain(self, *args, **kwargs):
                out = np.array(self.unit.chain(*args, **kwargs), copy=True)
                out[..., 2, 2] = -out[..., 2, 2] + 7.0
                return out

        a = rng.uniform(-1.0, 1.0, size=(2, 16, 12))
        b = rng.uniform(-1.0, 1.0, size=(2, 12, 10))
        guard = TiledGEMM(AlwaysBad(), MXUMode.FP32, k_chunk=4, abft=True,
                          abft_config=AbftConfig(tile=8, max_rounds=2))
        with pytest.raises(AbftUncorrectedError) as err:
            guard.run(a, b)
        assert guard.abft_report is err.value.report
        assert err.value.report.shape == (2, 16, 10)
        assert err.value.report.recompute_rounds == 2

    def test_sdc_threshold_shape_and_positivity(self, operands):
        a, b = operands
        thr = sdc_threshold(a, b, np.zeros((24, 20)), 2.0**-23,
                            AbftConfig(tile=8))
        assert thr.shape == (24, 20)
        assert np.all(thr > 0)


# ----------------------------------------------------------------------
# Fault-injection campaign
# ----------------------------------------------------------------------
class TestCampaign:
    def test_200_trials_zero_undetected_sdc(self):
        """The acceptance criterion: >= 200 randomized single-fault trials
        across every datapath stage, none escaping the guard silently."""
        result = run_campaign(CampaignConfig(trials=200, seed=31))
        assert len(result.records) == 200
        assert result.undetected_sdc == 0
        assert {r.stage for r in result.records} == {
            "operand", "accumulator", "shift_align", "sign_flip"
        }
        counts = result.counts
        assert counts["sdc"] == 0 and counts["detected_uncorrected"] == 0
        # the campaign is not vacuous: plenty of faults were big enough
        # to need detection + correction
        assert counts["detected_corrected"] >= 50

    def test_complex_mode_campaign(self):
        result = run_campaign(CampaignConfig(trials=60, seed=5, mode="fp32c"))
        assert result.undetected_sdc == 0
        assert len(result.records) == 60

    def test_deterministic_for_a_seed(self):
        cfg = CampaignConfig(trials=16, seed=77)
        assert run_campaign(cfg).records == run_campaign(cfg).records

    def test_summary_and_render(self):
        result = run_campaign(CampaignConfig(trials=8, seed=1))
        summary = result.summary()
        assert summary["trials"] == 8
        assert sum(summary["counts"].values()) == 8
        text = result.render()
        assert "undetected SDC events: 0" in text

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(mode="fp16")
        with pytest.raises(ValueError):
            CampaignConfig(stages=())


# ----------------------------------------------------------------------
# Retry jitter
# ----------------------------------------------------------------------
class TestJitterDeterminism:
    """Regression: retry-backoff jitter must be seeded (lint rule DT203).

    The jitter RNG used to be ``Random()`` — OS entropy — which made
    failure-schedule timing unreplayable. ``RetryPolicy.jitter_rng()``
    now derives from an explicit seed threaded like every other random
    source in the repo.
    """

    def test_jitter_rng_replays_bit_identically(self):
        from repro.resilience.failures import RetryPolicy

        policy = RetryPolicy(retries=3, backoff=0.5)
        a, b = policy.jitter_rng(), policy.jitter_rng()
        delays_a = [policy.delay(k, a) for k in range(1, 6)]
        delays_b = [policy.delay(k, b) for k in range(1, 6)]
        assert delays_a == delays_b

    def test_distinct_seeds_give_distinct_schedules(self):
        from repro.resilience.failures import RetryPolicy

        base = RetryPolicy(retries=3, backoff=0.5)
        other = RetryPolicy(retries=3, backoff=0.5, seed=7)
        da = [base.delay(k, base.jitter_rng()) for k in (1, 2)]
        db = [other.delay(k, other.jitter_rng()) for k in (1, 2)]
        assert da != db

    def test_resolve_policy_threads_seed(self):
        from repro.resilience.failures import resolve_policy

        assert resolve_policy(retries=2).seed == resolve_policy(retries=2).seed
        assert resolve_policy(retries=2, seed=99).seed == 99

    def test_delay_bounds_hold(self):
        from repro.resilience.failures import MAX_BACKOFF, RetryPolicy

        policy = RetryPolicy(retries=5, backoff=0.25, jitter=0.25)
        rng = policy.jitter_rng()
        for attempt in range(1, 10):
            d = policy.delay(attempt, rng)
            base = min(0.25 * 2.0 ** (attempt - 1), MAX_BACKOFF)
            assert base <= d <= base * 1.25

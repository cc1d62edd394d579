"""Fault injection: the data-assignment buffers are not uniformly critical."""

import numpy as np
import pytest

from repro.gemm import TiledGEMM
from repro.mxu import (
    BitLevelMXU,
    FaultSite,
    FaultSpec,
    FaultStage,
    FaultyM3XU,
    M3XU,
    MXUMode,
    TensorCoreMXU,
    inject_operand_fault,
    inject_register_fault,
    inject_shift_align_fault,
    inject_sign_flip_fault,
    slice_fault_study,
)
from repro.types import FP32, TF32, quantize, representable


class TestInjection:
    def test_flip_is_involution(self, rng):
        x = quantize(rng.normal(size=(3, 3)), FP32)
        once = inject_operand_fault(x, (1, 2), FaultSite.LOW_SLICE, 5)
        twice = inject_operand_fault(once, (1, 2), FaultSite.LOW_SLICE, 5)
        np.testing.assert_array_equal(twice, x)

    def test_only_target_element_changes(self, rng):
        x = quantize(rng.normal(size=(4, 4)), FP32)
        bad = inject_operand_fault(x, (0, 0), FaultSite.HIGH_SLICE, 3)
        assert bad[0, 0] != x[0, 0]
        np.testing.assert_array_equal(bad[1:], x[1:])

    def test_sign_flip_negates(self):
        x = np.array([[2.5]])
        bad = inject_operand_fault(x, (0, 0), FaultSite.SIGN, 0)
        assert bad[0, 0] == -2.5

    def test_low_slice_perturbation_bounded(self, rng):
        # A low-slice upset moves the value by < 2^-11 of its magnitude.
        x = quantize(np.abs(rng.normal(size=(8,))) + 0.5, FP32)
        for bit in range(12):
            bad = inject_operand_fault(x, (3,), FaultSite.LOW_SLICE, bit)
            assert abs(bad[3] - x[3]) < abs(x[3]) * 2.0**-11

    def test_exponent_flip_catastrophic(self):
        x = np.array([1.0])
        bad = inject_operand_fault(x, (0,), FaultSite.EXPONENT, 7)
        assert abs(bad[0]) != 1.0 and (abs(bad[0]) > 1e30 or abs(bad[0]) < 1e-30)

    def test_bit_range_validation(self):
        with pytest.raises(ValueError):
            inject_operand_fault(np.array([1.0]), (0,), FaultSite.SIGN, 1)
        with pytest.raises(ValueError):
            inject_operand_fault(np.array([1.0]), (0,), FaultSite.LOW_SLICE, 12)


class TestStudy:
    @pytest.fixture(scope="class")
    def impacts(self):
        return {fi.site: fi for fi in slice_fault_study(trials=12)}

    def test_criticality_ordering(self, impacts):
        # sign/exponent upsets dwarf high-slice upsets, which dwarf
        # low-slice ones (low exponent bits flip the value by only ~2x,
        # so the exponent/sign order between themselves is draw-dependent).
        hi = impacts[FaultSite.HIGH_SLICE].max_rel_output_error
        lo = impacts[FaultSite.LOW_SLICE].max_rel_output_error
        assert impacts[FaultSite.EXPONENT].max_rel_output_error > hi
        assert impacts[FaultSite.SIGN].max_rel_output_error > hi
        assert hi > lo

    def test_low_slice_upsets_negligible(self, impacts):
        # Bounded by the slice's 2^-12 positional weight (times K-way
        # dilution in the dot product).
        assert impacts[FaultSite.LOW_SLICE].max_rel_output_error < 1e-3

    def test_all_sites_reported(self, impacts):
        assert set(impacts) == set(FaultSite)


class TestStageInjectors:
    """The new datapath-stage injectors behind the campaign engine."""

    def test_register_fault_is_involution(self, rng):
        x = quantize(rng.normal(size=(3, 3)), FP32)
        once = inject_register_fault(x, (2, 1), 7)
        twice = inject_register_fault(once, (2, 1), 7)
        np.testing.assert_array_equal(twice, x)
        assert once[2, 1] != x[2, 1]
        np.testing.assert_array_equal(once[:2], x[:2])

    def test_register_fault_bit_range_validated(self):
        x = np.array([1.0])
        with pytest.raises(ValueError):
            inject_register_fault(x, (0,), 32)  # FP32 is 32 bits wide: 0..31
        with pytest.raises(ValueError):
            inject_register_fault(x, (0,), -1)
        # top bit (31) is the sign in FP32
        assert inject_register_fault(x, (0,), 31)[0] == -1.0

    def test_register_fault_respects_format(self):
        # In FP64 the sign lives at bit 63, not 31.
        x = np.array([1.0])
        from repro.types import FP64

        assert inject_register_fault(x, (0,), 63, FP64)[0] == -1.0
        assert inject_register_fault(x, (0,), 31, FP64)[0] != -1.0

    def test_shift_align_fault_scales_by_power_of_two(self, rng):
        x = quantize(rng.normal(size=(4,)), FP32)
        for shift in (-3, -1, 1, 4):
            bad = inject_shift_align_fault(x, (2,), shift)
            assert bad[2] == x[2] * 2.0**shift
            np.testing.assert_array_equal(bad[:2], x[:2])

    def test_sign_flip_fault_negates_only_target(self, rng):
        x = quantize(rng.normal(size=(4,)), FP32)
        bad = inject_sign_flip_fault(x, (1,))
        assert bad[1] == -x[1]
        np.testing.assert_array_equal(bad[2:], x[2:])


class TestFaultyM3XU:
    def test_fires_exactly_once_at_call_index(self, rng):
        a = quantize(rng.normal(size=(4, 4)), FP32)
        b = quantize(rng.normal(size=(4, 4)), FP32)
        clean = M3XU().mma_fp32(a, b, 0.0)
        spec = FaultSpec(stage=FaultStage.SIGN_FLIP, call_index=1, seed=5)
        faulty = FaultyM3XU(spec)
        first = faulty.mma_fp32(a, b, 0.0)   # call 0: clean
        second = faulty.mma_fp32(a, b, 0.0)  # call 1: corrupted
        third = faulty.mma_fp32(a, b, 0.0)   # call 2: clean again
        np.testing.assert_array_equal(first, clean)
        np.testing.assert_array_equal(third, clean)
        assert not np.array_equal(second, clean)
        assert faulty.fired and faulty.calls == 3

    def test_injected_spec_resolves_randomness(self, rng):
        a = quantize(rng.normal(size=(3, 3)), FP32)
        b = quantize(rng.normal(size=(3, 3)), FP32)
        spec = FaultSpec(stage=FaultStage.OPERAND, seed=9)
        faulty = FaultyM3XU(spec)
        assert faulty.injected is None
        faulty.mma_fp32(a, b, 0.0)
        resolved = faulty.injected
        assert resolved is not None
        assert resolved.element is not None and resolved.site is not None
        assert resolved.bit is not None
        assert "call=0" in resolved.describe()

    def test_operand_fault_is_deterministic_per_seed(self, rng):
        a = quantize(rng.normal(size=(4, 4)), FP32)
        b = quantize(rng.normal(size=(4, 4)), FP32)
        spec = FaultSpec(stage=FaultStage.OPERAND, seed=17)
        one = FaultyM3XU(spec).mma_fp32(a, b, 0.0)
        two = FaultyM3XU(spec).mma_fp32(a, b, 0.0)
        np.testing.assert_array_equal(one, two)

    def test_accumulator_fault_corrupts_single_output(self, rng):
        a = quantize(rng.normal(size=(4, 4)), FP32)
        b = quantize(rng.normal(size=(4, 4)), FP32)
        clean = M3XU().mma_fp32(a, b, 0.0)
        spec = FaultSpec(
            stage=FaultStage.ACCUMULATOR, element=(1, 2), bit=30, seed=3
        )
        dirty = FaultyM3XU(spec).mma_fp32(a, b, 0.0)
        diff = dirty != clean
        assert diff[1, 2] and diff.sum() == 1

    def test_shift_align_fault_through_mma(self, rng):
        a = quantize(rng.normal(size=(4, 4)), FP32)
        b = quantize(rng.normal(size=(4, 4)), FP32)
        clean = M3XU().mma_fp32(a, b, 0.0)
        spec = FaultSpec(
            stage=FaultStage.SHIFT_ALIGN, element=(0, 0), shift=2, seed=3
        )
        dirty = FaultyM3XU(spec).mma_fp32(a, b, 0.0)
        assert dirty[0, 0] == clean[0, 0] * 4.0
        np.testing.assert_array_equal(dirty[1:], clean[1:])

    def test_delegates_configuration(self):
        unit = M3XU()
        faulty = FaultyM3XU(FaultSpec(stage=FaultStage.OPERAND), unit)
        assert faulty.config is unit.config
        assert faulty.supported_modes() == unit.supported_modes()
        from repro.mxu import MXUMode

        assert faulty.steps(MXUMode.FP32) == unit.steps(MXUMode.FP32)
        assert faulty.output_format(MXUMode.FP32) is unit.output_format(MXUMode.FP32)

    def test_operand_fault_reaches_chain_in_input_format(self, rng):
        # The data-assignment stage converts the corrupted entry like any
        # operand, so the wrapped unit's chain still receives TF32 values.
        seen = []

        class Spy(TensorCoreMXU):
            def chain(self, a, b, *args, **kwargs):
                seen.append(bool(np.all(representable(a, TF32))))
                return super().chain(a, b, *args, **kwargs)

        a = quantize(rng.normal(size=(4, 32)), TF32)
        b = quantize(rng.normal(size=(32, 4)), TF32)
        spec = FaultSpec(
            stage=FaultStage.OPERAND, call_index=1, site=FaultSite.LOW_SLICE, bit=11
        )
        unit = FaultyM3XU(spec, Spy())
        TiledGEMM(unit, MXUMode.TF32, abft=False).run(a, b)
        # Four MMAs (TF32 K = 8) in three unit calls: MMA 0, the armed
        # MMA 1 alone, then MMAs 2-3.
        assert unit.fired and unit.calls == 4 and len(seen) == 3 and all(seen)

    def test_complex_mode_corruption(self, rng):
        a = quantize(rng.normal(size=(4, 4)), FP32) + 1j * quantize(
            rng.normal(size=(4, 4)), FP32
        )
        b = quantize(rng.normal(size=(4, 4)), FP32) + 1j * quantize(
            rng.normal(size=(4, 4)), FP32
        )
        clean = M3XU().mma_fp32c(a, b, 0.0)
        spec = FaultSpec(stage=FaultStage.SIGN_FLIP, element=(2, 3), seed=11)
        dirty = FaultyM3XU(spec).mma_fp32c(a, b, 0.0)
        diff = dirty != clean
        assert diff[2, 3] and diff.sum() == 1


@pytest.mark.parametrize("mode", [MXUMode.FP32, MXUMode.FP32C])
@pytest.mark.parametrize(
    "stage, level",
    # The value-level model has no product significands to corrupt.
    [(s, lv) for s in FaultStage for lv in ("value", "bit")
     if (s, lv) != (FaultStage.PRODUCT, "value")],
)
def test_chain_runs_in_at_most_three_unit_calls(rng, mode, stage, level):
    """A chain through the wrapper is one unit call when the armed fault
    does not name one of its MMAs, else at most three; it counts every
    MMA and equals the wrapper applied one MMA at a time."""
    base = BitLevelMXU() if level == "bit" else M3XU()
    widths = []

    class Spy(type(base)):
        def chain(self, a, b, *args, **kwargs):
            widths.append(a.shape[-1])
            return super().chain(a, b, *args, **kwargs)

    k_chunk = M3XU().config.tile(mode).k
    n_mma = 5
    shapes = ((6, n_mma * k_chunk), (n_mma * k_chunk, 5), (6, 5))
    a, b, c = (quantize(rng.normal(size=s), FP32) for s in shapes)
    if mode is MXUMode.FP32C:
        a, b, c = (x + 1j * quantize(rng.normal(size=x.shape), FP32) for x in (a, b, c))
    for armed in (0, 2, n_mma - 1, n_mma):  # first, middle, last, beyond
        spec = FaultSpec(stage, call_index=armed, seed=armed + 7)
        widths.clear()
        unit = FaultyM3XU(spec, Spy())
        got = unit.chain(a, b, c, mode, k_chunk)
        # The reference: every MMA its own instruction.
        ref = FaultyM3XU(spec, base)
        want, c_quantized = c, False
        for k0 in range(0, n_mma * k_chunk, k_chunk):
            want = ref._instruction(
                base.chain, a[:, k0 : k0 + k_chunk], b[k0 : k0 + k_chunk], want,
                mode, c_quantized=c_quantized,
            )
            c_quantized = True
        assert got.tobytes() == want.tobytes(), armed
        assert unit.injected == ref.injected
        assert len(widths) == (1 if armed == n_mma else 3 if 0 < armed < n_mma - 1 else 2)
        assert sum(widths) == n_mma * k_chunk
        assert unit.calls == ref.calls == n_mma
        assert unit.fired == (armed < n_mma)

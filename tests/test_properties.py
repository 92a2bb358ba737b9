"""Cross-module property-based tests (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arithmetic.slicing import Slicing, enumerate_slicings
from repro.core.center_offset import (
    CenterOffsetEncoder,
    WeightEncoding,
    optimal_center,
)
from repro.core.dynamic_input import (
    InputSlicePlan,
    SpeculationMode,
    extract_input_slice,
)
from repro.core.executor import PimLayerConfig, PimLayerExecutor
from repro.nn.layers import Linear, TensorQuant

slicing_strategy = st.sampled_from(
    [Slicing((4, 4)), Slicing((4, 2, 2)), Slicing((2, 2, 2, 2)), Slicing((3, 3, 2))]
)

code_matrix_strategy = st.integers(min_value=0, max_value=10_000).map(
    lambda seed: np.random.default_rng(seed).integers(0, 256, size=(24, 3))
)


class TestEncodingProperties:
    @given(code_matrix_strategy, slicing_strategy)
    @settings(max_examples=25, deadline=None)
    def test_center_offset_encoding_roundtrips(self, codes, slicing):
        encoder = CenterOffsetEncoder(slicing, WeightEncoding.CENTER_OFFSET)
        encoded = encoder.encode(codes)
        assert np.array_equal(encoded.reconstruct_codes(), codes)

    @given(code_matrix_strategy, slicing_strategy)
    @settings(max_examples=25, deadline=None)
    def test_unsigned_encoding_roundtrips(self, codes, slicing):
        encoder = CenterOffsetEncoder(slicing, WeightEncoding.UNSIGNED)
        encoded = encoder.encode(codes)
        assert np.array_equal(encoded.reconstruct_codes(), codes)

    @given(code_matrix_strategy, slicing_strategy)
    @settings(max_examples=25, deadline=None)
    def test_slice_values_respect_device_range(self, codes, slicing):
        encoded = CenterOffsetEncoder(slicing).encode(codes)
        for i, width in enumerate(slicing.widths):
            assert encoded.positive_slices[i].max() < (1 << width)
            assert encoded.negative_slices[i].max() < (1 << width)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_optimal_center_never_worse_than_midpoint(self, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 256, size=128)
        slicing = Slicing((4, 2, 2))
        from repro.core.center_offset import _slice_column_cost

        center = optimal_center(codes, slicing)
        assert _slice_column_cost(codes - center, slicing, 4.0) <= _slice_column_cost(
            codes - 128, slicing, 4.0
        )


class TestInputPlanProperties:
    @given(
        st.sampled_from([Slicing((4, 2, 2)), Slicing((2, 2, 2, 2)), Slicing((4, 4))])
    )
    @settings(max_examples=20, deadline=None)
    def test_speculative_plans_cover_all_bits_once(self, spec_slicing):
        plan = InputSlicePlan.build(speculative_slicing=spec_slicing)
        spec_bits = set()
        recovery_bits = set()
        for phase in plan.phases:
            bits = set(range(phase.shift, phase.shift + phase.width))
            if phase.kind == "speculative":
                assert not (spec_bits & bits)
                spec_bits |= bits
            else:
                assert not (recovery_bits & bits)
                recovery_bits |= bits
        assert spec_bits == set(range(8))
        assert recovery_bits == set(range(8))

    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_serial_slices_reassemble_inputs(self, values):
        plan = InputSlicePlan.build(mode=SpeculationMode.BIT_SERIAL)
        arr = np.asarray(values)
        total = sum(extract_input_slice(arr, p) << p.shift for p in plan.phases)
        assert np.array_equal(total, arr)


class TestExecutorProperties:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([s for s in enumerate_slicings(8, 4) if s.n_slices <= 4]),
    )
    @settings(max_examples=15, deadline=None)
    def test_wide_adc_execution_is_exact_for_any_slicing(self, seed, slicing):
        rng = np.random.default_rng(seed)
        layer = Linear("prop_fc", rng.normal(0, 0.2, size=(3, 12)), fuse_relu=True)
        inputs = np.abs(rng.normal(0, 1, size=(12, 12)))
        layer.calibrate(inputs, layer.forward_float(inputs))
        patches = layer.input_quant.quantize(inputs)
        executor = PimLayerExecutor(
            layer, PimLayerConfig(adc_bits=16, weight_slicing=slicing)
        )
        assert np.allclose(executor.matmul(patches), patches @ layer.weight_codes)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_narrow_adc_error_is_bounded_by_saturation_distance(self, seed):
        rng = np.random.default_rng(seed)
        layer = Linear("prop_fc2", rng.normal(0, 0.15, size=(4, 16)), fuse_relu=True)
        inputs = np.abs(rng.normal(0, 1, size=(8, 16)))
        layer.calibrate(inputs, layer.forward_float(inputs))
        patches = layer.input_quant.quantize(inputs)
        executor = PimLayerExecutor(layer, PimLayerConfig(adc_bits=7))
        approx = executor.matmul(patches)
        exact = patches @ layer.weight_codes
        # The executor can only under-estimate magnitudes (saturation clamps
        # toward the ADC bounds); errors never exceed the exact magnitude.
        assert np.all(np.abs(approx) <= np.abs(exact) + 64 * 255)


class TestTensorQuantProperties:
    @given(
        st.floats(min_value=0.001, max_value=5.0),
        st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=40, deadline=None)
    def test_quantize_is_idempotent_on_grid(self, scale, zero_point):
        quant = TensorQuant(scale=scale, zero_point=zero_point)
        codes = np.arange(0, 256, 15)
        values = quant.dequantize(codes)
        assert np.array_equal(quant.quantize(values), codes)


class TestCompiledPlanPhaseProperties:
    """The compiled plan's fast path vs the per-phase reference executor.

    The planned kernel extracts phases from shift/mask tables in a narrow
    dtype, tiles the batch over M and regroups every ADC, speculation and
    scale-sum stage; for every slicing and speculation mode it must still
    reproduce :class:`PimLayerExecutor` -- outputs and every statistics
    counter -- exactly, or the fast path silently feeds wrong DAC values.
    """

    phase_slicing_strategy = st.sampled_from(
        [Slicing((4, 2, 2)), Slicing((4, 4)), Slicing((2, 2, 2, 2)), Slicing((3, 3, 2))]
    )
    mode_strategy = st.sampled_from(
        [SpeculationMode.SPECULATIVE, SpeculationMode.BIT_SERIAL]
    )

    @staticmethod
    def _build_plan(mode, slicing):
        if mode is SpeculationMode.BIT_SERIAL:
            return InputSlicePlan.build(mode=mode, serial_slicing=slicing)
        return InputSlicePlan.build(mode=mode, speculative_slicing=slicing)

    @given(
        st.integers(min_value=0, max_value=10_000),
        phase_slicing_strategy,
        mode_strategy,
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=20, deadline=None)
    def test_planned_kernel_matches_reference(self, seed, slicing, mode, m):
        from repro.runtime.vectorized import VectorizedLayerExecutor

        from tests.test_runtime_engine import assert_stats_equal

        rng = np.random.default_rng(seed)
        layer = Linear("prop_plan_fc", rng.normal(0, 0.15, size=(4, 12)))
        inputs = np.abs(rng.normal(0, 1, size=(6, 12)))
        layer.calibrate(inputs, layer.forward_float(inputs))
        config = (
            PimLayerConfig(speculation=mode, serial_input_slicing=slicing)
            if mode is SpeculationMode.BIT_SERIAL
            else PimLayerConfig(speculation=mode, speculative_input_slicing=slicing)
        )
        planned = VectorizedLayerExecutor(layer, config)
        reference = PimLayerExecutor(layer, config)
        codes = rng.integers(0, 256, size=(m, 12))
        assert np.array_equal(planned.matmul(codes), reference.matmul(codes))
        assert_stats_equal(planned.stats, reference.stats)

    @given(
        st.integers(min_value=0, max_value=10_000),
        phase_slicing_strategy,
        mode_strategy,
    )
    @settings(max_examples=20, deadline=None)
    def test_tables_match_per_phase_slice_extraction(self, seed, slicing, mode):
        plan = self._build_plan(mode, slicing)
        codes = np.random.default_rng(seed).integers(0, 256, size=(5, 9))
        shifts = np.array([phase.shift for phase in plan.phases], dtype=np.int64)
        masks = np.array(
            [(1 << phase.width) - 1 for phase in plan.phases], dtype=np.int64
        )
        tabled = (codes[np.newaxis, :, :] >> shifts[:, None, None]) & (
            masks[:, None, None]
        )
        stacked = np.stack([extract_input_slice(codes, phase) for phase in plan.phases])
        assert np.array_equal(tabled, stacked)
        # Every input bit is consumed exactly once by the plan's phases
        # (recovery phases re-read speculative bits, which double-counts by
        # design in speculative mode).
        if mode is SpeculationMode.BIT_SERIAL:
            reassembled = (tabled << shifts[:, None, None]).sum(axis=0)
            assert np.array_equal(reassembled, codes)


@st.composite
def fuzz_case(draw):
    """One layer configuration, noise model, dtype and batch for the fuzzer."""
    mode = draw(st.sampled_from(list(SpeculationMode)))
    input_slicing = draw(slicing_strategy)
    encoding = draw(st.sampled_from(list(WeightEncoding)))
    config = PimLayerConfig(
        crossbar_rows=draw(st.sampled_from([5, 7, 512])),
        # 3-4 bit rails saturate recovery phases too: fidelity losses.
        adc_bits=draw(st.integers(min_value=3, max_value=9)),
        adc_signed=encoding is not WeightEncoding.UNSIGNED,
        weight_encoding=encoding,
        weight_slicing=draw(slicing_strategy),
        speculation=mode,
        **(
            {"serial_input_slicing": input_slicing}
            if mode is SpeculationMode.BIT_SERIAL
            else {"speculative_input_slicing": input_slicing}
        ),
        collect_column_sums=draw(st.booleans()),
        max_column_sum_samples=draw(st.sampled_from([7, 60, 200_000])),
    )
    noise = draw(
        st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from([0.0, 0.02, 0.1]),
                st.integers(min_value=0, max_value=2**16),
            ),
        )
    )
    tile = draw(st.integers(min_value=1, max_value=6))
    batches = draw(st.lists(st.integers(1, 3 * tile + 2), min_size=1, max_size=2))
    return {
        "seed": draw(st.integers(min_value=0, max_value=10_000)),
        "config": config,
        "noise": noise,
        "force_float64": draw(st.booleans()),
        "signed": draw(st.booleans()),
        "tile": tile,
        "batches": batches,
    }


class TestDifferentialFuzz:
    """The one production kernel vs the per-phase oracle, over random cases.

    Every case runs one or two batches through a
    :class:`~repro.runtime.VectorizedLayerExecutor` (with the tile height
    forced small, so M crosses tile boundaries) and through
    :class:`PimLayerExecutor`, then demands bit-identical outputs, every
    :class:`~repro.core.executor.LayerStatistics` field, the collected
    column sums and the seeded noise stream's position.
    """

    @given(fuzz_case())
    @settings(max_examples=120, deadline=None)
    def test_kernel_matches_oracle(self, case):
        from dataclasses import fields
        from unittest import mock

        from repro.analog.noise import GaussianColumnNoise
        from repro.core.executor import LayerStatistics
        from repro.runtime import plan as plan_module
        from repro.runtime import vectorized
        from repro.runtime.vectorized import VectorizedLayerExecutor

        rng = np.random.default_rng(case["seed"])
        n_in = 16
        layer = Linear("fuzz_fc", rng.normal(0, 0.2, size=(5, n_in)))
        inputs = rng.normal(0, 1, size=(8, n_in))
        layer.calibrate(np.abs(inputs), layer.forward_float(np.abs(inputs)))

        def noise_model():
            if case["noise"] is None:
                return None
            level, seed = case["noise"]
            return GaussianColumnNoise(level, seed=seed)

        config = case["config"]
        if case["force_float64"]:
            # No chunk proves float32-exact: every GEMM falls back to float64.
            with mock.patch.object(plan_module, "_FLOAT32_EXACT_LIMIT", 0):
                kernel = VectorizedLayerExecutor(layer, config, noise=noise_model())
            assert set(kernel.gemm_dtypes) == {np.float64}
        else:
            kernel = VectorizedLayerExecutor(layer, config, noise=noise_model())
        oracle = PimLayerExecutor(layer, config, noise=noise_model())
        plan = kernel.layer_plan
        row_bytes = plan.n_phases * plan.n_slices * plan.n_filters * 8
        low = -255 if case["signed"] else 0
        with mock.patch.object(
            vectorized, "PLANNED_TILE_BYTES", case["tile"] * row_bytes
        ):
            for m in case["batches"]:
                codes = rng.integers(low, 256, size=(m, n_in))
                assert np.array_equal(kernel.matmul(codes), oracle.matmul(codes))

        for stat in fields(LayerStatistics):
            if stat.name != "column_sums":
                name = stat.name
                assert getattr(kernel.stats, name) == getattr(oracle.stats, name), name
        assert set(kernel.stats.column_sums) == set(oracle.stats.column_sums)
        for kind in oracle.stats.column_sums:
            assert np.array_equal(
                kernel.stats.column_sum_array(kind), oracle.stats.column_sum_array(kind)
            )
        probe = (np.full(8, 100.0), np.zeros(8))
        assert np.array_equal(kernel.noise.apply(*probe), oracle.noise.apply(*probe))

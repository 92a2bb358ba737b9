"""Tests for compiled execution plans (:mod:`repro.runtime.plan`).

Three layers of guarantees:

* **artifact** -- a :class:`CompiledLayerPlan` is a faithful, pickle-able
  freeze of one executor's derivation: executing it (fresh, or after a
  pickle round trip, in either GEMM dtype, noisy or collecting column sums,
  at any tile height) changes no output bit, no statistics counter,
  no collected column sum and no seeded noise draw relative to the
  per-phase :class:`PimLayerExecutor` oracle;
* **cache** -- the registry's fingerprint-keyed :class:`ModelPlanCache`
  reuses the *same* plan object across re-registrations that change only
  the hosting (thread<->process backend swap, rolling ``replace``) and
  compiles a fresh one when the :class:`PimLayerConfig` or the weights
  actually change;
* **transport** -- a plan shipped inside an :class:`EngineSpec` boots a
  replica worker to bit-identical outputs.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.analog.noise import GaussianColumnNoise, NoiselessModel
from repro.arithmetic.slicing import Slicing
from repro.core.dynamic_input import SpeculationMode
from repro.core.executor import PimLayerConfig, PimLayerExecutor
from repro.runtime import (
    ExecutorPool,
    ModelPlan,
    NetworkEngine,
    ReplicaPool,
    VectorizedLayerExecutor,
    compile_model_plan,
)
from repro.runtime import plan as plan_module
from repro.runtime import vectorized
from repro.serve import ModelRegistry

from tests.test_runtime_engine import (
    PARITY_CONFIGS,
    assert_stats_equal,
    signed_layer_and_patches,  # noqa: F401  (fixture)
)


def planned_and_reference(layer, config):
    """A (planned, per-phase oracle) executor pair for the same layer/config."""
    planned = VectorizedLayerExecutor(layer, config)
    reference = PimLayerExecutor(layer, config)
    return planned, reference, planned.layer_plan


class TestCompiledLayerPlan:
    @pytest.mark.parametrize("name", sorted(PARITY_CONFIGS))
    def test_planned_outputs_and_stats_bit_identical(
        self, name, tiny_linear_layer, tiny_patches
    ):
        config = PARITY_CONFIGS[name]
        planned, reference, _ = planned_and_reference(tiny_linear_layer, config)
        assert np.array_equal(
            planned.matmul(tiny_patches), reference.matmul(tiny_patches)
        )
        assert_stats_equal(planned.stats, reference.stats)

    def test_plan_survives_pickle(self, tiny_linear_layer, tiny_patches):
        config = PARITY_CONFIGS["raella"]
        _, reference, plan = planned_and_reference(tiny_linear_layer, config)
        revived = pickle.loads(pickle.dumps(plan))
        assert revived is not plan
        seeded = VectorizedLayerExecutor(tiny_linear_layer, config, plan=revived)
        assert seeded.layer_plan is revived
        assert np.array_equal(
            seeded.matmul(tiny_patches), reference.matmul(tiny_patches)
        )
        assert_stats_equal(seeded.stats, reference.stats)

    def test_adopt_rejects_mismatched_layer_or_config(self, tiny_linear_layer, rng):
        from repro.nn.layers import Linear
        from repro.nn.synthetic import synthetic_linear_weights

        other_layer = Linear("other_fc", synthetic_linear_weights(5, 16, rng))
        inputs = np.abs(rng.normal(0, 1, size=(32, 16)))
        other_layer.calibrate(inputs, other_layer.forward_float(inputs))
        plan = VectorizedLayerExecutor(tiny_linear_layer, PimLayerConfig()).layer_plan
        with pytest.raises(ValueError, match="plan"):
            VectorizedLayerExecutor(other_layer, PimLayerConfig(), plan=plan)
        changed = PimLayerConfig(adc_bits=9)
        with pytest.raises(ValueError, match="plan"):
            VectorizedLayerExecutor(tiny_linear_layer, changed, plan=plan)
        assert plan.matches(tiny_linear_layer, PimLayerConfig())
        assert not plan.matches(tiny_linear_layer, changed)

    def test_phase_table_shapes(self, tiny_linear_layer):
        serial = PimLayerConfig(
            speculation=SpeculationMode.BIT_SERIAL,
            serial_input_slicing=Slicing((2, 2, 2, 2)),
        )
        plan = VectorizedLayerExecutor(tiny_linear_layer, serial).layer_plan
        assert plan.n_phases == 4
        assert plan.spec_indices.size == 0
        assert plan.mode is SpeculationMode.BIT_SERIAL


#: Tile height the tiling tests force on the planned kernel.
TILE = 5


def force_tile_rows(monkeypatch, executor, rows: int = TILE) -> None:
    """Shrink the planned kernel's byte budget to ``rows`` float32 rows.

    Float64 chunks then get ``rows // 2`` rows per tile.
    """
    plan = executor.layer_plan
    row_bytes = plan.n_phases * plan.n_slices * plan.n_filters * 4
    monkeypatch.setattr(vectorized, "PLANNED_TILE_BYTES", rows * row_bytes)
    assert vectorized.planned_tile_rows(plan, np.float32) == rows


#: Seed of every seeded noise model the tiling tests build.
NOISE_SEED = 11

#: name -> (config, Gaussian noise level or ``None`` for a noiseless layer).
#: The parity configs with column-sum collection off (tiled over M) and on
#: (one full-M tile), a 4-bit ADC whose recovery phases saturate, so every
#: fidelity-loss counter is exercised, and seeded noise (one full-M tile)
#: in speculative mode collecting column sums and in bit-serial mode.
TILING_CONFIGS = {
    **{
        name: (config.with_changes(collect_column_sums=False), None)
        for name, config in PARITY_CONFIGS.items()
    },
    **{
        f"{name}_column_sums": (config.with_changes(collect_column_sums=True), None)
        for name, config in PARITY_CONFIGS.items()
    },
    "raella_adc4": (PimLayerConfig(adc_bits=4), None),
    "raella_noise0": (PARITY_CONFIGS["raella"], 0.0),
    "raella_noise5": (PARITY_CONFIGS["raella"], 0.05),
    "isaac_noise5": (PARITY_CONFIGS["isaac"], 0.05),
}


def seeded_noise(level: float | None) -> GaussianColumnNoise | None:
    """A fresh seeded noise model (``None`` for noiseless)."""
    return None if level is None else GaussianColumnNoise(level, seed=NOISE_SEED)


def assert_noise_streams_aligned(planned_noise, reference_noise) -> None:
    """Both seeded noise streams stopped at the same position."""
    if planned_noise is None:
        assert reference_noise is None
        return
    probe = (np.full(8, 100.0), np.zeros(8))
    assert np.array_equal(planned_noise.apply(*probe), reference_noise.apply(*probe))


def assert_planned_matches_reference(planned, layer, config, codes, level=None):
    """Planned executor vs the per-phase oracle, bit for bit.

    Outputs, every statistics counter, the collected column sums and the
    seeded noise stream's next draw.
    """
    reference = PimLayerExecutor(layer, config, noise=seeded_noise(level))
    assert np.array_equal(planned.matmul(codes), reference.matmul(codes))
    assert_stats_equal(planned.stats, reference.stats)
    if level is not None:
        assert_noise_streams_aligned(planned.noise, reference.noise)


class TestPlannedTiling:
    """The one kernel at every tile boundary, bit for bit."""

    @pytest.mark.parametrize("name", sorted(TILING_CONFIGS))
    @pytest.mark.parametrize("m", [1, TILE - 1, TILE, TILE + 1, 3 * TILE + 2])
    def test_tile_boundaries_match_reference(
        self, monkeypatch, name, m, tiny_linear_layer, tiny_patches
    ):
        config, level = TILING_CONFIGS[name]
        planned = VectorizedLayerExecutor(
            tiny_linear_layer, config, noise=seeded_noise(level)
        )
        force_tile_rows(monkeypatch, planned)
        assert_planned_matches_reference(
            planned, tiny_linear_layer, config, tiny_patches[:m], level
        )

    def test_narrow_adc_exercises_recovery_losses(
        self, tiny_linear_layer, tiny_patches
    ):
        config, _ = TILING_CONFIGS["raella_adc4"]
        reference = PimLayerExecutor(tiny_linear_layer, config)
        reference.matmul(tiny_patches[: 3 * TILE + 2])
        assert reference.stats.adc_converts_recovery > 0
        assert reference.stats.fidelity_loss_events > 0

    def test_default_budget_multi_tile(self, tiny_linear_layer, rng):
        config = PimLayerConfig()
        planned = VectorizedLayerExecutor(tiny_linear_layer, config)
        tile = vectorized.planned_tile_rows(planned.layer_plan, planned.gemm_dtypes[0])
        codes = rng.integers(0, 256, size=(2 * tile + 3, 24))
        assert_planned_matches_reference(planned, tiny_linear_layer, config, codes)

    @pytest.mark.parametrize("name", sorted(TILING_CONFIGS))
    def test_conv_layers_match_reference(self, monkeypatch, name, tiny_conv_model, rng):
        """Real conv shapes: M = batch x output positions, many ragged tiles."""
        config, level = TILING_CONFIGS[name]
        noise, reference_noise = seeded_noise(level), seeded_noise(level)
        pool = ExecutorPool()
        plan = compile_model_plan(tiny_conv_model, config, noise, pool=pool)
        planned = NetworkEngine.build(
            tiny_conv_model, config, noise, pool=pool, plan=plan
        )
        reference = NetworkEngine.build(
            tiny_conv_model,
            config,
            reference_noise,
            pool=ExecutorPool(executor_factory=PimLayerExecutor),
        )
        # 7 rows per tile on the first conv: 192 patch rows, ragged last tile.
        force_tile_rows(monkeypatch, planned.executors["c1"], 7)
        inputs = np.abs(rng.normal(0, 1, size=(3, 3, 8, 8)))
        assert np.array_equal(planned.run(inputs), reference.run(inputs))
        planned_stats = planned.layer_statistics()
        for layer_name, stats in reference.layer_statistics().items():
            assert_stats_equal(planned_stats[layer_name], stats)
        assert planned_stats["c1"].n_inputs == 3 * 8 * 8
        assert_noise_streams_aligned(noise, reference_noise)

    def test_float64_fallback_chunk(self, monkeypatch, tiny_linear_layer, tiny_patches):
        """Mixed-dtype chunks: one chunk's GEMM cannot be proven float32-exact."""
        config, _ = TILING_CONFIGS["raella_multi_chunk"]
        probe = VectorizedLayerExecutor(tiny_linear_layer, config)
        max_slice = probe.layer_plan.max_slice_value
        bounds = sorted(
            max_slice * np.abs(operands.weights).astype(np.float64).sum(axis=0).max()
            for operands in probe.layer_plan.operands
        )
        assert bounds[0] < bounds[-1]
        # A float32 limit between the chunks' bounds demotes the largest.
        monkeypatch.setattr(plan_module, "_FLOAT32_EXACT_LIMIT", bounds[-1])
        planned = VectorizedLayerExecutor(tiny_linear_layer, config)
        assert set(planned.gemm_dtypes) == {np.float32, np.float64}
        force_tile_rows(monkeypatch, planned)
        assert_planned_matches_reference(
            planned, tiny_linear_layer, config, tiny_patches[: 2 * TILE + 1]
        )

    def test_signed_inputs(self, monkeypatch, signed_layer_and_patches):
        layer, patches = signed_layer_and_patches
        config = PimLayerConfig()
        planned = VectorizedLayerExecutor(layer, config)
        force_tile_rows(monkeypatch, planned)
        assert_planned_matches_reference(planned, layer, config, patches)


class TestModelPlan:
    def test_split_points(self, tiny_mlp_model):
        plan = compile_model_plan(tiny_mlp_model, micro_batch=4)
        assert plan.split_points(3) == ()
        assert plan.split_points(4) == ()
        assert plan.split_points(10) == (4, 8)
        unbounded = compile_model_plan(tiny_mlp_model)
        assert unbounded.split_points(100) == ()

    def test_layer_plans_cover_matmul_layers(self, tiny_mlp_model):
        plan = compile_model_plan(tiny_mlp_model)
        for layer in tiny_mlp_model.matmul_layers():
            layer_plan = plan.layer_plan(layer.name)
            assert layer_plan is not None
            assert layer_plan.weight_fingerprint == layer.weight_fingerprint
        assert plan.layer_plan("no_such_layer") is None

    def test_cache_key_sensitivity(self, tiny_mlp_model):
        base = ModelPlan.cache_key(tiny_mlp_model, PimLayerConfig(), None, None)
        assert base == ModelPlan.cache_key(
            tiny_mlp_model, PimLayerConfig(), NoiselessModel(), None
        )
        assert base != ModelPlan.cache_key(
            tiny_mlp_model, PimLayerConfig(adc_bits=8), None, None
        )
        assert base != ModelPlan.cache_key(tiny_mlp_model, PimLayerConfig(), None, 8)
        noisy = GaussianColumnNoise(level=0.05)
        assert base != ModelPlan.cache_key(
            tiny_mlp_model, PimLayerConfig(), noisy, None
        )

    def test_engine_build_adopts_plan(self, tiny_mlp_model, rng):
        pool = ExecutorPool()
        plan = compile_model_plan(tiny_mlp_model, micro_batch=8, pool=pool)
        engine = NetworkEngine.build(tiny_mlp_model, pool=pool, plan=plan)
        assert engine.model_plan is plan
        assert engine.micro_batch == 8  # inherited from the plan
        baseline = NetworkEngine.build(tiny_mlp_model, micro_batch=8)
        inputs = np.abs(rng.normal(0, 1, size=(13, 16)))
        assert np.array_equal(engine.run(inputs), baseline.run(inputs))


class TestRegistryPlanCache:
    def test_register_compiles_and_exposes_plan(self, tiny_mlp_model):
        registry = ModelRegistry()
        registry.register("mlp", tiny_mlp_model)
        plan = registry.plan("mlp")
        assert isinstance(plan, ModelPlan)
        assert registry.plan_cache.misses == 1
        with pytest.raises(KeyError):
            registry.plan("nope")
        registry.close()

    def test_changed_config_compiles_fresh_plan(self, tiny_mlp_model):
        registry = ModelRegistry()
        registry.register("mlp", tiny_mlp_model)
        first = registry.plan("mlp")
        registry.register(
            "mlp", tiny_mlp_model, config=PimLayerConfig(adc_bits=8), replace=True
        )
        second = registry.plan("mlp")
        assert second is not first
        assert second.config != first.config
        assert registry.plan_cache.misses == 2
        registry.close()

    def test_unchanged_reregistration_reuses_plan_identity(self, tiny_mlp_model):
        registry = ModelRegistry()
        registry.register("mlp", tiny_mlp_model)
        first = registry.plan("mlp")
        registry.register("mlp", tiny_mlp_model, replace=True)
        assert registry.plan("mlp") is first
        assert registry.plan_cache.hits >= 1
        registry.close()

    def test_backend_swap_reuses_plan_and_stays_bit_identical(
        self, tiny_mlp_model, rng
    ):
        inputs = np.abs(rng.normal(0, 1, size=(6, 16)))
        registry = ModelRegistry()
        try:
            registry.register("mlp", tiny_mlp_model)
            thread_plan = registry.plan("mlp")
            thread_outputs = registry.engine("mlp").run(inputs)
            registry.register("mlp", tiny_mlp_model, backend="process", replace=True)
            assert registry.plan("mlp") is thread_plan
            process_outputs = registry.engine("mlp").run(inputs)
            registry.register("mlp", tiny_mlp_model, replace=True)
            assert registry.plan("mlp") is thread_plan
            assert np.array_equal(process_outputs, thread_outputs)
        finally:
            registry.close()

    def test_rolling_replace_reuses_plan(self, tiny_mlp_model, rng):
        inputs = np.abs(rng.normal(0, 1, size=(4, 16)))
        registry = ModelRegistry()
        try:
            registry.register("mlp", tiny_mlp_model, backend="process", replicas=2)
            first = registry.plan("mlp")
            before = registry.engine("mlp").run(inputs)
            registry.register(
                "mlp",
                tiny_mlp_model,
                backend="process",
                replicas=2,
                replace=True,
            )
            assert registry.plan("mlp") is first  # rolled, not recompiled
            assert np.array_equal(registry.engine("mlp").run(inputs), before)
        finally:
            registry.close()

    def test_unregister_keeps_cache_warm(self, tiny_mlp_model):
        registry = ModelRegistry()
        registry.register("mlp", tiny_mlp_model)
        first = registry.plan("mlp")
        registry.unregister("mlp")
        registry.register("mlp", tiny_mlp_model)
        assert registry.plan("mlp") is first  # LRU outlives the hosting
        registry.close()


class TestPlanTransport:
    def test_process_engine_runs_shipped_plan(self, tiny_mlp_model, rng):
        inputs = np.abs(rng.normal(0, 1, size=(5, 16)))
        plan = compile_model_plan(tiny_mlp_model)
        baseline = NetworkEngine.build(tiny_mlp_model).run(inputs)
        engine = ReplicaPool.launch(tiny_mlp_model, plan=plan, replicas=1)
        try:
            outputs = engine.run(inputs)
            assert np.array_equal(outputs, baseline)
            assert not outputs.flags.writeable  # pooled zero-copy view
        finally:
            engine.close()

    def test_registry_plan_boots_default_engines(self, tiny_mlp_model, rng):
        """The registry's plan runs in engines built with default arguments."""
        inputs = np.abs(rng.normal(0, 1, size=(6, 16)))
        registry = ModelRegistry()
        try:
            hosted = registry.register("mlp", tiny_mlp_model)
            plan = registry.plan("mlp")
            expected = hosted.run(inputs)
            built = NetworkEngine.build(tiny_mlp_model, plan=plan)
            assert built.model_plan is plan
            assert np.array_equal(built.run(inputs), expected)
            assert_stats_equal(built.network_statistics(), hosted.network_statistics())
            launched = ReplicaPool.launch(tiny_mlp_model, replicas=1, plan=plan)
            try:
                assert np.array_equal(launched.run(inputs), expected)
                assert_stats_equal(
                    launched.network_statistics(), hosted.network_statistics()
                )
            finally:
                launched.close()
        finally:
            registry.close()

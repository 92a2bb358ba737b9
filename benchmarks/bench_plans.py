"""Compiled execution plans vs. the per-phase oracle, plus output pooling.

Not a paper artifact: this tracks the ROADMAP "hot-path raw speed" follow-up
that motivated :mod:`repro.runtime.plan`.  Three claims are enforced:

* **Planned dispatch.**  A small-batch dispatch storm (every request M <= 4,
  the serving layer's worst case: per-batch layout work is amortised over
  almost nothing) through a :class:`NetworkEngine` running a precompiled
  :class:`~repro.runtime.ModelPlan` must sustain at least
  ``MIN_VECTORIZED_SPEEDUP``x the throughput of the same engine on the
  per-phase :class:`~repro.core.executor.PimLayerExecutor` oracle (3x by
  default, typically ~7x locally) while staying bit-identical.
* **Shape sweep.**  The conv zoo models (``resnet18_like``,
  ``mobilenetv2_like``) at batch 1 and 8 -- M in the hundreds to thousands
  of patch rows, where the planned kernel tiles over M -- must run at least
  ``MIN_VECTORIZED_SPEEDUP``x as fast as the oracle at every point, with
  bit-identical outputs and per-layer statistics.  The oracle is timed on a
  single run (``resnet18_like`` at batch 8 takes seconds).
* **Output pooling.**  An :class:`~repro.runtime.EngineWorker` hands
  results out as zero-copy views of pooled worker-owned shared-memory
  slots; the same round trip with ``copy_outputs`` (the old
  materialise-per-reply behaviour) must not be faster -- the measured
  per-round-trip delta is the memcpy the pool deletes.

Plans change scheduling and layout only, never arithmetic, so every
comparison here doubles as a bit-identity regression test against the
oracle across the thread and process backends.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import fields

import numpy as np
import pytest

from repro.core.executor import PimLayerExecutor
from repro.nn.layers import Linear
from repro.nn.model import QuantizedModel
from repro.nn.synthetic import synthetic_images, synthetic_linear_weights
from repro.nn.zoo import mobilenetv2_like, resnet18_like
from repro.runtime import (
    EngineSpec,
    EngineWorker,
    ExecutorPool,
    NetworkEngine,
    ReplicaPool,
    compile_model_plan,
)

N_REQUESTS = 100
MAX_STORM_SAMPLES = 4  # the storm is all small batches: M in 1..4
SWEEP_MODELS = {"resnet18_like": resnet18_like, "mobilenetv2_like": mobilenetv2_like}
SWEEP_BATCHES = (1, 8)
POOLING_PAIRS = 40  # interleaved pooled/copied round-trip pairs


def build_model(name: str, seed: int) -> QuantizedModel:
    """The same CPU-bound three-layer MLP the procpool benchmark uses."""
    rng = np.random.default_rng(seed)
    layers = [
        Linear(
            f"{name}_fc1",
            synthetic_linear_weights(96, 128, rng, std=0.15),
            fuse_relu=True,
        ),
        Linear(
            f"{name}_fc2",
            synthetic_linear_weights(48, 96, rng, std=0.15),
            fuse_relu=True,
        ),
        Linear(f"{name}_fc3", synthetic_linear_weights(10, 48, rng, std=0.15)),
    ]
    model = QuantizedModel(name, layers, input_shape=(128,))
    model.calibrate(np.abs(rng.normal(0, 1, size=(64, 128))))
    return model


def build_wide_model(seed: int = 5) -> QuantizedModel:
    """One wide layer: big result arrays make the reply memcpy visible."""
    rng = np.random.default_rng(seed)
    model = QuantizedModel(
        "wide",
        [Linear("wide_fc", synthetic_linear_weights(512, 32, rng, std=0.15))],
        input_shape=(32,),
    )
    model.calibrate(np.abs(rng.normal(0, 1, size=(64, 32))))
    return model


def make_storm(n_requests: int = N_REQUESTS, seed: int = 9) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [
        np.abs(rng.normal(0, 1, size=(1 + i % MAX_STORM_SAMPLES, 128)))
        for i in range(n_requests)
    ]


def min_speedup() -> float:
    """The vectorized-vs-oracle bar (CI relaxes it on shared runners)."""
    return float(os.environ.get("MIN_VECTORIZED_SPEEDUP", "3.0"))


def oracle_pool() -> ExecutorPool:
    """A pool of per-phase reference executors: the correctness oracle."""
    return ExecutorPool(executor_factory=PimLayerExecutor)


def timed_once(func):
    """Wall time of one call (plus its result)."""
    start = time.perf_counter()
    result = func()
    return time.perf_counter() - start, result


def best_of(func, rounds: int = 3):
    """Best wall time over a few rounds (plus the last result)."""
    func()  # warm-up
    timings, result = [], None
    for _ in range(rounds):
        start = time.perf_counter()
        result = func()
        timings.append(time.perf_counter() - start)
    return min(timings), result


@pytest.fixture(scope="module")
def plan_setup():
    """One model hosted three ways: oracle, planned, planned-in-process."""
    model = build_model("plan_mlp", seed=3)
    requests = make_storm()
    oracle = NetworkEngine.build(model, pool=oracle_pool())
    planned_pool = ExecutorPool()
    plan = compile_model_plan(model, pool=planned_pool)
    planned = NetworkEngine.build(model, pool=planned_pool, plan=plan)
    process = ReplicaPool.launch(model, plan=plan, replicas=1)
    for engine in (oracle, planned, process):
        engine.run(requests[0])  # warm every path outside the timed regions
    yield model, plan, oracle, planned, process, requests
    process.close()


def run_storm(engine, requests: list[np.ndarray]) -> list[np.ndarray]:
    return [engine.run(batch) for batch in requests]


def test_bench_planned_dispatch_storm(benchmark, plan_setup):
    _model, _plan, _oracle, planned, _process, requests = plan_setup
    outputs = benchmark.pedantic(
        run_storm, args=(planned, requests), rounds=1, iterations=1
    )
    assert outputs[-1].shape == (1 + (len(requests) - 1) % MAX_STORM_SAMPLES, 10)


def test_planned_storm_speedup_and_bit_identity(benchmark, plan_setup):
    """Planned dispatch >= MIN_VECTORIZED_SPEEDUP x the oracle, bit for bit."""
    minimum = min_speedup()
    _model, _plan, oracle, planned, _process, requests = plan_setup

    oracle_time, oracle_outputs = timed_once(lambda: run_storm(oracle, requests))
    planned_time, planned_outputs = best_of(lambda: run_storm(planned, requests))
    for expected, actual in zip(oracle_outputs, planned_outputs):
        assert np.array_equal(expected, actual)

    speedup = oracle_time / planned_time
    benchmark.extra_info["planned_speedup"] = round(speedup, 2)
    benchmark.extra_info["requests_per_s_planned"] = round(len(requests) / planned_time)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert speedup >= minimum, (
        f"planned engine only {speedup:.2f}x the per-phase oracle "
        f"({len(requests) / planned_time:.0f} vs "
        f"{len(requests) / oracle_time:.0f} req/s)"
    )


def test_planned_outputs_bit_identical_across_backends(plan_setup):
    """Oracle, planned thread engine and plan-shipped worker all agree."""
    _model, _plan, oracle, planned, process, requests = plan_setup
    stacked = np.concatenate(requests[:8], axis=0)
    expected = oracle.run(stacked)
    assert np.array_equal(planned.run(stacked), expected)
    assert np.array_equal(process.run(stacked), expected)


@pytest.fixture(scope="module")
def conv_engines():
    """Each sweep model on the oracle and on the planned kernel, as served."""
    engines = {}
    for name, build in SWEEP_MODELS.items():
        model = build(seed=0)
        pool = ExecutorPool()
        plan = compile_model_plan(model, pool=pool)
        engines[name] = (
            NetworkEngine.build(model, pool=oracle_pool()),
            NetworkEngine.build(model, pool=pool, plan=plan),
        )
    return engines


def run_with_stats(engine, inputs: np.ndarray) -> tuple[np.ndarray, dict]:
    """One fresh-statistics run: outputs plus every per-layer counter."""
    engine.reset_statistics()
    outputs = engine.run(inputs)
    stats = {
        layer: tuple(
            getattr(layer_stats, f.name)
            for f in fields(layer_stats)
            if f.name != "column_sums"
        )
        for layer, layer_stats in engine.layer_statistics().items()
    }
    return outputs, stats


@pytest.mark.parametrize("batch", SWEEP_BATCHES)
@pytest.mark.parametrize("name", sorted(SWEEP_MODELS))
def test_conv_shape_sweep_vectorized_speedup(benchmark, conv_engines, name, batch):
    """Planned >= MIN_VECTORIZED_SPEEDUP x the oracle on conv shapes, bit for bit."""
    minimum = min_speedup()
    oracle, planned = conv_engines[name]
    inputs = synthetic_images(batch, (3, 32, 32), np.random.default_rng(batch))

    oracle_time, (expected_outputs, expected_stats) = timed_once(
        lambda: run_with_stats(oracle, inputs)
    )
    outputs, stats = run_with_stats(planned, inputs)
    assert np.array_equal(outputs, expected_outputs)
    assert stats == expected_stats

    planned_time, _ = best_of(lambda: planned.run(inputs))
    ratio = oracle_time / planned_time
    benchmark.extra_info["planned_ms"] = round(planned_time * 1e3, 2)
    benchmark.extra_info["oracle_ms"] = round(oracle_time * 1e3, 2)
    benchmark.extra_info["planned_speedup"] = round(ratio, 2)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert ratio >= minimum, (
        f"{name} at batch {batch}: planned {planned_time * 1e3:.1f} ms vs "
        f"oracle {oracle_time * 1e3:.1f} ms ({ratio:.2f}x)"
    )


def test_output_pooling_roundtrip_delta(benchmark):
    """Zero-copy pooled replies are never slower than materialised copies.

    ``EngineWorker.copy_outputs`` restores the old copy-per-reply behaviour,
    so the same worker measures both modes on identical requests; the delta
    is the reply memcpy the output pool deletes.  The bound is directional
    (``MAX_POOLED_RTT_RATIO`` on the median pooled/copied ratio of
    interleaved round-trip pairs, default 1.05 to absorb timer noise)
    because the simulated compute dominates the round trip; the absolute
    delta lands in the timing JSON.
    """
    ratio_bar = float(os.environ.get("MAX_POOLED_RTT_RATIO", "1.05"))
    model = build_wide_model()
    plan = compile_model_plan(model)
    worker = EngineWorker(EngineSpec(model=model, sys_path=tuple(sys.path), plan=plan))
    inputs = np.abs(np.random.default_rng(1).normal(0, 1, size=(256, 32)))

    def run() -> np.ndarray:
        # extra = (return_codes, micro-batch override?, micro_batch, trace ctx)
        outputs, _meta = worker.request(
            "run", array=inputs, extra=(False, False, None, None)
        )
        return outputs

    try:
        run()  # warm the worker and both transport directions

        def round_trip(copy: bool) -> float:
            worker.copy_outputs = copy
            start = time.perf_counter()
            run()
            return time.perf_counter() - start

        # Paired, interleaved round trips with alternating order: host-speed
        # drift hits both modes of a pair alike, and the median pair ratio
        # is robust to the odd stolen time slice.
        pairs = []
        for index in range(POOLING_PAIRS):
            first = bool(index % 2)
            times = {first: round_trip(first), not first: round_trip(not first)}
            pairs.append((times[False], times[True]))
        pooled, copied = np.median(pairs, axis=0)
        ratio = float(np.median([p / c for p, c in pairs]))
        worker.copy_outputs = False
        pooled_view = run()
        assert not pooled_view.flags.writeable  # zero-copy pool view
        benchmark.extra_info["pooled_rtt_ms"] = round(pooled * 1e3, 3)
        benchmark.extra_info["copy_rtt_ms"] = round(copied * 1e3, 3)
        benchmark.extra_info["delta_us_per_roundtrip"] = round((copied - pooled) * 1e6)
        benchmark.extra_info["pooled_copied_ratio"] = round(ratio, 3)
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        assert ratio <= ratio_bar, (
            f"pooled round trips {ratio:.3f}x copied ones (median pair; "
            f"pooled {pooled * 1e3:.3f} ms, copied {copied * 1e3:.3f} ms)"
        )
    finally:
        worker.close()

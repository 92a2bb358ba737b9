"""The benchmark's four workloads, each set up, measured and checked.

``zoo_offline`` and ``noisy_offline`` are closed loops: one caller runs a
batch, waits, runs the next.  ``mlp_serve`` and ``conv_serve_process`` are
open loops: a seeded Poisson stream submitted to an ``InferenceServer`` from
one generator thread (see ``loadgen.py``).  ``README.md`` says why each
exists and which layers it stresses.

Models are fixed (zoo seed 0, and a frozen copy of the MLP the plan
benchmark uses); the workload seed draws the inputs, the arrival times, the
request sizes, the noise reseeds and which samples the oracle replays.
Output checks and the exact-arithmetic reference run outside every timed
region.
"""

from __future__ import annotations

import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field, fields

import numpy as np

from ledger import LayerLedger
from loadgen import OpenLoopGenerator, percentile, poisson_schedule

from repro.analog.noise import GaussianColumnNoise
from repro.core.executor import LayerStatistics, PimLayerExecutor
from repro.hw.architecture import RAELLA_ARCH
from repro.nn.layers import Linear
from repro.nn.model import QuantizedModel
from repro.nn.synthetic import synthetic_images, synthetic_linear_weights
from repro.nn.zoo import mobilenetv2_like, resnet18_like
from repro.runtime import ExecutorPool, NetworkEngine, ReplicaPool
from repro.serve import AdmissionController, InferenceServer, ModelRegistry
from repro.telemetry import FlightRecorder, TelemetryCollector, Tracer

MODEL_SEED = 0
IMAGE_SHAPE = (3, 32, 32)
MLP_FEATURES = 128
MLP_SHAPES = ((96, 128), (48, 96), (10, 48))  # (outputs, inputs) per layer
BATCH = 8
DISTINCT_BATCHES = 2  # per model; the closed loop cycles through them
SETUP_REPEATS = 5  # setup_s is the median of this many full set-ups
NOISE_LEVEL = 0.05  # the paper's E, mid-range of its 0-12% sweep
TRACE_CAPACITY = 1_000_000  # spans kept in memory during a traced run
DRAIN_TIMEOUT_S = 60.0  # a run must end well inside 180 s
# Host-time gates use the least-disturbed of this many equal slices of the
# measured window (see README "Timing noise").
WINDOWS = 3

_STAT_FIELDS = tuple(f.name for f in fields(LayerStatistics) if f.name != "column_sums")


@dataclass
class Outcome:
    """What one workload run measured and whether its outputs were right."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    e2e: dict[str, float] = field(default_factory=dict)
    detail: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    self_ms: dict[str, float] = field(default_factory=dict)
    tracer: Tracer | None = None


# -- models and inputs -------------------------------------------------------


def build_mlp() -> QuantizedModel:
    """The three-layer MLP of ``benchmarks/bench_plans.py`` (seed 3), frozen
    here so that edits to that test benchmark cannot move this one."""
    rng = np.random.default_rng(3)
    weights = [synthetic_linear_weights(n, m, rng, std=0.15) for n, m in MLP_SHAPES]
    layers = [
        Linear("mlp_fc1", weights[0], fuse_relu=True),
        Linear("mlp_fc2", weights[1], fuse_relu=True),
        Linear("mlp_fc3", weights[2]),
    ]
    model = QuantizedModel("mlp", layers, input_shape=(MLP_FEATURES,))
    model.calibrate(np.abs(rng.normal(0, 1, size=(64, MLP_FEATURES))))
    return model


def build_model(name: str) -> QuantizedModel:
    if name == "mlp":
        return build_mlp()
    return {"resnet18_like": resnet18_like, "mobilenetv2_like": mobilenetv2_like}[name](
        seed=MODEL_SEED
    )


def make_inputs(model: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if model == "mlp":
        return np.abs(rng.normal(0, 1, size=(n, MLP_FEATURES)))
    return synthetic_images(n, IMAGE_SHAPE, rng)


# -- shared helpers ------------------------------------------------------------


def timed_setups(build, close, repeats: int = SETUP_REPEATS):
    """Build ``repeats`` times, keep the last; return it and the median time."""
    durations, built = [], None
    for _ in range(repeats):
        if built is not None:
            close(built)
        start = time.perf_counter()
        built = build()
        durations.append(time.perf_counter() - start)
    return built, statistics.median(durations)


def peak_rss_mb(child_pids=()) -> float:
    """Peak RSS of this process plus the peak of each live worker child."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in child_pids:
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except (OSError, TypeError):
            continue
    return total_kb / 1024.0


class StealMeter:
    """Share of CPU time the hypervisor gave to other guests, from /proc/stat.

    A shared host can slow every host-time metric at once; the share of
    stolen CPU over a measured window tells a disturbed run from a slow
    change.  Reads 0 where /proc/stat is missing.
    """

    def __init__(self) -> None:
        self._start = self._read()

    @staticmethod
    def _read() -> tuple[int, int]:
        try:
            with open("/proc/stat") as stat:
                ticks = [int(value) for value in stat.readline().split()[1:9]]
        except (OSError, ValueError):
            return 0, 0
        return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)

    def fraction(self) -> float:
        steal, total = self._read()
        return _ratio(steal - self._start[0], total - self._start[1])


def snapshot(layer_stats: dict[str, LayerStatistics]) -> dict[str, tuple]:
    """Exact counters per layer (everything but collected column sums)."""
    return {
        name: tuple(getattr(stats, f) for f in _STAT_FIELDS)
        for name, stats in layer_stats.items()
    }


def _field(snap_row: tuple, name: str):
    return snap_row[_STAT_FIELDS.index(name)]


def totals(snaps) -> dict[str, dict[str, float]]:
    """Per-layer sums of the counters the metrics use, over many snapshots."""
    keys = (
        "macs",
        "adc_converts_speculative",
        "adc_converts_recovery",
        "adc_converts_serial",
        "speculation_slots",
        "speculation_failures",
        "fidelity_loss_events",
        "fidelity_loss_opportunities",
    )
    out: dict[str, dict[str, float]] = defaultdict(lambda: dict.fromkeys(keys, 0))
    for snap in snaps:
        for layer, row in snap.items():
            for key in keys:
                out[layer][key] += _field(row, key)
    return out


def window_of(elapsed, seconds: float):
    """Which of the ``WINDOWS`` equal slices of the run ``elapsed`` falls in."""
    index = np.floor(np.asarray(elapsed) * WINDOWS / seconds).astype(int)
    return np.clip(index, 0, WINDOWS - 1)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def converts(row: dict) -> float:
    return (
        row["adc_converts_speculative"]
        + row["adc_converts_recovery"]
        + row["adc_converts_serial"]
    )


def layer_count_metrics(layer_totals) -> dict[str, float]:
    metrics = {}
    for layer, row in layer_totals.items():
        metrics[f"layer.{layer}.converts_per_mac"] = _ratio(converts(row), row["macs"])
        metrics[f"layer.{layer}.spec_fail_rate"] = _ratio(
            row["speculation_failures"], row["speculation_slots"]
        )
        metrics[f"layer.{layer}.fidelity_loss_rate"] = _ratio(
            row["fidelity_loss_events"], row["fidelity_loss_opportunities"]
        )
        metrics[f"layer.{layer}.macs"] = row["macs"]
    return metrics


def ledger_metrics(ledger: LayerLedger, outcome: Outcome) -> None:
    """Per-layer medians and self times of every instrumented engine call."""
    for model in {call.model for call in ledger.calls}:
        calls = ledger.model_calls(model)
        layers = sorted({name for call in calls for name in call.matmul_s})
        for layer in layers:
            outcome.layers[f"layer.{layer}.ms"] = 1e3 * statistics.median(
                call.matmul_s[layer] for call in calls
            )
            outcome.self_ms[f"matmul.{layer}"] = 1e3 * statistics.median(
                call.matmul_s[layer] - call.extract_s[layer] for call in calls
            )
            outcome.self_ms[f"extract.{layer}"] = 1e3 * statistics.median(
                call.extract_s[layer] for call in calls
            )
        for layer in sorted({name for call in calls for name in call.forward_s}):
            outcome.self_ms[f"nn.{layer}"] = 1e3 * statistics.median(
                call.forward_s[layer] - call.matmul_s.get(layer, 0.0) for call in calls
            )
        outcome.layers[f"phases.extract_ms.{model}"] = 1e3 * statistics.median(
            call.extract_total_s for call in calls
        )
        outcome.layers[f"nn.digital_ms.{model}"] = 1e3 * statistics.median(
            call.digital_s for call in calls
        )
        outcome.self_ms[f"engine.run.{model}"] = 1e3 * statistics.median(
            call.run_s - call.model_s for call in calls
        )
        outcome.self_ms[f"model.forward.{model}"] = 1e3 * statistics.median(
            call.model_s - sum(call.forward_s.values()) for call in calls
        )
    outcome.layers["check.layer_tiling_error"] = ledger.tiling_error()


def new_tracer() -> Tracer:
    return Tracer(sample_rate=1.0, recorder=FlightRecorder(capacity=TRACE_CAPACITY))


def oracle_engine(model_name: str, noise_level: float | None):
    """A per-phase ``PimLayerExecutor`` engine on a fresh model copy."""
    noise = None if noise_level is None else GaussianColumnNoise(
        noise_level, seed=MODEL_SEED
    )
    engine = NetworkEngine.build(
        build_model(model_name),
        noise=noise,
        pool=ExecutorPool(executor_factory=PimLayerExecutor),
    )
    return engine, noise


# -- offline (closed-loop) workloads ---------------------------------------------


@dataclass(frozen=True)
class OfflineSpec:
    models: tuple[str, ...]
    noise_level: float | None
    limit_ms: float  # slo limit on one closed-loop operation


def run_offline(spec: OfflineSpec, seed: int, seconds: float, trace: bool) -> Outcome:
    rng = np.random.default_rng(seed)
    batches = {
        name: [make_inputs(name, BATCH, rng) for _ in range(DISTINCT_BATCHES)]
        for name in spec.models
    }
    noise_seeds = [int(s) for s in rng.integers(0, 2**31, size=DISTINCT_BATCHES)]
    picks = {
        name: (int(rng.integers(DISTINCT_BATCHES)), int(rng.integers(BATCH)))
        for name in spec.models
    }
    register_s: dict[str, list[float]] = defaultdict(list)

    def build():
        noise = (
            None
            if spec.noise_level is None
            else GaussianColumnNoise(spec.noise_level, seed=MODEL_SEED)
        )
        registry = ModelRegistry()
        for name in spec.models:
            model = build_model(name)
            start = time.perf_counter()
            registry.register(name, model, noise=noise, arch=RAELLA_ARCH)
            register_s[name].append(time.perf_counter() - start)
        return registry, noise

    (registry, noise), setup_s = timed_setups(build, lambda built: built[0].close())
    outcome = Outcome()
    try:
        engines = {name: registry.engine(name) for name in spec.models}

        def call(name: str, index: int):
            engine = engines[name]
            engine.reset_statistics()
            if noise is not None:
                noise.reseed(noise_seeds[index])
            start = time.perf_counter()
            outputs = engine.run(batches[name][index])
            elapsed = time.perf_counter() - start
            return outputs, elapsed, snapshot(engine.layer_statistics())

        # The first run of each distinct batch is the reference every timed
        # repeat must reproduce exactly; it also warms every cache.
        reference = {
            (name, index): call(name, index)
            for name in spec.models
            for index in range(DISTINCT_BATCHES)
        }
        macs_per_call = {
            key: sum(_field(row, "macs") for row in snap.values())
            for key, (_out, _t, snap) in reference.items()
        }

        def closed_loop():
            # One operation = one batch through every model, in turn; each
            # is tagged with the slice of the measured window it started in.
            ops = []
            start = time.perf_counter()
            iteration = 0
            while True:
                index = iteration % DISTINCT_BATCHES
                window = int(window_of(time.perf_counter() - start, seconds))
                op = []
                for name in spec.models:
                    outputs, elapsed, snap = call(name, index)
                    ref_out, _t, ref_snap = reference[(name, index)]
                    same = np.array_equal(outputs, ref_out) and snap == ref_snap
                    op.append((name, index, elapsed, same))
                ops.append((window, op))
                iteration += 1
                if time.perf_counter() >= start + seconds:
                    return ops

        steal = StealMeter()
        ops = closed_loop()
        outcome.detail["host.steal_frac"] = steal.fraction()
        traced_ops = None
        if trace:
            outcome.tracer = new_tracer()
            ledger = LayerLedger(outcome.tracer)
            steal = StealMeter()
            with ledger.active():
                for engine in engines.values():
                    ledger.attach(engine)
                traced_ops = closed_loop()
            outcome.layers["host.steal_frac"] = steal.fraction()
            ledger_metrics(ledger, outcome)
        rss = peak_rss_mb()

        # -- checks outside the timed region --
        calls = [c for _w, op in ops + (traced_ops or []) for c in op]
        bad_calls = sum(1 for c in calls if not c[3])
        if bad_calls:
            outcome.problems.append(f"{bad_calls} repeated batches differed from their first run")
        outcome.attempted = len(calls)
        outcome.failed = bad_calls
        for name in spec.models:
            outcome.attempted += 1
            problem = check_oracle(
                spec, name, engines[name], noise, picks[name], batches, noise_seeds
            )
            if problem:
                outcome.failed += 1
                outcome.problems.append(problem)
        agree = [
            np.argmax(reference[(name, i)][0], axis=-1)
            == engines[name].model.predict(batches[name][i])
            for name in spec.models
            for i in range(DISTINCT_BATCHES)
        ]
    finally:
        registry.close()

    def op_ms(op) -> float:
        return 1e3 * sum(c[2] for c in op)

    def macs_per_s(op_list) -> float:
        macs = sum(macs_per_call[(c[0], c[1])] for op in op_list for c in op)
        return macs / sum(c[2] for op in op_list for c in op)

    by_window = defaultdict(list)
    for window, op in ops:
        by_window[window].append(op)
    all_ops = [op for _w, op in ops]
    ref_totals = totals(snap for (_o, _t, snap) in reference.values())
    all_macs = sum(row["macs"] for row in ref_totals.values())
    outcome.e2e = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "sim_macs_per_s": max(macs_per_s(group) for group in by_window.values()),
        "latency_p50_ms": min(
            statistics.median(map(op_ms, group)) for group in by_window.values()
        ),
        "slo_met_fraction": sum(
            1 for op in all_ops if all(c[3] for c in op) and op_ms(op) <= spec.limit_ms
        )
        / len(all_ops),
        "adc_converts_per_mac": _ratio(
            sum(converts(row) for row in ref_totals.values()), all_macs
        ),
        "top1_agree_exact": float(np.mean(np.concatenate(agree))),
    }
    for name in spec.models:
        outcome.detail[f"{name}_ms_per_sample"] = statistics.median(
            1e3 * c[2] / BATCH for op in all_ops for c in op if c[0] == name
        )
    outcome.detail["latency_p50_ms.whole_run"] = statistics.median(map(op_ms, all_ops))
    outcome.detail["sim_macs_per_s.whole_run"] = macs_per_s(all_ops)
    outcome.detail["operations"] = len(all_ops)
    if trace:
        outcome.layers.update(layer_count_metrics(ref_totals))
        for name, durations in register_s.items():
            outcome.layers[f"registry.register_s.{name}"] = statistics.median(durations)
        traced_ms = [op_ms(op) for _w, op in traced_ops]
        outcome.layers["tracing.overhead_frac"] = (
            statistics.median(traced_ms) / outcome.detail["latency_p50_ms.whole_run"]
            - 1.0
        )
    return outcome


def check_oracle(spec, name, engine, noise, pick, batches, noise_seeds) -> str | None:
    """Replay a seeded sample on the served engine and the per-phase oracle.

    Noise draws depend on the whole batch's shape, so a noisy workload
    replays the full batch; a noiseless one checks the single picked sample.
    Outputs and every statistics counter must match bit for bit.
    """
    index, sample = pick
    oracle, oracle_noise = oracle_engine(name, spec.noise_level)
    inputs = batches[name][index]
    if oracle_noise is None:
        inputs = inputs[sample : sample + 1]
    replays = []
    for candidate, candidate_noise in ((engine, noise), (oracle, oracle_noise)):
        candidate.reset_statistics()
        if candidate_noise is not None:
            candidate_noise.reseed(noise_seeds[index])
        replays.append((candidate.run(inputs), snapshot(candidate.layer_statistics())))
    (got, got_snap), (want, want_snap) = replays
    if not np.array_equal(got, want):
        return f"{name}: batch {index} sample {sample} outputs differ from the per-phase oracle"
    if got_snap != want_snap:
        return f"{name}: batch {index} sample {sample} statistics differ from the per-phase oracle"
    return None


# -- serving (open-loop) workloads -----------------------------------------------


@dataclass(frozen=True)
class ServeSpec:
    model: str
    rate_per_s: float
    max_samples: int  # request sizes are uniform on 1..max_samples
    slo_ms: float
    backend: str
    tail_percentile: float  # highest percentile with >= 10 samples beyond it
    checked_requests: int | None  # None: check every response
    warmup_s: float  # unmeasured open-loop traffic first, at the same rate


# The server's child spans of one request, in order; they tile its root span.
_STAGES = ("admission", "queue_wait", "dispatch_wait", "execute", "complete")


@dataclass
class _Phase:
    """One pass of the request schedule through the server."""

    load: object  # loadgen.OpenLoopResult
    outputs: list
    served: dict  # ServerStatistics deltas
    snap: dict[str, tuple]
    window_s: float
    steal_frac: float
    correct: np.ndarray | None = None  # per request, set by the output checks


def _serve_phase(spec: ServeSpec, server, engine, offsets, inputs) -> _Phase:
    outputs: list = [None] * len(offsets)

    def submit(index: int):
        return server.submit(spec.model, inputs[index])

    def attach(index: int, decision, on_done) -> None:
        if not decision.accepted:
            on_done(False)
            return

        def finished(future) -> None:
            error = future.exception()
            if error is None:
                # Copy now: process-backed results are views of pooled
                # shared-memory slots that later batches reuse.
                outputs[index] = np.array(future.result(), copy=True)
            on_done(error is None)

        decision.future.add_done_callback(finished)

    engine.reset_statistics()
    before = server.statistics()
    steal = StealMeter()
    load = OpenLoopGenerator(submit, attach).run(
        offsets, drain_timeout_s=DRAIN_TIMEOUT_S
    )
    steal_frac = steal.fraction()
    after = server.statistics()
    start = load.due[0] - offsets[0]
    finished_at = np.nanmax(load.done) if np.any(load.ok) else start
    served = {
        "batches": after.batches_executed - before.batches_executed,
        "samples": after.samples_executed - before.samples_executed,
        "engine_s": after.engine_time_s - before.engine_time_s,
        "shed": after.requests_shed - before.requests_shed,
    }
    return _Phase(
        load,
        outputs,
        served,
        snapshot(engine.layer_statistics()),
        finished_at - start,
        steal_frac,
    )


def _request_spans(tracer: Tracer):
    """Server spans per request (summed seconds per span name), the root
    span's [start, end] per request, and the distinct worker IPC calls."""
    per_trace: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    windows: dict[str, tuple[float, float]] = {}
    ipc_calls = {}
    for event in tracer.recorder.events(category="serve"):
        if event.get("ph") != "X":
            continue
        trace_id = event["args"].get("trace_id")
        per_trace[trace_id][event["name"]] += event["dur"] / 1e6
        if event["name"] == "request":
            windows[trace_id] = (event["ts"] / 1e6, (event["ts"] + event["dur"]) / 1e6)
        elif event["name"] == "worker_ipc":
            ipc_calls[(event["ts"], event["args"].get("replica"))] = event["args"].get(
                "requeues", 0
            )
    return per_trace, windows, ipc_calls


def run_serve(spec: ServeSpec, seed: int, seconds: float, trace: bool) -> Outcome:
    rng = np.random.default_rng(seed)
    offsets = poisson_schedule(spec.rate_per_s, seconds, rng)
    sizes = rng.integers(1, spec.max_samples + 1, size=len(offsets))
    inputs = [make_inputs(spec.model, int(n), rng) for n in sizes]
    warmup_offsets = poisson_schedule(spec.rate_per_s, spec.warmup_s, rng)
    warmup = [
        make_inputs(spec.model, int(n), rng)
        for n in rng.integers(1, spec.max_samples + 1, size=len(warmup_offsets))
    ]
    if spec.checked_requests is None or spec.checked_requests >= len(offsets):
        checked = list(range(len(offsets)))
    else:
        picked = rng.choice(len(offsets), size=spec.checked_requests, replace=False)
        checked = sorted(int(i) for i in picked)

    tracer = new_tracer() if trace else None
    if tracer is not None:
        tracer.enabled = False  # switched on for the traced phase only
    register_s: list[float] = []
    boot_s: list[float] = []

    def build():
        model = build_model(spec.model)
        registry = ModelRegistry()
        start = time.perf_counter()
        registry.register(
            spec.model, model, arch=RAELLA_ARCH, backend=spec.backend, replicas=1
        )
        register_s.append(time.perf_counter() - start)
        server = InferenceServer(
            registry,
            telemetry=TelemetryCollector(),
            admission=AdmissionController(),
            tracer=tracer,
        )
        server.start()
        return registry, server

    def close(built) -> None:
        built[1].stop()
        built[0].close()

    launch = ReplicaPool.__dict__["launch"]
    if trace:

        def timed_launch(cls, *args, **kwargs):
            start = time.perf_counter()
            try:
                return launch.__func__(cls, *args, **kwargs)
            finally:
                boot_s.append(time.perf_counter() - start)

        ReplicaPool.launch = classmethod(timed_launch)
    try:
        (registry, server), setup_s = timed_setups(build, close)
    finally:
        ReplicaPool.launch = launch

    outcome = Outcome(tracer=tracer)
    ledger = LayerLedger(tracer) if trace else None
    try:
        engine = registry.engine(spec.model)
        # New batch shapes pay one-off costs, so warm up on the same traffic.
        _serve_phase(spec, server, engine, warmup_offsets, warmup)
        phases = [_serve_phase(spec, server, engine, offsets, inputs)]
        if trace:
            tracer.enabled = True
            with ledger.active():
                if not getattr(engine, "worker_owns_state", False):
                    ledger.attach(engine)
                phases.append(_serve_phase(spec, server, engine, offsets, inputs))
            tracer.enabled = False
        health = engine.pool_health() if hasattr(engine, "pool_health") else None
        pids = engine.replica_pids() if hasattr(engine, "replica_pids") else ()
        rss = peak_rss_mb(pids)
    finally:
        close((registry, server))

    # -- checks outside the timed region: a fresh in-process engine replays
    # the checked requests one by one and must agree bit for bit.
    reference_registry = ModelRegistry()
    try:
        reference = reference_registry.register(spec.model, build_model(spec.model))
        replay_ledger = None
        if trace and getattr(engine, "worker_owns_state", False):
            # The served engine lives in the worker; time its layers on the
            # in-process replay instead, at the request sizes that were sent.
            replay_ledger = LayerLedger(tracer)
        expected = {}
        if replay_ledger is not None:
            with replay_ledger.active():
                replay_ledger.attach(reference)
                for i in checked:
                    expected[i] = reference.run(inputs[i])
            ledger = replay_ledger
        else:
            for i in checked:
                expected[i] = reference.run(inputs[i])
    finally:
        reference_registry.close()
    exact = build_model(spec.model).predict(np.concatenate(inputs))

    for phase in phases:
        load = phase.load
        correct = load.ok.copy()
        for i in checked:
            if correct[i] and not np.array_equal(phase.outputs[i], expected[i]):
                correct[i] = False
        outcome.attempted += len(offsets)
        outcome.failed += int(np.sum(~correct))
        phase.correct = correct
    if outcome.failed:
        outcome.problems.append(
            f"{outcome.failed} of {outcome.attempted} requests failed, were shed or differed"
        )

    first = phases[0]
    load = first.load
    latency_ms = 1e3 * load.latency_s[load.ok]
    request_window = window_of(offsets, seconds)
    window_p50 = [
        percentile(1e3 * load.latency_s[load.ok & (request_window == w)], 50)
        for w in range(WINDOWS)
    ]
    macs = sum(_field(row, "macs") for row in first.snap.values())
    served_totals = totals([first.snap])
    served_argmax = [
        np.argmax(out, axis=-1) if out is not None else np.full(n, -1)
        for out, n in zip(first.outputs, sizes)
    ]
    within_slo = np.nan_to_num(load.latency_s, nan=np.inf) <= spec.slo_ms / 1e3
    outcome.e2e = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "sim_macs_per_s": macs / first.window_s,
        "latency_p50_ms": float(np.nanmin(window_p50)),
        "slo_met_fraction": float(np.mean(first.correct & within_slo)),
        "adc_converts_per_mac": _ratio(
            sum(converts(r) for r in served_totals.values()),
            sum(r["macs"] for r in served_totals.values()),
        ),
        "top1_agree_exact": float(np.mean(np.concatenate(served_argmax) == exact)),
    }
    outcome.detail[f"latency_p{spec.tail_percentile:g}_ms"] = percentile(
        latency_ms, spec.tail_percentile
    )
    beyond_tail = len(latency_ms) * (100.0 - spec.tail_percentile) / 100.0
    if beyond_tail < 10:
        outcome.problems.append(
            f"only {beyond_tail:.0f} samples beyond p{spec.tail_percentile:g}; run longer"
        )
    outcome.detail["latency_p50_ms.whole_run"] = percentile(latency_ms, 50)
    outcome.detail["requests"] = len(offsets)
    outcome.detail["generator.backlog"] = load.backlog_at_end
    outcome.detail["mean_batch_size"] = _ratio(first.served["samples"], first.served["batches"])
    outcome.detail["shed"] = first.served["shed"]
    outcome.detail["host.steal_frac"] = first.steal_frac

    if trace:
        traced = phases[-1]
        tload = traced.load
        per_trace, root_windows, ipc_calls = _request_spans(tracer)
        roots = [spans for tid, spans in per_trace.items() if "request" in spans]
        post, stage_gap = [], []
        for i in np.flatnonzero(tload.ok):
            decision = tload.outcomes[i]
            _begin, end = root_windows[decision.trace_id]
            spans = per_trace[decision.trace_id]
            stage_gap.append(spans["request"] - sum(spans[name] for name in _STAGES))
            # Lateness and the submit call (which opens the trace) are the
            # generator's own spans; what follows the server's trace is not.
            post.append(tload.done[i] - end)
            for name, start, stop in (
                ("generator.late", tload.due[i], tload.sent[i]),
                ("generator.submit", tload.sent[i], tload.sent[i] + tload.submit_s[i]),
                ("client.latency", tload.due[i], tload.done[i]),
            ):
                tracer.record_span(name, decision.trace_id, start, stop, category="bench")
        layers = outcome.layers
        layers["check.span_tiling_error"] = _ratio(
            abs(sum(stage_gap)), sum(spans["request"] for spans in roots)
        )
        layers["check.latency_unspanned_frac"] = _ratio(
            sum(post), float(np.sum(tload.latency_s[tload.ok]))
        )
        ok_lat = tload.latency_s[tload.ok]

        def q_ms(values, name):
            for q in ("p50", "p99"):
                layers[f"{name}.{q}"] = percentile(
                    1e3 * np.asarray(values), float(q[1:])
                )

        layers["server.submit_us.p50"] = percentile(1e6 * tload.submit_s, 50)
        layers["server.submit_us.p99"] = percentile(1e6 * tload.submit_s, 99)
        q_ms([s["queue_wait"] for s in roots], "scheduler.queue_wait_ms")
        q_ms([s["dispatch_wait"] for s in roots], "server.dispatch_wait_ms")
        q_ms([s["execute"] for s in roots], "server.execute_ms")
        ipc = [s["worker_ipc"] - s["engine"] for s in roots if "worker_ipc" in s]
        if ipc:
            q_ms(ipc, "procpool.ipc_ms")
        layers["procpool.requeues"] = sum(ipc_calls.values())
        if health is not None:
            layers["procpool.restarts"] = health["restarts"]
        if boot_s:
            layers["procpool.boot_s"] = statistics.median(boot_s)
        layers["scheduler.batches"] = traced.served["batches"]
        layers["scheduler.batch_size.mean"] = _ratio(
            traced.served["samples"], traced.served["batches"]
        )
        layers["engine.busy_fraction"] = _ratio(
            traced.served["engine_s"], traced.window_s
        )
        layers["generator.late_ms.p99"] = percentile(1e3 * tload.late_s, 99)
        layers["generator.backlog"] = tload.backlog_at_end
        layers["host.steal_frac"] = traced.steal_frac
        layers[f"registry.register_s.{spec.model}"] = statistics.median(register_s)
        layers["tracing.overhead_frac"] = (
            percentile(1e3 * ok_lat, 50) / outcome.detail["latency_p50_ms.whole_run"]
            - 1.0
        )
        if spec.model != "mlp":
            layers.update(layer_count_metrics(totals([traced.snap])))
        ledger_metrics(ledger, outcome)
    return outcome


WORKLOADS = {
    "zoo_offline": (
        run_offline,
        OfflineSpec(
            models=("resnet18_like", "mobilenetv2_like"),
            noise_level=None,
            limit_ms=6000.0,
        ),
    ),
    "noisy_offline": (
        run_offline,
        OfflineSpec(
            models=("mobilenetv2_like",),
            noise_level=NOISE_LEVEL,
            limit_ms=1500.0,
        ),
    ),
    "mlp_serve": (
        run_serve,
        ServeSpec(
            model="mlp",
            rate_per_s=300.0,
            max_samples=4,
            slo_ms=50.0,
            backend="thread",
            tail_percentile=99.0,
            checked_requests=None,
            warmup_s=3.0,
        ),
    ),
    "conv_serve_process": (
        run_serve,
        ServeSpec(
            model="mobilenetv2_like",
            rate_per_s=10.0,
            max_samples=1,
            slo_ms=250.0,
            backend="process",
            tail_percentile=90.0,
            checked_requests=24,
            warmup_s=2.0,
        ),
    ),
}


#: Largest untiled share the traced run accepts before calling itself wrong.
TILING_LIMIT = 0.05


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    runner, spec = WORKLOADS[name]
    outcome = runner(spec, seed, seconds, trace)
    for check in ("check.layer_tiling_error", "check.span_tiling_error"):
        if outcome.layers.get(check, 0.0) > TILING_LIMIT:
            outcome.problems.append(
                f"{check} = {outcome.layers[check]:.4f} exceeds {TILING_LIMIT}"
            )
    return outcome

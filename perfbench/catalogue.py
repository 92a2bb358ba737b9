"""Every metric the benchmark reports, with its unit.

``END_TO_END`` is what a user of the simulator or the server sees; every
workload reports every one of them on an untraced run.  ``PER_LAYER`` comes
from the traced run; a workload reports 0 for a layer it never exercises
(``README.md`` lists which workload feeds which name).  ``BENCHMARK.json``
at the repository root declares the same names, bounds and directions.
"""

from __future__ import annotations

ZOO_LAYERS = {
    "resnet18_like": [f"resnet18_like_conv{i}" for i in range(6)]
    + ["resnet18_like_fc_hidden", "resnet18_like_fc"],
    "mobilenetv2_like": [f"mobilenetv2_like_conv{i}" for i in range(6)]
    + ["mobilenetv2_like_fc_hidden", "mobilenetv2_like_fc"],
}
MLP_LAYERS = ["mlp_fc1", "mlp_fc2", "mlp_fc3"]
MODELS = ["resnet18_like", "mobilenetv2_like", "mlp"]

# name -> (unit, better, bound)
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.2),
    "sim_macs_per_s": ("MAC/s", "higher", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "slo_met_fraction": ("fraction", "higher", 0.05),
    "adc_converts_per_mac": ("converts/MAC", "lower", 0.05),
    "top1_agree_exact": ("fraction", "higher", 0.05),
}


def _per_layer() -> dict[str, tuple[str, str]]:
    metrics: dict[str, tuple[str, str]] = {}
    for layers in ZOO_LAYERS.values():
        for layer in layers:
            metrics[f"layer.{layer}.ms"] = ("ms", "lower")
            metrics[f"layer.{layer}.converts_per_mac"] = ("converts/MAC", "lower")
            metrics[f"layer.{layer}.spec_fail_rate"] = ("fraction", "lower")
            metrics[f"layer.{layer}.fidelity_loss_rate"] = ("fraction", "lower")
            metrics[f"layer.{layer}.macs"] = ("MAC", "higher")
    for layer in MLP_LAYERS:
        metrics[f"layer.{layer}.ms"] = ("ms", "lower")
    for model in MODELS:
        metrics[f"phases.extract_ms.{model}"] = ("ms", "lower")
        metrics[f"nn.digital_ms.{model}"] = ("ms", "lower")
        metrics[f"registry.register_s.{model}"] = ("s", "lower")
    for q in ("p50", "p99"):
        metrics[f"server.submit_us.{q}"] = ("us", "lower")
        metrics[f"scheduler.queue_wait_ms.{q}"] = ("ms", "lower")
        metrics[f"server.dispatch_wait_ms.{q}"] = ("ms", "lower")
        metrics[f"server.execute_ms.{q}"] = ("ms", "lower")
        metrics[f"procpool.ipc_ms.{q}"] = ("ms", "lower")
    metrics.update(
        {
            "scheduler.batch_size.mean": ("samples", "higher"),
            "scheduler.batches": ("count", "lower"),
            "engine.busy_fraction": ("fraction", "lower"),
            "procpool.requeues": ("count", "lower"),
            "procpool.restarts": ("count", "lower"),
            "procpool.boot_s": ("s", "lower"),
            "generator.late_ms.p99": ("ms", "lower"),
            "generator.backlog": ("count", "lower"),
            "tracing.overhead_frac": ("fraction", "lower"),
            "host.steal_frac": ("fraction", "lower"),
            "check.layer_tiling_error": ("fraction", "lower"),
            "check.span_tiling_error": ("fraction", "lower"),
            "check.latency_unspanned_frac": ("fraction", "lower"),
        }
    )
    return metrics


# name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = _per_layer()

#: Figures the report prints by name but the driver does not gate, because
#: they exist on only some workloads.
DETAIL_UNITS = {
    "resnet18_like_ms_per_sample": "ms",
    "mobilenetv2_like_ms_per_sample": "ms",
    "latency_p90_ms": "ms",
    "latency_p99_ms": "ms",
    "latency_p50_ms.whole_run": "ms",
    "sim_macs_per_s.whole_run": "MAC/s",
    "host.steal_frac": "fraction",
}

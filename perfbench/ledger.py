"""Traced-run instrumentation: per-layer timing of in-process engines.

Everything here wraps *public* calls from outside the library -- nothing in
``src/`` is edited -- and only while a traced run is active:

* ``NetworkEngine.run`` and ``NetworkEngine.pim_matmul``, replaced on the
  engine *instance* (``run`` passes ``self.pim_matmul`` down, so the
  instance attribute wins);
* ``QuantizedModel.forward_quantized`` and the ``forward_quantized`` of every
  ``repro.nn`` layer, also on the instances: the model's forward pass is all
  of ``repro.nn`` (input quantisation, im2col, pooling, requantisation) plus
  the PIM mat-muls it calls out to;
* ``repro.runtime.vectorized.extract_phase_tensor``, the phase-extraction
  call site of the vectorized executor, swapped in the module namespace.

Each call becomes a span in a :class:`~repro.telemetry.Tracer`'s flight
recorder (category ``bench``), next to the server's own spans, so one
Perfetto file shows both.  Durations are also kept per engine call, so the
runner can report medians, self times and the tiling check without parsing
spans.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import repro.runtime.vectorized as vectorized
from repro.telemetry import SpanRecord, Tracer


def _seconds() -> defaultdict:
    return defaultdict(float)


@dataclass
class CallRecord:
    """Host time of one ``NetworkEngine.run`` call, broken down by layer."""

    model: str
    n_samples: int
    run_s: float = 0.0
    model_s: float = 0.0  # the model's forward pass, outermost call only
    forward_s: dict[str, float] = field(default_factory=_seconds)
    matmul_s: dict[str, float] = field(default_factory=_seconds)
    extract_s: dict[str, float] = field(default_factory=_seconds)

    @property
    def matmul_total_s(self) -> float:
        return sum(self.matmul_s.values())

    @property
    def digital_s(self) -> float:
        """Time in ``repro.nn`` that is not PIM mat-mul."""
        return self.model_s - self.matmul_total_s

    @property
    def extract_total_s(self) -> float:
        return sum(self.extract_s.values())


class LayerLedger:
    """Times engines, layers and phase extraction into spans and records."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.calls: list[CallRecord] = []
        self._local = threading.local()
        self._undo: list = []

    @contextmanager
    def _span(self, name: str, **attrs):
        """Time a nested scope; yields a one-slot list receiving its seconds."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        trace_id = parent[0] if parent else f"bench-{self.tracer.next_span_id()}"
        span_id = self.tracer.next_span_id()
        stack.append((trace_id, span_id))
        elapsed = [0.0]
        start = time.monotonic()
        try:
            yield elapsed
        finally:
            end = time.monotonic()
            stack.pop()
            elapsed[0] = end - start
            self.tracer.recorder.record_span(
                SpanRecord(
                    name,
                    trace_id,
                    span_id,
                    parent[1] if parent else None,
                    start,
                    end,
                    os.getpid(),
                    threading.get_ident(),
                    category="bench",
                    attrs=attrs,
                )
            )

    def _patch(self, owner, name: str, make_wrapper) -> None:
        """Shadow ``owner.name`` with an instance attribute until detach."""
        setattr(owner, name, make_wrapper(getattr(owner, name)))
        self._undo.append(lambda: delattr(owner, name))

    def attach(self, engine) -> None:
        """Instrument one in-process engine, its model and the model's layers."""
        local = self._local
        model = engine.model

        def wrap_run(run):
            def timed_run(inputs, *args, **kwargs):
                record = local.record = CallRecord(model.name, int(len(inputs)))
                try:
                    with self._span("engine.run", model=model.name) as elapsed:
                        return run(inputs, *args, **kwargs)
                finally:
                    local.record = None
                    record.run_s = elapsed[0]
                    self.calls.append(record)

            return timed_run

        def wrap_model(forward):
            def timed_forward(*args, **kwargs):
                record = getattr(local, "record", None)
                if record is None or getattr(local, "in_model", False):
                    return forward(*args, **kwargs)  # micro-batch recursion
                local.in_model = True
                try:
                    with self._span("model.forward", model=model.name) as elapsed:
                        return forward(*args, **kwargs)
                finally:
                    local.in_model = False
                    record.model_s += elapsed[0]

            return timed_forward

        def wrap_matmul(pim_matmul):
            def timed_matmul(input_codes, layer):
                record = local.record
                local.layer = layer.name
                try:
                    with self._span("matmul", layer=layer.name) as elapsed:
                        return pim_matmul(input_codes, layer)
                finally:
                    local.layer = None
                    record.matmul_s[layer.name] += elapsed[0]

            return timed_matmul

        def wrap_layer(name):
            def wrap(forward):
                def timed_forward(*args, **kwargs):
                    record = getattr(local, "record", None)
                    try:
                        with self._span("nn.layer", layer=name) as elapsed:
                            return forward(*args, **kwargs)
                    finally:
                        if record is not None:
                            record.forward_s[name] += elapsed[0]

                return timed_forward

            return wrap

        self._patch(engine, "run", wrap_run)
        self._patch(engine, "pim_matmul", wrap_matmul)
        self._patch(model, "forward_quantized", wrap_model)
        for layer in model.layers:
            self._patch(layer, "forward_quantized", wrap_layer(layer.name))

    @contextmanager
    def active(self):
        """Install the phase-extraction wrapper; undo every wrapper on exit."""
        extract = vectorized.extract_phase_tensor
        local = self._local

        def timed_extract(codes, plan):
            record = getattr(local, "record", None)
            layer = getattr(local, "layer", None)
            try:
                with self._span("extract_phase_tensor") as elapsed:
                    return extract(codes, plan)
            finally:
                if record is not None and layer is not None:
                    record.extract_s[layer] += elapsed[0]

        vectorized.extract_phase_tensor = timed_extract
        try:
            yield self
        finally:
            vectorized.extract_phase_tensor = extract
            while self._undo:
                self._undo.pop()()

    def model_calls(self, model: str) -> list[CallRecord]:
        return [call for call in self.calls if call.model == model]

    def tiling_error(self) -> float:
        """How far mat-mul plus digital time misses ``engine.run``.

        ``|sum(run) - sum(matmul + digital)| / sum(run)`` over every call;
        the gap is engine glue that no layer accounts for.
        """
        total = sum(call.run_s for call in self.calls)
        covered = sum(call.matmul_total_s + call.digital_s for call in self.calls)
        return abs(total - covered) / total if total else 0.0

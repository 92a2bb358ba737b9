"""Compile-once execution plans: derive the hot path once, execute it forever.

Profiling the serving stack at small batch sizes (M <= 4, the dispatch-storm
regime the micro-batching scheduler actually produces under latency SLOs)
shows the per-batch cost is no longer the GEMM: it is the per-phase Python
loop around it -- eleven ADC round/clip/saturate passes, speculation masking,
statistics bookkeeping and operand lookups, all re-derived from the layer
configuration on every batch.  None of that depends on the inputs; all of it
is a pure function of ``(model, config, noise-lessness)``.

This module hoists that work into two pickle-able artifacts:

* :class:`CompiledLayerPlan` -- one layer's frozen execution recipe: the
  encoded weight chunks, positional GEMM operand views with their *proven*
  dtypes (:func:`float32_gemm_is_exact`), the ``(P, S)`` phase x
  weight-slice scale table and the speculation-group gather tables.  Every
  :class:`~repro.runtime.vectorized.VectorizedLayerExecutor` executes one,
  noisy or not.
* :class:`ModelPlan` -- the per-layer plans of a whole model plus the
  micro-batch split policy, compiled once by
  :func:`compile_model_plan` (the registry does this at ``register`` time and
  caches it next to the encoded-weight cache) and then *executed* by
  :class:`~repro.runtime.vectorized.VectorizedLayerExecutor` /
  :class:`~repro.runtime.engine.NetworkEngine`, shipped by value inside
  :class:`~repro.runtime.procpool.EngineSpec` so replica workers and rolling
  ``replace()`` never re-encode weights or re-derive schedules.

Bit-identity of the planned kernel is an arithmetic argument, not a hope:
every column sum, ADC-converted value, scale factor (a power of two) and
digital-centers term is an exact integer -- in the GEMM's proven dtype up to
the ADC, in float64 far below ``2**53`` after the scale-sum -- so *any*
regrouping of the work -- converting every phase of a row tile at once,
tiling the batch over M, folding the masked scale-sum into one tensor
contraction -- produces bit-identical outputs and (integer) statistics
counters.  Seeded noise draws and column-sum subsampling are
order-sensitive; the kernel makes them once per phase, in plan order, over
the whole batch, exactly as the per-phase reference does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.analog.noise import NoiseModel, NoiselessModel
from repro.core.dynamic_input import InputSlicePlan, SpeculationMode
from repro.core.executor import PimLayerConfig, _EncodedChunk

__all__ = [
    "CompiledLayerPlan",
    "ModelPlan",
    "compile_model_plan",
    "float32_gemm_is_exact",
]

#: Largest contiguous integer range float32 represents exactly (24-bit mantissa).
_FLOAT32_EXACT_LIMIT = 1 << 24


def float32_gemm_is_exact(max_slice_value: int, weights: np.ndarray) -> bool:
    """Whether a slice-value x ``weights`` GEMM is provably exact in float32.

    Every product and running partial sum of the GEMM is an integer bounded in
    magnitude by ``max_slice_value * max_c(sum_r |weights[r, c]|)`` (slice
    values are non-negative, so partial sums cannot overshoot this bound
    mid-accumulation either).  If that bound stays below ``2**24`` each
    intermediate is exactly representable in float32, making the float32 GEMM
    bit-identical to the float64 one regardless of BLAS summation order.
    """
    if weights.size == 0:
        return True
    column_abs_sum = np.abs(weights).astype(np.float64).sum(axis=0).max()
    return max_slice_value * column_abs_sum < _FLOAT32_EXACT_LIMIT


class _ChunkOperands:
    """Float GEMM operands of one encoded chunk, prepared once per plan."""

    def __init__(self, chunk: _EncodedChunk, noiseless: bool, max_slice_value: int):
        if noiseless:
            # Noiseless sums only need W+ - W-.
            weights = chunk.diff_flat
        else:
            # Noise models need both N+ - N- and N+ + N-: stack the weight
            # operands so one GEMM produces both column-sum families.
            weights = np.hstack([chunk.diff_flat, chunk.sum_flat])
        # Analog activity has a closed form: pulses @ per-row sum of W+ + W-.
        self.sum_flat_rowsum = chunk.sum_flat.sum(axis=1)
        # float32 (twice float64's BLAS throughput) wherever it is provably
        # exact; any chunk the proof rejects keeps float64.
        exact = float32_gemm_is_exact(max_slice_value, weights)
        self.dtype = np.float32 if exact else np.float64
        self.weights = weights.astype(self.dtype)


@dataclass(frozen=True)
class CompiledLayerPlan:
    """One layer's frozen execution recipe (see module docstring).

    Instances are immutable, shareable across executors/threads, and
    pickle-able (the positional ``chunks``/``operands`` tuples replaced the
    old ``id()``-keyed operand dict precisely so plans survive the trip into
    worker processes).  ``max_slice_value`` is the largest value any phase
    feeds a DAC; ``scales`` is the ``(n_phases, n_slices)`` table of
    ``2**(phase_shift + weight_shift)`` factors; ``is_spec`` flags the
    speculative phases, pre-shaped ``(n_phases, 1, 1, 1)`` to broadcast over
    a product block; the ``group_of``/``spec_*``/``rec_*`` arrays are the
    speculation-group gather tables that let the kernel build every phase's
    conversion mask with two fancy-index reads.
    """

    layer_name: str
    weight_fingerprint: str
    config: PimLayerConfig
    input_plan: InputSlicePlan
    noiseless: bool
    n_slices: int
    n_filters: int
    max_slice_value: int
    scales: np.ndarray
    is_spec: np.ndarray
    group_of: np.ndarray
    spec_indices: np.ndarray
    rec_indices: np.ndarray
    chunks: tuple[_EncodedChunk, ...] = field(repr=False)
    operands: tuple[_ChunkOperands, ...] = field(repr=False)

    @property
    def n_phases(self) -> int:
        """Crossbar cycles per full input presentation (11 with speculation)."""
        return len(self.input_plan.phases)

    @property
    def mode(self) -> SpeculationMode:
        """The input slicing mode the plan was compiled for."""
        return self.input_plan.mode

    @classmethod
    def from_executor(cls, executor) -> "CompiledLayerPlan":
        """Compile a plan from a live vectorized executor's derived state."""
        input_plan: InputSlicePlan = executor.plan
        phases = input_plan.phases
        chunks = tuple(executor._chunks)
        noiseless = isinstance(executor.noise, NoiselessModel)
        max_slice_value = max((1 << phase.width) - 1 for phase in phases)
        operands = tuple(
            _ChunkOperands(chunk, noiseless, max_slice_value)
            for chunk in chunks
        )
        slicing = (
            chunks[0].encoded.slicing if chunks else executor.config.weight_slicing
        )
        weight_shifts = np.array(slicing.shifts, dtype=np.int64)
        phase_shifts = np.array([phase.shift for phase in phases], dtype=np.int64)
        scales = 2.0 ** (phase_shifts[:, np.newaxis] + weight_shifts[np.newaxis, :])
        is_spec = np.array([phase.kind == "speculative" for phase in phases])
        is_spec.shape = (-1, 1, 1, 1)
        group_of = np.zeros(len(phases), dtype=np.int64)
        spec_indices, rec_indices = [], []
        group = -1
        for index, phase in enumerate(phases):
            if phase.kind == "speculative":
                group += 1
                spec_indices.append(index)
            elif phase.kind == "recovery":
                rec_indices.append(index)
            group_of[index] = max(group, 0)
        for array in (scales, is_spec, group_of):
            array.setflags(write=False)
        return cls(
            layer_name=executor.layer.name,
            weight_fingerprint=executor.layer.weight_fingerprint,
            config=executor.config,
            input_plan=input_plan,
            noiseless=noiseless,
            n_slices=slicing.n_slices,
            n_filters=executor.layer.out_features,
            max_slice_value=max_slice_value,
            scales=scales,
            is_spec=is_spec,
            group_of=group_of,
            spec_indices=np.array(spec_indices, dtype=np.int64),
            rec_indices=np.array(rec_indices, dtype=np.int64),
            chunks=chunks,
            operands=operands,
        )

    def matches(self, layer, config: PimLayerConfig) -> bool:
        """Whether this plan was compiled for ``layer`` under ``config``."""
        return (
            self.layer_name == layer.name
            and self.weight_fingerprint == layer.weight_fingerprint
            and self.config == config
        )


@dataclass(frozen=True)
class ModelPlan:
    """A whole model's compiled execution plan (one entry per matmul layer).

    Compiled once per ``(model weights, config, noise-lessness,
    micro_batch)`` by :func:`compile_model_plan`, cached by the registry's
    :class:`~repro.runtime.cache.ModelPlanCache`, threaded through
    :meth:`NetworkEngine.build <repro.runtime.engine.NetworkEngine.build>`
    and pickled inside :class:`~repro.runtime.procpool.EngineSpec` so every
    replica worker boots from the already-encoded artifact.
    """

    model_name: str
    config: PimLayerConfig
    noiseless: bool
    micro_batch: int | None
    layers: Mapping[str, CompiledLayerPlan] = field(repr=False)

    def layer_plan(self, layer_name: str) -> CompiledLayerPlan | None:
        """The compiled plan of one layer (``None`` for unknown names)."""
        return self.layers.get(layer_name)

    def split_points(self, n_samples: int) -> tuple[int, ...]:
        """Micro-batch split boundaries for an ``n_samples`` batch.

        Empty when the plan carries no micro-batch limit or the batch fits
        in one slice; otherwise the cut offsets ``np.split`` would use.
        """
        if not self.micro_batch or n_samples <= self.micro_batch:
            return ()
        return tuple(range(self.micro_batch, n_samples, self.micro_batch))

    @staticmethod
    def cache_key(
        model,
        config: PimLayerConfig,
        noise: NoiseModel | None,
        micro_batch: int | None,
    ) -> tuple:
        """The identity a compiled plan depends on (and nothing else).

        Mirrors the encoded-weight cache's keying discipline: weight
        *fingerprints* rather than object identity, the full frozen config,
        and the noise-lessness flag (a plan never holds RNG state, so two
        different seeded noise models share one plan).
        """
        noiseless = noise is None or isinstance(noise, NoiselessModel)
        return (
            model.name,
            tuple(
                (layer.name, layer.weight_fingerprint)
                for layer in model.matmul_layers()
            ),
            config,
            noiseless,
            micro_batch,
        )


def compile_model_plan(
    model,
    config: PimLayerConfig | None = None,
    noise: NoiseModel | None = None,
    *,
    micro_batch: int | None = None,
    pool=None,
) -> ModelPlan:
    """Compile a :class:`ModelPlan` for ``model`` under one configuration.

    Builds (or reuses) one vectorized executor per matmul layer through
    ``pool`` -- sharing the pool's encoded-weight cache, so compilation costs
    one weight encoding at most -- and collects each executor's
    :class:`CompiledLayerPlan`, the plan that executor already runs.
    """
    from repro.runtime.cache import ExecutorPool

    config = config if config is not None else PimLayerConfig()
    pool = pool if pool is not None else ExecutorPool()
    layers = {}
    for layer in model.matmul_layers():
        executor = pool.get(layer, config, noise=noise)
        layers[layer.name] = executor.layer_plan
    return ModelPlan(
        model_name=model.name,
        config=config,
        noiseless=noise is None or isinstance(noise, NoiselessModel),
        micro_batch=micro_batch,
        layers=layers,
    )

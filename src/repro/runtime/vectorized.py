"""Vectorized PIM layer executor: one compiled kernel, cached weights.

:class:`VectorizedLayerExecutor` is a drop-in replacement for
:class:`~repro.core.executor.PimLayerExecutor` that replaces the per-phase
Python loop with batched tensor operations.  Every executor holds a
:class:`~repro.runtime.plan.CompiledLayerPlan` -- the one it is given, or one
it compiles from its own state on construction -- and runs every chunk of
every batch through one kernel (:meth:`_chunk_matmul`):

* every input bit-plane slice of a row tile is extracted in one shot
  (:func:`repro.runtime.phases.extract_phase_tensor`);
* the ``n_phases`` per-phase matmuls are fused into a single BLAS GEMM over
  a ``(n_phases * t, rows)`` operand;
* ADC clip, saturation masking, speculation recovery and the phase x
  weight-slice scale-sum run as a handful of tensor operations on the
  tile's ``(P, t, S, F)`` product block.

Bit-identity with the per-phase reference is by construction, not by luck.
Slice values (< 2**4) and weight-slice values (< 2**device_bits) are tiny
integers, so every product and partial sum of the GEMM is an integer far
below 2**53 -- float64 arithmetic is exact and matches the reference's int64
matmuls digit for digit.  Every ADC-converted value, scale factor (a power
of two) and digital-centers term is an exact integer too, so regrouping the
work -- all phases of a tile at once, any tile height, one tensor
contraction for the scale-sum -- moves no bit of the outputs or of the
integer :class:`~repro.core.executor.LayerStatistics` counters.

The same argument makes the GEMM run in **float32** wherever it is provably
exact: when every partial sum of a chunk's GEMM stays below float32's 24-bit
integer-exact range (:func:`float32_gemm_is_exact`), float32 is bit-identical
to float64 at roughly twice the BLAS throughput and half the operand memory
traffic.  A chunk the proof rejects runs in float64, one chunk at a time.
Noiseless tiles stay in the GEMM's exact dtype through the ADC stage: column
sums are already integers, so the reference's ``round`` is the identity and
is skipped.  Each tile is sized by :data:`PLANNED_TILE_BYTES` to stay in
cache.

Two cases are order-sensitive and run as one full-M tile instead:

* **noisy layers** draw seeded Gaussian noise once per phase, in plan order,
  on float64 ``(M, n_slices * n_filters)`` arrays -- the reference's call
  shapes and draw order -- cut from the stacked ``diff|sum`` GEMM output;
  the noisy sums are then rounded and share the clip, speculation and
  scale-sum stages;
* **column-sum collection** (``collect_column_sums``) records each phase's
  pre-ADC sums once per phase, in plan order, over the whole batch.

Plans are pickled to worker processes so replicas never re-encode weights;
weight encoding (center optimisation dominates construction time) is also
shared across executor instances through :mod:`repro.runtime.cache`.
"""

from __future__ import annotations

import numpy as np

from repro.analog.noise import NoiseModel, NoiselessModel
from repro.core.executor import PimLayerConfig, PimLayerExecutor, _EncodedChunk
from repro.nn.layers import MatmulLayer
from repro.runtime.cache import GLOBAL_WEIGHT_CACHE, EncodedWeightCache
from repro.runtime.phases import extract_phase_tensor
from repro.runtime.plan import (
    _FLOAT32_EXACT_LIMIT,
    CompiledLayerPlan,
    float32_gemm_is_exact,
)

__all__ = ["VectorizedLayerExecutor", "float32_gemm_is_exact"]

#: Working-set budget of one row tile of the noiseless kernel: a tile's
#: ``(P, t, S, F)`` GEMM output (and the same-shaped clip/mask temporaries
#: beside it) stays cache-sized instead of spanning all of M.
PLANNED_TILE_BYTES = 1 << 18


def planned_tile_rows(plan: CompiledLayerPlan, dtype: type) -> int:
    """Rows of M per tile so one ``(P, t, S, F)`` block fits the budget.

    Also small enough that the tile's per-(phase, crossbar row) pulse totals,
    at most ``t * max_slice_value``, are exact in float32.
    """
    row_bytes = plan.n_phases * plan.n_slices * plan.n_filters
    row_bytes *= np.dtype(dtype).itemsize
    exact_rows = _FLOAT32_EXACT_LIMIT // plan.max_slice_value
    return max(1, min(PLANNED_TILE_BYTES // row_bytes, exact_rows))


class VectorizedLayerExecutor(PimLayerExecutor):
    """Batched-phase executor, bit-identical to the per-phase reference.

    Parameters
    ----------
    layer, config, noise:
        As for :class:`~repro.core.executor.PimLayerExecutor`.
    weight_cache:
        Encoded-weight cache shared across executor instances; pass ``None``
        to encode privately.  Defaults to the process-wide cache.
    plan:
        A :class:`~repro.runtime.plan.CompiledLayerPlan` compiled for exactly
        this (layer, config, noise-lessness) combination.  When given, the
        executor boots from the plan's pre-encoded chunks and operand tables
        -- no weight encoding at all; otherwise it compiles its own plan on
        construction.  Either way the plan is :attr:`layer_plan`.
    """

    def __init__(
        self,
        layer: MatmulLayer,
        config: PimLayerConfig | None = None,
        noise: NoiseModel | None = None,
        weight_cache: EncodedWeightCache | None = GLOBAL_WEIGHT_CACHE,
        plan: CompiledLayerPlan | None = None,
    ):
        self._weight_cache = weight_cache
        # Set before super().__init__: _build_encoded_chunks runs inside it
        # and serves the plan's chunks when present.
        self._plan_chunks = None if plan is None else plan.chunks
        super().__init__(layer, config, noise=noise)
        if plan is None:
            plan = CompiledLayerPlan.from_executor(self)
        elif not plan.matches(self.layer, self.config):
            raise ValueError(
                f"plan compiled for layer {plan.layer_name!r} "
                f"(fingerprint {plan.weight_fingerprint[:12]}...) does not "
                f"match executor for {self.layer.name!r}"
            )
        noiseless = isinstance(self.noise, NoiselessModel)
        if plan.noiseless != noiseless:
            raise ValueError(
                f"plan noiseless={plan.noiseless} does not match executor "
                f"noiseless={noiseless}"
            )
        #: The compiled plan every batch executes against.
        self.layer_plan = plan

    @property
    def gemm_dtypes(self) -> list[type]:
        """The GEMM dtype chosen for each row chunk, in chunk order."""
        return [operands.dtype for operands in self.layer_plan.operands]

    def _build_encoded_chunks(self) -> list[_EncodedChunk]:
        if self._plan_chunks is not None:
            return list(self._plan_chunks)
        if self._weight_cache is None:
            return super()._build_encoded_chunks()
        return self._weight_cache.encoded_chunks(
            self.layer, self.config, super()._build_encoded_chunks
        )

    # -- the kernel ---------------------------------------------------------------

    def _chunk_matmul(
        self, codes: np.ndarray, chunk: _EncodedChunk, chunk_index: int = 0
    ) -> np.ndarray:
        """One chunk through the compiled plan, tiled over M.

        Per row tile of the batch: phase extraction in a narrow integer
        dtype, one GEMM in the operand's proven dtype, one clip/saturate pass
        on its output, two fancy-index gathers that build every phase's
        conversion mask from the speculation-group tables, and one masked
        scale-sum into the tile's float64 output rows.  Noisy and
        column-sum-collecting layers take all of M as one tile (see the
        module docstring); every other tile height is exact, so outputs and
        counters are bit-identical to the reference loop either way.
        """
        plan = self.layer_plan
        operands = plan.operands[chunk_index]
        stats = self.stats
        adc_min, adc_max = self.config.adc_min, self.config.adc_max
        n_phases, n_slices, n_filters = plan.n_phases, plan.n_slices, plan.n_filters
        speculative = plan.spec_indices.size > 0
        collect = self.config.collect_column_sums
        m = codes.shape[0]
        if plan.noiseless and not collect:
            tile = planned_tile_rows(plan, operands.dtype)
        else:
            tile = max(m, 1)
        exact_rows = _FLOAT32_EXACT_LIMIT // plan.max_slice_value

        analog = np.empty((m, n_filters), dtype=np.float64)
        pulses = np.zeros((n_phases, codes.shape[1]), dtype=np.int64)
        failures = needed = loss_events = 0
        for start in range(0, m, tile):
            tile_codes = codes[start : start + tile]
            rows = tile_codes.shape[0]
            phase_tensor = extract_phase_tensor(tile_codes, self.plan)
            flat = phase_tensor.reshape(n_phases * rows, -1).astype(operands.dtype)
            # Per-(phase, row) pulse totals by a BLAS reduction (far cheaper
            # than an integer one); exact in float32 up to ``exact_rows``.
            ones = np.ones(rows, operands.dtype if rows <= exact_rows else np.float64)
            pulses += (ones @ flat.reshape(n_phases, rows, -1)).astype(np.int64)
            products = (flat @ operands.weights).reshape(n_phases, rows, -1)
            if not plan.noiseless:
                products = self._noisy_column_sums(products)
            products = products.reshape(n_phases, rows, n_slices, n_filters)
            if collect:
                for phase, sums in zip(plan.input_plan.phases, products):
                    self._record_column_sums(phase.kind, sums)
            if not plan.noiseless:
                np.round(products, out=products)
            clipped = np.clip(products, adc_min, adc_max)
            saturated = clipped != products

            if speculative:
                spec_saturated = saturated[plan.spec_indices]  # (G, t, S, F)
                failures += np.count_nonzero(spec_saturated)
                # keep[p] = the saturation mask of phase p's speculation
                # group; a speculative phase keeps its non-saturated columns,
                # its recovery phases replay exactly the saturated ones.
                keep = spec_saturated[plan.group_of]  # (P, t, S, F)
                replayed = keep[plan.rec_indices]
                needed += np.count_nonzero(replayed)
                loss_events += np.count_nonzero(saturated[plan.rec_indices] & replayed)
                # Zero what the ADCs skip: saturated speculative columns and
                # the recovery columns whose speculation succeeded.
                np.not_equal(keep, plan.is_spec, out=keep)
                clipped *= keep
            else:  # bit-serial: every column converts in every phase
                loss_events += np.count_nonzero(saturated)
            analog[start : start + rows] = np.einsum(
                "pmsf,ps->mf", clipped, plan.scales
            )

        if speculative:
            slots = plan.spec_indices.size * m * n_slices * n_filters
            stats.adc_converts_speculative += slots
            stats.speculation_slots += slots
            stats.speculation_failures += int(failures)
            stats.adc_converts_recovery += int(needed)
            stats.fidelity_loss_opportunities += int(needed)
        else:
            converts = n_phases * m * n_slices * n_filters
            stats.adc_converts_serial += converts
            stats.fidelity_loss_opportunities += converts
        stats.fidelity_loss_events += int(loss_events)
        stats.input_pulses += int(pulses.sum())
        # Analog activity (N+ + N-, summed) has an exact closed form.
        stats.crossbar_activity += float((pulses @ operands.sum_flat_rowsum).sum())

        encoded = chunk.encoded
        if encoded.encoding.uses_centers:
            analog += encoded.centers[np.newaxis, :].astype(
                np.float64
            ) * codes.sum(axis=1, keepdims=True)
        return analog

    def _noisy_column_sums(self, products: np.ndarray) -> np.ndarray:
        """Noisy column sums from the ``(P, M, 2 * S * F)`` ``diff|sum`` output.

        One ``noise.apply`` per phase in plan order on float64 ``(M, S * F)``
        halves, exactly as the reference calls it, so seeded draws land on
        the same columns in the same order.  Each phase is widened to float64
        (exact) on its own, so no float64 copy of the whole output exists.
        """
        diff, total = np.split(products, 2, axis=2)
        sums = np.empty(diff.shape)
        for index in range(len(sums)):
            positive = 0.5 * np.add(total[index], diff[index], dtype=np.float64)
            negative = 0.5 * np.subtract(total[index], diff[index], dtype=np.float64)
            sums[index] = self.noise.apply(positive, negative)
        return sums

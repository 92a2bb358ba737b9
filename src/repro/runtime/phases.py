"""Batched input-phase slice extraction.

The per-phase executor calls
:func:`repro.core.dynamic_input.extract_input_slice` once per phase (11 times
per chunk with RAELLA's speculative schedule).  Here the whole schedule is
materialised at once: broadcasting the plan's shift and mask vectors over the
input codes yields the ``(n_phases, M, rows)`` tensor of every bit-plane slice
in a single NumPy expression.

The tensor is computed and returned in the narrowest unsigned integer dtype
that holds the codes (``uint8`` for the usual 8-bit inputs): slices never
exceed the codes they are cut from, and an eleven-fold copy of the batch is
the largest array the extraction writes, so the dtype sets its memory traffic.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.core.dynamic_input import InputSlicePlan

__all__ = ["plan_shift_masks", "extract_phase_tensor"]


@lru_cache(maxsize=None)
def plan_shift_masks(
    plan: InputSlicePlan, dtype: np.dtype
) -> tuple[np.ndarray, np.ndarray]:
    """Per-phase shift and mask vectors of a plan, ``(P, 1, 1)`` in ``dtype``.

    Treat as read-only.  A mask wider than an unsigned ``dtype`` saturates to
    all ones, which leaves every representable code unchanged -- exactly what
    the wide mask does.
    """
    info = np.iinfo(dtype)
    shifts = [min(phase.shift, info.bits) for phase in plan.phases]
    masks = [min((1 << phase.width) - 1, info.max) for phase in plan.phases]
    tables = tuple(np.array(values, dtype=dtype) for values in (shifts, masks))
    for table in tables:
        table.shape = (-1, 1, 1)
        table.setflags(write=False)
    return tables


def extract_phase_tensor(codes: np.ndarray, plan: InputSlicePlan) -> np.ndarray:
    """All input slices of a batch in one shot: ``(n_phases, M, rows)``.

    ``codes`` is the non-negative ``(M, rows)`` input-code matrix; entry
    ``[p, i, r]`` is the value phase ``p`` feeds to the DAC of row ``r`` for
    input ``i``.  Value-identical to stacking ``extract_input_slice`` over
    the plan's phases, in the narrowest unsigned dtype holding the codes.
    """
    codes = np.asarray(codes, dtype=np.int64)
    if codes.size and codes.min() < 0:
        raise ValueError(
            "input codes must be non-negative; signed inputs are split into "
            "positive/negative magnitudes before slicing"
        )
    dtype = np.min_scalar_type(int(codes.max()) if codes.size else 0)
    shifts, masks = plan_shift_masks(plan, dtype)
    return (codes.astype(dtype)[np.newaxis, :, :] >> shifts) & masks

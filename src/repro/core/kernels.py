"""Batched drain kernel: whole-array cycle computation for the sweep engine.

The drain computation — how many cycles a PIP column needs to stream its
neurons' oneffsets through the two-stage shifter — is the hot path of every
sweep.  The original implementation (kept as
:func:`repro.core.scheduling._reference_drain_cycles`) walks the schedule one
cycle at a time over a boolean bit-plane tensor; this module replaces it with
a packed formulation that the whole batch shares:

* **Packed masks.**  Every column's 16 neuron magnitudes are stored as one
  ``uint16`` bit mask per lane (``pack_drain_masks``), 16x denser than the
  boolean bit-plane tensor, so one kernel call can hold *all* sampled pallets
  and *all* drain groups of a layer at once.  Signed-term encodings
  (:mod:`repro.numerics.encodings`) that use positions above 15 — CSD and
  HESE reach position 16 — pack into ``uint32`` masks and take the same fast
  path.
* **One bit primitive.**  Popcounts, lowest and highest set bits all come from
  ``np.bitwise_count``, at either mask width.
* **Closed-form fast path.**  A column whose set bits all fit inside one
  first-stage window (``highest - lowest < reach``) never stalls: it finishes
  in exactly its busiest lane's popcount.  This generalizes the full-reach
  shortcut (``reach >= positions``) and resolves the large majority of
  trimmed columns without any iteration.
* **Batched frontier loop.**  The remaining slow columns of *every* drain
  group advance together, one whole-array update per cycle, so the number of
  Python-level iterations is bounded by the maximum drain depth across the
  whole batch — not summed per group as the per-group loop was.

:func:`batched_drain_cycles` evaluates many ``first_stage_bits`` reaches over
one packed tensor in a single call (the per-column statistics are computed
once and shared); :func:`repro.core.sweep.sweep_network` dispatches all of a
layer's ``(first_stage_bits, software_trimming)`` drain groups through it.

The results are **bit-identical** to the reference scheduler — the golden
suite (``tests/test_core_kernels.py``) proves it against both
``_reference_drain_cycles`` and :class:`~repro.core.accelerator.PragmaticAccelerator`,
and ``docs/runtime.md`` documents the guarantee.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "KERNEL_MAX_POSITIONS",
    "pack_drain_masks",
    "pack_bit_planes",
    "batched_drain_cycles",
    "packed_essential_terms",
]

#: Widest bit position the packed representation holds (``uint32`` masks for
#: signed-term planes; plain positional packing stays ``uint16``).
KERNEL_MAX_POSITIONS = 32

#: Widest bit position a ``uint16`` mask holds; wider planes pack into ``uint32``.
_NARROW_POSITIONS = 16


# Bit primitives over packed masks, all built on ``np.bitwise_count``.  Each
# returns a signed array so downstream arithmetic never wraps.
def _popcounts(masks: np.ndarray) -> np.ndarray:
    """Set-bit count per mask."""
    return np.bitwise_count(masks).astype(np.int64)


def _trailing_zeros(masks: np.ndarray) -> np.ndarray:
    """Lowest set bit per mask (the mask's width for an empty mask)."""
    return np.bitwise_count((masks & -masks) - masks.dtype.type(1)).astype(np.int16)


def _highest_bits(masks: np.ndarray) -> np.ndarray:
    """Highest set bit per mask (-1 for an empty mask)."""
    smeared = masks.copy()
    for shift in (1, 2, 4, 8, 16):
        smeared |= smeared >> masks.dtype.type(shift)
    return np.bitwise_count(smeared).astype(np.int64) - 1


# --------------------------------------------------------------------- packing
def pack_drain_masks(values: np.ndarray, storage_bits: int) -> np.ndarray:
    """Pack integer neuron values into per-lane ``uint16`` bit masks.

    ``values`` may have any shape; element ``[...]`` of the result holds the
    magnitude bits of the corresponding neuron.  Raises :class:`ValueError`
    when a magnitude does not fit in ``storage_bits`` (same contract as
    :func:`repro.numerics.fixedpoint.bit_matrix`) or when ``storage_bits``
    exceeds the packed width.  Widths above 16 pack into ``uint32`` masks.
    """
    if not 1 <= storage_bits <= KERNEL_MAX_POSITIONS:
        raise ValueError(
            f"storage_bits must be in [1, {KERNEL_MAX_POSITIONS}], got {storage_bits}"
        )
    magnitudes = np.abs(np.asarray(values, dtype=np.int64))
    limit = (1 << storage_bits) - 1
    if magnitudes.size and int(magnitudes.max()) > limit:
        raise ValueError(
            f"magnitude {int(magnitudes.max())} does not fit in {storage_bits} bits "
            f"(max {limit})"
        )
    dtype = np.uint16 if storage_bits <= _NARROW_POSITIONS else np.uint32
    return magnitudes.astype(dtype)


def pack_bit_planes(bits: np.ndarray) -> np.ndarray:
    """Pack a boolean bit-plane tensor ``(..., positions)`` into mask words.

    Up to 16 positions pack into ``uint16`` masks (the positional storage
    formats); 17–32 positions (signed-term planes such as 17-position CSD
    tensors) pack into ``uint32``.
    """
    arr = np.asarray(bits, dtype=bool)
    if arr.ndim < 1:
        raise ValueError("bits must have at least a positions dimension")
    positions = arr.shape[-1]
    if positions > KERNEL_MAX_POSITIONS:
        raise ValueError(
            f"cannot pack {positions} bit positions into {KERNEL_MAX_POSITIONS}-bit masks"
        )
    weights = (np.int64(1) << np.arange(positions, dtype=np.int64))
    packed = np.tensordot(arr.astype(np.int64), weights, axes=([-1], [0]))
    dtype = np.uint16 if positions <= _NARROW_POSITIONS else np.uint32
    return packed.astype(dtype)


def packed_essential_terms(masks: np.ndarray) -> float:
    """Total terms (set bits) of a packed mask tensor."""
    return float(_popcounts(_as_masks(masks)).sum(dtype=np.int64))


def _as_masks(masks: np.ndarray) -> np.ndarray:
    """Coerce a tensor into packed mask form, preserving wide masks."""
    masks = np.asarray(masks)
    if masks.dtype in (np.uint16, np.uint32):
        return masks
    return masks.astype(np.uint16)


# --------------------------------------------------------------- frontier loop
def _frontier(masks: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """Drain the slow columns with one whole-array update per cycle.

    ``masks`` is ``uint16``/``uint32 [columns, lanes]`` (consumed by value —
    the caller passes a private copy); ``reach`` is ``int16 [columns]``.
    Returns the per-column cycle counts.  Columns retire from the working set
    as they drain, so late iterations touch only the deepest columns.
    """
    one = masks.dtype.type(1)
    out = np.zeros(masks.shape[0], dtype=np.int64)
    cycles = np.zeros(masks.shape[0], dtype=np.int64)
    index = np.arange(masks.shape[0])
    reach = reach.astype(np.int16, copy=False)
    while masks.size:
        heads = _trailing_zeros(masks)
        column_minimum = heads.min(axis=1)
        eligible = (masks != 0) & (heads < (column_minimum + reach)[:, None])
        masks = np.where(eligible, masks & (masks - one), masks)
        cycles += 1
        alive = masks.any(axis=1)
        if not alive.all():
            finished = ~alive
            out[index[finished]] = cycles[finished]
            masks = masks[alive]
            reach = reach[alive]
            cycles = cycles[alive]
            index = index[alive]
    return out


# --------------------------------------------------------------------- kernel
def batched_drain_cycles(masks: np.ndarray, reaches) -> np.ndarray:
    """Drain cycles of every column under every first-stage reach, in one call.

    Parameters
    ----------
    masks:
        Packed term masks shaped ``(..., lanes)`` — the lanes of one PIP
        column along the last axis, any leading batch shape (the sweep packs
        ``[pallets, steps, windows, neurons]``).  ``uint16`` for positional
        packing, ``uint32`` for signed-term planes using positions above 15
        (other dtypes are coerced to ``uint16``).
    reaches:
        Sequence of first-stage reaches (``2 ** first_stage_bits``, each at
        least 1) to evaluate.  The per-column statistics (popcounts, bit
        span) are computed once and shared by every reach.

    Returns
    -------
    numpy.ndarray
        ``int64`` cycle counts shaped ``(len(reaches), *masks.shape[:-1])``.
        Columns with no set bits report zero cycles, exactly like the
        reference scheduler.
    """
    masks = _as_masks(masks)
    if masks.ndim < 1:
        raise ValueError("masks must have at least a lanes dimension")
    reaches = [int(reach) for reach in reaches]
    if not reaches:
        raise ValueError("reaches must not be empty")
    if any(reach < 1 for reach in reaches):
        raise ValueError("every reach must be at least 1")

    *lead, lanes = masks.shape
    flat = np.ascontiguousarray(masks.reshape(-1, lanes))
    columns = flat.shape[0]
    out = np.zeros((len(reaches), columns), dtype=np.int64)
    if columns:
        busiest = _popcounts(flat).max(axis=1)
        column_mask = np.bitwise_or.reduce(flat, axis=1)
        # Bit span of the column; empty columns go deeply negative and are
        # therefore always closed-form (zero busiest lanes -> zero cycles).
        span = _highest_bits(column_mask) - _trailing_zeros(column_mask)
        slow_sets: list[tuple[int, np.ndarray]] = []
        for slot, reach in enumerate(reaches):
            closed = span < reach
            out[slot] = np.where(closed, busiest, 0)
            slow = np.nonzero(~closed)[0]
            if slow.size:
                slow_sets.append((slot, slow))
        if slow_sets:
            rows = np.concatenate([slow for _, slow in slow_sets])
            row_reach = np.concatenate(
                [
                    np.full(slow.size, reaches[slot], dtype=np.int16)
                    for slot, slow in slow_sets
                ]
            )
            cycles = _frontier(flat[rows], row_reach)
            offset = 0
            for slot, slow in slow_sets:
                out[slot, slow] = cycles[offset : offset + slow.size]
                offset += slow.size
    return out.reshape((len(reaches), *lead))

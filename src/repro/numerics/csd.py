"""Canonical signed digit (CSD) encoding — the "improved encoding" extension.

The Pragmatic paper processes the *non-zero bits* of the conventional positional
representation.  Its conclusion notes that the approach generalizes to any
explicit power-of-two representation; the natural next step (adopted by the
follow-up bit-serial accelerators) is to allow negative powers of two and
re-encode each value in canonical signed digit form (the non-adjacent form,
NAF), which is guaranteed to use the minimum number of signed power-of-two
terms and never more than half the bit positions plus one.

For example ``0b0111_1110 = 126`` needs six positional oneffsets but only two
CSD terms (``+2^7 − 2^1``).  Because the PIP already carries a negation input
per lane (for negative neurons), supporting signed terms costs no extra
datapath — only the oneffset generator changes — so the encoding is a
drop-in reduction of the serial work.

This module provides the encoder/decoder, vectorized term counting and the
position planes the drain scheduler consumes, and is exercised by the
``extension_csd`` experiment.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "encode_csd",
    "decode_csd",
    "csd_term_counts",
    "csd_position_matrix",
    "csd_term_fraction",
]


def encode_csd(value: int, bits: int = 16) -> tuple[tuple[int, int], ...]:
    """Encode ``|value|`` in canonical signed digit (non-adjacent) form.

    Returns a tuple of ``(sign, position)`` pairs with ``sign`` in ``{+1, -1}``,
    ordered from the least significant position upward.  The encoding is the
    standard NAF construction: no two adjacent positions are used, and the term
    count is minimal among all signed power-of-two representations.
    """
    magnitude = abs(int(value))
    if magnitude >= (1 << (bits + 1)):
        raise ValueError(f"value {value} does not fit in {bits} bits")
    terms: list[tuple[int, int]] = []
    position = 0
    while magnitude:
        if magnitude & 1:
            remainder = 2 - (magnitude % 4)  # +1 if ...01, -1 if ...11
            terms.append((remainder, position))
            magnitude -= remainder
        magnitude >>= 1
        position += 1
    return tuple(terms)


def decode_csd(terms: tuple[tuple[int, int], ...] | list[tuple[int, int]]) -> int:
    """Reconstruct the magnitude from ``(sign, position)`` CSD terms."""
    value = 0
    seen: set[int] = set()
    for sign, position in terms:
        if sign not in (-1, 1):
            raise ValueError(f"CSD term signs must be +1 or -1, got {sign}")
        if position < 0:
            raise ValueError(f"CSD positions must be non-negative, got {position}")
        if position in seen:
            raise ValueError(f"duplicate CSD position {position}")
        seen.add(position)
        value += sign * (1 << position)
    return value


def csd_term_counts(values: np.ndarray, bits: int = 16) -> np.ndarray:
    """Number of CSD terms of each magnitude (vectorized NAF term count).

    Adding ``n`` to ``2n`` carries through exactly the runs the NAF rewrites,
    so bit ``p + 1`` of ``n XOR 3n`` is set exactly when the NAF of ``n`` has
    a non-zero digit at position ``p``: the term count is its popcount.
    """
    magnitudes = np.abs(np.asarray(values, dtype=np.int64))
    if magnitudes.size and int(magnitudes.max()) >= (1 << (bits + 1)):
        raise ValueError(f"values do not fit in {bits} bits")
    return np.bitwise_count(magnitudes ^ (3 * magnitudes)).astype(np.int64)


def csd_position_matrix(values: np.ndarray, bits: int = 16) -> np.ndarray:
    """Boolean matrix of CSD term positions, shaped ``values.shape + (bits + 1,)``.

    The sign of each term does not affect timing (the PIP negates for free), so
    the drain scheduler only needs the occupied positions.  CSD may use position
    ``bits`` (one above the storage width), hence the extra plane.
    """
    flat = np.abs(np.asarray(values, dtype=np.int64)).ravel()
    planes = np.zeros((flat.size, bits + 1), dtype=bool)
    for index, value in enumerate(flat):
        for _, position in encode_csd(int(value), bits=bits):
            planes[index, position] = True
    return planes.reshape(np.asarray(values).shape + (bits + 1,))


def csd_term_fraction(values: np.ndarray, bits: int = 16) -> float:
    """Average CSD terms per neuron as a fraction of the storage width."""
    arr = np.asarray(values)
    if arr.size == 0:
        raise ValueError("cannot compute the CSD term fraction of an empty array")
    return float(csd_term_counts(arr, bits=bits).mean() / bits)

"""Fixed-point number representation used by DaDianNao-style accelerators.

The paper's baseline hardware stores neurons (activations) and synapses (weights)
as 16-bit fixed-point values.  This module provides a small, explicit fixed-point
format abstraction:

* quantize real values to integers expressed in units of the least significant bit,
* recover real values from the integer representation,
* inspect the bit-level content of the stored magnitude, which is what the
  Pragmatic accelerator exploits.

Neurons that have passed through a ReLU are non-negative; synapses are signed.
Pragmatic processes the *magnitude* bit-serially and handles the sign separately
(the ``neg`` input of the PIP in Figure 6 of the paper), so all essential-bit
queries in this module operate on absolute values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FixedPointFormat",
    "FIXED16",
    "FIXED8",
    "bit_matrix",
    "popcount",
    "leading_bit_position",
    "trailing_bit_position",
]


@dataclass(frozen=True)
class FixedPointFormat:
    """A two's-complement fixed-point format.

    Parameters
    ----------
    total_bits:
        Width of the stored value, including the sign bit when ``signed``.
    frac_bits:
        Number of fractional bits.  The least significant bit has weight
        ``2 ** -frac_bits``.
    signed:
        Whether negative values are representable.  Post-ReLU neuron streams use
        an unsigned interpretation of the same storage width.
    """

    total_bits: int = 16
    frac_bits: int = 0
    signed: bool = True

    def __post_init__(self) -> None:
        if self.total_bits < 1:
            raise ValueError(f"total_bits must be positive, got {self.total_bits}")
        if self.frac_bits < 0:
            raise ValueError(f"frac_bits must be non-negative, got {self.frac_bits}")
        if self.frac_bits >= self.total_bits + 16:
            raise ValueError("frac_bits is unreasonably large for the given width")

    @property
    def magnitude_bits(self) -> int:
        """Number of bits available to the magnitude (excludes the sign bit)."""
        return self.total_bits - 1 if self.signed else self.total_bits

    @property
    def scale(self) -> float:
        """Real-value weight of the least significant bit."""
        return 2.0 ** (-self.frac_bits)

    @property
    def max_int(self) -> int:
        """Largest representable integer (in LSB units)."""
        return (1 << self.magnitude_bits) - 1

    @property
    def min_int(self) -> int:
        """Smallest representable integer (in LSB units)."""
        return -(1 << self.magnitude_bits) if self.signed else 0

    @property
    def max_value(self) -> float:
        """Largest representable real value."""
        return self.max_int * self.scale

    @property
    def min_value(self) -> float:
        """Smallest representable real value."""
        return self.min_int * self.scale

    def quantize(self, values: np.ndarray | float) -> np.ndarray:
        """Quantize real ``values`` to integers in LSB units, with saturation."""
        scaled = np.round(np.asarray(values, dtype=np.float64) / self.scale)
        clipped = np.clip(scaled, self.min_int, self.max_int)
        return clipped.astype(np.int64)

    def dequantize(self, ints: np.ndarray | int) -> np.ndarray:
        """Convert integers in LSB units back to real values."""
        return np.asarray(ints, dtype=np.float64) * self.scale

    def clamp_int(self, ints: np.ndarray | int) -> np.ndarray:
        """Saturate integer values to the representable range."""
        return np.clip(np.asarray(ints, dtype=np.int64), self.min_int, self.max_int)

    def is_representable(self, ints: np.ndarray | int) -> np.ndarray:
        """Return a boolean mask of values that fit in the format without saturation."""
        arr = np.asarray(ints, dtype=np.int64)
        return (arr >= self.min_int) & (arr <= self.max_int)


#: The 16-bit fixed-point format of DaDianNao / Stripes / Pragmatic.
FIXED16 = FixedPointFormat(total_bits=16, frac_bits=0, signed=True)

#: An 8-bit fixed-point format (used only for small functional tests).
FIXED8 = FixedPointFormat(total_bits=8, frac_bits=0, signed=True)


def _as_magnitude(values: np.ndarray, bits: int) -> np.ndarray:
    """Return ``|values|`` as unsigned integers, checking that they fit in ``bits``."""
    arr = np.abs(np.asarray(values, dtype=np.int64))
    limit = (1 << bits) - 1
    if arr.size and int(arr.max()) > limit:
        raise ValueError(
            f"magnitude {int(arr.max())} does not fit in {bits} bits (max {limit})"
        )
    return arr.astype(np.uint64)


def bit_matrix(values: np.ndarray, bits: int = 16) -> np.ndarray:
    """Expand integer magnitudes into a boolean bit matrix.

    Parameters
    ----------
    values:
        Integer array (any shape); the magnitudes are expanded.
    bits:
        Number of bit positions to expand (positions ``0`` — LSB — to ``bits-1``).

    Returns
    -------
    numpy.ndarray
        Boolean array of shape ``values.shape + (bits,)`` where element
        ``[..., p]`` is True when bit ``p`` of the magnitude is set.
    """
    mags = _as_magnitude(values, bits)
    positions = np.arange(bits, dtype=np.uint64)
    return ((mags[..., None] >> positions) & np.uint64(1)).astype(bool)


def popcount(values: np.ndarray, bits: int = 16) -> np.ndarray:
    """Count the set bits (essential bits) in each magnitude.

    This is the quantity the paper calls the *essential bit content* of a neuron.
    """
    return np.bitwise_count(_as_magnitude(values, bits)).astype(np.int64)


def leading_bit_position(values: np.ndarray, bits: int = 16) -> np.ndarray:
    """Position of the most significant set bit of each magnitude (-1 for zero)."""
    mags = _as_magnitude(values, bits)
    for shift in (1, 2, 4, 8, 16, 32):
        mags |= mags >> np.uint64(shift)
    return np.bitwise_count(mags).astype(np.int64) - 1


def trailing_bit_position(values: np.ndarray, bits: int = 16) -> np.ndarray:
    """Position of the least significant set bit of each magnitude (``bits`` for zero)."""
    mags = _as_magnitude(values, bits)
    lowest = np.bitwise_count((mags & -mags) - np.uint64(1)).astype(np.int64)
    return np.minimum(lowest, bits)

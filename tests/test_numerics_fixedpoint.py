"""Unit tests for repro.numerics.fixedpoint."""

import numpy as np
import pytest

from repro.numerics.fixedpoint import (
    FIXED16,
    FixedPointFormat,
    bit_matrix,
    leading_bit_position,
    popcount,
    trailing_bit_position,
)


class TestFixedPointFormat:
    def test_default_is_16_bit_signed_integer(self):
        assert FIXED16.total_bits == 16
        assert FIXED16.signed
        assert FIXED16.frac_bits == 0
        assert FIXED16.scale == 1.0

    def test_magnitude_bits_excludes_sign(self):
        assert FIXED16.magnitude_bits == 15
        assert FixedPointFormat(total_bits=8, signed=False).magnitude_bits == 8

    def test_range(self):
        fmt = FixedPointFormat(total_bits=8, frac_bits=0, signed=True)
        assert fmt.max_int == 127
        assert fmt.min_int == -128
        assert fmt.max_value == 127.0

    def test_unsigned_range(self):
        fmt = FixedPointFormat(total_bits=8, frac_bits=0, signed=False)
        assert fmt.min_int == 0
        assert fmt.max_int == 255

    def test_fractional_scale(self):
        fmt = FixedPointFormat(total_bits=16, frac_bits=8)
        assert fmt.scale == pytest.approx(1 / 256)
        assert fmt.quantize(1.0) == 256

    def test_quantize_rounds_to_nearest(self):
        fmt = FixedPointFormat(total_bits=16, frac_bits=4)
        assert fmt.quantize(1.03) == pytest.approx(round(1.03 * 16))

    def test_quantize_saturates(self):
        fmt = FixedPointFormat(total_bits=8, frac_bits=0)
        assert fmt.quantize(1e6) == fmt.max_int
        assert fmt.quantize(-1e6) == fmt.min_int

    def test_dequantize_inverts_scale(self):
        fmt = FixedPointFormat(total_bits=16, frac_bits=3)
        values = np.array([1, -4, 9])
        np.testing.assert_allclose(fmt.dequantize(values), values / 8)

    def test_roundtrip_within_half_lsb(self):
        fmt = FixedPointFormat(total_bits=16, frac_bits=6)
        values = np.linspace(-10, 10, 101)
        recovered = fmt.dequantize(fmt.quantize(values))
        assert np.max(np.abs(recovered - values)) <= fmt.scale / 2 + 1e-12

    def test_clamp_int(self):
        fmt = FixedPointFormat(total_bits=8)
        np.testing.assert_array_equal(
            fmt.clamp_int(np.array([-1000, 0, 1000])), [-128, 0, 127]
        )

    def test_is_representable(self):
        fmt = FixedPointFormat(total_bits=8)
        np.testing.assert_array_equal(
            fmt.is_representable(np.array([-129, -128, 127, 128])),
            [False, True, True, False],
        )

    def test_invalid_total_bits_rejected(self):
        with pytest.raises(ValueError):
            FixedPointFormat(total_bits=0)

    def test_invalid_frac_bits_rejected(self):
        with pytest.raises(ValueError):
            FixedPointFormat(total_bits=16, frac_bits=-1)


class TestBitHelpers:
    def test_bit_matrix_matches_binary_expansion(self):
        values = np.array([0, 1, 5, 0b1010_1010])
        mat = bit_matrix(values, bits=8)
        assert mat.shape == (4, 8)
        for i, value in enumerate(values):
            expected = [(value >> b) & 1 for b in range(8)]
            np.testing.assert_array_equal(mat[i].astype(int), expected)

    def test_bit_matrix_uses_magnitude_of_negatives(self):
        np.testing.assert_array_equal(bit_matrix(np.array([-5]), 4), bit_matrix(np.array([5]), 4))

    def test_bit_matrix_rejects_too_wide_values(self):
        with pytest.raises(ValueError):
            bit_matrix(np.array([256]), bits=8)

    def test_popcount_known_values(self):
        np.testing.assert_array_equal(popcount(np.array([0, 1, 3, 255]), 8), [0, 1, 2, 8])

    def test_popcount_matches_python_bin(self, rng):
        values = rng.integers(0, 2**16, size=200)
        expected = [bin(int(v)).count("1") for v in values]
        np.testing.assert_array_equal(popcount(values, 16), expected)

    def test_popcount_preserves_shape(self):
        values = np.arange(12).reshape(3, 4)
        assert popcount(values, 8).shape == (3, 4)

    def test_leading_bit_position(self):
        np.testing.assert_array_equal(
            leading_bit_position(np.array([0, 1, 2, 5, 0x8000]), 16), [-1, 0, 1, 2, 15]
        )
        wide = [0, 1, 1 << 16, 0xFFFF0000, 1 << 31, 0xFFFFFFFF, 0x12345678]
        np.testing.assert_array_equal(
            leading_bit_position(np.array(wide), 32),
            [value.bit_length() - 1 for value in wide],
        )

    def test_trailing_bit_position(self):
        np.testing.assert_array_equal(
            trailing_bit_position(np.array([0, 1, 2, 12]), 16), [16, 0, 1, 2]
        )
        wide = [0, 1, 1 << 16, 0xFFFF0000, 1 << 31, 0xFFFFFFFF, 0x12345678]
        np.testing.assert_array_equal(
            trailing_bit_position(np.array(wide), 32),
            [(value & -value).bit_length() - 1 if value else 32 for value in wide],
        )

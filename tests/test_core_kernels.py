"""Golden-equivalence suite for the batched drain kernel.

The batched kernel (:mod:`repro.core.kernels`) replaces the cycle-by-cycle
drain scheduler on every hot path, so this module is the proof that nothing
changed numerically:

* the kernel reproduces ``_reference_drain_cycles`` (the pre-batch loop, kept
  as the executable specification) bit for bit, across random traces, both
  storage widths and every first-stage reach;
* :func:`repro.core.sweep.sweep_network` remains **bit-identical** (exact
  float equality, same sampling seed) to
  :class:`repro.core.accelerator.PragmaticAccelerator` over a randomized grid
  of chips, storage encodings, ``first_stage_bits``, SSR counts and both
  synchronization schemes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.config import DEFAULT_CHIP, ChipConfig
from repro.arch.tiling import SamplingConfig
from repro.core.accelerator import PragmaticAccelerator, PragmaticConfig
from repro.core.kernels import (
    KERNEL_MAX_POSITIONS,
    batched_drain_cycles,
    pack_bit_planes,
    pack_drain_masks,
    packed_essential_terms,
)
from repro.core.scheduling import (
    _reference_drain_cycles,
    column_drain_cycles,
    essential_terms,
    step_drain_cycles,
)
from repro.core.software import SoftwareGuidance
from repro.core.sweep import SweepStats, sweep_network
from repro.core.variants import fig9_variants
from repro.nn.layers import ConvLayerSpec
from repro.nn.networks import Network
from repro.nn.precision import LayerPrecision
from repro.nn.traces import LayerTraceParams, NetworkTrace
from repro.numerics.fixedpoint import bit_matrix

#: A deliberately non-default chip so the grid covers structural variation.
SMALL_CHIP = ChipConfig(tiles=4, filters_per_tile=8, nm_row_bytes=256)


def random_trace(seed: int, storage_bits: int = 16) -> NetworkTrace:
    """A small random two-layer network with a deterministic trace."""
    rng = np.random.default_rng(seed)
    layers = tuple(
        ConvLayerSpec(
            name=f"l{index}",
            input_channels=int(rng.choice([8, 16, 24])),
            input_height=int(rng.integers(5, 9)),
            input_width=int(rng.integers(5, 9)),
            num_filters=int(rng.integers(2, 6)),
            filter_height=3,
            filter_width=3,
            stride=int(rng.choice([1, 2])),
            padding=1,
        )
        for index in range(2)
    )
    network = Network(name=f"rand{seed}", display_name=f"Random {seed}", layers=layers)
    precisions = tuple(
        LayerPrecision(
            msb=int(rng.integers(5, storage_bits - 1)), lsb=int(rng.integers(0, 3))
        )
        for _ in layers
    )
    params = tuple(
        LayerTraceParams(
            sigma=float(rng.uniform(10.0, 120.0)),
            zero_fraction=float(rng.uniform(0.2, 0.7)),
            max_magnitude=(1 << storage_bits) - 1,
        )
        for _ in layers
    )
    return NetworkTrace(
        network=network,
        precisions=precisions,
        params=params,
        seed=seed,
        storage_bits=storage_bits,
    )


def config_grid(chip: ChipConfig) -> dict[str, PragmaticConfig]:
    """Both sync schemes x first-stage widths x SSR counts x trimming."""
    configs: dict[str, PragmaticConfig] = {}
    for bits in (0, 1, 2, 4):
        configs[f"pallet-{bits}"] = PragmaticConfig(
            first_stage_bits=bits, synchronization="pallet", chip=chip
        )
    for ssr in (1, 3, None):
        label = "ideal" if ssr is None else str(ssr)
        configs[f"column-{label}"] = PragmaticConfig(
            first_stage_bits=2, synchronization="column", ssr_count=ssr, chip=chip
        )
    configs["pallet-2-fp"] = PragmaticConfig(
        first_stage_bits=2, synchronization="pallet", software_trimming=False, chip=chip
    )
    configs["column-1-fp"] = PragmaticConfig(
        first_stage_bits=1,
        synchronization="column",
        ssr_count=1,
        software_trimming=False,
        chip=chip,
    )
    return configs


def random_columns(rng, columns=40, lanes=16, value_bits=16, density=0.4):
    values = rng.integers(0, 1 << value_bits, size=(columns, lanes))
    values[rng.random(values.shape) < (1 - density)] = 0
    return values


class TestKernelMatchesReference:
    """The batched kernel against the pre-batch cycle-by-cycle loop."""

    @pytest.mark.parametrize("first_stage_bits", range(5))
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical_to_reference_loop(self, seed, first_stage_bits):
        rng = np.random.default_rng(seed)
        values = random_columns(
            rng,
            columns=int(rng.integers(10, 60)),
            lanes=int(rng.integers(2, 17)),
            density=float(rng.uniform(0.1, 0.9)),
        )
        reference = _reference_drain_cycles(
            bit_matrix(values, bits=16), first_stage_bits
        )
        batched = batched_drain_cycles(
            pack_drain_masks(values, 16), (1 << first_stage_bits,)
        )[0]
        np.testing.assert_array_equal(batched, reference)
        np.testing.assert_array_equal(
            column_drain_cycles(bit_matrix(values, bits=16), first_stage_bits),
            reference,
        )
        # Full-width uint32 masks, with the edge cases of wide masks: an empty
        # low half, the top bit alone, and every bit set.  Row 1 stalls on a
        # span that lies wholly in the high half.
        wide = random_columns(rng, columns=12, lanes=4, value_bits=32)
        wide[:4] = [
            [1 << 16, 0xFFFF0000, 1 << 31, 0xFFFFFFFF],
            [(1 << 20) | (1 << 21), 1 << 31, 0, 0],
            [1 << 31, 1 << 31, 1, 0],
            [0xFFFFFFFF, 0xFFFF0000, 1 << 16, 1 << 31],
        ]
        np.testing.assert_array_equal(
            batched_drain_cycles(pack_drain_masks(wide, 32), (1 << first_stage_bits,))[0],
            _reference_drain_cycles(bit_matrix(wide, bits=32), first_stage_bits),
        )

    @pytest.mark.parametrize("storage_bits", (8, 16))
    def test_step_drain_matches_reference_on_trace_samples(self, storage_bits):
        """The exact drain-group computation of a sweep, against the old path."""
        trace = random_trace(11, storage_bits=storage_bits)
        values = trace.sample_layer_values(0, 2 * 16 * 16).reshape(2, 1, 16, 16)
        for trimming in (True, False):
            guidance = SoftwareGuidance.from_trace(trace, enabled=trimming)
            trimmed = guidance.apply(values, 0)
            for first_stage_bits in range(5):
                reference = _reference_drain_cycles(
                    bit_matrix(trimmed, bits=storage_bits), first_stage_bits
                )
                np.testing.assert_array_equal(
                    step_drain_cycles(trimmed, first_stage_bits, storage_bits),
                    reference,
                )

    def test_multi_reach_call_equals_single_reach_calls(self):
        rng = np.random.default_rng(3)
        masks = pack_drain_masks(random_columns(rng, columns=80), 16)
        reaches = [1, 2, 4, 8, 16]
        together = batched_drain_cycles(masks, reaches)
        for slot, reach in enumerate(reaches):
            np.testing.assert_array_equal(
                together[slot], batched_drain_cycles(masks, (reach,))[0]
            )

    def test_packed_essential_terms_matches_bit_matrix_sum(self):
        rng = np.random.default_rng(4)
        values = random_columns(rng)
        masks = pack_drain_masks(values, 16)
        assert packed_essential_terms(masks) == float(
            bit_matrix(values, bits=16).sum()
        )
        assert essential_terms(values, 16) == packed_essential_terms(masks)

    def test_pack_bit_planes_round_trips_masks(self):
        rng = np.random.default_rng(5)
        values = random_columns(rng, value_bits=12)
        planes = bit_matrix(values, bits=12)
        np.testing.assert_array_equal(
            pack_bit_planes(planes), pack_drain_masks(values, 12)
        )

    def test_wide_position_planes_fall_back_to_reference(self):
        """Planes beyond the 32-position packed width still work via fallback."""
        rng = np.random.default_rng(6)
        planes = rng.random((20, 8, KERNEL_MAX_POSITIONS + 1)) < 0.3
        np.testing.assert_array_equal(
            column_drain_cycles(planes, 1), _reference_drain_cycles(planes, 1)
        )

    @pytest.mark.parametrize("first_stage_bits", range(5))
    def test_csd_max_span_column_takes_packed_path(self, first_stage_bits):
        """17-position CSD planes now run the packed kernel, not the bailout.

        0xFFFF encodes as +2^16 - 2^0 under CSD: a single column of such
        values spans the full 17 positions, the exact shape that used to hit
        the >16-position reference fallback.  Pin kernel == reference on it,
        and on a dense random batch of 17-position planes.
        """
        from repro.numerics.encodings import get_encoding

        rng = np.random.default_rng(7)
        values = rng.integers(0, 1 << 16, size=(40, 16))
        values[0, :] = 0xFFFF  # the synthetic max-span column
        masks = get_encoding("csd").term_masks(values, bits=16)
        assert masks.dtype == np.uint32
        positions = 17
        planes = (
            (masks[..., None] >> np.arange(positions, dtype=np.uint32)) & 1
        ).astype(bool)
        reference = _reference_drain_cycles(planes, first_stage_bits)
        batched = batched_drain_cycles(masks, (1 << first_stage_bits,))[0]
        np.testing.assert_array_equal(batched, reference)
        np.testing.assert_array_equal(
            column_drain_cycles(planes, first_stage_bits), reference
        )
        np.testing.assert_array_equal(pack_bit_planes(planes), masks)

    def test_uint32_packing_round_trips(self):
        """pack/unpack helpers agree for storage widths above 16."""
        rng = np.random.default_rng(8)
        values = rng.integers(0, 1 << 24, size=(30, 8))
        masks = pack_drain_masks(values, 24)
        assert masks.dtype == np.uint32
        np.testing.assert_array_equal(masks, values.astype(np.uint32))
        planes = bit_matrix(values, bits=24)
        np.testing.assert_array_equal(pack_bit_planes(planes), masks)
        assert packed_essential_terms(masks) == float(planes.sum())

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            pack_drain_masks(np.array([1 << 12]), 12)
        with pytest.raises(ValueError):
            pack_drain_masks(np.array([1]), KERNEL_MAX_POSITIONS + 1)
        with pytest.raises(ValueError):
            batched_drain_cycles(np.zeros((2, 2), dtype=np.uint16), ())
        with pytest.raises(ValueError):
            batched_drain_cycles(np.zeros((2, 2), dtype=np.uint16), (0,))
        with pytest.raises(ValueError):
            pack_bit_planes(np.zeros((2, KERNEL_MAX_POSITIONS + 1), dtype=bool))


class TestGoldenSweepEquivalence:
    """sweep_network vs PragmaticAccelerator: exact equality, never approx."""

    @pytest.mark.parametrize(
        "seed,storage_bits,chip",
        [
            (0, 16, DEFAULT_CHIP),
            (1, 16, SMALL_CHIP),
            (2, 8, DEFAULT_CHIP),
            (3, 8, SMALL_CHIP),
            (4, 16, DEFAULT_CHIP),
        ],
    )
    def test_sweep_bit_identical_to_accelerator(self, seed, storage_bits, chip):
        trace = random_trace(seed, storage_bits=storage_bits)
        configs = config_grid(chip)
        sampling = SamplingConfig(max_pallets=3, seed=1000 + seed)
        stats = SweepStats()
        swept = sweep_network(trace, configs, sampling=sampling, stats=stats)
        assert stats.configs_simulated == len(configs)
        for label, config in configs.items():
            direct = PragmaticAccelerator(config).simulate_network(trace, sampling)
            assert swept[label].network == direct.network
            assert swept[label].accelerator == direct.accelerator
            # LayerResult is a frozen dataclass of floats: tuple equality is
            # exact bitwise float comparison, which is the whole point.
            assert swept[label].layers == direct.layers

    def test_fig9_variant_set_on_fast_sampling(self):
        """The golden check CI runs: the fig9 grid at fast-preset sampling."""
        trace = random_trace(7)
        configs = fig9_variants()
        sampling = SamplingConfig(max_pallets=6, seed=2024)
        swept = sweep_network(trace, configs, sampling=sampling)
        for label, config in configs.items():
            direct = PragmaticAccelerator(config).simulate_network(trace, sampling)
            assert swept[label].layers == direct.layers

    def test_exact_sampling_mode_stays_identical(self, tiny_trace):
        configs = config_grid(DEFAULT_CHIP)
        sampling = SamplingConfig(exact=True)
        swept = sweep_network(tiny_trace, configs, sampling=sampling)
        for label, config in configs.items():
            direct = PragmaticAccelerator(config).simulate_network(tiny_trace, sampling)
            assert swept[label].layers == direct.layers

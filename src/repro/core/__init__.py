"""Pragmatic core: oneffset generation, PIPs, scheduling, and the cycle simulator."""

from repro.core.accelerator import (
    LayerResult,
    NetworkResult,
    PragmaticAccelerator,
    PragmaticConfig,
)
from repro.core.dispatcher import DispatchStep, Dispatcher
from repro.core.kernels import (
    batched_drain_cycles,
    pack_bit_planes,
    pack_drain_masks,
    packed_essential_terms,
)
from repro.core.oneffset_generator import NeuronLaneState, OneffsetGenerator
from repro.core.pip import PragmaticInnerProductUnit, PragmaticTileFunctional
from repro.core.progress import ProgressToken, SweepCancelled
from repro.core.scheduling import (
    column_drain_cycles,
    column_sync_cycles,
    encoded_drain_masks,
    essential_terms,
    pallet_sync_cycles,
    ssr_pipeline_cycles,
    step_drain_cycles,
)
from repro.core.software import SoftwareGuidance
from repro.core.sweep import cycles_from_drain, sweep_network
from repro.core.variants import (
    FIG9_FIRST_STAGE_BITS,
    FIG10_SSR_COUNTS,
    column_variant,
    encoding_variant,
    encoding_variants,
    fig9_variants,
    fig10_variants,
    fig12_variants,
    pallet_variant,
    paper_variants,
    single_stage_variant,
)

__all__ = [
    "PragmaticConfig",
    "PragmaticAccelerator",
    "LayerResult",
    "NetworkResult",
    "OneffsetGenerator",
    "NeuronLaneState",
    "Dispatcher",
    "DispatchStep",
    "PragmaticInnerProductUnit",
    "PragmaticTileFunctional",
    "SoftwareGuidance",
    "column_drain_cycles",
    "step_drain_cycles",
    "pallet_sync_cycles",
    "column_sync_cycles",
    "ssr_pipeline_cycles",
    "essential_terms",
    "encoded_drain_masks",
    "batched_drain_cycles",
    "pack_drain_masks",
    "pack_bit_planes",
    "packed_essential_terms",
    "ProgressToken",
    "SweepCancelled",
    "sweep_network",
    "cycles_from_drain",
    "pallet_variant",
    "column_variant",
    "single_stage_variant",
    "encoding_variant",
    "encoding_variants",
    "fig9_variants",
    "fig10_variants",
    "fig12_variants",
    "paper_variants",
    "FIG9_FIRST_STAGE_BITS",
    "FIG10_SSR_COUNTS",
]

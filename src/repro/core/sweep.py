"""Efficient design-space sweeps over Pragmatic configurations.

The paper's figures evaluate many configurations over the same traces.  The
expensive part of the cycle simulation — computing per-column drain cycles from
the neuron term planes — only depends on the first-stage shifter width, on
whether software trimming is applied and on the oneffset encoding, not on the
synchronization scheme or the SSR count.  :func:`sweep_network` therefore
samples each layer's pallets once, plans every
``(first_stage_bits, software_trimming, encoding)`` drain group of the layer
up front, and dispatches them through the batched drain kernel
(:mod:`repro.core.kernels`): the trimmed neuron values are packed once per
``(trimming, encoding)`` pair and all first-stage reaches are evaluated over
that packed tensor in one call.  Every requested configuration's cycle count is then
derived from its group's drains, producing **bit-identical** results to
:class:`repro.core.accelerator.PragmaticAccelerator` at a fraction of the cost
(the golden suite in ``tests/test_core_kernels.py`` asserts exact equality).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.memory import NeuronMemory
from repro.arch.tiling import SamplingConfig, sample_pallet_values
from repro.baselines.dadiannao import DaDianNaoModel
from repro.core.accelerator import LayerResult, NetworkResult, PragmaticConfig
from repro.core.counters import Counters
from repro.core.kernels import batched_drain_cycles, packed_essential_terms
from repro.core.progress import ProgressToken, SweepCancelled
from repro.core.scheduling import encoded_drain_masks, ssr_pipeline_cycles
from repro.core.software import SoftwareGuidance
from repro.nn.traces import NetworkTrace

__all__ = [
    "ProgressToken",
    "SweepCancelled",
    "SweepStats",
    "sweep_network",
    "cycles_from_drain",
]


@dataclass
class SweepStats(Counters):
    """Counters of the work a sweep actually performed.

    The runtime layer passes one instance through every sweep of a session so
    run summaries can state exactly how much cycle simulation was recomputed
    (a warm-cache run reports zero on both counters).
    """

    configs_simulated: int = 0
    drain_groups_computed: int = 0


def cycles_from_drain(
    drain: np.ndarray,
    config: PragmaticConfig,
    min_step_cycles: int,
    sb_read_cycles: int = 1,
) -> np.ndarray:
    """Per-pallet cycles from precomputed drain counts ``[pallets, steps, windows]``."""
    clamped = np.maximum(drain, min_step_cycles)
    if config.synchronization == "pallet":
        return clamped.max(axis=2).sum(axis=1)
    return ssr_pipeline_cycles(clamped, config.ssr_count, sb_read_cycles=sb_read_cycles)


@dataclass
class _DrainGroup:
    """Drain tensors shared by all configurations with the same bit behaviour."""

    drain: np.ndarray
    terms: float


def sweep_network(
    trace: NetworkTrace,
    configs: dict[str, PragmaticConfig],
    sampling: SamplingConfig = SamplingConfig(),
    stats: SweepStats | None = None,
    progress: ProgressToken | None = None,
) -> dict[str, NetworkResult]:
    """Simulate every configuration over one traced network.

    Parameters
    ----------
    trace:
        Calibrated activation trace.
    configs:
        Mapping of result label to configuration.  All configurations must share
        the same chip structure (they do for every paper experiment).
    sampling:
        Pallet sampling configuration.
    stats:
        Optional :class:`SweepStats` accumulating how much simulation work the
        sweep performed (used by :mod:`repro.runtime` run summaries).
    progress:
        Optional :class:`ProgressToken`.  The sweep checks it at cooperative
        checkpoints — between layers and between drain groups, never inside a
        unit of work — raising :class:`SweepCancelled` once cancellation has
        been requested, and emits one ``"layer"`` progress event per completed
        layer.

    Returns
    -------
    dict
        Label → :class:`NetworkResult`, numerically identical to running each
        configuration through :class:`PragmaticAccelerator` with the same
        sampling seed.
    """
    if not configs:
        raise ValueError("configs must not be empty")
    if progress is not None:
        progress.checkpoint()
    chips = {config.chip for config in configs.values()}
    if len(chips) != 1:
        raise ValueError("all configurations in one sweep must share the same chip")
    chip = next(iter(chips))
    baseline = DaDianNaoModel(chip)
    memory = NeuronMemory(chip)

    per_config_layers: dict[str, list[LayerResult]] = {label: [] for label in configs}
    storage_bits = trace.storage_bits
    if stats is not None:
        stats.configs_simulated += len(configs)

    num_layers = trace.network.num_layers
    for layer_index in range(num_layers):
        if progress is not None:
            progress.checkpoint()
        layer = trace.layer(layer_index)
        values, total_pallets = sample_pallet_values(trace, layer_index, sampling)
        min_step = max(1, memory.pallet_fetch_cycles(layer))
        passes = layer.filter_passes(chip.filters_per_cycle)
        baseline_cycles = float(baseline.layer_cycles(layer))
        baseline_terms = float(baseline.layer_terms(layer, storage_bits))

        # Plan every (first_stage_bits, software_trimming, encoding) drain
        # group of the layer up front, then dispatch one batched kernel call
        # per (trimming, encoding) pair: the packed term masks and per-column
        # statistics are shared by all first-stage reaches of that pair.
        group_keys: list[tuple[int, bool, str]] = []
        for config in configs.values():
            key = (config.first_stage_bits, config.software_trimming, config.encoding)
            if key not in group_keys:
                group_keys.append(key)
        groups: dict[tuple[int, bool, str], _DrainGroup] = {}
        for trimming, encoding in dict.fromkeys(key[1:] for key in group_keys):
            if progress is not None:
                progress.checkpoint()
            flag_keys = [key for key in group_keys if key[1:] == (trimming, encoding)]
            guidance = SoftwareGuidance.from_trace(trace, enabled=trimming)
            trimmed = guidance.apply(values, layer_index)
            masks = encoded_drain_masks(trimmed, storage_bits, encoding)
            drains = batched_drain_cycles(
                masks, [1 << bits for bits, _, _ in flag_keys]
            )
            terms_per_neuron = packed_essential_terms(masks) / max(1, trimmed.size)
            if stats is not None:
                stats.drain_groups_computed += len(flag_keys)
            for slot, key in enumerate(flag_keys):
                groups[key] = _DrainGroup(
                    drain=drains[slot], terms=terms_per_neuron * layer.macs
                )

        for label, config in configs.items():
            group = groups[
                (config.first_stage_bits, config.software_trimming, config.encoding)
            ]
            per_pallet = cycles_from_drain(group.drain, config, min_step)
            cycles = float(per_pallet.mean()) * total_pallets * passes
            per_config_layers[label].append(
                LayerResult(
                    layer_name=layer.name,
                    cycles=cycles,
                    baseline_cycles=baseline_cycles,
                    terms=group.terms,
                    baseline_terms=baseline_terms,
                )
            )
        if progress is not None:
            progress.emit(
                {
                    "stage": "layer",
                    "network": trace.network.name,
                    "layer": layer.name,
                    "index": layer_index,
                    "layers": num_layers,
                }
            )

    return {
        label: NetworkResult(
            network=trace.network.name,
            accelerator=configs[label].name,
            layers=tuple(layers),
        )
        for label, layers in per_config_layers.items()
    }

#!/usr/bin/env python3
"""Design-space exploration: first-stage shifter width and SSR count.

The two knobs the paper sweeps are the width ``L`` of the per-synapse
first-stage shifters (Figure 9 / Table III) and, for per-column
synchronization, the number of synapse set registers (Figure 10 / Table IV).
This example sweeps both over any network and reports performance together
with the area/power cost of each point — the data a designer would use to pick
the PRA-2b-1R configuration the paper recommends.

The sweeps run through :mod:`repro.runtime`, so design points are memoized in
a content-addressed cache: re-running the exploration (or widening it by a few
configurations) only simulates what has not been simulated before.

Run it with::

    python examples/design_space_exploration.py [network] [cache-dir]
"""

from __future__ import annotations

import sys

from repro.analysis.tables import format_ratio, format_table
from repro.arch.tiling import SamplingConfig
from repro.core.variants import column_variant, pallet_variant
from repro.energy.area import design_area
from repro.energy.efficiency import design_efficiency
from repro.energy.power import design_power
from repro.runtime import (
    SessionSpec,
    SimulationRequest,
    TraceSpec,
    build_session,
    current_session,
    simulate,
    use_session,
)


def main(network: str = "vgg_m", cache_dir: str | None = None) -> None:
    # A cache dir persists simulation results so repeat explorations are instant.
    with use_session(build_session(SessionSpec(cache_dir=cache_dir))):
        explore(network)


def explore(network: str) -> None:
    spec = TraceSpec(network=network)
    sampling = SamplingConfig(max_pallets=8)

    print(f"== First-stage shifter sweep (per-pallet sync) on {network} ==")
    shifter_configs = {f"PRA-{bits}b": pallet_variant(bits) for bits in range(5)}
    results = simulate(
        SimulationRequest(trace=spec, configs=tuple(shifter_configs.items()), sampling=sampling)
    )
    rows = []
    for name, config in shifter_configs.items():
        result = results[name]
        rows.append(
            [
                name,
                format_ratio(result.speedup),
                f"{design_area(config).chip_mm2:.0f} mm2",
                f"{design_power(config).chip_w:.1f} W",
                format_ratio(design_efficiency(config, result).efficiency),
            ]
        )
    print(format_table(["design", "speedup", "chip area", "chip power", "energy eff."], rows))
    print()

    print(f"== SSR sweep (per-column sync, L = 2) on {network} ==")
    ssr_configs = {
        ("ideal" if count is None else f"{count} SSR"): column_variant(count)
        for count in (1, 2, 4, 8, 16, None)
    }
    results = simulate(
        SimulationRequest(trace=spec, configs=tuple(ssr_configs.items()), sampling=sampling)
    )
    rows = []
    for name, config in ssr_configs.items():
        result = results[name]
        rows.append(
            [
                name,
                format_ratio(result.speedup),
                f"{design_area(config).unit_mm2:.2f} mm2/unit",
                f"{design_power(config).chip_w:.1f} W",
                format_ratio(design_efficiency(config, result).efficiency),
            ]
        )
    print(format_table(["SSRs", "speedup", "unit area", "chip power", "energy eff."], rows))
    print()
    print(
        "The knee of both curves is the configuration the paper recommends:\n"
        "2-bit first-stage shifters with per-column synchronization and one SSR."
    )
    print()
    print(current_session().stats().summary())


if __name__ == "__main__":
    main(
        sys.argv[1] if len(sys.argv) > 1 else "vgg_m",
        sys.argv[2] if len(sys.argv) > 2 else None,
    )

"""Shared infrastructure of the experiment harness.

Every paper table and figure has a module in this package exposing
``run(preset, seed) -> ExperimentResult``.  The preset controls how much work
the reproduction does (trace sample sizes, pallets simulated per layer, which
networks are included) so the same experiment can serve quick benchmarks and
full reproduction runs.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.arch.tiling import SamplingConfig
from repro.nn.networks import NETWORK_NAMES

__all__ = [
    "Preset",
    "PRESETS",
    "get_preset",
    "ExperimentResult",
    "export_results",
    "parse_size",
    "parse_age",
    "parse_endpoint",
]

#: Multipliers of byte-size suffixes (binary, case-insensitive).
_SIZE_SUFFIXES = {"k": 1024, "m": 1024**2, "g": 1024**3}

#: Multipliers of duration suffixes.
_AGE_SUFFIXES = {"s": 1, "m": 60, "h": 3600, "d": 86400}


def parse_size(value: str) -> int:
    """``"500M"`` → bytes (plain integers and K/M/G suffixes).

    Shared argparse ``type=`` of every size-taking CLI flag (the batch CLI's
    ``--max-bytes``, the serve CLI's ``--gc-max-bytes``).
    """
    text = value.strip().lower()
    factor = 1
    if text and text[-1] in _SIZE_SUFFIXES:
        factor = _SIZE_SUFFIXES[text[-1]]
        text = text[:-1]
    try:
        number = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a byte size like 1048576 or 500M, got {value!r}"
        ) from None
    if number < 0:
        raise argparse.ArgumentTypeError("byte size must be non-negative")
    return number * factor


def parse_age(value: str) -> float:
    """``"30d"`` → seconds (plain numbers and s/m/h/d suffixes).

    Shared argparse ``type=`` of every duration-taking CLI flag (the batch
    CLI's ``--max-age``, the serve CLI's ``--gc-interval``/``--gc-max-age``).
    """
    text = value.strip().lower()
    factor = 1
    if text and text[-1] in _AGE_SUFFIXES:
        factor = _AGE_SUFFIXES[text[-1]]
        text = text[:-1]
    try:
        number = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an age like 3600, 90m or 30d, got {value!r}"
        ) from None
    if number < 0:
        raise argparse.ArgumentTypeError("age must be non-negative")
    return number * factor


def parse_endpoint(value: str) -> tuple[str, int]:
    """``"host:8000"`` → ``("host", 8000)``; the port follows the last colon.

    Shared argparse ``type=`` of every ``HOST:PORT`` CLI flag (serve, cluster,
    cacheserve and loadgen).
    """
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {value!r}")
    return host, int(port)


#: Version of the exported-artifact JSON schema.
RESULT_SCHEMA = 1


@dataclass(frozen=True)
class Preset:
    """Workload size of an experiment run.

    Attributes
    ----------
    name:
        Preset identifier.
    networks:
        Networks to evaluate.
    samples_per_layer:
        Neuron values sampled per layer for the statistics passes.
    max_pallets:
        Pallets sampled per layer by the cycle simulator.
    seed:
        Default random seed (kept in the preset so benchmark runs are
        reproducible end to end).
    """

    name: str
    networks: tuple[str, ...] = NETWORK_NAMES
    samples_per_layer: int = 8000
    max_pallets: int = 6
    seed: int = 0

    def sampling(self) -> SamplingConfig:
        """Sampling configuration for the cycle simulators."""
        return SamplingConfig(max_pallets=self.max_pallets, seed=self.seed)


#: Named presets.  ``smoke`` exists for the test suite, ``fast`` for the
#: benchmark harness, ``full`` for a complete reproduction run.
PRESETS: dict[str, Preset] = {
    "smoke": Preset(name="smoke", networks=("alexnet", "vgg_m"), samples_per_layer=2000, max_pallets=2),
    "fast": Preset(name="fast", samples_per_layer=8000, max_pallets=6),
    "full": Preset(name="full", samples_per_layer=30000, max_pallets=24),
}


def get_preset(preset: str | Preset) -> Preset:
    """Resolve a preset by name (or pass a custom :class:`Preset` through)."""
    if isinstance(preset, Preset):
        return preset
    if preset not in PRESETS:
        raise KeyError(f"unknown preset {preset!r}; available: {', '.join(PRESETS)}")
    return PRESETS[preset]


@dataclass
class ExperimentResult:
    """The reproduced rows of one paper table or figure.

    Attributes
    ----------
    experiment:
        Short experiment id (``"fig9"``, ``"table3"`` …).
    title:
        Human readable title including the paper artifact it reproduces.
    headers:
        Column headers.
    rows:
        Table rows (lists of cells; strings or numbers).
    notes:
        Free-form notes: substitutions, known deviations, paper reference values.
    metadata:
        Machine-readable extras (e.g. geometric means) for tests and callers.
    """

    experiment: str
    title: str
    headers: list[str]
    rows: list[list[object]]
    notes: str = ""
    metadata: dict[str, float] = field(default_factory=dict)

    def to_text(self) -> str:
        """Render the experiment as readable text."""
        from repro.analysis.tables import format_table

        parts = [self.title, "", format_table(self.headers, self.rows)]
        if self.notes:
            parts.extend(["", self.notes])
        return "\n".join(parts)

    # ------------------------------------------------------------------ export
    def to_dict(self) -> dict:
        """Machine-readable rendering for downstream tooling."""
        return {
            "schema": RESULT_SCHEMA,
            "experiment": self.experiment,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "notes": self.notes,
            "metadata": dict(self.metadata),
        }

    def to_json(self, indent: int | None = 2) -> str:
        """Render the experiment as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output (artifact round trip)."""
        return cls(
            experiment=payload["experiment"],
            title=payload["title"],
            headers=list(payload["headers"]),
            rows=[list(row) for row in payload["rows"]],
            notes=payload.get("notes", ""),
            metadata=dict(payload.get("metadata", {})),
        )


def export_results(results: dict[str, ExperimentResult], out_dir: str | Path) -> list[Path]:
    """Write one ``<experiment>.json`` artifact per result; returns the paths."""
    directory = Path(out_dir).expanduser()
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, result in results.items():
        path = directory / f"{name}.json"
        path.write_text(result.to_json() + "\n", encoding="utf-8")
        paths.append(path)
    return paths

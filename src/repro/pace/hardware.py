"""Hardware platform catalogue — the resource-tool side of the PACE stand-in.

PACE resource models hold *static* performance information for a hardware
platform (the paper, §1: "The PACE resource model uses static performance
information, which simplifies the implementation ... and also reduces
evaluation time").  We model a platform as:

* a **speed factor** — the multiplier applied to the published
  SGIOrigin2000 execution-time curves (Table 1).  A factor of 2.0 means the
  platform runs every application twice as slowly as the SGI;
* micro-benchmarks for the **structural** models: per-operation cost and a
  latency/bandwidth network model.

Only the SGIOrigin2000 column of Table 1 is published; the paper states the
other platforms "follow a similar trend" and gives their strict performance
ordering (§4.1).  The factors below preserve that ordering and are the
documented substitution (see DESIGN.md §4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator

from repro.errors import ModelError
from repro.utils.validation import check_positive

__all__ = [
    "PlatformSpec",
    "HardwareCatalogue",
    "DEFAULT_CATALOGUE",
    "SGI_ORIGIN_2000",
    "SUN_ULTRA_10",
    "SUN_ULTRA_5",
    "SUN_ULTRA_1",
    "SUN_SPARC_STATION_2",
]


@dataclass(frozen=True)
class PlatformSpec:
    """Static performance description of one hardware platform.

    Parameters
    ----------
    name:
        Platform identifier as used in the paper's service information
        templates, e.g. ``"SunUltra10"``.
    speed_factor:
        Execution-time multiplier relative to the SGIOrigin2000 baseline
        (1.0 = as fast as the SGI; larger = slower).
    flop_rate:
        Sustained Mflop/s figure used by the structural application models.
    network_latency:
        Per-message latency in seconds for intra-cluster communication.
    network_bandwidth:
        Intra-cluster bandwidth in MB/s.
    description:
        Free-text provenance note.
    """

    name: str
    speed_factor: float
    flop_rate: float = 100.0
    network_latency: float = 50e-6
    network_bandwidth: float = 100.0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("platform name must be non-empty")
        check_positive(self.speed_factor, "speed_factor")
        check_positive(self.flop_rate, "flop_rate")
        check_positive(self.network_latency, "network_latency")
        check_positive(self.network_bandwidth, "network_bandwidth")


#: The five platforms of the paper's case study (Fig. 7), ordered fastest to
#: slowest: "The SGI multi-processor is the most powerful, followed by the
#: Sun Ultra 10, 5, 1, and SPARCStation 2 in turn."
SGI_ORIGIN_2000 = PlatformSpec(
    name="SGIOrigin2000",
    speed_factor=1.0,
    flop_rate=400.0,
    network_latency=10e-6,
    network_bandwidth=600.0,
    description="16-processor SGI Origin 2000 (R10000); Table 1 baseline",
)
SUN_ULTRA_10 = PlatformSpec(
    name="SunUltra10",
    speed_factor=2.0,
    flop_rate=200.0,
    network_latency=80e-6,
    network_bandwidth=100.0,
    description="Cluster of 16 Sun Ultra 10 workstations",
)
SUN_ULTRA_5 = PlatformSpec(
    name="SunUltra5",
    speed_factor=3.0,
    flop_rate=130.0,
    network_latency=80e-6,
    network_bandwidth=100.0,
    description="Cluster of 16 Sun Ultra 5 workstations",
)
SUN_ULTRA_1 = PlatformSpec(
    name="SunUltra1",
    speed_factor=4.0,
    flop_rate=100.0,
    network_latency=100e-6,
    network_bandwidth=80.0,
    description="Cluster of 16 Sun Ultra 1 workstations",
)
SUN_SPARC_STATION_2 = PlatformSpec(
    name="SunSPARCstation2",
    speed_factor=8.0,
    flop_rate=50.0,
    network_latency=150e-6,
    network_bandwidth=40.0,
    description="Cluster of 16 Sun SPARCstation 2 workstations",
)


class HardwareCatalogue:
    """A registry of :class:`PlatformSpec` keyed by platform name."""

    def __init__(self) -> None:
        self._platforms: Dict[str, PlatformSpec] = {}

    def register(self, spec: PlatformSpec) -> PlatformSpec:
        """Add *spec* to the catalogue; re-registering a name must be identical."""
        existing = self._platforms.get(spec.name)
        if existing is not None and existing != spec:
            raise ModelError(
                f"platform {spec.name!r} already registered with different parameters"
            )
        self._platforms[spec.name] = spec
        return spec

    def get(self, name: str) -> PlatformSpec:
        """Look up a platform by name; raises :class:`ModelError` if unknown."""
        try:
            return self._platforms[name]
        except KeyError:
            raise ModelError(
                f"unknown platform {name!r}; known: {sorted(self._platforms)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._platforms

    def __iter__(self) -> Iterator[PlatformSpec]:
        return iter(self._platforms.values())

    def __len__(self) -> int:
        return len(self._platforms)

    def names(self) -> list[str]:
        """Sorted platform names."""
        return sorted(self._platforms)


def _build_default() -> HardwareCatalogue:
    cat = HardwareCatalogue()
    for spec in (
        SGI_ORIGIN_2000,
        SUN_ULTRA_10,
        SUN_ULTRA_5,
        SUN_ULTRA_1,
        SUN_SPARC_STATION_2,
    ):
        cat.register(spec)
    return cat


#: Catalogue pre-populated with the paper's five case-study platforms.
DEFAULT_CATALOGUE = _build_default()

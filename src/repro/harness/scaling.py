"""Scaled topology registry: mapping the paper's sizes to laptop scale.

The paper sweeps FatTree40–FatTree90 (2000–10125 switches) on 100 GB
logical servers.  The benchmarks sweep k ∈ {4, 6, 8, 10} by default and
scale the modeled worker capacity with the route count, so the OOM
crossovers land at the same *relative* sweep positions as the paper's
(Batfish dies at the second size, S2 w/o sharding at the top size, etc.).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..config.loader import Snapshot
from ..dist.resources import UNLIMITED_CAPACITY
from ..net.fattree import FatTreeSpec, build_fattree

#: The paper's sweep, smallest to largest.
PAPER_SIZES = (40, 50, 60, 70, 80, 90)

#: The default scaled sweep: k here plays the role of the same-index
#: paper size (4↔FatTree40, 6↔FatTree50, 8↔FatTree60, 10↔FatTree70, ...).
SCALED_SIZES = (4, 6, 8, 10, 12, 14)


@dataclass(frozen=True)
class ScaledSize:
    """One sweep point: the scaled k and its paper analogue."""

    k: int
    paper_k: int

    @property
    def label(self) -> str:
        return f"FatTree{self.paper_k} (k={self.k})"

    @property
    def num_switches(self) -> int:
        return FatTreeSpec(k=self.k).num_switches

    @property
    def paper_switches(self) -> int:
        return FatTreeSpec(k=self.paper_k).num_switches


def sweep(count: int = 4) -> List[ScaledSize]:
    """The first ``count`` sweep points (benchmarks default to 4)."""
    return [
        ScaledSize(k=k, paper_k=p)
        for k, p in zip(SCALED_SIZES[:count], PAPER_SIZES[:count])
    ]


def fattree_routes_estimate(k: int) -> int:
    """Total-route estimate for a k-pod FatTree (§2.2: quadratic-ish)."""
    spec = FatTreeSpec(k=k)
    return spec.estimated_total_routes()


_PEAK_CACHE: Dict[int, int] = {}


def measured_single_server_peak(k: int) -> int:
    """Measured peak modeled memory of one unsharded single-server
    control-plane run on FatTree ``k`` (cached per process)."""
    cached = _PEAK_CACHE.get(k)
    if cached is not None:
        return cached
    from ..baselines.batfish import BatfishVerifier  # local: avoid a cycle

    verifier = BatfishVerifier(build_fattree(k), capacity=UNLIMITED_CAPACITY)
    verifier.run_control_plane()
    peak = verifier.resources.peak_bytes
    _PEAK_CACHE[k] = peak
    return peak


def capacity_for_sweep(
    reference_k: int,
    sweep_sizes: Tuple[int, ...] = (),
    headroom: float = 1.35,
) -> int:
    """A capacity calibrated so one server "just fits" the unsharded
    ``reference_k`` FatTree — anything meaningfully larger OOMs, like the
    paper's 100 GB ceiling does between FatTree40 and FatTree50.

    The reference peak is *measured* (one quick control-plane run with
    an unlimited capacity), so the calibration self-adjusts if the memory
    constants change.  ``headroom`` leaves the reference size margin.
    """
    del sweep_sizes  # calibration is measurement-based
    return int(measured_single_server_peak(reference_k) * headroom)


def build_scaled(size: ScaledSize, **kwargs) -> Snapshot:
    snapshot = build_fattree(size.k, **kwargs)
    snapshot.metadata["paper_k"] = str(size.paper_k)
    return snapshot

"""Parallel GA extensions (the Sec. II-B acceleration direction).

The related-work section cites pipelined/parallel hardware GA architectures
[11]-[13]; the natural multi-core analogue of "several GA cores on one
fabric" is the island model: independent GA engines with periodic best-
individual migration.  :mod:`repro.parallel.archipelago` holds it:
``VectorIslandGA`` (alias ``IslandGA``) runs the whole archipelago as one
batched slab, with a per-epoch reference loop beside it.
"""

from repro.parallel.archipelago import (
    IslandGA,
    IslandResult,
    MigrationTopology,
    VectorIslandGA,
    build_topology,
    ring_topology,
    random_topology,
    torus_topology,
)

__all__ = [
    "IslandGA",
    "IslandResult",
    "MigrationTopology",
    "VectorIslandGA",
    "build_topology",
    "ring_topology",
    "random_topology",
    "torus_topology",
]

"""The island model: the whole archipelago as one batched slab.

Models a fabric carrying several GA IP cores (Sec. II-B, the hybrid system
of Fig. 5): ``n_islands`` behavioural engines evolve carried populations in
epochs of ``migration_interval`` generations (a final partial epoch runs
any remainder), and at every epoch boundary but the last, champions
migrate over a programmable :class:`MigrationTopology`, each replacing a
worst member of its destination.

:meth:`VectorIslandGA.run` maps the archipelago onto *one* resumable
:class:`~repro.core.batch.BatchBehavioralGA` whose replica axis is the
island axis — the way Torquato & Fernandes run fully pipelined concurrent
populations, and the (islands x pop x bits) layout a future GPU/array
backend needs.  Migration is pure array surgery over the topology's
precomputed edge arrays (``sources``, ``dests``, and each edge's rank
among its destination's incoming edges): gather champions, rank members
worst-first with one stable argsort, scatter, re-evaluate, re-anchor.

:meth:`VectorIslandGA.run_epoch_loop` is the reference: one fresh batched
engine per epoch and a per-edge migration loop over carried lists.  Both
loops share one epoch driver (schedule, spans, champion race, result).
In exact mode the two are bit-identical for any ``(params, seed,
topology)`` (``tests/parallel/test_archipelago.py``); turbo mode is
deterministic per (params, seed, topology) and independent of step
chunking.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.core.batch import BatchBehavioralGA
from repro.core.params import GAParameters
from repro.core.validate import parse_topology, validate_island_params
from repro.fitness.base import FitnessFunction
from repro.obs.metrics import record_archipelago_run


@dataclass(frozen=True)
class MigrationTopology:
    """Archipelago wiring as precomputed edge index arrays.

    Edge ``e`` sends the champion of island ``sources[e]`` to island
    ``dests[e]``.  Edges are sorted by destination and ``rank[e]`` numbers
    an edge among its destination's incoming edges (0, 1, ...), so a
    destination receiving k migrants replaces its k worst members — the
    rank-0 edge replaces the very worst, exactly like the hardware-style
    ring's ``argmin`` replacement, and ties between equal-fitness members
    resolve to the lowest member index (stable sort).
    """

    name: str
    n_islands: int
    sources: np.ndarray
    dests: np.ndarray
    rank: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        sources = np.asarray(self.sources, dtype=np.int64)
        dests = np.asarray(self.dests, dtype=np.int64)
        if sources.shape != dests.shape or sources.ndim != 1:
            raise ValueError("sources and dests must be equal-length 1-D")
        if sources.size and (
            sources.min() < 0
            or sources.max() >= self.n_islands
            or dests.min() < 0
            or dests.max() >= self.n_islands
        ):
            raise ValueError("edge endpoints must be island indices")
        if np.any(sources == dests):
            raise ValueError("self-edges are not allowed")
        order = np.argsort(dests, kind="stable")
        sources, dests = sources[order], dests[order]
        # rank within each destination group = position - group start
        starts = np.searchsorted(dests, dests, side="left")
        rank = np.arange(dests.size, dtype=np.int64) - starts
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "dests", dests)
        object.__setattr__(self, "rank", rank)

    @property
    def n_edges(self) -> int:
        return int(self.dests.size)

    @property
    def max_fan_in(self) -> int:
        """Most migrants any single island receives per boundary."""
        return int(self.rank.max()) + 1 if self.n_edges else 0


def ring_topology(n_islands: int) -> MigrationTopology:
    """Island ``i`` sends to ``(i + 1) mod n`` — the legacy hardware-style
    ring.  One island degenerates to zero edges (nothing to rotate)."""
    if n_islands < 2:
        empty = np.empty(0, dtype=np.int64)
        return MigrationTopology("ring", n_islands, empty, empty)
    dests = np.arange(n_islands, dtype=np.int64)
    return MigrationTopology("ring", n_islands, (dests - 1) % n_islands, dests)


def torus_topology(n_islands: int) -> MigrationTopology:
    """2-D wrap-around grid: every island sends right and down.

    The grid is the most-square factorization ``rows x cols = n`` with
    ``rows <= cols``; a prime count degenerates to a ``1 x n`` row whose
    "down" edges are self-edges and are dropped, leaving a ring.
    """
    if n_islands < 2:
        empty = np.empty(0, dtype=np.int64)
        return MigrationTopology("torus", n_islands, empty, empty)
    rows = 1
    for r in range(int(n_islands**0.5), 0, -1):
        if n_islands % r == 0:
            rows = r
            break
    cols = n_islands // rows
    r, c = np.divmod(np.arange(n_islands, dtype=np.int64), cols)
    sources, dests = [], []
    if cols > 1:
        sources.append(r * cols + c)
        dests.append(r * cols + (c + 1) % cols)
    if rows > 1:
        sources.append(r * cols + c)
        dests.append(((r + 1) % rows) * cols + c)
    return MigrationTopology(
        "torus", n_islands, np.concatenate(sources), np.concatenate(dests)
    )


def random_topology(
    n_islands: int, fan_in: int, seed: int
) -> MigrationTopology:
    """Each island receives champions from ``fan_in`` distinct other
    islands, wired seed-deterministically (same seed, same graph — on any
    platform, via a dedicated PCG64 stream that never touches the GA's
    CA-PRNG words)."""
    if n_islands < 2:
        empty = np.empty(0, dtype=np.int64)
        return MigrationTopology("random", n_islands, empty, empty)
    k = min(fan_in, n_islands - 1)
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, n_islands, k]))
    )
    scores = rng.random((n_islands, n_islands))
    np.fill_diagonal(scores, np.inf)  # never pick yourself
    sources = np.argsort(scores, axis=1, kind="stable")[:, :k].ravel()
    dests = np.repeat(np.arange(n_islands, dtype=np.int64), k)
    return MigrationTopology("random", n_islands, sources, dests)


def build_topology(spec: str, n_islands: int, seed: int) -> MigrationTopology:
    """Build the wiring for a validated topology spec (``"ring"``,
    ``"torus"``, ``"random"``/``"random:<k>"``)."""
    name, fan_in = parse_topology(spec)
    if name == "ring":
        return ring_topology(n_islands)
    if name == "torus":
        return torus_topology(n_islands)
    return random_topology(n_islands, fan_in, seed)


def island_seeds(params: GAParameters, n_islands: int) -> list[int]:
    """Decorrelated per-island offsets of the programmed seed (the
    programmable-seed feature, once per core) — shared by both loops so
    they seed identically."""
    return [
        ((params.rng_seed + 0x9E37 * i) & 0xFFFF) or 1 for i in range(n_islands)
    ]


@dataclass
class IslandResult:
    """Outcome of an island-model run.

    ``epoch_champions[e][i]`` is island ``i``'s ``(individual, fitness)``
    champion at the end of epoch ``e`` — the full migration-candidate
    history, not just the final survivor — which is what migration-policy
    analysis needs; it is O(epochs x islands) and sits behind the
    ``record_champions`` flag so thousand-island runs can drop it.
    ``epoch_summary[e]`` is the O(epochs) digest that always stays on:
    ``(best_fitness, best_individual, champion_fitness_sum)`` at the end
    of epoch ``e`` (the rows a service job's history is built from).
    """

    best_individual: int
    best_fitness: int
    island_bests: list[int]
    migrations: int
    evaluations: int
    best_per_epoch: list[int]
    epoch_champions: list[list[tuple[int, int]]] = field(default_factory=list)
    epoch_summary: list[tuple[int, int, int]] = field(default_factory=list)


class VectorIslandGA:
    """Programmable-topology island model over behavioural GA engines.

    :meth:`run` executes it as one resumable batched slab;
    :meth:`run_epoch_loop` is the per-epoch reference it is bit-identical
    to in exact mode.  ``record_champions`` gates the O(epochs x islands)
    ``epoch_champions`` tuple history — leave it off for thousand-island
    runs.
    """

    def __init__(
        self,
        params: GAParameters,
        fitness: FitnessFunction,
        n_islands: int = 4,
        migration_interval: int = 8,
        topology: str | MigrationTopology = "ring",
        record_champions: bool = True,
        tracer=None,
        engine_mode: str = "exact",
    ):
        if isinstance(topology, MigrationTopology):
            validate_island_params(n_islands, migration_interval, topology.name)
            if topology.n_islands != n_islands:
                raise ValueError(
                    f"topology wires {topology.n_islands} islands, "
                    f"got n_islands={n_islands}"
                )
            self.topology = topology
        else:
            validate_island_params(n_islands, migration_interval, topology)
            #: archipelago wiring, seed-deterministic for ``"random[:k]"``
            self.topology = build_topology(topology, n_islands, params.rng_seed)
        if engine_mode not in ("exact", "turbo"):
            raise ValueError(
                f"engine_mode must be 'exact' or 'turbo': {engine_mode!r}"
            )
        if self.topology.max_fan_in >= params.population_size:
            raise ValueError(
                f"topology fan-in {self.topology.max_fan_in} would replace "
                f"a whole population of {params.population_size}"
            )
        self.params = params
        self.fitness = fitness
        self.n_islands = n_islands
        self.migration_interval = migration_interval
        self.record_champions = record_champions
        #: optional :class:`~repro.obs.tracer.Tracer`: one ``ga.run`` span,
        #: an ``island.epoch`` span per epoch (nesting the batched engine's
        #: per-generation events) and an ``island.migration`` event per
        #: boundary.  Results are identical with tracing on or off.
        self.tracer = tracer
        #: ``"exact"`` or ``"turbo"``; turbo islands agree between the two
        #: loops because the turbo engine's word consumption is
        #: composition-independent (solo == batch row, per stream)
        self.engine_mode = engine_mode
        self.seeds = island_seeds(params, n_islands)

    # ------------------------------------------------------------------
    def epoch_schedule(self) -> list[int]:
        """Generations per epoch: full ``migration_interval`` epochs plus a
        final partial epoch for the remainder, summing to exactly
        ``n_generations``."""
        full, remainder = divmod(
            self.params.n_generations, self.migration_interval
        )
        schedule = [self.migration_interval] * full
        if remainder:
            schedule.append(remainder)
        return schedule

    def _run_epochs(self, evolve, migrate, vectorized: bool) -> IslandResult:
        """The epoch driver both loops share.

        ``evolve(epoch, gens)`` advances every island one epoch inside its
        ``island.epoch`` span and returns the epoch's ``(individuals,
        fitnesses)`` champion arrays; ``migrate(individuals)`` sends them
        over the topology.  The driver owns the schedule, the spans and
        migration events, the per-island strict-improvement champion race
        and the result; the caller fills in ``evaluations``.
        """
        schedule = self.epoch_schedule()
        topo = self.topology
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        island_fit = np.full(self.n_islands, -1, dtype=np.int64)
        island_ind = np.zeros(self.n_islands, dtype=np.int64)
        migrations = 0
        epoch_summary: list[tuple[int, int, int]] = []
        epoch_champions: list[list[tuple[int, int]]] = []

        run_scope = (
            tracer.span(
                "ga.run",
                engine="island",
                vectorized=vectorized,
                fitness=self.fitness.name,
                islands=self.n_islands,
                migration_interval=self.migration_interval,
                topology=topo.name,
                generations=self.params.n_generations,
            )
            if tracing
            else nullcontext()
        )
        with run_scope:
            for epoch, epoch_gens in enumerate(schedule):
                epoch_scope = (
                    tracer.span("island.epoch", epoch=epoch, gens=epoch_gens)
                    if tracing
                    else nullcontext()
                )
                with epoch_scope:
                    champ_ind, champ_fit = evolve(epoch, epoch_gens)
                    improved = champ_fit > island_fit
                    island_fit = np.where(improved, champ_fit, island_fit)
                    island_ind = np.where(improved, champ_ind, island_ind)
                    if epoch < len(schedule) - 1 and topo.n_edges:
                        # no migration after the final epoch: the migrants
                        # would never evolve and would inflate the count
                        migrate(champ_ind)
                        migrations += topo.n_edges
                        if tracing:
                            tracer.event(
                                "island.migration",
                                epoch=epoch,
                                migrants=topo.n_edges,
                                champions=(
                                    [
                                        [int(c), int(f)]
                                        for c, f in zip(champ_ind, champ_fit)
                                    ]
                                    if self.record_champions
                                    else None
                                ),
                            )
                    best = int(island_fit.argmax())
                    epoch_summary.append(
                        (
                            int(island_fit[best]),
                            int(island_ind[best]),
                            int(champ_fit.sum()),
                        )
                    )
                    if self.record_champions:
                        epoch_champions.append(
                            list(
                                zip(champ_ind.tolist(), champ_fit.tolist())
                            )
                        )

        overall = int(island_fit.argmax())
        return IslandResult(
            best_individual=int(island_ind[overall]),
            best_fitness=int(island_fit[overall]),
            island_bests=island_fit.tolist(),
            migrations=migrations,
            evaluations=0,
            best_per_epoch=[fit for fit, _ind, _sum in epoch_summary],
            epoch_champions=epoch_champions,
            epoch_summary=epoch_summary,
        )

    def run(self) -> IslandResult:
        """Run every epoch on one carried slab."""
        topo = self.topology
        batch = BatchBehavioralGA(
            [self.params.with_(rng_seed=seed) for seed in self.seeds],
            self.fitness,
            record_members=False,
            tracer=self.tracer,
            mode=self.engine_mode,
            record_history=False,
        )

        def evolve(epoch, gens):
            if epoch == 0:
                # inside the first epoch span so the generation-0 trace
                # event nests like the reference loop's
                batch.begin()
            batch.step(gens)
            return batch.champions()

        def migrate(champ_ind):
            # rank members worst-first, scatter champions over the
            # topology, then restart the champion race from the migrated
            # populations (a freshly arrived migrant can be an island's
            # champion), exactly like the reference's fresh engine per epoch
            order = batch.worst_member_order()
            cols = order[topo.dests, topo.rank]
            batch.replace_members(topo.dests, cols, champ_ind[topo.sources])
            batch.reanchor_best()

        started = time.perf_counter()
        result = self._run_epochs(evolve, migrate, vectorized=True)
        batch.finalize()
        result.evaluations = int(batch.evaluations.sum())
        record_archipelago_run(
            self.n_islands,
            self.params.n_generations,
            len(result.best_per_epoch),
            result.migrations,
            time.perf_counter() - started,
        )
        return result

    def run_epoch_loop(self) -> IslandResult:
        """The reference epoch loop: one fresh batched engine per epoch.

        The vectorized :meth:`run` is property-tested against it (and
        ``benchmarks/bench_archipelago.py`` measures its speedup over it).
        """
        topo = self.topology
        states = list(self.seeds)
        populations: list[list[int]] = []
        evaluations = 0

        def evolve(epoch, gens):
            nonlocal evaluations
            batch = BatchBehavioralGA(
                [
                    self.params.with_(n_generations=gens, rng_seed=seed)
                    for seed in self.seeds
                ],
                self.fitness,
                record_members=False,
                rng_states=states,
                tracer=self.tracer,
                mode=self.engine_mode,
            )
            results = batch.run(
                initial=np.asarray(populations, dtype=np.int64) if epoch else None
            )
            states[:] = [int(s) for s in batch.rng_states]
            populations[:] = [pop.tolist() for pop in batch.final_populations]
            evaluations += sum(r.evaluations for r in results)
            return (
                np.array([r.best_individual for r in results], dtype=np.int64),
                np.array([r.best_fitness for r in results], dtype=np.int64),
            )

        def migrate(champ_ind):
            # edge ``e`` sends island ``sources[e]``'s champion into
            # ``dests[e]``, replacing its ``rank[e]``-th worst member; ranks
            # come from the pre-migration populations (one stable argsort
            # per destination), operation-for-operation the slab's scatter
            table = self.fitness.table()
            pops = {
                d: np.asarray(populations[d], dtype=np.int64)
                for d in set(topo.dests.tolist())
            }
            orders = {
                d: np.argsort(table[pop], kind="stable")
                for d, pop in pops.items()
            }
            for e in range(topo.n_edges):
                dst = int(topo.dests[e])
                pops[dst][orders[dst][int(topo.rank[e])]] = champ_ind[
                    int(topo.sources[e])
                ]
            for d, pop in pops.items():
                populations[d] = pop.tolist()

        result = self._run_epochs(evolve, migrate, vectorized=False)
        result.evaluations = evaluations
        return result


#: the island model's public name; one class serves both loops
IslandGA = VectorIslandGA

"""Seeded request generators for the four benchmark workloads.

Each generator is a pure function of the workload seed: the program under
test only ever sees the :class:`~repro.service.GARequest` objects built
here.  Warm-up requests are tiny (2 generations or fewer), a size no
measured request has, so they stay out of the measured set.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.core.params import GAParameters
from repro.experiments.harness import derive_seeds
from repro.experiments.zoo import SCENARIOS
from repro.service import GARequest

PAPER_FUNCTIONS = ("mBF6_2", "mBF7_2", "mShubert2D")
WARMUP_SEED = 0x0001


def _ga_seed(rng: random.Random) -> int:
    return rng.randint(WARMUP_SEED + 1, 0xFFFF)


def _request(fn, pop, gens, xover, mut, seed, mode="exact") -> GARequest:
    return GARequest(
        params=GAParameters(
            n_generations=gens, population_size=pop,
            crossover_threshold=xover, mutation_threshold=mut, rng_seed=seed,
        ),
        fitness_name=fn,
        engine_mode=mode,
    )


def warmup_requests(fitness_names) -> list[GARequest]:
    """One tiny out-of-set request per fitness slot (builds its table)."""
    return [_request(fn, 8, 2, 10, 1, WARMUP_SEED) for fn in fitness_names]


# -- paper-burst -------------------------------------------------------------

#: seeds per (function, pop, crossover) cell: 12 cells x 8 = 96 jobs a burst
PAPER_SEEDS_PER_CELL = 8


def paper_burst(seed: int) -> list[GARequest]:
    """The Tables VII-IX grid: 3 functions x pop {32, 64} x crossover
    {10, 12}, mutation 1, 64 generations, exact mode."""
    rng = random.Random(f"paper-burst:{seed}")
    return [
        _request(fn, pop, 64, xover, 1, _ga_seed(rng))
        for fn in PAPER_FUNCTIONS
        for pop in (32, 64)
        for xover in (10, 12)
        for _ in range(PAPER_SEEDS_PER_CELL)
    ]


# -- zoo-solo ----------------------------------------------------------------

#: zoo scenarios outside the dual32 family -> derived-seed repeats of each
#: per burst (repeat 0 is the scenario's pinned, golden seed).  The 54
#: exact pop-32 jobs ride two slabs whose jobs all finish together; the
#: solo families are sized so that the burst's median falls inside the
#: larger slab's plateau, not on its edge, where it jumped between runs
ZOO_SMALL = {
    "seq-counter": 18,
    "seq-detector": 18,
    "seq-counter-turbo": 18,
    "seq-archipelago": 9,
    "seq-cycle": 9,
    "mo-constrained": 18,
}
ZOO_DUAL32 = ("mux6-dual32", "parity6-dual32")
#: one zoo round, a burst per entry: for each dual32 scenario, the small
#: families twice, then that scenario alone
ZOO_ROUND = (None, None, ZOO_DUAL32[0], None, None, ZOO_DUAL32[1])
#: a round takes 16-24 s on a 2-vCPU host, so a 20 s run held one or two
#: of them depending on the host's speed at the time; two at least
#: average over more of it
ZOO_MIN_ROUNDS = 2


def _with_seed(request: GARequest, rng_seed: int) -> GARequest:
    return replace(request, params=request.params.with_(rng_seed=rng_seed))


def zoo_burst(seed: int, burst: int) -> list[GARequest]:
    """Burst ``burst`` of a zoo run, following ``ZOO_ROUND``: either every
    family but dual32 at its ``ZOO_SMALL`` count of seeds derived from the
    workload seed by ``harness.derive_seeds``, or one dual32 scenario at its pinned
    seed.  The dual32 job runs alone: beside the small jobs it contends
    with them for the interpreter lock, and their latency swung by half
    between runs."""
    dual32 = ZOO_ROUND[burst % len(ZOO_ROUND)]
    if dual32 is not None:
        return [SCENARIOS[dual32].request]
    requests = []
    for name, repeats in ZOO_SMALL.items():
        base = SCENARIOS[name].request
        seeds = derive_seeds(f"{name}:{seed}", base.params.rng_seed, repeats)
        requests.extend(_with_seed(base, s) for s in seeds)
    return requests


def zoo_warmup() -> list[GARequest]:
    """Out-of-set warm-up: every zoo fitness slot and substrate, tiny."""
    out = warmup_requests(sorted({SCENARIOS[n].request.fitness_name for n in ZOO_SMALL}))
    for name in ("seq-archipelago", "seq-cycle") + ZOO_DUAL32:
        base = SCENARIOS[name].request
        small = base.params.with_(n_generations=1, population_size=4,
                                  rng_seed=WARMUP_SEED)
        out.append(replace(base, params=small, migration_interval=1))
    return out


# -- open-arrivals -----------------------------------------------------------

#: Poisson arrival rate (jobs/s)
OPEN_RATE = 10.0
#: the job mix, one block: exact jobs run 64 or 128 generations and
#: turbo jobs (about 2.5x cheaper per generation) 128 or 256, so that job
#: costs are alike and the latency tail reflects queueing rather than
#: which few heavy jobs a run happened to draw
OPEN_MIX = [
    (fn, pop, gens, mode)
    for fn in PAPER_FUNCTIONS
    for pop in (16, 128)
    for mode, gens in (("exact", 64), ("exact", 128), ("turbo", 128), ("turbo", 256))
]


def open_arrivals(seed: int, seconds: float) -> list[tuple[float, GARequest]]:
    """``(due offset s, request)`` pairs: ``OPEN_RATE * seconds`` Poisson
    arrivals over ``seconds`` (the count is fixed, the times are the
    sorted uniform draws of a Poisson process with that count), each a
    behavioral job from a shuffled block of ``OPEN_MIX`` with its own
    seed and thresholds."""
    rng = random.Random(f"open-arrivals:{seed}")
    count = round(OPEN_RATE * seconds)
    mix: list = []
    while len(mix) < count:
        block = list(OPEN_MIX)
        rng.shuffle(block)
        mix.extend(block)
    times = sorted(rng.uniform(0, seconds) for _ in range(count))
    return [
        (t, _request(fn, pop, gens, rng.choice((10, 12)), 1, _ga_seed(rng), mode))
        for t, (fn, pop, gens, mode) in zip(times, mix)
    ]


# -- tcp-store ---------------------------------------------------------------

#: share of sends that repeat an earlier send
TCP_REPEAT_SHARE = 0.5


def tcp_sends(seed: int, count: int) -> list[tuple[bool, GARequest]]:
    """``(is_repeat, request)`` for send 0..count-1.  A repeat copies a
    uniformly drawn earlier send (which may still be in flight when it
    goes out); the rest are fresh small jobs."""
    rng = random.Random(f"tcp-store:{seed}")
    out: list[tuple[bool, GARequest]] = []
    for _ in range(count):
        if out and rng.random() < TCP_REPEAT_SHARE:
            out.append((True, out[rng.randrange(len(out))][1]))
        else:
            out.append((False, _request(
                rng.choice(PAPER_FUNCTIONS),
                rng.choice((16, 32)),
                rng.randint(16, 64),
                rng.randint(10, 13),
                1,
                _ga_seed(rng),
                rng.choice(("exact", "turbo")),
            )))
    return out

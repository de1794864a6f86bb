"""Output checks for every job a benchmark run completed.

Three independent references:

* **replay** — every distinct request is re-executed cold by
  ``repro.store.replay.execute_request`` and each served result must be
  ``results_identical`` to it;
* **goldens** — a request equal to a pinned zoo scenario is checked
  against the committed golden digest instead (the golden was made by
  the same ``execute_request``, so this is the replay with its answer
  cached in the repository);
* **serial oracle** — a seeded sample of exact behavioral jobs is re-run
  through serial :class:`~repro.core.behavioral.BehavioralGA`, which
  shares no code with slabs, chunks, the store or coalescing.

Replays run in a small spawned process pool; the checks themselves run
in the calling process.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import multiprocessing
import random

from repro.store.keys import canonical_json, canonical_result_dict, results_identical

#: exact behavioral jobs per run re-checked against the serial oracle
ORACLE_SAMPLE = 8


def _request_id(request) -> str:
    return canonical_json(request.to_dict())


def replay(request):
    from repro.store.replay import execute_request

    return execute_request(request)


def oracle(request) -> tuple:
    """``(best_individual, best_fitness, evaluations, history rows)`` of a
    serial BehavioralGA run."""
    from repro.core.behavioral import BehavioralGA
    from repro.fitness.functions import by_name

    result = BehavioralGA(
        request.params, by_name(request.fitness_name), record_members=False
    ).run()
    return _summary(result)


def _summary(result) -> tuple:
    return (
        result.best_individual,
        result.best_fitness,
        result.evaluations,
        [(g.generation, g.best_fitness, g.best_individual, g.fitness_sum)
         for g in result.history],
    )


def result_digest(result) -> str:
    return hashlib.sha256(
        canonical_json(canonical_result_dict(result)).encode()
    ).hexdigest()


def golden_digests() -> dict[str, str]:
    """Request id -> committed result digest, for every zoo scenario."""
    from repro.experiments.zoo import SCENARIOS, golden_path

    out = {}
    for name, scenario in SCENARIOS.items():
        golden = json.loads(golden_path(name).read_text())
        out[_request_id(scenario.request)] = golden["result_digest"]
    return out


def _oracle_eligible(request) -> bool:
    return (request.substrate == "behavioral" and request.engine_mode == "exact"
            and request.n_islands == 1 and request.protection is None)


def verify(pairs, seed: int, processes: int = 2) -> dict:
    """Check ``(request, result)`` pairs; returns
    ``{"checked", "bad" (indices into pairs), "replayed", "golden", "oracle"}``.

    ``processes=0`` runs replays in this process (tests use it).
    """
    groups: dict[str, list[int]] = {}
    for i, (request, _) in enumerate(pairs):
        groups.setdefault(_request_id(request), []).append(i)
    goldens = golden_digests()
    bad: set[int] = set()

    golden_ids = [rid for rid in groups if rid in goldens]
    for rid in golden_ids:
        for i in groups[rid]:
            if result_digest(pairs[i][1]) != goldens[rid]:
                bad.add(i)

    to_replay = [rid for rid in groups if rid not in goldens]
    eligible = sorted(rid for rid in groups if _oracle_eligible(pairs[groups[rid][0]][0]))
    sample = random.Random(f"oracle:{seed}").sample(
        eligible, min(ORACLE_SAMPLE, len(eligible)))

    def first_request(rid):
        return pairs[groups[rid][0]][0]

    if processes:
        ctx = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(processes, mp_context=ctx) as pool:
            replays = list(pool.map(replay, map(first_request, to_replay), chunksize=8))
            oracles = list(pool.map(oracle, map(first_request, sample)))
    else:
        replays = [replay(first_request(rid)) for rid in to_replay]
        oracles = [oracle(first_request(rid)) for rid in sample]

    for rid, expected in zip(to_replay, replays):
        for i in groups[rid]:
            if not results_identical(pairs[i][1], expected):
                bad.add(i)
    for rid, expected in zip(sample, oracles):
        for i in groups[rid]:
            if _summary(pairs[i][1]) != expected:
                bad.add(i)
    return {
        "checked": len(pairs),
        "bad": sorted(bad),
        "replayed": len(to_replay),
        "golden": len(golden_ids),
        "oracle": len(sample),
    }

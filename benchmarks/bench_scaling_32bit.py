"""Fig. 6 / Sec. III-D — 32-bit optimization with two 16-bit cores.

Benchmarks the dual-core composition on 32-bit objectives and validates the
probability-composition guidance (lower per-core rates to limit the
disruption of the effective 3-point crossover).

It also prices one 32-bit EHW fitness evaluation in absolute terms
(``fitness.ehw.us_per_eval``, perfbench's name for the same number): the
``fabric32_*`` objectives score each offspring on packed truth-table
words, a few microseconds per call, where a per-row evaluator costs
milliseconds.
"""

import json
import time

import numpy as np
import pytest

from conftest import print_table
from repro.core.params import GAParameters
from repro.core.scaling import DualCoreGA32, compose_rate, onemax32, plateau32, split_rate
from repro.experiments.zoo import SCENARIOS, golden_path
from repro.fitness.ehw_targets import FITNESS32_REGISTRY
from repro.service.jobs import JobResult
from repro.store.keys import results_identical
from repro.store.replay import execute_request

#: Fixed chromosome set the fitness cost is timed over, per objective.
N_CHROMOSOMES = 2000
#: Budget per evaluation: ~3 us packed, ~21,000 us per-row on a 2-vCPU
#: host, so this catches a fall back to the per-row path, not host noise.
MAX_US_PER_EVAL = 100.0
DUAL32_SCENARIOS = ("mux6-dual32", "parity6-dual32")


def _params(xt: int, seed: int = 45890) -> GAParameters:
    return GAParameters(
        n_generations=48,
        population_size=32,
        crossover_threshold=xt,
        mutation_threshold=2,
        rng_seed=seed,
    )


@pytest.mark.benchmark(group="scaling32")
def test_dual_core_onemax32(benchmark):
    result = benchmark.pedantic(
        lambda: DualCoreGA32(_params(10), onemax32).run(), rounds=1, iterations=1
    )
    optimum = onemax32(0xFFFFFFFF)
    print(
        f"\n32-bit OneMax: best {result.best_fitness}/{optimum} "
        f"({result.best_individual:08X}), evals {result.evaluations}"
    )
    assert result.best_fitness >= 0.85 * optimum


@pytest.mark.benchmark(group="scaling32")
def test_composed_rate_guidance(benchmark):
    """The paper's advice: program lower per-core probabilities because the
    composite rate is p1 + p2 - p1*p2.  Compare naive (both cores at the
    16-bit rate) vs. compensated (split_rate) settings across seeds."""

    def sweep():
        rows = []
        for seed in (45890, 10593, 1567, 0x2961):
            naive = DualCoreGA32(_params(10, seed), plateau32).run()
            # compensated: per-core threshold ~= 16 * split_rate(0.625) -> 6
            comp_thr = round(16 * split_rate(10 / 16))
            comp = DualCoreGA32(_params(comp_thr, seed), plateau32).run()
            rows.append(
                {
                    "seed": f"{seed:04X}",
                    "naive(thr10,eff0.86)": naive.best_fitness,
                    f"compensated(thr{comp_thr},eff0.63)": comp.best_fitness,
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table("Dual-core crossover-rate compensation (plateau32)", rows)
    assert compose_rate(10 / 16, 10 / 16) == pytest.approx(0.859375)


@pytest.mark.benchmark(group="scaling32")
def test_fabric32_fitness_cost(benchmark):
    chromosomes = [
        int(c)
        for c in np.random.default_rng(45890).integers(
            0, 1 << 32, N_CHROMOSOMES, dtype=np.int64
        )
    ]

    def measure():
        rows, total_s = [], 0.0
        for name, fitness32 in sorted(FITNESS32_REGISTRY.items()):
            t0 = time.perf_counter()
            for c in chromosomes:
                fitness32(c)
            elapsed = time.perf_counter() - t0
            total_s += elapsed
            rows.append({"case": name, "evals": N_CHROMOSOMES,
                         "us/eval": round(elapsed / N_CHROMOSOMES * 1e6, 2)})
        for scenario in DUAL32_SCENARIOS:
            golden = json.loads(golden_path(scenario).read_text())
            t0 = time.perf_counter()
            result = execute_request(SCENARIOS[scenario].request)
            elapsed = time.perf_counter() - t0
            assert results_identical(result, JobResult.from_dict(golden["result"]))
            rows.append({"case": f"replay {scenario}", "evals": result.evaluations,
                         "us/eval": round(elapsed / result.evaluations * 1e6, 2)})
        return rows, total_s / (N_CHROMOSOMES * len(FITNESS32_REGISTRY)) * 1e6

    rows, us_per_eval = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table("32-bit EHW fitness cost (replays include the GA loop)", rows)
    print(f"fitness.ehw.us_per_eval {us_per_eval:.2f}")
    benchmark.extra_info["fitness.ehw.us_per_eval"] = round(us_per_eval, 3)
    assert us_per_eval <= MAX_US_PER_EVAL

"""Checks of the benchmark's own machinery: run with

    python3 -m pytest perfbench -q
"""

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

from repro.experiments.zoo import SCENARIOS  # noqa: E402
from repro.store.replay import execute_request  # noqa: E402


def _pairs(requests):
    return [(r, execute_request(r)) for r in requests]


def _small_requests():
    return workloads.warmup_requests(workloads.PAPER_FUNCTIONS)


def test_clean_results_pass():
    pairs = _pairs(_small_requests() + [SCENARIOS["seq-counter-turbo"].request])
    report = verify.verify(pairs, seed=1, processes=0)
    assert report["bad"] == []
    assert report["golden"] == 1 and report["replayed"] == 3


def test_corrupted_result_is_caught_by_replay():
    pairs = _pairs(_small_requests())
    request, result = pairs[1]
    pairs[1] = (request, replace(result, best_fitness=result.best_fitness + 1))
    assert verify.verify(pairs, seed=1, processes=0)["bad"] == [1]


def test_corrupted_zoo_result_is_caught_by_golden():
    request = SCENARIOS["seq-counter-turbo"].request
    result = execute_request(request)
    history = list(result.history)
    history[-1] = replace(history[-1], fitness_sum=history[-1].fitness_sum + 1)
    pairs = [(request, result), (request, replace(result, history=history))]
    assert verify.verify(pairs, seed=1, processes=0)["bad"] == [1]


def test_serial_oracle_catches_a_defect_replay_shares(monkeypatch):
    # a bug common to the service and the replay path: both return the
    # same wrong answer, so only the independent serial engine sees it
    pairs = _pairs(_small_requests())
    request, result = pairs[0]
    wrong = replace(result, best_individual=result.best_individual ^ 1)
    pairs[0] = (request, wrong)
    monkeypatch.setattr(verify, "replay",
                        lambda r: wrong if r == request else execute_request(r))
    assert verify.verify(pairs, seed=1, processes=0)["bad"] == [0]


def test_wrappers_record_layers_and_restore():
    import repro.service.workers as workers
    from repro.service import GAService

    original = workers.run_slab_chunk
    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        with GAService(workers=2) as service:
            service.run_all(_small_requests(), timeout=60)
    finally:
        spans.uninstall(recorder)
    assert workers.run_slab_chunk is original
    names = {s.name for s in recorder.spans}
    assert {"scheduler.submit", "workers.chunk", "core.step",
            "batcher.apply_chunk"} <= names
    steps = [s for s in recorder.spans if s.name == "core.step"]
    chunks = {s.sid for s in recorder.spans if s.name == "workers.chunk"}
    assert all(s.parent in chunks for s in steps)
    metrics = spans.layer_metrics(recorder, n_workers=2, max_batch=32)
    assert metrics["core.exact.us_per_job_gen"] > 0
    assert metrics["scheduler.chunks_per_job_p50"] >= 1
    assert metrics["store.get_us_p50"] == 0.0  # no store: layer not reached


def test_workload_inputs_depend_only_on_the_seed():
    assert workloads.paper_burst(5) == workloads.paper_burst(5)
    assert workloads.paper_burst(5) != workloads.paper_burst(6)
    assert workloads.open_arrivals(5, 3.0) == workloads.open_arrivals(5, 3.0)
    assert workloads.tcp_sends(5, 50) == workloads.tcp_sends(5, 50)
    small = workloads.zoo_burst(5, 0)
    assert SCENARIOS["seq-cycle"].request in small  # repeat 0 keeps the pin
    assert workloads.zoo_burst(5, 2) == [SCENARIOS["mux6-dual32"].request]
    assert workloads.zoo_burst(5, 5) == [SCENARIOS["parity6-dual32"].request]

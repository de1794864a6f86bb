#!/usr/bin/env python3
"""GA-service benchmark: four workloads driven through the public API.

Run from the repository root::

    python3 perfbench/run.py --workload paper-burst --seed 1 --seconds 10 --trace 0

Workloads (``perfbench/README.md`` says why each exists and which layer
it stresses): ``paper-burst``, ``zoo-solo``, ``open-arrivals``,
``tcp-store``.  Every run sets up the service several times (the median
is ``setup_s``), measures for ``--seconds``, then checks every completed
job against cold replays, the committed zoo goldens and a serial-engine
oracle sample (``perfbench/verify.py``).

Timing metrics are scaled to a reference host speed, measured by a
calibration slice after every burst or TCP segment (``scale``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
first half of the time untraced and the second half with span wrappers
installed (``perfbench/spans.py``), and reports the per-layer metrics,
the tracing overhead, and writes the spans to ``.perfbench/``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it, starting
with ``#``, records the host context and the checks behind the numbers.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import multiprocessing
import os
import queue
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(SRC))

import spans  # noqa: E402  (perfbench/spans.py; imports nothing from repro)

WORKLOADS = ("paper-burst", "zoo-solo", "open-arrivals", "tcp-store")
N_WORKERS = 2
#: closed-loop TCP clients in ``tcp-store``
N_CLIENTS = 2
#: service set-ups per run; ``setup_s`` is their median
SETUP_SAMPLES = 7
#: per-workload latency limit behind ``slo_frac``
LATENCY_LIMIT_MS = {
    "paper-burst": 1_000.0,
    "zoo-solo": 20_000.0,
    "open-arrivals": 2_000.0,
    "tcp-store": 500.0,
}
#: host speed the timing metrics are scaled to: a ``calib_once`` of this
#: many microseconds (see ``scale``)
CALIB_REF_US = 30_000.0
#: ``tcp-store`` pauses its clients this often for a calibration slice
TCP_SEGMENT_S = 2.0
#: how long a run waits for stragglers before counting them as failed
DRAIN_TIMEOUT_S = 60.0
#: open-arrivals is invalid when the mean backlog grows by more than this
#: many jobs between the halves of the sending window
BACKLOG_LIMIT = 12.0
HOST = "127.0.0.1"


@dataclass
class Job:
    """One attempted job: ``result`` is None when it failed or was refused."""

    request: object
    result: object = None
    latency_ms: float | None = None
    repeat: bool = False
    wrong: bool = False


@dataclass
class Phase:
    """Jobs measured over ``wall`` seconds, with the calibration slices
    (µs) taken between its bursts or segments while nothing was in flight."""

    jobs: list
    wall: float
    calib_us: list
    late_ms: tuple = ()
    backlog_growth: float = 0.0
    bursts: int = 0

    @property
    def evals_per_s(self) -> float:
        return sum(j.result.evaluations for j in self.jobs
                   if j.result is not None) / self.wall

    @property
    def jobs_per_s(self) -> float:
        return sum(j.result is not None for j in self.jobs) / self.wall

    @classmethod
    def merge(cls, parts: list) -> "Phase":
        return cls([j for p in parts for j in p.jobs], sum(p.wall for p in parts),
                   [c for p in parts for c in p.calib_us], bursts=len(parts))


# ---------------------------------------------------------------------------
# Completion stamps
# ---------------------------------------------------------------------------


class Waiter:
    """Takes every completion stamp from one thread, the one calling
    :meth:`run`; other threads hand it handles through :meth:`add`."""

    POLL_S = 0.005

    def __init__(self) -> None:
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        self._closed = threading.Event()
        #: index -> (stamp, JobResult or exception)
        self.done: dict[int, tuple[float, object]] = {}
        #: (time, handles outstanding) every 100 ms
        self.backlog: list[tuple[float, int]] = []

    def add(self, index: int, handle) -> None:
        self._inbox.put((index, handle))

    def close(self) -> None:
        self._closed.set()

    def run(self, deadline: float) -> None:
        outstanding: dict = {}
        next_sample = 0.0
        while True:
            while True:
                try:
                    index, handle = self._inbox.get_nowait()
                except queue.Empty:
                    break
                outstanding[index] = handle
            now = time.perf_counter()
            if now >= next_sample:
                self.backlog.append((now, len(outstanding)))
                next_sample = now + 0.1
            if not outstanding:
                if self._closed.is_set() and self._inbox.empty():
                    return
                time.sleep(self.POLL_S)
                continue
            if now > deadline:
                for index, handle in outstanding.items():
                    handle.cancel()
                    self.done[index] = (now, TimeoutError("not done at deadline"))
                return
            oldest = next(iter(outstanding.values()))
            try:
                oldest.result(timeout=self.POLL_S)
            except Exception:  # not done yet, or failed: the sweep sorts it out
                pass
            now = time.perf_counter()
            for index in [i for i, h in outstanding.items() if h.done()]:
                handle = outstanding.pop(index)
                try:
                    self.done[index] = (now, handle.result(timeout=0))
                except Exception as exc:  # a failed job is a measured outcome
                    self.done[index] = (now, exc)


def _settle(requests, waiter: Waiter, t_ref) -> list[Job]:
    """Jobs from a drained waiter; latency from ``t_ref(i)``."""
    jobs = []
    for i, request in enumerate(requests):
        stamp, out = waiter.done[i]
        ok = not isinstance(out, BaseException)
        jobs.append(Job(request, out if ok else None,
                        (stamp - t_ref(i)) * 1e3 if ok else None))
    return jobs


# ---------------------------------------------------------------------------
# Embedded workloads (GAService.submit, thread workers)
# ---------------------------------------------------------------------------


def start_service(warm):
    """Construct, start and warm one service; returns it with the time."""
    from repro.service import GAService

    t0 = time.perf_counter()
    service = GAService(workers=N_WORKERS)
    service.start()
    service.run_all(warm, timeout=DRAIN_TIMEOUT_S)
    return service, time.perf_counter() - t0


def setup_probe(warm) -> tuple[float, float]:
    """Set-up time in a fresh interpreter, where every lazy cache is cold,
    and the calibration just after it."""
    service, seconds = start_service(warm)
    service.shutdown()
    return seconds, calibrate_us(3)


def _spawned_setups(warm, count: int) -> list[tuple[float, float]]:
    ctx = multiprocessing.get_context("spawn")
    out = []
    for _ in range(count):
        with concurrent.futures.ProcessPoolExecutor(1, mp_context=ctx) as pool:
            out.append(pool.submit(setup_probe, warm).result())
    return out


def _submit_all(service, requests, waiter: Waiter) -> None:
    from repro.service import ServiceError

    for i, request in enumerate(requests):
        try:
            waiter.add(i, service.submit(request))
        except ServiceError as exc:
            waiter.done[i] = (time.perf_counter(), exc)
    waiter.close()


def burst_phase(service, make_burst, seconds: float, round_size: int = 1,
                min_rounds: int = 1) -> Phase:
    """Closed bursts: submit burst ``make_burst(0)`` whole, wait for all
    of it, go on with burst 1, ... until ``seconds`` have passed and at
    least ``min_rounds`` rounds of ``round_size`` bursts are done, ending
    on a whole round, so that the pooled throughput never depends on
    where the time ran out."""
    jobs, wall, calib = [], 0.0, []
    end = time.perf_counter() + seconds
    burst = 0
    while (burst < min_rounds * round_size or burst % round_size
           or time.perf_counter() < end):
        requests = make_burst(burst)
        waiter = Waiter()
        t0 = time.perf_counter()
        _submit_all(service, requests, waiter)
        waiter.run(deadline=t0 + DRAIN_TIMEOUT_S)
        jobs.extend(_settle(requests, waiter, lambda i: t0))
        wall += max(stamp for stamp, _ in waiter.done.values()) - t0
        burst += 1
        calib.append(calib_once())
    return Phase(jobs, wall, calib, bursts=burst)


def open_phase(service, schedule) -> Phase:
    """Open loop: one sender submits each job at its due time; latency
    runs from the due time to the waiter's completion stamp."""
    from repro.service import ServiceError

    waiter = Waiter()
    late = []
    start = time.perf_counter() + 0.02

    def send():
        for i, (offset, request) in enumerate(schedule):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            late.append((time.perf_counter() - due) * 1e3)
            try:
                waiter.add(i, service.submit(request))
            except ServiceError as exc:
                waiter.done[i] = (time.perf_counter(), exc)
        waiter.close()

    sender = threading.Thread(target=send, name="bench-sender")
    sender.start()
    span = schedule[-1][0] if schedule else 0.0
    waiter.run(deadline=start + span + DRAIN_TIMEOUT_S)
    sender.join()
    jobs = _settle([r for _, r in schedule], waiter, lambda i: start + schedule[i][0])
    wall = max(stamp for stamp, _ in waiter.done.values()) - start
    return Phase(jobs, wall, [calib_once()], tuple(late),
                 _backlog_growth(waiter.backlog, start, start + span))


def _backlog_growth(samples, start: float, stop: float) -> float:
    """Mean handles outstanding in the second half of the sending window
    minus the mean in the first half (after a tenth to fill)."""
    mid = (start + stop) / 2
    first = [n for t, n in samples if start + 0.1 * (stop - start) <= t < mid]
    second = [n for t, n in samples if mid <= t <= stop]
    if not first or not second:
        return 0.0
    return statistics.fmean(second) - statistics.fmean(first)


# ---------------------------------------------------------------------------
# tcp-store: a server process, two client threads
# ---------------------------------------------------------------------------


class Server:
    """One ``perfbench/server.py`` process over a fresh store dir."""

    def __init__(self, store_dir: Path, warm) -> None:
        from repro.service import submit_remote

        t0 = time.perf_counter()
        self.store_dir = store_dir
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), "--store-dir", str(store_dir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            # its own process group, so that kill() reaches the workers
            start_new_session=True,
        )
        try:
            self.port = self._reply()["port"]
            for request in warm:
                submit_remote(HOST, self.port, request, timeout=DRAIN_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0

    def _reply(self, timeout: float = DRAIN_TIMEOUT_S) -> dict:
        """The server's next stdout line, or TimeoutError."""
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise TimeoutError("benchmark server did not answer")
        return json.loads(self.proc.stdout.readline())

    def command(self, line: str) -> dict:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def stop(self) -> dict:
        try:
            report = self.command("stop")
            self.proc.wait(timeout=30)
            return report
        finally:
            self.kill()

    def kill(self) -> None:
        """Kill the server's process group and wait until it is empty:
        its workers are the server's children, not ours, so ``wait``
        alone does not cover them."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        shutil.rmtree(self.store_dir, ignore_errors=True)


class TcpClients:
    """Two closed-loop clients walking one seeded send sequence."""

    def __init__(self, port: int, sends) -> None:
        self.port = port
        self.sends = sends
        self.cursor = 0
        self._lock = threading.Lock()

    def phase(self, seconds: float) -> Phase:
        from repro.service import ServiceError, submit_remote

        first = self.cursor
        jobs: dict[int, Job] = {}
        stamps: list[float] = []
        start = time.perf_counter()
        end = start + seconds

        def client():
            while time.perf_counter() < end:
                with self._lock:
                    i = self.cursor
                    if i >= len(self.sends):
                        return
                    self.cursor += 1
                repeat, request = self.sends[i]
                t0 = time.perf_counter()
                try:
                    result = submit_remote(HOST, self.port, request,
                                           timeout=DRAIN_TIMEOUT_S)
                except (ServiceError, OSError, ValueError):
                    result = None
                t1 = time.perf_counter()
                stamps.append(t1)
                jobs[i] = Job(request, result,
                              (t1 - t0) * 1e3 if result is not None else None, repeat)

        threads = [threading.Thread(target=client, name=f"bench-client-{k}")
                   for k in range(N_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ordered = [jobs[i] for i in range(first, self.cursor)]
        return Phase(ordered, max(stamps) - start, [calib_once()])

    def segmented(self, seconds: float) -> Phase:
        """``phase`` in segments of ``TCP_SEGMENT_S``, each followed by a
        calibration slice while no job is in flight."""
        count = max(1, round(seconds / TCP_SEGMENT_S))
        return Phase.merge([self.phase(seconds / count) for _ in range(count)])


# ---------------------------------------------------------------------------
# Host context
# ---------------------------------------------------------------------------


def calib_once() -> float:
    """Microseconds of one fixed pure-Python plus numpy loop."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    words = np.arange(200_000, dtype=np.int64)
    for _ in range(10):
        words = np.sort(words[::-1] ^ 0x5A5A)
    return (time.perf_counter() - t0) * 1e6


def calibrate_us(samples: int = 5) -> float:
    """Median of ``samples`` calibration loops."""
    return statistics.median(calib_once() for _ in range(samples))


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_context() -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest()[:16],
        "calib_us": calibrate_us(),
    }


# ---------------------------------------------------------------------------
# Workload runners
# ---------------------------------------------------------------------------


def run_embedded(args, warm, phase_fn) -> dict:
    """Set up, measure (one untraced phase, or untraced + traced halves),
    shut down.  ``phase_fn(service, seconds, part)`` returns a Phase."""
    setups = _spawned_setups(warm, SETUP_SAMPLES - 1)
    # lookup tables are built during set-up, so a traced run traces it too
    setup_trace = spans.Recorder()
    if args.trace:
        spans.install(setup_trace)
    try:
        service, seconds = start_service(warm)
    finally:
        spans.uninstall(setup_trace)
    setups.append((seconds, calibrate_us(3)))
    out: dict = {"setup_s": setups}
    try:
        if args.trace:
            out["phases"] = [phase_fn(service, args.seconds / 2, 0)]
            recorder = spans.Recorder()
            spans.install(recorder)
            try:
                out["phases"].append(phase_fn(service, args.seconds / 2, 1))
            finally:
                spans.uninstall(recorder)
            out["layers"] = spans.layer_metrics(
                recorder, N_WORKERS, service.policy.max_batch)
            out["layers"]["fitness.table_build_ms"] = spans.table_build_ms(setup_trace)
            out["self_time"] = recorder.dump(
                _trace_path(args), {"workload": args.workload, "seed": args.seed})
        else:
            out["phases"] = [phase_fn(service, args.seconds, 0)]
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        service.shutdown()
    return out


def run_tcp(args, warm) -> dict:
    from workloads import tcp_sends

    OUT.mkdir(exist_ok=True)
    stores = [OUT / f"store-{os.getpid()}-{k}" for k in range(SETUP_SAMPLES)]
    setups = []
    for store in stores[:-1]:
        probe = Server(store, warm)
        setups.append((probe.setup_s, calibrate_us(3)))
        probe.stop()
    server = Server(stores[-1], warm)
    setups.append((server.setup_s, calibrate_us(3)))
    out: dict = {"setup_s": setups}
    try:
        # generous bound on sends: 400/s is far above what two clients reach
        clients = TcpClients(server.port,
                             tcp_sends(args.seed, int(400 * args.seconds) + 1))
        if args.trace:
            out["phases"] = [clients.segmented(args.seconds / 2)]
            server.command(f"trace {_trace_path(args, '-server')}")
            out["phases"].append(clients.segmented(args.seconds / 2))
        else:
            out["phases"] = [clients.segmented(args.seconds)]
    finally:
        report = server.stop()
    if args.trace:
        layers = report["layers"]
        traced = out["phases"][-1]
        rtt = [j.latency_ms for j in traced.jobs if j.latency_ms is not None]
        layers["server.wire_ms_mean"] = (
            statistics.fmean(rtt) - statistics.fmean(report["dispatch_ms"])
            if rtt and report["dispatch_ms"] else 0.0)
        out["layers"] = layers
        out["self_time"] = report["self_time"]
    out["rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                     + report["rss_mb"])
    return out


def _trace_path(args, suffix: str = "") -> Path:
    OUT.mkdir(exist_ok=True)
    return OUT / f"trace-{args.workload}-seed{args.seed}{suffix}.jsonl"


def drive(args) -> dict:
    import workloads as wl

    if args.workload == "paper-burst":
        requests = wl.paper_burst(args.seed)
        return run_embedded(
            args, wl.warmup_requests(wl.PAPER_FUNCTIONS),
            lambda service, seconds, part: burst_phase(service, lambda b: requests, seconds))
    if args.workload == "zoo-solo":
        return run_embedded(
            args, wl.zoo_warmup(),
            # a traced run's halves share the rounds of an untraced run
            lambda service, seconds, part: burst_phase(
                service, lambda b: wl.zoo_burst(args.seed, b), seconds,
                len(wl.ZOO_ROUND), wl.ZOO_MIN_ROUNDS // (1 + args.trace)))
    if args.workload == "open-arrivals":
        schedule = wl.open_arrivals(args.seed, args.seconds)
        half = args.seconds / 2
        parts = ([[s for s in schedule if s[0] < half],
                  [(t - half, r) for t, r in schedule if t >= half]]
                 if args.trace else [schedule])
        return run_embedded(
            args, wl.warmup_requests(wl.PAPER_FUNCTIONS),
            lambda service, seconds, part: open_phase(service, parts[part]))
    return run_tcp(args, wl.warmup_requests(wl.PAPER_FUNCTIONS))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

#: the per-workload figure ``bench.trace_overhead_frac`` compares, and
#: whether higher is better
HEADLINE = {
    "paper-burst": ("evals_per_s", True),
    "zoo-solo": ("evals_per_s", True),
    "open-arrivals": ("latency_p50_ms", False),
    "tcp-store": ("jobs_per_s", True),
}


def scale(calib_us) -> float:
    """How much slower than the reference the host ran: the median
    calibration slice over ``CALIB_REF_US``."""
    return statistics.median(calib_us) / CALIB_REF_US


def end_to_end(workload: str, phase: Phase, setups, rss_mb: float,
               scaled: bool = True) -> dict:
    # tcp-store latency is the fresh (miss) class: repeats are served
    # from the store and their round trips would split the median
    timed = [j.latency_ms for j in phase.jobs
             if j.latency_ms is not None and not j.repeat]
    limit = LATENCY_LIMIT_MS[workload]
    attempted = len(phase.jobs)
    good = [j for j in phase.jobs if j.result is not None and not j.wrong]
    k = scale(phase.calib_us) if scaled else 1.0
    return {
        "setup_s": statistics.median(
            seconds / (scale([calib]) if scaled else 1.0) for seconds, calib in setups),
        "evals_per_s": phase.evals_per_s * k,
        "jobs_per_s": phase.jobs_per_s * k,
        "latency_p50_ms": spans.quantile(timed, 0.5) / k,
        "latency_p95_ms": spans.quantile(timed, 0.95) / k,
        "slo_frac": sum(j.latency_ms <= limit for j in good) / attempted,
        "ok_frac": len(good) / attempted,
        "peak_rss_mb": rss_mb,
    }


def class_split(phase: Phase) -> dict:
    """tcp-store round trips split by the generator's repeat flag."""
    out = {}
    for label, repeat in (("hit", True), ("miss", False)):
        sample = [j.latency_ms for j in phase.jobs
                  if j.repeat == repeat and j.latency_ms is not None]
        out[f"bench.{label}_p50_ms"] = spans.quantile(sample, 0.5)
        out[f"bench.{label}_p95_ms"] = spans.quantile(sample, 0.95)
        out[f"bench.{label}_n"] = len(sample)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    # a SIGTERM unwinds like an error, so every child is stopped and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return measure(args)
    finally:
        stop_resource_tracker()


def stop_resource_tracker() -> None:
    """Stop and reap the tracker process that spawned pools start, which
    would otherwise outlive this process by a moment."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def measure(args) -> int:
    from verify import verify

    host = host_context()
    run = drive(args)
    phases = run["phases"]
    all_jobs = [j for phase in phases for j in phase.jobs]
    done = [j for j in all_jobs if j.result is not None]
    report = verify([(j.request, j.result) for j in done], args.seed)
    for index in report["bad"]:
        done[index].wrong = True
    attempted = len(all_jobs)
    failed = sum(j.result is None or j.wrong for j in all_jobs)

    first = phases[0]
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        **host,
        "fail_frac": failed / attempted,
        "errors": attempted - len(done),
        "verify": {k: v if k != "bad" else len(v) for k, v in report.items()},
        "setup_samples_s": run["setup_s"],
        "bursts": [p.bursts for p in phases],
    }
    if args.workload == "open-arrivals":
        info["late_p95_ms"] = spans.quantile(list(first.late_ms), 0.95)
        info["backlog_growth"] = max(p.backlog_growth for p in phases)
        info["valid"] = info["backlog_growth"] <= BACKLOG_LIMIT
    split = class_split(first) if args.workload == "tcp-store" else {}
    info.update(split)
    metrics = end_to_end(args.workload, first, run["setup_s"], run["rss_mb"])
    info["raw"] = end_to_end(args.workload, first, run["setup_s"], run["rss_mb"], False)
    info["phase_calib_us"] = statistics.median(first.calib_us)
    if args.trace:
        name, higher = HEADLINE[args.workload]
        untraced = metrics[name]
        traced = end_to_end(args.workload, phases[1], run["setup_s"], 0.0)[name]
        overhead = (1 - traced / untraced) if higher else (traced / untraced - 1)
        layers = dict(run["layers"])
        layers.update({
            "bench.trace_overhead_frac": overhead,
            "bench.calib_us": host["calib_us"],
            "bench.fail_frac": info["fail_frac"],
        })
        for key in ("bench.hit_p50_ms", "bench.hit_p95_ms",
                    "bench.miss_p50_ms", "bench.miss_p95_ms"):
            layers[key] = split.get(key, 0.0)
        info["layers_without_spans"] = sorted(set(spans.LAYERS) - set(run["self_time"]))
        if args.workload == "tcp-store":
            info["note"] = ("core.* and fitness.* run in the server's worker "
                            "processes, which the wrappers cannot reach")
        info["self_time_by_layer"] = run["self_time"]
        values = layers
    else:
        values = metrics
    units = declared_units(bool(args.trace))
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not "
                           "match BENCHMARK.json")
    print("# " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not report["bad"] and info.get("valid", True),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


def declared_units(per_layer: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if per_layer else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())

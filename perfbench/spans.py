"""In-memory span recording around the GA service's public layer calls.

The benchmark times each layer from the outside: :func:`install` replaces
a fixed list of public functions and methods of ``repro`` with wrappers
that record one span per call — name, start, end, parent span (the
innermost wrapped call still open on the same thread) and job id — and
:func:`uninstall` puts the originals back.  Program code is not changed.

Spans stay in memory; :meth:`Recorder.dump` writes them out with a
self-time table by layer, and :func:`layer_metrics` reduces them to the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    job: object = None
    #: call facts the metrics need (generations run, replicas, ...)
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Recorder:
    """Thread-safe span sink plus the wrapper factory that feeds it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: chunk round trips: (submit time, callback time, job ids, failed)
        self.rtts: list[tuple[float, float, list, bool]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.started = self.stopped = 0.0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, describe=None, before=None):
        """``fn`` recording a span per call; ``describe(args, out)``
        returns ``(job, info)`` for the span, and ``before(args)`` a dict
        of facts taken before the call that joins ``info``."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            early = before(args) if before else {}
            stack = recorder._stack()
            sid = next(recorder._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            job, info = describe(args, out) if describe else (None, {})
            info.update(early)
            recorder.spans.append(Span(sid, name, start, end, parent, job, info))
            return out

        return wrapper

    # -- patching -------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module: str, attr: str, name: str, describe=None):
        """Wrap a module-level function in every loaded ``repro`` module
        that bound it by name (``from x import f`` copies the binding)."""
        original = getattr(importlib.import_module(module), attr)
        wrapper = self.wrap(name, original, describe)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("repro") and mod is not None:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str, describe=None, before=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__, describe, before))
        else:
            wrapped = self.wrap(name, raw, describe, before)
        self._set(cls, attr, wrapped)

    def patch_dict(self, table: dict, name: str) -> None:
        for key, fn in list(table.items()):
            self._patches.append((table, key, fn))
            table[key] = self.wrap(name, fn)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- output ---------------------------------------------------------
    def child_time(self) -> dict[int, float]:
        """Span id -> seconds its direct children cover.  Children run on
        their parent's thread, nested, so their durations add up."""
        covered: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.dur
        return covered

    def self_times(self) -> dict[str, dict]:
        """Per layer: calls, total and self seconds (a span's duration
        minus the part its child spans cover)."""
        child_time = self.child_time()
        table: dict[str, dict] = {}
        for span in self.spans:
            layer = span.name.split(".", 1)[0]
            row = table.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.dur
            row["self_s"] += span.dur - child_time.get(span.sid, 0.0)
        return table

    def dump(self, path, meta: dict) -> dict:
        """Write every span (one JSON array per line) and the self-time
        table; returns the table."""
        table = self.self_times()
        with open(path, "w") as out:
            out.write(json.dumps({"meta": meta, "fields": [
                "sid", "name", "start", "end", "parent", "job", "info"]}) + "\n")
            for s in sorted(self.spans, key=lambda s: s.sid):
                out.write(json.dumps(
                    [s.sid, s.name, s.start, s.end, s.parent, s.job, s.info]) + "\n")
            out.write(json.dumps({"self_time_by_layer": table}) + "\n")
        return table


#: span-name prefixes: the layers of the self-time table
LAYERS = ("fitness", "core", "parallel", "workers", "batcher", "scheduler",
          "store", "server")


def _job_ids(spec: dict) -> list:
    return [entry["job_id"] for entry in spec["entries"]]


def install(recorder: Recorder, worker_side: bool = True) -> None:
    """Wrap every layer's public entry points.

    ``worker_side=False`` leaves the chunk executor, engines and fitness
    alone: with process workers they run in other interpreters, which
    these wrappers cannot reach.
    """
    from repro.core.batch import BatchBehavioralGA
    from repro.core.scaling import DualCoreGA32
    from repro.core.system import GASystem
    from repro.fitness import ehw_targets
    from repro.fitness.base import FitnessFunction
    from repro.parallel.archipelago import VectorIslandGA
    from repro.service.batcher import Slab
    from repro.service.jobs import GARequest, JobResult
    from repro.service.scheduler import Scheduler
    from repro.service.server import ServiceTCPServer
    from repro.service.workers import WorkerPool
    from repro.store.runstore import RunStore

    rec = recorder
    if worker_side:
        rec.patch_method(FitnessFunction, "table", "fitness.table",
                         before=lambda a: {"built": a[0]._table is None})
        rec.patch_function("repro.fitness.ehw_targets", "truth_tables",
                           "fitness.truth_tables")
        rec.patch_dict(ehw_targets.FITNESS32_REGISTRY, "fitness.ehw32")
        rec.patch_method(
            BatchBehavioralGA, "step", "core.step",
            lambda a, out: (None, {"mode": a[0].mode, "jobs": a[0].n_replicas,
                                   "gens": out}))
        rec.patch_method(
            GASystem, "run", "core.cycle",
            lambda a, out: (None, {"evals": out.evaluations}))
        rec.patch_method(
            DualCoreGA32, "run", "core.dual32",
            lambda a, out: (None, {"evals": out.evaluations}))
        rec.patch_method(
            VectorIslandGA, "run", "parallel.archipelago",
            lambda a, out: (None, {"island_gens": a[0].n_islands
                                   * a[0].params.n_generations}))
        rec.patch_function(
            "repro.service.workers", "run_slab_chunk", "workers.chunk",
            lambda a, out: (_job_ids(a[0]), {}))

    submit_chunk = WorkerPool.__dict__["submit_chunk"]

    def submit_chunk_timed(self, spec, callback):
        sent = time.perf_counter()
        jobs = _job_ids(spec)

        def landed(out):
            rec.rtts.append((sent, time.perf_counter(), jobs,
                             isinstance(out, BaseException)))
            callback(out)

        return submit_chunk(self, spec, landed)

    rec._set(WorkerPool, "submit_chunk", functools.wraps(submit_chunk)(submit_chunk_timed))
    rec.patch_method(Slab, "apply_chunk", "batcher.apply_chunk")
    rec.patch_method(Scheduler, "submit", "scheduler.submit",
                     lambda a, out: (out.job_id, {}))
    rec.patch_function("repro.store.keys", "job_key", "store.job_key")
    rec.patch_method(RunStore, "get_result", "store.get_result",
                     lambda a, out: (None, {"hit": out is not None}))
    rec.patch_method(RunStore, "put", "store.put")
    rec.patch_method(ServiceTCPServer, "dispatch", "server.dispatch")
    rec.patch_method(GARequest, "from_dict", "server.decode")
    rec.patch_method(JobResult, "to_dict", "server.encode")
    rec.started = time.perf_counter()


def uninstall(recorder: Recorder) -> None:
    recorder.stopped = time.perf_counter()
    recorder.restore()


# ---------------------------------------------------------------------------
# Reduction to per-layer metrics
# ---------------------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))]


def table_build_ms(rec: Recorder) -> float:
    """Time spent building fitness lookup tables (cached calls excluded)."""
    return sum(s.dur for s in rec.spans
               if s.name == "fitness.table" and s.info.get("built")) * 1e3


def layer_metrics(rec: Recorder, n_workers: int, max_batch: int,
                  cache_delta: dict | None = None) -> dict[str, float]:
    """The ``fitness.*`` .. ``server.*`` per-layer metrics of one traced
    phase.  A layer the phase never reached reads 0."""
    by_name: dict[str, list[Span]] = {}
    for span in rec.spans:
        by_name.setdefault(span.name, []).append(span)
    child_time = rec.child_time()

    def spans(name):
        return by_name.get(name, [])

    def durs(name, scale, parent_name=None):
        parents = ({s.sid for s in spans(parent_name)} if parent_name else None)
        return [s.dur * scale for s in spans(name)
                if parents is None or s.parent in parents]

    def ratio(num, den):
        return num / den if den else 0.0

    wall = max(rec.stopped - rec.started, 1e-9)
    m: dict[str, float] = {}

    ehw = spans("fitness.ehw32")
    ehw_s = sum(s.dur for s in ehw)
    m["fitness.ehw.us_per_eval"] = ratio(ehw_s * 1e6, len(ehw))
    m["fitness.ehw.busy_frac"] = ehw_s / (n_workers * wall)
    m["fitness.table_build_ms"] = table_build_ms(rec)

    for mode in ("exact", "turbo"):
        steps = [s for s in spans("core.step") if s.info["mode"] == mode]
        m[f"core.{mode}.us_per_job_gen"] = ratio(
            sum(s.dur for s in steps) * 1e6,
            sum(s.info["jobs"] * s.info["gens"] for s in steps))
    cycle = spans("core.cycle")
    m["core.cycle.us_per_eval"] = ratio(
        sum(s.dur for s in cycle) * 1e6, sum(s.info["evals"] for s in cycle))
    dual = spans("core.dual32")
    m["core.dual32.self_us_per_eval"] = ratio(
        sum(s.dur - child_time.get(s.sid, 0.0) for s in dual) * 1e6,
        sum(s.info["evals"] for s in dual))
    isl = spans("parallel.archipelago")
    m["parallel.archipelago.us_per_island_gen"] = ratio(
        sum(s.dur for s in isl) * 1e6, sum(s.info["island_gens"] for s in isl))

    chunks = spans("workers.chunk")
    chunk_ms = [s.dur * 1e3 for s in chunks]
    rtt_ms = [(back - sent) * 1e3 for sent, back, _, _ in rec.rtts]
    m["workers.chunk_ms_p50"] = quantile(chunk_ms, 0.5)
    m["workers.chunk_ms_p95"] = quantile(chunk_ms, 0.95)
    m["workers.chunk_rtt_ms_p50"] = quantile(rtt_ms, 0.5)
    chunk_s = sum(s.dur for s in chunks)
    m["workers.self_frac"] = ratio(
        sum(s.dur - child_time.get(s.sid, 0.0) for s in chunks), chunk_s)
    busy = chunk_s if chunks else sum(rtt_ms) / 1e3
    m["workers.util_frac"] = busy / (n_workers * wall)
    m["workers.retries"] = float(sum(1 for *_, failed in rec.rtts if failed))

    m["batcher.occupancy_mean"] = ratio(
        sum(len(jobs) for _, _, jobs, _ in rec.rtts) / max_batch, len(rec.rtts))
    m["batcher.apply_us_p50"] = quantile(durs("batcher.apply_chunk", 1e6), 0.5)

    submits = spans("scheduler.submit")
    m["scheduler.submit_us_p50"] = quantile([s.dur * 1e6 for s in submits], 0.5)
    m["scheduler.submit_us_p95"] = quantile([s.dur * 1e6 for s in submits], 0.95)
    submitted = {s.job: s.end for s in submits}
    first_chunk: dict = {}
    chunk_count: dict = {}
    for sent, _, jobs, _ in sorted(rec.rtts, key=lambda r: r[0]):
        for job in jobs:
            first_chunk.setdefault(job, sent)
            chunk_count[job] = chunk_count.get(job, 0) + 1
    waits = [(first_chunk[j] - t) * 1e3 for j, t in submitted.items() if j in first_chunk]
    m["scheduler.wait_ms_p50"] = quantile(waits, 0.5)
    m["scheduler.wait_ms_p95"] = quantile(waits, 0.95)
    m["scheduler.chunks_per_job_p50"] = quantile(
        [chunk_count[j] for j in submitted if j in chunk_count], 0.5)

    m["store.key_us_p50"] = quantile(durs("store.job_key", 1e6), 0.5)
    m["store.get_us_p50"] = quantile(durs("store.get_result", 1e6), 0.5)
    m["store.get_us_p95"] = quantile(durs("store.get_result", 1e6), 0.95)
    m["store.put_ms_p50"] = quantile(durs("store.put", 1e3), 0.5)
    m["store.put_ms_p95"] = quantile(durs("store.put", 1e3), 0.95)
    cache = cache_delta or {}
    m["store.hit_ratio"] = ratio(
        cache.get("hits", 0), cache.get("hits", 0) + cache.get("misses", 0))
    m["store.coalesced"] = float(cache.get("coalesced", 0))

    m["server.dispatch_ms_p50"] = quantile(durs("server.dispatch", 1e3), 0.5)
    m["server.decode_us"] = quantile(
        durs("server.decode", 1e6, "server.dispatch"), 0.5)
    m["server.encode_us"] = quantile(
        durs("server.encode", 1e6, "server.dispatch"), 0.5)
    # round trip minus dispatch needs the client's clock: the tcp client
    # fills it in
    m["server.wire_ms_mean"] = 0.0
    return m

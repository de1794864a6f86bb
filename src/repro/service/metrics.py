"""Service metrics: queue depth, batch occupancy, latency, throughput.

One :class:`ServiceMetrics` instance rides along the whole service stack;
every touchpoint (submit, dispatch, chunk completion, job completion)
records into it, and :meth:`~ServiceMetrics.snapshot` renders the
JSON-ready view that ``bench_service_throughput.py`` dumps into
``BENCH_results.json`` and ``repro serve`` exposes over the wire.

Every instrument is stated once, as a row of :data:`INSTRUMENTS` over a
private :class:`~repro.obs.metrics.MetricsRegistry` (private so that
independent service instances — and tests asserting exact totals — never
share state with the process-wide engine registry).  A row names the
attribute that reads the instrument, its registry name, where the
snapshot shows it, and the recording hook that drives it alone.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from repro.obs.metrics import MetricsRegistry, percentile

__all__ = ["INSTRUMENTS", "ServiceMetrics", "percentile"]


class Instrument(NamedTuple):
    """One service instrument: ``read`` is the attribute returning its
    value, ``kind`` a key of :data:`KINDS`, ``name`` its registry name,
    ``where`` its snapshot ``(section, key)`` and ``hook`` the attribute
    that records into it (the counter's ``inc``, the gauge's ``set``, the
    histogram's ``observe``)."""

    read: str
    kind: str
    name: str
    where: tuple[str, str] | None = None
    hook: str | None = None


#: kind -> (registry family, read of the instrument, recording method);
#: ``peak`` reads a gauge's remembered maximum
KINDS = {
    "counter": ("counter", lambda c: c.value, "inc"),
    "total": ("counter", lambda c: float(c.value), "inc"),
    "gauge": ("gauge", lambda g: int(g.value), "set"),
    "peak": ("gauge", lambda g: int(g.max), "set"),
    "samples": ("histogram", lambda h: h.samples, "observe"),
}

INSTRUMENTS = tuple(Instrument(*row) for row in (
    ("submitted", "counter", "service.jobs.submitted", ("jobs", "submitted")),
    ("completed", "counter", "service.jobs.completed", ("jobs", "completed")),
    ("failed", "counter", "service.jobs.failed", ("jobs", "failed"), "job_failed"),
    ("rejected", "counter", "service.jobs.rejected", ("jobs", "rejected"),
     "job_rejected"),
    ("queue_depth", "gauge", "service.queue_depth", ("queue", "depth"),
     "queue_drained_to"),
    ("max_queue_depth", "peak", "service.queue_depth", ("queue", "max_depth")),
    ("chunks", "counter", "service.chunks", ("batching", "chunks")),
    ("chunk_occupancy_sum", "total", "service.chunk_occupancy_sum"),
    ("max_occupancy", "peak", "service.chunk_occupancy",
     ("batching", "max_occupancy")),
    ("generations_executed", "counter", "service.generations_executed"),
    ("latencies_s", "samples", "service.job_latency_s"),
    ("waits_s", "samples", "service.job_wait_s"),
    # fault tolerance: retry / watchdog / shedding / checkpoint-resume (see
    # docs/architecture.md "Fault tolerance")
    ("retries", "counter", "service.chunks.retried", ("faults", "chunk_retries"),
     "chunk_retried"),
    ("timeouts", "counter", "service.chunks.timed_out",
     ("faults", "chunk_timeouts"), "chunk_timed_out"),
    ("respawns", "counter", "service.pool.respawns", ("faults", "pool_respawns"),
     "pool_respawned"),
    ("shed", "counter", "service.jobs.shed", ("faults", "jobs_shed"), "job_shed"),
    ("cancelled", "counter", "service.jobs.cancelled",
     ("faults", "jobs_cancelled"), "job_cancelled"),
    ("deadline_enforced", "counter", "service.jobs.deadline_enforced",
     ("faults", "deadlines_enforced"), "job_deadline_enforced"),
    ("checkpoints", "counter", "service.slabs.checkpointed",
     ("faults", "slabs_checkpointed"), "slab_checkpointed"),
    ("resumed", "counter", "service.jobs.resumed", ("faults", "jobs_resumed"),
     "jobs_resumed"),
    ("dropped_connections", "counter", "service.connections.dropped",
     ("faults", "connections_dropped"), "connection_dropped"),
    # fault-to-recovery wall time: from a slab's first unrecovered chunk
    # failure to its next completed chunk
    ("recoveries_s", "samples", "service.recovery_latency_s", None,
     "chunk_recovered"),
    # run-store cache: admission lookups, in-flight coalescing, completion
    # write-backs (see docs/architecture.md "Content-addressed run store")
    ("cache_hits", "counter", "service.cache.hits", ("cache", "hits"),
     "cache_hit"),
    ("cache_misses", "counter", "service.cache.misses", ("cache", "misses"),
     "cache_miss"),
    ("coalesced", "counter", "service.cache.coalesced", ("cache", "coalesced"),
     "job_coalesced"),
    ("cache_writes", "counter", "service.cache.writes", ("cache", "writes"),
     "cache_written"),
))

_READS = {row.read: row for row in INSTRUMENTS}
_HOOKS = {row.hook: row for row in INSTRUMENTS if row.hook is not None}


def _ms(seconds: float) -> float:
    return round(seconds * 1e3, 3)


class ServiceMetrics:
    """Thread-safe counters and gauges for one service lifetime.

    Each :data:`INSTRUMENTS` row's ``read`` and ``hook`` resolve as
    attributes; the hooks below are the ones that touch more than one
    instrument.
    """

    #: cap on per-job latency samples kept for the percentile estimates
    MAX_SAMPLES = 100_000

    def __init__(self, max_batch: int = 1):
        self.max_batch = max(1, max_batch)
        reg = self._registry = MetricsRegistry()
        self._inst = {}
        for row in INSTRUMENTS:
            family, _, _ = KINDS[row.kind]
            args = (self.MAX_SAMPLES,) if family == "histogram" else ()
            self._inst[row.read] = getattr(reg, family)(row.name, *args)

    def __getattr__(self, name: str):
        if not name.startswith("_"):
            row = _READS.get(name)
            if row is not None:
                _, read, _ = KINDS[row.kind]
                return read(self._inst[name])
            row = _HOOKS.get(name)
            if row is not None:
                _, _, record = KINDS[row.kind]
                return getattr(self._inst[row.read], record)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    # -- multi-instrument hooks -----------------------------------------
    def job_submitted(self, depth: int) -> None:
        self._inst["submitted"].inc()
        self._inst["queue_depth"].set(depth)

    def chunk_dispatched(self, n_entries: int, chunk_gens: int) -> None:
        inst = self._inst
        inst["chunks"].inc()
        inst["chunk_occupancy_sum"].inc(n_entries / self.max_batch)
        inst["max_occupancy"].set(n_entries)
        inst["generations_executed"].inc(n_entries * chunk_gens)

    def job_completed(self, latency_s: float, wait_s: float) -> None:
        self._inst["completed"].inc()
        self._inst["latencies_s"].observe(latency_s)
        self._inst["waits_s"].observe(wait_s)

    # -- derived reads ----------------------------------------------------
    @property
    def registry(self) -> MetricsRegistry:
        """The backing (private) registry, for raw-instrument access."""
        return self._registry

    @property
    def started_at(self) -> float:
        return self._registry.started_at

    def generations_rate(self) -> float:
        """Observed generations/second over the service lifetime (0.0
        before any chunk completes) — the backlog-time estimator's
        denominator."""
        return self.generations_executed / self._registry.uptime_s

    # -- reporting ------------------------------------------------------
    def snapshot(self) -> dict:
        """The full service state as a plain JSON-serializable dict."""
        inst = self._inst
        uptime = self._registry.uptime_s
        snap = {"uptime_s": round(uptime, 3), "jobs": {}, "queue": {},
                "batching": {}, "latency": {}, "throughput": {}, "faults": {},
                "cache": {}}
        for row in INSTRUMENTS:
            if row.where is not None:
                section, key = row.where
                snap[section][key] = getattr(self, row.read)
        chunks = snap["batching"]["chunks"]
        lat = inst["latencies_s"].summary()
        rec = inst["recoveries_s"].summary()
        snap["jobs"]["pending"] = snap["queue"]["depth"]
        snap["batching"]["max_batch"] = self.max_batch
        snap["batching"]["mean_occupancy"] = (
            round(self.chunk_occupancy_sum / chunks, 4) if chunks else 0.0
        )
        snap["latency"] = {
            "p50_ms": _ms(lat["p50"]),
            "p95_ms": _ms(lat["p95"]),
            "max_ms": _ms(lat["max"]),
            "mean_wait_ms": _ms(inst["waits_s"].mean),
        }
        snap["throughput"] = {
            "jobs_per_s": round(snap["jobs"]["completed"] / uptime, 3),
            "generations_per_s": round(self.generations_executed / uptime, 1),
        }
        snap["faults"]["recovery_p50_ms"] = _ms(rec["p50"])
        snap["faults"]["recovery_p95_ms"] = _ms(rec["p95"])
        return snap

    def to_json(self, path: str | None = None) -> str:
        """Render the snapshot as JSON; optionally also write it to a file."""
        text = json.dumps(self.snapshot(), indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w") as handle:
                handle.write(text + "\n")
        return text

"""The ``tcp-store`` workload's server process.

Runs one ``GAService`` with process workers (the ``repro serve`` default)
over a fresh ``RunStore`` behind a ``ServiceTCPServer``, and takes
commands on stdin, one per line:

* ``trace <path>`` — install the span wrappers (server-side layers only:
  the engines and fitness run in the worker processes, out of reach);
* ``stop`` — stop serving, shut down, write the spans to ``<path>`` if
  tracing, and print one JSON line of layer metrics and peak RSS.

The first stdout line is ``{"port": N}`` once the socket is bound.

    python3 perfbench/server.py --store-dir DIR
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402  (perfbench/spans.py)
from workloads import PAPER_FUNCTIONS  # noqa: E402

from repro.fitness.functions import by_name  # noqa: E402
from repro.service import GAService, ServiceTCPServer  # noqa: E402

#: the benchmark's worker count (``perfbench/run.py`` N_WORKERS)
N_WORKERS = 2


def commands():
    """Lines from stdin, read with ``os.read``: a forked worker closes
    ``sys.stdin`` as it starts, which deadlocks if this thread holds the
    stream's lock in a blocking read at fork time."""
    pending = b""
    while True:
        chunk = os.read(0, 4096)
        if not chunk:
            return
        pending += chunk
        while b"\n" in pending:
            line, pending = pending.split(b"\n", 1)
            yield line.decode().strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store-dir", required=True)
    args = parser.parse_args()

    # workers fork from this process on first use and inherit the tables
    built = time.perf_counter()
    for name in PAPER_FUNCTIONS:
        by_name(name).table()
    built = (time.perf_counter() - built) * 1e3
    service = GAService(workers=N_WORKERS, mode="process", store_dir=args.store_dir)
    service.start()
    server = ServiceTCPServer(service)
    serving = threading.Thread(target=server.serve_forever,
                               kwargs={"poll_interval": 0.05})
    serving.start()
    print(json.dumps({"port": server.endpoint[1]}), flush=True)

    recorder = None
    trace_path = None
    cache_before: dict = {}
    for line in commands():
        command, _, rest = line.partition(" ")
        if command == "trace":
            trace_path = rest
            cache_before = service.snapshot()["cache"]
            recorder = spans.Recorder()
            spans.install(recorder, worker_side=False)
            print(json.dumps({"tracing": True}), flush=True)
        elif command == "stop":
            break

    report: dict = {}
    if recorder is not None:
        spans.uninstall(recorder)
        cache_after = service.snapshot()["cache"]
        delta = {k: cache_after[k] - cache_before.get(k, 0) for k in cache_after}
        report["layers"] = spans.layer_metrics(
            recorder, N_WORKERS, service.policy.max_batch, delta)
        report["layers"]["fitness.table_build_ms"] = built
        report["self_time"] = recorder.dump(trace_path, {"process": "server"})
        report["dispatch_ms"] = [s.dur * 1e3 for s in recorder.spans
                                 if s.name == "server.dispatch"]
    server.shutdown()
    serving.join()
    server.server_close()
    service.shutdown()
    report["rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ) / 1024
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

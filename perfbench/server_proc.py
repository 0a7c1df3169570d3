"""Runs the analysis server as its own process and reports what it used.

The server is started through ``repro.service.server.main`` — the code
``python -m repro.service.server`` runs — so the benchmark measures the
shipped front end and worker pool unchanged.  When the server has stopped
and joined its workers, this process writes one JSON file with:

* ``worker_peak_rss_mb`` — the largest peak resident set of the server's
  worker processes (``RUSAGE_CHILDREN`` once they were waited for);
* the front end's own counters (coalesced query batches, shed requests,
  respawns, retried jobs), read from the ``ServiceServer`` as it stops.

Usage::

    python3 perfbench/server_proc.py STATS.json --workers 2 --store DIR
"""

from __future__ import annotations

import json
import resource
import sys


def main(argv) -> int:
    stats_path, server_argv = argv[0], argv[1:]
    from repro.service import server

    counters = {}
    stop = server.ServiceServer.stop

    async def stop_and_count(self) -> None:
        counters.update(self.fault_stats())
        counters["batches"] = self.batches
        counters["batched_queries"] = self.batched_queries
        await stop(self)

    server.ServiceServer.stop = stop_and_count
    code = server.main(server_argv)
    counters["worker_peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    with open(stats_path, "w", encoding="utf-8") as handle:
        json.dump(counters, handle, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

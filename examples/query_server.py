#!/usr/bin/env python3
"""Walkthrough: the analysis service — resident modules, edits, queries.

Run with::

    python examples/query_server.py

The example drives the serving layer three ways — all speaking the one
versioned protocol defined in :mod:`repro.service.protocol`:

1. through the in-process :class:`repro.service.AnalysisSession` API —
   load a program, ask alias and range queries from warm analysis state,
   apply a single-function edit and watch the incremental path re-seed the
   interprocedural fixed points instead of rebuilding them;
2. through the stdin/stdout daemon (``python -m repro.service``) via
   :class:`repro.service.DaemonClient` — ``client.request(op, **fields)``
   builds every payload with the protocol's client helpers (version stamp,
   request ids, structured ``error_code`` envelopes) exactly like a
   non-Python client would;
3. through the concurrent TCP server (``python -m repro.service.server``)
   via :class:`repro.service.SocketClient` — the sharded, batching front
   end — showing that socket answers are bit-identical to the in-process
   session's.
"""

from repro.service import AnalysisSession, DaemonClient, SocketClient
from repro.service.protocol import ServiceError

SOURCE = r"""
void rotate(int* ring, int n) {
    int i;
    int first = ring[0];
    for (i = 0; i + 1 < n; i++) {
        ring[i] = ring[i + 1];
    }
    ring[n - 1] = first;
}
int main(int argc, char** argv) {
    int n = atoi(argv[1]);
    int* ring = (int*)malloc(n * 4);
    rotate(ring, n);
    return 0;
}
"""

# The same program with one function body edited: the incremental path
# re-analyses `rotate` and re-seeds the interprocedural cone, nothing else.
EDITED = SOURCE.replace("ring[i] = ring[i + 1];",
                        "ring[i] = ring[i + 1] + 1;")


def in_process_walkthrough() -> None:
    print("=== In-process AnalysisSession ===")
    session = AnalysisSession()
    loaded = session.load_source("demo", SOURCE)
    print(f"loaded module with functions {loaded['functions']}")

    # Source-level names do not survive mem2reg; discover the SSA values.
    values = session.values("demo", "rotate")["values"]
    pointers = [v["name"] for v in values if v["pointer"]]
    print(f"pointer values of rotate: {pointers}")

    # The paper's headline query: ring[i] vs ring[i + 1] inside the loop.
    sweep = session.query_function("demo", "rbaa", "rotate")
    print(f"rbaa disambiguates {sweep['no_alias']}/{sweep['queries']} "
          f"pointer pairs in rotate")

    interval = session.range_of("demo", "rotate", "n")
    print(f"symbolic range of n: {interval['range']}")

    steps_cold = session.solver_steps("demo")
    edited = session.edit_source("demo", EDITED)
    session.query_function("demo", "rbaa", "rotate")
    steps_warm = session.solver_steps("demo") - steps_cold
    impact = edited["impacts"][0]
    print(f"edit of {edited['changed']} re-ran {steps_warm} solver steps "
          f"(full build: {steps_cold}); refreshed in place: "
          f"{impact['refreshed']}")
    print(f"re-seeded nodes per fixed point: {impact['reseeded']} "
          f"(retained: {impact['retained']})")
    print(f"engine counters: {session.stats('demo')['engine']}")


def daemon_walkthrough() -> None:
    print("\n=== Line-delimited JSON daemon ===")
    # DaemonClient runs a real `python -m repro.service` subprocess; each
    # request stamps the protocol version and validates the envelope.
    with DaemonClient() as client:
        print(f"  ping -> {client.request('ping')['pong']}")
        loaded = client.request("load", name="demo", source=SOURCE)
        print(f"  load -> functions {loaded['functions']}")
        sweep = client.request("query_function", module="demo",
                               analysis="rbaa", function="rotate")
        print(f"  query_function -> {sweep['no_alias']}/{sweep['queries']} "
              f"no-alias in rotate")
        edited = client.request("edit", name="demo", source=EDITED)
        print(f"  edit -> changed {edited['changed']}")
        stats = client.request("stats", module="demo")
        print(f"  stats -> solver_steps {stats['solver_steps']}, "
              f"by analysis {stats['solver_steps_by_analysis']}")
        try:
            client.request("warp")  # structured error: unknown_op
        except ServiceError as error:
            print(f"  warp -> error_code {error.code!r} ({error})")
        # close() sends the shutdown request and reaps the subprocess.


def socket_walkthrough() -> None:
    print("\n=== Concurrent TCP server ===")
    with SocketClient(workers=2) as client:
        loaded = client.request("load", name="demo", source=SOURCE)
        sweep = client.request("query_function", module="demo",
                               analysis="rbaa", function="rotate")
        print(f"  socket: loaded {loaded['functions']}, rbaa disambiguates "
              f"{sweep['no_alias']}/{sweep['queries']} pairs in rotate")

        # The exact same request against an in-process session: identical.
        session = AnalysisSession()
        session.load_source("demo", SOURCE)
        serial = session.query_function("demo", "rbaa", "rotate")
        identical = all(sweep[key] == serial[key] for key in
                        ("no_alias", "no_alias_indices", "queries"))
        print(f"  socket answer == in-process answer: {identical}")


def main() -> None:
    in_process_walkthrough()
    daemon_walkthrough()
    socket_walkthrough()


if __name__ == "__main__":
    main()

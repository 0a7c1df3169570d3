"""Closed-loop multi-client loadtest of the socket serving layer.

``python -m repro.service.loadtest`` drives the asyncio TCP front end
(:mod:`repro.service.server`) with N concurrent closed-loop clients over a
deterministic, seeded request script, and writes ``BENCH_service.json``
with throughput and p50/p95/p99 latency.  Wall-time numbers are reported,
never gated (their keys carry the ``_seconds``/``_per_second`` suffixes
:func:`repro.evaluation.parallel.strip_volatile` removes); what *is* gated
is correctness:

* **Answer identity** — every response (loads, queries, ranges, value
  listings, sweeps, and the scripted error requests) must be bit-identical
  to what a serial in-process :class:`~repro.service.session.AnalysisSession`
  produces for the same payload, at any worker/client count and under the
  front end's query coalescing.
* **Stats identity** (storeless run) — the deterministic subset of each
  module's ``stats`` record (solver steps, Figure-14 counters, query-memo
  counters, engine build/invalidation counts) must equal the serial
  session's.  Engine get-level hit counters are excluded — they depend on
  how traffic happened to batch — as are the process-global symbolic
  caches and the store's operational counters.
* **Warm store** — the run is repeated against one persistent
  content-addressed store (:mod:`repro.service.store`) twice, with a full
  server restart in between.  On the second (warm) run every store view
  must show zero misses and a positive hit count, and every module must
  finish the run unmaterialised with ``solver_steps == 0`` — i.e. the
  restarted server answered everything, starting with its first query,
  without re-running the compile-and-bootstrap path.

The three runs (``direct`` → ``cold`` → ``warm``) replay the *same*
scripts, generated from :func:`repro.benchgen.stable_seed`, so the record
is reproducible end to end.

Usage::

    python -m repro.service.loadtest --quick --workers 2 --clients 4 \
        --store .service-store --out BENCH_service.json --check
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import random
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..benchgen import build_program, digest_index, stable_seed
from ..benchgen.manifest import GENERATOR_VERSION
from ..evaluation.reporting import to_canonical_json
from .chaos import (
    VICTIM_REQUEST_ID,
    ChaosController,
    corrupt_store_entries,
    generate_plan,
)
from .client import InProcessClient, RetryPolicy
from .pool import WorkerPool
from .protocol import (
    DEADLINE_EXCEEDED,
    PROTOCOL_VERSION,
    RETRYABLE_ERROR_CODES,
    handle_payload,
    make_request,
)
from .server import ServiceServer
from .session import AnalysisSession
from .store import RESULT_SCHEMA_VERSION

__all__ = ["DEFAULT_PROGRAMS", "run_loadtest", "run_chaos_loadtest", "main"]

#: The quick-corpus programs (the service bench uses the same four).
DEFAULT_PROGRAMS = ("allroots", "fixoutput", "anagram", "ft")

#: Analyses the scripted queries exercise.
SCRIPT_ANALYSES = ("rbaa", "basic")

#: Non-default access-size spellings the scripts mix in.
_SIZE_CHOICES = (None, 1, 4, 8, "default")


@dataclass
class _Function:
    name: str
    pointers: List[str]
    int_args: List[str]


@dataclass
class _Program:
    name: str
    source: str
    functions: List[_Function]

    @property
    def query_functions(self) -> List[_Function]:
        return [fn for fn in self.functions if len(fn.pointers) >= 2]

    @property
    def range_functions(self) -> List[_Function]:
        return [fn for fn in self.functions if fn.int_args]


def build_corpus(programs: Sequence[str]) -> List[_Program]:
    """Generate the corpus and scout its queryable names (a helper client
    compiles each program once so scripts can address real SSA values)."""
    scout = InProcessClient()
    corpus: List[_Program] = []
    for name in programs:
        source = build_program(name).source
        loaded = scout.request("load", name=name, source=source)
        functions = []
        for fn_name in loaded["functions"]:
            values = scout.request("values", module=name,
                                   function=fn_name)["values"]
            functions.append(_Function(
                name=fn_name,
                pointers=[v["name"] for v in values if v["pointer"]],
                int_args=[v["name"] for v in values
                          if v["op"] == "argument" and not v["pointer"]]))
        corpus.append(_Program(name=name, source=source, functions=functions))
    usable = [program for program in corpus if program.query_functions]
    dropped = sorted(set(p.name for p in corpus) - set(p.name for p in usable))
    if dropped:  # no silent shrinking of the corpus
        print(f"loadtest: dropping {dropped} (no function with 2+ pointers)",
              file=sys.stderr)
    return usable


def _query_fields(rng: random.Random, program: _Program) -> Dict[str, Any]:
    fn = rng.choice(program.query_functions)
    a, b = rng.sample(fn.pointers, 2)
    fields: Dict[str, Any] = {"module": program.name,
                              "analysis": rng.choice(SCRIPT_ANALYSES),
                              "function": fn.name, "a": a, "b": b}
    if rng.random() < 0.4:
        for key in ("size_a", "size_b"):
            size = rng.choice(_SIZE_CHOICES)
            if size != "default":
                fields[key] = size
    return fields


def _error_request(rng: random.Random, program: _Program,
                   request_id: str) -> Dict[str, Any]:
    """A scripted failure: deterministic envelopes are identity-gated too.

    Only error shapes that fail *before* any store access are scripted
    (unknown op/module/analysis, bad size, bad version) — an unknown value
    name would force a warm-store worker to materialise the module just to
    discover the name is bad, defeating the warm-run laziness gate.
    """
    fn = program.query_functions[0]
    kind = rng.randrange(5)
    if kind == 0:
        return make_request("frobnicate", id=request_id)
    if kind == 1:
        return make_request("query", id=request_id, module="ghost",
                            analysis="rbaa", function=fn.name,
                            a=fn.pointers[0], b=fn.pointers[1])
    if kind == 2:
        return make_request("query", id=request_id, module=program.name,
                            analysis="voodoo", function=fn.name,
                            a=fn.pointers[0], b=fn.pointers[1])
    if kind == 3:
        return make_request("query", id=request_id, module=program.name,
                            analysis="rbaa", function=fn.name,
                            a=fn.pointers[0], b=fn.pointers[1], size_a=-3)
    payload = make_request("query", id=request_id, module=program.name,
                           analysis="rbaa", function=fn.name,
                           a=fn.pointers[0], b=fn.pointers[1])
    payload["v"] = 99  # rejected with protocol_mismatch
    return payload


def client_script(index: int, corpus: Sequence[_Program],
                  requests: int) -> List[Dict[str, Any]]:
    """The deterministic request script of one closed-loop client."""
    rng = random.Random(stable_seed(f"service/loadtest/client/{index}"))
    script: List[Dict[str, Any]] = []
    for n in range(requests):
        request_id = f"c{index}.{n}"
        program = corpus[rng.randrange(len(corpus))]
        roll = rng.random()
        if roll < 0.60:
            script.append(make_request("query", id=request_id,
                                       **_query_fields(rng, program)))
        elif roll < 0.72:
            fn = rng.choice(program.query_functions)
            pairs = []
            for _ in range(rng.randint(2, 5)):
                a, b = rng.sample(fn.pointers, 2)
                if rng.random() < 0.3:
                    pairs.append([a, b, rng.choice(_SIZE_CHOICES),
                                  rng.choice(_SIZE_CHOICES)])
                else:
                    pairs.append([a, b])
            script.append(make_request(
                "query_many", id=request_id, module=program.name,
                analysis=rng.choice(SCRIPT_ANALYSES),
                function=fn.name, pairs=pairs))
        elif roll < 0.80:
            fn = rng.choice(program.functions)
            script.append(make_request("values", id=request_id,
                                       module=program.name, function=fn.name))
        elif roll < 0.86 and program.range_functions:
            fn = rng.choice(program.range_functions)
            script.append(make_request(
                "range", id=request_id, module=program.name,
                function=fn.name, value=rng.choice(fn.int_args)))
        elif roll < 0.94:
            fn = rng.choice(program.functions)
            script.append(make_request(
                "query_function", id=request_id, module=program.name,
                analysis="rbaa", function=fn.name, max_pairs=40))
        else:
            script.append(_error_request(rng, program, request_id))
    return script


def _load_payloads(corpus: Sequence[_Program]) -> List[Dict[str, Any]]:
    return [make_request("load", id=f"load.{program.name}",
                         name=program.name, source=program.source)
            for program in corpus]


def _stats_payloads(corpus: Sequence[_Program]) -> List[Dict[str, Any]]:
    return [make_request("stats", id=f"stats.{program.name}",
                         module=program.name) for program in corpus]


# -- serial oracle -------------------------------------------------------------

def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def serial_expectations(corpus: Sequence[_Program],
                        scripts: Sequence[Sequence[Dict[str, Any]]],
                        ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Replay every payload through one in-process session.

    Returns ``(expected_by_id, serial_stats_by_module)`` — the oracle the
    socket runs are gated against.  Responses are pure per-module
    functions of the (multiset of) requests, so the serial replay order
    does not have to match any particular socket interleaving.
    """
    session = AnalysisSession()
    expected: Dict[str, Any] = {}
    for payload in _load_payloads(corpus):
        expected[payload["id"]] = handle_payload(session, payload)
    for script in scripts:
        for payload in script:
            expected[payload["id"]] = handle_payload(session, payload)
    stats = {program.name: session.stats(program.name) for program in corpus}
    return expected, stats


def stats_gate_view(record: Dict[str, Any]) -> Dict[str, Any]:
    """The deterministic, interleaving-independent subset of one ``stats``.

    Excluded on purpose: engine get-level hits/misses (they count cache
    *lookups*, whose number depends on how the front end batched),
    ``symbolic_caches`` (process-global), and ``store`` (operational).
    """
    engine = record.get("engine", {})
    view: Dict[str, Any] = {
        "module": record.get("module"),
        "edits": record.get("edits"),
        "solver_steps": record.get("solver_steps"),
        "engine_builds": engine.get("builds"),
        "engine_invalidations": engine.get("invalidations"),
        "engine_refreshes": engine.get("refreshes"),
        "memos": record.get("memos"),
    }
    for key in ("figure14", "rbaa_outcome_memo"):
        if key in record:
            view[key] = record[key]
    return view


# -- one socket run ------------------------------------------------------------

@dataclass
class RunResult:
    transcript: List[Tuple[str, Any]] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)
    wall: float = 0.0
    batches: int = 0
    batched_queries: int = 0


async def _send(reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                payload: Dict[str, Any]) -> Any:
    writer.write((json.dumps(payload, sort_keys=True) + "\n").encode())
    await writer.drain()
    return json.loads(await reader.readline())


async def _run_client(host: str, port: int, script: Sequence[Dict[str, Any]],
                      result: RunResult) -> None:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for payload in script:
            started = time.perf_counter()
            response = await _send(reader, writer, payload)
            result.latencies.append(time.perf_counter() - started)
            result.transcript.append((payload["id"], response))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


async def _run_server_once(corpus: Sequence[_Program],
                           scripts: Sequence[Sequence[Dict[str, Any]]],
                           workers: int,
                           store_root: Optional[str]) -> RunResult:
    pool = WorkerPool(workers=workers, store_root=store_root)
    pool.assign([program.name for program in corpus])
    server = ServiceServer(pool)
    await server.start()
    result = RunResult()
    try:
        reader, writer = await asyncio.open_connection(server.host, server.port)
        for payload in _load_payloads(corpus):
            result.transcript.append(
                (payload["id"], await _send(reader, writer, payload)))
        started = time.perf_counter()
        await asyncio.gather(*[
            _run_client(server.host, server.port, script, result)
            for script in scripts])
        result.wall = time.perf_counter() - started
        for payload in _stats_payloads(corpus):
            result.stats[payload["module"]] = \
                await _send(reader, writer, payload)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
    finally:
        await server.stop()
    result.batches = server.batches
    result.batched_queries = server.batched_queries
    return result


def run_once(corpus: Sequence[_Program],
             scripts: Sequence[Sequence[Dict[str, Any]]],
             workers: int, store_root: Optional[str]) -> RunResult:
    return asyncio.run(_run_server_once(corpus, scripts, workers, store_root))


# -- gating + reporting --------------------------------------------------------

def check_identity(result: RunResult,
                   expected: Dict[str, Any]) -> Dict[str, Any]:
    mismatches: List[Dict[str, Any]] = []
    for request_id, actual in result.transcript:
        want = expected.get(request_id)
        if _canonical(want) != _canonical(actual):
            mismatches.append({"id": request_id, "expected": want,
                               "actual": actual})
    return {"checked": len(result.transcript),
            "mismatches": len(mismatches),
            "first_mismatches": mismatches[:3]}


def _percentile(ordered: Sequence[float], fraction: float) -> float:
    if not ordered:
        return 0.0
    index = max(0, min(len(ordered) - 1,
                       math.ceil(fraction * len(ordered)) - 1))
    return ordered[index]


def _latency_report(result: RunResult) -> Dict[str, Any]:
    ordered = sorted(result.latencies)
    count = len(ordered)
    return {
        "requests": count,
        "wall_seconds": result.wall,
        "throughput_per_second": (count / result.wall) if result.wall else 0.0,
        "latency_p50_seconds": _percentile(ordered, 0.50),
        "latency_p95_seconds": _percentile(ordered, 0.95),
        "latency_p99_seconds": _percentile(ordered, 0.99),
        "latency_mean_seconds": (sum(ordered) / count) if count else 0.0,
        "latency_max_seconds": ordered[-1] if ordered else 0.0,
    }


def _store_views(result: RunResult) -> Dict[str, Dict[str, int]]:
    """Per-module snapshots of the (per-worker) store counters.

    Modules sharing a worker report the same underlying store object, so
    sums double-count — the gates only use zero/non-zero facts, which
    double counting cannot distort.
    """
    views: Dict[str, Dict[str, int]] = {}
    for module, envelope in sorted(result.stats.items()):
        store = envelope.get("store")
        if store:
            views[module] = {key: store[key] for key in
                             ("hits", "misses", "bypasses",
                              "corrupt_entries", "writes")}
    return views


def _run_report(result: RunResult, identity: Dict[str, Any],
                store_runs: bool) -> Dict[str, Any]:
    report = _latency_report(result)
    report["identity"] = identity
    report["coalesced_batches"] = result.batches
    report["coalesced_queries"] = result.batched_queries
    report["solver_steps_total"] = sum(
        envelope.get("solver_steps", 0) for envelope in result.stats.values())
    report["materialized_modules"] = sorted(
        module for module, envelope in result.stats.items()
        if envelope.get("materialized"))
    if store_runs:
        report["store_by_module"] = _store_views(result)
    return report


def run_loadtest(programs: Sequence[str], workers: int, clients: int,
                 requests: int, store_root: Optional[str]) -> Dict[str, Any]:
    """The full three-run loadtest; returns the ``BENCH_service`` record."""
    corpus = build_corpus(programs)
    if not corpus:
        raise SystemExit("loadtest: empty corpus")
    scripts = [client_script(index, corpus, requests)
               for index in range(clients)]
    expected, serial_stats = serial_expectations(corpus, scripts)

    cleanup_store = store_root is None
    if store_root is None:
        store_root = tempfile.mkdtemp(prefix="repro-service-store-")
    try:
        direct = run_once(corpus, scripts, workers, None)
        cold = run_once(corpus, scripts, workers, store_root)
        # A brand-new server (fresh pool, fresh sessions) on the same
        # store: the restart the warm gates are about.
        warm = run_once(corpus, scripts, workers, store_root)
    finally:
        if cleanup_store:
            shutil.rmtree(store_root, ignore_errors=True)

    identities = {name: check_identity(result, expected)
                  for name, result in
                  (("direct", direct), ("cold", cold), ("warm", warm))}
    stats_mismatches = []
    for module, serial_record in serial_stats.items():
        socket_view = stats_gate_view(direct.stats.get(module, {}))
        serial_view = stats_gate_view(serial_record)
        if _canonical(socket_view) != _canonical(serial_view):
            stats_mismatches.append({"module": module,
                                     "serial": serial_view,
                                     "socket": socket_view})

    warm_views = _store_views(warm)
    gates = {
        "answer_identity": all(report["mismatches"] == 0
                               for report in identities.values()),
        "stats_subset_identity": not stats_mismatches,
        "warm_store_hit_floor": bool(warm_views) and all(
            view["misses"] == 0 and view["corrupt_entries"] == 0
            for view in warm_views.values()) and any(
            view["hits"] > 0 for view in warm_views.values()),
        "warm_no_bootstrap": bool(warm.stats) and all(
            envelope.get("solver_steps") == 0
            and not envelope.get("materialized")
            for envelope in warm.stats.values()),
    }

    record: Dict[str, Any] = {
        "schema": 1,
        "protocol_version": PROTOCOL_VERSION,
        "result_schema_version": RESULT_SCHEMA_VERSION,
        "generator_version": GENERATOR_VERSION,
        "config": {
            "programs": [program.name for program in corpus],
            "workers": workers,
            "clients": clients,
            "requests_per_client": requests,
        },
        "corpus": {name: digest for name, digest in
                   sorted(digest_index([p.name for p in corpus]).items())},
        "runs": {
            "direct": _run_report(direct, identities["direct"], False),
            "cold": _run_report(cold, identities["cold"], True),
            "warm": _run_report(warm, identities["warm"], True),
        },
        "stats_gate": {"modules": sorted(serial_stats),
                       "mismatches": stats_mismatches[:3],
                       "mismatch_count": len(stats_mismatches)},
        "gates": gates,
        # Everything under "run" is volatile; strip_volatile drops the key.
        "run": {"started_unix": time.time()},
    }
    return record


# -- chaos mode ----------------------------------------------------------------
#
# ``--chaos`` replaces the three-run loadtest with a two-run fault drill:
# a *prime* run warms the persistent store with every payload the chaos run
# will send, then store entries are corrupted per the fault plan, and the
# *chaos* run replays the same client traffic against a server configured
# with admission control and a deterministic fault schedule (worker kill,
# injected worker latency, truncated client lines) while probing deadlines
# and overload on the side.  Gates: every request terminates with a
# structured envelope, post-fault answers are identical to the serial
# session, the respawned shard stays warm (zero bootstrap solver steps),
# and ``deadline_exceeded`` / ``overloaded`` are observed and recovered.

#: Admission bound of the chaos server (small on purpose: the overload
#: burst must provably exceed it while the victim wedge holds).
CHAOS_MAX_INFLIGHT = 8

#: Front-end backstop grace in the chaos run: generous enough that a
#: healthy worker always answers a ``timeout_ms=0`` probe cooperatively,
#: small enough that the wedged victim (2.5 s sleep) is backstopped.
CHAOS_DEADLINE_GRACE = 1.0

#: Connections in the overload burst (> ``CHAOS_MAX_INFLIGHT``).
CHAOS_BURST = 24

#: ``timeout_ms`` of the latency victim — far below the injected sleep.
CHAOS_VICTIM_TIMEOUT_MS = 150


@dataclass
class ChaosRunResult:
    transcript: List[Tuple[str, Any]] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)
    wall: float = 0.0
    hangs: List[str] = field(default_factory=list)
    truncated_resends: int = 0
    victim_response: Optional[Dict[str, Any]] = None
    probe_responses: List[Dict[str, Any]] = field(default_factory=list)
    burst_final_ok: int = 0
    fault_stats: Dict[str, Any] = field(default_factory=dict)
    controller_responses: Dict[int, int] = field(default_factory=dict)
    kills_fired: Dict[int, int] = field(default_factory=dict)


def _first_query_fields(program: _Program) -> Dict[str, Any]:
    """A deterministic canonical query for one program (probe traffic)."""
    fn = program.query_functions[0]
    return {"module": program.name, "analysis": "rbaa", "function": fn.name,
            "a": fn.pointers[0], "b": fn.pointers[1]}


def _chaos_probe_payloads(corpus: Sequence[_Program], plan: Any,
                          ) -> Dict[str, List[Dict[str, Any]]]:
    """Every side-channel payload of the chaos run, plus prime-phase
    copies (same fields, ``prime.*`` ids) so the store is warm for all of
    them — a cold probe would materialise modules mid-drill and invalidate
    the zero-bootstrap gate."""
    by_name = {program.name: program for program in corpus}
    victim_fields = _first_query_fields(by_name[plan.victim_module])
    payloads: Dict[str, List[Dict[str, Any]]] = {
        "victim": [make_request("query", id=VICTIM_REQUEST_ID,
                                timeout_ms=CHAOS_VICTIM_TIMEOUT_MS,
                                **victim_fields)],
        "burst": [make_request("query", id=f"chaos.burst.{index}",
                               **victim_fields)
                  for index in range(CHAOS_BURST)],
        "deadline": [make_request("query", id=f"chaos.deadline.{index}",
                                  timeout_ms=0, **victim_fields)
                     for index in range(2)],
        "postkill": [make_request("query", id=f"chaos.postkill.{module}",
                                  **_first_query_fields(by_name[module]))
                     for module in plan.killed_modules
                     if module in by_name][:2],
    }
    payloads["prime"] = [make_request("query", id=f"prime.probe.{index}",
                                      **victim_fields)
                         for index in range(1)] + [
        make_request("query", id=f"prime.postkill.{module}",
                     **_first_query_fields(by_name[module]))
        for module in plan.killed_modules if module in by_name][:3]
    return payloads


async def _chaos_send(reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter,
                      payload: Dict[str, Any], policy: RetryPolicy,
                      result: ChaosRunResult) -> Optional[Dict[str, Any]]:
    """``_send`` plus transient-fault retries and a hang watchdog.

    Retries exactly ``RETRYABLE_ERROR_CODES`` with the policy's seeded
    backoff; a 30 s silence is recorded as a hang (the terminal-answer
    gate then fails — the chaos contract is that this never happens).
    """
    attempt = 0
    while True:
        try:
            response = await asyncio.wait_for(
                _send(reader, writer, payload), timeout=30.0)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            result.hangs.append(payload.get("id"))
            return None
        code = response.get("error_code") \
            if isinstance(response, dict) else None
        if code not in RETRYABLE_ERROR_CODES:
            return response
        if attempt >= policy.attempts:
            policy.exhausted += 1
            return response
        policy.note(code)
        await asyncio.sleep(policy.delay_seconds(attempt))
        attempt += 1


async def _run_chaos_client(host: str, port: int, index: int,
                            script: Sequence[Dict[str, Any]], plan: Any,
                            policy: RetryPolicy,
                            result: ChaosRunResult) -> None:
    """One closed-loop chaos client; may be scripted to truncate a line.

    At its plan ordinal the client writes *half* a request with no
    newline, drops the connection ungracefully, reconnects, and resends
    the full request — the server must treat the torn half-line as that
    connection's problem alone.
    """
    reader, writer = await asyncio.open_connection(host, port)
    truncate_at = plan.truncate_clients.get(index)
    try:
        for ordinal, payload in enumerate(script):
            if ordinal == truncate_at:
                line = json.dumps(payload, sort_keys=True)
                writer.write(line[:max(1, len(line) // 2)].encode())
                await writer.drain()
                writer.close()
                reader, writer = await asyncio.open_connection(host, port)
                result.truncated_resends += 1
            started = time.perf_counter()
            response = await _chaos_send(reader, writer, payload, policy,
                                         result)
            if response is None:
                reader, writer = await asyncio.open_connection(host, port)
                continue
            result.latencies.append(time.perf_counter() - started)
            result.transcript.append((payload["id"], response))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


async def _burst_one(host: str, port: int, payload: Dict[str, Any],
                     policy: RetryPolicy, result: ChaosRunResult) -> None:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        response = await _chaos_send(reader, writer, payload, policy, result)
        if response is not None:
            result.transcript.append((payload["id"], response))
            if response.get("ok"):
                result.burst_final_ok += 1
    finally:
        writer.close()


async def _run_chaos_server(corpus: Sequence[_Program],
                            scripts: Sequence[Sequence[Dict[str, Any]]],
                            workers: int, store_root: str, plan: Any,
                            probes: Dict[str, List[Dict[str, Any]]],
                            ) -> ChaosRunResult:
    pool = WorkerPool(workers=workers, store_root=store_root,
                      chaos=dict(plan.latency))
    pool.assign([program.name for program in corpus])
    controller = ChaosController(pool, plan)
    server = ServiceServer(pool, max_inflight=CHAOS_MAX_INFLIGHT,
                           deadline_grace=CHAOS_DEADLINE_GRACE,
                           on_response=controller.on_response)
    await server.start()
    result = ChaosRunResult()
    policy = RetryPolicy(attempts=8, base_ms=50.0,
                         seed=f"service/chaos/retry/{plan.seed}")
    try:
        # Phase 1: loads on a primer connection (journaled once acked).
        reader, writer = await asyncio.open_connection(server.host,
                                                       server.port)
        for payload in _load_payloads(corpus):
            response = await _chaos_send(reader, writer, payload, policy,
                                         result)
            if response is not None:
                result.transcript.append((payload["id"], response))
        # Phase 2: concurrent scripted clients; the plan's kill fires
        # mid-traffic (its threshold sits past the shard's load acks).
        started = time.perf_counter()
        await asyncio.gather(*[
            _run_chaos_client(server.host, server.port, index, script,
                              plan, policy, result)
            for index, script in enumerate(scripts)])
        result.wall = time.perf_counter() - started
        # Phase 3a: wedge the victim shard; the front-end backstop must
        # answer the victim long before the injected sleep releases.
        victim_reader, victim_writer = await asyncio.open_connection(
            server.host, server.port)
        victim_task = asyncio.create_task(asyncio.wait_for(
            _send(victim_reader, victim_writer, probes["victim"][0]),
            timeout=30.0))
        await asyncio.sleep(0.3)  # let the victim reach the worker
        # Phase 3b: overload burst against the wedged shard — admissions
        # beyond max_inflight are shed with ``overloaded``; the burst
        # clients then retry with backoff until the wedge clears.
        await asyncio.gather(*[
            _burst_one(server.host, server.port, payload, policy, result)
            for payload in probes["burst"]])
        try:
            result.victim_response = await victim_task
        except asyncio.TimeoutError:  # pragma: no cover - gate will fail
            result.hangs.append(VICTIM_REQUEST_ID)
        victim_writer.close()
        # Phase 3c: cooperative deadlines on a healthy connection (the
        # wedge has drained by now — the burst completed through it).
        for payload in probes["deadline"]:
            response = await _chaos_send(reader, writer, payload, policy,
                                         result)
            if response is not None:
                result.probe_responses.append(response)
                result.transcript.append((payload["id"], response))
        # Phase 3d: post-failover answers from the respawned shard.
        for payload in probes["postkill"]:
            response = await _chaos_send(reader, writer, payload, policy,
                                         result)
            if response is not None:
                result.transcript.append((payload["id"], response))
        # Phase 4: per-module stats (zero-bootstrap + corruption gates).
        for payload in _stats_payloads(corpus):
            response = await _chaos_send(reader, writer, payload, policy,
                                         result)
            if response is not None:
                result.stats[payload["module"]] = response
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
    finally:
        await server.stop()
    result.fault_stats = server.fault_stats()
    result.fault_stats["client_retries"] = policy.stats()
    result.controller_responses = dict(controller.responses)
    result.kills_fired = dict(controller.kills_fired)
    return result


def _chaos_gates(plan: Any, result: ChaosRunResult,
                 identity: Dict[str, Any],
                 corrupted: List[str]) -> Dict[str, bool]:
    killed_stats = [result.stats.get(module, {})
                    for module in plan.killed_modules]
    store_views = _store_views(result)
    retries = result.fault_stats.get("client_retries", {})
    return {
        "terminal_answers": not result.hangs and all(
            isinstance(response, dict) and "ok" in response
            for _, response in result.transcript),
        "answer_identity_after_faults": identity["mismatches"] == 0,
        "respawn_matches_kills": bool(plan.kills)
        and result.fault_stats.get("respawns") == len(plan.kills)
        and set(result.kills_fired) == set(plan.kills),
        "failover_warm_zero_bootstrap": bool(killed_stats) and all(
            record.get("solver_steps") == 0
            and not record.get("materialized")
            for record in killed_stats),
        "deadline_cooperative": bool(result.probe_responses) and all(
            response.get("error_code") == DEADLINE_EXCEEDED
            for response in result.probe_responses),
        "deadline_backstop": result.victim_response is not None
        and result.victim_response.get("error_code") == DEADLINE_EXCEEDED
        and result.fault_stats.get("backstops", 0) >= 1,
        "overload_shed_and_recovered":
            result.fault_stats.get("shed", 0) >= 1
            and retries.get("retries_by_code", {}).get("overloaded", 0) >= 1
            and result.burst_final_ok == CHAOS_BURST,
        "store_corruption_survived": not plan.corrupt_modules or (
            len(corrupted) == len(plan.corrupt_modules) and any(
                view.get("corrupt_entries", 0) > 0
                for view in store_views.values())),
        "truncation_isolated":
            result.truncated_resends == len(plan.truncate_clients),
    }


def run_chaos_loadtest(programs: Sequence[str], workers: int, clients: int,
                       requests: int, store_root: Optional[str],
                       seed: int) -> Dict[str, Any]:
    """The seeded fault drill; returns the ``BENCH_chaos`` record."""
    corpus = build_corpus(programs)
    if not corpus:
        raise SystemExit("loadtest: empty corpus")
    scripts = [client_script(index, corpus, requests)
               for index in range(clients)]
    placement = WorkerPool(workers=workers).assign(
        [program.name for program in corpus])
    plan = generate_plan(seed, placement, clients)
    probes = _chaos_probe_payloads(corpus, plan)

    # The serial oracle covers everything identity-gated: client scripts,
    # prime-phase probe copies, and the chaos probes — except the latency
    # victim, whose outcome is (by design) the wall-clock backstop.
    oracle_scripts = list(scripts) + [
        probes["prime"], probes["burst"], probes["deadline"],
        probes["postkill"]]
    expected, _ = serial_expectations(corpus, oracle_scripts)

    cleanup_store = store_root is None
    if store_root is None:
        store_root = tempfile.mkdtemp(prefix="repro-chaos-store-")
    try:
        # Prime run: a fault-free pass that warms the store with every
        # payload (scripts + probe shapes) the chaos run will send.
        prime = run_once(corpus, list(scripts) + [probes["prime"]],
                         workers, store_root)
        prime_identity = check_identity(prime, expected)
        corrupted = corrupt_store_entries(
            store_root, digest_index([p.name for p in corpus]),
            plan.corrupt_modules)
        chaos = asyncio.run(_run_chaos_server(
            corpus, scripts, workers, store_root, plan, probes))
    finally:
        if cleanup_store:
            shutil.rmtree(store_root, ignore_errors=True)

    chaos_identity = check_identity(chaos, expected)
    gates = _chaos_gates(plan, chaos, chaos_identity, corrupted)
    gates["prime_identity"] = prime_identity["mismatches"] == 0

    record: Dict[str, Any] = {
        "schema": 1,
        "protocol_version": PROTOCOL_VERSION,
        "result_schema_version": RESULT_SCHEMA_VERSION,
        "generator_version": GENERATOR_VERSION,
        "config": {
            "programs": [program.name for program in corpus],
            "workers": workers,
            "clients": clients,
            "requests_per_client": requests,
            "chaos_seed": seed,
            "max_inflight": CHAOS_MAX_INFLIGHT,
            "deadline_grace_seconds": CHAOS_DEADLINE_GRACE,
        },
        "corpus": {name: digest for name, digest in
                   sorted(digest_index([p.name for p in corpus]).items())},
        "plan": plan.as_dict(),
        "corrupted_entries": len(corrupted),
        "runs": {
            "prime": _run_report(prime, prime_identity, True),
            "chaos": dict(_latency_report(chaos),
                          identity=chaos_identity,
                          hangs=list(chaos.hangs),
                          truncated_resends=chaos.truncated_resends,
                          burst_final_ok=chaos.burst_final_ok,
                          store_by_module=_store_views(chaos)),
        },
        "fault_stats": chaos.fault_stats,
        "controller": {
            "responses": {str(shard): count for shard, count
                          in sorted(chaos.controller_responses.items())},
            "kills_fired": {str(shard): count for shard, count
                            in sorted(chaos.kills_fired.items())},
        },
        "gates": gates,
        # Everything under "run" is volatile; strip_volatile drops the key.
        "run": {"started_unix": time.time()},
    }
    return record


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.loadtest",
        description="closed-loop loadtest of the socket serving layer")
    parser.add_argument("--programs", default=",".join(DEFAULT_PROGRAMS),
                        help="comma-separated suite program names")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--requests", type=int, default=20,
                        help="requests per client (per run)")
    parser.add_argument("--quick", action="store_true",
                        help="CI profile: trims the per-client script")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="persistent store directory (default: a "
                             "temporary one, removed afterwards)")
    parser.add_argument("--out", default=None,
                        help="output record path (default: "
                             "BENCH_service.json, BENCH_chaos.json with "
                             "--chaos)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless every gate holds")
    parser.add_argument("--chaos", action="store_true",
                        help="run the seeded fault drill (worker kill, "
                             "latency, store corruption, truncated lines) "
                             "instead of the three-run loadtest")
    parser.add_argument("--chaos-seed", type=int, default=1,
                        help="fault-plan seed (--chaos only)")
    options = parser.parse_args(argv)
    requests = min(options.requests, 12) if options.quick else options.requests

    programs = tuple(name for name in options.programs.split(",") if name)
    if options.chaos:
        record = run_chaos_loadtest(programs, max(1, options.workers),
                                    max(1, options.clients),
                                    max(1, requests), options.store,
                                    options.chaos_seed)
        out = options.out or "BENCH_chaos.json"
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(to_canonical_json(record))
        chaos = record["runs"]["chaos"]
        faults = record["fault_stats"]
        print(f"loadtest --chaos (seed {record['config']['chaos_seed']}): "
              f"{chaos['requests']} answered, {len(chaos['hangs'])} hangs, "
              f"{faults['respawns']} respawns, {faults['shed']} shed, "
              f"{faults['backstops']} backstops, "
              f"{faults['client_retries']['retries']} client retries")
        for name, passed in sorted(record["gates"].items()):
            print(f"loadtest: gate {name}: {'ok' if passed else 'FAILED'}")
        if options.check and not all(record["gates"].values()):
            return 2
        return 0

    record = run_loadtest(programs, max(1, options.workers),
                          max(1, options.clients), max(1, requests),
                          options.store)
    with open(options.out or "BENCH_service.json", "w",
              encoding="utf-8") as handle:
        handle.write(to_canonical_json(record))

    direct = record["runs"]["direct"]
    warm = record["runs"]["warm"]
    print(f"loadtest: {direct['requests']} requests/run, "
          f"{direct['throughput_per_second']:.1f} req/s direct "
          f"(p50 {direct['latency_p50_seconds'] * 1e3:.1f} ms, "
          f"p99 {direct['latency_p99_seconds'] * 1e3:.1f} ms), "
          f"{warm['throughput_per_second']:.1f} req/s warm-store; "
          f"warm solver steps {warm['solver_steps_total']}")
    for name, passed in sorted(record["gates"].items()):
        print(f"loadtest: gate {name}: {'ok' if passed else 'FAILED'}")
    if options.check and not all(record["gates"].values()):
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    sys.exit(main(sys.argv[1:]))

"""Closed-loop multi-client loadtest of the socket serving layer.

``python -m repro.service.loadtest`` drives the asyncio TCP front end
(:mod:`repro.service.server`) with N concurrent closed-loop clients over a
deterministic, seeded request script, and writes ``BENCH_service.json``:
per-run request counts, solver steps and the gates below.  It measures no
wall time; the repository benchmark (``perfbench``'s ``serve-read`` and
``serve-edit`` workloads) measures this traffic's throughput and latency
end to end.  What is gated is correctness:

* **Answer identity** — every response (loads, queries, ranges, value
  listings, sweeps, and the scripted error requests) must be bit-identical
  to what a serial in-process :class:`~repro.service.session.AnalysisSession`
  produces for the same payload, at any worker/client count.
* **Stats identity** (storeless run) — the deterministic subset of each
  module's ``stats`` record (solver steps, Figure-14 counters, pair-memo
  counters, the whole engine record) must equal the serial session's.
  Only the process-global symbolic caches and the store's operational
  counters are excluded.
* **Edit replay** (on the storeless run's server, after its stats are
  taken) — each corpus program's seeded edit scenario
  (:func:`repro.benchgen.editscript.edit_scenario`, three single-function
  edits) goes through the socket with a ``query_function`` sweep of every
  alias analysis, and a whole-module ``check_bounds`` and ``parallel_loops``,
  after each step.  Every sweep and both client reports must equal a cold
  :class:`~repro.service.session.AnalysisSession` built from that step's
  source (``edit_warm_equals_cold``), and every edit must re-run strictly
  fewer solver steps than the cold rebuild — overall
  (``edit_fewer_solver_steps``) and within GR, the one interprocedural
  fixed point an edit re-seeds (``edit_fewer_callgraph_steps``; Andersen
  and Steensgaard rebuild cold on an edit, so they add the same steps to
  both sides).
  :func:`replay_edits` takes any :class:`~repro.service.client.ServiceClient`.
* **Warm store** — the run is repeated against one persistent
  content-addressed store (:mod:`repro.service.store`) twice, with a full
  server restart in between.  On the second (warm) run every worker's
  store view must show zero misses and a positive hit count, the front
  end must have answered reads from the store itself (``store_hits`` in
  its fault stats), and every module must finish the run unmaterialised
  with ``solver_steps == 0`` — i.e. the restarted server answered
  everything, starting with its first query, without re-running the
  compile-and-bootstrap path.  The storeless run's front end must read
  the store zero times.

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
import random
import sys
import tempfile
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..benchgen import build_program, digest_index, edit_scenario, stable_seed, suite_configs
from ..benchgen.manifest import GENERATOR_VERSION
from ..evaluation.reporting import to_canonical_json
from .chaos import (
    VICTIM_REQUEST_ID,
    ChaosController,
    corrupt_store_entries,
    generate_plan,
)
from .client import InProcessClient, RetryPolicy, ServiceClient, SocketClient
from .pool import WorkerPool
from .protocol import (
    DEADLINE_EXCEEDED,
    OPS,
    PROTOCOL_VERSION,
    RETRYABLE_ERROR_CODES,
    handle_payload,
    make_request,
)
from .server import ServiceServer
from .session import AnalysisSession
from .store import RESULT_SCHEMA_VERSION

__all__ = ["DEFAULT_PROGRAMS", "replay_edits", "edit_gates", "run_loadtest",
           "run_chaos_loadtest", "main"]

#: The quick-corpus programs.
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

    Excluded on purpose: ``symbolic_caches`` (process-global) and
    ``store`` (operational).
    """
    view: Dict[str, Any] = {
        "module": record.get("module"),
        "edits": record.get("edits"),
        "solver_steps": record.get("solver_steps"),
        "engine": record.get("engine"),
        "memos": record.get("memos"),
    }
    if "figure14" in record:
        view["figure14"] = record["figure14"]
    return view


# -- edit replay ---------------------------------------------------------------

#: Single-function edits per program scenario, and the alias analyses
#: swept (``query_function``, at most ``EDIT_MAX_PAIRS`` pairs per function)
#: after every step.
EDITS = 3
EDIT_ANALYSES = ("rbaa", "basic", "andersen", "steensgaard")
EDIT_MAX_PAIRS = 120
#: The client ops whose whole-module reports are compared after every step.
EDIT_CLIENTS = ("check_bounds", "parallel_loops")

_SWEEP_FIELDS = ("queries", "no_alias", "no_alias_indices")


def _callgraph_steps(stats: Dict[str, Any]) -> int:
    """GR's solver steps: the interprocedural fixed point an edit re-seeds."""
    return stats["solver_steps_by_analysis"].get("global-ranges", 0)


def _client_reports(request: Any, module: str) -> Dict[str, Any]:
    """Both clients' whole-module reports of ``module``; ``request(op,
    **fields)`` answers one op."""
    return {op: {key: request(op, module=module)[key]
                 for key in OPS[op].response}
            for op in EDIT_CLIENTS}


def _sweep(query_function: Any, module: str) -> Dict[str, Any]:
    """Every analysis over every enumerated pair of ``module``."""
    sweep = {}
    for analysis in EDIT_ANALYSES:
        response = query_function(module=module, analysis=analysis,
                                  max_pairs=EDIT_MAX_PAIRS)
        sweep[analysis] = {key: response[key] for key in _SWEEP_FIELDS}
    return sweep


def replay_edits(client: ServiceClient, programs: Sequence[str]) -> Dict[str, Any]:
    """Replay each program's edit scenario through ``client``, warm.

    After every step the warm sweep and both clients' whole-module reports
    are compared with a cold :class:`AnalysisSession` loaded from that
    step's source, and the solver steps the warm service spent on the step
    (from ``stats``) are recorded next to the cold session's total.
    """
    steps: List[Dict[str, Any]] = []
    for name in programs:
        scenario = edit_scenario(suite_configs([name])[0], edits=EDITS)
        client.request("load", name=name, source=scenario.steps[0].source)
        before = client.request("stats", module=name)
        for step in scenario.steps:
            impacts: List[Dict[str, Any]] = []
            if step.index > 0:
                edited = client.request("edit", name=name, source=step.source)
                if edited["reloaded"] or edited["changed"] != [step.function]:
                    raise RuntimeError(
                        f"scenario step {step.index} of {name!r} did not take "
                        f"the incremental path: {edited}")
                impacts = edited["impacts"]
            warm = _sweep(partial(client.request, "query_function"), name)
            warm_clients = _client_reports(client.request, name)
            after = client.request("stats", module=name)
            cold_session = AnalysisSession()
            cold_session.load_source(name, step.source)
            cold = _sweep(cold_session.query_function, name)
            cold_clients = _client_reports(
                lambda op, **fields: getattr(cold_session, OPS[op].method)(**fields),
                name)
            cold_stats = cold_session.stats(name)
            steps.append({
                "program": name,
                "index": step.index,
                "function": step.function,
                "no_alias": {analysis: sweep["no_alias"] for analysis, sweep in warm.items()},
                "identical": warm == cold and warm_clients == cold_clients,
                "warm_solver_steps": after["solver_steps"] - before["solver_steps"],
                "cold_solver_steps": cold_stats["solver_steps"],
                "warm_callgraph_steps": _callgraph_steps(after) - _callgraph_steps(before),
                "cold_callgraph_steps": _callgraph_steps(cold_stats),
                "impacts": impacts,
            })
            before = after
    return {"programs": list(programs), "edits": EDITS, "steps": steps}


def edit_gates(replay: Dict[str, Any]) -> Dict[str, bool]:
    """The replay's gates: warm ≡ cold at every step, and every edit
    re-solves strictly fewer steps than a cold rebuild — overall and on the
    interprocedural fixed points."""
    steps = replay["steps"]
    edits = [step for step in steps if step["index"] > 0]
    return {
        "edit_warm_equals_cold": bool(steps) and all(step["identical"] for step in steps),
        "edit_fewer_solver_steps": bool(edits) and all(
            step["warm_solver_steps"] < step["cold_solver_steps"] for step in edits),
        "edit_fewer_callgraph_steps": bool(edits) and all(
            step["warm_callgraph_steps"] < step["cold_callgraph_steps"] for step in edits),
    }


def _replay_on_server(host: str, port: int, programs: Sequence[str]) -> Dict[str, Any]:
    client = SocketClient.connect(host, port)
    try:
        return replay_edits(client, programs)
    finally:
        client.close()


# -- one socket run ------------------------------------------------------------

@dataclass
class RunResult:
    transcript: List[Tuple[str, Any]] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)
    #: Client script requests answered (a chaos hang answers none).
    requests: int = 0
    fault_stats: Dict[str, Any] = field(default_factory=dict)
    #: The edit replay's record (``run_once(..., edits=True)`` only).
    edits: Dict[str, Any] = field(default_factory=dict)
    # What only a chaos run (``plan`` given) fills in:
    hangs: List[str] = field(default_factory=list)
    truncated_resends: int = 0
    victim_response: Optional[Dict[str, Any]] = None
    probe_responses: List[Dict[str, Any]] = field(default_factory=list)
    burst_final_ok: int = 0
    controller_responses: Dict[int, int] = field(default_factory=dict)
    kills_fired: Dict[int, int] = field(default_factory=dict)


async def _exchange(reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter,
                    payload: Dict[str, Any]) -> Any:
    writer.write((json.dumps(payload, sort_keys=True) + "\n").encode())
    await writer.drain()
    return json.loads(await reader.readline())


async def _send(reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                payload: Dict[str, Any], result: RunResult,
                policy: Optional[RetryPolicy] = None) -> Optional[Any]:
    """One request/response exchange on one connection.

    A chaos run passes its client retry ``policy``: exactly
    ``RETRYABLE_ERROR_CODES`` are then retried with the policy's seeded
    backoff, and a 30 s silence is recorded as a hang and answered
    ``None`` (the terminal-answer gate then fails — the chaos contract is
    that this never happens).
    """
    if policy is None:
        return await _exchange(reader, writer, payload)
    attempt = 0
    while True:
        try:
            response = await asyncio.wait_for(
                _exchange(reader, writer, payload), timeout=30.0)
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


async def _send_each(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter,
                     payloads: Sequence[Dict[str, Any]], result: RunResult,
                     policy: Optional[RetryPolicy]) -> List[Any]:
    """Send ``payloads`` in order; every answer also enters the transcript."""
    answers = []
    for payload in payloads:
        response = await _send(reader, writer, payload, result, policy)
        if response is not None:
            result.transcript.append((payload["id"], response))
            answers.append(response)
    return answers


async def _close(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
        pass


async def _run_client(host: str, port: int, script: Sequence[Dict[str, Any]],
                      result: RunResult, policy: Optional[RetryPolicy] = None,
                      truncate_at: Optional[int] = None) -> None:
    """One closed-loop client; a chaos client may be scripted to truncate.

    At ordinal ``truncate_at`` the client writes *half* a request with no
    newline, drops the connection ungracefully, reconnects, and resends
    the full request — the server must treat the torn half-line as that
    connection's problem alone.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for ordinal, payload in enumerate(script):
            if ordinal == truncate_at:
                line = json.dumps(payload, sort_keys=True)
                writer.write(line[:max(1, len(line) // 2)].encode())
                await writer.drain()
                writer.close()
                reader, writer = await asyncio.open_connection(host, port)
                result.truncated_resends += 1
            response = await _send(reader, writer, payload, result, policy)
            if response is None:
                writer.close()
                reader, writer = await asyncio.open_connection(host, port)
                continue
            result.requests += 1
            result.transcript.append((payload["id"], response))
    finally:
        await _close(writer)


async def _run_server(corpus: Sequence[_Program],
                      scripts: Sequence[Sequence[Dict[str, Any]]],
                      workers: int, store_root: Optional[str],
                      edits: bool = False, plan: Any = None,
                      probes: Optional[Dict[str, List[Dict[str, Any]]]] = None,
                      ) -> RunResult:
    """One server: loads, the concurrent client scripts, then per-module
    stats.  A chaos ``plan`` arms the server's faults and adds the probe
    steps (:func:`_chaos_steps`) after the scripts; ``edits`` appends the
    edit replay."""
    pool = WorkerPool(workers=workers, store_root=store_root,
                      chaos=dict(plan.latency) if plan else None)
    pool.assign([program.name for program in corpus])
    policy = controller = None
    options: Dict[str, Any] = {}
    if plan is not None:
        controller = ChaosController(pool, plan)
        policy = RetryPolicy(attempts=8, base_ms=50.0,
                             seed=f"service/chaos/retry/{plan.seed}")
        options = dict(max_inflight=CHAOS_MAX_INFLIGHT,
                       deadline_grace=CHAOS_DEADLINE_GRACE,
                       on_response=controller.on_response)
    server = ServiceServer(pool, **options)
    await server.start()
    result = RunResult()
    loads = _load_payloads(corpus)
    if plan is not None:
        # The victim module is loaded by name, so the front end does not
        # know its source and answers none of its reads from the store:
        # the probes reach the wedged worker, which answers them from the
        # warm store without compiling.
        loads = [make_request("load_program", id=payload["id"],
                              name=payload["name"])
                 if payload["name"] == plan.victim_module else payload
                 for payload in loads]
    try:
        # Loads on a primer connection (journaled once acked).
        reader, writer = await asyncio.open_connection(server.host, server.port)
        await _send_each(reader, writer, loads, result, policy)
        # Concurrent scripted clients; a chaos plan's kill fires mid-traffic
        # (its threshold sits past the shard's load acks).
        await asyncio.gather(*[
            _run_client(server.host, server.port, script, result, policy,
                        plan.truncate_clients.get(index) if plan else None)
            for index, script in enumerate(scripts)])
        if plan is not None:
            await _chaos_steps(server.host, server.port, reader, writer,
                               probes, policy, result)
        # Per-module stats (stats, warm-store, zero-bootstrap gates).
        for payload in _stats_payloads(corpus):
            response = await _send(reader, writer, payload, result, policy)
            if response is not None:
                result.stats[payload["module"]] = response
        if edits:
            # A blocking client in a helper thread; the loop keeps serving.
            result.edits = await asyncio.get_running_loop().run_in_executor(
                None, _replay_on_server, server.host, server.port,
                [program.name for program in corpus])
        await _close(writer)
    finally:
        await server.stop()
    result.fault_stats = server.fault_stats()
    if plan is not None:
        result.fault_stats["client_retries"] = policy.stats()
        result.controller_responses = dict(controller.responses)
        result.kills_fired = dict(controller.kills_fired)
    return result


def run_once(corpus: Sequence[_Program],
             scripts: Sequence[Sequence[Dict[str, Any]]],
             workers: int, store_root: Optional[str],
             edits: bool = False) -> RunResult:
    """One server run of ``scripts``; ``edits`` appends the edit replay."""
    return asyncio.run(_run_server(corpus, scripts, workers, store_root, edits))


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
    report: Dict[str, Any] = {"requests": result.requests,
                              "identity": identity}
    report["solver_steps_total"] = sum(
        envelope.get("solver_steps", 0) for envelope in result.stats.values())
    report["materialized_modules"] = sorted(
        module for module, envelope in result.stats.items()
        if envelope.get("materialized"))
    if store_runs:
        report["store_by_module"] = _store_views(result)
    report["front_end_store"] = {
        key: result.fault_stats[f"store_{key}"] for key in ("hits", "misses")}
    return report


def _corpus_and_scripts(programs: Sequence[str], clients: int,
                        requests: int) -> Tuple[List[_Program],
                                                List[List[Dict[str, Any]]]]:
    corpus = build_corpus(programs)
    if not corpus:
        raise SystemExit("loadtest: empty corpus")
    return corpus, [client_script(index, corpus, requests)
                     for index in range(clients)]


def _record(corpus: Sequence[_Program], workers: int, clients: int,
            requests: int, **config: Any) -> Dict[str, Any]:
    """The record fields both modes share; ``config`` adds mode settings."""
    names = [program.name for program in corpus]
    return {
        "schema": 1,
        "protocol_version": PROTOCOL_VERSION,
        "result_schema_version": RESULT_SCHEMA_VERSION,
        "generator_version": GENERATOR_VERSION,
        "config": {"programs": names, "workers": workers, "clients": clients,
                   "requests_per_client": requests, **config},
        "corpus": dict(sorted(digest_index(names).items())),
        # Everything under "run" is volatile; strip_volatile drops the key.
        "run": {"started_unix": time.time()},
    }


def run_loadtest(programs: Sequence[str], workers: int, clients: int,
                 requests: int, store_root: Optional[str]) -> Dict[str, Any]:
    """The full three-run loadtest; returns the ``BENCH_service`` record."""
    corpus, scripts = _corpus_and_scripts(programs, clients, requests)
    expected, serial_stats = serial_expectations(corpus, scripts)

    with tempfile.TemporaryDirectory(prefix="repro-service-store-") as scratch:
        store_root = store_root or scratch
        direct = run_once(corpus, scripts, workers, None, edits=True)
        cold = run_once(corpus, scripts, workers, store_root)
        # A brand-new server (fresh pool, fresh sessions) on the same
        # store: the restart the warm gates are about.
        warm = run_once(corpus, scripts, workers, store_root)

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
            view["hits"] > 0 for view in warm_views.values())
        and warm.fault_stats["store_hits"] > 0
        and direct.fault_stats["store_hits"] == 0
        and direct.fault_stats["store_misses"] == 0,
        "warm_no_bootstrap": bool(warm.stats) and all(
            envelope.get("solver_steps") == 0
            and not envelope.get("materialized")
            for envelope in warm.stats.values()),
        **edit_gates(direct.edits),
    }

    return dict(_record(corpus, workers, clients, requests), **{
        "runs": {
            "direct": _run_report(direct, identities["direct"], False),
            "cold": _run_report(cold, identities["cold"], True),
            "warm": _run_report(warm, identities["warm"], True),
        },
        "stats_gate": {"modules": sorted(serial_stats),
                       "mismatches": stats_mismatches[:3],
                       "mismatch_count": len(stats_mismatches)},
        "edits": direct.edits,
        "gates": gates,
    })


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


async def _burst_one(host: str, port: int, payload: Dict[str, Any],
                     policy: RetryPolicy, result: RunResult) -> None:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for response in await _send_each(reader, writer, [payload], result,
                                         policy):
            result.burst_final_ok += bool(response.get("ok"))
    finally:
        writer.close()


async def _chaos_steps(host: str, port: int, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter,
                       probes: Dict[str, List[Dict[str, Any]]],
                       policy: RetryPolicy, result: RunResult) -> None:
    """The probe steps a chaos run adds after its scripted clients."""
    # Wedge the victim shard; the front-end backstop must answer the
    # victim long before the injected sleep releases.
    victim_reader, victim_writer = await asyncio.open_connection(host, port)
    victim = asyncio.create_task(_send(victim_reader, victim_writer,
                                       probes["victim"][0], result, policy))
    await asyncio.sleep(0.3)  # let the victim reach the worker
    # Overload burst against the wedged shard — admissions beyond
    # max_inflight are shed with ``overloaded``; the burst clients then
    # retry with backoff until the wedge clears.
    await asyncio.gather(*[_burst_one(host, port, payload, policy, result)
                           for payload in probes["burst"]])
    result.victim_response = await victim
    victim_writer.close()
    # Cooperative deadlines on a healthy connection (the wedge has drained
    # by now — the burst completed through it).
    result.probe_responses = await _send_each(
        reader, writer, probes["deadline"], result, policy)
    # Post-failover answers from the respawned shard.
    await _send_each(reader, writer, probes["postkill"], result, policy)


def _chaos_gates(plan: Any, result: RunResult,
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
    corpus, scripts = _corpus_and_scripts(programs, clients, requests)
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

    with tempfile.TemporaryDirectory(prefix="repro-chaos-store-") as scratch:
        store_root = store_root or scratch
        # Prime run: a fault-free pass that warms the store with every
        # payload (scripts + probe shapes) the chaos run will send.
        prime = run_once(corpus, list(scripts) + [probes["prime"]],
                         workers, store_root)
        prime_identity = check_identity(prime, expected)
        corrupted = corrupt_store_entries(
            store_root, digest_index([p.name for p in corpus]),
            plan.corrupt_modules)
        chaos = asyncio.run(_run_server(corpus, scripts, workers, store_root,
                                        plan=plan, probes=probes))

    chaos_identity = check_identity(chaos, expected)
    gates = _chaos_gates(plan, chaos, chaos_identity, corrupted)
    gates["prime_identity"] = prime_identity["mismatches"] == 0

    record = _record(corpus, workers, clients, requests, chaos_seed=seed,
                     max_inflight=CHAOS_MAX_INFLIGHT,
                     deadline_grace_seconds=CHAOS_DEADLINE_GRACE)
    return dict(record, **{
        "plan": plan.as_dict(),
        "corrupted_entries": len(corrupted),
        "runs": {
            "prime": _run_report(prime, prime_identity, True),
            "chaos": {"requests": chaos.requests,
                      "identity": chaos_identity,
                      "hangs": list(chaos.hangs),
                      "truncated_resends": chaos.truncated_resends,
                      "burst_final_ok": chaos.burst_final_ok,
                      "store_by_module": _store_views(chaos)},
        },
        "fault_stats": chaos.fault_stats,
        "controller": {
            "responses": {str(shard): count for shard, count
                          in sorted(chaos.controller_responses.items())},
            "kills_fired": {str(shard): count for shard, count
                            in sorted(chaos.kills_fired.items())},
        },
        "gates": gates,
    })


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
    sizes = (max(1, options.workers), max(1, options.clients),
             max(1, requests), options.store)
    if options.chaos:
        record = run_chaos_loadtest(programs, *sizes, options.chaos_seed)
        chaos = record["runs"]["chaos"]
        faults = record["fault_stats"]
        summary = (f"loadtest --chaos (seed {record['config']['chaos_seed']}): "
                   f"{chaos['requests']} answered, {len(chaos['hangs'])} hangs, "
                   f"{faults['respawns']} respawns, {faults['shed']} shed, "
                   f"{faults['backstops']} backstops, "
                   f"{faults['client_retries']['retries']} client retries")
    else:
        record = run_loadtest(programs, *sizes)
        direct = record["runs"]["direct"]
        warm = record["runs"]["warm"]
        summary = (f"loadtest: {direct['requests']} requests/run; "
                   f"warm solver steps {warm['solver_steps_total']}; edit "
                   f"replay: {len(record['edits']['steps'])} steps over "
                   f"{len(record['edits']['programs'])} programs")
    out = options.out or ("BENCH_chaos.json" if options.chaos
                          else "BENCH_service.json")
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(to_canonical_json(record))
    print(summary)
    for name, passed in sorted(record["gates"].items()):
        print(f"loadtest: gate {name}: {'ok' if passed else 'FAILED'}")
    if options.check and not all(record["gates"].values()):
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    sys.exit(main(sys.argv[1:]))

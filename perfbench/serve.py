"""The ``serve-read`` and ``serve-edit`` workloads: the socket server under load.

The server runs as its own process over two workers and a fresh result
store.  One load-generator process drives it over two closed-loop
connections (a connection sends its next request only after the previous
answer arrived), replaying a seeded script:

* ``serve-read`` — a pool of distinct read-only requests (``query``,
  ``query_many``, ``query_function``, ``values``, ``range``,
  ``check_bounds``, ``parallel_loops`` and a few requests that must fail
  with a given ``error_code``); each connection replays the whole pool in
  its own seeded order.
* ``serve-edit`` — each connection owns three modules and cycles each
  through an edit script forward and back (so resident state returns to
  its start); every edit is followed by seven reads on the edited
  function, its caller ``main`` and the connection's other modules.
  Modules are never shared between connections, so every answer is a
  pure function of the script position whatever the interleaving.

Set-up loads the corpus and sends every scripted request once (for
``serve-edit``: one whole cycle per connection).  Every answer is checked
against the canonical answer of a serial in-process session.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import common

WORKERS = 2
CONNECTIONS = 2
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Edits per module in the ``serve-edit`` scenario (visited 1..E..0).
EDITS_PER_MODULE = 3
#: Reads that follow each edit (one request in eight is an edit).
READS_PER_EDIT = 7
#: Read ops of the pool (``error``: requests that must fail with a given
#: ``error_code``).
READ_OPS = ("query", "query_many", "query_function", "values", "range",
            "check_bounds", "parallel_loops", "error")
RETRYABLE = ("overloaded", "worker_unavailable")


def _request(op: str, **fields: Any) -> Dict[str, Any]:
    payload = {"op": op, "v": 1}
    payload.update(fields)
    return payload


# -- inputs --------------------------------------------------------------------

@dataclass
class ModuleState:
    """Function → queryable value names of one compiled source."""

    functions: Dict[str, Dict[str, List[str]]]


def describe(source: str, name: str) -> ModuleState:
    from repro import compile_source

    module = compile_source(source, name)
    functions: Dict[str, Dict[str, List[str]]] = {}
    for function in module.defined_functions():
        values = list(function.args) + [inst for inst in function.instructions()
                                         if inst.name]
        functions[function.name] = {
            "pointers": [value.name for value in values if value.is_pointer()],
            "ints": [value.name for value in values
                     if value.type.is_integer()]}
    return ModuleState(functions)


def _pairs(rng: random.Random, pointers: Sequence[str], count: int):
    return [rng.sample(list(pointers), 2) for _ in range(count)]


def read_pool(rng: random.Random, module: str,
              state: ModuleState) -> Dict[str, List[Dict[str, Any]]]:
    """Distinct read requests for one module, grouped by op."""
    pool: Dict[str, List[Dict[str, Any]]] = {op: [] for op in READ_OPS}
    names = sorted(state.functions)
    for function in names:
        values = state.functions[function]
        pointers = values["pointers"]
        analysis = rng.choice(("rbaa", "basic"))
        if len(pointers) >= 2:
            for a, b in _pairs(rng, pointers, 3):
                pool["query"].append(_request(
                    "query", module=module, analysis=rng.choice(("rbaa", "basic")),
                    function=function, a=a, b=b))
            pool["query_many"].append(_request(
                "query_many", module=module, analysis=analysis,
                function=function, pairs=_pairs(rng, pointers, 12)))
        pool["query_function"].append(_request(
            "query_function", module=module, analysis=analysis,
            function=function))
        pool["values"].append(_request("values", module=module,
                                       function=function))
        if values["ints"]:
            pool["range"].append(_request(
                "range", module=module, function=function,
                value=rng.choice(values["ints"])))
        pool["check_bounds"].append(_request("check_bounds", module=module,
                                             function=function))
        pool["parallel_loops"].append(_request(
            "parallel_loops", module=module, function=function))
    pool["check_bounds"].append(_request("check_bounds", module=module))
    pool["parallel_loops"].append(_request("parallel_loops", module=module))
    function = names[0]
    # The unknown-value request is a ``query_many``, not a ``query``: the
    # server coalesces concurrent ``query`` requests on one function into a
    # single ``query_many``, and one unknown value fails the whole group,
    # so a valid query that happened to share its round would fail too.
    pool["error"] += [
        _request("query_many", module=module, analysis="rbaa",
                 function=function,
                 pairs=[["no_such_value", "no_such_value_either"]]),
        _request("query_function", module=module, analysis="no_such_analysis"),
        _request("values", module=module, function="no_such_function")]
    return pool


@dataclass
class Script:
    """Distinct requests plus, per connection, the cycle it replays."""

    modules: List[Tuple[str, str]]
    #: Which connection loads each module.
    loader: List[int]
    requests: List[Dict[str, Any]] = field(default_factory=list)
    cycles: List[List[int]] = field(default_factory=list)
    #: Per connection, the requests set-up sends (every one of them once).
    warmup: List[List[int]] = field(default_factory=list)

    def add(self, payload: Dict[str, Any]) -> int:
        self.requests.append(payload)
        return len(self.requests) - 1

    def lines(self) -> List[bytes]:
        """Each request as its wire line."""
        return [(json.dumps(payload) + "\n").encode()
                for payload in self.requests]


def read_script(seed: int) -> Script:
    from repro.benchgen import generate_source

    rng = random.Random(f"perfbench/serve-read/{seed}")
    configs = common.serve_configs(seed)
    modules = [(config.name, generate_source(config)) for config in configs]
    script = Script(modules=modules,
                    loader=[index % CONNECTIONS for index in range(len(modules))])
    for name, source in modules:
        for payloads in read_pool(rng, name, describe(source, name)).values():
            for payload in payloads:
                script.add(payload)
    everything = list(range(len(script.requests)))
    # Each connection replays the whole pool in its own order, so the op
    # mix (and the share of heavy whole-module requests) is the pool's.
    for _ in range(CONNECTIONS):
        cycle = list(everything)
        rng.shuffle(cycle)
        script.cycles.append(cycle)
    script.warmup = [everything[start::CONNECTIONS]
                     for start in range(CONNECTIONS)]
    return script


def edit_script(seed: int) -> Script:
    from repro.benchgen import edit_scenario

    rng = random.Random(f"perfbench/serve-edit/{seed}")
    configs = common.serve_configs(seed)
    scenarios = [edit_scenario(config, edits=EDITS_PER_MODULE, seed=seed)
                 for config in configs]
    modules = [(scenario.name, scenario.steps[0].source)
               for scenario in scenarios]
    owner = [index % CONNECTIONS for index in range(len(modules))]
    script = Script(modules=modules, loader=owner)
    states = [[describe(step.source, scenario.name) for step in scenario.steps]
              for scenario in scenarios]
    pools = [read_pool(rng, name, states[index][0])
             for index, (name, _) in enumerate(modules)]
    targets = list(range(1, EDITS_PER_MODULE + 1)) \
        + list(range(EDITS_PER_MODULE - 1, -1, -1))
    for connection in range(CONNECTIONS):
        owned = [index for index in range(len(modules))
                 if owner[index] == connection]
        current = {index: 0 for index in owned}
        cycle: List[int] = []
        for target in targets:
            for index in owned:
                scenario = scenarios[index]
                name = scenario.name
                edited = scenario.steps[max(current[index], target)].function
                current[index] = target
                pointers = states[index][target].functions[edited]["pointers"]
                reads = [
                    _request("query_function", module=name, analysis="rbaa",
                             function=edited),
                    _request("check_bounds", module=name, function=edited),
                    _request("values", module=name, function=edited),
                    _request("query_many", module=name,
                             analysis=rng.choice(("rbaa", "basic")),
                             function=edited,
                             pairs=_pairs(rng, pointers, 8)
                             if len(pointers) >= 2 else []),
                    _request("query_function", module=name, analysis="basic",
                             function="main")]
                while len(reads) < READS_PER_EDIT:
                    other = pools[rng.choice(owned)]
                    op = rng.choice(("query", "range", "parallel_loops",
                                     "query_many"))
                    if other[op]:
                        reads.append(rng.choice(other[op]))
                cycle.append(script.add(_request(
                    "edit", name=name, source=scenario.steps[target].source)))
                cycle += [script.add(payload) for payload in reads]
        script.cycles.append(cycle)
    script.warmup = [list(cycle) for cycle in script.cycles]
    return script


def make_script(workload: str, seed: int) -> Script:
    return read_script(seed) if workload == "serve-read" else edit_script(seed)


# -- canonical answers ---------------------------------------------------------

def canonical(payload: Dict[str, Any], envelope: Dict[str, Any]) -> str:
    """Digest of the part of an answer that must never change.

    Errors are compared by ``error_code``.  An edit's answer is which
    functions changed and whether it reloaded; its incremental telemetry
    depends on which analyses happened to be cached and is not an answer.
    """
    if not envelope.get("ok"):
        core: Any = {"ok": False, "error_code": envelope.get("error_code")}
    elif payload["op"] == "edit":
        core = {key: envelope.get(key) for key in ("module", "changed",
                                                   "reloaded", "ok")}
    else:
        core = {key: value for key, value in envelope.items() if key != "id"}
    return common.canonical_digest(core)


def reference_entry(workload: str, seed: int) -> Dict[str, Any]:
    """Canonical answers of a serial in-process session (no store)."""
    from repro.service.protocol import handle_payload
    from repro.service.session import AnalysisSession

    script = make_script(workload, seed)
    session = AnalysisSession()
    loads = []
    for name, source in script.modules:
        payload = _request("load", name=name, source=source)
        loads.append(canonical(payload, handle_payload(session, payload)))
    answers: Dict[int, str] = {}
    for requests in script.warmup:
        for index in requests:
            payload = script.requests[index]
            answers[index] = canonical(payload,
                                       handle_payload(session, payload))
    return {"load": loads,
            "answers": [answers[index] for index in range(len(script.requests))]}


# -- the server and its connections --------------------------------------------

class Connection:
    """One closed-loop client connection speaking line-delimited JSON."""

    def __init__(self, port: int):
        self.socket = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.socket.makefile("rb")

    def roundtrip(self, line: bytes) -> bytes:
        self.socket.sendall(line)
        answer = self.reader.readline()
        if not answer:
            raise ConnectionError("server closed the connection")
        return answer

    def close(self) -> None:
        self.reader.close()
        self.socket.close()


class Server:
    """``repro.service.server`` in its own process group, plus connections."""

    def __init__(self, directory: str, tag: str):
        self.stats_path = os.path.join(directory, f"server-{tag}.json")
        store = os.path.join(directory, f"store-{tag}")
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(common.HERE, "server_proc.py"),
             self.stats_path, "--workers", str(WORKERS), "--store", store],
            stdout=subprocess.PIPE, text=True, env=common.child_env(),
            cwd=common.ROOT, start_new_session=True)
        banner = self.process.stdout.readline()
        try:
            port = int(banner.rsplit(":", 1)[1].split()[0])
        except (IndexError, ValueError):
            self.kill()
            raise RuntimeError(f"no port in server banner {banner!r}")
        self.connections = [Connection(port) for _ in range(CONNECTIONS)]

    def request(self, payload: Dict[str, Any]) -> Dict:
        line = (json.dumps(payload) + "\n").encode()
        return json.loads(self.connections[0].roundtrip(line))

    def stop(self) -> Dict[str, Any]:
        """Orderly shutdown; returns the server process's own report."""
        try:
            self.request(_request("shutdown"))
        except (OSError, ValueError):
            pass
        for connection in self.connections:
            connection.close()
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
        self.process.stdout.close()
        try:
            with open(self.stats_path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return {}

    def kill(self) -> None:
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()


@dataclass
class Checker:
    """Compares answers with the reference; learns raw answer bytes once a
    decoded answer has been checked, so the timed loop can compare bytes."""

    script: Script
    expected: Dict[str, Any]
    known_raw: Dict[int, bytes] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)

    def check(self, index: int, raw: bytes) -> None:
        digest = hashlib.sha1(raw).digest()
        if self.known_raw.get(index) == digest:
            ok = True
        else:
            payload = self.script.requests[index]
            ok = canonical(payload, json.loads(raw)) \
                == self.expected["answers"][index]
            if ok and payload["op"] != "edit":
                self.known_raw[index] = digest
            if not ok:
                _report_mismatch(payload, raw)
        self._count(ok)

    def check_load(self, position: int, envelope: Dict[str, Any]) -> None:
        name, source = self.script.modules[position]
        payload = _request("load", name=name, source=source)
        ok = canonical(payload, envelope) == self.expected["load"][position]
        if not ok:
            _report_mismatch({"op": "load", "name": name},
                             json.dumps(envelope).encode())
        self._count(ok)

    def _count(self, ok: bool) -> None:
        with self.lock:
            self.attempted += 1
            self.failed += not ok


def _report_mismatch(payload: Dict[str, Any], raw: bytes) -> None:
    """One line on standard error per wrong answer, for the run's log."""
    print(f"perfbench: wrong answer to {json.dumps(payload)[:300]}: "
          f"{raw[:500]!r}", file=sys.stderr, flush=True)


def _send(connection: Connection, line: bytes, retries: List[int]) -> bytes:
    """One request, resent with backoff while the answer is retryable."""
    for attempt in range(6):
        raw = connection.roundtrip(line)
        if b'"error_code"' not in raw \
                or json.loads(raw).get("error_code") not in RETRYABLE:
            return raw
        retries[0] += 1
        time.sleep(0.005 * (2 ** attempt))
    return raw


def _run_threads(target, count: int) -> None:
    errors: List[BaseException] = []

    def guarded(index: int) -> None:
        try:
            target(index)
        except BaseException as error:  # re-raised in the caller below
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(index,))
               for index in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def set_up(script: Script, checker: Checker, directory: str,
           tag: str) -> Tuple[Server, float]:
    """Start a server, load the corpus, send every scripted request once."""
    started = time.perf_counter()
    server = Server(directory, tag)
    encoded = script.lines()
    retries = [0]

    def warm(connection_index: int) -> None:
        connection = server.connections[connection_index]
        for position, (name, source) in enumerate(script.modules):
            if script.loader[position] == connection_index:
                raw = _send(connection, (json.dumps(_request(
                    "load", name=name, source=source)) + "\n").encode(), retries)
                checker.check_load(position, json.loads(raw))
        for index in script.warmup[connection_index]:
            checker.check(index, _send(connection, encoded[index], retries))

    try:
        _run_threads(warm, CONNECTIONS)
    except BaseException:
        server.kill()
        raise
    return server, time.perf_counter() - started


@dataclass
class Timed:
    """What the closed-loop phase observed."""

    latencies_ms: List[float] = field(default_factory=list)
    #: Each scripted request's median latency across the cycles (one
    #: entry per connection and cycle position that ran at least once).
    position_medians_ms: List[float] = field(default_factory=list)
    edit_latencies_ms: List[float] = field(default_factory=list)
    cycle_seconds: List[float] = field(default_factory=list)
    elapsed: float = 0.0
    retries: int = 0


def closed_loop(server: Server, script: Script, checker: Checker,
                seconds: Optional[float], cycles: int = 0) -> Timed:
    """Each connection replays its cycle until ``seconds`` pass (or, with
    ``seconds`` None, exactly ``cycles`` times)."""
    encoded = script.lines()
    is_edit = [payload["op"] == "edit" for payload in script.requests]
    timed = Timed()
    per_thread = [Timed() for _ in range(CONNECTIONS)]
    by_position = [[[] for _ in cycle] for cycle in script.cycles]
    clock = time.perf_counter
    started = clock()
    deadline = started + seconds if seconds is not None else None

    def drive(connection_index: int) -> None:
        connection = server.connections[connection_index]
        cycle = script.cycles[connection_index]
        mine = per_thread[connection_index]
        retries = [0]
        done = 0
        while True:
            cycle_started = clock()
            for position, index in enumerate(cycle):
                if deadline is not None and clock() >= deadline:
                    mine.retries = retries[0]
                    return
                sent = clock()
                raw = _send(connection, encoded[index], retries)
                latency = (clock() - sent) * 1e3
                mine.latencies_ms.append(latency)
                by_position[connection_index][position].append(latency)
                if is_edit[index]:
                    mine.edit_latencies_ms.append(latency)
                checker.check(index, raw)
            mine.cycle_seconds.append(clock() - cycle_started)
            done += 1
            if deadline is None and done >= cycles:
                mine.retries = retries[0]
                return

    _run_threads(drive, CONNECTIONS)
    timed.elapsed = clock() - started
    for mine in per_thread:
        timed.latencies_ms += mine.latencies_ms
        timed.edit_latencies_ms += mine.edit_latencies_ms
        timed.cycle_seconds += mine.cycle_seconds
        timed.retries += mine.retries
    timed.position_medians_ms = [common.median(latencies)
                                 for positions in by_position
                                 for latencies in positions if latencies]
    return timed


# -- the workloads --------------------------------------------------------------

def _expected(workload: str, seed: int) -> Dict[str, Any]:
    expected = common.load_reference(workload).get(str(seed))
    return expected if expected is not None else reference_entry(workload, seed)


def _warm_imports() -> None:
    """Untimed: fill the bytecode cache an installed package already has."""
    subprocess.run([sys.executable, "-c",
                    "import repro.service.server, repro.service.session"],
                   env=common.child_env(), cwd=common.ROOT, check=True)


def run_untraced(workload: str, seed: int, seconds: float):
    script = make_script(workload, seed)
    checker = Checker(script, _expected(workload, seed))
    directory = common.work_dir(workload)
    _warm_imports()
    setups: List[float] = []
    server = None
    for attempt in range(SETUPS):
        if server is not None:
            server.stop()
        server, elapsed = set_up(script, checker, directory, str(attempt))
        setups.append(elapsed)
    try:
        timed = closed_loop(server, script, checker, seconds)
    finally:
        report = server.stop()
    metrics = {
        "setup_s": common.metric(common.median(setups), "s"),
        "wall_s": common.metric(common.median(timed.cycle_seconds), "s"),
        "req_per_s": common.metric(len(timed.latencies_ms) / timed.elapsed,
                                   "1/s"),
        "p50_ms": common.metric(
            common.percentile(timed.position_medians_ms, 50), "ms"),
        "p99_ms": common.metric(
            common.percentile(timed.position_medians_ms, 99), "ms"),
        "peak_rss_mb": common.metric(report.get("worker_peak_rss_mb", 0.0), "MB"),
    }
    return checker, metrics


def _shard_modules(script: Script) -> List[str]:
    """One resident module per shard (``stats`` reports that worker's store)."""
    from repro.service.pool import WorkerPool

    pool = WorkerPool(workers=WORKERS)
    chosen: Dict[int, str] = {}
    for name, _ in script.modules:
        chosen.setdefault(pool.shard_of(name), name)
    return [chosen[shard] for shard in sorted(chosen)]


def _snapshot(server: Server, script: Script) -> Dict[str, Any]:
    stores = [server.request(_request("stats", module=name)).get("store", {})
              for name in _shard_modules(script)]
    modules = {}
    for name, _ in script.modules:
        stats = server.request(_request("stats", module=name))
        modules[name] = {"steps": stats["solver_steps"],
                         "impacts": stats["incremental"]["impacts"]}
    return {"store": {key: sum(store.get(key, 0) for store in stores)
                      for key in ("hits", "misses", "writes")},
            "modules": modules}


def _in_process_replay(script: Script, directory: str) -> Dict[str, float]:
    """The script through ``handle_payload`` on an identically warmed
    in-process session: the service's own cost without the socket path."""
    from repro.service.protocol import decode_line, encode_line, handle_payload
    from repro.service.session import AnalysisSession
    from repro.service.store import ResultStore
    from repro.symbolic import intern_table_size

    session = AnalysisSession(ResultStore(os.path.join(directory, "store-local")))
    for name, source in script.modules:
        handle_payload(session, _request("load", name=name, source=source))
    for requests in script.warmup:
        for index in requests:
            handle_payload(session, script.requests[index])
    before = intern_table_size()
    handle_us: List[float] = []
    codec_us: List[float] = []
    clock = time.perf_counter
    for cycle in script.cycles:
        for index in cycle:
            payload = script.requests[index]
            started = clock()
            envelope = handle_payload(session, payload)
            handled = clock()
            decode_line(encode_line(payload))
            decode_line(encode_line(envelope))
            codec_us.append((clock() - handled) * 1e6)
            handle_us.append((handled - started) * 1e6)
    return {"service.handle_payload_us": common.median(handle_us),
            "service.codec_us": common.median(codec_us),
            "symbolic.intern_growth": intern_table_size() - before}


def run_traced(workload: str, seed: int, seconds: float):
    import batch

    script = make_script(workload, seed)
    checker = Checker(script, _expected(workload, seed))
    directory = common.work_dir(workload)
    _warm_imports()

    corpus_path = os.path.join(directory, "corpus.json")
    with open(corpus_path, "w", encoding="utf-8") as handle:
        json.dump(script.modules, handle)
    passes = []
    for _ in range(2):
        for outcome in batch.run_round(corpus_path, True):
            if isinstance(outcome, batch.ChildFailed):
                raise outcome
            passes.append(outcome[1])
    values = batch.layer_values(passes)

    server, _ = set_up(script, checker, directory, "traced")
    try:
        before = _snapshot(server, script)
        fixed = closed_loop(server, script, checker, None, cycles=1)
        after = _snapshot(server, script)
        timed = closed_loop(server, script, checker, seconds)
    finally:
        report = server.stop()

    impacts = [impact for name in after["modules"]
               for impact in after["modules"][name]["impacts"][
                   len(before["modules"][name]["impacts"]):]]
    values.update({
        "engine.edit_steps": sum(after["modules"][name]["steps"]
                                 - before["modules"][name]["steps"]
                                 for name in after["modules"]),
        "engine.edit_reseeded": sum(sum(impact["reseeded"].values())
                                    for impact in impacts),
        "engine.edit_retained": sum(sum(impact["retained"].values())
                                    for impact in impacts),
        "service.store_hits": after["store"]["hits"] - before["store"]["hits"],
        "service.store_misses": after["store"]["misses"]
        - before["store"]["misses"],
        "service.store_writes": after["store"]["writes"]
        - before["store"]["writes"],
        "service.coalesced_batches": report.get("batches", 0),
        "service.coalesced_queries": report.get("batched_queries", 0),
        "service.retries": fixed.retries + timed.retries
        + report.get("retried_jobs", 0),
        "service.shed": report.get("shed", 0),
        "service.respawns": report.get("respawns", 0),
        "service.edit_p50_ms": common.percentile(timed.edit_latencies_ms, 50),
        "trace.p50_ms": common.percentile(timed.position_medians_ms, 50),
    })
    values.update(_in_process_replay(script, directory))
    values["service.plumbing_ms"] = values["trace.p50_ms"] - (
        values["service.handle_payload_us"] + values["service.codec_us"]) / 1e3
    return checker, values

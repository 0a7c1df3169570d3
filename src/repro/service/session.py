"""The in-process analysis session: resident modules + incremental edits.

This is the serving layer's core.  A session keeps compiled modules
*resident* — each with its own :class:`~repro.engine.manager.AnalysisManager`,
whose cached alias analyses keep their own bounded pair memos — so a stream
of alias/range queries pays the expensive analysis builds once, and a
*function edit* (:meth:`AnalysisSession.edit_source`) re-runs only the
analyses whose dependency cone the edit touches:

* the function-local analyses (symbolic ranges, LR, locations, basicaa
  caches, SCEV engines) are refreshed in place, re-solving only the
  edited function's nodes, and every alias analysis clears its pair memo;
* GR, the one fixed point an edit *re-seeds*, is refreshed in place
  through :meth:`SparseSolver.resolve_from`: the retained fixed point
  survives and only the edit's dependent cone is re-solved;
* the points-to baselines (Andersen, Steensgaard) rebuild in place with a
  cold solve of the edited module;
* the two clients (bounds, parallel loops) are evicted, since a report may
  depend on any function, and the next request rebuilds them from the
  refreshed inputs;
* only structural edits (a changed struct, global, function list or
  order, signature or prototype) fall back to a full reload.

The edit's frontend work is function-granular too.  Loads, edits and
reloads all compile through one sequence,
:func:`~repro.frontend.driver.compile_bodies`, and each compiled resident
keeps the scan it produced (:class:`~repro.frontend.stages.UnitScan`:
tokens, body spans, digests and each body's string-literal lengths).  An
edit scans again only the span of the new source that differs; the source
is parsed and analyzed except for the bodies outside that span, and
digested per function body
(:class:`~repro.frontend.stages.UnitDigests`: position-free token digests,
plus one context digest over structs, globals, prototypes, headers and
function order).  The candidates are the bodies whose digest differs from
the resident source's, or all of them when the context differs; only they
are lowered, prepared and printed, and comparing their printed IR with
the resident's decides ``changed`` exactly as a whole-module compile
would.  A structural edit changes the context, and a candidate whose
string-literal lengths changed renumbers or retypes ``.str.N`` globals;
either way the compile lowered every body and is the reloaded module.

A session may additionally be backed by a persistent content-addressed
:class:`~repro.service.store.ResultStore`.  Results are then keyed by the
module's ``source_sha256`` (plus protocol/generator versions), and a
module whose load metadata is already stored stays **lazy** — source held,
nothing compiled — until a store miss forces materialisation.  That is
what lets a restarted server with a warm store answer its first query
without re-running the compile-and-bootstrap path (its solver-step counter
stays at zero).

Everything here is deterministic: responses are pure functions of the load
and edit history, independent of wall time and ``PYTHONHASHSEED``, so a
replay against a cold rebuild must produce byte-identical outcomes (the
service determinism test enforces this).  Store hits return exactly the
bytes a computation would produce — warmth never changes answers.

The session raises :class:`~repro.service.protocol.ServiceError` with the
protocol's stable error codes; the transports
(:mod:`repro.service.daemon`, :mod:`repro.service.server`) turn those into
structured error envelopes via :func:`repro.service.protocol.handle_payload`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..aliases.base import AliasAnalysis
from ..aliases.results import AliasResult, MemoryAccess
from ..benchgen import SUITE_PROGRAMS, generate_source, source_digest
from ..engine import keys
from ..engine.manager import AnalysisKey, AnalysisManager, ManagerStatistics
from ..frontend import BodyCompile, UnitScan, compile_bodies
from ..frontend.cparser import ParseError
from ..frontend.lexer import LexerError
from ..frontend.lowering import LoweringError
from ..frontend.sema import SemanticError
from ..ir.function import Function
from ..ir.module import Module
from ..ir.printer import print_function
from ..ir.values import Value
from ..symbolic import compare_memo_stats
from ..evaluation.harness import enumerate_query_pairs
from .protocol import (
    BAD_REQUEST,
    DEFAULT_SIZE,
    EDIT_REJECTED,
    OPS,
    UNKNOWN_ANALYSIS,
    UNKNOWN_FUNCTION,
    UNKNOWN_MODULE,
    UNKNOWN_SIZE,
    UNKNOWN_VALUE,
    ServiceError,
)
from .store import ResultStore, StoredRead

__all__ = ["ANALYSIS_KEYS", "AnalysisSession", "ResidentModule", "ServiceError",
           "UNKNOWN_SIZE"]

#: Protocol analysis names → engine keys.
ANALYSIS_KEYS: Dict[str, AnalysisKey] = {
    "rbaa": keys.RBAA,
    "basic": keys.BASIC,
    "andersen": keys.ANDERSEN,
    "steensgaard": keys.STEENSGAARD,
    "scev": keys.SCEV,
}

#: Exceptions the frontend raises on malformed sources.
_COMPILE_ERRORS = (LexerError, ParseError, SemanticError, LoweringError)


def _solver_steps_of(analysis: Any) -> int:
    """Hardware-independent cost of one cached analysis, in solver steps."""
    statistics = getattr(analysis, "solver_statistics", None)
    return getattr(statistics, "steps", 0) or 0


@dataclass
class ResidentModule:
    """One module held resident by a session.

    A resident is *lazy* while ``module``/``manager`` are ``None``: the
    source (and its digest) are held, but nothing has been compiled —
    store-backed sessions stay in that state for as long as every request
    is answerable from the content-addressed store.
    """

    name: str
    source: str
    module: Optional[Module] = None
    manager: Optional[AnalysisManager] = None
    #: ``sha256`` of ``source`` — the store's content address.
    digest: str = ""
    #: Load metadata (function names, instruction count), cached so lazy
    #: residents can answer ``load``/``modules`` without compiling.
    meta: Optional[Dict[str, Any]] = None
    edits: int = 0
    #: ``EditImpact.as_dict()`` records, newest last.
    impacts: List[Dict[str, Any]] = field(default_factory=list)
    #: The scan of ``source`` (tokens, body spans, digests) the next edit
    #: starts from; set whenever ``module`` is.
    scan: Optional[UnitScan] = None
    #: function name -> value name -> value (invalidated per edit).
    _value_index: Dict[str, Dict[str, Value]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.digest:
            self.digest = source_digest(self.source)

    @property
    def materialized(self) -> bool:
        return self.module is not None

    def solver_steps(self) -> int:
        """Total solver steps this module has cost the session so far: the
        sum over every cached analysis, whose statistics accumulate across
        incremental refreshes.  An edit evicts only analyses that run no
        solver (the two clients), so no step is ever dropped with an entry.
        A lazy resident has cost nothing — that zero is the warm-store
        acceptance signal."""
        if self.manager is None:
            return 0
        return sum(_solver_steps_of(value)
                   for value in self.manager.cached_values())

    def solver_steps_by_analysis(self) -> Dict[str, int]:
        """Per-analysis solver-step totals of the cached analyses, name-sorted.

        The loadtest edit replay reads GR's total out of this to gate the
        incremental-interprocedural path: after an edit, the GR re-seed must
        have cost strictly fewer steps than the cold fixed point it
        replaced."""
        totals: Dict[str, int] = {}
        if self.manager is not None:
            for name, value in self.manager.cached_items():
                steps = _solver_steps_of(value)
                if steps:
                    totals[name] = totals.get(name, 0) + steps
        return dict(sorted(totals.items()))

    # -- name resolution -------------------------------------------------------
    def function(self, name: str) -> Function:
        function = self.module.get_function(name)
        if function is None or function.is_declaration():
            raise ServiceError(f"no function @{name} in module {self.name!r}",
                               UNKNOWN_FUNCTION)
        return function

    def value(self, function_name: str, value_name: str) -> Value:
        index = self._value_index.get(function_name)
        if index is None:
            function = self.function(function_name)
            index = {}
            for argument in function.args:
                index[argument.name] = argument
            for inst in function.instructions():
                if inst.name:
                    index[inst.name] = inst
            self._value_index[function_name] = index
        value = index.get(value_name)
        if value is None:
            raise ServiceError(
                f"no value %{value_name} in @{function_name} "
                f"of module {self.name!r}", UNKNOWN_VALUE)
        return value

    def drop_value_index(self, function_name: str) -> None:
        self._value_index.pop(function_name, None)


class AnalysisSession:
    """Holds modules resident and answers queries with warm analysis state."""

    def __init__(self, store: Optional[ResultStore] = None) -> None:
        self._modules: Dict[str, ResidentModule] = {}
        self.store = store

    # -- module lifecycle ------------------------------------------------------
    def _resident(self, name: str) -> ResidentModule:
        resident = self._modules.get(name)
        if resident is None:
            raise ServiceError(f"no resident module {name!r}", UNKNOWN_MODULE)
        return resident

    @staticmethod
    def _compile(source: str, name: str, code: str,
                 previous: Optional[UnitScan] = None) -> BodyCompile:
        try:
            return compile_bodies(source, name, previous)
        except _COMPILE_ERRORS as error:
            raise ServiceError(
                f"compiling module {name!r} failed: "
                f"{type(error).__name__}: {error}", code) from error

    def _materialize(self, resident: ResidentModule) -> None:
        """Compile a lazy resident's held source and warm up its manager."""
        if resident.module is not None:
            return
        compiled = self._compile(resident.source, resident.name, BAD_REQUEST)
        resident.module, resident.scan = compiled.module, compiled.scan
        resident.manager = AnalysisManager(resident.module)

    @staticmethod
    def _meta_of(module: Module) -> Dict[str, Any]:
        return {"functions": [fn.name for fn in module.defined_functions()],
                "instructions": module.instruction_count()}

    def load_source(self, name: str, source: str) -> Dict[str, Any]:
        """Compile ``source`` and make it resident (replacing any same name).

        With a warm store the compile is skipped entirely: the module stays
        lazy on its held source until a store miss needs the IR.
        """
        digest = source_digest(source)
        if self.store is not None:
            meta = self.store.get(self.store.key(digest, "load"))
            if isinstance(meta, dict):
                resident = ResidentModule(name=name, source=source,
                                          digest=digest, meta=dict(meta))
                self._modules[name] = resident
                return {"module": name, **meta}
        return self._install(name, source, digest,
                             self._compile(source, name, BAD_REQUEST))

    def _install(self, name: str, source: str, digest: str,
                 compiled: BodyCompile) -> Dict[str, Any]:
        """Make a whole-unit compile of ``source`` resident, as a load."""
        module = compiled.module
        meta = self._meta_of(module)
        self._modules[name] = ResidentModule(
            name=name, source=source, module=module,
            manager=AnalysisManager(module), digest=digest, meta=dict(meta),
            scan=compiled.scan)
        if self.store is not None:
            # An address already stored holds these very bytes.
            self.store.put_new(self.store.key(digest, "load"), meta)
        return {"module": name, **meta}

    def load_program(self, name: str) -> Dict[str, Any]:
        """Generate, compile and make resident one named suite program."""
        programs = {program.name: program for program in SUITE_PROGRAMS}
        if name not in programs:
            raise ServiceError(f"unknown suite program {name!r} "
                               f"(expected one of {sorted(programs)})")
        return self.load_source(name,
                                generate_source(programs[name].config()))

    def unload(self, name: str) -> Dict[str, Any]:
        self._resident(name)
        del self._modules[name]
        if self.store is not None:
            self.store.note_bypass()
        return {"module": name, "unloaded": True}

    def modules(self) -> List[Dict[str, Any]]:
        if self.store is not None:
            self.store.note_bypass()
        listing = []
        for name, resident in sorted(self._modules.items()):
            functions = len(resident.meta["functions"]) if resident.meta \
                else len(resident.module.defined_functions())
            listing.append({"module": resident.name,
                            "functions": functions,
                            "edits": resident.edits,
                            "solver_steps": resident.solver_steps()})
        return listing

    # -- incremental edits -----------------------------------------------------
    def edit_source(self, name: str, source: str) -> Dict[str, Any]:
        """Apply an edited source to a resident module.

        A lazy resident is materialised first, which also scans its held
        source.  The new source is compiled against the resident's kept
        scan (:func:`~repro.frontend.driver.compile_bodies`): only the span
        that differs is scanned again, the source is parsed and analyzed
        except for the bodies outside that span, and digested per function
        body.
        The *candidates* are the bodies whose digest differs from the
        resident source's, or every body when the context digest (structs,
        globals, prototypes, headers and function order) differs.  Only the
        candidates are lowered and prepared, and comparing their printed IR
        with the resident's decides which functions ``changed``.

        Each changed function is grafted via ``Module.replace_function``
        and the manager re-runs only what the edit invalidated.  Anything
        the function-granular contract cannot express (a changed struct,
        global, function set, function order or signature, or a candidate
        whose string-literal lengths changed, which renumbers or retypes
        ``.str.N`` globals) made the compile lower every body: its module
        replaces the resident as a fresh load of the new source would, and
        the response says ``reloaded``.  A source the frontend rejects yields an
        ``edit_rejected`` error and leaves the resident module untouched
        (a lazy one materialised).
        """
        resident = self._resident(name)
        if self.store is not None:
            self.store.note_bypass()
        if source == resident.source:
            return {"module": name, "changed": [], "reloaded": False,
                    "impacts": []}
        self._materialize(resident)
        compiled = self._compile(source, name, EDIT_REJECTED, resident.scan)
        changed = self._diff_functions(resident.module, compiled)
        if changed is None:
            result = self._install(name, source, source_digest(source),
                                   compiled)
            result.update({"changed": [], "reloaded": True, "impacts": []})
            return result

        impacts: List[Dict[str, Any]] = []
        for function_name in changed:
            replacement = compiled.module.get_function(function_name)
            old = resident.module.replace_function(replacement)
            impact = resident.manager.apply_function_edit(old, replacement)
            impacts.append(impact.as_dict())
            resident.impacts.append(impact.as_dict())
            resident.drop_value_index(function_name)
        resident.source = source
        resident.digest = source_digest(source)
        resident.scan = compiled.scan
        resident.meta = self._meta_of(resident.module)
        if self.store is not None:
            # Register the new content address: a restarted server loading
            # the edited source stays lazy, exactly like a fresh load would.
            # An address already stored holds these very bytes.
            self.store.put_new(self.store.key(resident.digest, "load"),
                               resident.meta)
        resident.edits += len(changed)
        return {"module": name, "changed": changed, "reloaded": False,
                "impacts": impacts}

    @staticmethod
    def _diff_functions(current: Module,
                        compiled: BodyCompile) -> Optional[List[str]]:
        """Names of recompiled functions whose printed IR changed, in module
        order.

        ``None`` means the edit is not function-granular and needs a full
        reload: the structs, the globals (names, types, order), the function
        list (names, order, signatures, which are defined) or a prototype's
        parameter names changed.  Whether a function is defined is read from
        the scan, because every skipped body is empty in the skeleton.
        """
        skeleton = compiled.module
        if list(current.struct_types.items()) != \
                list(skeleton.struct_types.items()):
            return None
        if [(g.name, g.value_type) for g in current.globals] != \
                [(g.name, g.value_type) for g in skeleton.globals]:
            return None
        if len(current.functions) != len(skeleton.functions):
            return None
        for old, new in zip(current.functions, skeleton.functions):
            if old.name != new.name or old.function_type != new.function_type:
                return None
            defined = new.name in compiled.scan.digests.bodies
            if old.is_declaration() == defined:
                return None
            if not defined and \
                    [arg.name for arg in old.args] != [arg.name for arg in new.args]:
                return None
        return [function_name for function_name in compiled.bodies
                if print_function(skeleton.get_function(function_name))
                != print_function(current.get_function(function_name))]

    # -- queries ---------------------------------------------------------------
    def _require_analysis(self, name: str) -> AnalysisKey:
        key = ANALYSIS_KEYS.get(name)
        if key is None:
            raise ServiceError(
                f"unknown analysis {name!r} "
                f"(expected one of {sorted(ANALYSIS_KEYS)})", UNKNOWN_ANALYSIS)
        return key

    def _analysis(self, resident: ResidentModule, name: str) -> AliasAnalysis:
        return resident.manager.get(self._require_analysis(name))

    @staticmethod
    def _access(resident: ResidentModule, function_name: str,
                value_name: str, size: Any = DEFAULT_SIZE) -> MemoryAccess:
        pointer = resident.value(function_name, value_name)
        if not pointer.is_pointer():
            raise ServiceError(f"%{value_name} is not a pointer")
        if size is DEFAULT_SIZE:
            return MemoryAccess.of(pointer)
        if size is None:
            return MemoryAccess.unknown_extent(pointer)
        return MemoryAccess.of(pointer, int(size))

    def _answer(self, resident: ResidentModule, read: StoredRead,
                compute: Callable[[List[int]], List[Any]]) -> Dict[str, Any]:
        """``read``'s response, through the content-addressed store.

        Stored values are used where the store has them; ``compute`` gets
        the indices of the missing ones and returns their values, which
        are then stored.
        """
        if self.store is None:
            return read.respond(compute(list(range(len(read.parts)))))
        store_keys = read.keys(self.store, resident.digest)
        values = read.lookup(self.store, store_keys)
        missing = [index for index, value in enumerate(values)
                   if value is None]
        if missing:
            for index, value in zip(missing, compute(missing)):
                values[index] = value
                self.store.put(store_keys[index], value)
        return read.respond(values)

    def _pairs(self, resident: ResidentModule, read: StoredRead,
               analysis: str, function: str,
               pairs: Sequence[Tuple[str, str, Any, Any]]) -> Dict[str, Any]:
        """Alias verdicts for normalised ``(a, b, size_a, size_b)`` pairs.

        Pairs are stored one by one (not per batch), so the shape of the
        batch a pair arrived in never changes which answers a warm store
        can address.  Only the missing pairs touch the engine.
        """
        def compute(missing: List[int]) -> List[str]:
            self._materialize(resident)
            engine = self._analysis(resident, analysis)
            accesses = []
            for index in missing:
                a, b, size_a, size_b = pairs[index]
                accesses.append((self._access(resident, function, a, size_a),
                                 self._access(resident, function, b, size_b)))
            return [str(answer) for answer in engine.query_many(accesses)]

        return self._answer(resident, read, compute)

    def query(self, module: str, analysis: str, function: str,
              a: str, b: str, size_a: Any = DEFAULT_SIZE,
              size_b: Any = DEFAULT_SIZE) -> Dict[str, Any]:
        """One alias query between two named SSA values of one function.

        Sizes are normalised (``DEFAULT_SIZE``, ``None`` for unknown, or a
        byte count) — see :func:`repro.service.protocol.coerce_size`.
        """
        resident = self._resident(module)
        self._require_analysis(analysis)
        read = StoredRead.of(OPS["query"], {
            "module": module, "analysis": analysis, "function": function,
            "a": a, "b": b, "size_a": size_a, "size_b": size_b})
        return self._pairs(resident, read, analysis, function,
                           [(a, b, size_a, size_b)])

    def query_many(self, module: str, analysis: str, function: str,
                   pairs: Sequence[Tuple[str, str, Any, Any]]) -> Dict[str, Any]:
        """A batch of queries over normalised ``(a, b, size_a, size_b)``
        pairs (the protocol's ``pairs`` field kind produces them)."""
        resident = self._resident(module)
        self._require_analysis(analysis)
        read = StoredRead.of(OPS["query_many"], {
            "module": module, "analysis": analysis, "function": function,
            "pairs": pairs})
        return self._pairs(resident, read, analysis, function, pairs)

    def query_function(self, module: str, analysis: str,
                       function: Optional[str] = None,
                       max_pairs: Optional[int] = None) -> Dict[str, Any]:
        """Run the harness pair enumeration (one function or the whole
        module) through the analysis, returning per-function no-alias lists.

        The response is a pure function of the module state — the index
        lists make warm-vs-cold equivalence checkable byte for byte.
        """
        resident = self._resident(module)
        self._require_analysis(analysis)

        def compute(_: List[int]) -> List[Dict[str, Any]]:
            self._materialize(resident)
            engine = self._analysis(resident, analysis)
            targets = None if function is None \
                else [resident.function(function)]
            pairs = list(enumerate_query_pairs(resident.module, max_pairs,
                                               functions=targets))
            results = engine.query_many([(pair.a, pair.b) for pair in pairs])
            no_alias = [index for index, result in enumerate(results)
                        if result is AliasResult.NO_ALIAS]
            return [{"queries": len(pairs), "no_alias": len(no_alias),
                     "no_alias_indices": no_alias}]

        read = StoredRead.of(OPS["query_function"], {
            "module": module, "analysis": analysis, "function": function,
            "max_pairs": max_pairs})
        return self._answer(resident, read, compute)

    def check_bounds(self, module: str,
                     function: Optional[str] = None) -> Dict[str, Any]:
        """The out-of-bounds client's verdict report (whole module or one
        function): per-access ``safe`` / ``maybe-oob`` / ``definitely-oob``
        classifications."""
        return self._client_report(module, function, "check_bounds",
                                   keys.BOUNDS)

    def parallel_loops(self, module: str,
                       function: Optional[str] = None) -> Dict[str, Any]:
        """The loop-parallelization client's report (whole module or one
        function): per-loop parallelizability with the first blocking
        reason."""
        return self._client_report(module, function, "parallel_loops",
                                   keys.PARALLEL)

    def _client_report(self, module: str, function: Optional[str],
                       op: str, key: AnalysisKey) -> Dict[str, Any]:
        """One client analysis's ``module_report``, addressed in the result
        store like every other deterministic response."""
        resident = self._resident(module)

        def compute(_: List[int]) -> List[Dict[str, Any]]:
            self._materialize(resident)
            if function is not None:
                resident.function(function)
            return [resident.manager.get(key).module_report(function)]

        read = StoredRead.of(OPS[op], {"module": module, "function": function})
        return self._answer(resident, read, compute)

    def values(self, module: str, function: str) -> Dict[str, Any]:
        """The queryable SSA values of one function (name discovery).

        Source-level variable names do not survive the preparation pipeline
        (mem2reg renames into SSA), so clients list a function's values —
        with their defining opcode and pointerness — before addressing
        queries at them.
        """
        resident = self._resident(module)

        def compute(_: List[int]) -> List[List[Dict[str, Any]]]:
            self._materialize(resident)
            target = resident.function(function)
            listed: List[Dict[str, Any]] = []
            for argument in target.args:
                listed.append({"name": argument.name, "op": "argument",
                               "pointer": argument.is_pointer()})
            for inst in target.instructions():
                if inst.name:
                    listed.append({"name": inst.name, "op": inst.opcode,
                                   "pointer": inst.is_pointer()})
            return [listed]

        read = StoredRead.of(OPS["values"],
                             {"module": module, "function": function})
        return self._answer(resident, read, compute)

    def range_of(self, module: str, function: str, value: str) -> Dict[str, Any]:
        """The symbolic interval of one named integer SSA value."""
        resident = self._resident(module)

        def compute(_: List[int]) -> List[str]:
            self._materialize(resident)
            ranges = resident.manager.get(keys.RANGES)
            target = resident.value(function, value)
            return [repr(ranges.range_of(target))]

        read = StoredRead.of(OPS["range"], {
            "module": module, "function": function, "value": value})
        return self._answer(resident, read, compute)

    # -- statistics ------------------------------------------------------------
    def stats(self, module: str) -> Dict[str, Any]:
        """Deterministic cost/result counters for one resident module.

        A lazy (never-materialised) resident reports zero solver steps and
        empty engine counters — exactly the signal the warm-store
        acceptance gate reads.
        """
        resident = self._resident(module)
        manager = resident.manager
        engine_stats = manager.statistics.as_dict() if manager is not None \
            else ManagerStatistics().as_dict()
        record: Dict[str, Any] = {
            "module": module,
            "edits": resident.edits,
            "materialized": resident.materialized,
            "solver_steps": resident.solver_steps(),
            "solver_steps_by_analysis": resident.solver_steps_by_analysis(),
            # Per-edit incremental telemetry: every applied edit's impact
            # record (refresh-vs-evict decision per analysis, re-seeded node
            # counts, retained-state sizes).  Counts and names only — the
            # records are deterministic and survive strip_volatile.
            "incremental": {"impacts": list(resident.impacts)},
            "engine": engine_stats,
            "memos": self._pair_memo_stats(manager),
            # The symbolic order-layer memo caches are process-global (they
            # key on interned expression identities); surfaced here so a
            # daemon operator can watch their hit rates and evictions.
            "symbolic_caches": compare_memo_stats(),
        }
        if self.store is not None:
            self.store.note_bypass()
            record["store"] = self.store.stats()
        rbaa = manager.cached(keys.RBAA) if manager is not None else None
        if rbaa is not None:
            statistics = rbaa.statistics
            record["figure14"] = {
                "queries": statistics.queries,
                "no_alias": statistics.no_alias,
                "answered_by_global": statistics.answered_by_global,
                "answered_by_local": statistics.answered_by_local,
                "answered_by_distinct_objects":
                    statistics.answered_by_distinct_objects,
            }
        return record

    @staticmethod
    def _pair_memo_stats(manager: Optional[AnalysisManager]
                         ) -> Dict[str, Dict[str, int]]:
        """Each cached alias analysis's pair-memo counters, by name."""
        memos: Dict[str, Dict[str, int]] = {}
        for name, key in sorted(ANALYSIS_KEYS.items()):
            analysis = manager.cached(key) if manager is not None else None
            if analysis is not None:
                memo = analysis.pair_memo
                memos[name] = {"hits": memo.hits, "misses": memo.misses,
                               "evictions": memo.evictions, "size": len(memo),
                               "max_payloads": memo.maxsize}
        return memos

    def solver_steps(self, module: str) -> int:
        return self._resident(module).solver_steps()

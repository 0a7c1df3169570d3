"""The in-process analysis session: resident modules + incremental edits.

This is the serving layer's core.  A session keeps compiled modules
*resident* — each with its own :class:`~repro.engine.manager.AnalysisManager`,
whose cached alias analyses keep their own bounded pair memos — so a stream
of alias/range queries pays the expensive analysis builds once, and a
*function edit* (:meth:`AnalysisSession.edit_source`) re-runs only the
analyses whose dependency cone the edit touches:

* the function-local analyses (symbolic ranges, LR, locations, basicaa
  caches, SCEV engines, RBAA) are refreshed in place, re-solving only the
  edited function's nodes, and every alias analysis clears its pair memo;
* the interprocedural fixed points (GR, Andersen, Steensgaard) are
  *re-seeded* in place through :meth:`SparseSolver.resolve_from`: the
  retained fixed point survives and only the edit's dependent cone is
  re-solved (Steensgaard, whose unification is not retractable, re-applies
  every constraint but still routes through the same entry point);
* only structural edits (a changed struct, global, function list or
  order, signature or prototype) fall back to a full reload.

The edit's frontend work is function-granular too.  The new source is
scanned, parsed and analyzed whole, and digested per function body
(:class:`~repro.frontend.stages.UnitDigests`: position-free token digests,
plus one context digest over structs, globals, prototypes, headers,
function order and string-literal counts).  The candidates are the bodies
whose digest differs from the resident source's, or all of them when the
context differs; only they are lowered, prepared and printed
(:func:`~repro.frontend.driver.compile_bodies`), and comparing their
printed IR with the resident's decides ``changed`` exactly as a
whole-module compile would.  Loads still run
:func:`~repro.frontend.driver.compile_source` unchanged.

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
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..aliases.base import AliasAnalysis
from ..aliases.results import AliasResult, MemoryAccess
from ..benchgen import SUITE_PROGRAMS, build_program, source_digest
from ..engine import keys
from ..engine.manager import AnalysisKey, AnalysisManager, ManagerStatistics
from ..frontend import (BodyCompile, UnitDigests, compile_bodies,
                        compile_source, parse_unit)
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
    UNKNOWN_ANALYSIS,
    UNKNOWN_FUNCTION,
    UNKNOWN_MODULE,
    UNKNOWN_SIZE,
    UNKNOWN_VALUE,
    ServiceError,
    encode_size,
)
from .store import ResultStore

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
    #: Body and context digests of ``source``, computed on the first edit.
    unit_digests: Optional[UnitDigests] = None
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
        solver (the call graph), so no step is ever dropped with an entry.
        A lazy resident has cost nothing — that zero is the warm-store
        acceptance signal."""
        if self.manager is None:
            return 0
        return sum(_solver_steps_of(value)
                   for value in self.manager.cached_values())

    def solver_steps_by_analysis(self) -> Dict[str, int]:
        """Per-analysis solver-step totals of the cached analyses, name-sorted.

        The loadtest edit replay sums the interprocedural names out of this to
        gate the incremental-interprocedural path: after an edit, the GR /
        Andersen / Steensgaard re-seeds must have cost strictly fewer steps
        than the cold fixed points they replaced."""
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
    def _compile(source: str, name: str, code: str) -> Module:
        try:
            return compile_source(source, name)
        except _COMPILE_ERRORS as error:
            raise ServiceError(
                f"compiling module {name!r} failed: "
                f"{type(error).__name__}: {error}", code) from error

    def _materialize(self, resident: ResidentModule) -> None:
        """Compile a lazy resident's held source and warm up its manager."""
        if resident.module is not None:
            return
        resident.module = self._compile(resident.source, resident.name,
                                        BAD_REQUEST)
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
        module = self._compile(source, name, BAD_REQUEST)
        meta = self._meta_of(module)
        resident = ResidentModule(name=name, source=source, module=module,
                                  manager=AnalysisManager(module),
                                  digest=digest, meta=dict(meta))
        self._modules[name] = resident
        if self.store is not None:
            self.store.put(self.store.key(digest, "load"), meta)
        return {"module": name, **meta}

    def load_program(self, name: str) -> Dict[str, Any]:
        """Generate, compile and make resident one named suite program."""
        known = sorted(program.name for program in SUITE_PROGRAMS)
        if name not in known:
            raise ServiceError(f"unknown suite program {name!r} "
                               f"(expected one of {known})")
        return self.load_source(name, build_program(name).source)

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

        The new source is scanned, parsed and analyzed whole, and digested
        per function body (:func:`~repro.frontend.stages.parse_unit`).  The
        *candidates* are the bodies whose digest differs from the resident
        source's, or every body when the context digest (structs, globals,
        prototypes, headers, function order and string-literal counts)
        differs.  Only the candidates are lowered and prepared
        (:func:`~repro.frontend.driver.compile_bodies`), and comparing their
        printed IR with the resident's decides which functions ``changed``.

        Each changed function is grafted via ``Module.replace_function``
        and the manager re-runs only what the edit invalidated.  Anything
        the function-granular contract cannot express (a changed struct,
        global, function set, function order or signature) falls back to a
        full reload and says so in the response.  A source the frontend
        rejects yields an ``edit_rejected`` error and leaves the resident
        module untouched.
        """
        resident = self._resident(name)
        if self.store is not None:
            self.store.note_bypass()
        if source == resident.source:
            return {"module": name, "changed": [], "reloaded": False,
                    "impacts": []}
        if resident.unit_digests is None:
            resident.unit_digests = parse_unit(resident.source)[2]
        try:
            compiled = compile_bodies(source, name, resident.unit_digests)
        except _COMPILE_ERRORS as error:
            raise ServiceError(
                f"compiling module {name!r} failed: "
                f"{type(error).__name__}: {error}", EDIT_REJECTED) from error
        self._materialize(resident)
        changed = self._diff_functions(resident.module, compiled)
        if changed is None:
            result = self.load_source(name, source)
            self._modules[name].unit_digests = compiled.digests
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
        resident.unit_digests = compiled.digests
        resident.meta = self._meta_of(resident.module)
        if self.store is not None:
            # Register the new content address: a restarted server loading
            # the edited source stays lazy, exactly like a fresh load would.
            self.store.put(self.store.key(resident.digest, "load"),
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
        the unit, because every skipped body is empty in the skeleton.
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
            defined = compiled.info.function_decls[new.name].body is not None
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

    def _stored(self, resident: ResidentModule, kind: str, parts: Any,
                compute, expected: type):
        """Serve one deterministic result through the content-addressed store."""
        if self.store is None:
            return compute()
        key = self.store.key(resident.digest, kind, parts)
        cached = self.store.get(key)
        if isinstance(cached, expected):
            return cached
        value = compute()
        self.store.put(key, value)
        return value

    def _pair_results(self, resident: ResidentModule, analysis: str,
                      function: str,
                      pairs: Sequence[Tuple[str, str, Any, Any]]) -> List[str]:
        """Alias verdicts for normalised ``(a, b, size_a, size_b)`` pairs.

        Pairs are stored one by one (not per batch), so the shape of the
        batch a pair arrived in never changes which answers a warm store
        can address.  Only the missing pairs touch the engine.
        """
        results: List[Optional[str]] = [None] * len(pairs)
        store_keys: List[Optional[str]] = [None] * len(pairs)
        if self.store is not None:
            for index, (a, b, size_a, size_b) in enumerate(pairs):
                key = self.store.key(
                    resident.digest, "pair",
                    [analysis, function, a, b,
                     encode_size(size_a), encode_size(size_b)])
                store_keys[index] = key
                cached = self.store.get(key)
                if isinstance(cached, str):
                    results[index] = cached
        missing = [index for index, result in enumerate(results)
                   if result is None]
        if missing:
            self._materialize(resident)
            engine = self._analysis(resident, analysis)
            accesses = []
            for index in missing:
                a, b, size_a, size_b = pairs[index]
                accesses.append((self._access(resident, function, a, size_a),
                                 self._access(resident, function, b, size_b)))
            answers = engine.query_many(accesses)
            for index, answer in zip(missing, answers):
                results[index] = str(answer)
                if self.store is not None:
                    self.store.put(store_keys[index], results[index])
        return results  # type: ignore[return-value]

    def query(self, module: str, analysis: str, function: str,
              a: str, b: str, size_a: Any = DEFAULT_SIZE,
              size_b: Any = DEFAULT_SIZE) -> Dict[str, Any]:
        """One alias query between two named SSA values of one function.

        Sizes are normalised (``DEFAULT_SIZE``, ``None`` for unknown, or a
        byte count) — see :func:`repro.service.protocol.coerce_size`.
        """
        resident = self._resident(module)
        self._require_analysis(analysis)
        result = self._pair_results(resident, analysis, function,
                                    [(a, b, size_a, size_b)])[0]
        return {"module": module, "analysis": analysis, "function": function,
                "a": a, "b": b, "result": result}

    def query_many(self, module: str, analysis: str, function: str,
                   pairs: Sequence[Tuple[str, str, Any, Any]]) -> Dict[str, Any]:
        """A batch of queries over normalised ``(a, b, size_a, size_b)``
        pairs (the protocol's ``pairs`` field kind produces them)."""
        resident = self._resident(module)
        self._require_analysis(analysis)
        results = self._pair_results(resident, analysis, function, pairs)
        return {"module": module, "analysis": analysis, "function": function,
                "results": results}

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

        def compute() -> Dict[str, Any]:
            self._materialize(resident)
            engine = self._analysis(resident, analysis)
            targets = None if function is None \
                else [resident.function(function)]
            pairs = list(enumerate_query_pairs(resident.module, max_pairs,
                                               functions=targets))
            results = engine.query_many([(pair.a, pair.b) for pair in pairs])
            no_alias = [index for index, result in enumerate(results)
                        if result is AliasResult.NO_ALIAS]
            return {"queries": len(pairs), "no_alias": len(no_alias),
                    "no_alias_indices": no_alias}

        core = self._stored(resident, "query_function",
                            [analysis, function, max_pairs], compute, dict)
        return {"module": module, "analysis": analysis,
                "function": function, **core}

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
                       kind: str, key: AnalysisKey) -> Dict[str, Any]:
        """One client analysis's ``module_report``, addressed in the result
        store like every other deterministic response (key: ``kind`` +
        function part)."""
        resident = self._resident(module)

        def compute() -> Dict[str, Any]:
            self._materialize(resident)
            if function is not None:
                resident.function(function)
            return resident.manager.get(key).module_report(function)

        core = self._stored(resident, kind, [function], compute, dict)
        return {"module": module, "function": function, **core}

    def values(self, module: str, function: str) -> Dict[str, Any]:
        """The queryable SSA values of one function (name discovery).

        Source-level variable names do not survive the preparation pipeline
        (mem2reg renames into SSA), so clients list a function's values —
        with their defining opcode and pointerness — before addressing
        queries at them.
        """
        resident = self._resident(module)

        def compute() -> List[Dict[str, Any]]:
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
            return listed

        listed = self._stored(resident, "values", [function], compute, list)
        return {"module": module, "function": function, "values": listed}

    def range_of(self, module: str, function: str, value: str) -> Dict[str, Any]:
        """The symbolic interval of one named integer SSA value."""
        resident = self._resident(module)

        def compute() -> str:
            self._materialize(resident)
            ranges = resident.manager.get(keys.RANGES)
            target = resident.value(function, value)
            return repr(ranges.range_of(target))

        interval = self._stored(resident, "range", [function, value],
                                compute, str)
        return {"module": module, "function": function, "value": value,
                "range": interval}

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

"""The per-function CFG facts cached by ``Function.cfg()``.

The cache must equal a fresh :class:`CFGInfo` after compiling every suite
program and after every step of its edit script, and once
``prepare_module`` has run, building every analysis and both client
reports must not rebuild any of it.
"""

import pytest

from repro.analysis import CFGInfo, DominatorTree, LoopInfo
from repro.benchgen import edit_scenario, generate_source, suite_configs
from repro.benchgen.suites import SUITE_PROGRAMS
from repro.engine import AnalysisManager, keys
from repro.frontend import compile_source
from repro.service.loadtest import DEFAULT_PROGRAMS
from repro.service.session import AnalysisSession

SUITE = [program.name for program in SUITE_PROGRAMS]
#: Every analysis key except CALLGRAPH and SCEV, which analyses request.
KEYS = ("RANGES", "LOCATIONS", "GLOBAL_RANGES", "LOCAL_RANGES", "ANDERSEN",
        "STEENSGAARD", "BASIC", "RBAA", "BOUNDS", "PARALLEL")


def facts(cfg):
    return {"predecessors": cfg.predecessors,
            "rpo": cfg.rpo,
            "idoms": {block: cfg.dom_tree.idom(block) for block in cfg.rpo},
            "loops": sorted((loop.header.name, sorted(block.name for block in loop.blocks))
                            for loop in cfg.loops)}


def assert_cache_is_fresh(module):
    for function in module.defined_functions():
        assert facts(function.cfg()) == facts(CFGInfo(function)), function.name


@pytest.mark.parametrize("config", suite_configs(SUITE), ids=SUITE)
def test_cached_cfg_equals_fresh_build_after_compile_and_edits(config):
    assert_cache_is_fresh(compile_source(generate_source(config), config.name))
    scenario = edit_scenario(config)
    session = AnalysisSession()
    session.load_source(config.name, scenario.steps[0].source)
    for step in scenario.steps[1:]:
        session.edit_source(config.name, step.source)
        assert_cache_is_fresh(session._modules[config.name].module)


def test_analyses_build_no_cfg_facts_after_prepare(monkeypatch):
    counts = {"CFGInfo": 0, "DominatorTree.compute": 0}
    loop_builds = []

    def counting(name, original):
        def wrapper(*args):
            counts[name] += 1
            return original(*args)
        return wrapper

    monkeypatch.setattr(CFGInfo, "__init__", counting("CFGInfo", CFGInfo.__init__))
    monkeypatch.setattr(DominatorTree, "compute", staticmethod(
        counting("DominatorTree.compute", DominatorTree.compute)))
    loop_compute = LoopInfo.compute

    def counting_loops(cfg):
        loop_builds.append(cfg.function)
        return loop_compute(cfg)

    monkeypatch.setattr(LoopInfo, "compute", staticmethod(counting_loops))
    for config in suite_configs(DEFAULT_PROGRAMS):
        module = compile_source(generate_source(config), config.name)
        assert counts["CFGInfo"] == counts["DominatorTree.compute"] > 0
        counts.update(dict.fromkeys(counts, 0))
        manager = AnalysisManager(module)
        for key in KEYS:
            manager.get(getattr(keys, key))
        manager.get(keys.BOUNDS).module_report()
        manager.get(keys.PARALLEL).module_report()
        assert counts == {"CFGInfo": 0, "DominatorTree.compute": 0}, config.name
        # The loop forest is built lazily, at most once per function.
        assert len(loop_builds) == len(set(loop_builds)) > 0

"""The service loadtest and one chaos drill, in process, at the CLI's
``--quick`` sizes: every gate of each record must hold, as ``--check``
demands in CI."""

from repro.service.loadtest import DEFAULT_PROGRAMS, run_chaos_loadtest, run_loadtest

#: ``--quick``: the default programs, 12 requests per client.
QUICK = {"programs": DEFAULT_PROGRAMS, "workers": 2, "clients": 2,
         "requests": 12, "store_root": None}


def failed_gates(record):
    assert record["gates"], "the record carries no gates"
    return sorted(name for name, passed in record["gates"].items() if not passed)


def test_quick_loadtest_passes_every_gate():
    assert failed_gates(run_loadtest(**QUICK)) == []


def test_quick_chaos_drill_seed_1_passes_every_gate():
    assert failed_gates(run_chaos_loadtest(**QUICK, seed=1)) == []


def test_quick_chaos_drill_on_one_worker_passes_every_gate():
    # One shard: the victim module is also a killed one, so the probes
    # that wedge it must not make it compile.
    drill = dict(QUICK, workers=1)
    assert failed_gates(run_chaos_loadtest(**drill, seed=1)) == []

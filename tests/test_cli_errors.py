"""CLI argument sanity: garbage worker counts fail with one-line errors.

A bad ``REPRO_JOBS`` (or ``--jobs``) must produce ``error: ...`` on
stderr and exit status 2 from every entry point — never an uncaught
traceback halfway into a sweep.  Also smoke-tests the chaos drill CLI's
two modes end to end.
"""

import pytest

from repro.cli import TIER1_HINT
from repro.experiments.suite import main as suite_main
from repro.resilience.__main__ import main as chaos_main
from repro.serving.__main__ import main as serving_main
from repro.shard.__main__ import main as shard_main

ENTRY_POINTS = [
    ("suite", lambda: suite_main(["--runners", "fig1", "--scale", "0.1"])),
    ("shard", lambda: shard_main(["--scenario", "window", "--nodes", "50"])),
    ("chaos", lambda: chaos_main(["--mode", "exhaust", "--nodes", "50"])),
    ("serving", lambda: serving_main(["--requests", "2", "--clients", "1",
                                      "--catalog", "1", "--nodes", "50"])),
]


@pytest.mark.parametrize("name,invoke", ENTRY_POINTS,
                         ids=[name for name, _ in ENTRY_POINTS])
def test_garbage_repro_jobs_is_a_one_line_error(name, invoke, monkeypatch,
                                                capsys):
    monkeypatch.setenv("REPRO_JOBS", "abc")
    assert invoke() == 2
    err = capsys.readouterr().err
    assert err == "error: REPRO_JOBS must be an integer, got 'abc'\n"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_nonpositive_repro_jobs_is_a_one_line_error(jobs, monkeypatch,
                                                    capsys):
    monkeypatch.setenv("REPRO_JOBS", jobs)
    assert shard_main(["--scenario", "window", "--nodes", "50"]) == 2
    assert capsys.readouterr().err == "error: jobs must be >= 1\n"


# A spawn-mode pool worker that can't see the src/ layout surfaces in the
# parent as ModuleNotFoundError('repro...'); every CLI must translate that
# to the tier-1 PYTHONPATH hint instead of a traceback.  Simulated by
# making the entry point's compute function raise what the pool would.
MISSING_REPRO_CASES = [
    ("suite", "repro.experiments.suite", "run_figure_suite",
     lambda: suite_main(["--runners", "fig1", "--scale", "0.1"])),
    ("shard", "repro.shard.__main__", "run_sharded",
     lambda: shard_main(["--scenario", "window", "--nodes", "50"])),
    ("serving", "repro.serving.__main__", "run_workload",
     lambda: serving_main(["--requests", "2", "--clients", "1",
                           "--catalog", "1", "--nodes", "50"])),
]


@pytest.mark.parametrize("name,module,attr,invoke", MISSING_REPRO_CASES,
                         ids=[case[0] for case in MISSING_REPRO_CASES])
def test_worker_import_failure_prints_tier1_hint(name, module, attr, invoke,
                                                 monkeypatch, capsys):
    import importlib

    def boom(*_args, **_kwargs):
        raise ModuleNotFoundError("No module named 'repro'", name="repro")

    monkeypatch.setattr(importlib.import_module(module), attr, boom)
    assert invoke() == 2
    err = capsys.readouterr().err
    assert err == TIER1_HINT + "\n"
    assert "PYTHONPATH=src" in err


def test_unrelated_import_failure_still_raises(monkeypatch):
    import repro.shard.__main__ as shard_mod

    def boom(*_args, **_kwargs):
        raise ModuleNotFoundError("No module named 'nope'", name="nope")

    monkeypatch.setattr(shard_mod, "run_sharded", boom)
    with pytest.raises(ModuleNotFoundError, match="nope"):
        shard_main(["--scenario", "window", "--nodes", "50"])


def test_chaos_cli_recover_mode(capsys):
    assert chaos_main(["--mode", "recover", "--nodes", "200"]) == 0
    out = capsys.readouterr().out
    assert "retries=1 quarantined=1" in out
    assert "every response bit-identical" in out


def test_chaos_cli_exhaust_mode(capsys):
    assert chaos_main(["--mode", "exhaust", "--nodes", "200"]) == 0
    out = capsys.readouterr().out
    assert "'failures': 1" in out
    assert "statuses: ['failed', 'ok', 'ok', 'failed']" in out

"""CLI argument sanity: bad input fails with one-line errors.

A bad ``REPRO_JOBS`` (or ``--jobs``), an unknown suite runner, a
scale outside ``(0, 1]`` or an out-of-range trace option must produce
``error: ...`` on stderr and exit status 2 from every entry point —
never an uncaught traceback halfway into a sweep.
"""

import pytest

from repro.cli import TIER1_HINT
from repro.experiments.suite import main as suite_main
from repro.observability.__main__ import main as observability_main
from repro.shard.__main__ import main as shard_main

ENTRY_POINTS = [
    ("suite", lambda: suite_main(["--runners", "fig1", "--scale", "0.1"])),
    ("shard", lambda: shard_main(["--scenario", "window", "--nodes", "50"])),
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


@pytest.mark.parametrize("argv,message", [
    (["--runners", "fig1", "bogus"],
     "argument --runners: invalid choice: 'bogus'"),
    (["--runners"], "argument --runners: expected at least one argument"),
    (["--scale", "2"], "scale must be in (0, 1], got 2.0"),
    (["--scale", "0"], "scale must be in (0, 1], got 0.0"),
], ids=["unknown-runner", "no-runner", "scale-above-one", "scale-zero"])
def test_suite_bad_input_is_a_one_line_error(argv, message, monkeypatch,
                                             capsys):
    import repro.experiments.suite as suite_mod

    def never(*_args, **_kwargs):
        raise AssertionError("the suite started before rejecting its input")

    monkeypatch.setattr(suite_mod, "run_figure_suite", never)
    assert suite_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


# A spawn-mode pool worker that can't see the src/ layout surfaces in the
# parent as ModuleNotFoundError('repro...'); every CLI must translate that
# to the tier-1 PYTHONPATH hint instead of a traceback.  Simulated by
# making the entry point's compute function raise what the pool would.
MISSING_REPRO_CASES = [
    ("suite", "repro.experiments.suite", "run_figure_suite",
     lambda: suite_main(["--runners", "fig1", "--scale", "0.1"])),
    ("shard", "repro.shard.__main__", "run_sharded",
     lambda: shard_main(["--scenario", "window", "--nodes", "50"])),
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



@pytest.mark.parametrize("argv,message", [
    (["--drop", "1.5"], "--drop must be in [0, 1), got 1.5"),
    (["--nodes", "0"], "--nodes must be >= 1, got 0"),
    (["--jitter", "-1"], "--jitter must be a finite number >= 0, got -1.0"),
    (["--jitter", "inf"], "--jitter must be a finite number >= 0, got inf"),
], ids=["drop-above-one", "zero-nodes", "negative-jitter", "infinite-jitter"])
def test_observability_bad_input_is_a_one_line_error(argv, message,
                                                     monkeypatch, capsys):
    import repro.observability.__main__ as observability_mod

    def never(*_args, **_kwargs):
        raise AssertionError("a network was built before the input was "
                             "rejected")

    monkeypatch.setattr(observability_mod, "get_scenario", never)
    assert observability_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""

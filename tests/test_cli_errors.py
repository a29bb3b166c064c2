"""CLI argument sanity: bad input fails with one-line errors.

A bad ``REPRO_JOBS`` (or ``--jobs``), an unknown suite runner, a
scale outside ``(0, 1]``, an out-of-range trace or shard option or any
argparse error must produce exactly one ``error: ...`` line on stderr,
nothing on stdout and exit status 2 from every ``python -m repro``
subcommand — never an uncaught traceback halfway into a sweep.  One
successful command is checked too: the shard timing table.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import TIER1_HINT, main
from repro.network.scenarios import MegaFieldSpec, Scenario
from repro.observability import Tracer

ENTRY_POINTS = [
    ("suite", lambda: main(["suite", "--runners", "fig1", "--scale", "0.1"])),
    ("shard", lambda: main(["shard", "--scenario", "window", "--nodes", "50"])),
]


def _assert_one_line_error(capsys, message):
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def _never(*_args, **_kwargs):
    raise AssertionError("work started before the input was rejected")


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
    assert main(["shard", "--scenario", "window", "--nodes", "50"]) == 2
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
    monkeypatch.setattr("repro.cli.run_figure_suite", _never)
    assert main(["suite", *argv]) == 2
    _assert_one_line_error(capsys, message)


@pytest.mark.parametrize("argv,message", [
    (["--grid", "2y2"], "grid spec must look like '2x2', got '2y2'"),
    (["--grid", "axb"], "grid spec must look like '2x2', got 'axb'"),
    (["--grid", "0x0"], "grid must be at least 1x1, got 0x0"),
    (["--scale", "2"], "scale must be in (0, 1], got 2.0"),
    (["--scale", "0"], "scale must be in (0, 1], got 0.0"),
    (["--nodes", "0"], "--nodes must be >= 1, got 0"),
    (["--scenario", "window", "--nodes", "0"], "--nodes must be >= 1, got 0"),
    (["--local-max-hops", "0"], "local_max_hops must be >= 1"),
    (["--scenario", "window", "--local-max-hops", "0"],
     "local_max_hops must be >= 1"),
], ids=["malformed-grid", "non-integer-grid", "empty-grid",
        "scale-above-one", "scale-zero", "zero-nodes", "zero-nodes-paper",
        "zero-hops", "zero-hops-paper"])
def test_shard_bad_input_is_a_one_line_error(argv, message, monkeypatch,
                                             capsys):
    monkeypatch.setattr(MegaFieldSpec, "build", _never)
    monkeypatch.setattr(Scenario, "build", _never)
    monkeypatch.setattr("repro.cli.run_sharded", _never)
    assert main(["shard", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv,message", [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    (["suite", "--bogus"], "unrecognized arguments: --bogus"),
    (["suite", "--jobs", "x"], "argument --jobs: invalid int value: 'x'"),
    (["trace", "--scheduler", "lockstep"],
     "argument --scheduler: invalid choice: 'lockstep'"),
    (["trace", "--nodes", "x"], "argument --nodes: invalid int value: 'x'"),
    (["fsck"], "the following arguments are required: cache_dir"),
    (["fsck", "dir", "--deep=1"], "argument --deep: ignored explicit argument '1'"),
    (["shard", "--scenario", "atlantis"],
     "argument --scenario: invalid choice: 'atlantis'"),
    (["shard", "--scale", "big"], "argument --scale: invalid float value: 'big'"),
], ids=["no-command", "unknown-command", "suite-unknown-flag",
        "suite-bad-jobs", "trace-bad-choice", "trace-bad-int",
        "fsck-no-dir", "fsck-flag-value", "shard-bad-scenario",
        "shard-bad-float"])
def test_usage_errors_are_one_line_errors(argv, message, capsys):
    assert main(argv) == 2
    _assert_one_line_error(capsys, message)


@pytest.mark.parametrize("argv", [["--help"], ["shard", "--help"]])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: python -m repro" in capsys.readouterr().out


# A spawn-mode pool worker that can't see the src/ layout surfaces in the
# parent as ModuleNotFoundError('repro...'); the CLI must translate that
# to the tier-1 PYTHONPATH hint instead of a traceback.  Simulated by
# making the subcommand's compute function raise what the pool would.
MISSING_REPRO_CASES = [
    ("suite", "run_figure_suite",
     lambda: main(["suite", "--runners", "fig1", "--scale", "0.1"])),
    ("shard", "run_sharded",
     lambda: main(["shard", "--scenario", "window", "--nodes", "50"])),
]


@pytest.mark.parametrize("name,attr,invoke", MISSING_REPRO_CASES,
                         ids=[case[0] for case in MISSING_REPRO_CASES])
def test_worker_import_failure_prints_tier1_hint(name, attr, invoke,
                                                 monkeypatch, capsys):
    def boom(*_args, **_kwargs):
        raise ModuleNotFoundError("No module named 'repro'", name="repro")

    monkeypatch.setattr(f"repro.cli.{attr}", boom)
    assert invoke() == 2
    err = capsys.readouterr().err
    assert err == TIER1_HINT + "\n"
    assert "PYTHONPATH=src" in err


def test_unrelated_import_failure_still_raises(monkeypatch):
    def boom(*_args, **_kwargs):
        raise ModuleNotFoundError("No module named 'nope'", name="nope")

    monkeypatch.setattr("repro.cli.run_sharded", boom)
    with pytest.raises(ModuleNotFoundError, match="nope"):
        main(["shard", "--scenario", "window", "--nodes", "50"])


@pytest.mark.parametrize("argv,message", [
    (["--drop", "1.5"], "--drop must be in [0, 1), got 1.5"),
    (["--nodes", "0"], "--nodes must be >= 1, got 0"),
    (["--jitter", "-1"], "--jitter must be a finite number >= 0, got -1.0"),
    (["--jitter", "inf"], "--jitter must be a finite number >= 0, got inf"),
    (["--scheduler", "sync", "--jitter", "0.5"],
     "--jitter applies to --scheduler async only"),
], ids=["drop-above-one", "zero-nodes", "negative-jitter", "infinite-jitter",
        "jitter-on-sync"])
def test_observability_bad_input_is_a_one_line_error(argv, message,
                                                     monkeypatch, capsys):
    monkeypatch.setattr("repro.cli.get_scenario", _never)
    assert main(["trace", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_python_dash_m_repro(tmp_path):
    """The real entry point: ``python -m repro`` in a fresh interpreter,
    where a double import of the CLI module would be a RuntimeWarning."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*args):
        return subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro",
             *args], capture_output=True, text=True, env=env, timeout=120)

    fsck = run("fsck", str(tmp_path))
    assert fsck.returncode == 0, fsck.stderr
    assert fsck.stdout.startswith(f"fsck {tmp_path}: 0 ok, 0 corrupt")
    bare = run()
    assert bare.returncode == 2
    assert bare.stderr == ("error: the following arguments are required: "
                           "command\n")
    assert bare.stdout == ""


def test_shard_timings_are_the_tracer_spans(monkeypatch, capsys):
    """The shard timing table is a view over the run's ``shard:*`` spans,
    not a clock of its own, and its total is their sum."""
    tracers = []

    class RecordingTracer(Tracer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracers.append(self)

    monkeypatch.setattr("repro.cli.Tracer", RecordingTracer)
    assert main(["shard", "--scenario", "window", "--nodes", "50"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()
            if line.startswith("  ")]
    timings = tracers[0].metrics().stage_timings
    phases = ["shard:plan", "shard:stage1", "shard:flood", "shard:paths",
              "shard:finish"]
    assert [name for name, _ in rows] == phases + ["total"]
    for name, printed in rows[:-1]:
        assert printed == f"{timings[name]:.2f}s"
    assert rows[-1][1] == f"{sum(timings[p] for p in phases):.2f}s"

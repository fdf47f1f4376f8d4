"""The ``python -m repro`` CLI surface, pinned.

``tests/data/cli_surface.txt`` was captured at the parent of the PR that
moved every verb onto one dispatch (35 parsers, 100 arguments): every
parser path with its positionals, option strings, nargs, choices and
defaults.  A verb or flag that appears, disappears or changes its
default shows up as a diff against that file.
"""

import argparse
import os
import re

import pytest

from repro.__main__ import build_parser

from ._cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_surface.txt")
GROUPS = {
    "traffic": "run,sweep,list",
    "lab": "run,status,retry,export,list",
    "obs": "summary,flows,export",
    "check": "lint,race,lockstep,all",
    "fabric": "run,sweep,list",
    "shard": "run,sweep,list",
}


def describe_surface(parser: argparse.ArgumentParser, path: str = "repro"):
    """One line per parser and per argument, depth first."""
    lines = [path]
    children = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            children = list(action.choices.items())
            continue
        name = ",".join(action.option_strings) or action.dest
        facts = [name]
        if action.nargs is not None:
            facts.append(f"nargs={action.nargs}")
        if action.choices is not None:
            facts.append("choices=" + "|".join(map(str, action.choices)))
        if not isinstance(action, argparse._VersionAction):
            facts.append(f"default={action.default!r}")
        lines.append("  " + " ".join(facts))
    for verb, child in children:
        lines.extend(describe_surface(child, f"{path} {verb}"))
    return lines


def test_surface_matches_the_parent_capture():
    lines = describe_surface(build_parser())
    with open(GOLDEN) as handle:
        golden = handle.read().splitlines()
    assert lines == golden
    assert sum(1 for line in lines if not line.startswith(" ")) == 32
    assert sum(1 for line in lines if line.startswith(" ")) == 82


@pytest.mark.parametrize("group", GROUPS)
def test_bare_group_prints_its_verbs_and_exits_2(group, capsys):
    assert main([group]) == 2
    usage = f"usage: python -m repro {group} {{{GROUPS[group]}}}"
    assert usage in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["traffic", "sweep", "rpc", "--loads", "abc"],
        ["shard", "sweep", "churn", "--workers-list", "a"],
        ["fabric", "sweep", "incast", "--hosts", "4", "--backends", "f4t,quantum"],
        ["traffic", "run", "mixed", "--trace", "unused.json",
         "--trace-layers", "bogus"],
    ],
    ids=["loads", "workers-list", "backends", "trace-layers"],
)
def test_bad_comma_list_is_a_usage_error_before_anything_runs(
    argv, capsys, monkeypatch
):
    """Exit 2 and one line on stderr — not a ValueError traceback, and
    not after the backends in front of the bad one have already run."""
    def no_run(*_args, **_kwargs):
        raise AssertionError("ran a point before rejecting the flag")

    monkeypatch.setattr("repro.lab.grid.ExperimentGrid.call", no_run)
    monkeypatch.setattr("repro.traffic.engine.LoadEngine.run", no_run)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    assert code == 2
    assert capsys.readouterr().err.strip()


def test_only_a_registry_miss_becomes_exit_2(capsys, monkeypatch):
    assert main(["traffic", "run", "no-such-scenario"]) == 2
    assert "available: " in capsys.readouterr().err

    def stray(_args):
        raise KeyError("flow 7")  # a bug inside a run, not a bad name

    monkeypatch.setattr("repro.__main__._cmd_info", stray)
    with pytest.raises(KeyError):
        main(["info"])


@pytest.mark.parametrize("argv", [
    ["traffic", "run", "mixed", "--load-scale", "0"],
    ["traffic", "sweep", "mixed", "--loads", "0,1"],
    ["fabric", "run", "zipf_fanout", "--load-scale", "0"],
    ["fabric", "sweep", "zipf_fanout", "--load-scale", "0"],
    ["fabric", "run", "incast", "--hosts", "1"],
    ["fabric", "sweep", "incast", "--hosts", "1"],
    ["shard", "run", "mixed", "--load-scale", "0"],
], ids=lambda argv: " ".join(argv))
def test_a_rate_of_zero_or_less_or_one_host_is_a_usage_error(argv, capsys):
    """Caught by the flag's type before anything runs: exit 2 and one
    error line, never a hang, a ZeroDivisionError or a traceback."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert re.match(
        r"repro .*: error: argument --(load-scale|loads|hosts): ",
        err.strip().splitlines()[-1],
    )

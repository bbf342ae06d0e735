"""Usage lines, help texts and argument errors of the command line.

`cli_usage.json` holds stdout, stderr and the exit code of each case, as
argparse wrote them on Python 3.11 at an 80-column terminal before the
parser built one subcommand at a time.  `cli.main` reads one case, the
`zoo lame` build, without argparse, through `cli._plain`, which reads only
well-formed command lines (test_cli_reader_properties.py checks it against
argparse); argparse reads every other case.  The second test compares the
one-subcommand parser with the full tree on every case that names a
subcommand, on any Python.
"""

import argparse
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from dgcalc import cli

CASES = json.loads((Path(__file__).parent / "cli_usage.json").read_text())
COMMANDS = [row[0] for row in cli._COMMANDS]


def _run(fn, argv: list[str]):
    """(result or exit code, stdout, stderr) of fn(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = fn(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _ids(cases):
    return [" ".join(c["argv"]) or "no-arguments" for c in cases]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse's texts as written on Python 3.11")
@pytest.mark.parametrize("case", CASES, ids=_ids(CASES))
def test_usage_and_errors_keep_their_bytes(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    got = _run(cli.main, list(case["argv"]))
    assert got == (case["code"], case["stdout"], case["stderr"])


NAMED = [c for c in CASES if c["argv"] and c["argv"][0] in COMMANDS]


@pytest.mark.parametrize("case", NAMED, ids=_ids(NAMED))
def test_one_subcommand_parser_reads_as_the_full_tree(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = list(case["argv"])
    one, full = cli._parser(argv), cli._parser([])
    (sub,) = [a for a in one._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == [argv[0]]
    assert _run(one.parse_args, argv) == _run(full.parse_args, argv)


def test_the_table_names_every_subcommand_once():
    full = cli._parser([])
    (sub,) = [a for a in full._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == COMMANDS
    assert len(set(COMMANDS)) == len(COMMANDS) == 11

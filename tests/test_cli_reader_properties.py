"""`cli._plain`, the reader of well-formed command lines, against argparse.

Whenever `_plain` reads an argv, the full-tree parser must read it too,
without a usage error, into the same attributes.  The argv are drawn from
tokens built from `cli._COMMANDS`, and from spellings that only argparse
reads (--x=v, abbreviations, -oX, --, -h), values that start with "-", and
texts that `int` reads or refuses.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, strategies as st

from dgcalc import cli

NAMES = [row[0] for row in cli._COMMANDS]
FLAGS = sorted({f for *_, arguments in cli._COMMANDS
                for flags, _ in (*arguments, cli._OUTPUT) for f in flags if f[0] == "-"})
VALUES = ["3", "0", "killing", "euclidean", "minkowski", "F.json", "ops/", "c10",
          "3/2", "", " 5", "٣", "1_0", "bogus"]
ODD = ["-h", "--help", "--", "-", "-1", "-3/2", "--met", "--n=3", "-oX"]
TOKENS = NAMES + FLAGS + VALUES + ODD

FULL = cli._parser([])

# the 24 argv of perfbench's cli-docs command list
CLI_DOCS = [
    *(["zoo", kind, "--n", n, "--metric", metric, "-o", "ops/"]
      for kind, n, metric in [("weyl", "6", "euclidean"), ("box_weyl", "5", "euclidean"),
                              ("box_weyl", "5", "minkowski"), ("riemann", "6", "euclidean"),
                              ("killing", "6", "euclidean"), ("einstein", "4", "minkowski")]),
    ["adjoint", "ops/box_weyl_e5.json"],
    ["adjoint", "ops/weyl_e6.json"],
    ["adjoint", "ops/einstein_m4.json"],
    ["adjoint", "ops/riemann_e6.json", "-o", "ops/riemann_adj.json"],
    ["compose", "ops/riemann_adj.json", "ops/riemann_e6.json"],
    ["compose", "ops/riemann_e6.json", "ops/killing_e6.json"],
    *(argv for k in range(4)
      for argv in (["adjoint", f"docs/pow{k}.json", "-o", f"docs/pow{k}_adj.json"],
                   ["adjoint", f"docs/pow{k}_adj.json"])),
    *(argv for k in range(2)
      for argv in (["cc", f"docs/sys{k}.json", "-o", f"docs/sys{k}_cc.json"],
                   ["compose", f"docs/sys{k}_cc.json", f"docs/sys{k}.json"])),
]


def _full_tree(argv: list[str]) -> dict:
    """vars() of the full-tree parser's namespace; a usage error fails."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            return vars(FULL.parse_args(argv))
        except SystemExit as exc:
            pytest.fail(f"argparse exits {exc.code} on {argv!r}: {err.getvalue()}")


def _value(kwargs: dict):
    """Texts for an argument: its choices, or texts `int` reads or
    refuses, or names and paths; now and then one of the others."""
    if "choices" in kwargs:
        texts = [*kwargs["choices"], "bogus"]
    elif kwargs.get("type") is int:
        texts = ["3", "0", " 5", "٣", "1_0", "", "bogus"]
    else:
        texts = ["killing", "F.json", "ops/", "c10", "3/2", "", "٣"]
    return st.sampled_from(texts) | st.sampled_from(VALUES)


@st.composite
def shaped(draw):
    """A subcommand with its required positionals, perhaps its optional
    one, and up to three of its options, each with a value, which may
    start with "-"; then, half the time, one token of the whole alphabet
    put in, written over another, or one token taken out."""
    name, _, _, arguments = draw(st.sampled_from(cli._COMMANDS))
    argv = [name]
    for flags, kwargs in arguments:
        if flags[0][0] != "-" and ("nargs" not in kwargs or draw(st.booleans())):
            argv.append(draw(_value(kwargs)))
    options = [a for a in (*arguments, cli._OUTPUT) if a[0][0][0] == "-"]
    for flags, kwargs in draw(st.lists(st.sampled_from(options), max_size=3,
                                       unique_by=lambda a: a[0])):
        argv.append(draw(st.sampled_from(flags)))
        if kwargs.get("action") != "store_true":
            argv.append(draw(_value(kwargs) | st.sampled_from(ODD)))
    edit = draw(st.sampled_from(["keep", "keep", "keep", "insert", "replace", "delete"]))
    if edit != "keep":
        at = draw(st.integers(0, len(argv) - (edit != "insert")))
        token = [draw(st.sampled_from(TOKENS))] if edit != "delete" else []
        argv[at:at + (edit != "insert")] = token
    return argv


@given(st.one_of(shaped(), st.lists(st.sampled_from(TOKENS), max_size=8)))
def test_plain_reads_what_argparse_reads(argv):
    args = cli._plain(argv)
    if args is not None:
        assert vars(args) == _full_tree(argv)


@pytest.mark.parametrize("argv", CLI_DOCS, ids=[" ".join(a) for a in CLI_DOCS])
def test_plain_reads_every_cli_docs_command(argv):
    args = cli._plain(argv)
    assert args is not None
    assert vars(args) == _full_tree(argv)


@pytest.mark.parametrize("argv", [
    ["zoo", "killing", "--n", "-1"],
    ["zoo", "lame", "--n", "2", "--lam", "-3/2"],
    ["ext", "F", "x"],
    ["ext", "F", ""],
    ["zoo", "killing", "--n", "three"],
    ["zoo", "killing", "--metric", "bogus"],
    ["zoo", "killing", "--n=3"],
    ["zoo", "killing", "--n", "3", "--n", "3"],
    ["zoo", "killing", "--met", "euclidean"],
    ["adjoint", "-o", "G", "F"],
    ["zoo", "--n", "3", "killing"],
    ["report", "--json", "x"],
    ["adjoint", "--", "F"],
    ["adjoint"],
    [],
], ids=repr)
def test_plain_leaves_other_argv_to_argparse(argv):
    assert cli._plain(argv) is None

"""Command line front end.

One operator per JSON file.  Subcommands either print a JSON document to
stdout or, with -o, write it to a file and print the path.  Output is
deterministic: rerunning a command on the same inputs produces identical
bytes, with the engine caches cold or warm.

Exit codes: 0 success, 2 unreadable input or a usage error, 3 shape
mismatch, 4 budget exceeded (Groebner degree, or a result number with more
digits than Python writes), 5 factorization failed, 1 anything else,
internal faults among them, and a closed stdout.  Every document is built
in full before any of it is written.

`main` is the in-process entry: it takes the arguments and returns the
exit code.  `run` is the process entry, behind both `python -m dgcalc.cli`
and the `dgcalc` console script: it ends the process right after `main`,
its atexit handlers and its flush, skipping the interpreter's teardown,
unless a profiler, tracer or debugger is attached.
"""

from __future__ import annotations

import atexit
import errno
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, NoReturn, Sequence

from .engine import BudgetExceeded, FreeElem, cell_rows, fraction_rank, resolve_module
from .operators import (
    NotFactorable,
    OpFormatError,
    ShapeMismatch,
    adjoint,
    cc,
    compose,
    factor_through,
    json_text,
    load_operator,
    operator_json,
)
from .poly import NumberTooLong, ParseError

if TYPE_CHECKING:
    import argparse
    from fractions import Fraction

# zoo, duality and report are imported by the handlers that run them, so
# the other commands start without loading them.

EXIT_PARSE = 2
EXIT_SHAPE = 3
EXIT_BUDGET = 4
EXIT_FACTOR = 5

# sorted(zoo.METRICS), spelled out so building the parser does not import
# zoo; a test keeps the two equal
_METRIC_CHOICES = ("euclidean", "minkowski")


def _target_path(out: str, stem: str) -> Path:
    p = Path(out)
    if p.is_dir() or out.endswith(("/", "\\")):
        return p / f"{stem}.json"
    return p


def _write(text: str) -> None:
    # Python sets sys.stdout to None when it starts with file descriptor 1
    # closed, and print() to None would drop the text without a word
    if sys.stdout is None:
        raise OSError(errno.EBADF, "stdout is closed")
    sys.stdout.write(text)


def _emit_text(doc: str, out: str | None, stem: str) -> None:
    if out is None:
        _write(doc)
        return
    path = _target_path(out, stem)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(doc)
    _write(f"wrote {path}\n")


def _emit_operator(op, out: str | None) -> None:
    _emit_text(operator_json(op), out, op.name)


def _emit_json(payload: dict, out: str | None, stem: str) -> None:
    _emit_text(json_text(payload), out, stem)


# -- subcommand handlers ---------------------------------------------------------


def _cmd_cc(args) -> int:
    op = load_operator(args.operator)
    _emit_operator(cc(op), args.output)
    return 0


def _cmd_adjoint(args) -> int:
    op = load_operator(args.operator)
    _emit_operator(adjoint(op), args.output)
    return 0


def _cmd_compose(args) -> int:
    outer = load_operator(args.outer)
    inner = load_operator(args.inner)
    _emit_operator(compose(outer, inner), args.output)
    return 0


def _cmd_resolve(args) -> int:
    op = load_operator(args.operator)
    res = resolve_module(op.rows(), max_steps=args.steps)
    summary = {
        "operator": op.name,
        "nvars": res.nvars,
        "source_width": res.source_width,
        "dims": list(res.dims),
        "orders": [list(o) for o in res.orders],
        "euler_characteristic": res.euler_characteristic,
        "complete": res.complete,
    }
    doc = json_text(summary)
    if args.output is None:
        _write(doc)
        return 0
    docs = {"summary.json": doc}
    for k, step in enumerate(res.steps):
        name = f"step{k:02d}.json"
        rows = cell_rows(step, name + ": rows[{i}][{j}]")
        docs[name] = json_text({"index": k, "rows": rows})
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in docs.items():
        (outdir / name).write_text(text)
    _write(f"wrote {outdir}/summary.json and {len(res.steps)} step files\n")
    return 0


def _cmd_rank(args) -> int:
    op = load_operator(args.operator)
    payload = {
        "operator": op.name,
        "rows": op.target.dim,
        "columns": op.source.dim,
        "rank": fraction_rank(op.rows()),
    }
    _emit_json(payload, args.output, f"{op.name}_rank")
    return 0


def _cmd_paramtest(args) -> int:
    from .duality import param_test

    op = load_operator(args.operator)
    rep = param_test(op)
    rows = cell_rows([t.row for t in rep.torsion], "torsion[{i}].row[{j}]")
    anns = cell_rows([FreeElem([t.annihilator]) for t in rep.torsion],
                     "torsion[{i}].annihilator")
    payload = {
        "operator": op.name,
        "parametrizable": rep.parametrizable,
        "ext1_zero": rep.ext1_zero,
        "ext2_zero": rep.ext2_zero,
        "potentials": rep.potentials,
        "torsion": [
            {"row": row, "order": t.order, "annihilator": ann}
            for t, row, [ann] in zip(rep.torsion, rows, anns)
        ],
        "parametrization": cell_rows(rep.parametrization.rows(),
                                     "parametrization[{i}][{j}]"),
        "recomputed_conditions": cell_rows(rep.recomputed_cc.rows(),
                                           "recomputed_conditions[{i}][{j}]"),
    }
    _emit_json(payload, args.output, f"{op.name}_paramtest")
    if args.output is not None:
        verdict = "parametrizable" if rep.parametrizable else "NOT parametrizable"
        _write(
            f"{op.name}: {verdict}; {len(rep.torsion)} torsion generators; "
            f"{rep.potentials} potentials\n"
        )
    return 0


def _cmd_minparam(args) -> int:
    from .duality import minimal_parametrization

    op = load_operator(args.operator)
    _emit_operator(minimal_parametrization(op), args.output)
    return 0


def _cmd_ext(args) -> int:
    from .duality import ext_module

    op = load_operator(args.operator)
    rep = ext_module(op, args.index)
    payload = {
        "operator": op.name,
        "index": rep.index,
        "is_zero": rep.is_zero,
        "rank": rep.rank,
        "generators": cell_rows(rep.generators, "generators[{i}][{j}]"),
        "relations": cell_rows(rep.relations, "relations[{i}][{j}]"),
    }
    _emit_json(payload, args.output, f"{op.name}_ext{rep.index}")
    return 0


def _cmd_factor(args) -> int:
    left = load_operator(args.left)
    through = load_operator(args.through)
    _emit_operator(factor_through(left, through), args.output)
    return 0


def _rational(flag: str, text: str) -> Fraction:
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} {text!r} is not a rational number") from None


def _cmd_zoo(args) -> int:
    from . import zoo

    if args.name is None:
        width = max(len(k) for k in zoo.ZOO)
        for key in sorted(zoo.ZOO):
            entry = zoo.ZOO[key]
            needs = []
            if entry.needs_metric:
                needs.append("--metric --n")
            elif entry.needs_n:
                needs.append("--n")
            if entry.needs_lame:
                needs.append("--lam --mu")
            if entry.needs_r:
                needs.append("--r")
            if entry.fixed_n is not None:
                needs.append(f"n={entry.fixed_n}")
            extra = f"  [{', '.join(needs)}]" if needs else ""
            _write(f"{key.ljust(width)}  {entry.summary}{extra}\n")
        return 0
    entry = zoo.ZOO.get(args.name)
    if entry is None:
        raise KeyError(f"unknown zoo operator {args.name!r}")
    # an option the entry does not take is an error, not ignored
    if args.n is not None and entry.fixed_n not in (None, args.n):
        raise ValueError(f"{args.name} has n = {entry.fixed_n}, not --n {args.n}")
    for flag, takes in (("metric", entry.needs_metric), ("lam", entry.needs_lame),
                        ("mu", entry.needs_lame), ("r", entry.needs_r)):
        if not takes and getattr(args, flag) is not None:
            raise ValueError(f"{args.name} takes no --{flag}")
    moduli = {
        flag: _rational(f"--{flag}", "1" if text is None else text)
        for flag, text in (("lam", args.lam), ("mu", args.mu)) if entry.needs_lame
    }
    op = zoo.build(args.name, n=args.n, metric=args.metric or "euclidean",
                   r=args.r or 0, **moduli)
    _emit_operator(op, args.output)
    return 0


def _cmd_report(args) -> int:
    from .report import format_rows, rows_to_json, run_report

    rows = run_report(only=args.only)
    if args.output is not None:
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rows_to_json(rows))
    _write(rows_to_json(rows) if args.json else format_rows(rows))
    if not rows:
        print("no checks matched --only filter", file=sys.stderr)
        return 1
    return 0 if all(r.passed for r in rows) else 1


# -- parser ------------------------------------------------------------------------

_OPERATOR = (("operator",), {})
_OUTPUT = (("-o", "--output"), dict(
    default=None, help="write to this file (or into this directory) instead of stdout"))

# One row per subcommand: its name, handler, help and arguments, each as
# (flags, keyword arguments); every subcommand also takes _OUTPUT.
_COMMANDS = (
    ("cc", _cmd_cc, "compatibility conditions of an operator", (_OPERATOR,)),
    ("adjoint", _cmd_adjoint, "formal adjoint", (_OPERATOR,)),
    ("compose", _cmd_compose, "composition OUTER after INNER",
     ((("outer",), {}), (("inner",), {}))),
    ("resolve", _cmd_resolve,
     "free resolution of the row module; -o writes step files",
     (_OPERATOR,
      (("--steps",), dict(type=int, default=None,
                          help="maximum number of syzygy steps")))),
    ("rank", _cmd_rank, "generic rank of the operator matrix", (_OPERATOR,)),
    ("paramtest", _cmd_paramtest,
     "double-duality parametrizability test with torsion report", (_OPERATOR,)),
    ("minparam", _cmd_minparam, "parametrization with rank-many potentials",
     (_OPERATOR,)),
    ("ext", _cmd_ext, "Ext module of the adjoint system",
     (_OPERATOR, (("index",), dict(type=int)))),
    ("factor", _cmd_factor, "find Q with LEFT = compose(Q, THROUGH)",
     ((("left",), {}), (("through",), {}))),
    ("zoo", _cmd_zoo, "list the operator zoo, or build one entry", (
        (("name",), dict(nargs="?", default=None)),
        (("--n",), dict(type=int, default=None)),
        (("--metric",), dict(choices=_METRIC_CHOICES, default=None)),
        (("--lam",), dict(default=None,
                          help="first elastic modulus (rational, e.g. 3/2)")),
        (("--mu",), dict(default=None, help="second elastic modulus (rational)")),
        (("--r",), dict(type=int, default=None,
                        help="form degree for exterior_derivative")),
    )),
    ("report", _cmd_report, "recompute every recorded claim and compare", (
        (("--only",), dict(default=None,
                           help="run only checks whose id contains this substring")),
        (("--json",), dict(action="store_true", default=False,
                           help="print the stable JSON document instead of text")),
    )),
)


def _plain(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a well-formed `argv`, read without
    argparse; None for any other argv.

    Well-formed is: a subcommand name, then as many of its positionals as
    it requires up to as many as it has, none starting with "-", then each
    of its options at most once, spelled exactly as in `_COMMANDS`, each
    with one value not starting with "-" (a store_true option takes none).
    Every value goes through its `type` and `choices`."""
    row = next((c for c in _COMMANDS if argv and c[0] == argv[0]), None)
    if row is None:
        return None
    name, func, _, arguments = row
    args = SimpleNamespace(command=name, func=func)
    positionals, options = [], {}
    for flags, kwargs in (*arguments, _OUTPUT):
        # argparse's dest: the long flag, or the positional's name
        dest = flags[-1].lstrip("-")
        setattr(args, dest, kwargs.get("default"))
        if flags[0].startswith("-"):
            options.update(dict.fromkeys(flags, (dest, kwargs)))
        else:
            positionals.append((dest, kwargs))
    rest = argv[1:]
    given = 0
    while (given < min(len(rest), len(positionals))
           and not rest[given].startswith("-")):
        given += 1
    if given < sum("nargs" not in kwargs for _, kwargs in positionals):
        return None
    pairs = list(zip(positionals, rest[:given]))
    seen = set()
    tokens = iter(rest[given:])
    for flag in tokens:
        dest, kwargs = options.get(flag, (None, None))
        if dest is None or dest in seen:
            return None
        seen.add(dest)
        if kwargs.get("action") == "store_true":
            setattr(args, dest, True)
            continue
        # a missing value falls back as one starting with "-" does
        text = next(tokens, "-")
        if text.startswith("-"):
            return None
        pairs.append(((dest, kwargs), text))
    for (dest, kwargs), text in pairs:
        try:
            value = kwargs.get("type", str)(text)
        except ValueError:
            # argparse's usage error, exit 2
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        setattr(args, dest, value)
    return args


def _parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser for `argv`, which reads every argv that `_plain` does not:
    --help, usage errors, and the spellings `_plain` leaves to it (--x=v,
    abbreviations, --, options before positionals, repeats).  When argv[0]
    names a subcommand, only that subcommand's parser is built, and the
    usage line still lists them all; any other argv, such as --help or an
    unknown command, builds every one."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="dgcalc",
        description="exact calculus for linear constant-coefficient "
                    "differential operators",
    )
    commands = [c for c in _COMMANDS if argv and c[0] == argv[0]]
    if commands:
        # the text argparse gives the subcommand choices when it has them all
        metavar = "{" + ",".join(c[0] for c in _COMMANDS) + "}"
    else:
        commands, metavar = _COMMANDS, None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, func, help_text, arguments in commands:
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in (*arguments, _OUTPUT):
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    """Run the command `argv` (default sys.argv[1:]) and return its exit
    code.  `_plain` reads a well-formed argv; argparse reads any other,
    raising SystemExit 0 after --help and 2 after a usage error."""
    if argv is None:
        argv = sys.argv[1:]
    args = _plain(argv)
    if args is None:
        args = _parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except NotFactorable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FACTOR
    except (BudgetExceeded, NumberTooLong) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ShapeMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except (OpFormatError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (KeyError, ValueError, OSError, ZeroDivisionError, RuntimeError) as exc:
        # str() of a KeyError is the repr of its message; a RuntimeError is
        # an internal fault, such as a failed inline check
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 1


def _watched() -> bool:
    """Whether a profiler, tracer or debugger is attached, or -i asks for
    the interactive prompt afterwards.  Each needs the interpreter's own
    exit: cProfile -o writes its file once the script's SystemExit reaches
    it (from 3.12 it registers a sys.monitoring tool, not a profile
    function), and pdb, which drops its trace function on `continue` when
    no breakpoint is set, still offers its restart there."""
    if (sys.getprofile() is not None or sys.gettrace() is not None
            or sys.flags.inspect or "bdb" in sys.modules):
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(
        monitoring.get_tool(tool) is not None for tool in range(6))


def run() -> NoReturn:
    """Run `main` on sys.argv and end the process with its exit code.

    The interpreter's teardown, which frees every object, costs a short
    command about as much as its work, so the process ends in os._exit
    once the atexit handlers have run and stdout and stderr are flushed;
    it takes the interpreter's own exit only when `_watched`.  A flush
    that fails is reported as `main` reports a write that fails: one error
    line and exit 1.  Left to the interpreter's exit, a second flush can
    find the text dropped and succeed, and a command whose output was lost
    would exit 0."""
    code = main()
    if _watched():
        sys.exit(code)
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except OSError as exc:
            code = code or 1
            if stream is sys.stdout and sys.stderr is not None:
                print(f"error: {exc}", file=sys.stderr)
    os._exit(code)


if __name__ == "__main__":
    run()

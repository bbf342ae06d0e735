"""Command line front end.

One operator per JSON file.  Subcommands either print a JSON document to
stdout or, with -o, write it to a file and print the path.  Output is
deterministic: rerunning a command on the same inputs produces identical
bytes, with the engine caches cold or warm.

Exit codes: 0 success, 2 unreadable input, 3 shape mismatch, 4 budget
exceeded (Groebner degree, or a result number with more digits than
Python writes), 5 factorization failed, 1 anything else, internal faults
among them.  Every document is built in full before any of it is written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

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


def _emit_text(doc: str, out: str | None, stem: str) -> None:
    if out is None:
        sys.stdout.write(doc)
        return
    path = _target_path(out, stem)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(doc)
    print(f"wrote {path}")


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
        sys.stdout.write(doc)
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
    print(f"wrote {outdir}/summary.json and {len(res.steps)} step files")
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
        print(
            f"{op.name}: {verdict}; {len(rep.torsion)} torsion generators; "
            f"{rep.potentials} potentials"
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
            print(f"{key.ljust(width)}  {entry.summary}{extra}")
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
    if args.json:
        sys.stdout.write(rows_to_json(rows))
    else:
        sys.stdout.write(format_rows(rows))
    if not rows:
        print("no checks matched --only filter", file=sys.stderr)
        return 1
    return 0 if all(r.passed for r in rows) else 1


# -- parser ------------------------------------------------------------------------

_OPERATOR = (("operator",), {})

# One row per subcommand: its name, handler, help and arguments, each as
# (flags, keyword arguments); every subcommand also takes -o/--output.
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
        (("--json",), dict(action="store_true",
                           help="print the stable JSON document instead of text")),
    )),
)


def _parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser for `argv`.  When argv[0] names a subcommand, only that
    subcommand's parser is built, and the usage line still lists them all;
    any other argv, such as --help or an unknown command, builds every one."""
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
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.add_argument(
            "-o", "--output", default=None,
            help="write to this file (or into this directory) instead of stdout",
        )
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
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


if __name__ == "__main__":
    sys.exit(main())

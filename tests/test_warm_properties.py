"""Warm answers are cold answers.  For drawn operators, every query a
session repeats (`cc`, `resolve_module`, `fraction_rank`, `param_test` and
`ext_module` at 1 and 2) is asked twice, on the operator and on three
that share its rows, each with one read changed: the name, the target
bundle's name, or its weights.  So the answers kept on one run sit side
by side, and each must be the one a fresh call gives after
`clear_caches()`, compared as text."""

from hypothesis import given

from dgcalc import engine
from dgcalc.duality import ext_module, param_test
from dgcalc.engine import FreeElem, fraction_rank, resolve_module
from dgcalc.operators import Bundle, LinDiffOp, cc, operator_json
from test_operator_properties import outcome, report_texts, small_operators


def fresh_rows(d):
    """Copies of d's rows that carry nothing a call kept on them."""
    return [FreeElem._make(r.width, r.nvars, dict(r.terms), 1, r.den) for r in d.rows()]


def resolution_text(res):
    return res.complete, [[str(e) for e in step] for step in res.steps]


QUERIES = [
    lambda d, rows: operator_json(cc(d)),
    lambda d, rows: resolution_text(resolve_module(rows)),
    lambda d, rows: resolution_text(resolve_module(rows, max_steps=1)),
    lambda d, rows: fraction_rank(rows),
    lambda d, rows: report_texts(param_test(d)),
    lambda d, rows: report_texts(ext_module(d, 1)),
    lambda d, rows: report_texts(ext_module(d, 2)),
]


@given(small_operators())
def test_warm_answers_are_the_answers_a_fresh_call_gives(d):
    target = d.target
    variants = [
        d.with_name("e"),
        LinDiffOp._make(d.name, d.nvars, d.source, Bundle("t", target.components), d._rows),
        LinDiffOp._make(d.name, d.nvars, d.source,
                        Bundle(target.name, [(label, 2) for label in target.labels]),
                        d._rows),
    ]
    asks = [(op, query) for op in [d] + variants for query in QUERIES]
    # the same rows each time, so a rank reads the values kept on them
    rows = d.rows()
    engine.clear_caches()
    first = [outcome(lambda: query(op, rows)) for op, query in asks]
    second = [outcome(lambda: query(op, rows)) for op, query in asks]
    fresh = []
    for op, query in asks:
        engine.clear_caches()
        fresh.append(outcome(lambda: query(op, fresh_rows(op))))
    assert first == second == fresh

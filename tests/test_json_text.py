"""The indent-2 JSON writer: the bytes of `json.dumps(doc, indent=2) + "\\n"`
on every document the package writes, and a TypeError on any value it
does not write."""

import json

import pytest
from hypothesis import given, strategies as st

from dgcalc import zoo
from dgcalc.operators import (
    Bundle,
    LinDiffOp,
    json_text,
    operator_json,
    operator_to_dict,
)
from dgcalc.poly import parse
from dgcalc.report import rows_to_json, run_report


def _reference(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _labelled_op() -> LinDiffOp:
    """A 2x2 operator with rational and negative coefficients, a zero entry,
    non-ASCII names and labels, and weights 2 and 3/2."""
    src = Bundle("vectors", [("α", 2), ("β", "3/2")])
    tgt = Bundle("scalars²", [("x", 1), ("y", 1)])
    cells = [["3/2*d1^2 - d2", "0"], ["-1/7*d1*d2 + 5", "d2^3"]]
    return LinDiffOp("op_é", 2, src, tgt, [[parse(c, 2) for c in row] for row in cells])


def test_operator_document_bytes():
    op = _labelled_op()
    doc = operator_to_dict(op)
    assert json_text(doc) == operator_json(op) == _reference(doc)
    assert "\\u03b1" in json_text(doc)


def test_zoo_operator_document_bytes():
    doc = operator_to_dict(zoo.conformal_killing(zoo.minkowski(4)))
    assert json_text(doc) == _reference(doc)


@pytest.mark.parametrize("rows", [
    [],
    [["d1"]],
    [["d1"], ["-d2"], ["0"]],
    [["3/2*d1 - d2", "-1/3", "0"], ["-d1^2*d3 + 7/2*d2", "0", "d3"]],
    [["0", "0", "0"], ["0", "0", "0"]],
], ids=["empty", "width-1", "width-1-rows", "rational-negative", "all-zero"])
def test_step_document_bytes(rows):
    doc = {"index": 3, "rows": rows}
    assert json_text(doc) == _reference(doc)


def test_summary_and_paramtest_payload_bytes():
    summary = {
        "operator": "killing_e2", "nvars": 2, "source_width": 2,
        "dims": [2, 3, 1], "orders": [[1, 1], [], [2]],
        "euler_characteristic": 0, "complete": True,
    }
    payload = {
        "operator": "einstein_m4",
        "parametrizable": False,
        "ext1_zero": False,
        "ext2_zero": None,
        "potentials": 4,
        "torsion": [
            {"row": ["0", "d2*d3", "-d2^2"], "order": 2,
             "annihilator": "d1^2 + d2^2 + d3^2 - d4^2"},
        ],
        "parametrization": [["d1", "-1/2*d2"], ["0", "d1^2"]],
        "recomputed_conditions": [],
        "empty": {},
        "nested": [[], [[]], [{"a": [True, None, -12]}]],
    }
    for doc in (summary, payload):
        assert json_text(doc) == _reference(doc)


def test_report_document_bytes():
    rows = run_report(only="c10")
    assert rows
    assert rows_to_json(rows) == _reference(json.loads(rows_to_json(rows)))


@pytest.mark.parametrize("value", [
    1.5, (1, 2), {1: "a"}, {"a": {2, 3}}, ["a", 1.0], b"bytes",
])
def test_values_it_does_not_write_raise(value):
    with pytest.raises(TypeError):
        json_text(value)


# documents of the types the writer takes, nested a few levels
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10**30, 10**30),
    st.text(max_size=8),
)
DOCS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=20,
)


@given(DOCS)
def test_any_document_matches_json_dumps(doc):
    assert json_text(doc) == _reference(doc)

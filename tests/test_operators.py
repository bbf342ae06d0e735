"""Operators: bundles, matrix algebra, adjoints, factorization, JSON."""

import json
from fractions import Fraction

import pytest

from dgcalc import duality, engine, operators, zoo
from dgcalc.engine import FreeElem, module_equal, syzygies
from dgcalc.operators import (
    Bundle,
    LinDiffOp,
    NotFactorable,
    OpFormatError,
    ShapeMismatch,
    adjoint,
    cc,
    compose,
    factor_through,
    image_module_equal,
    is_self_adjoint,
    load_operator,
    operator_from_dict,
    operator_json,
    order_profile,
    save_operator,
    scale,
    symbol_at,
)
from dgcalc.poly import parse


def mk(name, nvars, width, entries):
    """Build an operator from rows of strings over simple unit-weight bundles."""
    rows = [[parse(s, nvars) for s in row] for row in entries]
    src = Bundle.simple("src", width)
    tgt = Bundle.simple("tgt", len(entries))
    return LinDiffOp(name, nvars, src, tgt, rows)


# -- bundles ---------------------------------------------------------------------


def test_bundle_rejects_empty_and_duplicates():
    with pytest.raises(ValueError):
        Bundle("b", [])
    with pytest.raises(ValueError):
        Bundle("b", [("u", 1), ("u", 2)])
    with pytest.raises(ValueError):
        Bundle("b", [("u", 0)])
    with pytest.raises(ValueError):
        Bundle("b", [("u", -2)])


def test_bundle_equality_ignores_name():
    a = Bundle("first", [("u", 1), ("v", Fraction(1, 2))])
    b = Bundle("second", [("u", 1), ("v", Fraction(1, 2))])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Bundle("first", [("u", 1), ("v", 1)])
    assert Bundle.simple("s", 3).labels == ("1", "2", "3")
    assert Bundle.simple("s", 3).weights == (1, 1, 1)


# -- construction and structure ----------------------------------------------------


def test_operator_shape_validation():
    src = Bundle.simple("s", 2)
    tgt = Bundle.simple("t", 1)
    good = [[parse("d1", 2), parse("d2", 2)]]
    LinDiffOp("ok", 2, src, tgt, good)
    with pytest.raises(ShapeMismatch):
        LinDiffOp("bad", 2, src, Bundle.simple("t", 2), good)
    with pytest.raises(ShapeMismatch):
        LinDiffOp("bad", 2, Bundle.simple("s", 3), tgt, good)
    with pytest.raises(ShapeMismatch):
        LinDiffOp("bad", 3, src, tgt, good)


def test_operator_equality_excludes_name():
    a = mk("one", 2, 2, [["d1", "d2"]])
    b = mk("two", 2, 2, [["d1", "d2"]])
    assert a == b
    assert hash(a) == hash(b)
    assert a.with_name("three") == a
    assert a != mk("one", 2, 2, [["d1", "0"]])


def test_rows_columns_order():
    op = mk("m", 2, 2, [["d1^2", "d2"], ["0", "1"]])
    assert [str(r) for r in op.rows()] == ["(d1^2, d2)", "(0, 1)"]
    assert [str(c) for c in op.columns()] == ["(d1^2, 0)", "(d2, 1)"]
    assert op.order() == 2
    assert op.row_degrees() == (2, 0)
    assert order_profile(op) == (0, 2)
    assert not op.is_zero()
    assert mk("z", 2, 1, [["0"]]).is_zero()


# -- algebra -------------------------------------------------------------------------


def test_compose_is_matrix_product():
    div = mk("div", 2, 2, [["d1", "d2"]])
    grad = mk("grad", 2, 1, [["d1"], ["d2"]])
    lap = compose(div, grad)
    assert lap.entry_strs() == [["d1^2 + d2^2"]]
    assert lap.name == "compose(div,grad)"
    assert lap.source == grad.source
    assert lap.target == div.target


def test_compose_shape_errors():
    with pytest.raises(ShapeMismatch):
        compose(mk("a", 2, 1, [["d1"]]), mk("b", 3, 1, [["d1"]]))
    with pytest.raises(ShapeMismatch):
        compose(mk("a", 2, 2, [["d1", "d2"]]), mk("b", 2, 1, [["d1"]]))


def test_scale_multiplies_every_entry():
    op = scale(mk("a", 2, 2, [["d1", "d2"]]), Fraction(-1, 2))
    assert op.entry_strs() == [["-1/2*d1", "-1/2*d2"]]
    assert scale(op, -2) == mk("a", 2, 2, [["d1", "d2"]])


def test_adjoint_moves_weights_across():
    tgt = Bundle("pair", [("a", 1), ("b", 2)])
    op = LinDiffOp("g", 2, Bundle.simple("s", 1), tgt,
                   [[parse("d1", 2)], [parse("d2", 2)]])
    ad = adjoint(op)
    assert ad.entry_strs() == [["-d1", "-2*d2"]]
    assert ad.source == tgt
    assert adjoint(ad) == op


def test_adjoint_is_involutive_and_contravariant():
    k = zoo.killing(zoo.euclidean(2))
    r = cc(k)
    assert adjoint(adjoint(k)) == k
    assert adjoint(compose(r, k)) == compose(adjoint(k), adjoint(r))


def test_an_operator_keeps_its_adjoint():
    k = zoo.killing(zoo.euclidean(3))
    ad = adjoint(k)
    assert adjoint(k) is ad
    # the adjoint depends on no budget and no memo, so emptying the memos
    # leaves it kept
    engine.clear_caches()
    assert adjoint(k) is ad


def test_the_kept_adjoint_does_not_link_back():
    k = zoo.killing(zoo.euclidean(3))
    twice = adjoint(adjoint(k))
    assert twice is not k
    assert twice == k
    assert twice.name == "adjoint(adjoint(killing_e3))"
    # nor does it keep its own adjoint, a second operator equal to k
    assert adjoint(adjoint(k)) is not twice


def test_a_renamed_copy_keeps_no_adjoint():
    k = zoo.killing(zoo.euclidean(3))
    ad = adjoint(k)
    copy = k.with_name("renamed")
    assert adjoint(copy) is not ad
    assert adjoint(copy) == ad
    assert adjoint(copy).name == "adjoint(renamed)"
    assert adjoint(k).name == "adjoint(killing_e3)"


def test_self_adjointness():
    lap = mk("lap", 2, 1, [["d1^2 + d2^2"]])
    assert is_self_adjoint(lap)
    assert not is_self_adjoint(mk("g", 2, 1, [["d1"], ["d2"]]))
    assert not is_self_adjoint(mk("t", 2, 1, [["d1"]]))


# -- compatibility conditions --------------------------------------------------------


def test_cc_annihilates_and_is_complete():
    g = zoo.grad(3)
    c = cc(g)
    assert compose(c, g).is_zero()
    assert module_equal(c.rows(), syzygies(g.rows()))
    assert c.source == g.target


def test_cc_of_free_rows_is_zero_operator():
    op = mk("free", 2, 2, [["d1", "0"], ["0", "d2"]])
    c = cc(op)
    assert c.is_zero()
    assert c.target.dim == 1
    assert c.source.dim == 2
    assert compose(c, op).is_zero()


# -- factorization --------------------------------------------------------------------


def test_factor_recovers_left_factor():
    b = zoo.grad(3)
    q = mk("q", 3, 3, [["d1", "d2", "d3"], ["1", "0", "d1*d3"]])
    a = compose(q, b)
    out = factor_through(a, b)
    assert compose(out, b) == a
    assert out.source == b.target
    assert out.target == a.target


def test_factor_failure_reports_row_and_remainder():
    a = mk("a", 3, 1, [["d1"], ["1"]])
    b = mk("b", 3, 1, [["d1"], ["d2"]])
    with pytest.raises(NotFactorable) as info:
        factor_through(a, b)
    assert info.value.row_index == 1
    assert str(info.value.remainder) == "(1)"


def test_factor_shape_errors():
    with pytest.raises(ShapeMismatch):
        factor_through(mk("a", 2, 1, [["d1"]]), mk("b", 3, 1, [["d1"]]))
    with pytest.raises(ShapeMismatch):
        factor_through(mk("a", 2, 2, [["d1", "d2"]]), mk("b", 2, 1, [["d1"]]))


def test_a_kept_factorization_answers_only_its_own_reads(monkeypatch, clear_engine_caches):
    """A repeat divides nothing and returns the kept quotient; a change to
    any read (a's rows, either name, either target's name or weights)
    divides afresh, and an error is raised again on repeat."""
    divisions = []
    divide = engine.divide_with_cofactors

    def counted(elem, gens):
        divisions.append(elem)
        return divide(elem, gens)

    # factor_through imports the public call when it runs
    monkeypatch.setattr(engine, "divide_with_cofactors", counted)
    b = zoo.grad(3)
    q = mk("q", 3, 3, [["d1", "d2", "d3"], ["1", "0", "d1*d3"]])
    a = compose(q, b)
    clear_engine_caches()
    kept = factor_through(a, b)
    assert len(divisions) == 2
    # equal reads in new operators: 0 divisions
    assert factor_through(a, b) is kept
    assert factor_through(compose(q, b), b.with_name(b.name)) is kept
    assert len(divisions) == 2
    target = a.target
    variants = [
        (compose(mk("q", 3, 3, [["d2", "1", "0"], ["0", "d3", "2"]]), b).with_name(a.name), b),
        (a.with_name("other"), b),
        (LinDiffOp._make(a.name, a.nvars, a.source, Bundle("t", target.components), a._rows), b),
        (LinDiffOp._make(a.name, a.nvars, a.source,
                         Bundle(target.name, zip(target.labels, [2, 3])), a._rows), b),
        (a, b.with_name("other")),
        (a, LinDiffOp._make(b.name, b.nvars, b.source,
                            Bundle("w", b.target.components), b._rows)),
        (a, LinDiffOp._make(b.name, b.nvars, b.source,
                            Bundle(b.target.name, zip(b.target.labels, [2, 3, 5])),
                            b._rows)),
    ]
    for x, y in variants:
        # a's quotient kept again, since each round ends with the memos empty
        mine = factor_through(a, b)
        del divisions[:]
        got = factor_through(x, y)
        assert len(divisions) == 2 and got is not mine
        assert (got.name, got.source.name, got.source.components,
                got.target.name, got.target.components) == (
            f"factor({x.name},{y.name})", y.target.name, y.target.components,
            x.target.name, x.target.components)
        clear_engine_caches()
        assert operator_json(got) == operator_json(factor_through(x, y))
        assert operator_json(got) != operator_json(mine)
    bad = mk("a", 3, 1, [["d1"], ["1"]])
    div = mk("b", 3, 1, [["d1"], ["d2"]])
    for _ in range(2):
        del divisions[:]
        with pytest.raises(NotFactorable):
            factor_through(bad, div)
        assert len(divisions) == 2


# -- inspection ------------------------------------------------------------------------


def test_symbol_at_evaluates_entries():
    g = zoo.grad(3)
    assert symbol_at(g, [1, 2, 3]) == [[1], [2], [3]]
    assert symbol_at(g, [Fraction(1, 2), 0, 0]) == [[Fraction(1, 2)], [0], [0]]
    with pytest.raises(ShapeMismatch):
        symbol_at(g, [1, 2])


def test_image_module_comparison():
    c = zoo.curl()
    assert image_module_equal(c, scale(c, 7))
    assert not image_module_equal(zoo.grad(3), c)
    assert not image_module_equal(c, zoo.grad(2))


# -- serialization ----------------------------------------------------------------------


def _every_zoo_build():
    """Every `zoo.ZOO` entry at each n from 2 to 4 that it builds, or at its
    fixed n, under each metric where it takes one."""
    for name, entry in zoo.ZOO.items():
        built = 0
        for n in [None] if entry.fixed_n else [2, 3, 4]:
            for metric in zoo.METRICS if entry.needs_metric else ["euclidean"]:
                try:
                    op = zoo.build(name, n=n, metric=metric)
                except ValueError:
                    # c_map_inverse needs n >= 3 and the Weyl entries n >= 4
                    continue
                built += 1
                yield op
        assert built, name


def test_json_round_trip_is_byte_exact():
    """The parser reads back every text shape the zoo writes, and a
    document's fields beyond the operator's, such as a provenance note
    older writers added, are not read."""
    for op in _every_zoo_build():
        text = operator_json(op)
        back = operator_from_dict(json.loads(text))
        assert back == op
        assert back.name == op.name
        assert operator_json(back) == text
        noted = operator_from_dict({**json.loads(text), "provenance": "hand-checked"})
        assert noted == op and operator_json(noted) == text


def test_save_and_load(tmp_path):
    op = zoo.conformal_killing(zoo.euclidean(3))
    path = tmp_path / "ck.json"
    save_operator(op, path)
    assert load_operator(path) == op
    with pytest.raises(OpFormatError):
        load_operator(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(OpFormatError):
        load_operator(bad)


def _with_first_source_component(d, **fields):
    comps = d["source"]["components"]
    return {**d, "source": {**d["source"],
                            "components": [{**comps[0], **fields}] + comps[1:]}}


@pytest.mark.parametrize("mangle", [
    lambda d: [],
    lambda d: {k: v for k, v in d.items() if k != "matrix"},
    lambda d: {**d, "nvars": 0},
    lambda d: {**d, "nvars": "3"},
    lambda d: {**d, "matrix": "rows"},
    lambda d: {**d, "matrix": [d["matrix"][0] + ["d1"]] + d["matrix"][1:]},
    lambda d: {**d, "matrix": [[5] + d["matrix"][0][1:]] + d["matrix"][1:]},
    lambda d: {**d, "matrix": [["x1"] + d["matrix"][0][1:]] + d["matrix"][1:]},
    lambda d: {**d, "source": {"components": [{"label": "u"}]}},
    # fields of the wrong JSON type: none is coerced to a weight, label or name
    lambda d: _with_first_source_component(d, weight=True),
    lambda d: _with_first_source_component(d, weight=0.1),
    lambda d: _with_first_source_component(d, label=["a"]),
    lambda d: {**d, "source": {**d["source"], "name": ["v"]}},
    lambda d: {**d, "name": {"x": 1}},
])
def test_malformed_documents_are_rejected(mangle):
    doc = json.loads(operator_json(zoo.curl()))
    with pytest.raises(OpFormatError):
        operator_from_dict(mangle(doc))


def _count_parses(monkeypatch) -> list[str]:
    calls = []

    def counting_parse(text, nvars):
        calls.append(text)
        return parse(text, nvars)

    monkeypatch.setattr(operators, "parse", counting_parse)
    return calls


def test_each_distinct_cell_is_parsed_once_per_document(tmp_path, monkeypatch):
    op = zoo.riemann_lin(zoo.euclidean(6))
    path = tmp_path / "riemann_e6.json"
    save_operator(op, path)
    calls = _count_parses(monkeypatch)
    assert load_operator(path) == op
    assert sum(len(row) for row in op.matrix) == 2205
    assert len(calls) == 55 == len(set(calls))


def test_repeated_bad_cell_is_reported_at_its_first_position(monkeypatch):
    doc = json.loads(operator_json(zoo.curl()))
    doc["matrix"][0][0] = doc["matrix"][2][1] = "x1"
    calls = _count_parses(monkeypatch)
    with pytest.raises(OpFormatError, match=r"^matrix\[0\]\[0\]: "):
        operator_from_dict(doc)
    assert calls == ["x1"]


def test_shared_entries_are_never_mutated(tmp_path):
    # killing e3 has 18 cells but only 7 distinct texts, so loading it
    # shares one Poly between equal cells
    path = tmp_path / "killing_e3.json"
    save_operator(zoo.killing(zoo.euclidean(3)), path)
    op = load_operator(path)
    cells = json.loads(path.read_text())["matrix"]
    assert len({id(p) for row in op.matrix for p in row}) == 7

    def entry_arithmetic():
        for row in op.matrix:
            for p in row:
                p + p, p * p, p - 1

    runs = {
        "adjoint": lambda: adjoint(op),
        "compose": lambda: compose(adjoint(op), op),
        "scale": lambda: scale(op, Fraction(-3, 2)),
        "cc": lambda: cc(op),
        "rows": op.rows,
        "columns": op.columns,
        "factor_through": lambda: factor_through(compose(adjoint(op), op), op),
        "param_test": lambda: duality.param_test(op),
        "entry arithmetic": entry_arithmetic,
    }
    # checked after each run, so that two runs undoing each other's
    # change to an entry (a sign flip, say) still fail
    for name, run in runs.items():
        run()
        for i, row in enumerate(op.matrix):
            for j, p in enumerate(row):
                assert p.terms == parse(cells[i][j], op.nvars).terms, (name, i, j)
    # the rows the runs shared were built once and never changed, and a
    # caller's edit to a returned list does not reach the next call
    fresh = [FreeElem(parse(c, op.nvars) for c in row) for row in cells]
    assert op._rows is not None and list(op._rows) == fresh
    got = op.rows()
    got.reverse()
    got.pop()
    assert op.rows() == fresh

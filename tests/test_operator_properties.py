"""Operators drawn at random: composition and the adjoint against
entrywise Poly arithmetic, associativity, compatibility conditions that
compose to zero and hold every relation of bounded degree, factoring a
composition through its right factor, the division identity for
elements of low and of high degree divided by the same rows, documents that
survive saving and loading byte for byte and load as the rows of their
cells, and derived operators, built without re-validation, equal to what
the checking constructor builds and written cell by cell as `serialize`
writes their Polys; and resolutions and compatibility conditions equal to
the chain of public engine calls they stand for, under any degree budget,
complete with the generic rank as their Euler characteristic, and, on
homogeneous operators, of a shape that no row permutation or scaling
moves; and the adjoint of a composition of operators between weighted
bundles is the reversed composition of their adjoints; and a repeated
`param_test` or `ext_module` query gives the report a fresh call gives."""

import os
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from dgcalc import engine, zoo
from dgcalc.duality import ext_module, param_test
from dgcalc.engine import (
    BudgetExceeded,
    FreeElem,
    divide_with_cofactors,
    fraction_rank,
    minimize_generators,
    reduced_groebner,
    resolve_module,
    syzygies,
)
from dgcalc.operators import (
    Bundle,
    LinDiffOp,
    adjoint,
    cc,
    compose,
    factor_through,
    load_operator,
    operator_json,
    save_operator,
)
from dgcalc.poly import Poly, serialize
from dgcalc.report import _truncated_kernel
from conftest import free_elem

# unlike denominators, so the products in one entry need a common scale
COEFFS = [Fraction(p, q) for p in (-3, -1, 1, 2) for q in (1, 2, 3, 5)]


@st.composite
def chains(draw):
    """Three composable operators a, b, c over one variable count, with
    small rational entries of degree at most 2, many of them zero."""
    nvars = draw(st.integers(1, 2))
    mons = [m for m in product(range(3), repeat=nvars) if sum(m) <= 2]
    entry = st.dictionaries(st.sampled_from(mons), st.sampled_from(COEFFS), max_size=3)
    dims = draw(st.lists(st.integers(1, 3), min_size=4, max_size=4))

    def op(name, rows, cols):
        matrix = [[Poly(nvars, draw(entry)) for _ in range(cols)] for _ in range(rows)]
        return LinDiffOp(
            name, nvars, Bundle.simple(f"b{cols}", cols), Bundle.simple(f"b{rows}", rows),
            matrix,
        )

    return op("a", dims[0], dims[1]), op("b", dims[1], dims[2]), op("c", dims[2], dims[3])


@given(chains())
def test_compose_is_the_sum_of_entry_products(ops):
    a, b, _ = ops
    got = compose(a, b)
    assert (got.target, got.source) == (a.target, b.source)
    for i, row in enumerate(got.matrix):
        for j, p in enumerate(row):
            expected = Poly(a.nvars)
            for k in range(a.source.dim):
                expected = expected + a.matrix[i][k] * b.matrix[k][j]
            assert p == expected
            assert all(type(c) is Fraction and c for c in p.terms.values())


@given(chains())
def test_compose_is_associative(ops):
    a, b, c = ops
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@st.composite
def weighted_pairs(draw):
    """Operators a and b, with a after b defined, over one or two variables:
    entries as `chains` draws them, and bundles of one to three components
    with drawn weights, b's target the bundle that is a's source."""
    nvars = draw(st.integers(1, 2))
    mons = [m for m in product(range(3), repeat=nvars) if sum(m) <= 2]
    entry = st.dictionaries(st.sampled_from(mons), st.sampled_from(COEFFS), max_size=3)
    weight = st.sampled_from([1, 2, Fraction(1, 2), Fraction(7, 3)])

    def bundle(name):
        dim = draw(st.integers(1, 3))
        return Bundle(name, [(str(k), draw(weight)) for k in range(dim)])

    source, middle, target = bundle("s"), bundle("m"), bundle("t")

    def op(name, src, tgt):
        matrix = [[Poly(nvars, draw(entry)) for _ in range(src.dim)] for _ in range(tgt.dim)]
        return LinDiffOp(name, nvars, src, tgt, matrix)

    return op("a", middle, target), op("b", source, middle)


@given(weighted_pairs())
def test_the_adjoint_reverses_composition(ops):
    # the weights of the bundle between a and b cancel in the reversed
    # composition of adjoints
    a, b = ops
    assert adjoint(compose(a, b)) == compose(adjoint(b), adjoint(a))


@st.composite
def small_operators(draw, nvars=st.integers(2, 3)):
    """One to three rows over two or three variables (or as many as `nvars`
    draws), with no more columns than rows, so that rows often have
    relations; each entry has two to four integer terms of degree at most
    2, constants included."""
    nvars = draw(nvars)
    mons = [m for m in product(range(3), repeat=nvars) if sum(m) <= 2]
    entry = st.dictionaries(st.sampled_from(mons), st.integers(-3, 3).filter(bool),
                            min_size=2, max_size=4)
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, rows))
    matrix = [[Poly(nvars, draw(entry)) for _ in range(cols)] for _ in range(rows)]
    return LinDiffOp("d", nvars, Bundle.simple(f"b{cols}", cols),
                     Bundle.simple(f"b{rows}", rows), matrix)


@settings(max_examples=100)
@given(small_operators())
def test_compatibility_conditions_compose_to_zero_and_are_complete(d):
    conds = cc(d)
    assert compose(conds, d).is_zero()
    # every relation among the rows with cofactors of degree at most 3,
    # found by linear algebra apart from the engine, lies in their module
    gb = reduced_groebner(conds.rows())
    assert all(gb.contains(rel) for rel in _truncated_kernel(d.rows(), 3))


@st.composite
def left_factors(draw):
    """An operator B as `small_operators` draws it, and a left factor Q of
    one or two rows on B's target, with rational entries of degree at most
    1, many of them zero."""
    b = draw(small_operators())
    mons = [m for m in product(range(2), repeat=b.nvars) if sum(m) <= 1]
    entry = st.dictionaries(st.sampled_from(mons), st.sampled_from(COEFFS), max_size=2)
    rows = draw(st.integers(1, 2))
    matrix = [[Poly(b.nvars, draw(entry)) for _ in range(b.target.dim)] for _ in range(rows)]
    return LinDiffOp("q", b.nvars, b.target, Bundle.simple(f"b{rows}", rows), matrix), b


@given(left_factors())
def test_factor_through_reproduces_a_left_factor(ops):
    q, b = ops
    a = compose(q, b)
    f = factor_through(a, b)
    assert (f.source, f.target) == (b.target, a.target)
    assert compose(f, b) == a


@st.composite
def divisions(draw):
    """Rows with rational entries of degree at most 2, and two elements to
    divide by them in turn: a nonzero one of degree at most 1, then one of
    degree 4, a combination of the rows with cofactors of degree at most 1
    plus one term of degree 4.  The second division reads the run the
    first one built, with a quotient and a remainder of higher degree."""
    nvars = draw(st.integers(2, 3))

    def entry(cap, min_size=0):
        mons = [m for m in product(range(cap + 1), repeat=nvars) if sum(m) <= cap]
        terms = st.dictionaries(st.sampled_from(mons), st.sampled_from(COEFFS),
                                min_size=min_size, max_size=3)
        return Poly(nvars, draw(terms))

    width, k = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    rows = [FreeElem(entry(2, 1) for _ in range(width)) for _ in range(k)]
    low = FreeElem(entry(1, 1 if j == 0 else 0) for j in range(width))
    cells = list(FreeElem(entry(1) for _ in range(k)).dot(rows).entries)
    top = draw(st.sampled_from([m for m in product(range(5), repeat=nvars) if sum(m) == 4]))
    pos = draw(st.integers(0, width - 1))
    cells[pos] = cells[pos] + Poly(nvars, {top: draw(st.sampled_from(COEFFS))})
    return rows, low, FreeElem(cells)


@given(divisions())
def test_division_identity_holds_at_low_and_high_degree(case):
    """Each division by the same rows, whatever its degree, returns a
    quotient and a remainder that make up the element, the remainder being
    the normal form; `divide_with_cofactors` multiplies each identity out
    once inside, and this test multiplies it out again apart from it."""
    rows, low, high = case
    engine.clear_caches()
    gb = reduced_groebner(rows)
    for elem in (low, high):
        quot, rem = divide_with_cofactors(elem, rows)
        assert (quot.width, quot.nvars) == (len(rows), elem.nvars)
        image = quot.dot(rows)
        assert FreeElem(p + r for p, r in zip(image.entries, rem.entries)) == elem
        assert rem == gb.normal_form(elem)


@st.composite
def documents(draw):
    """An operator over one to three variables with drawn names, labels and
    weights, rational entries of degree at most 3 that are often zero,
    some with long numerators and denominators."""
    nvars = draw(st.integers(1, 3))
    mons = [m for m in product(range(4), repeat=nvars) if sum(m) <= 3]
    coeff = st.sampled_from(COEFFS) | st.fractions(max_denominator=10**30)
    entry = st.dictionaries(st.sampled_from(mons), coeff, max_size=4)
    text = st.text(max_size=5)
    weight = st.sampled_from([1, 2, Fraction(1, 2), Fraction(7, 3)])

    def bundle(dim):
        labels = draw(st.lists(text, min_size=dim, max_size=dim, unique=True))
        return Bundle(draw(text), [(lbl, draw(weight)) for lbl in labels])

    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    matrix = [[Poly(nvars, draw(entry)) for _ in range(cols)] for _ in range(rows)]
    return LinDiffOp(draw(text), nvars, bundle(cols), bundle(rows), matrix)


@given(documents())
def test_documents_survive_save_and_load_byte_for_byte(tmp_path_factory, op):
    path = tmp_path_factory.getbasetemp() / "roundtrip.json"
    save_operator(op, path)
    saved = path.read_bytes()
    back = load_operator(path)
    assert back == op and back.name == op.name
    for got, want in ((back.source, op.source), (back.target, op.target)):
        assert (got.name, got.components) == (want.name, want.components)
        assert [type(w) for w in got.weights] == [type(w) for w in want.weights]
    save_operator(back, path)
    assert path.read_bytes() == saved



@given(documents())
def test_adjoint_is_the_entrywise_weighted_sign_flip(op):
    # entry (j, i) of the adjoint is entry (i, j) with d -> -d, times the
    # target weight t_i over the source weight s_j
    ad = adjoint(op)
    s, t = op.source.weights, op.target.weights
    for i, row in enumerate(op.matrix):
        for j, p in enumerate(row):
            want = p.negate_vars(t[i].numerator * s[j].denominator,
                                 t[i].denominator * s[j].numerator)
            assert ad.matrix[j][i] == want
    assert adjoint(ad) == op


@given(documents())
def test_documents_load_as_the_rows_of_their_cells(tmp_path_factory, op):
    path = tmp_path_factory.getbasetemp() / "rows.json"
    save_operator(op, path)
    back = load_operator(path)
    assert back.rows() == [FreeElem(r) for r in op.matrix]
    assert back.matrix == op.matrix


def whole(op):
    """`op`, once it is shown to be what the checking constructor builds
    from its parts, with cached rows that are the rows of its matrix."""
    again = LinDiffOp(op.name, op.nvars, op.source, op.target, op.matrix)
    assert again == op and hash(again) == hash(op)
    assert op.rows() == [FreeElem(r) for r in op.matrix]
    return op


@given(small_operators())
def test_derived_operators_are_built_whole(d):
    # each result is checked before anything else reads it
    d.rows()  # cached rows, which `with_name` keeps
    whole(d.with_name("renamed"))
    ad = whole(adjoint(d))
    square = whole(compose(ad, d))
    whole(compose(d, square))
    whole(factor_through(square, d))
    whole(cc(d))
    whole(cc(ad).with_name("renamed"))
    rep = param_test(d)
    for op in (rep.operator, rep.adjoint_cc, rep.parametrization, rep.recomputed_cc):
        whole(op)


def written(op):
    """`op`, once its cells, written from its rows, are shown to be the
    text `serialize` gives each Poly of its matrix."""
    assert op.entry_strs() == [[serialize(p) for p in row] for row in op.matrix]
    return op


@given(small_operators())
def test_derived_operators_write_the_cells_of_their_matrix(d):
    written(d)
    written(d.with_name("renamed"))
    ad = written(adjoint(d))
    square = written(compose(ad, d))
    written(compose(d, square))
    written(factor_through(square, d))
    written(cc(d))
    written(cc(ad).with_name("renamed"))
    rep = param_test(d)
    for op in (rep.operator, rep.adjoint_cc, rep.parametrization, rep.recomputed_cc):
        written(op)


def report_texts(rep):
    """Every field of a `param_test` or `ext_module` report as text: each
    operator by its name and document, each tuple item by its text."""
    return [
        (v.name, operator_json(v)) if isinstance(v, LinDiffOp)
        else [str(t) for t in v] if isinstance(v, tuple)
        else v
        for v in rep
    ]


@given(small_operators())
def test_a_warm_report_is_the_report_a_fresh_call_gives(d):
    twin = d.with_name("twin")
    queries = [
        lambda: param_test(d),
        lambda: param_test(twin),
        lambda: ext_module(d, 1),
        lambda: ext_module(d, 2),
    ]

    def texts(query):
        rep = outcome(query)
        return rep if rep is BudgetExceeded else report_texts(rep)

    for query in queries:
        texts(query)
    warm = [texts(query) for query in queries]
    fresh = []
    for query in queries:
        engine.clear_caches()
        fresh.append(texts(query))
    assert warm == fresh


def public_chain(rows, max_steps):
    """The steps of a resolution, each link a public `syzygies` call and a
    public `minimize_generators` call, as `resolve_module` documents it."""
    steps = [tuple(rows)]
    while len(steps) <= max_steps:
        step = tuple(minimize_generators(syzygies(steps[-1])))
        if not step:
            break
        steps.append(step)
    return tuple(steps)


def public_cc_rows(d):
    """The rows of `cc(d)` from public engine calls on `d.rows()`."""
    gens = minimize_generators(syzygies(d.rows()))
    return gens or [FreeElem(Poly(d.nvars) for _ in range(d.target.dim))]


@given(small_operators())
def test_resolutions_and_compatibility_conditions_are_the_public_chain(d):
    res = resolve_module(d.rows())
    conds = cc(d)
    # the public calls compute afresh, on nothing the chain left behind
    engine.clear_caches()
    assert res.steps == public_chain(d.rows(), d.nvars + 1)
    assert conds.rows() == public_cc_rows(d)


@contextmanager
def degree_budget(value):
    """The degree budget set to `value` in the environment for the block."""
    old = os.environ.get(engine.BUDGET_ENV)
    os.environ[engine.BUDGET_ENV] = value
    try:
        yield
    finally:
        if old is None:
            del os.environ[engine.BUDGET_ENV]
        else:
            os.environ[engine.BUDGET_ENV] = old


def outcome(fn):
    """What fn returns, or BudgetExceeded when it raises that."""
    try:
        return fn()
    except BudgetExceeded:
        return BudgetExceeded


@given(small_operators())
def test_every_link_of_a_chain_runs_under_the_callers_budget(d):
    # every result under the default budget is in the memos first, so a
    # link that ran under any other budget would answer from them
    resolve_module(d.rows())
    cc(d)
    with degree_budget("1"):
        steps = outcome(lambda: resolve_module(d.rows()).steps)
        rows = outcome(lambda: cc(d).rows())
        engine.clear_caches()
        assert steps == outcome(lambda: public_chain(d.rows(), d.nvars + 1))
        assert rows == outcome(lambda: public_cc_rows(d))


def test_a_low_budget_stops_chains_whose_memos_are_warm():
    kill = zoo.killing(zoo.euclidean(3))
    # minimized against a base one membership test at a time, since the
    # rows are not homogeneous; each test needs an S-pair above degree 1
    gens = [free_elem(2, [t]) for t in ("d1^2 + 1", "d1*d2")]
    base = [free_elem(2, ["d2^2 + d1"])]
    calls = [
        lambda: resolve_module(kill.rows()),
        lambda: cc(kill),
        lambda: minimize_generators(gens, base=base),
    ]
    for call in calls:
        call()
    with degree_budget("1"):
        for call in calls:
            with pytest.raises(BudgetExceeded):
                call()


@given(small_operators())
def test_resolutions_are_complete_with_the_generic_rank_as_euler_characteristic(d):
    res = resolve_module(d.rows())
    assert res.complete
    assert res.euler_characteristic == d.source.dim - fraction_rank(d.rows())


@st.composite
def homogeneous_rows(draw):
    """Rows as `small_operators` draws them, but with every entry
    homogeneous of one degree, 1 or 2, and a last row that combines them
    with homogeneous cofactors of degree `shift`, 0 or 1; with a
    permutation of the rows and a nonzero rational factor for each."""
    nvars = draw(st.integers(2, 3))
    deg = draw(st.integers(1, 2))

    def form(d):
        mons = [m for m in product(range(d + 1), repeat=nvars) if sum(m) == d]
        terms = st.dictionaries(st.sampled_from(mons), st.integers(-3, 3).filter(bool),
                                max_size=3)
        return Poly(nvars, draw(terms))

    k = draw(st.integers(1, 3))
    width = draw(st.integers(1, k))
    rows = [FreeElem(form(deg) for _ in range(width)) for _ in range(k)]
    shift = draw(st.integers(0, 1))
    cofactors = [form(shift) for _ in range(k)]
    rows.append(FreeElem(sum((r.entries[j] * c for r, c in zip(rows, cofactors)),
                             Poly(nvars)) for j in range(width)))
    order = draw(st.permutations(range(k + 1)))
    factors = draw(st.lists(st.sampled_from(COEFFS), min_size=k + 1, max_size=k + 1))
    return rows, shift, order, factors


# the rows' run harvests 2 relations and the permuted rows' run 3, one of
# them redundant
HARVESTS_DIFFER = (
    [free_elem(3, t) for t in (
        ("0", "3*d2^2"), ("0", "-3*d2^2 + 2*d1*d3 + 2*d2*d3"),
        ("0", "9*d2^2*d3 - 6*d1*d3^2 - 6*d2*d3^2"),
    )],
    1, [2, 1, 0], [1, 1, 1],
)


@example(HARVESTS_DIFFER)
@given(homogeneous_rows())
def test_homogeneous_resolution_shape_survives_row_permutation_and_scaling(case):
    rows, shift, order, factors = case
    res = resolve_module(rows)
    moved = [FreeElem(p * Poly.const(p.nvars, c) for p in rows[i].entries)
             for i, c in zip(order, factors)]
    again = resolve_module(moved)
    # the graded Betti numbers
    assert (again.dims, again.complete) == (res.dims, res.complete)
    if not shift:
        # all rows of one degree: each step's orders are its generators'
        # degrees in the grading that makes the rows homogeneous, shifted
        # by the rows' degree
        assert again.orders == res.orders

"""Module engine: Groebner bases, syzygies, minimization, resolutions."""

import hashlib
from fractions import Fraction
from itertools import combinations_with_replacement
from random import Random

import pytest
from hypothesis import given, strategies as st

from dgcalc import zoo
from dgcalc.engine import (
    BUDGET_ENV,
    BudgetExceeded,
    FreeElem,
    GroebnerBasis,
    divide_with_cofactors,
    fraction_rank,
    minimize_generators,
    module_contains,
    module_equal,
    reduced_groebner,
    resolve_module,
    syzygies,
)
from dgcalc.operators import cc
from dgcalc.poly import Poly, parse


def fe(*entries, n=2):
    return FreeElem([parse(s, n) for s in entries])


# -- brute-force oracle ----------------------------------------------------------


def monomials_upto(nvars, cap):
    out = []
    for deg in range(cap + 1):
        for combo in combinations_with_replacement(range(nvars), deg):
            m = [0] * nvars
            for i in combo:
                m[i] += 1
            out.append(tuple(m))
    return out


def dense_nullspace(matrix):
    """Nullspace basis of a dense Fraction matrix, plain Gauss-Jordan."""
    rows = [list(r) for r in matrix]
    ncols = len(rows[0]) if rows else 0
    pivots = {}
    r = 0
    for c in range(ncols):
        for i in range(r, len(rows)):
            if rows[i][c]:
                rows[r], rows[i] = rows[i], rows[r]
                break
        else:
            continue
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots[c] = r
        r += 1
    basis = []
    for c in range(ncols):
        if c in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[c] = Fraction(1)
        for pc, pr in pivots.items():
            if rows[pr][c]:
                vec[pc] = -rows[pr][c]
        basis.append(vec)
    return basis


def brute_force_relations(rows, cap):
    """Every relation among `rows` with cofactors of degree <= cap, found by
    linear algebra alone.  Independent of the Groebner machinery."""
    k = len(rows)
    nvars = rows[0].nvars
    width = rows[0].width
    mons = monomials_upto(nvars, cap)
    cols = []
    out_monos = {}

    def slot(j, m):
        key = (j, m)
        if key not in out_monos:
            out_monos[key] = len(out_monos)
        return out_monos[key]

    entries = []
    for i, row in enumerate(rows):
        for m in mons:
            col = {}
            for j, p in enumerate(row.entries):
                for pm, pc in p.terms.items():
                    col[slot(j, tuple(a + b for a, b in zip(pm, m)))] = pc
            cols.append(col)
            entries.append((i, m))
    nrows = len(out_monos)
    dense = [[Fraction(0)] * len(cols) for _ in range(nrows)]
    for cidx, col in enumerate(cols):
        for ridx, v in col.items():
            dense[ridx][cidx] = v
    basis = dense_nullspace(dense)
    found = []
    for vec in basis:
        comps = [Poly(nvars) for _ in range(k)]
        for cidx, v in enumerate(vec):
            if v:
                i, m = entries[cidx]
                comps[i] = comps[i] + Poly(nvars, {m: v})
        found.append(FreeElem(comps))
    return found


# -- Groebner bases ----------------------------------------------------------------


def test_reduced_basis_of_module_toy_example():
    gens = [fe("d1", "0"), fe("0", "d1"), fe("d2", "d1")]
    gb = reduced_groebner(gens)
    assert [str(g) for g in gb.generators] == ["(d2, 0)", "(d1, 0)", "(0, d1)"]


def test_reduced_basis_scalar_ideal():
    gb = reduced_groebner([fe("d1 + d2"), fe("d1*d2")])
    assert [str(g) for g in gb.generators] == ["(d1 + d2)", "(d2^2)"]
    assert gb.contains(fe("d1^2"))
    assert gb.contains(fe("d2^2"))
    assert not gb.contains(fe("d1"))
    assert not gb.contains(fe("1"))


def test_reduced_basis_is_unique_under_permutation():
    rows = zoo.cauchy(zoo.euclidean(3)).rows()
    base = reduced_groebner(rows)
    rng = Random(11)
    for _ in range(4):
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert reduced_groebner(shuffled) == base


def test_normal_form_detects_membership():
    gens = [fe("d1 + d2"), fe("d1*d2")]
    gb = reduced_groebner(gens)
    assert gb.normal_form(fe("d1^2 - d2^2")).is_zero()
    assert gb.normal_form(fe("d1^2 + d1*d2 + d2^2")).is_zero()
    nf = gb.normal_form(fe("d1^2 + 1"))
    assert str(nf) == "(1)"
    assert gb.normal_form(nf) == nf


def test_module_contains_and_equal():
    a = [fe("d1", "0"), fe("0", "d2")]
    b = [fe("d1", "0"), fe("d1", "d2")]
    assert module_equal(a, b)
    assert not module_equal(a, [fe("d1", "0"), fe("0", "d1")])
    assert module_contains(a, fe("d1*d2", "d2^2"))
    assert not module_contains(a, fe("d2", "0"))


def test_divide_with_cofactors_identity_and_remainder():
    gens = [fe("d1 + d2"), fe("d1*d2")]
    elem = fe("d1^3 + 5")
    quot, rem = divide_with_cofactors(elem, gens)
    recon = FreeElem([sum(
        (q * g.entries[0] for q, g in zip(quot.entries, gens)), Poly(2)
    ) + rem.entries[0]])
    assert recon == elem
    assert rem == reduced_groebner(gens).normal_form(elem)


def test_mixed_nvars_is_rejected_at_every_entry_point():
    two = FreeElem([parse("d1", 2)])
    three = FreeElem([parse("d1*d3 + d2", 3)])
    for fn in (syzygies, reduced_groebner, fraction_rank):
        with pytest.raises(ValueError, match="nvars"):
            fn([two, three])
    with pytest.raises(ValueError, match="nvars"):
        reduced_groebner([two]).normal_form(three)
    with pytest.raises(ValueError, match="nvars"):
        divide_with_cofactors(three, [two])
    with pytest.raises(ValueError, match="nvars"):
        minimize_generators([three], base=[two])
    assert not module_equal([two], [three])


class _Row(FreeElem):
    """A FreeElem subclass: the row check takes its instances as rows."""

    __slots__ = ()


# the public calls that check their rows with `engine._as_elems`; each
# takes a list of rows of width 2 over 2 variables
ROW_CHECKED = {
    "reduced_groebner": reduced_groebner,
    "syzygies": syzygies,
    "minimize_generators": minimize_generators,
    "resolve_module": resolve_module,
    "fraction_rank": fraction_rank,
    "divide_with_cofactors": lambda rows: divide_with_cofactors(fe("d1^2", "d1*d2"), rows),
}


def _answer(value):
    """A public call's answer as text, whatever its kind."""
    if isinstance(value, tuple) and hasattr(value, "steps"):
        return value.complete, [[str(e) for e in step] for step in value.steps]
    if isinstance(value, (tuple, list, GroebnerBasis)):
        return [_answer(v) for v in value]
    return str(value)


@pytest.mark.parametrize("name", sorted(ROW_CHECKED))
def test_the_row_check_of_every_public_call(name, clear_engine_caches):
    call = ROW_CHECKED[name]
    width = [fe("d1", "d2"), fe("d1")]
    nvars = [fe("d1", "d2"), fe("d1", "d3", n=3)]
    # the first mismatch decides, and width is compared before nvars
    both = [fe("d1", "d2"), fe("d3", n=3), fe("d1", "d2", n=3)]
    for rows, text in [(width, "generators of mixed width"),
                       (nvars, "generators of mixed nvars"),
                       (both, "generators of mixed width")]:
        with pytest.raises(ValueError) as exc:
            call(rows)
        assert str(exc.value) == text
    # every row is converted before a shape is compared
    unconvertible = [fe("d1", "d2"), fe("d1"), [parse("d1", 2), parse("d3", 3)]]
    with pytest.raises(ValueError) as exc:
        call(unconvertible)
    assert str(exc.value) == "mixed nvars inside one element"
    with pytest.raises(ValueError) as exc:
        call([fe("d1", "d2"), ()])
    assert str(exc.value) == "free module elements need positive width"
    if name in ("minimize_generators", "fraction_rank"):
        # no rows: nothing to minimize, rank 0
        assert call([]) in ([], 0)
    else:
        with pytest.raises(ValueError) as exc:
            call([])
        assert str(exc.value) == "empty generator list: width is undetermined"
    # rows given as Poly sequences are converted with FreeElem(row), and
    # rows of a FreeElem subclass are taken as they are
    texts = [("d1^2", "d1*d2 - 1"), ("d1*d2", "d2^2"), ("d2", "0")]
    elems = [fe(*t) for t in texts]
    polys = [[parse(c, 2) for c in texts[0]], tuple(parse(c, 2) for c in texts[1]),
             elems[2]]
    subclass = [_Row(parse(c, 2) for c in t) for t in texts]
    clear_engine_caches()
    expected = _answer(call(elems))
    for rows in (polys, subclass):
        clear_engine_caches()
        assert _answer(call(rows)) == expected


def test_rows_that_pass_the_check_are_kept_as_given(clear_engine_caches):
    rows = [_Row(parse(c, 2) for c in t) for t in [("d1", "d2"), ("d2^2", "0")]]
    clear_engine_caches()
    first = resolve_module(rows).steps[0]
    assert all(e is r for e, r in zip(first, rows)) and len(first) == 2
    converted = resolve_module([list(r.entries) for r in rows]).steps[0]
    assert converted is first
    clear_engine_caches()
    converted = resolve_module([list(r.entries) for r in rows]).steps[0]
    assert converted == first and type(converted[0]) is FreeElem


def test_budget_stops_runaway_pairs(monkeypatch):
    monkeypatch.setenv("DGCALC_BUDGET_DEGREE", "1")
    with pytest.raises(BudgetExceeded):
        reduced_groebner(zoo.killing(zoo.euclidean(2)).rows())


def _warm_queries():
    """Each warm query kind of a session on killing e4, as (call, args),
    with the text of its answer."""
    from dgcalc.duality import ext_module, param_test
    from dgcalc.operators import adjoint, compose, factor_through, operator_json
    from test_operator_properties import report_texts

    op = zoo.killing(zoo.euclidean(4))
    rows = op.rows()
    return {
        "resolve": (resolve_module, (rows,), _answer),
        "cc": (cc, (op,), operator_json),
        "param_test": (param_test, (op,), report_texts),
        "ext1": (ext_module, (op, 1), report_texts),
        "ext2": (ext_module, (op, 2), report_texts),
        "rank": (fraction_rank, (rows,), str),
        "factor": (factor_through, (compose(adjoint(op), op), op), operator_json),
    }


def _outcome(query):
    """The text of a query's answer, or BudgetExceeded when it raises that."""
    call, args, text = query
    try:
        return text(call(*args))
    except BudgetExceeded:
        return BudgetExceeded


@pytest.mark.parametrize("kind", ["resolve", "cc", "param_test", "ext2"])
def test_a_warm_query_reads_the_budget_on_every_call(kind, monkeypatch,
                                                     clear_engine_caches):
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    clear_engine_caches()
    call, args, text = query = _warm_queries()[kind]
    kept = call(*args)
    assert call(*args) is kept
    warm = {}
    for value in ("1", "14"):
        monkeypatch.setenv(BUDGET_ENV, value)
        warm[value] = _outcome(query)
        monkeypatch.delenv(BUDGET_ENV)
        assert call(*args) is kept
    for value in ("x", "-1"):
        monkeypatch.setenv(BUDGET_ENV, value)
        with pytest.raises(ValueError) as exc:
            call(*args)
        assert str(exc.value) == f"{BUDGET_ENV}={value!r} is not a nonnegative integer"
    # a fresh process under each budget: every memo empty, new operators
    for value in ("1", "14"):
        monkeypatch.setenv(BUDGET_ENV, value)
        clear_engine_caches()
        assert _outcome(_warm_queries()[kind]) == warm[value]
    # the adjoint of killing e4 has 4 free rows, so Ext^2 needs no S-pair
    # even under budget 0; the other kinds need pairs above degree 1
    assert (warm["1"] is BudgetExceeded) == (kind != "ext2")
    assert warm["14"] == text(kept)


# -- syzygies ------------------------------------------------------------------------


def test_syzygies_of_gradient_are_the_curl_rows():
    rows = zoo.grad(3).rows()
    syz = syzygies(rows)
    for s in syz:
        assert s.dot(rows).is_zero()
    assert module_equal(syz, zoo.curl().rows())


def test_syzygies_sound_on_sampled_operators():
    ops = [
        zoo.killing(zoo.euclidean(2)),
        zoo.cauchy(zoo.euclidean(3)),
        zoo.conformal_killing(zoo.euclidean(3)),
        zoo.cosserat_spencer(),
    ]
    for op in ops:
        rows = op.rows()
        for s in syzygies(rows):
            assert s.dot(rows).is_zero()


@pytest.mark.parametrize("builder, cap", [
    (lambda: zoo.killing(zoo.euclidean(2)).rows(), 3),
    (lambda: zoo.grad(3).rows(), 2),
    (lambda: zoo.cosserat_spencer().rows(), 2),
    (lambda: [fe("d1", "0"), fe("0", "d1"), fe("d2", "d1")], 3),
])
def test_syzygies_complete_against_brute_force(builder, cap):
    rows = builder()
    computed = syzygies(rows)
    low_degree = brute_force_relations(rows, cap)
    assert low_degree, "oracle found nothing; the test would be vacuous"
    for rel in low_degree:
        assert rel.dot(rows).is_zero()
        assert module_contains(computed, rel) if computed else rel.is_zero()


def test_syzygies_empty_for_free_rows():
    assert syzygies([fe("d1", "0"), fe("0", "d2")]) == []


# -- minimization ---------------------------------------------------------------------


def test_minimize_drops_redundant_generators():
    rows = [fe("d1", "0"), fe("0", "d2"), fe("d1", "d2"), fe("d1*d2", "0")]
    kept = minimize_generators(rows)
    assert [str(x) for x in kept] == ["(d1, 0)", "(d1, d2)"]
    assert module_equal(kept, rows)


def test_minimize_sees_lower_degree_generators_in_every_term():
    # (d1, -d1) = (d1 + d2) * (1, 0) - (d2, d1): only the tail term d2 of
    # (d2, d1) meets the shifts of (1, 0), so a test that reduces leading
    # terms alone keeps all three generators
    rows = [fe("1", "0"), fe("d2", "d1"), fe("-d1", "d1")]
    kept = minimize_generators(rows)
    assert [str(x) for x in kept] == ["(1, 0)", "(d2, d1)"]
    assert module_equal(kept, rows)


def test_minimize_modulo_a_base_module_off_the_graded_path():
    # (0, d2) comes first in (degree, text) order and is dropped, being
    # (d1 + 1, d2) minus the base row
    gens = [fe("d1 + 1", "d2"), fe("0", "d2")]
    kept = minimize_generators(gens, base=[fe("d1 + 1", "0")])
    assert [str(x) for x in kept] == ["(d1 + 1, d2)"]


def test_minimize_is_deterministic_under_permutation():
    rows = syzygies(zoo.killing(zoo.minkowski(4)).rows())
    base = minimize_generators(rows)
    rng = Random(20260816)
    for _ in range(3):
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert minimize_generators(shuffled) == base


def test_minimize_of_empty_input_is_empty():
    # an empty relation list is a normal input: a module with no syzygies
    assert minimize_generators([]) == []
    assert minimize_generators([], base=[fe("d1", "0")]) == []
    assert minimize_generators([fe("0", "0")]) == []


# -- rank ------------------------------------------------------------------------------


def test_fraction_rank_on_fixed_matrices():
    assert fraction_rank([fe("d1", "d2"), fe("d1", "d2")]) == 1
    assert fraction_rank([fe("d1", "0"), fe("0", "d2")]) == 2
    assert fraction_rank([]) == 0
    assert fraction_rank([fe("0", "0")]) == 0


def test_fraction_rank_of_random_products_is_inner_dimension(seed=20260816):
    rng = Random(seed)

    def rnd_poly():
        terms = {}
        for _ in range(2):
            m = tuple(rng.randint(0, 1) for _ in range(3))
            terms[m] = terms.get(m, 0) + rng.randint(-3, 3)
        return Poly(3, {m: Fraction(c) for m, c in terms.items() if c})

    a = [[rnd_poly() for _ in range(2)] for _ in range(3)]
    b = [[rnd_poly() for _ in range(4)] for _ in range(2)]
    prod = [
        [
            sum((a[i][k] * b[k][j] for k in range(2)), Poly(3))
            for j in range(4)
        ]
        for i in range(3)
    ]
    assert fraction_rank([FreeElem(r) for r in prod]) == 2


# -- resolutions -----------------------------------------------------------------------


def test_resolution_of_gradient_quotient():
    res = resolve_module(zoo.grad(3).rows())
    assert res.dims == (3, 3, 1)
    assert res.complete
    assert res.euler_characteristic == 0
    # each step is a complex and generates the relations of the previous
    steps = [list(s) for s in res.steps]
    for k in range(1, len(steps)):
        for s in steps[k]:
            assert s.dot(steps[k - 1]).is_zero()


def test_resolution_respects_step_budget():
    res = resolve_module(zoo.grad(3).rows(), max_steps=1)
    assert res.dims == (3, 3)
    assert not res.complete


def test_resolution_rejects_a_negative_step_budget():
    with pytest.raises(ValueError, match="max_steps must be nonnegative"):
        resolve_module(zoo.grad(3).rows(), max_steps=-1)


def test_resolution_of_free_module_stops_immediately():
    res = resolve_module([fe("d1", "0"), fe("0", "d2")])
    assert res.dims == (2,)
    assert res.complete
    assert res.euler_characteristic == 0


def test_clear_caches_empties_every_module_cache():
    from dgcalc import clear_caches, engine, report

    rows = zoo.grad(3).rows()
    resolve_module(rows)
    reduced_groebner(rows)
    divide_with_cofactors(rows[0], rows)
    report._op("killing", zoo.euclidean(3))
    used = (engine._tracked, report._op)
    # 1 in the engine, 1 in the report
    assert len(engine._MEMOS) == 2
    assert all(memo in engine._MEMOS for memo in used)
    assert all(memo.cache_info().currsize for memo in used)
    clear_caches()
    assert not any(memo.cache_info().currsize for memo in engine._MEMOS)


def _warm_work(monkeypatch):
    """[Buchberger runs, `_minimal_relations` calls], counted from here on,
    in every module that calls `_minimal_relations`."""
    from dgcalc import duality, engine, operators

    work = [0, 0]
    run, minimal = engine._Run.run, engine._minimal_relations

    def counted_run(self):
        work[0] += 1
        return run(self)

    def counted_minimal(*args):
        work[1] += 1
        return minimal(*args)

    monkeypatch.setattr(engine._Run, "run", counted_run)
    for module in (engine, operators, duality):
        monkeypatch.setattr(module, "_minimal_relations", counted_minimal)
    return work


@pytest.mark.parametrize("query", [
    lambda op: resolve_module(op.rows()),
    lambda op: resolve_module(op.rows(), max_steps=1),
    lambda op: cc(op),
    lambda op: cc(zoo.div(op.nvars)),
], ids=["resolve", "resolve-1-step", "cc", "cc-no-relations"])
def test_a_repeated_query_returns_what_the_first_one_kept(query, monkeypatch,
                                                         clear_engine_caches):
    from dgcalc import engine

    op = zoo.killing(zoo.euclidean(4))
    clear_engine_caches()
    first = query(op)
    misses = engine._tracked.cache_info().misses
    work = _warm_work(monkeypatch)
    assert query(op) is first
    assert engine._tracked.cache_info().misses == misses
    assert work == [0, 0]
    # the memo emptied, with its counts, what its runs kept goes with them:
    # the next call is a miss that builds the answer again
    clear_engine_caches()
    again = query(op)
    assert again is not first and again == first
    assert engine._tracked.cache_info().misses
    assert work[0] and work[1]


def test_a_resolution_of_no_step_starts_no_run(clear_engine_caches):
    from dgcalc import engine

    rows = zoo.killing(zoo.euclidean(3)).rows()
    clear_engine_caches()
    for _ in range(2):
        res = resolve_module(rows, max_steps=0)
        assert res.steps == (tuple(rows),) and not res.complete
    assert engine._tracked.cache_info().currsize == 0


def _copies(rows):
    """Elements equal to rows that carry nothing a call kept on them."""
    return [FreeElem._make(r.width, r.nvars, dict(r.terms), 1, r.den) for r in rows]


@pytest.mark.parametrize("rows, rank", [
    (zoo.killing(zoo.euclidean(4)).rows(), 4),
    # below full rank at the point, so read off the rows' run
    (zoo.curl().rows(), 2),
    ([fe("d1", "d2"), fe("d1^2", "d1*d2"), fe("0", "0")], 1),
], ids=["killing-e4", "curl", "rank-one"])
def test_a_repeated_rank_evaluates_no_monomial(rows, rank, monkeypatch):
    from dgcalc import engine

    rows = _copies(rows)
    # each monomial's value at the point is a product of modular powers
    powers = []
    monkeypatch.setattr(engine, "pow", lambda *args: powers.append(args) or pow(*args),
                        raising=False)
    assert fraction_rank(rows) == rank
    assert powers
    powers.clear()
    assert fraction_rank(rows) == rank
    assert powers == []
    # the kept values, pivots of eliminations in other orders, stay as
    # first evaluated
    assert fraction_rank(rows[::-1]) == fraction_rank(rows[1:] + rows[:1]) == rank
    fresh = _copies(rows)
    for copy, row in zip(fresh, rows):
        fraction_rank([copy])
        fraction_rank([row])
    assert [r._point for r in rows] == [r._point for r in fresh]


def test_cold_report_builds_each_fixture_once(clear_engine_caches):
    from dgcalc import report

    clear_engine_caches()
    assert all(r.passed for r in report.run_report())
    assert [name for name, value in vars(zoo).items() if hasattr(value, "cache_info")] == []
    # one miss per distinct (constructor, arguments) key, so each fixture is
    # built once however many checks share it
    info = report._op.cache_info()
    assert info.misses == 30
    assert info.hits


def test_every_cache_is_a_registered_memo():
    import importlib
    import pkgutil

    import dgcalc
    from dgcalc import engine

    modules = [dgcalc] + [
        importlib.import_module(f"dgcalc.{info.name}")
        for info in pkgutil.iter_modules(dgcalc.__path__)
    ]
    caches = [
        (module.__name__, name)
        for module in modules
        for name, value in vars(module).items()
        if hasattr(value, "cache_clear") and value not in engine._MEMOS
    ]
    assert caches == []


def test_one_buchberger_run_serves_syzygies_division_and_basis(
    monkeypatch, clear_engine_caches
):
    from dgcalc import engine
    from dgcalc.operators import compose, factor_through

    runs = []
    run = engine._Run.run

    def counted(self):
        runs.append(self.red.pack.split)
        return run(self)

    monkeypatch.setattr(engine._Run, "run", counted)
    b = zoo.curl()
    clear_engine_caches()
    cc(b)
    factor_through(compose(b, b), b)
    reduced_groebner(b.rows())
    assert runs == [3]
    info = engine._tracked.cache_info()
    assert (info.currsize, info.misses) == (1, 1)
    assert info.hits >= 2


@pytest.mark.parametrize("rows", [
    zoo.curl().rows(),
    zoo.killing(zoo.minkowski(2)).rows(),
    [fe("d1^2 + d2", "1"), fe("d1*d2", "d2 - 3"), fe("d2^2", "d1")],
])
def test_basis_syzygies_and_cofactors_do_not_depend_on_cache_order(
    rows, clear_engine_caches
):
    elem = FreeElem(p + q * q + Poly.const(p.nvars, 7)
                    for p, q in zip(rows[0].entries, rows[-1].entries))

    def basis():
        return "\n".join(map(str, reduced_groebner(rows)))

    def relations():
        return "\n".join(map(str, syzygies(rows)))

    def cofactors():
        quot, rem = divide_with_cofactors(elem, rows)
        return str(quot) + " | " + str(rem)

    steps = (basis, relations, cofactors)
    clear_engine_caches()
    forward = [f() for f in steps]
    clear_engine_caches()
    backward = [f() for f in reversed(steps)][::-1]
    assert forward == backward


def test_resolution_cold_rerun_agrees(clear_engine_caches):
    rows = zoo.conformal_killing(zoo.euclidean(3)).rows()
    first = resolve_module(rows).steps
    clear_engine_caches()
    assert resolve_module(rows).steps == first


# sha256 of the steps' text, one row per line and steps separated by a blank
# line: pins the representatives and their (degree, text) order, not just dims
PINNED_RESOLUTIONS = {
    ("conformal_killing", 5): (
        (14, 35, 35, 14, 5),
        "3fd7cac5b9e39cf7fb3e7488633d395ea92a3761ba88b13840eb0fb5d7bf9238",
    ),
    ("killing", 4): (
        (10, 20, 20, 6),
        "cf6e13b1204aedbb3b792703e53aa1693945167394eb3394d7eea26fb23ce764",
    ),
    # wide steps: 140 relations in the widest
    ("conformal_killing", 6): (
        (20, 84, 140, 84, 20, 6),
        "e379ff8a53902decdf05bc3a93db1644ebb2e48ac347f43180a421f3739ac915",
    ),
    # zeroth-order terms: every step mixes degrees
    ("cosserat_spencer", 2): (
        (6, 3),
        "62fc4387550c7fa62a2777264de2d92ee39b2b4514699706941d6a08e1c5f8a9",
    ),
    ("cosserat_parametrization", 2): (
        (6, 3),
        "5bedc3f3549ad0cc58e6f9da867e81e46ccaee677f6d706d79fcef9ff3fb25ba",
    ),
}


@pytest.mark.parametrize("name,n", sorted(PINNED_RESOLUTIONS))
def test_cold_resolution_bytes_are_pinned(name, n, clear_engine_caches):
    dims, digest = PINNED_RESOLUTIONS[name, n]
    clear_engine_caches()
    res = resolve_module(zoo.build(name, n=n).rows())
    text = "\n\n".join("\n".join(map(str, step)) for step in res.steps)
    assert res.dims == dims
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _recomputed(rel):
    """The same element built afresh, so nothing about it is known yet."""
    return FreeElem._make(rel.width, rel.nvars, dict(rel.terms), 1, rel.den)


def _assert_marks_hold(rows):
    """Each relation carries its degree, its homogeneity and its normal
    form from the run; recomputed from its terms, all three agree."""
    for rel in syzygies(rows):
        fresh = _recomputed(rel)
        assert rel.degree() == fresh.degree() == max(sum(m) for _, m in rel.terms)
        assert rel.is_homogeneous() == fresh.is_homogeneous()
        assert fresh.is_homogeneous() == (len({sum(m) for _, m in rel.terms}) == 1)
        # marked normalized, and normalized indeed
        assert rel.normalized() is rel
        assert fresh.normalized() == rel


@pytest.mark.parametrize("name,n", sorted(PINNED_RESOLUTIONS))
def test_zoo_relations_carry_what_the_run_knows(name, n):
    for step in resolve_module(zoo.build(name, n=n).rows()).steps:
        _assert_marks_hold(step)


@st.composite
def operator_rows(draw):
    """Two to four rows of width one or two in two variables: entries of
    degree 1-2, with or without zeroth-order terms."""
    zeroth = draw(st.booleans())
    monos = [m for m in monomials_upto(2, 2) if zeroth or sum(m) > 0]
    width = draw(st.integers(1, 2))
    terms = st.dictionaries(st.sampled_from(monos), st.integers(-3, 3), min_size=1, max_size=3)
    return [FreeElem(Poly(2, draw(terms)) for _ in range(width))
            for _ in range(draw(st.integers(width + 1, width + 2)))]


@given(operator_rows())
def test_drawn_relations_carry_what_the_run_knows(rows):
    _assert_marks_hold(rows)


# over the runs of one cold resolution: S-pairs reduced, relations harvested
# and tracking-basis elements; then the relations the resolution keeps.  The
# engine's work, which a change of term representation must leave alone.
PINNED_WORK = {
    5: (189, 151, 141, 89),
    6: (565, 495, 424, 334),
}


@pytest.mark.parametrize("n", sorted(PINNED_WORK))
def test_cold_resolution_work_is_pinned(n, monkeypatch, clear_engine_caches):
    from dgcalc import engine

    work = [0, 0, 0]
    spair, run = engine._Run._spair, engine._Run.run

    def counted_spair(self, *args):
        work[0] += 1
        return spair(self, *args)

    def counted_run(self):
        run(self)
        work[1] += len(self.harvest)
        work[2] += len(self.red.basis)

    monkeypatch.setattr(engine._Run, "_spair", counted_spair)
    monkeypatch.setattr(engine._Run, "run", counted_run)
    clear_engine_caches()
    res = resolve_module(zoo.conformal_killing(zoo.euclidean(n)).rows())
    assert (*work, sum(map(len, res.steps[1:]))) == PINNED_WORK[n]


# the frames of dgcalc's code that one warm query of each kind enters on
# killing e4, the query's own call included: the lookup and the boundary
# around it, with one `FreeElem.__hash__` per row of each row set in a
# key, and nothing outside the package (no `os.environ` read through
# `os.py` or `_collections_abc.py`, no `Bundle.__hash__`, no import)
PINNED_WARM_FRAMES = {
    "resolve": 14,
    "cc": 12,
    "param_test": 12,
    "ext1": 8,
    "ext2": 8,
    "rank": 3,
    "factor": 18,
}


def test_a_warm_query_enters_only_its_lookup(monkeypatch, clear_engine_caches):
    import os
    import sys

    import dgcalc

    monkeypatch.delenv(BUDGET_ENV, raising=False)
    clear_engine_caches()
    queries = _warm_queries()
    for call, args, _ in queries.values():
        call(*args)
        call(*args)
    package = os.path.dirname(dgcalc.__file__)
    entered = {}
    for kind, (call, args, _) in queries.items():
        codes = []

        def hook(frame, event, arg):
            if event == "call":
                codes.append(frame.f_code)

        old = sys.getprofile()
        sys.setprofile(hook)
        try:
            call(*args)
        finally:
            sys.setprofile(old)
        # setprofile(old) itself is a C call, not a frame
        places = [(os.path.basename(c.co_filename), c.co_name) for c in codes]
        assert all(os.path.dirname(c.co_filename) == package for c in codes), (kind, places)
        assert ("operators.py", "__hash__") not in places
        entered[kind] = len(codes)
    assert entered == PINNED_WARM_FRAMES


# S-pairs and `reduce_full` calls of a cold resolution of the Weyl gauge
# system, whose steps are not homogeneous, so each is minimized from the
# relations among its generators
PINNED_NONHOMOGENEOUS_WORK = {3: (22, 67), 4: (238, 606)}


@pytest.mark.parametrize("n", sorted(PINNED_NONHOMOGENEOUS_WORK))
def test_cold_nonhomogeneous_resolution_work_is_pinned(n, monkeypatch, clear_engine_caches):
    from dgcalc import engine

    work = [0, 0]
    spair, reduce_full = engine._Run._spair, engine._Reducer.reduce_full

    def counted_spair(self, *args):
        work[0] += 1
        return spair(self, *args)

    def counted_reduce_full(self, *args, **kwargs):
        work[1] += 1
        return reduce_full(self, *args, **kwargs)

    monkeypatch.setattr(engine._Run, "_spair", counted_spair)
    monkeypatch.setattr(engine._Reducer, "reduce_full", counted_reduce_full)
    rows = zoo.weyl_killing(zoo.euclidean(n)).rows()
    clear_engine_caches()
    res = resolve_module(rows)
    assert res.complete
    assert tuple(work) == PINNED_NONHOMOGENEOUS_WORK[n]


# S-pairs, `reduce_full` calls and Buchberger runs of a cold double-duality
# test of the trace-adjusted curvature operator, whose 35 torsion generators
# each need an annihilator found
PINNED_PARAM_TEST_WORK = (498, 1329, 41)


def test_cold_param_test_work_is_pinned(monkeypatch, clear_engine_caches):
    from dgcalc import engine
    from dgcalc.duality import param_test

    work = [0, 0]
    spair, reduce_full = engine._Run._spair, engine._Reducer.reduce_full

    def counted_spair(self, *args):
        work[0] += 1
        return spair(self, *args)

    def counted_reduce_full(self, *args, **kwargs):
        work[1] += 1
        return reduce_full(self, *args, **kwargs)

    monkeypatch.setattr(engine._Run, "_spair", counted_spair)
    monkeypatch.setattr(engine._Reducer, "reduce_full", counted_reduce_full)
    op = zoo.einstein_lin(zoo.euclidean(5))
    clear_engine_caches()
    rep = param_test(op)
    assert len(rep.torsion) == 35
    work.append(engine._tracked.cache_info().misses)
    assert tuple(work) == PINNED_PARAM_TEST_WORK


@pytest.mark.parametrize("rows", [
    zoo.killing(zoo.euclidean(3)).rows(),
    zoo.conformal_killing(zoo.euclidean(3)).rows(),
    zoo.conformal_killing(zoo.minkowski(4)).rows(),
], ids=["killing-e3", "conformal_killing-e3", "conformal_killing-m4"])
def test_resolution_steps_are_multiples_of_verified_relations(rows):
    """Each step keeps normalized relations from `syzygies`, which verified
    them against the previous step, so the resolution need not check again."""
    res = resolve_module(rows)
    assert res.complete
    for prev, step in zip(res.steps, res.steps[1:]):
        relations = syzygies(prev)
        assert all(r.dot(prev).is_zero() for r in relations)
        verified = {r.normalized() for r in relations}
        assert all(s in verified for s in step)

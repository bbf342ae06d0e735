"""The integer kernels behind the inline checks, the rank, the graded
minimizer and the report's nullspace oracle: the annihilation check
against FreeElem.dot, its Kronecker base and its call counts in a cold
report; the number of minimizations in a cold report; the division
check, one FreeElem.dot per division, counted in a cold report and in
one factorization and made to fire on a wrong quotient; the rank (its point certificate and its fallback to the lead
positions of the rows' Buchberger run), the
echelon kernel and the oracle against Fraction-based eliminations written
here; and the oracle's kernels, elimination count and independence from
the engine on the report's own steps."""

import hashlib
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from dgcalc import duality, engine, report, zoo
from dgcalc.engine import (
    FreeElem,
    _Echelon,
    _RowCode,
    _int_rows,
    _rank_point,
    fraction_rank,
    syzygies,
)
from dgcalc.operators import compose, factor_through
from dgcalc.poly import Poly, mono_key, parse
from dgcalc.report import _relations, run_report
from conftest import free_elem

COEFFS = [Fraction(p, q) for p in (-3, -2, -1, 1, 2, 3) for q in (1, 2, 3)]


def _monomials(nvars, cap):
    return [m for m in product(range(cap + 1), repeat=nvars) if sum(m) <= cap]


def _poly(draw, nvars, cap, size=3, coeffs=COEFFS):
    terms = draw(st.dictionaries(st.sampled_from(_monomials(nvars, cap)),
                                 st.sampled_from(coeffs), max_size=size))
    return Poly(nvars, terms)


# -- annihilation ------------------------------------------------------------------


@st.composite
def relations(draw):
    """Rows and a coefficient vector that is a relation among them about
    half the time: the last row is a combination of the others, and the
    relation records that combination, or it is redrawn at random.  The
    rows have degree at most 2 and the multipliers at most 1 or 3, so some
    relations have the higher degree."""
    nvars = draw(st.integers(1, 3))
    width = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    cap = draw(st.sampled_from((1, 3)))
    rows = [FreeElem(_poly(draw, nvars, 2) for _ in range(width)) for _ in range(k)]
    mult = [_poly(draw, nvars, cap) for _ in range(k)]
    last = [sum((p * r.entries[j] for p, r in zip(mult, rows)), Poly(nvars))
            for j in range(width)]
    rows.append(FreeElem(last))
    scale = draw(st.sampled_from(COEFFS))
    coeffs = [p * scale for p in mult] + [Poly.const(nvars, -scale)]
    if draw(st.booleans()):
        coeffs = [_poly(draw, nvars, cap) for _ in range(k + 1)]
    return FreeElem(coeffs), rows


@given(relations())
def test_annihilation_helper_agrees_with_dot(problem):
    rel, rows = problem
    code = _RowCode(_int_rows(rows)[0], max(rel.degree(), 0))
    assert code.annihilates(rel.terms) == rel.dot(rows).is_zero()


@given(relations(), st.integers(0, 2))
def test_one_encoding_checks_any_relation_up_to_its_degree(problem, slack):
    rel, rows = problem
    code = _RowCode(_int_rows(rows)[0], rel.degree() + slack)
    assert code.annihilates(rel.terms) == rel.dot(rows).is_zero()
    # a second check reuses the relation's cached key shifts
    assert code.annihilates(rel.terms) == rel.dot(rows).is_zero()


def _rows(*texts):
    """Integer rows of width 1 in d1, d2."""
    return _int_rows([free_elem(2, [t]) for t in texts])[0]


def test_annihilation_base_counts_row_and_relation_degree():
    # d1 * (d1) - (d2) = d1^2 - d2, which a base of 2, the row degree plus
    # one, would alias to zero: d1^2 and d2 would share a key
    code = _RowCode(_rows("d1", "d2"), 1)
    assert not code.annihilates({(0, (1, 0)): 1, (1, (0, 0)): -1})
    # (d1^2) - (d1*d2): a base of 1, the relation degree plus one, would key
    # both by total degree alone
    code = _RowCode(_rows("d1^2", "d1*d2"), 0)
    assert not code.annihilates({(0, (0, 0)): 1, (1, (0, 0)): -1})
    assert _RowCode(_rows("d1", "d2"), 1).annihilates({(0, (0, 1)): 1, (1, (1, 0)): -1})


def test_an_encoding_refuses_a_relation_above_its_degree():
    code = _RowCode(_rows("d1", "d2"), 1)
    assert code.annihilates({(0, (0, 1)): 1, (1, (1, 0)): -1})
    with pytest.raises(ValueError):
        code.annihilates({(0, (1, 1)): 1, (1, (2, 0)): -1})


def test_annihilation_check_runs_apart_from_the_packing(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the check used the engine's packing")

    for name in ("_Packing", "_Reducer", "_Run"):
        monkeypatch.setattr(engine, name, refused)
    assert _RowCode(_rows("d1", "d2"), 1).annihilates({(0, (0, 1)): 1, (1, (1, 0)): -1})
    assert not _RowCode(_rows("d1", "d2"), 1).annihilates({(0, (0, 1)): 1})


def test_annihilation_helper_rejects_a_relation_changed_by_one_term():
    rows = [free_elem(3, t) for t in (
        ("d1", "1/2*d2^2"),
        ("d2 - 3", "d1*d3"),
        ("d1*d2", "2/3*d3 - d1"),
    )]
    relations = syzygies(rows)
    assert relations
    base = _int_rows(rows)[0]
    for rel in relations:
        coeffs = dict(rel.terms)
        code = _RowCode(base, rel.degree())
        assert code.annihilates(coeffs)
        for key in coeffs:
            changed = dict(coeffs)
            changed[key] += 1
            assert not code.annihilates(changed)
        # a new term on a nonzero row breaks the relation as well
        changed = dict(coeffs)
        changed[(0, (5, 0, 0))] = changed.get((0, (5, 0, 0)), 0) + 1
        assert not _RowCode(base, max(rel.degree(), 5)).annihilates(changed)


def _count_checks(monkeypatch):
    """Record the calling frame of each row encoding and each relation
    check."""
    encodings, checks = [], []
    encode, check = _RowCode.__init__, _RowCode.annihilates

    def counted_encode(self, rows, reldeg):
        encodings.append(sys._getframe(1))
        encode(self, rows, reldeg)

    def counted_check(self, coeffs):
        checks.append(sys._getframe(1))
        return check(self, coeffs)

    monkeypatch.setattr(_RowCode, "__init__", counted_encode)
    monkeypatch.setattr(_RowCode, "annihilates", counted_check)
    return encodings, checks


def _count_dots(monkeypatch):
    """Record the name of the calling function of each `FreeElem.dot`."""
    callers = []
    dot = FreeElem.dot

    def counted_dot(self, rows):
        callers.append(sys._getframe(1).f_code.co_name)
        return dot(self, rows)

    monkeypatch.setattr(FreeElem, "dot", counted_dot)
    return callers


def test_cold_report_checks_every_relation(monkeypatch, clear_engine_caches):
    """Each relation handed out is checked once, by the first request for
    the relations of its row set (`_relations`, the core of `syzygies`);
    the relations of runs that serve only bases, membership and division
    are never decoded or checked.  Each of c08's 10 divisions multiplies
    its identity out once, with `FreeElem.dot`, and encodes nothing."""
    encodings, checks = _count_checks(monkeypatch)
    dots = _count_dots(monkeypatch)
    harvested = []
    run = engine._Run.run

    def counted_run(self):
        run(self)
        harvested.append(len(self.harvest))

    monkeypatch.setattr(engine._Run, "run", counted_run)
    clear_engine_caches()
    assert all(r.passed for r in run_report())
    sites = Counter(f.f_code.co_name for f in checks)
    # the dual-complex checks of each distinct Ext query once: c11 asks
    # Ext^1 and Ext^2 of div3 again after c05, and reads the reports kept
    assert sites == {"_relations": 503, "_ext": 26}
    assert dots.count("_divide") == 10 and "factor_through" not in dots
    # each row set whose relations are read encodes its rows once, and
    # only such row sets encode
    runs = [f for f in encodings if f.f_code.co_name == "_relations"]
    assert len(runs) == len({id(f) for f in runs}) == 58
    assert {id(f) for f in runs} == {id(f) for f in checks if f.f_code.co_name == "_relations"}
    assert sum(len(f.f_locals["relations"]) for f in runs) == 503
    assert sum(harvested) == 633
    assert engine._tracked.cache_info().misses == 103
    # every memo serves traffic in a cold report
    assert all(memo.cache_info().hits for memo in engine._MEMOS)


def test_cold_report_minimizes_a_fixed_number_of_times(monkeypatch, clear_engine_caches):
    """Each row set's minimized relations are built once and kept on its
    run; the minimizer itself keeps nothing, so a row set with relations
    equal to another's minimizes them again."""
    callers = []
    minimal = engine._minimal

    def counted(gens, base, budget):
        callers.append(sys._getframe(1).f_code.co_name)
        return minimal(gens, base, budget)

    # duality imports the core by name
    monkeypatch.setattr(engine, "_minimal", counted)
    monkeypatch.setattr(duality, "_minimal", counted)
    clear_engine_caches()
    assert all(r.passed for r in run_report())
    assert Counter(callers) == {"_minimal_relations": 37, "_ext": 9, "minimize_generators": 1}
    assert engine._tracked.cache_info().misses == 103


@pytest.mark.parametrize("rows", [
    zoo.curl().rows(),
    zoo.killing(zoo.minkowski(2)).rows(),
    zoo.weyl_killing(zoo.euclidean(3)).rows(),
], ids=["curl", "killing-m2", "weyl_killing-e3"])
def test_relations_are_built_on_first_request(rows, monkeypatch, clear_engine_caches):
    """Bases, membership, module equality and division read a run without
    decoding or checking any of its relations; the first `syzygies` call
    checks each relation of the run once, and a repeat call none."""
    encodings, checks = _count_checks(monkeypatch)
    dots = _count_dots(monkeypatch)
    clear_engine_caches()
    gb = engine.reduced_groebner(rows)
    assert gb.contains(rows[0]) and engine.module_equal(rows, rows[::-1])
    elem = FreeElem(p * p + Poly.const(p.nvars, 3) for p in rows[0].entries)
    engine.divide_with_cofactors(elem, rows)
    # the division identity is multiplied out once, and nothing is encoded
    assert encodings == [] and checks == []
    assert dots == ["_divide"]
    run = engine._tracked(tuple(rows), engine._budget())
    assert run.relations is None and run.harvest
    harvested = len(run.harvest)
    relations = syzygies(rows)
    assert len(relations) == harvested
    assert [f.f_code.co_name for f in encodings] == ["_relations"]
    assert [f.f_code.co_name for f in checks] == ["_relations"] * harvested
    # built once: the packed harvest is released, and a repeat call checks none
    assert run.harvest is None
    assert syzygies(rows) == relations
    assert len(encodings) == 1 and len(checks) == harvested


def _c08():
    """c08's factorization: the wave operator after the trace-free
    curvature, and ricci_lin, which it factors through."""
    m4 = zoo.minkowski(4)
    w = zoo.weyl_lin(m4)
    return compose(zoo.dalembertian(m4, w.target), w), zoo.ricci_lin(m4)


def test_division_checks_each_identity_once(monkeypatch, clear_engine_caches):
    """c08's division: each of the 10 rows of the wave operator is divided
    by the rows of ricci_lin, and each division multiplies its identity
    out once, with `FreeElem.dot` inside `_divide`; no row encoding is
    built or kept with the run, and `factor_through` takes no product of
    its own."""
    lhs, ric = _c08()
    assert len(lhs.rows()) == 10
    encodings, checks = _count_checks(monkeypatch)
    dots = _count_dots(monkeypatch)
    clear_engine_caches()
    q = factor_through(lhs, ric)
    assert encodings == [] and checks == []
    assert dots == ["_divide"] * 10
    assert compose(q, ric) == lhs


def test_a_wrong_quotient_fails_the_division_check(monkeypatch, clear_engine_caches):
    """With the run built, a reducer that hands back twice the true scale
    makes every quotient and remainder half what they should be: the
    division check inside `_divide` raises, for a direct division and
    for `factor_through`, which has no check of its own.  The run is
    built by a basis, not a factorization, which would keep its quotient
    and answer the second call without dividing."""
    lhs, ric = _c08()
    clear_engine_caches()
    engine.reduced_groebner(ric.rows())
    reduce_full = engine._Reducer.reduce_full

    def doubled(self, h, keep=None):
        h, num, den = reduce_full(self, h, keep)
        return h, num * 2, den

    monkeypatch.setattr(engine._Reducer, "reduce_full", doubled)
    with pytest.raises(RuntimeError, match="^internal error: division identity failed$"):
        engine.divide_with_cofactors(lhs.rows()[0], ric.rows())
    with pytest.raises(RuntimeError, match="^internal error: division identity failed$"):
        factor_through(lhs, ric)


def test_cold_resolution_check_count(monkeypatch, clear_engine_caches):
    _, checks = _count_checks(monkeypatch)
    clear_engine_caches()
    engine.resolve_module(zoo.conformal_killing(zoo.euclidean(5)).rows())
    assert len(checks) == 151


# -- rank ------------------------------------------------------------------------------


def _reference_div(num: Poly, den: Poly) -> Poly:
    """Exact division over Q by repeatedly cancelling leading terms."""
    quot = Poly(num.nvars)
    dm = max(den.nums, key=mono_key)
    while not num.is_zero():
        m = max(num.nums, key=mono_key)
        e = tuple(a - b for a, b in zip(m, dm))
        assert min(e) >= 0
        step = Poly(num.nvars, {e: Fraction(num.nums[m] * den.den, num.den * den.nums[dm])})
        quot = quot + step
        num = num - step * den
    return quot


def _reference_rank(rows):
    """Fraction-free elimination on Poly entries over Q, rows as given."""
    m = [list(r.entries) for r in rows]
    rank, prev = 0, Poly.const(rows[0].nvars, 1)
    for col in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if not m[r][col].is_zero()), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        for r in range(rank + 1, len(m)):
            c = m[r][col]
            m[r] = [_reference_div(p * m[r][j] - c * m[rank][j], prev)
                    for j in range(len(m[r]))]
        prev = p
        rank += 1
    return rank


@st.composite
def matrices(draw):
    """Random rational matrices padded with zero rows and with rows that
    are polynomial combinations of others, in shuffled order."""
    nvars = draw(st.integers(1, 3))
    width = draw(st.integers(1, 4))
    base = [FreeElem(_poly(draw, nvars, 2) for _ in range(width))
            for _ in range(draw(st.integers(1, 3)))]
    rows = list(base)
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
        p, q = _poly(draw, nvars, 1), _poly(draw, nvars, 1)
        rows.append(FreeElem(p * x + q * y for x, y in zip(a.entries, b.entries)))
    rows += [FreeElem(Poly(nvars) for _ in range(width))] * draw(st.integers(0, 2))
    return draw(st.permutations(rows))


@given(matrices())
def test_fraction_rank_matches_a_fraction_reference(rows):
    assert fraction_rank(rows) == _reference_rank(rows)


def test_fraction_rank_clears_each_row_of_its_denominators():
    rows = [free_elem(2, t) for t in (
        ("1/2*d1", "1/3*d2"), ("3*d1", "2*d2"), ("1/5*d1^2", "0"))]
    assert fraction_rank(rows[:2]) == 1
    assert fraction_rank(rows) == 2
    assert fraction_rank([FreeElem([parse("2/7*d1*d2 - 1/3", 2)])]) == 1


def test_rank_point_is_distinct_primes_for_any_nvars():
    assert _rank_point(0) == ()
    assert _rank_point(5) == (2, 3, 5, 7, 11)
    # 64 primes are kept; a longer point is computed on each call
    for nvars in (64, 65):
        point = _rank_point(nvars)
        assert len(set(point)) == nvars
        assert all(all(p % q for q in range(2, p)) for p in point)
    assert _rank_point(65)[:64] == _rank_point(64)
    # the 64 kept primes are a literal, not computed at import
    assert engine._POINT_PRIMES == engine._primes(64)


def test_fraction_rank_falls_back_when_the_point_drops_rank():
    x1, x2 = _rank_point(2)
    # d1 - x1 vanishes at the point but is not zero
    assert fraction_rank([free_elem(1, [f"d1 - {x1}"])]) == 1
    # determinant x2*d1 - x1*d2: zero at the point, not identically
    rows = [free_elem(2, ("d1", "d2")), free_elem(2, (str(x1), str(x2)))]
    assert fraction_rank(rows) == 2


@st.composite
def matrices_vanishing_on_one_row(draw):
    """A `matrices()` draw with one row multiplied by d1 - x1, which
    vanishes at the rank point, so the point rank is often below full."""
    rows = list(draw(matrices()))
    i = draw(st.integers(0, len(rows) - 1))
    nvars = rows[i].nvars
    factor = Poly(nvars, {(1,) + (0,) * (nvars - 1): 1, (0,) * nvars: -_rank_point(nvars)[0]})
    rows[i] = FreeElem(p * factor for p in rows[i].entries)
    return rows


@given(matrices_vanishing_on_one_row())
def test_fraction_rank_with_a_row_vanishing_at_the_point(rows):
    assert fraction_rank(rows) == _reference_rank(rows)


LEAD_RANKS = """\
from dgcalc import zoo
from dgcalc.engine import fraction_rank
for name, n in (("einstein", 6), ("einstein", 7), ("ricci", 6), ("weyl", 5),
                ("weyl", 6), ("box_weyl", 5)):
    print(fraction_rank(zoo.build(name, n=n).rows()))
"""


def test_deficient_zoo_ranks_answer_in_bounded_time():
    """Each of these ranks is below full and read off the rows' Buchberger
    run, in 0.004-0.036 s cold on a 2-core VM, 0.09 s together.  The 30 s
    timeout covers the process start and slow machines; elimination over
    Z[d1..dn] did not finish einstein e6 alone in 30 s."""
    src = str(Path(engine.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("DGCALC_BUDGET_DEGREE", None)
    done = subprocess.run([sys.executable, "-c", LEAD_RANKS], env=env,
                          capture_output=True, text=True, timeout=30)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.split() == ["15", "21", "15", "9", "14", "9"]


def _count_lead_ranks(monkeypatch) -> list[int]:
    """Record the number of rows each time `fraction_rank` leaves the rank
    to the rows' Buchberger run."""
    sizes = []
    lead_rank = engine._lead_rank

    def counted(elems, budget):
        sizes.append(len(elems))
        return lead_rank(elems, budget)

    monkeypatch.setattr(engine, "_lead_rank", counted)
    return sizes


def test_cold_report_reads_one_rank_off_a_run(monkeypatch, clear_engine_caches):
    sizes = _count_lead_ranks(monkeypatch)
    clear_engine_caches()
    assert all(r.passed for r in run_report())
    # curl's 3x3 matrix has rank 2; every other rank is certified at the point
    assert sizes == [3]


def test_ext_torsion_rank_is_certified_at_the_point(monkeypatch, clear_engine_caches):
    sizes = _count_lead_ranks(monkeypatch)
    ranks = []

    def counted_rank(rows):
        ranks.append(fraction_rank(rows))
        return ranks[-1]

    monkeypatch.setattr(duality, "fraction_rank", counted_rank)
    clear_engine_caches()
    assert duality.ext_module(zoo.einstein_lin(zoo.minkowski(4)), 1).rank == 0
    assert ranks and sizes == []


# -- echelon ---------------------------------------------------------------------------


KEYS = [(pos, m) for pos in range(3) for m in ((0, 0), (1, 0), (0, 1))]


@st.composite
def vector_sequences(draw):
    """Rational vectors over a few (pos, monomial) keys: mostly combinations
    of one to three hidden vectors, so the span stays proper and dependent
    vectors are common, plus zero vectors and fresh random ones."""
    keys = draw(st.lists(st.sampled_from(KEYS), min_size=3, max_size=6, unique=True))
    scalars = st.sampled_from([Fraction(0)] + COEFFS)

    def dense():
        cs = draw(st.lists(scalars, min_size=len(keys), max_size=len(keys)))
        return {k: c for k, c in zip(keys, cs) if c}

    hidden = [dense() for _ in range(draw(st.integers(1, 3)))]
    out = []
    for _ in range(draw(st.integers(3, 8))):
        kind = draw(st.sampled_from(("combination", "zero", "fresh")))
        if kind == "zero":
            v = {}
        elif kind == "fresh":
            v = dense()
        else:
            v = {}
            for w in hidden:
                c = draw(scalars)
                for k, x in w.items():
                    v[k] = v.get(k, 0) + c * x
            v = {k: x for k, x in v.items() if x}
        out.append(v)
    return out


def _reduce(pivots, v):
    """v minus its part in the span of the pivot rows, over Fractions; each
    pivot row is zero at the earlier pivots, so one pass clears them all."""
    v = dict(v)
    for k, row in pivots.items():
        c = v.get(k, 0)
        for kk, x in row.items():
            v[kk] = v.get(kk, 0) - c * x
    return {k: x for k, x in v.items() if x}


def _rank_rises(vectors):
    """For each vector in turn, whether it raises the rank over Q: Gaussian
    elimination on Fractions, pivoting on the smallest key.  Also returns
    the pivot rows, which span the vectors."""
    pivots = {}
    out = []
    for v in vectors:
        v = _reduce(pivots, v)
        if v:
            k = min(v)
            pivots[k] = {kk: x / v[k] for kk, x in v.items()}
        out.append(bool(v))
    return out, pivots


@given(vector_sequences())
def test_echelon_insert_answers_whether_the_rank_rises(vectors):
    ech = _Echelon()
    got = []
    for v in vectors:
        den = lcm(*(x.denominator for x in v.values()))
        got.append(ech.insert({k: int(x * den) for k, x in v.items()}))
    expected, pivots = _rank_rises(vectors)
    assert got == expected
    # as many stored rows as the rank, each primitive and in the span
    assert len(ech.rows) == len(pivots)
    for row in ech.rows.values():
        assert gcd(*row.values()) == 1
        assert not _reduce(pivots, row)


# -- the report's nullspace oracle -------------------------------------------------------


@st.composite
def sparse_matrices(draw):
    """Sparse rational matrices as rows {col: value}: random rows plus
    rational combinations of them, in shuffled order, so the rank is often
    below both the row and the column count."""
    cols = draw(st.integers(1, 8))
    cells = st.dictionaries(st.integers(0, cols - 1), st.sampled_from(COEFFS), max_size=4)
    rows = draw(st.lists(cells, min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        v = {}
        for _ in range(2):
            row, c = draw(st.sampled_from(rows)), draw(st.sampled_from(COEFFS))
            for k, x in row.items():
                v[k] = v.get(k, 0) + c * x
        rows.append({k: x for k, x in v.items() if x})
    return cols, draw(st.permutations(rows))


@given(sparse_matrices())
# the relations of columns 2 and 3 each combine both earlier columns
@example((4, [{0: Fraction(1), 1: Fraction(1)},
              {1: Fraction(1), 2: Fraction(1), 3: Fraction(1)}]))
# a zero row, and a column that no row mentions: a zero vector
@example((3, [{}, {0: Fraction(2), 1: Fraction(-1)}]))
def test_sparse_nullspace_is_a_full_integer_kernel_basis(problem):
    cols, rows = problem
    # each row cleared of its denominators: the same nullspace
    ints = []
    for row in rows:
        den = lcm(*(x.denominator for x in row.values()))
        ints.append({c: int(x * den) for c, x in row.items()})
    # the oracle takes the matrix by columns
    columns = [{r: row[c] for r, row in enumerate(ints) if c in row} for c in range(cols)]
    basis = _relations(columns)
    rank = len(_rank_rises(rows)[1])
    assert len(basis) == cols - rank
    for v in basis:
        assert all(type(x) is int and x for x in v.values())
        # primitive, and positive on the column it writes through the others
        assert gcd(*v.values()) == 1 and v[max(v)] > 0
        for row in rows:
            assert sum(x * v.get(c, 0) for c, x in row.items()) == 0
    # the vectors are independent, so they span the whole kernel
    assert all(_rank_rises([{c: Fraction(x) for c, x in v.items()} for v in basis])[0])


# sha256 of the oracle's kernels, one line per step that the finite-degree
# check hands it, each relation primitive; after normalized() they equal, in
# order, the kernels the nullspace of the equation matrix first gave
KERNEL_DIGEST = "e7ea2b35e61757a9bfe0a99dc4caad2486ab77646bebf3567857b5f060267ac0"


def test_finite_degree_kernels_are_pinned(monkeypatch):
    texts = []
    kernel = report._truncated_kernel

    def recorded(rows, cap):
        out = kernel(rows, cap)
        texts.append(str(out))
        return out

    monkeypatch.setattr(report, "_truncated_kernel", recorded)
    assert report._finite_degree_exactness()
    assert len(texts) == 23
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == KERNEL_DIGEST


def test_cold_report_makes_a_fixed_number_of_eliminations(monkeypatch, clear_engine_caches):
    calls = []
    eliminate = report._eliminate

    def counted(row, piv, c):
        calls.append(c)
        eliminate(row, piv, c)

    monkeypatch.setattr(report, "_eliminate", counted)
    clear_engine_caches()
    assert all(r.passed for r in run_report())
    # every elimination is the finite-degree oracle's
    assert len(calls) == 1064


def test_oracle_runs_no_engine_elimination(monkeypatch):
    steps = engine.resolve_module(zoo.killing(zoo.euclidean(2)).rows()).steps
    expected = [str(report._truncated_kernel(list(step), 4)) for step in steps]

    def refused(*args, **kwargs):
        raise AssertionError("the oracle called the engine")

    # in the engine and under any name the report could import them by
    for name in ("_Echelon", "_tracked", "reduced_groebner"):
        monkeypatch.setattr(engine, name, refused)
        monkeypatch.setattr(report, name, refused, raising=False)
    assert [str(report._truncated_kernel(list(step), 4)) for step in steps] == expected

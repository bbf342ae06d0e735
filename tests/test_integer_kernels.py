"""The integer kernels behind the inline checks, the rank, the graded
minimizer and the report's nullspace oracle: the annihilation check
against FreeElem.dot, its Kronecker base and its call counts in a cold
report, and the rank (its point certificate and its Bareiss fallback), the
echelon kernel and the oracle against Fraction-based eliminations written
here; and the oracle's kernels, elimination count and independence from
the engine on the report's own steps."""

import hashlib
import sys
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import gcd, lcm

import pytest
from hypothesis import example, given, strategies as st

from dgcalc import duality, engine, report, zoo
from dgcalc.engine import (
    FreeElem,
    _Echelon,
    _RowCode,
    _annihilates,
    _bareiss,
    _int_rows,
    _rank_point,
    _zpoly_div_exact,
    fraction_rank,
    syzygies,
)
from dgcalc.poly import Poly, parse
from dgcalc.report import _sparse_nullspace, run_report

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
    last = [sum((p * r.entries[j] for p, r in zip(mult, rows)), Poly.zero(nvars))
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
    assert _annihilates(rel.terms, _int_rows(rows)[0]) == rel.dot(rows).is_zero()


@given(relations(), st.integers(0, 2))
def test_one_encoding_checks_any_relation_up_to_its_degree(problem, slack):
    rel, rows = problem
    code = _RowCode(_int_rows(rows)[0], rel.degree() + slack)
    assert code.annihilates(rel.terms) == rel.dot(rows).is_zero()
    # a second check reuses the relation's cached key shifts
    assert code.annihilates(rel.terms) == rel.dot(rows).is_zero()


def _rows(*texts):
    """Integer rows of width 1 in d1, d2."""
    return _int_rows([FreeElem.from_strs(2, [t]) for t in texts])[0]


def test_annihilation_base_counts_row_and_relation_degree():
    # d1 * (d1) - (d2) = d1^2 - d2, which a base of 2, the row degree plus
    # one, would alias to zero: d1^2 and d2 would share a key
    assert not _annihilates({(0, (1, 0)): 1, (1, (0, 0)): -1}, _rows("d1", "d2"))
    # (d1^2) - (d1*d2): a base of 1, the relation degree plus one, would key
    # both by total degree alone
    assert not _annihilates({(0, (0, 0)): 1, (1, (0, 0)): -1}, _rows("d1^2", "d1*d2"))
    assert _annihilates({(0, (0, 1)): 1, (1, (1, 0)): -1}, _rows("d1", "d2"))


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
    assert _annihilates({(0, (0, 1)): 1, (1, (1, 0)): -1}, _rows("d1", "d2"))
    assert not _annihilates({(0, (0, 1)): 1}, _rows("d1", "d2"))


def test_annihilation_helper_rejects_a_relation_changed_by_one_term():
    rows = [FreeElem.from_strs(3, t) for t in (
        ("d1", "1/2*d2^2"),
        ("d2 - 3", "d1*d3"),
        ("d1*d2", "2/3*d3 - d1"),
    )]
    relations = syzygies(rows)
    assert relations
    base = _int_rows(rows)[0]
    for rel in relations:
        coeffs = dict(rel.terms)
        assert _annihilates(coeffs, base)
        for key in coeffs:
            changed = dict(coeffs)
            changed[key] += 1
            assert not _annihilates(changed, base)
        # a new term on a nonzero row breaks the relation as well
        changed = dict(coeffs)
        changed[(0, (5, 0, 0))] = changed.get((0, (5, 0, 0)), 0) + 1
        assert not _annihilates(changed, base)


def _count_checks(monkeypatch):
    """Record the calling frame of each row encoding and each relation
    check, looking through `_annihilates` to the site that called it."""
    encodings, checks = [], []
    encode, check = _RowCode.__init__, _RowCode.annihilates

    def site():
        frame = sys._getframe(2)
        while frame.f_code.co_name == "_annihilates":
            frame = frame.f_back
        return frame

    def counted_encode(self, rows, reldeg):
        encodings.append(site())
        encode(self, rows, reldeg)

    def counted_check(self, coeffs):
        checks.append(site())
        return check(self, coeffs)

    monkeypatch.setattr(_RowCode, "__init__", counted_encode)
    monkeypatch.setattr(_RowCode, "annihilates", counted_check)
    return encodings, checks


def test_cold_report_checks_every_relation(monkeypatch, clear_engine_caches):
    encodings, checks = _count_checks(monkeypatch)
    clear_engine_caches()
    assert all(r.passed for r in run_report())
    sites = Counter(f.f_code.co_name for f in checks)
    assert sites == {"_tracked": 658, "divide_with_cofactors": 10, "ext_module": 30}
    # each Buchberger run with a harvest encodes its rows once, and only
    # such runs encode
    runs = [f for f in encodings if f.f_code.co_name == "_tracked"]
    assert len(runs) == len({id(f) for f in runs}) == 83
    assert {id(f) for f in runs} == {id(f) for f in checks if f.f_code.co_name == "_tracked"}
    assert sum(len(f.f_locals["harvest"]) for f in runs) == 658
    assert engine._tracked.cache_info().misses == 119


def test_cold_resolution_check_count(monkeypatch, clear_engine_caches):
    _, checks = _count_checks(monkeypatch)
    clear_engine_caches()
    engine.resolve_module(zoo.conformal_killing(zoo.euclidean(5)).rows())
    assert len(checks) == 151


# -- rank ------------------------------------------------------------------------------


def _reference_div(num: Poly, den: Poly) -> Poly:
    """Exact division over Q by repeatedly cancelling leading terms."""
    quot = Poly.zero(num.nvars)
    while not num.is_zero():
        m, c = num.leading_term()
        dm, dc = den.leading_term()
        step = Poly.term(num.nvars, tuple(a - b for a, b in zip(m, dm)), c / dc)
        assert min(step.leading_term()[0]) >= 0
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
    rows += [FreeElem(Poly.zero(nvars) for _ in range(width))] * draw(st.integers(0, 2))
    return draw(st.permutations(rows))


@given(matrices())
def test_fraction_rank_matches_a_fraction_reference(rows):
    assert fraction_rank(rows) == _reference_rank(rows)


def _determinant(m):
    n = len(m)
    total = Poly.zero(m[0][0].nvars)
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Poly.const(total.nvars, sign)
        for i in range(n):
            term = term * m[i][perm[i]]
        total = total + term
    return total


@st.composite
def integer_square_matrices(draw):
    nvars = draw(st.integers(1, 2))
    n = draw(st.integers(2, 4))
    return [[_poly(draw, nvars, 1, coeffs=[-2, -1, 1, 2]) for _ in range(n)]
            for _ in range(n)]


@given(integer_square_matrices())
def test_bareiss_last_pivot_is_the_determinant(m):
    nvars = m[0][0].nvars
    det = _determinant(m)
    ints = [[{mono: int(c) for mono, c in p.terms.items()} for p in row] for row in m]
    rank, pivot = _bareiss(ints, nvars)
    assert (rank == len(m)) == (not det.is_zero())
    if rank == len(m):
        got = Poly(nvars, pivot)
        assert got == det or got == -det


def test_exact_division_rejects_a_remainder():
    q = {(1, 0): 2, (0, 1): -3, (0, 0): 1}
    d = {(1, 1): 1, (2, 0): -4}
    num = {m: v for m, v in (Poly(2, q) * Poly(2, d)).terms.items()}
    num = {m: int(v) for m, v in num.items()}
    assert _zpoly_div_exact(num, d) == q
    num[(0, 0)] = num.get((0, 0), 0) + 1
    with pytest.raises(ArithmeticError):
        _zpoly_div_exact(num, d)
    # integer content that the leading coefficient does not divide
    with pytest.raises(ArithmeticError):
        _zpoly_div_exact({(1, 0): 3}, {(1, 0): 2})


def test_fraction_rank_clears_each_row_of_its_denominators():
    rows = [FreeElem.from_strs(2, t) for t in (
        ("1/2*d1", "1/3*d2"), ("3*d1", "2*d2"), ("1/5*d1^2", "0"))]
    assert fraction_rank(rows[:2]) == 1
    assert fraction_rank(rows) == 2
    assert fraction_rank([FreeElem([parse("2/7*d1*d2 - 1/3", 2)])]) == 1


def test_rank_point_is_distinct_primes_for_any_nvars():
    assert _rank_point(0) == ()
    assert _rank_point(5) == (2, 3, 5, 7, 11)
    point = _rank_point(64)
    assert len(set(point)) == 64
    assert all(all(p % q for q in range(2, p)) for p in point)


def test_fraction_rank_falls_back_when_the_point_drops_rank():
    x1, x2 = _rank_point(2)
    # d1 - x1 vanishes at the point but is not zero
    assert fraction_rank([FreeElem.from_strs(1, [f"d1 - {x1}"])]) == 1
    # determinant x2*d1 - x1*d2: zero at the point, not identically
    rows = [FreeElem.from_strs(2, ("d1", "d2")), FreeElem.from_strs(2, (str(x1), str(x2)))]
    assert fraction_rank(rows) == 2


@st.composite
def matrices_vanishing_on_one_row(draw):
    """A `matrices()` draw with one row multiplied by d1 - x1, which
    vanishes at the rank point, so the point rank is often below full."""
    rows = list(draw(matrices()))
    i = draw(st.integers(0, len(rows) - 1))
    nvars = rows[i].nvars
    factor = Poly.var(nvars, 1) - Poly.const(nvars, _rank_point(nvars)[0])
    rows[i] = FreeElem(p * factor for p in rows[i].entries)
    return rows


@given(matrices_vanishing_on_one_row())
def test_fraction_rank_with_a_row_vanishing_at_the_point(rows):
    assert fraction_rank(rows) == _reference_rank(rows)


def _count_bareiss(monkeypatch) -> list[tuple[int, int]]:
    """Record the shape of each matrix that `fraction_rank` hands to Bareiss."""
    shapes = []

    def counted(m, nvars):
        shapes.append((len(m), len(m[0])))
        return _bareiss(m, nvars)

    monkeypatch.setattr(engine, "_bareiss", counted)
    return shapes


def test_cold_report_runs_bareiss_once(monkeypatch, clear_engine_caches):
    shapes = _count_bareiss(monkeypatch)
    clear_engine_caches()
    assert all(r.passed for r in run_report())
    # curl's 3x3 matrix has rank 2; every other rank is certified at the point
    assert shapes == [(3, 3)]


def test_ext_torsion_rank_is_certified_without_bareiss(monkeypatch, clear_engine_caches):
    shapes = _count_bareiss(monkeypatch)
    ranks = []

    def counted_rank(rows):
        ranks.append(fraction_rank(rows))
        return ranks[-1]

    monkeypatch.setattr(duality, "fraction_rank", counted_rank)
    clear_engine_caches()
    assert duality.ext_module(zoo.einstein_lin(zoo.minkowski(4)), 1).rank == 0
    assert ranks and shapes == []


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
# the first pivot row mentions the second row's pivot column, which only
# back-substitution clears
@example((4, [{0: Fraction(1), 1: Fraction(1)},
              {1: Fraction(1), 2: Fraction(1), 3: Fraction(1)}]))
def test_sparse_nullspace_is_a_full_integer_kernel_basis(problem):
    cols, rows = problem
    # each row cleared of its denominators: the same nullspace
    ints = []
    for row in rows:
        den = lcm(*(x.denominator for x in row.values()))
        ints.append({c: int(x * den) for c, x in row.items()})
    basis = _sparse_nullspace(cols, ints)
    rank = len(_rank_rises(rows)[1])
    assert len(basis) == cols - rank
    for v in basis:
        assert all(type(x) is int and x for x in v.values())
        for row in rows:
            assert sum(x * v.get(c, 0) for c, x in row.items()) == 0
    # the vectors are independent, so they span the whole kernel
    assert all(_rank_rises([{c: Fraction(x) for c, x in v.items()} for v in basis])[0])


# sha256 of the oracle's kernels, one line per step that the finite-degree
# check hands it, as the Fraction-based construction first computed them
KERNEL_DIGEST = "87d20c2a8fc9d75192560448c815fa0912a4a96bf73dc75799f7aa74a9d8448c"


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
    # every elimination is the finite-degree oracle's, forward and back
    assert len(calls) == 3824


def test_oracle_runs_no_engine_elimination(monkeypatch):
    steps = engine.resolve_module(zoo.killing(zoo.euclidean(2)).rows()).steps
    expected = [str(report._truncated_kernel(list(step), 4)) for step in steps]

    def refused(*args, **kwargs):
        raise AssertionError("the oracle called the engine")

    # in the engine and under any name the report could import them by
    for name in ("_Echelon", "_tracked", "_reduced_groebner", "reduced_groebner"):
        monkeypatch.setattr(engine, name, refused)
        monkeypatch.setattr(report, name, refused, raising=False)
    assert [str(report._truncated_kernel(list(step), 4)) for step in steps] == expected

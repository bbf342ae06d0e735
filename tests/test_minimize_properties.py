"""Minimization modulo a base module agrees with Groebner leave-one-out,
on homogeneous rows (the graded path) and on rows that mix degrees (the
Groebner path), and is memoized on the generators as given."""

from hypothesis import assume, given, strategies as st

from dgcalc import engine
from dgcalc.engine import FreeElem, minimize_generators, reduced_groebner
from dgcalc.poly import Poly

NVARS = 2
# monomials in two variables, grouped by total degree
MONOMIALS = {0: [(0, 0)], 1: [(1, 0), (0, 1)], 2: [(2, 0), (1, 1), (0, 2)]}
ALL_MONOMIALS = [m for mons in MONOMIALS.values() for m in mons]


@st.composite
def homogeneous_rows(draw, width, count):
    rows = []
    for _ in range(count):
        mons = MONOMIALS[draw(st.integers(0, 2))]
        entries = []
        for _ in range(width):
            cs = draw(st.lists(st.integers(-3, 3), min_size=len(mons), max_size=len(mons)))
            entries.append(Poly(NVARS, dict(zip(mons, cs))))
        rows.append(FreeElem(entries))
    return rows


@st.composite
def problems(draw):
    width = draw(st.integers(1, 2))
    gens = draw(homogeneous_rows(width, draw(st.integers(1, 4))))
    base = draw(homogeneous_rows(width, draw(st.integers(0, 3))))
    return gens, base


@st.composite
def mixed_rows(draw, width, count):
    """Rows whose entries take up to two terms from degrees 0-2 alike, so
    one row often mixes degrees."""
    terms = st.dictionaries(st.sampled_from(ALL_MONOMIALS), st.integers(-3, 3), max_size=2)
    return [FreeElem(Poly(NVARS, draw(terms)) for _ in range(width)) for _ in range(count)]


@st.composite
def mixed_problems(draw):
    width = draw(st.integers(1, 2))
    gens = draw(mixed_rows(width, draw(st.integers(1, 3))))
    base = draw(mixed_rows(width, draw(st.integers(0, 2))))
    # at least one row off the graded path, so the minimizer runs Groebner
    assume(not all(e.is_homogeneous() for e in gens + base))
    return gens, base


def _groebner_reference(gens, base):
    """Normalize, deduplicate, sort by (degree, text), then drop each
    element that the other surviving elements and the base generate."""
    elems = list(dict.fromkeys(e.normalized() for e in gens if not e.is_zero()))
    elems.sort(key=lambda e: (e.degree(), str(e)))
    base = [b for b in base if not b.is_zero()]
    kept = list(elems)
    i = 0
    while i < len(kept):
        others = kept[:i] + kept[i + 1 :] + base
        if others and reduced_groebner(others).contains(kept[i]):
            kept.pop(i)
        else:
            i += 1
    return kept


@given(problems())
def test_graded_minimization_matches_groebner_leave_one_out(problem):
    gens, base = problem
    assert minimize_generators(gens, base=base) == _groebner_reference(gens, base)


@given(mixed_problems())
def test_mixed_degree_minimization_matches_groebner_leave_one_out(problem):
    gens, base = problem
    assert minimize_generators(gens, base=base) == _groebner_reference(gens, base)


def test_equal_generators_hit_the_memo(clear_engine_caches):
    texts = [("d1", "d2^2 - 1"), ("d1*d2", "d2^3 - d2"), ("1", "d1")]
    clear_engine_caches()
    first = minimize_generators([FreeElem.from_strs(NVARS, t) for t in texts])
    assert engine._minimal.cache_info()[:2] == (0, 1)
    # equal elements, built afresh: a hit, and a fresh list
    second = minimize_generators([FreeElem.from_strs(NVARS, t) for t in texts])
    assert engine._minimal.cache_info()[:2] == (1, 1)
    assert second == first and second is not first

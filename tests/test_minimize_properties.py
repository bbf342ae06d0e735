"""Minimization modulo a base module agrees with Groebner leave-one-out."""

from hypothesis import given, strategies as st

from dgcalc.engine import FreeElem, minimize_generators, reduced_groebner
from dgcalc.poly import Poly

NVARS = 2
# monomials in two variables, grouped by total degree
MONOMIALS = {0: [(0, 0)], 1: [(1, 0), (0, 1)], 2: [(2, 0), (1, 1), (0, 2)]}


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

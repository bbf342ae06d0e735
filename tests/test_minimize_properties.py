"""Minimization modulo a base module agrees with Groebner leave-one-out,
on homogeneous rows (the graded path) and on rows that mix degrees (the
relation path with no base, the Groebner path with one), and a row set's
minimized relations are kept on its Buchberger run.  The order it works
in, read from each element's first nonzero cell and from the whole text
only on a tie, is the (degree, text) order."""

from itertools import combinations_with_replacement

from hypothesis import assume, example, given, strategies as st

from dgcalc import engine, zoo
from dgcalc.engine import (
    FreeElem,
    _ordered,
    minimize_generators,
    reduced_groebner,
    resolve_module,
)
from dgcalc.operators import cc
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


def _monomials(nvars, top):
    """Exponent tuples of total degree at most `top`."""
    out = []
    for deg in range(top + 1):
        for combo in combinations_with_replacement(range(nvars), deg):
            m = [0] * nvars
            for i in combo:
                m[i] += 1
            out.append(tuple(m))
    return out


UP_TO_2 = {n: _monomials(n, 2) for n in (2, 3)}


@st.composite
def polys(draw, nvars, top):
    """Up to three terms of degree at most `top`, the constant among them,
    with coefficients in -3..3."""
    mons = [m for m in UP_TO_2[nvars] if sum(m) <= top]
    return Poly(nvars, draw(st.dictionaries(st.sampled_from(mons), st.integers(-3, 3), max_size=3)))


@st.composite
def free_rows(draw, nvars, width, count):
    return [FreeElem(draw(polys(nvars, 2)) for _ in range(width)) for _ in range(count)]


@st.composite
def combined_problems(draw):
    """Up to five rows of degree at most 2: one to three drawn freely, then
    up to two combinations of those, so that some rows are redundant, in
    shuffled order; half of the time with a base of one or two rows."""
    nvars = draw(st.integers(2, 3))
    width = draw(st.integers(1, 3))
    free = draw(free_rows(nvars, width, draw(st.sampled_from((1, 2, 2, 3)))))
    gens = list(free)
    for _ in range(draw(st.sampled_from((0, 1, 2, 2)))):
        entries = [Poly.zero(nvars)] * width
        for row in free:
            c = draw(polys(nvars, 2 - max(row.degree(), 0)))
            entries = [a + c * b for a, b in zip(entries, row.entries)]
        gens.append(FreeElem(entries))
    gens = draw(st.permutations(gens))
    base = draw(free_rows(nvars, width, draw(st.sampled_from((0, 0, 1, 2)))))
    assume(not all(e.is_homogeneous() for e in gens + base))
    return gens, base


# the relations (d1, 0, -1) and (d1 + 1, -d1, 0) drop d1 with no constant
# coordinate: only the ideal (d1, d1 + 1) holds 1
UNIT_IDEAL = ([FreeElem.from_strs(NVARS, [t]) for t in ("d1", "d1 + 1", "d1^2")], [])


@example(UNIT_IDEAL)
@given(combined_problems())
def test_combined_rows_minimization_matches_groebner_leave_one_out(problem):
    gens, base = problem
    assert minimize_generators(gens, base=base) == _groebner_reference(gens, base)


def test_minimized_relations_are_kept_on_the_run(clear_engine_caches):
    """A warm `cc` and a warm resolution step hand back the tuple kept on
    their rows' Buchberger run, and after `clear_caches()` a fresh, equal
    one.  `minimize_generators` keeps nothing of its own."""
    op = zoo.killing(zoo.euclidean(3))
    clear_engine_caches()
    kept = cc(op)._rows
    assert engine._tracked(op._rows, engine._budget()).minimal is kept
    assert cc(op)._rows is kept
    assert resolve_module(op.rows()).steps[1] is kept
    clear_engine_caches()
    fresh = resolve_module(op.rows()).steps[1]
    assert fresh == kept and fresh is not kept
    assert cc(op)._rows is fresh
    texts = [("d1", "d2^2 - 1"), ("d1*d2", "d2^3 - d2"), ("1", "d1")]
    first = minimize_generators([FreeElem.from_strs(NVARS, t) for t in texts])
    second = minimize_generators([FreeElem.from_strs(NVARS, t) for t in texts])
    assert second == first and second is not first


# cell texts that are prefixes of each other ("d1", "d1^2", "d1 + 1"; "2",
# "2*d1"), zero beside negative and fractional cells, and cells of degree 0-2
CELLS = ["0", "d1", "d1^2", "d1 + 1", "d1 - 1", "-d1", "d2", "d1*d2", "d1 + d2",
         "-d2 + 1", "2", "2*d1", "-2", "-2*d1", "1/2", "-1/2", "1/2*d1", "-3/2*d2^2"]


@st.composite
def element_lists(draw):
    """One to eight elements of one width 1-4 in two variables: each cell
    copies the matching cell of a shared element half of the time, so
    elements often agree on their leading cells."""
    width = draw(st.integers(1, 4))
    shared = draw(st.lists(st.sampled_from(CELLS), min_size=width, max_size=width))
    elems = []
    for _ in range(draw(st.integers(1, 8))):
        cells = [c if draw(st.booleans()) else draw(st.sampled_from(CELLS)) for c in shared]
        elems.append(FreeElem.from_strs(NVARS, cells))
    return list(dict.fromkeys(elems))


def _texts(*rows):
    return [FreeElem.from_strs(NVARS, cells) for cells in rows]


@example(_texts(["d1", "d2^2"], ["d1^2", "d2^2"]))
@example(_texts(["d1", "d2"], ["d1 + 1", "d2"]))
@example(_texts(["d1", "2"], ["d1", "2*d1"]))
@example(_texts(["0", "d1"], ["-d1", "d1"], ["1/2", "d1"], ["-1/2", "d1"]))
@example(_texts(["d1", "0", "-2*d1"], ["d1", "-d1", "0"], ["d1", "0", "2*d1"]))
# a zero element among nonzero ones
@example(_texts(["0", "0", "0"], ["0", "0", "1"], ["-1", "0", "0"], ["d1", "0", "0"]))
# heads that tie, "d1,", decided by a later cell
@example(_texts(["d1", "d2", "0"], ["d1", "-d2", "1"], ["d1", "0", "2"], ["d1", "d2", "-d1"]))
# "d1^2 + d1" is a prefix of "d1^2 + d1*d2": "," sorts after "*" and ")"
# before it, so the heads closed by "," and by ")" order the pairs apart
@example(_texts(["d1^2 + d1", "0"], ["d1^2 + d1*d2", "0"],
                ["0", "d1^2 + d1"], ["0", "d1^2 + d1*d2"]))
@given(element_lists())
def test_cell_by_cell_order_is_the_degree_text_order(elems):
    assert _ordered(list(elems)) == sorted(elems, key=lambda e: (e.degree(), str(e)))


def test_elements_whose_heads_differ_are_formatted_one_cell_each(monkeypatch):
    elems = _texts(["d1", "d2", "1"], ["-d1", "d2", "d1"], ["0", "d1 + 1", "d2"],
                   ["0", "0", "d1*d2 - 1"], ["2*d1", "-d2", "d1 + d2"])
    expected = sorted(elems, key=lambda e: (e.degree(), str(e)))
    calls = {"format_terms": 0, "cell_texts": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(engine, "format_terms", counted("format_terms", engine.format_terms))
    monkeypatch.setattr(FreeElem, "cell_texts", counted("cell_texts", FreeElem.cell_texts))
    assert _ordered(list(elems)) == expected
    assert calls == {"format_terms": len(elems), "cell_texts": 0}

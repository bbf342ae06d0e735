"""Packed engine terms against the (position, monomial) tuples they stand
for: order, monomial shifts, divisibility, lcms, table-driven encoding and
decoding, the guard on the field width, and runs that widen the fields."""

import pytest
from hypothesis import given, strategies as st

from dgcalc.engine import (
    FreeElem,
    GroebnerBasis,
    _budget,
    _int_rows,
    _Packing,
    _Reducer,
    _Run,
    _tracked,
    reduced_groebner,
    syzygies,
)
from dgcalc.poly import Poly, mono_key, mono_mul, parse
from conftest import free_elem


def mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


@st.composite
def layouts(draw):
    """A layout with terms on both sides of `split`, sized, as the engine
    sizes a run, from the highest degree its terms reach."""
    nvars = draw(st.integers(1, 6))
    ncols = draw(st.integers(2, 9))
    split = draw(st.integers(1, ncols - 1))
    mono = st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars).map(tuple)
    terms = draw(st.lists(st.tuples(st.integers(0, ncols - 1), mono),
                          min_size=2, max_size=12, unique=True))
    shift = draw(mono)
    top = max(sum(m) for _, m in terms) + sum(shift)
    return _Packing(nvars, ncols, split, top), terms, shift


@given(layouts())
def test_integer_order_is_the_term_order(case):
    pack, terms, _ = case

    def key(t):
        pos, m = t
        return (pos < pack.split, mono_key(m), -pos)

    assert sorted(terms, key=lambda t: pack.term(*t)) == sorted(terms, key=key)


@given(layouts())
def test_a_monomial_multiple_is_one_addition(case):
    pack, terms, s = case
    one = (0,) * pack.nvars
    for pos, m in terms:
        delta = pack.term(pos, s) - pack.term(pos, one)
        assert pack.term(pos, m) + delta == pack.term(pos, mono_mul(m, s))


@given(layouts())
def test_the_guard_mask_test_is_divisibility(case):
    pack, terms, s = case
    for pa, a in terms:
        for _, b in terms + [(pa, s), (pa, mono_mul(a, s))]:
            lead, t = pack.term(pa, a), pack.term(pa, b)
            assert (not (lead - t) & pack.guard) == mono_divides(a, b)


@given(layouts())
def test_decoding_inverts_encoding(case):
    pack, terms, _ = case
    monos = {}
    assert [pack.decode({pack.term(*t): 1}, monos) for t in terms] == [{t: 1} for t in terms]
    decoded = pack.decode({pack.term(*t): i + 1 for i, t in enumerate(terms)})
    assert decoded == {t: i + 1 for i, t in enumerate(terms)}


@st.composite
def monomials_within(draw, nvars, cap):
    """A monomial of degree at most cap; often one exponent is cap itself."""
    if draw(st.booleans()):
        m = [0] * nvars
        m[draw(st.integers(0, nvars - 1))] = cap
        return tuple(m)
    m, left = [], cap
    for _ in range(nvars):
        m.append(draw(st.integers(0, left)))
        left -= m[-1]
    return tuple(draw(st.permutations(m)))


@st.composite
def layouts_of_any_width(draw):
    """A layout of any field width, from one bit up."""
    nvars = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 9))
    split = draw(st.integers(1, ncols))
    return _Packing(nvars, ncols, split, draw(st.integers(0, 70)))


@given(layouts_of_any_width(), st.data())
def test_the_packed_lcm_is_the_lcm(pack, data):
    """Two divisors of a monomial within cap, at one position: their
    packed lcm is the term of their lcm, flag, degree and position alike."""
    bound = data.draw(monomials_within(pack.nvars, pack.cap))
    a, b = (tuple(data.draw(st.integers(0, e)) for e in bound) for _ in "ab")
    pos = data.draw(st.integers(0, pack.ncols - 1))
    lcm = pack.lcm(pack.term(pos, a), pack.term(pos, b))
    assert lcm == pack.term(pos, mono_lcm(a, b))
    assert pack.decode({lcm: 1}) == {(pos, mono_lcm(a, b)): 1}


@given(layouts_of_any_width(), st.data())
def test_the_guard_test_on_exponent_parts_is_divisibility(pack, data):
    a, b = (data.draw(monomials_within(pack.nvars, pack.cap)) for _ in "ab")
    pos = data.draw(st.integers(0, pack.ncols - 1))
    ta, tb = pack.term(pos, a), pack.term(pos, b)
    divides = mono_divides(a, b)
    assert (not ((ta & pack.emask) - (tb & pack.emask)) & pack.guard) == divides
    assert (not (ta - tb) & pack.guard) == divides


@pytest.mark.parametrize("all_genuine", [False, True], ids=["split<ncols", "split==ncols"])
@given(data=st.data())
def test_table_driven_encoding_is_the_term_encoding(all_genuine, data):
    nvars = data.draw(st.integers(1, 5))
    ncols = data.draw(st.integers(2, 9))
    split = ncols if all_genuine else data.draw(st.integers(1, ncols - 1))
    pack = _Packing(nvars, ncols, split, data.draw(st.integers(0, 20)))
    mono = monomials_within(nvars, pack.cap)
    first, second = (
        data.draw(st.dictionaries(st.tuples(st.integers(0, ncols - 1), mono),
                                  st.integers(-9, 9).filter(bool), max_size=10))
        for _ in "ab"
    )
    # the second input meets monomials the table holds from the first
    for terms in (first, second, {**first, **second}):
        assert pack.encode(terms) == {pack.term(*t): v for t, v in terms.items()}
    assert set(pack.table) == {m for _, m in {**first, **second}}


def test_a_term_above_the_field_width_is_refused():
    pack = _Packing(2, 3, 2, 1)
    assert pack.cap == 1
    pack.term(0, (1, 0))
    with pytest.raises(OverflowError, match="degree 2 exceeds the packed field capacity 1"):
        pack.term(0, (1, 1))


def fe(*texts):
    return free_elem(2, texts)


@pytest.mark.parametrize("rows, elem", [
    ([fe("d1^2 + d2", "1"), fe("d1*d2", "d2 - 3"), fe("d2^2", "d1")],
     fe("d1^5*d2 + 3*d2^4", "d1^3 - d2^2 + 7")),
    ([fe("d1^3 - d2", "0"), fe("0", "d1*d2^2 + 1")], fe("d1^6*d2^2", "d2^7 + d1")),
])
def test_a_reducer_from_the_narrowest_fields_widens_and_agrees(rows, elem):
    """Every field starts one bit wide: each generator and the input widen
    the fields before they are encoded, and the basis, re-encoded each
    time, still decodes to itself and reduces to the library's normal form."""
    gb = reduced_groebner(rows)
    red = _Reducer(_Packing(2, 2, 2, 0))
    for g in gb.generators:
        red.add(red.encode_input(g.terms, g.degree()))
    widths = [red.pack.cap]
    h = red.encode_input(elem.terms, elem.degree())
    widths.append(red.pack.cap)
    assert widths[0] < widths[1]
    assert [red.pack.decode(g) for g in red.basis] == [g.terms for g in gb.generators]
    r, num, den = red.reduce_full(h)
    nf = FreeElem._make(2, 2, red.pack.decode(r), den, num * elem.den)
    assert nf == gb.normal_form(elem)
    assert not nf.is_zero()


def test_a_run_that_widens_with_pairs_alive_agrees(monkeypatch, clear_engine_caches):
    """A run started from the narrowest fields widens on the fourth row,
    while two pairs wait in the queue: their lcms are recomputed from the
    re-encoded leads, and the run makes the same S-pairs, harvest and
    reduced basis as the default."""
    rows = (fe("d1^2", "d2"), fe("d1*d2", "d1"), fe("d2^2", "d1 + d2"),
            fe("d1^6 - d2^6", "d1^3*d2^2"), fe("d1^4*d2", "d2^5"))
    spairs, alive_at_widening = [], []
    spair, refit = _Run._spair, _Run._refit

    def counted_spair(self, *args):
        spairs[-1] += 1
        return spair(self, *args)

    def watched_refit(self):
        alive_at_widening.append(sum(map(len, self.alive.values())))
        refit(self)

    monkeypatch.setattr(_Run, "_spair", counted_spair)
    monkeypatch.setattr(_Run, "_refit", watched_refit)

    spairs.append(0)
    clear_engine_caches()
    relations = syzygies(rows)
    assert alive_at_widening == []

    spairs.append(0)
    k, rowdeg = len(rows), max(e.degree() for e in rows)
    ints, den = _int_rows(rows)
    run = _Run(_Packing(2, 2 + k, 2, 0), max(_budget(), rowdeg), _budget())
    for i, row in enumerate(ints):
        h = run.red.encode_input(row, rowdeg)
        h[run.red.pack.term(2 + i, (0, 0))] = den
        run.process(h)
    run.run()
    assert alive_at_widening[-1] == 2
    assert spairs[0] == spairs[1] == 5
    # each harvested relation decoded under the packing that encoded it
    decoded = [FreeElem._make(k, 2, pack.decode(h, {}, pack.split))
               for h, pack, _, _ in run.harvest]
    assert decoded == relations
    assert len(relations) == 3
    genuine = _Reducer(run.red.pack)
    for h in run.red.basis:
        genuine.add({t: v for t, v in h.items() if t >= run.red.pack.flag})
    assert GroebnerBasis(genuine.interreduced()) == reduced_groebner(rows)



def test_a_relation_harvested_before_a_widening_decodes_under_its_own_packing(
    clear_engine_caches,
):
    """The run of these rows harvests a relation, then widens its fields.
    That relation keeps the packing that encoded it; decoded under it, every
    relation annihilates the rows, and under the run's final packing the
    early one would decode to other terms."""
    rows = [FreeElem([parse(a, 3), parse(b, 3)]) for a, b in (
        ("-d1", "2*d2*d3"),
        ("2*d2*d3 - 2*d1 + 3*d2", "-2*d1*d2 - d2^2 + d1"),
        ("d1*d2 + d3 + 3", "-d2*d3"),
    )]
    clear_engine_caches()
    run = _tracked(tuple(rows), _budget())
    final = run.red.pack
    early = [(h, pack) for h, pack, _, _ in run.harvest if pack is not final]
    assert len(early) == 1 and len(run.harvest) == 5
    h, pack = early[0]
    assert pack.cap < final.cap
    assert final.decode(h, {}, final.split) != pack.decode(h, {}, pack.split)
    relations = syzygies(rows)
    assert len(relations) == 5 and all(r.dot(rows).is_zero() for r in relations)

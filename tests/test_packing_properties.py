"""Packed engine terms against the (position, monomial) tuples they stand
for: order, monomial shifts, divisibility and decoding, and the guard on the
field width."""

import pytest
from hypothesis import given, strategies as st

from dgcalc.engine import FreeElem, _Packing, _Reducer, reduced_groebner
from dgcalc.poly import Poly, mono_divides, mono_key, mono_mul


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
    assert [pack.decode_term(pack.term(*t), monos) for t in terms] == terms
    decoded = pack.decode({pack.term(*t): i + 1 for i, t in enumerate(terms)})
    assert decoded == {t: i + 1 for i, t in enumerate(terms)}


def test_a_term_above_the_field_width_is_refused():
    pack = _Packing(2, 3, 2, 1)
    assert pack.cap == 1
    pack.term(0, (1, 0))
    with pytest.raises(OverflowError, match="degree 2 exceeds the packed field capacity 1"):
        pack.term(0, (1, 1))


def fe(*texts):
    return FreeElem.from_strs(2, texts)


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

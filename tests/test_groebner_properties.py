"""Properties of reduced Groebner bases on small random modules."""

from hypothesis import assume, given, strategies as st

from dgcalc.engine import FreeElem, reduced_groebner
from dgcalc.poly import Poly, mono_div, mono_divides, mono_key, mono_lcm

NVARS = 2
# every monomial in two variables of degree <= 2, the constant included
MONOMIALS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

coeffs = st.lists(st.integers(-3, 3), min_size=len(MONOMIALS), max_size=len(MONOMIALS))


def _poly(cs):
    return Poly(NVARS, dict(zip(MONOMIALS, cs)))


@st.composite
def modules(draw):
    width = draw(st.integers(1, 2))
    k = draw(st.integers(1, 3))
    rows = [FreeElem(_poly(draw(coeffs)) for _ in range(width)) for _ in range(k)]
    assume(any(not r.is_zero() for r in rows))
    return rows, draw(st.permutations(rows))


def _lead(e):
    """(position, monomial, coefficient) of the leading term: degrevlex on
    monomials, monomial compared first, lower position winning ties."""
    terms = [(pos, m, c) for pos, p in enumerate(e.entries) for m, c in p.terms.items()]
    return max(terms, key=lambda t: (mono_key(t[1]), -t[0]))


@given(modules())
def test_reduced_groebner_laws(module):
    rows, permuted = module
    gb = reduced_groebner(rows)
    gens = gb.generators

    assert reduced_groebner(permuted) == gb

    assert reduced_groebner(gens) == gb

    leads = [_lead(g) for g in gens]
    assert all(c == 1 for _, _, c in leads)
    # sorted by leading position, then leading monomial
    keys = [(pos, mono_key(m)) for pos, m, _ in leads]
    assert keys == sorted(keys)
    for a, g in enumerate(gens):
        for b, (pb, mb, _) in enumerate(leads):
            if a != b:
                assert not any(
                    mono_divides(mb, m) for m in g.entries[pb].terms
                ), (str(g), str(gens[b]))

    for r in rows:
        assert gb.normal_form(r).is_zero()

    # Buchberger's criterion: every S-polynomial of two generators with
    # leads at one position reduces to zero
    for a, (pa, ma, _) in enumerate(leads):
        for b in range(a + 1, len(gens)):
            pb, mb, _ = leads[b]
            if pa != pb:
                continue
            lcm = mono_lcm(ma, mb)
            sa = Poly(NVARS, {mono_div(lcm, ma): 1})
            sb = Poly(NVARS, {mono_div(lcm, mb): 1})
            spoly = FreeElem(
                sa * x - sb * y for x, y in zip(gens[a].entries, gens[b].entries)
            )
            assert gb.normal_form(spoly).is_zero(), (str(gens[a]), str(gens[b]))

    for g in gens:
        assert reduced_groebner(rows + [g]) == gb

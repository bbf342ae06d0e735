"""Ring laws, the text round trip and the term invariant of the Poly layer."""

from fractions import Fraction
from itertools import product

from hypothesis import given, strategies as st

from dgcalc.poly import Poly, parse, serialize

# few monomials and coefficients, so sums and products cancel often
COEFFS = [Fraction(p, q) for p in (-3, -2, -1, 1, 2, 3) for q in (1, 2, 3)]


def _monomials(nvars):
    return [m for m in product(range(4), repeat=nvars) if sum(m) <= 3]


@st.composite
def poly_triples(draw):
    nvars = draw(st.integers(1, 3))
    mons = _monomials(nvars)

    def poly():
        terms = draw(st.dictionaries(st.sampled_from(mons), st.sampled_from(COEFFS),
                                     max_size=4))
        return Poly(nvars, terms)

    p, q, r = poly(), poly(), poly()
    # half the time r cancels part of q
    if draw(st.booleans()):
        r = r - q
    return p, q, r


def _well_formed(p: Poly) -> bool:
    return all(
        type(c) is Fraction and c != 0 and len(m) == p.nvars
        for m, c in p.terms.items()
    )


@given(poly_triples())
def test_ring_laws(polys):
    p, q, r = polys
    n = p.nvars
    zero, one = Poly.zero(n), Poly.const(n, 1)
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + zero == p
    assert p * one == p
    assert (p * zero).is_zero()
    assert (p - p).is_zero()
    assert p + (-p) == zero
    assert (p + q) - q == p


@given(poly_triples())
def test_parse_inverts_serialize(polys):
    for p in polys:
        assert parse(serialize(p), p.nvars) == p


@given(poly_triples(), st.sampled_from(COEFFS))
def test_arithmetic_results_hold_nonzero_fractions_of_full_arity(polys, c):
    p, q, r = polys
    n = p.nvars
    results = [
        p + q, q + r, p - q, r - q, -p, p * q, q * r, p * (q + r), p * c,
        c * q, p + 1, 2 - p, p ** 2, p.negate_vars(),
    ]
    results += [p.partial(i) for i in range(1, n + 1)]
    for res in results:
        assert res.nvars == n
        assert _well_formed(res)

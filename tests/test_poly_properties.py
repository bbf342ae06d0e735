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


# -- parse against Poly arithmetic on random expression trees -----------------

SPACE = st.sampled_from(["", "", " ", "  ", "\t"])


@st.composite
def expressions(draw, depth=0):
    """(text, Poly) for a random expression over d1..d3: sums and
    differences of products of factors, each factor carrying unary signs and
    ^0..^4 on an integer, a rational p/q, a symbol or a parenthesized group."""
    n = 3

    def factor():
        kinds = ["int", "frac", "var"] + (["group"] if depth < 2 else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "int":
            k = draw(st.integers(0, 12))
            text, value = str(k), Poly.const(n, k)
        elif kind == "frac":
            p, q = draw(st.integers(0, 12)), draw(st.integers(1, 6))
            text, value = f"{p}/{q}", Poly.const(n, Fraction(p, q))
        elif kind == "var":
            i = draw(st.integers(1, n))
            text, value = f"d{i}", Poly.var(n, i)
        else:
            inner, inner_value = draw(expressions(depth + 1))
            text = "(" + draw(SPACE) + inner + draw(SPACE) + ")"
            value = inner_value
        if draw(st.booleans()):
            k = draw(st.integers(0, 4))
            text += draw(SPACE) + "^" + draw(SPACE) + str(k)
            value = value ** k
        signs = draw(st.lists(st.sampled_from("+-"), max_size=2))
        for s in reversed(signs):
            text = s + draw(SPACE) + text
            if s == "-":
                value = -value
        return text, value

    def term():
        text, value = factor()
        for _ in range(draw(st.integers(0, 2))):
            t, v = factor()
            text += draw(SPACE) + "*" + draw(SPACE) + t
            value = value * v
        return text, value

    text, value = term()
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from("+-"))
        t, v = term()
        text += draw(SPACE) + op + draw(SPACE) + t
        value = value + v if op == "+" else value - v
    return draw(SPACE) + text + draw(SPACE), value


@given(expressions())
def test_parse_agrees_with_poly_arithmetic(expr):
    text, value = expr
    p = parse(text, 3)
    assert p == value
    assert _well_formed(p)

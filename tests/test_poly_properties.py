"""Ring laws, the text round trip, the term invariant and the canonical
form of the Poly layer."""

from fractions import Fraction
from itertools import product
from math import gcd

from hypothesis import given, strategies as st

from dgcalc.engine import FreeElem
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


# -- the canonical form against a Fraction reference ------------------------------


def _canonical(p: Poly) -> bool:
    """nums / den with den > 0, nonzero int numerators of full arity and
    gcd(content(nums), den) == 1; zero is ({}, 1)."""
    if not p.nums:
        return p.den == 1
    return (
        type(p.den) is int and p.den > 0
        and all(type(c) is int and c and len(m) == p.nvars for m, c in p.nums.items())
        and gcd(p.den, *p.nums.values()) == 1
    )


def _nonzero(ref):
    return {m: c for m, c in ref.items() if c}


def _ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return _nonzero(out)


def _ref_scale(a, c):
    return _nonzero({m: v * c for m, v in a.items()})


def _ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return _nonzero(out)


def _ref_negate_vars(a, f):
    return _nonzero({m: (-c if sum(m) % 2 else c) * f for m, c in a.items()})


def _ref_partial(a, j):
    return {m[:j] + (m[j] - 1,) + m[j + 1:]: c * m[j] for m, c in a.items() if m[j]}


@st.composite
def reference_pairs(draw):
    """Two polynomials as (Fraction dict, Poly) and one nonzero rational."""
    nvars = draw(st.integers(1, 3))
    mons = _monomials(nvars)

    def one():
        ref = _nonzero(draw(st.dictionaries(st.sampled_from(mons), st.sampled_from(COEFFS),
                                            max_size=4)))
        return ref, Poly(nvars, ref)

    return nvars, one(), one(), draw(st.sampled_from(COEFFS))


@given(reference_pairs())
def test_every_result_is_canonical_and_its_terms_match_the_reference(case):
    n, (a, p), (b, q), c = case
    elem = FreeElem([p, q])
    results = [
        (p, a), (p + q, _ref_add(a, b)), (p - q, _ref_add(a, _ref_scale(b, -1))),
        (-p, _ref_scale(a, -1)), (p * q, _ref_mul(a, b)), (p * c, _ref_scale(a, c)),
        (c * q, _ref_scale(b, c)), (p * 0, {}), (p ** 2, _ref_mul(a, a)),
        (q ** 0, {(0,) * n: Fraction(1)}), (p.negate_vars(), _ref_negate_vars(a, 1)),
        (p.negate_vars(c.numerator, c.denominator), _ref_negate_vars(a, c)),
        (parse(serialize(q), n), b),
    ]
    results += [(p.partial(i + 1), _ref_partial(a, i)) for i in range(n)]
    results += zip(elem.entries, (a, b))
    rescaled = FreeElem._make(2, n, dict(elem.terms), c.numerator,
                              elem.den * c.denominator)
    results += zip(rescaled.entries, (_ref_scale(a, c), _ref_scale(b, c)))
    for res, ref in results:
        assert res.nvars == n
        assert _canonical(res)
        assert res.terms == ref
        again = Poly(n, ref)
        assert res == again
        assert hash(res) == hash(again)


def test_equal_values_from_different_paths_hash_alike():
    m = (1, 0)
    built = [
        Poly(2, {m: Fraction(2, 4)}),
        parse("1/2*d1", 2),
        Poly.var(2, 1) * Fraction(1, 2),
        (Poly.var(2, 1) * 3) * Fraction(1, 6),
        parse("d1^2", 2).partial(1) * Fraction(1, 4),
        FreeElem._make(2, 2, {(0, m): 3, (1, (0, 0)): 6}, 1, 6).entries[0],
    ]
    for p in built:
        assert (p.nums, p.den) == ({m: 1}, 2)
        assert p == built[0]
        assert hash(p) == hash(built[0])

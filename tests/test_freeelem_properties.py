"""The sparse integer FreeElem against a Fraction reference written here.

An element is drawn as a list of {monomial: Fraction} dicts, the reference,
and built either through the public constructor from Polys or through the
trusted constructor from integer terms with a scale that leaves them out
of canonical form.  Every property compares with the reference."""

from fractions import Fraction
from itertools import product
from math import gcd

from hypothesis import given, strategies as st

from dgcalc.duality import _transpose_rows
from dgcalc.engine import FreeElem, _int_rows
from dgcalc.poly import Poly, mono_key, serialize

COEFFS = [Fraction(p, q) for p in (-4, -3, -2, -1, 1, 2, 3, 4) for q in (1, 2, 3, 4, 6)]
SCALES = [Fraction(p, q) for p in (-6, -1, 1, 2, 4) for q in (1, 3, 4)]
DENS = (1, 2, 3, 5, 7)


def _monomials(nvars, cap=2):
    return [m for m in product(range(cap + 1), repeat=nvars) if sum(m) <= cap]


def _ref(draw, nvars, width):
    mons = _monomials(nvars)
    return [draw(st.dictionaries(st.sampled_from(mons), st.sampled_from(COEFFS),
                                 max_size=3))
            for _ in range(width)]


def _polys(ref, nvars):
    return [Poly(nvars, col) for col in ref]


def _scaled(ref, c):
    return [{m: v * c for m, v in col.items()} for col in ref]


@st.composite
def shapes(draw):
    return draw(st.integers(1, 3)), draw(st.integers(1, 3))


@st.composite
def built(draw, nvars, ref):
    """ref as a FreeElem, by one of the two constructors."""
    if draw(st.booleans()):
        return FreeElem(_polys(ref, nvars))
    # integer terms over a common multiple m of the denominators, times a
    # random extra factor k, handed in with the scale 1 / (m * k)
    m = 1
    for col in ref:
        for v in col.values():
            m = m * v.denominator // gcd(m, v.denominator)
    m *= draw(st.sampled_from((-6, -2, -1, 1, 3, 10)))
    terms = {(pos, mono): int(v * m) for pos, col in enumerate(ref)
             for mono, v in col.items()}
    num, den = (1, m) if m > 0 else (-1, -m)
    return FreeElem._make(len(ref), nvars, terms, num, den)


@st.composite
def elements(draw):
    nvars, width = draw(shapes())
    ref = _ref(draw, nvars, width)
    return ref, draw(built(nvars, ref)), nvars


@st.composite
def pairs(draw):
    """Two elements of one shape that are often equal or proportional."""
    nvars, width = draw(shapes())
    ref = _ref(draw, nvars, width)
    how = draw(st.sampled_from(("same", "scaled", "fresh")))
    if how == "same":
        ref2 = ref
    elif how == "scaled":
        ref2 = _scaled(ref, draw(st.sampled_from(SCALES)))
    else:
        ref2 = _ref(draw, nvars, width)
    return (ref, draw(built(nvars, ref))), (ref2, draw(built(nvars, ref2)))


def _canonical(e, nvars, width):
    assert (e.nvars, e.width) == (nvars, width)
    assert e.den > 0
    assert all(isinstance(v, int) and v for v in e.terms.values())
    assert all(0 <= pos < width and len(m) == nvars for pos, m in e.terms)
    content = 0
    for v in e.terms.values():
        content = gcd(content, v)
    assert gcd(content, e.den) == 1
    if not e.terms:
        assert e.den == 1


@given(elements())
def test_elements_are_canonical_and_equal_their_reference(case):
    ref, e, nvars = case
    _canonical(e, nvars, len(ref))
    assert list(e.entries) == _polys(ref, nvars)
    assert e.is_zero() == all(not col for col in ref)


@given(elements())
def test_rebuilding_from_entries_gives_the_same_element(case):
    _, e, _ = case
    again = FreeElem(e.entries)
    assert again == e
    assert hash(again) == hash(e)
    assert (again.terms, again.den) == (e.terms, e.den)


@given(pairs())
def test_equality_is_equality_of_the_fraction_entries(pair):
    (ref1, a), (ref2, b) = pair
    nvars = a.nvars
    assert (a == b) == (_polys(ref1, nvars) == _polys(ref2, nvars))
    if a == b:
        assert hash(a) == hash(b)


@given(elements())
def test_text_matches_the_poly_serializer(case):
    ref, e, nvars = case
    assert str(e) == "(" + ", ".join(serialize(p) for p in _polys(ref, nvars)) + ")"


@st.composite
def products(draw):
    nvars, width = draw(shapes())
    k = draw(st.integers(1, 3))
    ref = _ref(draw, nvars, k)
    rows = [_ref(draw, nvars, width) for _ in range(k)]
    return (ref, draw(built(nvars, ref)),
            rows, [draw(built(nvars, r)) for r in rows], nvars)


@given(products())
def test_dot_matches_poly_arithmetic(case):
    ref, e, ref_rows, rows, nvars = case
    coeffs = _polys(ref, nvars)
    expected = [sum((c * _polys(r, nvars)[j] for c, r in zip(coeffs, ref_rows)),
                    Poly(nvars))
                for j in range(len(ref_rows[0]))]
    out = e.dot(rows)
    _canonical(out, nvars, len(expected))
    assert list(out.entries) == expected


@st.composite
def mixed_products(draw):
    """Coefficients whose entries each hold a constant term, most with
    higher terms too, against rows over different denominators.  Half of
    the draws are relations: the last row is s times the first and the
    coefficients of those two are s * p and -p, and a third row, if any,
    is zero, so the product is zero."""
    nvars, width = draw(shapes())
    k = draw(st.integers(2, 3))
    one = (0,) * nvars
    higher = [m for m in _monomials(nvars) if any(m)]

    def coefficient():
        col = draw(st.dictionaries(st.sampled_from(higher), st.sampled_from(COEFFS),
                                   max_size=2))
        col[one] = draw(st.sampled_from(COEFFS))
        return col

    ref = [coefficient() for _ in range(k)]
    ref_rows = [_scaled(_ref(draw, nvars, width), Fraction(1, draw(st.sampled_from(DENS))))
                for _ in range(k)]
    relation = draw(st.booleans())
    if relation:
        s = draw(st.sampled_from(SCALES))
        ref_rows[-1] = _scaled(ref_rows[0], s)
        ref[0] = _scaled([ref[-1]], -s)[0]
        if k == 3:
            ref_rows[1] = [{} for _ in range(width)]
    rows = [draw(built(nvars, r)) for r in ref_rows]
    return ref, draw(built(nvars, ref)), ref_rows, rows, nvars, relation


@given(mixed_products())
def test_dot_with_constant_coefficients_matches_poly_arithmetic(case):
    """A constant coefficient adds its row's own terms, brought to the
    rows' common denominator; its product is the Poly sum of products."""
    ref, e, ref_rows, rows, nvars, relation = case
    coeffs = _polys(ref, nvars)
    expected = [sum((c * _polys(r, nvars)[j] for c, r in zip(coeffs, ref_rows)),
                    Poly(nvars))
                for j in range(len(ref_rows[0]))]
    out = e.dot(rows)
    _canonical(out, nvars, len(expected))
    assert list(out.entries) == expected
    if relation:
        assert out.is_zero()


@given(products())
def test_the_cached_degree_is_the_degree_of_the_terms(case):
    """Every way an element is made leaves `degree()` and `is_homogeneous()`
    equal to a fresh computation from its terms, before and after the
    degree is cached; zero has degree -1."""
    _, e, _, rows, nvars = case
    zeros = [FreeElem([Poly(nvars)] * 2), FreeElem._make(2, nvars, {}),
             e.dot([FreeElem._make(1, nvars, {})] * e.width)]
    made = [e, e.normalized(), e.dot(rows), *_transpose_rows(rows), *zeros]
    for x in made:
        degrees = {sum(m) for _, m in x.terms}
        for _ in range(2):
            assert x.degree() == max(degrees, default=-1)
            assert x.is_homogeneous() == (len(degrees) <= 1)
    assert [z.degree() for z in zeros] == [-1, -1, -1]


def _reference_normalized(ref):
    """Clear denominators, divide by the numerators' gcd, and make the
    coefficient of the largest (monomial, then lower position) term positive."""
    values = [v for col in ref for v in col.values()]
    if not values:
        return ref
    den = 1
    for v in values:
        den = den * v.denominator // gcd(den, v.denominator)
    content = 0
    for v in values:
        content = gcd(content, int(v * den))
    lead = max(((mono_key(m), -pos), v) for pos, col in enumerate(ref)
               for m, v in col.items())[1]
    scale = Fraction(den, content) * (1 if lead > 0 else -1)
    return _scaled(ref, scale)


@given(elements())
def test_normalized_matches_the_fraction_algorithm_and_is_idempotent(case):
    ref, e, nvars = case
    n = e.normalized()
    _canonical(n, nvars, len(ref))
    assert list(n.entries) == _polys(_reference_normalized(ref), nvars)
    assert n.den == 1
    assert n.normalized() == n


@st.composite
def row_lists(draw):
    nvars, width = draw(shapes())
    refs = [_ref(draw, nvars, width) for _ in range(draw(st.integers(1, 4)))]
    return refs, [draw(built(nvars, r)) for r in refs]


@given(row_lists())
def test_int_rows_reproduce_the_entries_over_their_denominator(case):
    refs, elems = case
    rows, den = _int_rows(elems)
    assert den > 0
    for ref, row in zip(refs, rows):
        assert all(isinstance(v, int) for v in row.values())
        expected = {(pos, m): v for pos, col in enumerate(ref) for m, v in col.items()}
        assert {t: Fraction(v, den) for t, v in row.items()} == expected

"""The parser against a Fraction evaluator kept inside this file, over the
whole grammar: unary signs, integers, p/q, symbols, ^k, parenthesized
groups nested three deep, and whitespace between any two tokens."""

from fractions import Fraction
from functools import reduce

from hypothesis import given, strategies as st

from dgcalc.poly import Poly, parse, serialize

N = 3
ONE = (0,) * N

# Half the expressions put no space inside a term, as canonical text does,
# and half draw any whitespace between any two tokens.
SPACE = st.sampled_from(["", "", " ", "  ", "\t", "\n"])
COMPACT = st.just("")


def _nonzero(ref: dict) -> dict:
    return {m: c for m, c in ref.items() if c}


def _add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return _nonzero(out)


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return _nonzero(out)


def _pow(a: dict, k: int) -> dict:
    return reduce(_mul, [a] * k, {ONE: Fraction(1)})


@st.composite
def factors(draw, depth, space):
    """(text, value) of one factor: unary signs, an atom, an optional ^k."""
    kinds = ["int", "frac", "var", "var"] + (["group"] if depth < 3 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "int":
        small = st.integers(0, 12)
        k = draw(st.one_of(small, small, small, st.integers(10**20, 10**21)))
        text, value = str(k), _nonzero({ONE: Fraction(k)})
    elif kind == "frac":
        p, q = draw(st.integers(0, 40)), draw(st.integers(1, 12))
        text, value = f"{p}/{q}", _nonzero({ONE: Fraction(p, q)})
    elif kind == "var":
        i = draw(st.integers(1, N))
        text, value = f"d{i}", {tuple(int(j == i - 1) for j in range(N)): Fraction(1)}
    else:
        inner, inner_value, _ = draw(expressions(depth + 1, space))
        text, value = "(" + inner + ")", inner_value
    if draw(st.booleans()):
        # groups take small powers, so nested powers stay small polynomials
        k = draw(st.integers(0, 2 if kind == "group" else 4))
        text += draw(space) + "^" + draw(space) + str(k)
        value = _pow(value, k)
    for s in draw(st.sampled_from(["", "", "", "", "", "-", "+", "--", "+-"])):
        text = s + draw(space) + text
        if s == "-":
            value = _mul(value, {ONE: Fraction(-1)})
    return text, value


@st.composite
def expressions(draw, depth=0, space=None):
    """(text, value, terms): a sum of products of factors, its value as a
    {monomial: Fraction} dict, and its terms as (sign, text) pairs."""
    if space is None:
        space = draw(st.sampled_from([SPACE, COMPACT]))
    terms = []
    value: dict = {}
    for i in range(draw(st.integers(1, 4 - depth))):
        text, term_value = draw(factors(depth, space))
        for _ in range(draw(st.integers(0, 3 - depth))):
            t, v = draw(factors(depth, space))
            text += draw(space) + "*" + draw(space) + t
            term_value = _mul(term_value, v)
        sign = 1 if i == 0 or draw(st.booleans()) else -1
        terms.append((sign, text))
        value = _add(value, term_value, sign)
    text = ""
    for i, (sign, t) in enumerate(terms):
        op = "" if i == 0 else ("+" if sign > 0 else "-") + draw(SPACE)
        text += draw(SPACE) + op + t
    return text + draw(SPACE), value, terms


@st.composite
def compact_sums(draw):
    """Sums of products written as canonical text is, with no space inside
    a term and at most one '-' before it, but with factors in any order and
    symbols repeated: the term shapes of canonical text and of hand-written
    text close to it."""
    terms = []
    value: dict = {}
    for i in range(draw(st.integers(1, 4))):
        text, term_value = "", {ONE: Fraction(1)}
        for j in range(draw(st.integers(1, 5))):
            kind = draw(st.sampled_from(["int", "frac", "var", "var", "var"]))
            if kind == "var":
                idx = draw(st.integers(1, N))
                t = f"d{idx}"
                v = {tuple(int(x == idx - 1) for x in range(N)): Fraction(1)}
            elif kind == "int":
                k = draw(st.integers(0, 9))
                t, v = str(k), _nonzero({ONE: Fraction(k)})
            else:
                a, b = draw(st.integers(0, 9)), draw(st.integers(1, 9))
                t, v = f"{a}/{b}", _nonzero({ONE: Fraction(a, b)})
            if draw(st.booleans()):
                k = draw(st.integers(0, 3))
                t, v = f"{t}^{k}", _pow(v, k)
            text = t if j == 0 else f"{text}*{t}"
            term_value = _mul(term_value, v)
        if draw(st.booleans()):
            text, term_value = "-" + text, _mul(term_value, {ONE: Fraction(-1)})
        sign = 1 if i == 0 or draw(st.booleans()) else -1
        terms.append((sign, text))
        value = _add(value, term_value, sign)
    text = terms[0][1] + "".join(
        (" + " if sign > 0 else " - ") + t for sign, t in terms[1:]
    )
    return text, value, terms


TEXTS = st.one_of(expressions(), compact_sums())


@given(TEXTS)
def test_parse_gives_the_value_of_the_text(case):
    text, value, _ = case
    assert parse(text, N).terms == value


@given(TEXTS)
def test_parse_inverts_serialize(case):
    p = parse(case[0], N)
    text = serialize(p)
    assert parse(text, N) == p
    assert serialize(parse(text, N)) == text


@given(TEXTS)
def test_terms_keep_the_order_of_folding_them_with_add(case):
    text, _, terms = case
    folded = reduce(
        lambda acc, t: acc + parse(t[1], N) if t[0] > 0 else acc - parse(t[1], N),
        terms,
        Poly(N),
    )
    p = parse(text, N)
    assert p == folded
    assert list(p.nums) == list(folded.nums)

"""Operator composition on random operators: the matrix product against
entrywise Poly arithmetic, and associativity."""

from fractions import Fraction
from itertools import product

from hypothesis import given, strategies as st

from dgcalc.operators import Bundle, LinDiffOp, compose
from dgcalc.poly import Poly

# unlike denominators, so the products in one entry need a common scale
COEFFS = [Fraction(p, q) for p in (-3, -1, 1, 2) for q in (1, 2, 3, 5)]


@st.composite
def chains(draw):
    """Three composable operators a, b, c over one variable count, with
    small rational entries of degree at most 2, many of them zero."""
    nvars = draw(st.integers(1, 2))
    mons = [m for m in product(range(3), repeat=nvars) if sum(m) <= 2]
    entry = st.dictionaries(st.sampled_from(mons), st.sampled_from(COEFFS), max_size=3)
    dims = draw(st.lists(st.integers(1, 3), min_size=4, max_size=4))

    def op(name, rows, cols):
        matrix = [[Poly(nvars, draw(entry)) for _ in range(cols)] for _ in range(rows)]
        return LinDiffOp(
            name, nvars, Bundle.simple(f"b{cols}", cols), Bundle.simple(f"b{rows}", rows),
            matrix,
        )

    return op("a", dims[0], dims[1]), op("b", dims[1], dims[2]), op("c", dims[2], dims[3])


@given(chains())
def test_compose_is_the_sum_of_entry_products(ops):
    a, b, _ = ops
    got = compose(a, b)
    assert (got.target, got.source) == (a.target, b.source)
    for i, row in enumerate(got.matrix):
        for j, p in enumerate(row):
            expected = Poly.zero(a.nvars)
            for k in range(a.source.dim):
                expected = expected + a.matrix[i][k] * b.matrix[k][j]
            assert p == expected
            assert all(type(c) is Fraction and c for c in p.terms.values())


@given(chains())
def test_compose_is_associative(ops):
    a, b, c = ops
    assert compose(compose(a, b), c) == compose(a, compose(b, c))

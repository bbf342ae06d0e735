"""Polynomial layer: arithmetic, ordering, parsing and printing."""

from fractions import Fraction
from math import comb, factorial, prod
from random import Random

import pytest

from dgcalc.engine import FreeElem
from dgcalc.poly import (
    ParseError,
    Poly,
    apply_as_derivative,
    mono_divides,
    mono_div,
    mono_key,
    mono_lcm,
    mono_mul,
    parse,
    serialize,
    variables,
)


def test_constructor_drops_zero_coefficients():
    p = Poly(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert p.terms == {(0, 1): Fraction(2)}


def test_var_is_one_indexed():
    d1 = Poly.var(3, 1)
    assert d1.terms == {(1, 0, 0): Fraction(1)}
    with pytest.raises(ValueError):
        Poly.var(3, 0)
    with pytest.raises(ValueError):
        Poly.var(3, 4)


def test_zero_polynomial_degree_is_minus_one():
    assert Poly.zero(2).degree() == -1
    assert Poly.const(2, 5).degree() == 0


@pytest.mark.parametrize("a, b, expected", [
    ((1, 0), (0, 1), (1, 1)),
    ((2, 3), (1, 1), (3, 4)),
])
def test_monomial_multiplication(a, b, expected):
    assert mono_mul(a, b) == expected


def test_monomial_division_helpers():
    assert mono_divides((1, 0), (2, 1))
    assert not mono_divides((0, 2), (1, 1))
    assert mono_div((2, 1), (1, 0)) == (1, 1)
    assert mono_lcm((2, 0), (1, 3)) == (2, 3)


def test_degrevlex_ordering_on_classics():
    # same degree: x*z vs y^2 in three variables; degrevlex puts y^2 first
    xz = (1, 0, 1)
    yy = (0, 2, 0)
    assert mono_key(yy) > mono_key(xz)
    # degree dominates everything
    assert mono_key((3, 0, 0)) > mono_key((0, 1, 1))


def test_arithmetic_matches_hand_computation():
    d1, d2 = variables(2)
    p = (d1 + d2) * (d1 - d2)
    assert p == d1 * d1 - d2 * d2
    q = (d1 + 1) ** 3
    assert q == d1**3 + 3 * d1**2 + 3 * d1 + 1


def test_fraction_scalars_work_from_both_sides():
    d1, d2 = variables(2)
    p = Fraction(1, 2) * d1 + d2 * Fraction(2, 3)
    assert p.terms[(1, 0)] == Fraction(1, 2)
    assert p.terms[(0, 1)] == Fraction(2, 3)
    assert (1 - d1) == -(d1 - 1)


def test_negate_vars_flips_odd_degrees():
    d1, d2 = variables(2)
    p = d1**2 * d2 - 3 * d1 + 5
    assert p.negate_vars() == -(d1**2 * d2) + 3 * d1 + 5
    assert p.negate_vars().negate_vars() == p


def test_partial_and_evaluate():
    d1, d2 = variables(2)
    p = d1**2 * d2 + 2 * d2
    assert p.partial(1) == 2 * d1 * d2
    assert p.partial(2) == d1**2 + 2
    assert p.evaluate([2, 3]) == 4 * 3 + 6


def test_apply_as_derivative_on_polynomial_section():
    d1, d2 = variables(2)
    op = d1 * d2
    # section x^2 y^3 in the same coordinates
    section = Poly(2, {(2, 3): Fraction(1)})
    out = apply_as_derivative(op, section)
    assert out == Poly(2, {(1, 2): Fraction(6)})
    # annihilation once the order exceeds the degree
    assert apply_as_derivative(d1**3, section).is_zero()


def test_homogeneity_detection():
    d1, d2 = variables(2)
    assert (d1 * d2 + d2**2).is_homogeneous()
    assert not (d1 + d2**2).is_homogeneous()
    assert Poly.zero(2).is_homogeneous()


@pytest.mark.parametrize("text, pretty", [
    ("0", "0"),
    ("5", "5"),
    ("-3/2", "-3/2"),
    ("d1", "d1"),
    ("d1*d1", "d1^2"),
    ("-d2 + d1", "d1 - d2"),
    ("d3 - 1 + -3/2 * d1^2 * d2", "-3/2*d1^2*d2 + d3 - 1"),
    ("(d1 + d2)^2", "d1^2 + 2*d1*d2 + d2^2"),
    ("2*(d1 - d2) - (d1 + d2)", "d1 - 3*d2"),
])
def test_serialize_canonical_form(text, pretty):
    assert serialize(parse(text, 3)) == pretty


def test_serialize_sorts_descending_in_degrevlex():
    p = parse("d2 + d1 + d1*d2 + 1", 2)
    assert serialize(p) == "d1*d2 + d1 + d2 + 1"


@pytest.mark.parametrize("bad, pos", [
    ("d0", 0),
    ("d4", 0),
    ("1 +", 3),
    ("(d1", 3),
    ("d1 ^ d2", 5),
    ("2 ** 3", 3),
    ("", 0),
    ("x1 + 1", 0),
])
def test_parse_errors_carry_position(bad, pos):
    with pytest.raises(ParseError) as exc:
        parse(bad, 3)
    assert exc.value.position == pos


@pytest.mark.parametrize("bad, message, pos", [
    ("1/0", "zero denominator", 0),
    ("2*d1 + 3/0*d2", "zero denominator", 7),
    ("d1^1/2", "exponent must be a nonnegative integer", 3),
    ("d1^-1", "exponent must be a nonnegative integer", 3),
    ("d1 ^ d2", "exponent must be a nonnegative integer", 5),
    ("d1^", "unexpected end of input", 3),
    ("d1^2^3", "trailing input '^'", 4),
    ("d1)", "trailing input ')'", 2),
    ("(d1", "unexpected end of input", 3),
    ("(d1 d2)", "expected ')'", 4),
    ("d1 d2", "trailing input 'd2'", 3),
    ("x1", "unexpected character 'x'", 0),
    ("d1 $", "unexpected character '$'", 3),
    ("d1 d2 $", "unexpected character '$'", 6),
    ("1/0 + x1", "unexpected character 'x'", 6),
    ("(d1 + 2/0) * #", "unexpected character '#'", 13),
    ("", "unexpected end of input", 0),
    ("  ", "unexpected end of input", 2),
    ("-", "unexpected end of input", 1),
    ("2*", "unexpected end of input", 2),
    ("d1 + * d2", "unexpected token '*'", 5),
    ("((d1+d2)*(d1 - d4))", "variable d4 out of range for nvars=3", 15),
    pytest.param("(" * 101 + "d1" + ")" * 101, "parentheses nested deeper than 100",
                 100, id="101-nested-parentheses"),
])
def test_parse_error_messages_and_positions(bad, message, pos):
    with pytest.raises(ParseError) as exc:
        parse(bad, 3)
    assert str(exc.value) == f"{message} (at position {pos})"
    assert exc.value.position == pos


@pytest.mark.parametrize("text, value", [
    ("(2*d1)^3", "8*d1^3"),
    ("(-1/2*d1*d2)^3", "-1/8*d1^3*d2^3"),
    ("(-d1)^2*(3)", "3*d1^2"),
    ("-(-2/3)^3*d2", "8/27*d2"),
    ("(d1)^0*(4/6)^1", "2/3"),
    ("d2*(2*d1)^2*(d1 + d2)", "4*d1^3*d2 + 4*d1^2*d2^2"),
])
def test_parse_one_term_group_powers(text, value):
    assert serialize(parse(text, 3)) == value


@pytest.mark.parametrize("grouped, plain", [
    ("(3)^30000000*d1", "3^30000000*d1"),
    ("(1/3)^30000*d1", "1/3^30000*d1"),
    ("(2*d1)^20000", "2^20000*d1^20000"),
])
def test_one_term_group_power_gets_the_digit_check_of_its_plain_spelling(grouped, plain):
    """A parenthesized term raised to a power is refused, at its '(', with
    the message its unparenthesized spelling gets, before the power is
    computed."""
    errors = []
    for text in (grouped, plain):
        with pytest.raises(ParseError) as exc:
            parse("d2 + " + text, 3)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]
    assert errors[0].startswith("number of ")
    assert errors[0].endswith(" digits (at position 5)")


@pytest.mark.parametrize("text, at", [
    ("9^4000*9^4000*d1", 12),
    ("9^8000*d1", 5),
    ("(1/9)^4000*d2*(1/9)^4000", 19),
    ("9^4000*9^4000*" * 100 + "d1", 12),
])
def test_a_term_whose_numbers_multiply_past_the_digit_limit_is_refused(text, at):
    """The running product of a term's numbers gets the digit check of one
    number, at the factor that takes it over the limit; earlier versions
    accepted 9^4000*9^4000*d1 and refused 9^8000*d1."""
    with pytest.raises(ParseError) as exc:
        parse("d2 + " + text, 3)
    assert str(exc.value) == ("number of 7634 digits exceeds the limit of 4300 "
                              f"digits (at position {at})")
    # 4,301 digits is one too many, 4,300 is not
    assert str(parse("d2 + 10^4000*10^299*d1", 3)) == "10" + "0" * 4298 + "*d1 + d2"
    with pytest.raises(ParseError, match="number of 4301 digits"):
        parse("d2 + 10^4000*d1*10^300", 3)


def test_parse_limits_parenthesis_nesting():
    assert parse("(" * 100 + "d1" + ")" * 100, 3) == parse("d1", 3)
    with pytest.raises(ParseError) as exc:
        parse("(" * 5000 + "d1" + ")" * 5000, 3)
    assert exc.value.position == 100


def test_parse_round_trip_random(seed=20260816):
    rng = Random(seed)
    for _ in range(200):
        terms = {}
        for _t in range(rng.randint(0, 6)):
            m = tuple(rng.randint(0, 3) for _ in range(3))
            terms[m] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        p = Poly(3, terms)
        assert parse(serialize(p), 3) == p


def test_parse_expands_a_large_power():
    p = parse("(d1+d2+d3+1)^20", 3)
    # one term per exponent vector of d1, d2, d3 and the constant summing to 20
    assert len(p.terms) == comb(23, 3) == 1771

    def multinomial(*ks):
        return factorial(sum(ks)) // prod(factorial(k) for k in ks)

    assert p.terms[(5, 5, 5)] == multinomial(5, 5, 5, 5) == 11732745024
    assert p.terms[(2, 3, 4)] == multinomial(2, 3, 4, 11)


def _vector_str(entries):
    return "(" + ", ".join(serialize(p) for p in entries) + ")"


def test_vector_printing():
    d1, d2 = variables(2)
    entries = [d1, Poly.zero(2), d2 - 1]
    assert _vector_str(entries) == "(d1, 0, d2 - 1)"
    assert str(FreeElem(entries)) == _vector_str(entries)

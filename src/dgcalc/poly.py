"""Exact multivariate polynomials in the symbols d1..dn over the rationals.

These polynomials play the role of constant-coefficient differential
operators: di stands for the i-th partial derivative.  Everything is kept
exact with fractions.Fraction coefficients; monomials are exponent tuples.

The monomial order used throughout is degree reverse lexicographic with
d1 > d2 > ... > dn.  Canonical text form writes terms in decreasing order,
so strings are stable and comparable across runs.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from operator import add
from typing import Iterable, Iterator, Sequence

Monomial = tuple[int, ...]


def mono_key(m: Monomial) -> tuple:
    """Sort key for degrevlex: compare total degree, then reversed exponents
    negated.  Larger key means larger monomial; d1 > d2 > ... > dn."""
    return (sum(m), tuple(-e for e in reversed(m)))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True when a | b, i.e. b/a has no negative exponents."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    # caller guarantees b | a
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_str(m: Monomial) -> str:
    parts = []
    for i, e in enumerate(m):
        if e == 0:
            continue
        parts.append(f"d{i + 1}" if e == 1 else f"d{i + 1}^{e}")
    return "*".join(parts)


class ParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Poly:
    """Immutable polynomial over Q in nvars symbols d1..dn.

    Internally a dict from exponent tuple to nonzero Fraction.  Do not
    mutate `terms` after construction; arithmetic always builds new dicts.
    """

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms: dict[Monomial, Fraction] | None = None):
        if nvars < 1:
            raise ValueError("nvars must be at least 1")
        self.nvars = nvars
        self.terms: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                if len(m) != nvars:
                    raise ValueError(f"monomial {m} has wrong arity for nvars={nvars}")
                if c:
                    self.terms[m] = Fraction(c)
        self._hash: int | None = None

    @classmethod
    def _make(cls, nvars: int, terms: dict[Monomial, Fraction]) -> "Poly":
        """Trusted constructor for results built here: the caller guarantees
        that every monomial has arity nvars and every coefficient is a
        nonzero Fraction, so nothing is checked or re-wrapped."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        p._hash = None
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars)

    @staticmethod
    def const(nvars: int, c) -> "Poly":
        c = Fraction(c)
        if not c:
            return Poly(nvars)
        return Poly(nvars, {(0,) * nvars: c})

    @staticmethod
    def var(nvars: int, i: int) -> "Poly":
        """The symbol d_i, 1-indexed."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of range 1..{nvars}")
        m = tuple(1 if j == i - 1 else 0 for j in range(nvars))
        return Poly._make(nvars, {m: Fraction(1)})

    @staticmethod
    def term(nvars: int, m: Monomial, c) -> "Poly":
        return Poly(nvars, {tuple(m): Fraction(c)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def leading_term(self) -> tuple[Monomial, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=mono_key)
        return m, self.terms[m]

    def leading_coefficient(self) -> Fraction:
        return self.leading_term()[1]

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def items_sorted(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: mono_key(t[0]), reverse=True)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("mixed nvars in polynomial arithmetic")

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            if m in terms:
                s = terms[m] + c
                if s:
                    terms[m] = s
                else:
                    del terms[m]
            else:
                terms[m] = c
        return Poly._make(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._make(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Poly(self.nvars)
            return Poly._make(self.nvars, {m: c * v for m, v in self.terms.items()})
        self._check(other)
        return sum_of_products(self.nvars, ((numerators(self), numerators(other)),))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- operator-specific transforms ---------------------------------------

    def negate_vars(self, factor: Fraction | int = 1) -> "Poly":
        """Substitute di -> -di, so each term picks up (-1)^degree, and
        multiply by `factor` in the same pass (no multiply when it is 1)."""
        if not factor:
            return Poly(self.nvars)
        if factor == 1:
            terms = {m: (-c if sum(m) & 1 else c) for m, c in self.terms.items()}
        else:
            f = Fraction(factor)
            terms = {m: (-c if sum(m) & 1 else c) * f for m, c in self.terms.items()}
        return Poly._make(self.nvars, terms)

    def partial(self, i: int) -> "Poly":
        """Formal partial derivative with respect to d_i (1-indexed).

        Used when polynomials stand for sections in coordinates rather than
        operators; the symbol action below relies on it.
        """
        if not 1 <= i <= self.nvars:
            raise ValueError(f"variable index {i} out of range 1..{self.nvars}")
        j = i - 1
        # m -> m - e_j is one-to-one, so no two terms land on one monomial
        terms: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            if m[j]:
                terms[m[:j] + (m[j] - 1,) + m[j + 1 :]] = c * m[j]
        return Poly._make(self.nvars, terms)

    def evaluate(self, point: Iterable) -> Fraction:
        vals = [Fraction(v) for v in point]
        if len(vals) != self.nvars:
            raise ValueError("point arity does not match nvars")
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for e, x in zip(m, vals):
                if e:
                    v *= x**e
            total += v
        return total

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        return serialize(self)

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {serialize(self)!r})"


Numerators = tuple[list[tuple[Monomial, int]], int]


def numerators(p: Poly) -> Numerators:
    """The terms of p as integer numerators over their least common
    denominator: (list of (monomial, int), denominator)."""
    den = 1
    for c in p.terms.values():
        d = c.denominator
        if d != 1:
            den = den * d // math.gcd(den, d)
    return [(m, c.numerator * (den // c.denominator)) for m, c in p.terms.items()], den


def sum_of_products(nvars: int, pairs: Sequence[tuple[Numerators, Numerators]]) -> Poly:
    """The sum of a * b over pairs of factors given by their `numerators`.
    Every product is brought to the least common denominator of all the
    products, so the inner loop multiplies and adds ints only and each
    output Fraction is built once."""
    den = 1
    for (_, da), (_, db) in pairs:
        d = da * db
        if d != 1:
            den = den * d // math.gcd(den, d)
    acc: dict[Monomial, int] = {}
    get = acc.get
    for (a, da), (b, db) in pairs:
        f = den // (da * db)
        if f != 1:
            a = [(m, c * f) for m, c in a]
        for m1, c1 in a:
            for m2, c2 in b:
                m = tuple(map(add, m1, m2))
                acc[m] = get(m, 0) + c1 * c2
    return from_numerators(nvars, acc, den)


def from_numerators(nvars: int, nums: dict[Monomial, int], den: int = 1) -> Poly:
    """The polynomial sum of c/den * m over `nums` (monomial -> int, zeros
    allowed); monomials must have arity nvars and den must be positive."""
    if den == 1:
        return Poly._make(nvars, {m: Fraction(c) for m, c in nums.items() if c})
    return Poly._make(nvars, {m: Fraction(c, den) for m, c in nums.items() if c})


def apply_as_derivative(op: Poly, section: Poly) -> Poly:
    """Act with op, read as a constant-coefficient differential operator,
    on a polynomial section in the same coordinates."""
    if op.nvars != section.nvars:
        raise ValueError("operator and section have different nvars")
    out = Poly.zero(op.nvars)
    for m, c in op.terms.items():
        g = section
        for i, e in enumerate(m):
            for _ in range(e):
                g = g.partial(i + 1)
                if g.is_zero():
                    break
        if not g.is_zero():
            out = out + c * g
    return out


# -- canonical text form -----------------------------------------------------


def serialize(p: Poly) -> str:
    """Canonical form: terms in decreasing degrevlex order, ' + '/' - '
    separators, '*' between coefficient and symbols, no redundant '1*'."""
    if p.is_zero():
        return "0"
    return format_terms((m, c.numerator, c.denominator) for m, c in p.items_sorted())


def format_terms(items: Iterable[tuple[Monomial, int, int]]) -> str:
    """The canonical text of a nonzero polynomial given as (monomial,
    numerator, denominator) triples in decreasing degrevlex order, each
    coefficient nonzero and in lowest terms with a positive denominator;
    `serialize` is this on a Poly's terms."""
    chunks: list[str] = []
    for m, num, den in items:
        neg = num < 0
        a = -num if neg else num
        # Fraction prints p/q, or p when q is 1
        coeff = str(a) if den == 1 else f"{a}/{den}"
        ms = mono_str(m)
        if not ms:
            body = coeff
        elif a == 1 and den == 1:
            body = ms
        else:
            body = f"{coeff}*{ms}"
        if chunks:
            chunks.append(f"- {body}" if neg else f"+ {body}")
        else:
            chunks.append(f"-{body}" if neg else body)
    return " ".join(chunks)


# One alternative per token kind, then whitespace to skip and a catch-all
# for any other character, so one finditer pass covers the whole text.
_TOKEN = re.compile(
    r"(?P<num>\d+(?:/\d+)?)|(?P<var>d\d+)|(?P<op>[-+*^()])|(?P<ws>\s+)|(?P<bad>.)",
    re.DOTALL,
)


# Each parenthesis costs two parser frames, so this stays far below
# Python's default recursion limit of 1000 wherever the parser is called.
_MAX_NESTING = 100


class _Parser:
    """Recursive descent over +, -, *, ^, parentheses, integers, rationals
    written p/q with no spaces, and symbols d1..dn.  Parentheses nest at
    most _MAX_NESTING deep."""

    def __init__(self, text: str, nvars: int):
        self.text = text
        self.nvars = nvars
        self.depth = 0
        self.tokens: list[tuple[str, str, int]] = []
        self._tokenize()
        self.i = 0

    def _tokenize(self) -> None:
        """(kind, text, position) per token, ending with an ("end", "",
        len(text)) sentinel, so reading never runs past the list."""
        tokens = self.tokens
        for m in _TOKEN.finditer(self.text):
            kind = m.lastgroup
            if kind == "ws":
                continue
            if kind == "bad":
                raise ParseError(f"unexpected character {m.group()!r}", m.start())
            tokens.append((kind, m.group(), m.start()))
        tokens.append(("end", "", len(self.text)))

    def _peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def _next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        if tok[0] == "end":
            raise ParseError("unexpected end of input", tok[2])
        self.i += 1
        return tok

    def parse(self) -> Poly:
        p = self.expr()
        tok = self._peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return p

    def expr(self) -> Poly:
        """The terms summed into one dict.  A coefficient that cancels to
        zero leaves the dict, so the terms keep the order that adding the
        terms one by one with `Poly.__add__` gives them."""
        acc: dict[Monomial, int | Fraction] = {}
        get = acc.get
        sign = 1
        while True:
            coeff, exps, group = self.term()
            if coeff:
                if sign < 0:
                    coeff = -coeff
                if group is None:
                    items = ((tuple(exps), coeff),)
                else:
                    items = (
                        (tuple(map(add, m, exps)), coeff * c)
                        for m, c in group.terms.items()
                    )
                for m, c in items:
                    s = get(m, 0) + c
                    if s:
                        acc[m] = s
                    else:
                        del acc[m]
            tok = self._peek()
            if tok[0] == "op" and tok[1] in "+-":
                self.i += 1
                sign = -1 if tok[1] == "-" else 1
            else:
                return Poly._make(
                    self.nvars,
                    {m: c if type(c) is Fraction else Fraction(c) for m, c in acc.items()},
                )

    def term(self) -> tuple[int | Fraction, list[int], Poly | None]:
        """A product of factors as (coefficient, exponents, group): each
        factor is unary signs, an atom and an optional ^k.  Numbers and
        symbols fold into the coefficient and the exponent list; only
        parenthesized factors multiply as Polys, into `group` (None when
        the term has none).  The term is coefficient * d^exponents * group."""
        coeff: int | Fraction = 1
        exps = [0] * self.nvars
        group = None
        while True:
            tok = self._peek()
            while tok[0] == "op" and tok[1] in "+-":
                self.i += 1
                if tok[1] == "-":
                    coeff = -coeff
                tok = self._peek()
            kind, text, at = self._next()
            if kind == "num":
                if "/" in text:
                    num, den = text.split("/")
                    d = _digits(den, at)
                    if d == 0:
                        raise ParseError("zero denominator", at)
                    value = Fraction(_digits(num, at), d)
                else:
                    value = _digits(text, at)
            elif kind == "var":
                idx = _digits(text[1:], at)
                if not 1 <= idx <= self.nvars:
                    raise ParseError(
                        f"variable {text} out of range for nvars={self.nvars}", at
                    )
            elif text == "(":
                if self.depth == _MAX_NESTING:
                    raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}", at)
                self.depth += 1
                value = self.expr()
                self.depth -= 1
                closing = self._next()
                if closing[0] != "op" or closing[1] != ")":
                    raise ParseError("expected ')'", closing[2])
            else:
                raise ParseError(f"unexpected token {text!r}", at)
            k = 1
            tok = self._peek()
            if tok[0] == "op" and tok[1] == "^":
                self.i += 1
                etok = self._next()
                if etok[0] != "num" or "/" in etok[1]:
                    raise ParseError("exponent must be a nonnegative integer", etok[2])
                k = _digits(etok[1], etok[2])
            if kind == "num":
                coeff *= value if k == 1 else value**k
            elif kind == "var":
                exps[idx - 1] += k
            else:
                if k != 1:
                    value = value**k
                group = value if group is None else group * value
            tok = self._peek()
            if not (tok[0] == "op" and tok[1] == "*"):
                return coeff, exps, group
            self.i += 1


def _digits(text: str, at: int) -> int:
    """The int a digit string spells; a ParseError at `at`, the position of
    its token, when it is longer than Python converts
    (`sys.get_int_max_str_digits`)."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(
            f"number of {len(text)} digits exceeds the limit of "
            f"{sys.get_int_max_str_digits()} digits",
            at,
        ) from None


def parse(text: str, nvars: int) -> Poly:
    return _Parser(text, nvars).parse()


def poly_vector_str(entries: Iterable[Poly]) -> str:
    return "(" + ", ".join(serialize(p) for p in entries) + ")"


def variables(nvars: int) -> Iterator[Poly]:
    for i in range(1, nvars + 1):
        yield Poly.var(nvars, i)

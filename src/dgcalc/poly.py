"""Exact multivariate polynomials in the symbols d1..dn over the rationals.

These polynomials play the role of constant-coefficient differential
operators: di stands for the i-th partial derivative.  Monomials are
exponent tuples.  A polynomial is stored exactly as integer numerators
over one positive denominator, in the canonical form that `canonical`
gives; the engine's module elements keep the same form, so a value has one
representation throughout.  `Fraction`s appear only at the edges: the
`Poly.terms` view, the scalars and points the API takes, and the values
it returns.

The monomial order used throughout is degree reverse lexicographic with
d1 > d2 > ... > dn.  Canonical text form writes terms in decreasing order,
so strings are stable and comparable across runs.
"""

from __future__ import annotations

import math
import re
import sys
from operator import add
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    from fractions import Fraction

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


class NumberTooLong(ValueError):
    """Raised when a number to be written has more digits than Python
    converts to text.  `FreeElem.cell_texts` sets `column` to the entry
    it was writing, so a writer that knows the row can name the cell."""

    column: int | None = None


def canonical(terms: dict, num: int = 1, den: int = 1) -> tuple[dict, int]:
    """The value terms * num / den in canonical form, as (terms', den'):
    den' > 0 and gcd(content(terms'), den') == 1, and zero is ({}, 1).
    The caller guarantees nonzero int values, num != 0 and den > 0, and
    hands `terms` over: it is returned as is when no rescaling is needed.
    Keys are monomials for `Poly` and (position, monomial) for the
    engine's module elements."""
    if not terms or (num == 1 and den == 1):
        return terms, 1
    # terms * num/den == (terms/g) * a/b with content(terms/g) == 1
    g = math.gcd(*terms.values())
    a = g * num
    c = math.gcd(a, den)
    a, den = a // c, den // c
    if a != g:
        terms = {t: v // g * a for t, v in terms.items()}
    return terms, den


def _is_scalar(x) -> bool:
    """True for an int or a Fraction.  No Fraction exists before
    `fractions` is loaded, so the class is looked up in `sys.modules`
    rather than imported."""
    if isinstance(x, int):
        return True
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(x, fractions.Fraction)


def _cleared(values: dict[Monomial, int | Fraction]) -> tuple[dict[Monomial, int], int]:
    """Nonzero ints and Fractions as integer numerators over their least
    common denominator.  The lcm of reduced denominators leaves no common
    factor with the numerators it produces, so this is canonical."""
    den = math.lcm(*(c.denominator for c in values.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in values.items()}, den


class Poly:
    """Immutable polynomial over Q in nvars symbols d1..dn.

    Stored as `nums / den`: `nums` maps each exponent tuple to a nonzero
    int and `den` is a positive int, in the canonical form of `canonical`,
    so equality and hashing compare the exact rational polynomial without
    building any Fraction.  Do not mutate `nums`.  `terms`, the same
    polynomial as a {monomial: Fraction} dict, is a view built on first
    read and cached; nothing in the package reads it.
    """

    __slots__ = ("nvars", "nums", "den", "_terms", "_hash")

    def __init__(self, nvars: int, terms: dict[Monomial, Fraction] | None = None):
        if nvars < 1:
            raise ValueError("nvars must be at least 1")
        values: dict[Monomial, int | Fraction] = {}
        if terms:
            Fraction = None  # imported at the first value that is no int
            for m, c in terms.items():
                if len(m) != nvars:
                    raise ValueError(f"monomial {m} has wrong arity for nvars={nvars}")
                if isinstance(c, int):
                    c = int(c)
                else:
                    if Fraction is None:
                        from fractions import Fraction
                    c = Fraction(c)
                if c:
                    values[m] = c
        self.nvars = nvars
        self.nums, self.den = _cleared(values)
        self._terms: dict[Monomial, Fraction] | None = None
        self._hash: int | None = None

    @classmethod
    def _make(cls, nvars: int, nums: dict[Monomial, int], num: int = 1, den: int = 1
              ) -> "Poly":
        """Trusted constructor: the polynomial nums * num / den, brought to
        canonical form.  The caller guarantees monomials of arity nvars,
        nonzero int values, num != 0 and den > 0, and hands `nums` over."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.nums, p.den = canonical(nums, num, den)
        p._terms = None
        p._hash = None
        return p

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """The polynomial as {monomial: nonzero Fraction}, in the order of
        `nums`; do not mutate it."""
        if self._terms is None:
            from fractions import Fraction

            den = self.den
            self._terms = {m: Fraction(c, den) for m, c in self.nums.items()}
        return self._terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars)

    @staticmethod
    def const(nvars: int, c) -> "Poly":
        return Poly(nvars, {(0,) * nvars: c})

    @staticmethod
    def var(nvars: int, i: int) -> "Poly":
        """The symbol d_i, 1-indexed."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of range 1..{nvars}")
        m = tuple(1 if j == i - 1 else 0 for j in range(nvars))
        return Poly._make(nvars, {m: 1})

    @staticmethod
    def term(nvars: int, m: Monomial, c) -> "Poly":
        return Poly(nvars, {tuple(m): c})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.nums), default=-1)

    def is_homogeneous(self) -> bool:
        return len({sum(m) for m in self.nums}) <= 1

    def leading_term(self) -> tuple[Monomial, Fraction]:
        if not self.nums:
            raise ValueError("zero polynomial has no leading term")
        from fractions import Fraction

        m = max(self.nums, key=mono_key)
        return m, Fraction(self.nums[m], self.den)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("mixed nvars in polynomial arithmetic")

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly) and _is_scalar(other):
            other = Poly.const(self.nvars, other)
        self._check(other)
        # both over the least common denominator, so the sum stays in ints
        den = math.lcm(self.den, other.den)
        f = den // self.den
        nums = dict(self.nums) if f == 1 else {m: c * f for m, c in self.nums.items()}
        f = den // other.den
        for m, c in other.nums.items():
            if f != 1:
                c *= f
            if m in nums:
                s = nums[m] + c
                if s:
                    nums[m] = s
                else:
                    del nums[m]
            else:
                nums[m] = c
        return Poly._make(self.nvars, nums, 1, den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._make(self.nvars, {m: -c for m, c in self.nums.items()}, 1, self.den)

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, Poly) and _is_scalar(other):
            other = Poly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly) and _is_scalar(other):
            if not other or not self.nums:
                return Poly(self.nvars)
            return Poly._make(
                self.nvars, self.nums, other.numerator, self.den * other.denominator
            )
        self._check(other)
        # integer numerators over the product of the denominators
        acc: dict[Monomial, int] = {}
        get = acc.get
        right = other.nums.items()
        for m1, c1 in self.nums.items():
            for m2, c2 in right:
                m = tuple(map(add, m1, m2))
                acc[m] = get(m, 0) + c1 * c2
        nums = {m: c for m, c in acc.items() if c}
        return Poly._make(self.nvars, nums, 1, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly._make(self.nvars, {(0,) * self.nvars: 1})
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            if not _is_scalar(other):
                return NotImplemented
            other = Poly.const(self.nvars, other)
        return (
            self.nvars == other.nvars
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.nvars, self.den, frozenset(self.nums.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.nums)

    # -- operator-specific transforms ---------------------------------------

    def negate_vars(self, num: int = 1, den: int = 1) -> "Poly":
        """Substitute di -> -di, so each term picks up (-1)^degree, and
        multiply by num / den (den > 0) in the same pass."""
        if not num:
            return Poly(self.nvars)
        nums = {m: (-c if sum(m) & 1 else c) for m, c in self.nums.items()}
        return Poly._make(self.nvars, nums, num, self.den * den)

    def partial(self, i: int) -> "Poly":
        """Formal partial derivative with respect to d_i (1-indexed).

        Used when polynomials stand for sections in coordinates rather than
        operators; the symbol action below relies on it.
        """
        if not 1 <= i <= self.nvars:
            raise ValueError(f"variable index {i} out of range 1..{self.nvars}")
        j = i - 1
        # m -> m - e_j is one-to-one, so no two terms land on one monomial
        nums: dict[Monomial, int] = {}
        for m, c in self.nums.items():
            if m[j]:
                nums[m[:j] + (m[j] - 1,) + m[j + 1 :]] = c * m[j]
        return Poly._make(self.nvars, nums, 1, self.den)

    def evaluate(self, point: Iterable) -> Fraction:
        from fractions import Fraction

        vals = [Fraction(v) for v in point]
        if len(vals) != self.nvars:
            raise ValueError("point arity does not match nvars")
        total = 0
        for m, c in self.nums.items():
            for e, x in zip(m, vals):
                if e:
                    c *= x**e
            total += c
        return Fraction(total) / self.den

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        return serialize(self)

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {serialize(self)!r})"


def apply_as_derivative(op: Poly, section: Poly) -> Poly:
    """Act with op, read as a constant-coefficient differential operator,
    on a polynomial section in the same coordinates."""
    if op.nvars != section.nvars:
        raise ValueError("operator and section have different nvars")
    out = Poly.zero(op.nvars)
    for m, c in op.nums.items():
        g = section
        for i, e in enumerate(m):
            for _ in range(e):
                g = g.partial(i + 1)
                if g.is_zero():
                    break
        if not g.is_zero():
            out = out + c * g
    from fractions import Fraction

    return out * Fraction(1, op.den)


# -- canonical text form -----------------------------------------------------


def serialize(p: Poly) -> str:
    """Canonical form: terms in decreasing degrevlex order, ' + '/' - '
    separators, '*' between coefficient and symbols, no redundant '1*'."""
    return format_terms(p.nums.items(), p.den, {}) if p.nums else "0"


def format_terms(items: Iterable[tuple[Monomial, int]], den: int,
                 texts: dict[Monomial, tuple[tuple, str]]) -> str:
    """The canonical text of the nonzero polynomial sum of c/den * m over
    (monomial, int) items in any order, each c nonzero and den > 0; each
    coefficient is brought to lowest terms here.  `texts` maps a monomial
    to its (sort key, text) and is filled on first sight, so a caller that
    formats many entries passes them one dict and pays for each monomial's
    key and text once.  `serialize` is this on one Poly with a fresh dict
    and `FreeElem.cell_texts` on the entries of an element, with one dict
    for all the rows of an operator in `LinDiffOp.entry_strs`."""
    rows = []
    for m, v in items:
        kt = texts.get(m)
        if kt is None:
            # ascending (-degree, reversed exponents) is descending degrevlex
            kt = texts[m] = ((-sum(m), m[::-1]), mono_str(m))
        rows.append(kt + (v,))
    rows.sort()
    chunks: list[str] = []
    try:
        for _, ms, v in rows:
            if den == 1:
                num, den_m = v, 1
            else:
                g = math.gcd(v, den)
                num, den_m = v // g, den // g
            neg = num < 0
            a = -num if neg else num
            # Fraction prints p/q, or p when q is 1
            coeff = str(a) if den_m == 1 else f"{a}/{den_m}"
            if not ms:
                body = coeff
            elif a == 1 and den_m == 1:
                body = ms
            else:
                body = f"{coeff}*{ms}"
            if chunks:
                chunks.append(f"- {body}" if neg else f"+ {body}")
            else:
                chunks.append(f"-{body}" if neg else body)
    except ValueError:
        # only str() of a number over Python's limit raises here
        raise NumberTooLong(_over_limit(_decimal_digits(max(a, den_m)))) from None
    return " ".join(chunks)


def _decimal_digits(a: int) -> int:
    """The number of decimal digits of a > 0, without writing it out."""
    d = int(math.log10(a)) + 1
    # the float logarithm can be one off next to a power of ten
    if a < 10 ** (d - 1):
        return d - 1
    return d + 1 if a >= 10**d else d


# One token after optional whitespace: a number, a symbol, an operator, the
# end of the text, or any other character.
_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>d\d+)|(?P<op>[-+*^()])|(?P<end>\Z)|(?P<bad>.))",
    re.DOTALL,
)


# Each parenthesis costs two parser frames, so this stays far below
# Python's default recursion limit of 1000 wherever the parser is called.
_MAX_NESTING = 100


class _Parser:
    """Recursive descent over +, -, *, ^, parentheses, integers, rationals
    written p/q with no spaces, and symbols d1..dn.  Parentheses nest at
    most _MAX_NESTING deep.

    The text is lexed once, up front, into (kind, text, position) tokens
    ending with the `end` token (twice after trailing whitespace); the first
    character no token takes raises there, so it is reported before any
    grammar error.  `expr` and `term`
    then read the list from index `i`, and every other error names the
    token where the grammar fails."""

    def __init__(self, text: str, nvars: int):
        toks = []
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
            toks.append((kind, m[kind], m.start(kind)))
        self.toks = toks
        self.i = 0
        self.nvars = nvars
        self.depth = 0

    def parse(self) -> Poly:
        p = self.expr()
        kind, text, at = self.toks[self.i]
        if kind != "end":
            raise ParseError(f"trailing input {text!r}", at)
        return p

    def expr(self) -> Poly:
        """The terms summed as integer numerators over one running common
        denominator.  A coefficient that cancels to zero leaves the dict, so
        the terms keep the order that adding the terms one by one with
        `Poly.__add__` gives them."""
        acc: dict[Monomial, int] = {}
        get = acc.get
        den = sign = 1
        while True:
            num, d, exps, group = self.term()
            if group is None:
                items = ((tuple(exps), num),)
            else:
                d *= group.den
                items = [(tuple(map(add, g, exps)), num * c)
                         for g, c in group.nums.items()]
            if num:
                if den % d:
                    lcm = math.lcm(den, d)
                    f = lcm // den
                    for g, c in acc.items():
                        acc[g] = c * f
                    den = lcm
                f = sign * (den // d)
                for g, c in items:
                    s = get(g, 0) + c * f
                    if s:
                        acc[g] = s
                    else:
                        del acc[g]
            sep = self.toks[self.i][1]
            if sep != "+" and sep != "-":
                return Poly._make(self.nvars, acc, 1, den)
            self.i += 1
            sign = -1 if sep == "-" else 1

    def term(self) -> tuple[int, int, list[int], Poly | None]:
        """A product of factors as (numerator, denominator, exponents,
        group): each factor is unary signs, an atom and an optional ^k.
        Numbers, symbols and one-term groups fold into the coefficient, with
        `_power`'s digit check on each power and `_product`'s on the running
        product, and the exponents; only other groups multiply as Polys,
        into `group` (None when the term has none)."""
        toks = self.toks
        i = self.i
        num, den = 1, 1
        exps = [0] * self.nvars
        group = None
        while True:
            kind, text, at = toks[i]
            while text == "+" or text == "-":
                if text == "-":
                    num = -num
                i += 1
                kind, text, at = toks[i]
            i += 1
            if kind == "num":
                a, _, b = text.partition("/")
                b = _digits(b, at) if b else 1
                if b == 0:
                    raise ParseError("zero denominator", at)
                a = _digits(a, at)
            elif kind == "var":
                idx = _digits(text[1:], at)
                if not 1 <= idx <= self.nvars:
                    raise ParseError(f"variable {text} out of range for "
                                     f"nvars={self.nvars}", at)
            elif text == "(":
                if self.depth == _MAX_NESTING:
                    raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}", at)
                self.depth += 1
                self.i = i
                value = self.expr()
                i = self.i
                self.depth -= 1
                closing = toks[i]
                if closing[1] != ")":
                    raise _unexpected(closing, "expected ')'")
                i += 1
            else:
                raise _unexpected(toks[i - 1], f"unexpected token {text!r}")
            k = 1
            if toks[i][1] == "^":
                etok = toks[i + 1]
                if etok[0] != "num" or "/" in etok[1]:
                    raise _unexpected(etok, "exponent must be a nonnegative integer")
                k = _digits(etok[1], etok[2])
                i += 2
            if kind == "var":
                exps[idx - 1] += k
            elif kind == "num" or len(value.nums) == 1:
                if kind != "num":
                    # a one-term group's coefficient is powered as a number is
                    ((mono, a),) = value.nums.items()
                    b = value.den
                    for j, e in enumerate(mono):
                        exps[j] += e * k
                    if a < 0 and k & 1:
                        num = -num
                    a = abs(a)
                if k != 1:
                    a, b = _power(a, k, at), _power(b, k, at)
                num, den = _product(num, a, at), _product(den, b, at)
            else:
                if k != 1:
                    value = value**k
                group = value if group is None else group * value
            if toks[i][1] != "*":
                self.i = i
                if den != 1:
                    g = math.gcd(num, den)
                    num, den = num // g, den // g
                return num, den, exps, group
            i += 1


def _unexpected(tok: tuple[str, str, int], message: str) -> ParseError:
    """The error at `tok`: the end of input when it is the `end` token,
    else `message`."""
    kind, _, at = tok
    return ParseError("unexpected end of input" if kind == "end" else message, at)


def _digit_limit() -> int:
    """The most digits a number in polynomial text may have: Python's limit
    on converting an int from text (`sys.get_int_max_str_digits`), or its
    default, 4,300, on an interpreter with no limit (3.10, or a limit of 0)."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return (get and get()) or 4300


def _over_limit(digits: int) -> str:
    return f"number of {digits} digits exceeds the limit of {_digit_limit()} digits"


def _digits(text: str, at: int) -> int:
    """The int a digit string spells; a ParseError at `at`, the position of
    its token, when it is longer than Python converts."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(_over_limit(len(text)), at) from None


def _power(a: int, k: int, at: int) -> int:
    """a**k for the number a >= 0 whose token is at `at`; a ParseError there,
    raised before the power is computed, when it would have more digits
    than `_digit_limit` allows.  a**k has floor(k * log10(a)) + 1 digits;
    the product is taken in integers, so no exponent overflows a float,
    and only next to the limit, where rounding could decide, is the value
    itself compared."""
    if a < 2:
        return a**k
    limit = _digit_limit()
    digits = (k * round(math.log10(a) * (1 << 52)) >> 52) + 1
    if digits < limit or (digits <= limit + 1 and a**k < 10**limit):
        return a**k
    raise ParseError(_over_limit(digits), at)


def _product(x: int, y: int, at: int) -> int:
    """x*y for a term's running numerator or denominator x and a factor's
    y, whose token is at `at`; a ParseError there when the product has
    more digits than `_digit_limit` allows.  A product under 2^2126, below
    10^640, the least limit Python takes, is not compared."""
    p = x * y
    if p.bit_length() > 2126 and abs(p) >= 10**_digit_limit():
        raise ParseError(_over_limit(_decimal_digits(abs(p))), at)
    return p


def parse(text: str, nvars: int) -> Poly:
    """The polynomial `text` spells in d1..d`nvars`, read by one `_Parser`."""
    return _Parser(text, nvars).parse()


def variables(nvars: int) -> Iterator[Poly]:
    for i in range(1, nvars + 1):
        yield Poly.var(nvars, i)

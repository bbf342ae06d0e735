"""Submodules of free modules over Q[d1..dn]: Groebner bases, syzygies,
membership, division with cofactors, minimal generating sets, ranks and
free resolutions.

Free-module elements (`FreeElem`) are sparse integer term dicts keyed
(position, monomial) over one positive denominator: the form the Buchberger
run works in, so results pass between computations without conversion, and
their Poly entries are a view built on demand.  The term order is fixed:
degrevlex on monomials, position-over-term with lower position winning ties
(so all comparisons look at the monomial first).

There is one Buchberger run per row set, and the finished run is the row
set's memo entry: it works on the rows augmented with unit tracking
columns, under a block order that makes every genuine term beat every
tracking term.  It serves three products, each built on its first read
and kept on the run: the genuine parts of its basis give the reduced
Groebner basis (`reduced_groebner`, which also serves membership and
module equality); the elements whose genuine block dies, kept packed
until then, give the syzygy generators (`syzygies`), whose minimized set,
one step of a resolution or the rows of `operators.cc`, is kept on the
run as well; and the run's basis as it stands divides with cofactors,
from the tracking columns of a remainder, handing the quotient back as a
row.  The positions of its leads also give the generic rank, when
`fraction_rank`'s point stage does not certify full rank.  What the
upper calls finish from a row set is kept on the set's run too, in its
`reports`: a resolution of the rows (`resolve_module`), the operator
`operators.cc` builds from an operator's rows, the quotient
`operators.factor_through` finds on the run of the divisor's rows, a
`param_test` report on the run of the operator's rows, an `ext_module`
report on the run of the adjoint's rows, and a torsion witness on the
run of a residue stacked on a system's rows.  So a repeated query is one
memo lookup and one dict read.  A run whose relations nobody reads never
decodes or checks them.

Inside the run, the Groebner reducer and the graded minimizer, a term is
one int (`_Packing`).  From high bits to low it holds the block flag, the
total degree, cap - e_n, ..., cap - e_1 and ncols - 1 - pos, so integer
order is the term order, a monomial multiple is one addition, and a
divisibility test is one subtraction and a guard-bit mask.  The S-pair
lcms and both Gebauer-Moeller chain criteria work on these packed terms
too, and each packing keys a monomial once, in a table that makes
encoding a term one lookup and one subtraction.  The field
width comes from the computation's degree bound: for a run, the highest
degree in its basis plus the larger of the degree budget and the rows'
degree, checked again each time the basis grows; for a normal form or a
division, the basis degree plus the input's.  When a term would not fit,
the fields widen and the basis is re-encoded, and encoding a term wider
than its fields raises OverflowError rather than wrapping.  Only values
that leave the engine are decoded.

The inline checks (each relation handed out annihilates its rows, each
division identity holds) multiply every relation out exactly on the
decoded (position, monomial) terms, apart from the packing.  For the
relations, `_RowCode` gives each row term the Kronecker key
pos + W * sum_j m_j * B^j, with W above every position and the base B the
rows' degree plus the largest relation degree plus one, so a product
term's key is one addition and no field carries: the first request for a
row set's relations encodes its rows once for the run's whole harvest
and checks each relation once.  A division multiplies its identity out
once, with `FreeElem.dot`: the row (quot + e_k - e_{k+1}) * quot.den
against the k rows stacked with the remainder and the element must give
zero.

A harvested relation is built carrying what the run knows of it:
its degree and whether it is homogeneous, read off the degree fields of
its largest and smallest packed terms, and a mark that it is normalized,
since the run made it primitive with the coefficient of its largest
packed term, its leading term, positive.  So the minimizer reads
`degree()`, `is_homogeneous()` and `normalized()` of a relation without
looking at its terms, and the run's `_RowCode` takes B from those degrees.

Each public entry point (`reduced_groebner`, `module_contains`,
`module_equal`, `syzygies`, `minimize_generators`, `divide_with_cofactors`,
`resolve_module`) is a boundary: it checks its rows with `_as_elems` and
reads the degree budget from the environment once, then hands a tuple of
rows and that budget to a private core (`_basis`, `_same_module`,
`_relations`, `_minimal`, `_divide`, `_resolve`), and copies a tuple the
core returns into a fresh list.  The cores trust their callers: they take
rows of one width and nvars and hand back the tuples kept on the runs, so
a chain of them, such as a resolution's steps or `operators.cc`, checks
its input and reads the budget once, however many links it has.
`fraction_rank` reads the budget only when its point stage leaves the
rank to the run.

Every cache of the package is a memo made by `_memo`, an unbounded
`functools.lru_cache` registered in one list that `clear_caches()` empties:
one here, `_tracked`, whose entries are the Buchberger runs, and one that
`report` registers when it is loaded.

Everything here is deterministic: pair selection, reducer choice and output
ordering are all fixed by the term order and insertion order, and reduced
Groebner bases are mathematically unique, so results do not depend on
generator permutations.
"""

from __future__ import annotations

import heapq
import math
import os
from functools import lru_cache
from itertools import combinations_with_replacement, groupby, repeat
from operator import add, mul
from typing import Iterable, NamedTuple, Sequence

from .poly import (
    Monomial,
    NumberTooLong,
    Poly,
    canonical,
    format_terms,
)

BUDGET_ENV = "DGCALC_BUDGET_DEGREE"
DEFAULT_BUDGET = 12


class BudgetExceeded(RuntimeError):
    """A computation needed more than its budget allows.

    Raised here when a Groebner run needs an S-pair above the degree budget,
    instead of silently truncating: a partial basis is not a basis.  That
    budget is controlled by the DGCALC_BUDGET_DEGREE environment variable
    (default 12).  `duality` raises subclasses for its own caps; the CLI
    exits 4 on all of them.
    """


def _budget() -> int:
    raw = os.environ.get(BUDGET_ENV, "")
    if not raw:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        value = None
    # 0 stays valid: two constant leads at one position give a degree-0 S-pair
    if value is None or value < 0:
        raise ValueError(f"{BUDGET_ENV}={raw!r} is not a nonnegative integer")
    return value


# -- caches ------------------------------------------------------------------

_MEMOS: list = []


def _memo(fn):
    """`fn` as an unbounded `functools.lru_cache`, registered in `_MEMOS`.
    Callers pass the arguments positionally, so one input has one key.
    What is derived from a row set is no memo of its own: it is kept on
    the set's `_tracked` run."""
    cached = lru_cache(maxsize=None)(fn)
    _MEMOS.append(cached)
    return cached


def clear_caches() -> None:
    """Empty every memo: the engine's Buchberger runs, with the reduced
    Groebner bases, syzygies, minimized relations, resolutions, `cc`
    operators, `factor_through` quotients, torsion witnesses and
    `param_test` and `ext_module` reports kept on them, and the report's
    operators when it is loaded, so the next call recomputes.  What an
    element or an operator keeps on itself, its values at
    `fraction_rank`'s point or its adjoint, depends on no budget and no
    cache and stays.  It imports nothing."""
    for memo in _MEMOS:
        memo.cache_clear()


# -- free module elements ----------------------------------------------------


Term = tuple[int, Monomial]  # (position, monomial)

# bits of `FreeElem._marks`: what is known of an element without reading
# its terms.  _NORMAL: `normalized()` is the element itself; _HOMOGENEOUS
# and _MIXED: `is_homogeneous()` is known true, or known false.
_NORMAL, _HOMOGENEOUS, _MIXED = 1, 2, 4


class FreeElem:
    """An element of the free module D^(1 x width), D = Q[d1..dn].

    Stored sparsely in the form `Poly` uses: the element is `terms / den`,
    where `terms` maps (position, monomial) to a nonzero int, in the
    canonical form of `poly.canonical` (den > 0, gcd(content(terms), den)
    == 1, zero is ({}, 1)), so equality and hashing compare the exact
    rational entries without building any Fraction.  Do not mutate `terms`.

    `FreeElem(entries)` builds an element from Polys, bringing their
    numerators to the least common denominator in ints.  `entries`, the
    tuple of width Polys, is a view: the Polys handed to that constructor,
    or else built on first use and cached.  `_point`, the element's values
    at `fraction_rank`'s point modulo its prime, is kept the same way, and
    never mutated.
    """

    __slots__ = (
        "width", "nvars", "terms", "den", "_entries", "_deg", "_str", "_hash", "_marks",
        "_point",
    )

    def __init__(self, entries: Iterable[Poly]):
        entries = tuple(entries)
        if not entries:
            raise ValueError("free module elements need positive width")
        nv = entries[0].nvars
        if any(p.nvars != nv for p in entries):
            raise ValueError("mixed nvars inside one element")
        # each entry is canonical, so over the lcm of their denominators the
        # numerators keep no common factor with it: this is canonical too
        den = math.lcm(*(p.den for p in entries))
        self.terms: dict[Term, int] = {
            (pos, m): c * (den // p.den) for pos, p in enumerate(entries)
            for m, c in p.nums.items()
        }
        self.width = len(entries)
        self.nvars = nv
        self.den = den
        self._entries: tuple[Poly, ...] | None = entries
        self._deg: int | None = None
        self._str: str | None = None
        self._hash: int | None = None
        self._marks = 0
        self._point: dict[int, int] | None = None

    @classmethod
    def _make(
        cls, width: int, nvars: int, terms: dict[Term, int], num: int = 1, den: int = 1
    ) -> "FreeElem":
        """Trusted constructor: the element terms * num / den, brought to
        canonical form.  The caller guarantees 0 <= pos < width, monomials
        of arity nvars, nonzero int values, num != 0 and den > 0, and hands
        `terms` over: it is kept when no rescaling is needed."""
        e = object.__new__(cls)
        e.width = width
        e.nvars = nvars
        e.terms, e.den = canonical(terms, num, den)
        e._entries = None
        e._deg = None
        e._str = None
        e._hash = None
        e._marks = 0
        e._point = None
        return e

    @property
    def entries(self) -> tuple[Poly, ...]:
        if self._entries is None:
            cols: list[dict[Monomial, int]] = [{} for _ in range(self.width)]
            for (pos, m), v in self.terms.items():
                cols[pos][m] = v
            self._entries = tuple(Poly._make(self.nvars, col, 1, self.den) for col in cols)
        return self._entries

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Largest total degree of a term; -1 for zero."""
        if self._deg is None:
            self._deg = max((sum(m) for _, m in self.terms), default=-1)
        return self._deg

    def is_homogeneous(self) -> bool:
        """All nonzero entries homogeneous of one common total degree."""
        marks = self._marks
        if not marks & (_HOMOGENEOUS | _MIXED):
            one = len({sum(m) for _, m in self.terms}) <= 1
            marks = self._marks = marks | (_HOMOGENEOUS if one else _MIXED)
        return bool(marks & _HOMOGENEOUS)

    def normalized(self) -> "FreeElem":
        """Scale to primitive integer coefficients with positive leading
        coefficient in the module order.  Canonical up to nothing: equal
        elements up to a rational factor normalize identically."""
        terms = self.terms
        if self._marks & _NORMAL or not terms:
            return self
        g = math.gcd(*terms.values())
        # ascending (-degree, reversed exponents) is descending degrevlex,
        # and the lower position wins a tie
        if terms[min(terms, key=lambda t: (-sum(t[1]), t[1][::-1], t[0]))] < 0:
            g = -g
        if g == 1 and self.den == 1:
            self._marks |= _NORMAL
            return self
        e = FreeElem._make(self.width, self.nvars, {t: v // g for t, v in terms.items()})
        # a scalar multiple keeps the degree and the homogeneity
        e._deg = self._deg
        e._marks = _NORMAL | self._marks
        return e

    def dot(self, rows: Sequence["FreeElem"]) -> "FreeElem":
        """Row-vector times matrix: sum_i entries[i] * rows[i]."""
        if len(rows) != self.width:
            raise ValueError("dot width mismatch")
        nvars = self.nvars
        if any(r.nvars != nvars for r in rows):
            raise ValueError("mixed nvars in dot")
        return _dot(self, rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FreeElem):
            return NotImplemented
        return (
            self.width == other.width
            and self.nvars == other.nvars
            and self.den == other.den
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self.width, self.nvars, self.den, frozenset(self.terms.items()))
            )
        return self._hash

    def cell_texts(self, texts: dict | None = None) -> list[str]:
        """Each entry's canonical text, as `serialize` gives it, built from
        the terms: a zero entry is the shared string "0", so only the
        nonzero positions cost work.  `texts` is the monomial lookup of
        `format_terms`; callers that write many elements share one."""
        cells = ["0"] * self.width
        cols: dict[int, list[tuple[Monomial, int]]] = {}
        for (pos, m), v in self.terms.items():
            col = cols.get(pos)
            if col is None:
                col = cols[pos] = []
            col.append((m, v))
        if texts is None:
            texts = {}
        try:
            for pos, col in cols.items():
                cells[pos] = format_terms(col, self.den, texts)
        except NumberTooLong as exc:
            exc.column = pos
            raise
        return cells

    def __str__(self) -> str:
        """The entries' canonical text, in parentheses and separated by
        commas; made on first use."""
        if self._str is None:
            self._str = "(" + ", ".join(self.cell_texts()) + ")"
        return self._str

    def __repr__(self) -> str:
        return f"FreeElem{self}"


def cell_rows(elems: Iterable[FreeElem], cell: str) -> list[list[str]]:
    """Each element's `cell_texts`, with one monomial lookup for them all.
    A number too long to write raises NumberTooLong naming its cell:
    `cell` formatted with the row i and the column j."""
    texts: dict = {}
    rows: list[list[str]] = []
    try:
        for e in elems:
            rows.append(e.cell_texts(texts))
    except NumberTooLong as exc:
        where = cell.format(i=len(rows), j=exc.column)
        raise NumberTooLong(f"{where}: {exc}") from None
    return rows


def _dot(elem: FreeElem, rows: Sequence[FreeElem]) -> FreeElem:
    """`elem.dot(rows)` without its checks, for a caller whose shapes agree
    by construction: `compose` builds each row of a product with it.  A
    constant coefficient shifts no monomial, so its row's own
    (position, monomial) keys are added, scaled, with no monomial sum:
    the remainder and element columns of `_divide`'s identity check, and
    every constant entry of a left factor in `compose`."""
    # every row over one common denominator, so the sum stays in ints
    den = math.lcm(*(r.den for r in rows))
    one = (0,) * elem.nvars
    acc: dict[Term, int] = {}
    get = acc.get
    for (i, m), c in elem.terms.items():
        row = rows[i]
        c *= den // row.den
        if m == one:
            for k, v in row.terms.items():
                acc[k] = get(k, 0) + c * v
            continue
        for (pos, mm), v in row.terms.items():
            k = (pos, tuple(map(add, m, mm)))
            acc[k] = get(k, 0) + c * v
    acc = {k: v for k, v in acc.items() if v}
    return FreeElem._make(rows[0].width, elem.nvars, acc, 1, elem.den * den)


def _transpose_rows(rows: Sequence[FreeElem]) -> list[FreeElem]:
    """The columns of the matrix whose rows these are, one element of width
    len(rows) per position."""
    ints, den = _int_rows(rows)
    cols: list[dict] = [{} for _ in range(rows[0].width)]
    for i, r in enumerate(ints):
        for (pos, m), v in r.items():
            cols[pos][(i, m)] = v
    return [FreeElem._make(len(rows), rows[0].nvars, c, 1, den) for c in cols]


def _int_rows(elems: Sequence[FreeElem]) -> tuple[list[dict[Term, int]], int]:
    """The rows' terms times one common denominator, returned with it, so
    the relations among these integer rows are exactly the relations among
    the given rows.  A row already over that denominator is the element's
    own dict: callers that mutate a row copy it first."""
    den = math.lcm(*(e.den for e in elems))
    rows = [
        e.terms if e.den == den else {t: v * (den // e.den) for t, v in e.terms.items()}
        for e in elems
    ]
    return rows, den


class _RowCode:
    """Integer rows encoded once for exact checks of relations among them.

    A row term (pos, m) gets the Kronecker key pos + W * sum_j m_j * B^j,
    where W exceeds every position and B is the rows' degree plus `reldeg`
    plus 1.  A relation term (i, m) of degree at most `reldeg` shifts row
    i's keys by W * sum_j m_j * B^j, and no exponent of a product reaches
    B, so no field carries into the next: distinct product terms keep
    distinct keys and the sum is exact.  Built from the (position,
    monomial) terms alone, apart from the packing that made the
    relations."""

    __slots__ = ("rows", "reldeg", "scale", "shifts")

    def __init__(self, rows: Sequence[dict[Term, int]], reldeg: int):
        # one pass finds the distinct monomials and the top position
        monos: set[Monomial] = set()
        seen = monos.add
        width = 1
        for row in rows:
            for pos, m in row:
                seen(m)
                if pos >= width:
                    width = pos + 1
        base = max(map(sum, monos), default=0) + reldeg + 1
        nvars = len(next(iter(monos))) if monos else 0
        self.scale = scale = [width * base**j for j in range(nvars)]
        self.reldeg = reldeg
        self.shifts: dict[Monomial, int] = {}  # relation monomial -> key shift
        key = {m: sum(map(mul, m, scale)) for m in monos}
        self.rows = [[(pos + key[m], v) for (pos, m), v in row.items()] for row in rows]

    def annihilates(self, coeffs: dict[Term, int]) -> bool:
        """True when sum over (i, m) of coeffs[(i, m)] * d^m * rows[i] is
        zero; raises ValueError for a relation term above `reldeg`."""
        rows, shifts = self.rows, self.shifts
        acc: dict[int, int] = {}
        get = acc.get
        for (i, m), c in coeffs.items():
            s = shifts.get(m)
            if s is None:
                if sum(m) > self.reldeg:
                    raise ValueError("relation degree exceeds the encoded bound")
                s = shifts[m] = sum(map(mul, m, self.scale))
            for k, v in rows[i]:
                k += s
                acc[k] = get(k, 0) + c * v
        return not any(acc.values())


# -- packed terms ----------------------------------------------------------------


class _Packing:
    """The layout of packed terms for one computation.

    A term (pos, m) of a module with `ncols` positions, of which
    [0, split) are genuine and the rest tracking columns, is one int whose
    fields are, from high bits to low: the block flag (1 for genuine), the
    total degree, cap - e_n, ..., cap - e_1, and ncols - 1 - pos.  The
    degree and exponent fields are `bits` wide and cap = 2**(bits-1) - 1,
    so the top bit of each field is a guard bit that no stored term sets.
    Integer order is then the engine's term order: block, degrevlex
    monomial, lower position.

    Multiplying a term by a monomial adds to the degree field and takes
    from the exponent fields, with no carry, so it is one addition of a
    shift such as `enc(p, L) - enc(p, m)`; at one position, lead | t
    exactly when `(lead - t) & guard` is 0, since a field of `lead` below
    that of `t` borrows into its own guard bit, and `lcm` takes the
    smaller of each pair of exponent fields through the same guard bits.
    All three hold only while every degree stays at most `cap`:
    `_Reducer.fit` widens the fields before a computation can exceed it,
    and `term` refuses (OverflowError) to encode a term above it.

    Each packing keys a monomial once: `table` maps it to its packed value
    at position 0 without the flag, filled the first time `packed` or
    `encode` meets it, so encoding a term is one lookup and one
    subtraction, plus the flag at a genuine position.
    """

    __slots__ = (
        "nvars", "ncols", "split", "bits", "cap", "shifts", "degshift", "fmask",
        "flag", "guard", "pmask", "emask", "dmask", "degsum", "table", "_one",
        "_weights",
    )

    def __init__(self, nvars: int, ncols: int, split: int, degree: int):
        self.bits = bits = degree.bit_length() + 1
        low = (ncols - 1).bit_length()
        self.nvars, self.ncols, self.split = nvars, ncols, split
        self.cap = (1 << (bits - 1)) - 1
        self.shifts = tuple(range(low, low + nvars * bits, bits))
        self.degshift = low + nvars * bits
        self.fmask = (1 << bits) - 1
        self.flag = 1 << (self.degshift + bits)
        self.guard = sum(1 << (s + bits - 1) for s in self.shifts)
        self.pmask = (1 << low) - 1
        self.emask = (1 << self.degshift) - 1 - self.pmask
        self.dmask = self.fmask << self.degshift
        # times an int whose fields are the exponents e_j, this puts
        # sum_j e_j in the degree field (see `lcm`)
        self.degsum = sum(1 << (self.degshift - s) for s in self.shifts)
        self.table: dict[Monomial, int] = {}
        # (0, 1) without its flag, and what one unit of each exponent adds
        self._one = sum(self.cap << s for s in self.shifts) + ncols - 1
        self._weights = tuple((1 << self.degshift) - (1 << s) for s in self.shifts)

    def _monomial(self, m: Monomial) -> int:
        """The term (0, m) without its flag."""
        deg = sum(m)
        if deg > self.cap:
            raise OverflowError(
                f"degree {deg} exceeds the packed field capacity {self.cap}"
            )
        return self._one + sum(map(mul, m, self._weights))

    def term(self, pos: int, m: Monomial) -> int:
        t = self._monomial(m) - pos
        return t + self.flag if pos < self.split else t

    def packed(self, m: Monomial) -> int:
        """The term (0, m) without its flag, from `table`."""
        t = self.table.get(m)
        if t is None:
            t = self.table[m] = self._monomial(m)
        return t

    def encode(self, terms: dict[Term, int]) -> dict[int, int]:
        """The terms packed, each monomial looked up in `table`."""
        get, packed = self.table.get, self.packed
        split, flag = self.split, self.flag
        out = {}
        for (pos, m), v in terms.items():
            t = get(m)
            if t is None:
                t = packed(m)
            out[t - pos + flag if pos < split else t - pos] = v
        return out

    def lcm(self, a: int, b: int) -> int:
        """The lcm of the terms a and b at one position; its degree must be
        at most `cap`.  Each exponent field is the smaller of the two:
        `(a | guard) - b` keeps a field's guard bit where a's field is at
        least b's, and `g - (g >> (bits - 1))` widens each kept guard bit
        into a mask of its field's value bits.  The flag, degree and
        position come from a, so `a - low` holds the exponents the lcm adds
        to a.  Each partial sum of them is at most the lcm's degree, so
        multiplying by `degsum` adds them into the degree field with no
        carry between fields."""
        g = ((a | self.guard) - b) & self.guard
        m = g - (g >> (self.bits - 1))
        low = (b & m) | (a & ~m)
        return low + (((a - low) * self.degsum) & self.dmask)

    def decode(
        self, h: dict[int, int], monos: dict[int, Monomial] | None = None, offset: int = 0
    ) -> dict[Term, int]:
        """h as (position - offset, monomial) terms.  `monos`, the caller's
        table from exponent fields to tuples, makes equal monomials share
        one tuple."""
        if monos is None:
            monos = {}
        get = monos.get
        cap, fmask, shifts = self.cap, self.fmask, self.shifts
        emask, pmask = self.emask, self.pmask
        last = self.ncols - 1 - offset
        out = {}
        for t, v in h.items():
            key = t & emask
            m = get(key)
            if m is None:
                m = monos[key] = tuple(cap - ((t >> s) & fmask) for s in shifts)
            out[(last - (t & pmask), m)] = v
        return out


def _content_normalize(h: dict) -> dict:
    """h divided by its integer content, with the sign that makes its
    largest key's coefficient positive."""
    g = math.gcd(*h.values())
    if g > 1:
        h = {t: v // g for t, v in h.items()}
    if h[max(h)] < 0:
        h = {t: -v for t, v in h.items()}
    return h


# -- division and the Buchberger run ----------------------------------------


class _Reducer:
    """Basis storage and division over packed term dicts {term: int}.

    Every basis element has a genuine lead (see `_Packing` for the
    blocks), so tracking terms are never reducible.  `top` is the highest
    degree of a basis term: reducing an input of degree d creates no term
    above top + d, and callers `fit` that bound before reducing.
    """

    def __init__(self, pack: _Packing):
        self.pack = pack
        self.basis: list[dict[int, int]] = []
        self.lts: list[int] = []
        self.by_pos: dict[int, list[int]] = {}  # position field -> indices
        self.top = 0

    def add(self, h: dict[int, int]) -> None:
        """Append h, a nonzero element with a genuine lead, to the basis."""
        lt = max(h)
        self.by_pos.setdefault(lt & self.pack.pmask, []).append(len(self.basis))
        self.basis.append(h)
        self.lts.append(lt)
        pack = self.pack
        self.top = max(self.top, max(map(pack.dmask.__and__, h)) >> pack.degshift)

    def fit(self, degree: int) -> None:
        """Widen the fields, re-encoding the basis, unless terms of this
        degree already fit.  Positions keep their field, so `by_pos`
        stays valid, and each lead is still its element's largest term."""
        old = self.pack
        if degree <= old.cap:
            return
        new, monos = _Packing(old.nvars, old.ncols, old.split, degree), {}
        self.basis = [new.encode(old.decode(h, monos)) for h in self.basis]
        self.lts = [max(h) for h in self.basis]
        self.pack = new

    def encode_input(self, terms: dict[Term, int], degree: int) -> dict[int, int]:
        """Packed terms of an input of this degree, after fitting the
        fields to everything its reduction can create."""
        self.fit(self.top + degree)
        return self.pack.encode(terms)

    def reduce_full(
        self, h: dict[int, int], keep: int | None = None
    ) -> tuple[dict[int, int], int, int]:
        """Pseudo-reduce every reducible term except `keep`, in place.
        Returns (remainder, num, den) with remainder == num/den * input
        -  combination of basis elements, and num, den > 0.

        Each term a reduction step creates lies below the term it reduces,
        and terms pop in decreasing order, so a term pushed once is either
        still in the heap or popped for good: each is pushed at most once,
        and a popped term is looked at once."""
        num = den = 1
        if not h:
            return h, num, den
        pack = self.pack
        flag, guard, pmask = pack.flag, pack.guard, pack.pmask
        basis, lts, by_pos = self.basis, self.lts, self.by_pos
        # a max-heap of negated terms; tracking terms never enter it
        pushed = {t for t in h if t >= flag}
        heap = [-t for t in pushed]
        heapq.heapify(heap)
        steps = 0
        while heap:
            t = -heapq.heappop(heap)
            # a term cancelled since it was pushed is gone from h
            if t == keep or t not in h:
                continue
            # insertion order: deterministic
            for idx in by_pos.get(t & pmask, ()):
                lt = lts[idx]
                if not (lt - t) & guard:
                    break
            else:
                continue
            g = basis[idx]
            lc = g[lt]
            c = h[t]
            gam = math.gcd(lc, c)
            a = lc // gam
            b = c // gam
            if a < 0:
                a, b = -a, -b
            if a != 1:
                num *= a
                for k in h:
                    h[k] *= a
            shift = t - lt
            get = h.get
            for k, gc in g.items():
                k += shift
                v = get(k)
                if v is None:
                    h[k] = -b * gc
                    if k >= flag and k not in pushed:
                        pushed.add(k)
                        heapq.heappush(heap, -k)
                else:
                    v -= b * gc
                    if v:
                        h[k] = v
                    else:
                        del h[k]
            steps += 1
            if steps % 16 == 0 and h:
                g0 = math.gcd(*h.values())
                if g0 > 1:
                    for k in h:
                        h[k] //= g0
                    den *= g0
        g0 = math.gcd(num, den)
        return h, num // g0, den // g0

    def interreduced(self) -> "_Reducer":
        """A reducer holding the reduced Groebner basis of the genuine parts
        of the stored basis, which must form a Groebner basis: each element
        with a genuine lead, so that its tracking terms, which are dropped
        here, were never reduced.  The result's elements are primitive with
        a positive lead, sorted by (leading position, leading monomial).

        One pass suffices: the elements whose leads no other lead divides
        keep the lead module, and reducing each one's tail against them
        yields the unique reduced element with that lead."""
        pack = self.pack
        flag, guard, pmask = pack.flag, pack.guard, pack.pmask
        leads, by_pos = self.lts, self.by_pos
        reduced = _Reducer(pack)
        for a, la in sorted(enumerate(leads), key=lambda e: (-(e[1] & pmask), e[1])):
            # only a lead at the same position can divide la; of two equal
            # leads the earlier one survives
            if not any(
                b != a and not (leads[b] - la) & guard and (leads[b] != la or b < a)
                for b in by_pos[la & pmask]
            ):
                reduced.add({t: v for t, v in self.basis[a].items() if t >= flag})
        reduced.fit(2 * reduced.top)
        for i, (h, lt) in enumerate(zip(reduced.basis, reduced.lts)):
            # only other survivors reduce a tail term, and whether they are
            # reduced already does not change the reduced element of a lead
            reduced.basis[i] = _content_normalize(reduced.reduce_full(h, keep=lt)[0])
        return reduced


class _Run:
    """One Buchberger computation over a `_Reducer`, then its rows' memo entry.

    `reach` bounds the degree of every genuine term the run reduces: the
    larger of the degree budget and the rows' degree.  Pair pruning uses
    the Gebauer-Moeller chain criteria, on packed terms: a pair's lcm is
    `_Packing.lcm` of the two leads, and a divisibility between lcms or
    leads is one guard-mask test.  The alive pairs are kept per position
    with their lcms, and the heap orders them by (lcm, position, i, j):
    the lcm without its position field orders as (degree, degrevlex).
    `run` drops both once the queue is empty.

    Division with cofactors reads the basis in `red` as it is.  The other
    products are None until first read: `_basis` builds `reduced` from
    `red`; `_relations` verifies `harvest` into `relations` and releases
    it; and `_minimal_relations` keeps their minimized tuple in `minimal`.

    `reports` keeps what the upper calls finished from these rows, each
    under a key made of everything that call read besides the rows, in a
    shape that no other kind of key has, so no two kinds collide:
      ("resolve", max_steps)   a `Resolution`, max_steps >= 1 (`_resolve`)
      ("cc", name, target name, target)
                               the operator `operators.cc` built
      ("factor", a's rows, a's name, b's name, a's target name, a's
       target, b's target name, b's target)
                               the quotient `operators.factor_through`
                               built, kept on the run of b's rows
      (name, source name, target name, source, target)
                               a `duality.param_test` report
      i, an int >= 1           a `duality.ext_module` report of Ext^i
      "witness"                a torsion witness (`duality._WITNESS`)
    An error is never kept, and the run's memo is keyed on the budget, so
    nothing kept crosses budgets.
    """

    __slots__ = (
        "reach", "budget", "red", "pairs", "alive", "harvest", "relations",
        "minimal", "reduced", "reports",
    )

    def __init__(self, pack: _Packing, reach: int, budget: int):
        self.reach = reach
        self.budget = budget
        self.red = _Reducer(pack)
        self.pairs: list[tuple[int, int, int, int]] | None = []  # heap
        # position -> {(i, j): packed lcm of the leads}
        self.alive: dict[int, dict[tuple[int, int], int]] | None = {}
        # each harvested relation packed, with the packing that encoded it
        # (a later widening re-encodes only the basis) and its top and
        # bottom total degree; decoded only when the relations are read
        self.harvest: list[tuple[dict[int, int], _Packing, int, int]] | None = []
        self.relations: tuple[FreeElem, ...] | None = None
        self.minimal: tuple[FreeElem, ...] | None = None
        self.reduced: GroebnerBasis | None = None
        self.reports: dict = {}

    def process(self, h: dict[int, int]) -> None:
        """Reduce h; a nonzero remainder joins the basis, or, once its
        genuine part has died, is harvested as a relation."""
        red = self.red
        h, _, _ = red.reduce_full(h)
        if not h:
            return
        h = _content_normalize(h)
        pack = red.pack
        lead = max(h)
        if lead < pack.flag:
            # the degree field sits right below the flag, so the largest
            # and smallest keys hold the top and bottom degree
            shift, fmask = pack.degshift, pack.fmask
            self.harvest.append(
                (h, pack, (lead >> shift) & fmask, (min(h) >> shift) & fmask)
            )
        else:
            self._add_basis(h)

    def _add_basis(self, h: dict[int, int]) -> None:
        red = self.red
        t = len(red.lts)
        red.add(h)
        # every term made from here on is a basis term times a shift of
        # degree at most reach
        old = red.pack
        red.fit(red.top + self.reach)
        if red.pack is not old:
            self._refit()
        pack = red.pack
        guard, lts = pack.guard, red.lts
        lt = lts[t]
        p = lt & pack.pmask
        pos = pack.ncols - 1 - p
        # new pairs against earlier same-position elements, then prune; a
        # genuine lead has degree at most reach, so every lcm fits the fields
        lcms = {i: pack.lcm(lt, lts[i]) for i in red.by_pos[p][:-1]}
        cand = lcms
        alive = self.alive.setdefault(pos, {})
        if lcms:
            # chain criterion among the new pairs: drop (i,t) when another
            # new pair's lcm strictly divides its lcm
            cand = {}
            for i, li in lcms.items():
                for lj in lcms.values():
                    if lj != li and not (lj - li) & guard:
                        break
                else:
                    cand[i] = li
            # chain criterion against existing pairs at this position
            for (i, j), L in list(alive.items()):
                if not (lt - L) & guard and lcms[i] != L and lcms[j] != L:
                    del alive[(i, j)]
        # by_pos lists indices in increasing order, and so does cand
        for i, L in cand.items():
            alive[(i, t)] = L
            heapq.heappush(self.pairs, (L - p, pos, i, t))

    def _refit(self) -> None:
        """Recompute the alive pairs' lcms from the re-encoded leads after
        the fields widened; the heap keeps only alive pairs, in the same
        order."""
        new, lts = self.red.pack, self.red.lts
        self.pairs = []
        for pos, alive in self.alive.items():
            p = new.ncols - 1 - pos
            for i, j in alive:
                alive[(i, j)] = L = new.lcm(lts[i], lts[j])
                self.pairs.append((L - p, pos, i, j))
        heapq.heapify(self.pairs)

    def _spair(self, i: int, j: int, L: int) -> dict[int, int]:
        red = self.red
        gi, gj = red.basis[i], red.basis[j]
        lti, ltj = red.lts[i], red.lts[j]
        ci, cj = gi[lti], gj[ltj]
        gam = math.gcd(ci, cj)
        a = cj // gam
        b = ci // gam
        si = L - lti
        sj = L - ltj
        h = {k + si: a * c for k, c in gi.items()}
        get = h.get
        for k, c in gj.items():
            k += sj
            v = get(k, 0) - b * c
            if v:
                h[k] = v
            else:
                del h[k]
        return h

    def run(self) -> None:
        while self.pairs:
            _, pos, i, j = heapq.heappop(self.pairs)
            L = self.alive[pos].pop((i, j), None)
            if L is None:
                continue
            pack = self.red.pack
            deg = (L >> pack.degshift) & pack.fmask
            if deg > self.budget:
                raise BudgetExceeded(
                    f"S-pair of degree {deg} exceeds budget {self.budget}; "
                    f"raise {BUDGET_ENV} to go further"
                )
            self.process(self._spair(i, j, L))
        self.pairs = self.alive = None


@_memo
def _tracked(elems: tuple[FreeElem, ...], budget: int) -> _Run:
    """The Buchberger run on the rows augmented with unit tracking columns,
    cached per row set.  The reduced Groebner basis, the syzygies,
    division with cofactors and the generic rank are all read off this one
    run; none of its relations is decoded here."""
    k = len(elems)
    width, nvars = elems[0].width, elems[0].nvars
    rows, den = _int_rows(elems)
    rowdeg = max(e.degree() for e in elems)
    reach = max(budget, rowdeg)
    run = _Run(_Packing(nvars, width + k, width, rowdeg + reach), reach, budget)
    one = (0,) * nvars
    for i, ints in enumerate(rows):
        # tracking column scaled identically, so relations hold for the
        # rows exactly as given, not for rescaled ones; the fields may have
        # widened since the previous row
        pack = run.red.pack
        h = pack.encode(ints)
        h[pack.term(width + i, one)] = den
        run.process(h)
    run.run()
    return run


# -- public Groebner interface ------------------------------------------------


class GroebnerBasis:
    """Reduced Groebner basis of a row module, with a reduction service.

    Generators are monic, mutually reduced, and sorted by leading position
    then leading monomial; this basis is unique for the module, so equality
    of bases is equality of modules.  The reducer divides by the
    generators' own integer terms, which differ from them by a positive
    scalar.
    """

    def __init__(self, reducer: _Reducer):
        """`reducer` holds the basis as `_Reducer.interreduced` returns it,
        in a module of width `reducer.pack.split`."""
        pack = reducer.pack
        self.width = width = pack.split
        self.nvars = nvars = pack.nvars
        monos: dict[int, Monomial] = {}
        # each element is primitive with a positive lead, so element / lead
        # is canonical
        self.generators = tuple(
            FreeElem._make(width, nvars, pack.decode(h, monos), 1, h[lt])
            for h, lt in zip(reducer.basis, reducer.lts)
        )
        self._reducer = reducer

    def _remainder(self, elem: FreeElem) -> tuple[dict[int, int], int, int]:
        """(h, num, den): the packed remainder h of elem, with h == num/den *
        elem.terms - (a module element), so h is empty exactly when elem
        lies in the module."""
        if elem.width != self.width:
            raise ValueError("element width does not match basis width")
        if elem.nvars != self.nvars:
            raise ValueError("element nvars does not match basis nvars")
        if elem.is_zero():
            return {}, 1, 1
        red = self._reducer
        return red.reduce_full(red.encode_input(elem.terms, elem.degree()))

    def normal_form(self, elem: FreeElem) -> FreeElem:
        h, num, den = self._remainder(elem)
        # the normal form is h * den / (num * elem.den)
        return FreeElem._make(
            self.width, self.nvars, self._reducer.pack.decode(h), den, num * elem.den
        )

    def contains(self, elem: FreeElem) -> bool:
        return not self._remainder(elem)[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroebnerBasis):
            return NotImplemented
        return (
            self.width == other.width
            and self.nvars == other.nvars
            and self.generators == other.generators
        )

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)


def _as_elems(rows: Sequence) -> tuple[FreeElem, ...]:
    """The rows as FreeElems of one width and nvars: the check every public
    entry point runs once on its input before handing it to a core."""
    out = tuple(r if isinstance(r, FreeElem) else FreeElem(r) for r in rows)
    if not out:
        raise ValueError("empty generator list: width is undetermined")
    w, nv = out[0].width, out[0].nvars
    for e in out:
        if e.width != w:
            raise ValueError("generators of mixed width")
        if e.nvars != nv:
            raise ValueError("generators of mixed nvars")
    return out


def _basis(rows: tuple[FreeElem, ...], budget: int) -> GroebnerBasis:
    """The core of `reduced_groebner`: the rows are nonempty, of one width
    and nvars."""
    run = _tracked(rows, budget)
    if run.reduced is None:
        run.reduced = GroebnerBasis(run.red.interreduced())
    return run.reduced


def reduced_groebner(rows: Sequence) -> GroebnerBasis:
    """The reduced Groebner basis of the rows' module, built on first
    request and kept with the rows' Buchberger run."""
    return _basis(_as_elems(rows), _budget())


def module_contains(gens: Sequence, elem: FreeElem) -> bool:
    return _basis(_as_elems(gens), _budget()).contains(elem)


def module_equal(gens_a: Sequence, gens_b: Sequence) -> bool:
    a = _as_elems(gens_a)
    b = _as_elems(gens_b)
    if a[0].width != b[0].width or a[0].nvars != b[0].nvars:
        return False
    return _same_module(a, b, _budget())


def _same_module(a: tuple[FreeElem, ...], b: tuple[FreeElem, ...], budget: int) -> bool:
    """The core of `module_equal`: both row tuples are nonempty and share
    one width and nvars."""
    # reduced bases are unique, so one comparison settles it
    return _basis(a, budget) == _basis(b, budget)


def _relations(rows: tuple[FreeElem, ...], budget: int) -> tuple[FreeElem, ...]:
    """The relations the rows' Buchberger run harvested, decoded and checked
    on the first request for the row set.  The core of `syzygies`: the rows
    are nonempty, of one width and nvars."""
    run = _tracked(rows, budget)
    if run.relations is None:
        relations = []
        if run.harvest:
            k, nvars = len(rows), rows[0].nvars
            # one encoding of the rows serves every relation of the run
            code = _RowCode(_int_rows(rows)[0], max(top for _, _, top, _ in run.harvest))
            monos: dict[int, Monomial] = {}
            last = None
            for h, pack, top, bottom in run.harvest:
                if pack is not last:
                    monos, last = {}, pack
                rel = pack.decode(h, monos, pack.split)
                if not code.annihilates(rel):
                    raise RuntimeError("internal error: harvested relation fails to annihilate")
                # `_content_normalize` left it primitive with its largest
                # key, which is its leading term, positive: it is normalized
                e = FreeElem._make(k, nvars, rel)
                e._deg = top
                e._marks = _NORMAL | (_HOMOGENEOUS if top == bottom else _MIXED)
                relations.append(e)
        run.relations, run.harvest = tuple(relations), None
    return run.relations


def syzygies(rows: Sequence) -> list[FreeElem]:
    """Generators of the relation module {c : sum_i c_i * rows_i = 0}.

    Output width equals len(rows).  The list generates the full syzygy
    module; it is not minimized here.  The relations are those the rows'
    Buchberger run harvested, built on the first call for the row set:
    each is decoded under the packing that encoded it and verified against
    the input, in integer term space, once, before any is handed back.
    """
    return list(_relations(_as_elems(rows), _budget()))


def _minimal_relations(rows: tuple[FreeElem, ...], budget: int) -> tuple[FreeElem, ...]:
    """`minimize_generators(syzygies(rows))` on trusted rows, built on the
    first request and kept with the rows' Buchberger run: one step of a
    resolution, and the rows of `operators.cc`."""
    run = _tracked(rows, budget)
    if run.minimal is None:
        relations = _relations(rows, budget)
        # a harvested relation is never zero
        run.minimal = _minimal(relations, (), budget) if relations else ()
    return run.minimal


# -- minimal generating sets ---------------------------------------------------


class _Echelon:
    """Sparse echelon form for integer dict-vectors over totally ordered
    keys (packed terms, or any other).

    Rows are stored primitive under their largest key and eliminated
    fraction-free, so the span over Q is tracked in integers.  Which key
    leads changes the stored rows but not the span, so not whether an
    insert is independent."""

    def __init__(self):
        self.rows: dict = {}

    def insert(self, v: dict) -> bool:
        """Insert if independent; returns True when the vector was new.
        Takes `v` over: it is reduced in place and may be stored."""
        while v:
            t = max(v)
            row = self.rows.get(t)
            if row is None:
                self.rows[t] = _content_normalize(v)
                return True
            # stored leads are positive, so a > 0: v <- a*v - b*row kills t
            g = math.gcd(row[t], v[t])
            a, b = row[t] // g, v[t] // g
            if a != 1:
                for k in v:
                    v[k] *= a
            for k, rc in row.items():
                s = v.get(k, 0) - b * rc
                if s:
                    v[k] = s
                else:
                    v.pop(k, None)
        return False


def _monomials_of_degree(nvars: int, deg: int) -> list[Monomial]:
    if deg == 0:
        return [(0,) * nvars]
    out = []
    for combo in combinations_with_replacement(range(nvars), deg):
        m = [0] * nvars
        for i in combo:
            m[i] += 1
        out.append(tuple(m))
    return out


def minimize_generators(gens: Sequence, *, base: Sequence = ()) -> list[FreeElem]:
    """Drop redundant generators greedily.

    Input is normalized, deduplicated and sorted by (degree, text); each
    element contained in the module of the other kept generators plus the
    rows of `base` is removed.  Relations from `syzygies` come normalized
    and with their degree and homogeneity known, so those steps read no
    terms of theirs, and the text order is read from each element's first
    nonzero cell, formatting whole texts only for elements of one degree
    that agree on it (`_ordered`).  The survivors therefore generate the
    quotient of the module of `gens` by the module of `base`; `base` rows
    are never returned.  When every generator and base row is homogeneous
    the containment test is plain linear algebra degree by degree, which
    also makes the surviving count the graded minimal number of
    generators, independent of the representative choice.  Otherwise,
    with no base, an element is contained in the module of the others
    exactly when some relation among the kept list has 1 at its position,
    that is when 1 lies in the ideal of that position's coordinates of
    `syzygies(kept)`: one relation run decides every element until one is
    dropped, and the shorter list gets a new run.  With a base, each
    element gets a Groebner membership test against the others and the
    base.
    """
    if not gens:
        return []
    elems = _as_elems(gens)
    if all(e.is_zero() for e in elems):
        return []
    base_elems = _as_elems(base) if base else ()
    first = next((b for b in base_elems if not b.is_zero()), None)
    if first is not None and first.width != elems[0].width:
        raise ValueError("base width does not match generator width")
    if first is not None and first.nvars != elems[0].nvars:
        raise ValueError("base nvars does not match generator nvars")
    return list(_minimal(elems, base_elems, _budget()))


def _minimal(gens: tuple, base: tuple, budget: int) -> tuple[FreeElem, ...]:
    """The core of `minimize_generators`: some of `gens` is nonzero, and
    the nonzero ones and the nonzero `base` rows share one width and
    nvars.  Every run it asks for is under `budget`."""
    uniq = _ordered(list(dict.fromkeys(e.normalized() for e in gens if not e.is_zero())))
    base_rows = [b for b in base if not b.is_zero()]
    if all(e.is_homogeneous() for e in uniq + base_rows):
        return tuple(_minimize_homogeneous(uniq, base_rows))
    kept = uniq
    if base_rows:
        i = 0
        while i < len(kept):
            others = kept[:i] + kept[i + 1 :] + base_rows
            if others and _basis(tuple(others), budget).contains(kept[i]):
                kept.pop(i)
            else:
                i += 1
        return tuple(kept)
    # kept[i] lies in the module of the others exactly when some relation
    # among the kept list has 1 at position i, that is when 1 lies in the
    # ideal of the i-th coordinates of any generating set of the relations:
    # one relation run decides every position until one is dropped
    relations = _relations(tuple(kept), budget)
    i = 0
    while i < len(kept):
        if _unit_coordinate(relations, i, budget):
            kept.pop(i)
            relations = _relations(tuple(kept), budget)
        else:
            i += 1
    return tuple(kept)


def _ordered(elems: list[FreeElem]) -> list[FreeElem]:
    """Distinct elements of one width, in the order of the key
    (degree, str).

    An element's head is its text without the "(" up to the end of its
    first nonzero cell: "0, " for each cell before it, then that cell's
    `format_terms` text and the separator after it, "," or ")" at the last
    position.  A zero element's head is its whole text.  No cell text holds
    "," or ")" and no nonzero one reads "0", so no head is a prefix of
    another, and elements whose heads differ order as their heads do: each
    costs one cell.  Only elements whose degree and head tie are compared
    by their whole text."""
    texts: dict = {}  # one monomial-text lookup serves every cell
    last = elems[0].width - 1 if elems else 0
    keys = []
    for e in elems:
        terms = e.terms
        if terms:
            q = min(terms)[0]
            cell = [(m, v) for (pos, m), v in terms.items() if pos == q]
            head = "0, " * q + format_terms(cell, e.den, texts) + ("," if q < last else ")")
        else:
            head = "0, " * last + "0)"
        keys.append((e.degree(), head))
    out: list[FreeElem] = []
    for _, run in groupby(sorted(range(len(elems)), key=keys.__getitem__), keys.__getitem__):
        tied = [elems[i] for i in run]
        if len(tied) > 1:
            tied.sort(key=lambda e: ", ".join(e.cell_texts(texts)) + ")")
        out.extend(tied)
    return out


def _unit_coordinate(relations: Sequence[FreeElem], i: int, budget: int) -> bool:
    """Whether 1 lies in the ideal of the i-th coordinates of `relations`."""
    ideal = []
    for rel in relations:
        coord = {(0, m): v for (pos, m), v in rel.terms.items() if pos == i}
        if coord:
            ideal.append(FreeElem._make(1, rel.nvars, coord, 1, rel.den))
    # a nonzero constant settles it; else the reduced basis holds the
    # constant 1 exactly when the ideal is the whole ring
    if any(c.degree() == 0 for c in ideal):
        return True
    return bool(ideal) and any(g.degree() == 0 for g in _basis(tuple(ideal), budget))


def _minimize_homogeneous(elems: list[FreeElem], base: list[FreeElem]) -> list[FreeElem]:
    width, nvars = elems[0].width, elems[0].nvars
    by_deg: dict[int, list[FreeElem]] = {}
    for e in elems:
        by_deg.setdefault(e.degree(), []).append(e)
    # no shifted vector rises above the top degree of the generators
    top = max(by_deg)
    pack = _Packing(nvars, width, width, top)
    packed = {g: pack.encode(g.terms) for g in elems + [b for b in base if b.degree() <= top]}
    one = pack.packed((0,) * nvars)
    kept: list[FreeElem] = []
    for d in sorted(by_deg):
        ech = _Echelon()
        # kept generators are all of strictly lower degree by construction;
        # each shifted vector is built fresh, so the echelon takes it over
        for g in kept + [b for b in base if b.degree() <= d]:
            terms = packed[g]
            for m in _monomials_of_degree(nvars, d - g.degree()):
                shift = pack.packed(m) - one
                ech.insert({t + shift: c for t, c in terms.items()})
        # within one degree the coefficients are scalars, so leave-one-out
        # in block order drops an element exactly when it lies in the seed
        # plus the later elements of its block: one reverse pass decides it.
        # A kept element's packed terms seed the later degrees: it is
        # inserted as a copy
        alive = [e for e in reversed(by_deg[d]) if ech.insert(dict(packed[e]))]
        kept.extend(reversed(alive))
    return kept


# -- division with cofactors ----------------------------------------------------


def divide_with_cofactors(elem: FreeElem, gens: Sequence) -> tuple[FreeElem, FreeElem]:
    """Write elem = quot.dot(gens) + remainder with the remainder in normal
    form; returns (quot, remainder), quot a row of width len(gens).  Exact:
    the identity is multiplied out with `FreeElem.dot` and verified before
    returning."""
    elems = _as_elems(gens)
    if elem.width != elems[0].width:
        raise ValueError("element width does not match generator width")
    if elem.nvars != elems[0].nvars:
        raise ValueError("element nvars does not match generator nvars")
    return _divide(elem, elems, _budget())


def _divide(
    elem: FreeElem, rows: tuple[FreeElem, ...], budget: int
) -> tuple[FreeElem, FreeElem]:
    """The core of `divide_with_cofactors`: the rows are nonempty and
    share the element's width and nvars."""
    run = _tracked(rows, budget)
    k = len(rows)
    width, nvars = elem.width, elem.nvars
    if elem.is_zero():
        return FreeElem._make(k, nvars, {}), elem
    red = run.red
    # h == num/den * elem.terms - sum_i q_i * rows_i, with -q_i in column
    # width + i; multiplying by den / (num * elem.den) gives the remainder
    # and -q_i
    h, num, den = red.reduce_full(red.encode_input(elem.terms, elem.degree()))
    num *= elem.den
    rem_terms: dict[Term, int] = {}
    quot_terms: dict[Term, int] = {}
    for (pos, m), v in red.pack.decode(h).items():
        if pos < width:
            rem_terms[(pos, m)] = v
        else:
            quot_terms[(pos - width, m)] = -v
    remainder = FreeElem._make(width, nvars, rem_terms, den, num)
    quot = FreeElem._make(k, nvars, quot_terms, den, num)
    # quot . rows + remainder - elem == 0, multiplied out once: the row
    # (quot + e_k - e_{k+1}) * quot.den against the rows stacked with the
    # remainder and elem
    one = (0,) * nvars
    identity = {**quot.terms, (k, one): quot.den, (k + 1, one): -quot.den}
    check = FreeElem._make(k + 2, nvars, identity)
    if not check.dot(rows + (remainder, elem)).is_zero():
        raise RuntimeError("internal error: division identity failed")
    return quot, remainder


# -- rank ------------------------------------------------------------------------


def _primes(count: int) -> tuple[int, ...]:
    """The first `count` primes (2, 3, 5, ...), by trial division."""
    primes: list[int] = []
    k = 2
    while len(primes) < count:
        # every prime below k is in the list already
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return tuple(primes)


# _primes(64), enough for every nvars that an operator takes
# (`operators.MAX_NVARS`), written out so that no process computes them at
# import; a test keeps the two equal
_POINT_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
    59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131,
    137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311,
)


def _rank_point(nvars: int) -> tuple[int, ...]:
    """The integer point at which `fraction_rank` first evaluates: the
    first nvars primes (2, 3, 5, ...), defined for every nvars."""
    if nvars <= len(_POINT_PRIMES):
        return _POINT_PRIMES[:nvars]
    return _primes(nvars)


# the prime modulo which `fraction_rank` evaluates and eliminates at its
# point: a Mersenne prime, so every residue is below 2^61
_RANK_PRIME = (1 << 61) - 1


def _lead_rank(elems: tuple[FreeElem, ...], budget: int) -> int:
    """The rank over Q(d1..dn) of the rows' module M, read off the rows'
    Buchberger run: the number of positions that hold a lead.

    The genuine parts of the run's basis form a Groebner basis of M (see
    `_Reducer.interreduced`), so their leads generate in(M), and the term
    order is degree-compatible, so F/M and F/in(M) have the same Hilbert
    function and M and in(M) the same rank.  in(M) is a sum of monomial
    ideals, one per position, and each nonzero one adds 1 to its rank.
    `by_pos` holds exactly the positions of the leads."""
    return len(_tracked(elems, budget).red.by_pos)


def fraction_rank(rows: Sequence) -> int:
    """Rank over the fraction field Q(d1..dn).

    The rank is first certified at one integer point (`_rank_point`),
    modulo the prime `_RANK_PRIME`: each row's integer terms are evaluated
    there modulo the prime, so a power of any exponent costs one modular
    power, and an elimination modulo the prime counts the independent
    rows.  A row is evaluated once: its values are kept on it
    (`FreeElem._point`), so a repeated call only eliminates.  Only when
    that count stays below full rank is the rank read off the rows'
    Buchberger run (`_lead_rank`), the memoized run that the syzygies and
    resolutions use; that run obeys the degree budget, so it may raise
    BudgetExceeded, and only it reads DGCALC_BUDGET_DEGREE."""
    if not rows:
        return 0
    elems = _as_elems(rows)
    # A full-size minor that is nonzero modulo the prime at a point is a
    # nonzero integer there, so a nonzero polynomial: full rank at the point
    # proves full rank over Q(d1..dn).  A lower rank at the point proves
    # nothing: a minor may vanish there, or be a multiple of the prime,
    # without vanishing identically, and the lead module decides that case.
    full = min(len(elems), elems[0].width)
    point = _rank_point(elems[0].nvars)
    p = _RANK_PRIME
    values: dict[Monomial, int] = {}
    pivots: dict[int, dict[int, int]] = {}  # lead position -> echelon row
    for e in elems:
        v = e._point
        if v is None:
            v = {}
            for (pos, mono), c in e.terms.items():
                x = values.get(mono)
                if x is None:
                    x = values[mono] = math.prod(map(pow, point, mono, repeat(p))) % p
                v[pos] = v.get(pos, 0) + c * x
            v = e._point = {pos: r for pos, c in v.items() if (r := c % p)}
        # v, the kept values, may become a pivot; every elimination step
        # below builds a new dict, so none is mutated
        while v:
            t = max(v)
            row = pivots.get(t)
            if row is None:
                pivots[t] = v
                # each independent row adds one pivot
                if len(pivots) == full:
                    return full
                break
            # a * v - b * row kills t; fraction-free, so no inverse is taken
            a, b = row[t], v[t]
            v = {pos: c * a for pos, c in v.items()}
            for pos, rc in row.items():
                v[pos] = v.get(pos, 0) - b * rc
            v = {pos: r for pos, c in v.items() if (r := c % p)}
    return _lead_rank(elems, _budget())


# -- resolutions -------------------------------------------------------------------


class Resolution(NamedTuple):
    """A chain of matrices over D with each step the minimized relations of
    the previous one.  steps[0] is the presentation as handed in; the module
    being resolved lives in D^(1 x source_width)."""

    nvars: int
    source_width: int
    steps: tuple[tuple[FreeElem, ...], ...]
    complete: bool

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.steps)

    @property
    def orders(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(sorted(e.degree() for e in s)) for s in self.steps)

    @property
    def euler_characteristic(self) -> int:
        chi = self.source_width
        sign = -1
        for d in self.dims:
            chi += sign * d
            sign = -sign
        return chi


def resolve_module(rows: Sequence, *, max_steps: int | None = None) -> Resolution:
    """Iterate minimized syzygies until they vanish.  The generic rank of
    the presented module equals the Euler characteristic once complete.

    A resolution of at least one step is kept with the rows' Buchberger
    run, under its step count, so a repeat returns that same Resolution;
    with max_steps=0 no run is started and nothing is kept."""
    if max_steps is not None and max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    elems = _as_elems(rows)
    if max_steps is None:
        max_steps = elems[0].nvars + 1
    return _resolve(elems, max_steps, _budget())


def _resolve(rows: tuple[FreeElem, ...], max_steps: int, budget: int) -> Resolution:
    """The core of `resolve_module`: the rows are nonempty, of one width
    and nvars, and max_steps is nonnegative.  Each step after the first is
    the tuple of minimized relations kept on the previous step's run, which
    `_relations` checked: nothing checks them again.  The finished
    resolution is kept in the `reports` of the rows' run; an error is not
    kept."""
    # with no step to take, no run of the rows is started and nothing kept
    kept = _tracked(rows, budget).reports if max_steps else {}
    key = ("resolve", max_steps)
    res = kept.get(key)
    if res is None:
        steps = [rows]
        complete = False
        while len(steps) <= max_steps:
            step = _minimal_relations(steps[-1], budget)
            if not step:
                complete = True
                break
            steps.append(step)
        res = kept[key] = Resolution(rows[0].nvars, rows[0].width, tuple(steps), complete)
    return res

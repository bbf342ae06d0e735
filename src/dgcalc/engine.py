"""Submodules of free modules over Q[d1..dn]: Groebner bases, syzygies,
membership, division with cofactors, minimal generating sets, ranks and
free resolutions.

Free-module elements (`FreeElem`) are sparse integer term dicts keyed
(position, monomial) over one positive denominator: the form the Buchberger
run works in, so results pass between computations without conversion, and
their Poly entries are a view built on demand.  The term order is fixed:
degrevlex on monomials, position-over-term with lower position winning ties
(so all comparisons look at the monomial first).

There is one Buchberger run per row set, cached: it works on the rows
augmented with unit tracking columns, under a block order that makes every
genuine term beat every tracking term.  The genuine parts of its basis give
the reduced Groebner basis, the elements whose genuine block dies give the
syzygy generators, and the tracking columns of a remainder give the
cofactors of a division.

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

The inline checks (each harvested relation annihilates its rows, each
division identity holds) multiply every relation out exactly on the
decoded (position, monomial) terms, apart from the packing: `_RowCode`
gives each row term the Kronecker key pos + W * sum_j m_j * B^j, with W
above every position and the base B the rows' degree plus the largest
relation degree plus one, so a product term's key is one addition and no
field carries.  A run encodes its rows once for its whole harvest.

Every cache of the package is a memo made by `_memo`, an unbounded
`functools.lru_cache` registered in one list that `clear_caches()` empties;
`zoo` and `report` register theirs when they are loaded.

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
from itertools import combinations_with_replacement
from operator import add, mul
from typing import Iterable, NamedTuple, Sequence

from .poly import (
    Monomial,
    Poly,
    canonical,
    format_terms,
    mono_div,
    mono_divides,
    mono_key,
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
    Callers pass the arguments positionally, so one input has one key."""
    cached = lru_cache(maxsize=None)(fn)
    _MEMOS.append(cached)
    return cached


def clear_caches() -> None:
    """Empty every memo: the engine's Buchberger runs, reduced Groebner
    bases, minimal generating sets and monomial sort keys, and the zoo
    constructors and report fixtures when those modules are loaded, so the
    next call recomputes.  It imports nothing."""
    for memo in _MEMOS:
        memo.cache_clear()


# -- free module elements ----------------------------------------------------


Term = tuple[int, Monomial]  # (position, monomial)

_mkey = _memo(mono_key)


def _term_key_plain(t: Term) -> tuple:
    return (_mkey(t[1]), -t[0])


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
    or else built on first use and cached.
    """

    __slots__ = ("width", "nvars", "terms", "den", "_entries", "_deg", "_str", "_hash")

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
        return e

    @staticmethod
    def from_strs(nvars: int, texts: Sequence[str]) -> "FreeElem":
        from .poly import parse

        return FreeElem(parse(t, nvars) for t in texts)

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
        return len({sum(m) for _, m in self.terms}) <= 1

    def normalized(self) -> "FreeElem":
        """Scale to primitive integer coefficients with positive leading
        coefficient in the module order.  Canonical up to nothing: equal
        elements up to a rational factor normalize identically."""
        terms = self.terms
        if not terms:
            return self
        g = math.gcd(*terms.values())
        if terms[max(terms, key=_term_key_plain)] < 0:
            g = -g
        if g == 1 and self.den == 1:
            return self
        return FreeElem._make(self.width, self.nvars, {t: v // g for t, v in terms.items()})

    def dot(self, rows: Sequence["FreeElem"]) -> "FreeElem":
        """Row-vector times matrix: sum_i entries[i] * rows[i]."""
        if len(rows) != self.width:
            raise ValueError("dot width mismatch")
        nvars = self.nvars
        if any(r.nvars != nvars for r in rows):
            raise ValueError("mixed nvars in dot")
        # every row over one common denominator, so the sum stays in ints
        den = math.lcm(*(r.den for r in rows))
        acc: dict[Term, int] = {}
        get = acc.get
        for (i, m), c in self.terms.items():
            row = rows[i]
            c *= den // row.den
            for (pos, mm), v in row.terms.items():
                k = (pos, tuple(map(add, m, mm)))
                acc[k] = get(k, 0) + c * v
        acc = {k: v for k, v in acc.items() if v}
        return FreeElem._make(rows[0].width, nvars, acc, 1, self.den * den)

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

    def cell_texts(self) -> list[str]:
        """Each entry's canonical text, as `serialize` gives it, built from
        the terms: a zero entry is the shared string "0", so only the
        nonzero positions cost work."""
        cells = ["0"] * self.width
        cols: dict[int, list[tuple[Monomial, int]]] = {}
        for (pos, m), v in self.terms.items():
            col = cols.get(pos)
            if col is None:
                col = cols[pos] = []
            col.append((m, v))
        texts: dict = {}
        for pos, col in cols.items():
            cells[pos] = format_terms(col, self.den, texts)
        return cells

    def __str__(self) -> str:
        """The entries' canonical text, in parentheses and separated by
        commas."""
        if self._str is None:
            self._str = "(" + ", ".join(self.cell_texts()) + ")"
        return self._str

    def __repr__(self) -> str:
        return f"FreeElem{self}"


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
    where W exceeds every position and B = (row degree) + `reldeg` + 1.  A
    relation term (i, m) of degree at most `reldeg` shifts row i's keys by
    W * sum_j m_j * B^j, and no exponent of a product reaches B, so no field
    carries into the next: distinct product terms keep distinct keys and
    the sum is exact.  Built from the (position, monomial) terms alone, apart
    from the packing that made the relations."""

    __slots__ = ("rows", "scale", "reldeg", "shifts")

    def __init__(self, rows: Sequence[dict[Term, int]], reldeg: int):
        monos = {m for row in rows for _, m in row}
        width = 1 + max((pos for row in rows for pos, _ in row), default=0)
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


def _annihilates(coeffs: dict[Term, int], rows: Sequence[dict[Term, int]]) -> bool:
    """True when sum over (i, m) of coeffs[(i, m)] * d^m * rows[i] is zero.

    `coeffs` is a relation in integer term space, keyed (row, monomial);
    the rows are encoded for this one relation (`_RowCode`)."""
    reldeg = max((sum(m) for _, m in coeffs), default=0)
    return _RowCode(rows, reldeg).annihilates(coeffs)


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

    def decode_term(self, t: int, monos: dict[int, Monomial]) -> Term:
        """t as (position, monomial).  `monos`, the caller's table from
        exponent fields to tuples, makes equal monomials share one tuple."""
        key = t & self.emask
        m = monos.get(key)
        if m is None:
            cap, fmask = self.cap, self.fmask
            m = monos[key] = tuple(cap - ((t >> s) & fmask) for s in self.shifts)
        return self.ncols - 1 - (t & self.pmask), m

    def decode(
        self, h: dict[int, int], monos: dict[int, Monomial] | None = None, offset: int = 0
    ) -> dict[Term, int]:
        """h as (position - offset, monomial) terms."""
        if monos is None:
            monos = {}
        out = {}
        for t, v in h.items():
            pos, m = self.decode_term(t, monos)
            out[(pos - offset, m)] = v
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
        dmask = self.pack.fmask << self.pack.degshift
        self.top = max(self.top, max(t & dmask for t in h) >> self.pack.degshift)

    def fit(self, degree: int) -> None:
        """Widen the fields, re-encoding the basis, unless terms of this
        degree already fit.  Positions keep their field, so `by_pos`
        stays valid."""
        old = self.pack
        if degree <= old.cap:
            return
        new = _Packing(old.nvars, old.ncols, old.split, degree)
        decode, term, monos = old.decode_term, new.term, {}
        self.basis = [
            {term(*decode(t, monos)): v for t, v in h.items()} for h in self.basis
        ]
        self.lts = [term(*decode(t, monos)) for t in self.lts]
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
        -  combination of basis elements, and num, den > 0."""
        num = den = 1
        if not h:
            return h, num, den
        pack = self.pack
        flag, guard, pmask = pack.flag, pack.guard, pack.pmask
        basis, lts, by_pos = self.basis, self.lts, self.by_pos
        # a max-heap of negated terms; tracking terms never enter it
        heap = [-t for t in h if t >= flag]
        heapq.heapify(heap)
        done: set[int] = set() if keep is None else {keep}
        steps = 0
        while heap:
            t = -heapq.heappop(heap)
            if t in done or t not in h:
                continue
            # insertion order: deterministic
            for idx in by_pos.get(t & pmask, ()):
                lt = lts[idx]
                if not (lt - t) & guard:
                    break
            else:
                done.add(t)
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
                    if k >= flag:
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
        """A reducer holding the reduced Groebner basis of the stored basis,
        which must be a Groebner basis: each element primitive with a
        positive lead, sorted by (leading position, leading monomial).

        One pass suffices: the elements whose leads no other lead divides
        keep the lead module, and reducing each one's tail against them
        yields the unique reduced element with that lead."""
        pack = self.pack
        guard, pmask = pack.guard, pack.pmask
        leads = self.lts
        survivors = _Reducer(pack)
        for a, la in enumerate(leads):
            # of two equal leads the earlier one survives
            if not any(
                b != a and lb & pmask == la & pmask and not (lb - la) & guard
                and (lb != la or b < a)
                for b, lb in enumerate(leads)
            ):
                survivors.add(self.basis[a])
        survivors.fit(2 * survivors.top)
        out = []
        for h, lt in zip(survivors.basis, survivors.lts):
            # a tail term is below the lead, so only other survivors reduce it
            r, _, _ = survivors.reduce_full(dict(h), keep=lt)
            out.append((-(lt & pmask), lt, _content_normalize(r)))
        out.sort(key=lambda x: x[:2])
        reduced = _Reducer(survivors.pack)
        for _, _, r in out:
            reduced.add(r)
        return reduced


class _Run:
    """The S-pair queue of one Buchberger computation over a `_Reducer`.

    `reach` bounds the degree of every genuine term the run reduces: the
    larger of the degree budget and the rows' degree.  Pair pruning uses
    the Gebauer-Moeller chain criteria, on packed terms: a pair's lcm is
    `_Packing.lcm` of the two leads, and a divisibility between lcms or
    leads is one guard-mask test.  The alive pairs are kept per position
    with their lcms, and the heap orders them by (lcm, position, i, j):
    the lcm without its position field orders as (degree, degrevlex).
    """

    def __init__(self, pack: _Packing, reach: int, budget: int, prune: bool = True):
        self.reach = reach
        self.budget = budget
        self.prune = prune
        self.red = _Reducer(pack)
        self.monos: dict[int, Monomial] = {}  # the decoding table of the run
        self.pairs: list[tuple[int, int, int, int]] = []  # heap
        # position -> {(i, j): packed lcm of the leads}
        self.alive: dict[int, dict[tuple[int, int], int]] = {}
        self.harvest: list[dict[Term, int]] = []

    def process(self, h: dict[int, int]) -> None:
        """Reduce h; a nonzero remainder joins the basis, or, once its
        genuine part has died, is harvested as a relation."""
        red = self.red
        h, _, _ = red.reduce_full(h)
        if not h:
            return
        h = _content_normalize(h)
        pack = red.pack
        if max(h) < pack.flag:
            # decoded now: a later widening re-encodes only the basis
            self.harvest.append(pack.decode(h, self.monos, pack.split))
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
            self._refit(old)
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
        if self.prune and lcms:
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

    def _refit(self, old: _Packing) -> None:
        """Re-encode the alive pairs' lcms after the fields widened; the
        heap keeps only alive pairs, in the same order."""
        new, monos = self.red.pack, {}
        self.monos = {}
        self.pairs = []
        for pos, alive in self.alive.items():
            p = new.ncols - 1 - pos
            for (i, j), L in alive.items():
                alive[(i, j)] = L = new.term(*old.decode_term(L, monos))
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


@_memo
def _tracked(
    elems: tuple[FreeElem, ...], budget: int, prune: bool
) -> tuple[_Reducer, tuple[FreeElem, ...]]:
    """The Buchberger run on the rows augmented with unit tracking columns,
    cached per row set: its reducer, whose basis elements record how they
    are built from the rows, and the harvested relations, each verified to
    annihilate the rows.  The Groebner basis, the syzygies and division
    with cofactors are all read off this one run."""
    k = len(elems)
    width, nvars = elems[0].width, elems[0].nvars
    rows, den = _int_rows(elems)
    rowdeg = max(e.degree() for e in elems)
    reach = max(budget, rowdeg)
    run = _Run(_Packing(nvars, width + k, width, rowdeg + reach), reach, budget, prune)
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
    harvest = run.harvest
    if harvest:
        # one encoding serves every relation of the run
        code = _RowCode(rows, max(sum(m) for rel in harvest for _, m in rel))
        for rel in harvest:
            if not code.annihilates(rel):
                raise RuntimeError("internal error: harvested relation fails to annihilate")
    return run.red, tuple(FreeElem._make(k, nvars, rel) for rel in harvest)


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

    def normal_form(self, elem: FreeElem) -> FreeElem:
        if elem.width != self.width:
            raise ValueError("element width does not match basis width")
        if elem.nvars != self.nvars:
            raise ValueError("element nvars does not match basis nvars")
        if elem.is_zero():
            return elem
        red = self._reducer
        h, num, den = red.reduce_full(red.encode_input(elem.terms, elem.degree()))
        # h == num/den * elem.terms - (a module element): the normal form is
        # h * den / (num * elem.den)
        return FreeElem._make(
            self.width, self.nvars, red.pack.decode(h), den, num * elem.den
        )

    def contains(self, elem: FreeElem) -> bool:
        return self.normal_form(elem).is_zero()

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


def _as_elems(rows: Sequence) -> list[FreeElem]:
    out = []
    for r in rows:
        out.append(r if isinstance(r, FreeElem) else FreeElem(r))
    if not out:
        raise ValueError("empty generator list: width is undetermined")
    w, nv = out[0].width, out[0].nvars
    for e in out:
        if e.width != w:
            raise ValueError("generators of mixed width")
        if e.nvars != nv:
            raise ValueError("generators of mixed nvars")
    return out


def reduced_groebner(rows: Sequence) -> GroebnerBasis:
    return _reduced_groebner(tuple(_as_elems(rows)), _budget())


@_memo
def _reduced_groebner(elems: tuple[FreeElem, ...], budget: int) -> GroebnerBasis:
    # every tracking basis element has a genuine lead and its tracking terms
    # are never reduced, so the genuine parts form a Groebner basis of the rows
    run = _tracked(elems, budget, True)[0]
    flag = run.pack.flag
    red = _Reducer(run.pack)
    for h in run.basis:
        red.add({t: v for t, v in h.items() if t >= flag})
    return GroebnerBasis(red.interreduced())


def normal_form(elem: FreeElem, gb: GroebnerBasis) -> FreeElem:
    return gb.normal_form(elem)


def module_contains(gens: Sequence, elem: FreeElem) -> bool:
    return reduced_groebner(gens).contains(elem)


def module_equal(gens_a: Sequence, gens_b: Sequence) -> bool:
    a = _as_elems(gens_a)
    b = _as_elems(gens_b)
    if a[0].width != b[0].width or a[0].nvars != b[0].nvars:
        return False
    gba = reduced_groebner(a)
    gbb = reduced_groebner(b)
    # reduced bases are unique, so one comparison settles it
    return gba == gbb


def syzygies(rows: Sequence, *, prune: bool = True) -> list[FreeElem]:
    """Generators of the relation module {c : sum_i c_i * rows_i = 0}.

    Output width equals len(rows).  The list generates the full syzygy
    module; it is not minimized here.  Each returned relation is verified
    against the input, in integer term space, before being handed back.
    """
    return list(_tracked(tuple(_as_elems(rows)), _budget(), prune)[1])


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
        """Insert if independent; returns True when the vector was new."""
        v = dict(v)
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
    rows of `base` is removed.  The survivors therefore generate the
    quotient of the module of `gens` by the module of `base`; `base` rows
    are never returned.  When every generator and base row is homogeneous
    the containment test is plain linear algebra degree by degree, which
    also makes the surviving count the graded minimal number of
    generators, independent of the representative choice.  Results are
    memoized on the generators and base rows as given.
    """
    if not gens:
        return []
    elems = _as_elems(gens)
    if all(e.is_zero() for e in elems):
        return []
    base_elems = _as_elems(base) if base else []
    first = next((b for b in base_elems if not b.is_zero()), None)
    if first is not None and first.width != elems[0].width:
        raise ValueError("base width does not match generator width")
    if first is not None and first.nvars != elems[0].nvars:
        raise ValueError("base nvars does not match generator nvars")
    return list(_minimal(tuple(elems), tuple(base_elems), _budget()))


@_memo
def _minimal(gens: tuple, base: tuple, budget: int) -> tuple[FreeElem, ...]:
    # keyed on the elements as given; `budget` only keys the memo:
    # `reduced_groebner` reads it again
    uniq = list(dict.fromkeys(e.normalized() for e in gens if not e.is_zero()))
    uniq.sort(key=lambda e: (e.degree(), str(e)))
    base_rows = [b for b in base if not b.is_zero()]
    if all(e.is_homogeneous() for e in uniq + base_rows):
        return tuple(_minimize_homogeneous(uniq, base_rows))
    kept = uniq
    i = 0
    while i < len(kept):
        others = kept[:i] + kept[i + 1 :] + base_rows
        if others and reduced_groebner(others).contains(kept[i]):
            kept.pop(i)
        else:
            i += 1
    return tuple(kept)


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
        # kept generators are all of strictly lower degree by construction
        for g in kept + [b for b in base if b.degree() <= d]:
            terms = packed[g]
            for m in _monomials_of_degree(nvars, d - g.degree()):
                shift = pack.packed(m) - one
                ech.insert({t + shift: c for t, c in terms.items()})
        # within one degree the coefficients are scalars, so leave-one-out
        # in block order drops an element exactly when it lies in the seed
        # plus the later elements of its block: one reverse pass decides it
        alive = [e for e in reversed(by_deg[d]) if ech.insert(packed[e])]
        kept.extend(reversed(alive))
    return kept


# -- division with cofactors ----------------------------------------------------


def divide_with_cofactors(
    elem: FreeElem, gens: Sequence
) -> tuple[tuple[Poly, ...], FreeElem]:
    """Write elem = sum_i q_i * gens_i + remainder with the remainder in
    normal form.  Exact: the identity is verified before returning."""
    elems = _as_elems(gens)
    k = len(elems)
    width, nvars = elems[0].width, elems[0].nvars
    if elem.width != width:
        raise ValueError("element width does not match generator width")
    if elem.nvars != nvars:
        raise ValueError("element nvars does not match generator nvars")
    red = _tracked(tuple(elems), _budget(), True)[0]
    if elem.is_zero():
        return tuple(Poly.zero(nvars) for _ in range(k)), elem
    # h == num/den * elem.terms - sum_i q_i * gens_i, with -q_i in column
    # width + i; multiplying by den / (num * elem.den) gives the remainder
    # and -q_i
    h, num, den = red.reduce_full(red.encode_input(elem.terms, elem.degree()))
    num *= elem.den
    rem_terms: dict[Term, int] = {}
    quot_terms: list[dict[Monomial, int]] = [{} for _ in range(k)]
    for (pos, m), v in red.pack.decode(h).items():
        if pos < width:
            rem_terms[(pos, m)] = v
        else:
            quot_terms[pos - width][m] = -v
    remainder = FreeElem._make(width, nvars, rem_terms, den, num)
    quot = tuple(Poly._make(nvars, q, den, num) for q in quot_terms)
    # quot . gens + remainder - elem == 0, as one relation on the stacked rows
    one = (0,) * nvars
    identity = FreeElem(quot + (Poly._make(nvars, {one: 1}), Poly._make(nvars, {one: -1})))
    if not _annihilates(identity.terms, _int_rows(elems + [remainder, elem])[0]):
        raise RuntimeError("internal error: division identity failed")
    return quot, remainder


# -- rank ------------------------------------------------------------------------


ZPoly = dict[Monomial, int]  # a polynomial over Z, zero terms left out


def _zpoly_div_exact(num: ZPoly, den: ZPoly) -> ZPoly:
    """num / den in Z[d1..dn]; raises ArithmeticError unless den divides num.

    Each step cancels the leading term of what is left, so the terms are
    taken from a heap, largest first."""
    dm = max(den, key=_mkey)
    dc = den[dm]
    rest = [(m, c) for m, c in den.items() if m != dm]
    rem = dict(num)
    heap = [(-sum(m), m[::-1], m) for m in rem]
    heapq.heapify(heap)
    q: ZPoly = {}
    while heap:
        m = heapq.heappop(heap)[2]
        c = rem.pop(m, 0)
        if not c:
            continue
        if c % dc or not mono_divides(dm, m):
            raise ArithmeticError("inexact polynomial division")
        qm = mono_div(m, dm)
        qc = c // dc
        q[qm] = qc
        # every other term of den times qm lies below m
        for mm, v in rest:
            k = tuple(map(add, mm, qm))
            s = rem.get(k, 0) - qc * v
            if s:
                if k not in rem:
                    heapq.heappush(heap, (-sum(k), k[::-1], k))
                rem[k] = s
            else:
                rem.pop(k, None)
    return q


def _bareiss_entry(piv: ZPoly, a: ZPoly, c: ZPoly, b: ZPoly, prev: ZPoly) -> ZPoly:
    """(piv * a - c * b) / prev over Z[d1..dn], an exact division."""
    num: ZPoly = {}
    get = num.get
    for x, y, sign in ((piv, a, 1), (c, b, -1)):
        for m1, c1 in x.items():
            c1 *= sign
            for m2, c2 in y.items():
                m = tuple(map(add, m1, m2))
                num[m] = get(m, 0) + c1 * c2
    num = {m: v for m, v in num.items() if v}
    return _zpoly_div_exact(num, prev) if num else num


def _bareiss(m: list[list[ZPoly]], nvars: int) -> tuple[int, ZPoly]:
    """Bareiss fraction-free elimination in place on a matrix over
    Z[d1..dn]; returns the rank and the last pivot.

    Every entry after step k is a (k+1)-minor of the input, so each division
    by the previous pivot is exact; for a square matrix of full rank the
    last pivot is the determinant up to sign."""
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = {(0,) * nvars: 1}
    for col in range(ncols):
        piv_row = -1
        for r in range(rank, nrows):
            if m[r][col]:
                piv_row = r
                break
        if piv_row < 0:
            continue
        m[rank], m[piv_row] = m[piv_row], m[rank]
        prow = m[rank]
        piv = prow[col]
        # columns before col are zero in every row from rank down
        for r in range(rank + 1, nrows):
            mr = m[r]
            if not any(mr[j] for j in range(col, ncols)):
                continue
            c = mr[col]
            for j in range(col + 1, ncols):
                mr[j] = _bareiss_entry(piv, mr[j], c, prow[j], prev)
            mr[col] = {}
        prev = piv
        rank += 1
        if rank == nrows:
            break
    return rank, prev


def _rank_point(nvars: int) -> tuple[int, ...]:
    """The integer point at which `fraction_rank` first evaluates: the
    first nvars primes (2, 3, 5, ...), defined for every nvars."""
    primes: list[int] = []
    k = 2
    while len(primes) < nvars:
        # every prime below k is in the list already
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return tuple(primes)


def fraction_rank(rows: Sequence) -> int:
    """Rank over the fraction field Q(d1..dn).

    The rank is first certified at one integer point (`_rank_point`):
    each row's integer terms are evaluated there and `_Echelon` counts
    the independent rows.  Only when that count stays below full rank
    does Bareiss elimination on integer polynomials decide.  Each row is
    cleared of its denominators, which rescales it and leaves the rank
    alone; every Bareiss division is then exact in Z[d1..dn], and a
    nonzero remainder raises ArithmeticError."""
    if not rows:
        return 0
    elems = _as_elems(rows)
    # A full-size minor that is nonzero at a point is a nonzero polynomial,
    # so full rank at the point proves full rank over Q(d1..dn).  A lower
    # rank at the point proves nothing: a minor may vanish there without
    # vanishing identically, and Bareiss decides that case.
    full = min(len(elems), elems[0].width)
    point = _rank_point(elems[0].nvars)
    values: dict[Monomial, int] = {}
    ech = _Echelon()
    for e in elems:
        v: dict[int, int] = {}
        for (pos, mono), c in e.terms.items():
            x = values.get(mono)
            if x is None:
                x = values[mono] = math.prod(map(pow, point, mono))
            v[pos] = v.get(pos, 0) + c * x
        # each independent row adds one stored echelon row
        if ech.insert({pos: c for pos, c in v.items() if c}) and len(ech.rows) == full:
            return full
    m: list[list[ZPoly]] = []
    for e in elems:
        row: list[ZPoly] = [{} for _ in range(e.width)]
        for (pos, mono), c in e.terms.items():
            row[pos][mono] = c
        m.append(row)
    return _bareiss(m, elems[0].nvars)[0]


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


def euler_characteristic(res: Resolution) -> int:
    return res.euler_characteristic


def resolve_module(rows: Sequence, *, max_steps: int | None = None) -> Resolution:
    """Iterate minimized syzygies until they vanish.  The generic rank of
    the presented module equals the Euler characteristic once complete."""
    if max_steps is not None and max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    elems = _as_elems(rows)
    nvars = elems[0].nvars
    if max_steps is None:
        max_steps = nvars + 1
    steps: list[tuple[FreeElem, ...]] = [tuple(elems)]
    complete = False
    current = elems
    while len(steps) < max_steps + 1:
        syz = minimize_generators(syzygies(current))
        if not syz:
            complete = True
            break
        # no re-check: each is a normalized relation that `_tracked` verified
        steps.append(tuple(syz))
        current = syz
    return Resolution(nvars, elems[0].width, tuple(steps), complete)

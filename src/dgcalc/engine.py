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

Everything here is deterministic: pair selection, reducer choice and output
ordering are all fixed by the term order and insertion order, and reduced
Groebner bases are mathematically unique, so results do not depend on
generator permutations.
"""

from __future__ import annotations

import heapq
import math
import os
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import add
from typing import Iterable, NamedTuple, Sequence

from .poly import (
    Monomial,
    Poly,
    format_terms,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
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


# -- free module elements ----------------------------------------------------


Term = tuple[int, Monomial]  # (position, monomial)

_MKEY_CACHE: dict[Monomial, tuple] = {}


def _mkey(m: Monomial) -> tuple:
    k = _MKEY_CACHE.get(m)
    if k is None:
        k = (sum(m), tuple(-e for e in reversed(m)))
        _MKEY_CACHE[m] = k
    return k


def _term_key_plain(t: Term) -> tuple:
    return (_mkey(t[1]), -t[0])


class FreeElem:
    """An element of the free module D^(1 x width), D = Q[d1..dn].

    Stored sparsely in the engine's own form: the element is `terms / den`,
    where `terms` maps (position, monomial) to a nonzero int.  The form is
    canonical: den > 0 and gcd(content(terms), den) == 1, and zero is
    ({}, 1), so equality and hashing compare the exact rational entries
    without building any Fraction.  Do not mutate `terms`.

    `FreeElem(entries)` builds an element from Polys, clearing their
    denominators once.  `entries`, the tuple of width Polys, is a view: the
    Polys handed to that constructor, or else built on first use and cached.
    """

    __slots__ = ("width", "nvars", "terms", "den", "_entries", "_str", "_hash")

    def __init__(self, entries: Iterable[Poly]):
        entries = tuple(entries)
        if not entries:
            raise ValueError("free module elements need positive width")
        nv = entries[0].nvars
        den = 1
        for p in entries:
            if p.nvars != nv:
                raise ValueError("mixed nvars inside one element")
            for c in p.terms.values():
                if c.denominator != 1:
                    den = math.lcm(den, c.denominator)
        # the lcm of reduced denominators leaves no common factor with the
        # numerators it produces, so this is already canonical
        self.terms: dict[Term, int] = {
            (pos, m): c.numerator * (den // c.denominator)
            for pos, p in enumerate(entries)
            for m, c in p.terms.items()
        }
        self.width = len(entries)
        self.nvars = nv
        self.den = den
        self._entries: tuple[Poly, ...] | None = entries
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
        if terms:
            # terms * num/den == (terms/g) * a/b with content(terms/g) == 1
            g = math.gcd(*terms.values())
            a, b = g * num, den
            c = math.gcd(a, b)
            a, b = a // c, b // c
            if a != g:
                terms = {t: v // g * a for t, v in terms.items()}
        else:
            b = 1
        e = object.__new__(cls)
        e.width = width
        e.nvars = nvars
        e.terms = terms
        e.den = b
        e._entries = None
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
            cols: list[dict[Monomial, Fraction]] = [{} for _ in range(self.width)]
            den = self.den
            for (pos, m), v in self.terms.items():
                cols[pos][m] = Fraction(v, den)
            self._entries = tuple(Poly._make(self.nvars, col) for col in cols)
        return self._entries

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Largest total degree of a term; -1 for zero."""
        return max((sum(m) for _, m in self.terms), default=-1)

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

    def __str__(self) -> str:
        """The entries' canonical text, as `poly_vector_str(entries)`."""
        if self._str is None:
            cols: list[list[tuple[tuple, Monomial, int]]] = [[] for _ in range(self.width)]
            for (pos, m), v in self.terms.items():
                cols[pos].append((_mkey(m), m, v))
            den = self.den
            parts = []
            for col in cols:
                if not col:
                    parts.append("0")
                    continue
                col.sort(reverse=True)
                items = []
                for _, m, v in col:
                    g = math.gcd(v, den)
                    items.append((m, v // g, den // g))
                parts.append(format_terms(items))
            self._str = "(" + ", ".join(parts) + ")"
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


def _annihilates(coeffs: dict[Term, int], rows: Sequence[dict[Term, int]]) -> bool:
    """True when sum over (i, m) of coeffs[(i, m)] * d^m * rows[i] is zero.

    `coeffs` is a relation in integer term space, keyed (row, monomial);
    the products are summed exactly in a dict of ints."""
    acc: dict[Term, int] = {}
    get = acc.get
    for (i, m), c in coeffs.items():
        for (pos, mm), v in rows[i].items():
            k = (pos, tuple(map(add, m, mm)))
            acc[k] = get(k, 0) + c * v
    return not any(acc.values())


def _content_normalize(h: dict[Term, int], key) -> dict[Term, int]:
    """h divided by its integer content, with the sign that makes the
    leading coefficient under `key` positive."""
    g = math.gcd(*h.values())
    if g > 1:
        h = {t: v // g for t, v in h.items()}
    if h[max(h, key=key)] < 0:
        h = {t: -v for t, v in h.items()}
    return h


# -- division and the Buchberger run ----------------------------------------


class _Reducer:
    """Basis storage and division over integer term dicts.

    `split` partitions positions into a genuine block [0, split) and a
    tracking block [split, width); genuine terms always outrank tracking
    terms.  A plain basis uses split == width.
    """

    def __init__(self, split: int):
        self.split = split
        self.basis: list[dict[Term, int]] = []
        self.lts: list[tuple[Term, int]] = []
        self.by_pos: dict[int, list[int]] = {}

    # term order with the block flag in front
    def _key(self, t: Term) -> tuple:
        return (t[0] < self.split, _mkey(t[1]), -t[0])

    def _lt(self, h: dict[Term, int]) -> Term:
        return max(h, key=self._key)

    def add(self, h: dict[Term, int]) -> Term:
        """Append h to the basis; returns its leading term."""
        lt = self._lt(h)
        self.by_pos.setdefault(lt[0], []).append(len(self.basis))
        self.basis.append(h)
        self.lts.append((lt, h[lt]))
        return lt

    def _find_reducer(self, t: Term) -> int:
        pos, m = t
        for idx in self.by_pos.get(pos, ()):  # insertion order: deterministic
            if mono_divides(self.lts[idx][0][1], m):
                return idx
        return -1

    def reduce_full(
        self, h: dict[Term, int], keep: Term | None = None
    ) -> tuple[dict[Term, int], Fraction]:
        """Pseudo-reduce every reducible term except `keep`.  Returns
        (remainder, scale) with remainder == scale * input  -  combination
        of basis elements, and scale > 0."""
        scale = Fraction(1)
        if not h:
            return h, scale
        # heapq is a min-heap; _negkey inverts the term order so the pop
        # order runs from the largest term downward
        heap = [(self._negkey(t), t) for t in h]
        heapq.heapify(heap)
        done: set[Term] = set() if keep is None else {keep}
        steps = 0
        while heap:
            _, t = heapq.heappop(heap)
            if t in done or t not in h:
                continue
            idx = self._find_reducer(t)
            if idx < 0:
                done.add(t)
                continue
            g = self.basis[idx]
            (gpos, gm), lc = self.lts[idx]
            c = h[t]
            gam = math.gcd(lc, c)
            a = lc // gam
            b = c // gam
            if a < 0:
                a, b = -a, -b
            if a != 1:
                scale = scale * a
                for k in h:
                    h[k] *= a
            shift = mono_div(t[1], gm)
            for (p2, m2), gc in g.items():
                k2 = (p2, mono_mul(m2, shift))
                v = h.get(k2, 0) - b * gc
                if v:
                    if k2 not in h:
                        heapq.heappush(heap, (self._negkey(k2), k2))
                    h[k2] = v
                else:
                    h.pop(k2, None)
            steps += 1
            if steps % 16 == 0 and h:
                g0 = 0
                for v in h.values():
                    g0 = math.gcd(g0, v)
                if g0 > 1:
                    for k in h:
                        h[k] //= g0
                    scale = scale / g0
        return h, scale

    def _negkey(self, t: Term) -> tuple:
        m = t[1]
        return (t[0] >= self.split, -sum(m), m[::-1], t[0])

    def interreduced_basis(self) -> list[dict[Term, int]]:
        """The content-normalized reduced Groebner basis of the stored
        basis, which must be a Groebner basis, sorted by (leading position,
        leading monomial).

        One pass suffices: the elements whose leads no other lead divides
        keep the lead module, and reducing each one's tail against them
        yields the unique reduced element with that lead."""
        leads = [lt for lt, _ in self.lts]
        survivors = _Reducer(self.split)
        for a, (pa, ma) in enumerate(leads):
            # of two equal leads the earlier one survives
            if not any(
                b != a and pb == pa and mono_divides(mb, ma) and (mb != ma or b < a)
                for b, (pb, mb) in enumerate(leads)
            ):
                survivors.add(self.basis[a])
        out = []
        for h, (lt, _) in zip(survivors.basis, survivors.lts):
            # a tail term is below the lead, so only other survivors reduce it
            r, _ = survivors.reduce_full(dict(h), keep=lt)
            out.append((lt[0], _mkey(lt[1]), _content_normalize(r, self._key)))
        out.sort(key=lambda x: x[:2])
        return [r for _, _, r in out]


class _Run:
    """The S-pair queue of one Buchberger computation over a `_Reducer`.

    Positions from `split` on are tracking columns (see `_Reducer`).  Pair
    pruning uses the Gebauer-Moeller chain criteria.
    """

    def __init__(self, split: int, budget: int, prune: bool = True):
        self.budget = budget
        self.prune = prune
        self.red = _Reducer(split)
        self.pairs: list[tuple[int, tuple, int, int, int]] = []  # heap
        self.alive: dict[tuple[int, int], Monomial] = {}
        self.harvest: list[dict[Term, int]] = []

    def process(self, h: dict[Term, int]) -> None:
        """Reduce h; a nonzero remainder joins the basis, or, once its
        genuine part has died, is harvested as a relation."""
        red = self.red
        h, _ = red.reduce_full(h)
        if not h:
            return
        h = _content_normalize(h, red._key)
        if all(pos >= red.split for pos, _ in h):
            self.harvest.append(h)
        else:
            self._add_basis(h)

    def _add_basis(self, h: dict[Term, int]) -> None:
        red = self.red
        lts = red.lts
        t = len(lts)
        lt = red.add(h)
        pos = lt[0]
        # new pairs against earlier same-position elements, then prune
        cand: dict[int, Monomial] = {}
        for i in red.by_pos[pos][:-1]:
            cand[i] = mono_lcm(lts[i][0][1], lt[1])
        if self.prune and cand:
            # chain criterion among the new pairs: drop (i,t) when another
            # new pair's lcm strictly divides its lcm
            drop: set[int] = set()
            items = sorted(cand.items())
            for i, li in items:
                for j, lj in items:
                    if i != j and lj != li and mono_divides(lj, li):
                        drop.add(i)
                        break
            for i in drop:
                del cand[i]
            # chain criterion against existing pairs
            for (i, j), L in list(self.alive.items()):
                if lts[i][0][0] != pos:
                    continue
                if mono_divides(lt[1], L):
                    lit = cand.get(i) or mono_lcm(lts[i][0][1], lt[1])
                    ljt = cand.get(j) or mono_lcm(lts[j][0][1], lt[1])
                    if lit != L and ljt != L:
                        del self.alive[(i, j)]
        for i, L in sorted(cand.items()):
            self.alive[(i, t)] = L
            heapq.heappush(self.pairs, (sum(L), _mkey(L), pos, i, t))

    def _spair(self, i: int, j: int) -> dict[Term, int]:
        red = self.red
        (pi, mi), ci = red.lts[i]
        (pj, mj), cj = red.lts[j]
        L = mono_lcm(mi, mj)
        gam = math.gcd(ci, cj)
        a = cj // gam
        b = ci // gam
        si = mono_div(L, mi)
        sj = mono_div(L, mj)
        h: dict[Term, int] = {}
        for (p, m), c in red.basis[i].items():
            k = (p, mono_mul(m, si))
            h[k] = h.get(k, 0) + a * c
        for (p, m), c in red.basis[j].items():
            k = (p, mono_mul(m, sj))
            v = h.get(k, 0) - b * c
            if v:
                h[k] = v
            else:
                h.pop(k, None)
        return h

    def run(self) -> None:
        while self.pairs:
            deg, _, _, i, j = heapq.heappop(self.pairs)
            if (i, j) not in self.alive:
                continue
            del self.alive[(i, j)]
            if deg > self.budget:
                raise BudgetExceeded(
                    f"S-pair of degree {deg} exceeds budget {self.budget}; "
                    f"raise {BUDGET_ENV} to go further"
                )
            self.process(self._spair(i, j))


_RUN_CACHE: dict[tuple, tuple[_Reducer, tuple[FreeElem, ...]]] = {}


def _tracked(
    elems: tuple[FreeElem, ...], prune: bool = True
) -> tuple[_Reducer, tuple[FreeElem, ...]]:
    """The Buchberger run on the rows augmented with unit tracking columns,
    cached per row set: its reducer, whose basis elements record how they
    are built from the rows, and the harvested relations, each verified to
    annihilate the rows.  The Groebner basis, the syzygies and division
    with cofactors are all read off this one run."""
    budget = _budget()
    key = (elems, budget, prune)
    hit = _RUN_CACHE.get(key)
    if hit is not None:
        return hit
    k = len(elems)
    width, nvars = elems[0].width, elems[0].nvars
    run = _Run(width, budget, prune)
    rows, den = _int_rows(elems)
    for i, ints in enumerate(rows):
        # tracking column scaled identically, so relations hold for the
        # rows exactly as given, not for rescaled ones
        ints = dict(ints)
        ints[(width + i, (0,) * nvars)] = den
        run.process(ints)
    run.run()
    relations: list[FreeElem] = []
    for h in run.harvest:
        shifted = {(pos - width, m): c for (pos, m), c in h.items()}
        if not _annihilates(shifted, rows):
            raise RuntimeError("internal error: harvested relation fails to annihilate")
        relations.append(FreeElem._make(k, nvars, shifted))
    entry = (run.red, tuple(relations))
    _RUN_CACHE[key] = entry
    return entry


# -- public Groebner interface ------------------------------------------------


class GroebnerBasis:
    """Reduced Groebner basis of a row module, with a reduction service.

    Generators are monic, mutually reduced, and sorted by leading position
    then leading monomial; this basis is unique for the module, so equality
    of bases is equality of modules.  The reducer divides by the
    generators' own integer terms, which differ from them by a positive
    scalar.
    """

    def __init__(self, width: int, nvars: int, generators: tuple[FreeElem, ...]):
        self.width = width
        self.nvars = nvars
        self.generators = generators
        self._reducer = _Reducer(width)
        for g in generators:
            self._reducer.add(g.terms)

    def normal_form(self, elem: FreeElem) -> FreeElem:
        if elem.width != self.width:
            raise ValueError("element width does not match basis width")
        if elem.nvars != self.nvars:
            raise ValueError("element nvars does not match basis nvars")
        if elem.is_zero():
            return elem
        h, scale = self._reducer.reduce_full(dict(elem.terms))
        # h == scale * elem.terms - (a module element): the normal form is
        # h / (scale * elem.den)
        scale *= elem.den
        return FreeElem._make(
            self.width, self.nvars, h, scale.denominator, scale.numerator
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


_GB_CACHE: dict[tuple, GroebnerBasis] = {}
_MIN_CACHE: dict[tuple, tuple[FreeElem, ...]] = {}


def clear_caches() -> None:
    """Empty the module caches of Buchberger runs, reduced Groebner bases,
    minimal generating sets and monomial sort keys, and the
    `functools.lru_cache`s of the zoo constructors and the report, so the
    next call recomputes.  The zoo and the report are cleared only when
    they are already imported; this never imports them."""
    for cache in (_RUN_CACHE, _GB_CACHE, _MIN_CACHE, _MKEY_CACHE):
        cache.clear()
    for name in ("dgcalc.zoo", "dgcalc.report"):
        module = sys.modules.get(name)
        if module is not None:
            for fn in module._LRU_CACHES:
                fn.cache_clear()


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
    elems = tuple(_as_elems(rows))
    width, nvars = elems[0].width, elems[0].nvars
    key = (elems, _budget())
    hit = _GB_CACHE.get(key)
    if hit is not None:
        return hit
    # every tracking basis element has a genuine lead and its tracking terms
    # are never reduced, so the genuine parts form a Groebner basis of the rows
    red = _Reducer(width)
    for h in _tracked(elems)[0].basis:
        red.add({t: v for t, v in h.items() if t[0] < width})
    # each h is primitive with a positive lead, so h / lead is canonical
    gens = tuple(
        FreeElem._make(width, nvars, h, 1, h[red._lt(h)])
        for h in red.interreduced_basis()
    )
    gb = GroebnerBasis(width, nvars, gens)
    _GB_CACHE[key] = gb
    return gb


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
    return list(_tracked(tuple(_as_elems(rows)), prune)[1])


# -- minimal generating sets ---------------------------------------------------


class _Echelon:
    """Sparse echelon form for integer dict-vectors keyed by (pos, monomial).

    Rows are stored primitive under their leading term and eliminated
    fraction-free, so the span over Q is tracked in integers."""

    def __init__(self):
        self.rows: dict[Term, dict[Term, int]] = {}

    def insert(self, v: dict[Term, int]) -> bool:
        """Insert if independent; returns True when the vector was new."""
        v = dict(v)
        while v:
            t = max(v, key=_term_key_plain)
            row = self.rows.get(t)
            if row is None:
                self.rows[t] = _content_normalize(v, _term_key_plain)
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


def _shift_terms(terms: dict[Term, int], m: Monomial) -> dict[Term, int]:
    return {(pos, mono_mul(mm, m)): c for (pos, mm), c in terms.items()}


def minimize_generators(gens: Sequence, *, base: Sequence = ()) -> list[FreeElem]:
    """Drop redundant generators greedily.

    Input is normalized, deduplicated and sorted by (degree, text); each
    element contained in the module of the other kept generators plus the
    rows of `base` is removed.  The survivors therefore generate the
    quotient of the module of `gens` by the module of `base`; `base` rows
    are never returned.  When every generator and base row is homogeneous
    the containment test is plain linear algebra degree by degree, which
    also makes the surviving count the graded minimal number of
    generators, independent of the representative choice.
    """
    if not gens:
        return []
    elems = [e.normalized() for e in _as_elems(gens)]
    elems = [e for e in elems if not e.is_zero()]
    if not elems:
        return []
    seen: set[FreeElem] = set()
    uniq: list[FreeElem] = []
    for e in elems:
        if e not in seen:
            seen.add(e)
            uniq.append(e)
    uniq.sort(key=lambda e: (e.degree(), str(e)))
    base_rows = tuple(e for e in _as_elems(base) if not e.is_zero()) if base else ()
    if base_rows and base_rows[0].width != uniq[0].width:
        raise ValueError("base width does not match generator width")
    if base_rows and base_rows[0].nvars != uniq[0].nvars:
        raise ValueError("base nvars does not match generator nvars")
    key = (tuple(uniq), base_rows, _budget())
    hit = _MIN_CACHE.get(key)
    if hit is not None:
        return list(hit)
    if all(e.is_homogeneous() for e in uniq + list(base_rows)):
        kept = _minimize_homogeneous(uniq, base_rows)
    else:
        kept = list(uniq)
        i = 0
        while i < len(kept):
            others = kept[:i] + kept[i + 1 :] + list(base_rows)
            if others and reduced_groebner(others).contains(kept[i]):
                kept.pop(i)
            else:
                i += 1
    _MIN_CACHE[key] = tuple(kept)
    return kept


def _minimize_homogeneous(
    elems: list[FreeElem], base: tuple[FreeElem, ...]
) -> list[FreeElem]:
    nvars = elems[0].nvars
    by_deg: dict[int, list[FreeElem]] = {}
    for e in elems:
        by_deg.setdefault(e.degree(), []).append(e)
    kept: list[FreeElem] = []
    for d in sorted(by_deg):
        ech = _Echelon()
        # kept generators are all of strictly lower degree by construction
        for g in kept + [b for b in base if b.degree() <= d]:
            for m in _monomials_of_degree(nvars, d - g.degree()):
                ech.insert(_shift_terms(g.terms, m))
        # within one degree the coefficients are scalars, so leave-one-out
        # in block order drops an element exactly when it lies in the seed
        # plus the later elements of its block: one reverse pass decides it
        alive = [e for e in reversed(by_deg[d]) if ech.insert(e.terms)]
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
    red = _tracked(tuple(elems))[0]
    if elem.is_zero():
        return tuple(Poly.zero(nvars) for _ in range(k)), elem
    # h == scale * elem.terms - sum_i q_i * gens_i, with -q_i in column
    # width + i; dividing by scale * elem.den gives the remainder and -q_i
    h, scale = red.reduce_full(dict(elem.terms))
    scale *= elem.den
    num, den = scale.denominator, scale.numerator
    rem_terms: dict[Term, int] = {}
    quot_terms: list[dict[Monomial, Fraction]] = [{} for _ in range(k)]
    for (pos, m), v in h.items():
        if pos < width:
            rem_terms[(pos, m)] = v
        else:
            quot_terms[pos - width][m] = Fraction(-v * num, den)
    remainder = FreeElem._make(width, nvars, rem_terms, num, den)
    quot = tuple(Poly._make(nvars, q) for q in quot_terms)
    # quot . gens + remainder - elem == 0, as one relation on the stacked rows
    identity = FreeElem(quot + (Poly.const(nvars, 1), Poly.const(nvars, -1)))
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


def fraction_rank(rows: Sequence) -> int:
    """Rank over the fraction field Q(d1..dn), by Bareiss elimination on
    integer polynomials.

    Each row is cleared of its denominators first, which rescales it and
    leaves the rank alone; every Bareiss division is then exact in
    Z[d1..dn], and a nonzero remainder raises ArithmeticError."""
    if not rows:
        return 0
    elems = _as_elems(rows)
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
        int_rows, _ = _int_rows(current)
        for s in syz:
            if not _annihilates(s.terms, int_rows):
                raise RuntimeError("internal error: resolution step does not compose to zero")
        steps.append(tuple(syz))
        current = syz
    return Resolution(nvars, elems[0].width, tuple(steps), complete)

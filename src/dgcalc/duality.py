"""Parametrizability by double duality, torsion, Ext and minimal potentials.

The chain for an operator D1 runs: take the formal adjoint, compute its
compatibility conditions, take the adjoint of those to get a candidate
parametrization D, then compare the compatibility conditions of D with D1.
Equality of row modules says the system is exactly the image of D (the
system module is torsion free); the failing rows generate the torsion
submodule and each one carries a scalar annihilator as a witness.

Everything reduces to Groebner computations from the engine and is exact
and deterministic.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple

from .engine import (
    BudgetExceeded,
    FreeElem,
    _RowCode,
    _int_rows,
    fraction_rank,
    minimize_generators,
    module_equal,
    reduced_groebner,
    resolve_module,
    syzygies,
)
from .operators import Bundle, LinDiffOp, adjoint, cc
from .poly import Poly, serialize


class TorsionWitnessError(BudgetExceeded):
    """No scalar annihilator was found within the degree budget.  A torsion
    residue must have one; failing to exhibit it is an error, never a pass."""


class SearchBudgetError(BudgetExceeded):
    """The subset search for a minimal parametrization is too large."""


class SearchExhaustedError(RuntimeError):
    """Every column subset of the parametrization was tried and none keeps
    the compatibility conditions: a limit of the method, not a budget."""


class TorsionGenerator(NamedTuple):
    """A row generating torsion in the system module: no choice of
    potentials produces it, and a scalar operator kills it modulo the
    system rows."""

    row: FreeElem
    order: int
    annihilator: Poly

    def __str__(self) -> str:
        return (
            f"{self.row}  [order {self.order}, "
            f"annihilated by {serialize(self.annihilator)}]"
        )


class ParamReport(NamedTuple):
    """Outcome of the double-duality test for one operator."""

    operator: LinDiffOp
    adjoint_cc: LinDiffOp
    parametrization: LinDiffOp
    recomputed_cc: LinDiffOp
    parametrizable: bool
    torsion: tuple[TorsionGenerator, ...]
    ext1_zero: bool
    ext2_zero: bool | None

    @property
    def potentials(self) -> int:
        return self.parametrization.source.dim


def param_test(d1: LinDiffOp, *, with_ext2: bool = True,
               witness_degree: int = 6) -> ParamReport:
    """Double-duality parametrizability test.

    Returns the candidate parametrization D with its compatibility
    conditions recomputed, the verdict (row modules equal), and a minimal
    set of torsion generators when the verdict is negative.
    """
    ad1 = adjoint(d1)
    add = cc(ad1)
    dpar = adjoint(add).with_name(f"param({d1.name})")
    d1p = cc(dpar).with_name(f"cc(param({d1.name}))")
    rows1 = d1.rows()
    parametrizable = module_equal(rows1, d1p.rows())
    torsion: tuple[TorsionGenerator, ...] = ()
    if not parametrizable:
        torsion = tuple(_torsion_generators(d1, d1p, witness_degree))
    ext2 = None
    if with_ext2:
        # one step further down the dual chain detects the next obstruction
        addm1 = cc(add)
        dm1 = adjoint(addm1)
        dp = cc(dm1)
        ext2 = module_equal(dpar.rows(), dp.rows())
    return ParamReport(
        operator=d1,
        adjoint_cc=add,
        parametrization=dpar,
        recomputed_cc=d1p,
        parametrizable=parametrizable,
        torsion=torsion,
        ext1_zero=parametrizable,
        ext2_zero=ext2,
    )


def _torsion_generators(d1: LinDiffOp, d1p: LinDiffOp,
                        witness_degree: int) -> list[TorsionGenerator]:
    """Rows of the recomputed conditions that are genuinely new, minimized
    as generators of the quotient by the given rows, so the count does not
    depend on representative choices."""
    rows1 = d1.rows()
    gb1 = reduced_groebner(rows1)
    residues = [r for r in d1p.rows() if not gb1.contains(r)]
    alive = minimize_generators(residues, base=rows1)
    out = []
    for r in alive:
        ann = _annihilator_witness(r, rows1, witness_degree)
        out.append(TorsionGenerator(row=r, order=r.degree(), annihilator=ann))
    return out


def _annihilator_witness(residue: FreeElem, rows1: list[FreeElem],
                         max_degree: int) -> Poly:
    """A nonzero scalar p with p * residue in the row module: read off the
    first coordinate of the relations among [residue; rows]."""
    stacked = [residue] + rows1
    # each syzygy's first coordinate, by degree read off its terms; only
    # those of least degree are normalized and put into text to compare
    heads: list[tuple[int, FreeElem]] = []
    for s in syzygies(stacked):
        deg = max((sum(m) for pos, m in s.terms if pos == 0), default=-1)
        if 0 <= deg <= max_degree:
            heads.append((deg, s))
    if not heads:
        raise TorsionWitnessError(
            f"no annihilator of degree <= {max_degree} for {residue}"
        )
    low = min(deg for deg, _ in heads)
    return min(
        (_head(s, 1).normalized().entries[0] for deg, s in heads if deg == low),
        key=serialize,
    )


# -- Ext modules --------------------------------------------------------------


class ExtReport(NamedTuple):
    """Presentation of one Ext module of the adjoint system.

    generators are cocycle classes in D^(1 x k); relations present the
    quotient on those classes; is_zero means every generator is already a
    coboundary; rank is the generic rank of the presented quotient.
    """

    index: int
    is_zero: bool
    rank: int
    generators: tuple[FreeElem, ...]
    relations: tuple[FreeElem, ...]


def _transpose_rows(rows: list[FreeElem]) -> list[FreeElem]:
    ints, den = _int_rows(rows)
    cols: list[dict] = [{} for _ in range(rows[0].width)]
    for i, r in enumerate(ints):
        for (pos, m), v in r.items():
            cols[pos][(i, m)] = v
    return [FreeElem._make(len(rows), rows[0].nvars, c, 1, den) for c in cols]


def _head(s: FreeElem, k: int) -> FreeElem:
    """The first k coordinates of s."""
    terms = {t: v for t, v in s.terms.items() if t[0] < k}
    return FreeElem._make(k, s.nvars, terms, 1, s.den)


def _trivial_ext(i: int) -> ExtReport:
    return ExtReport(index=i, is_zero=True, rank=0, generators=(), relations=())


def ext_module(a: LinDiffOp, i: int) -> ExtReport:
    """Ext^i of the module presented by the adjoint of `a`.

    Resolve that module, dualize the resolution, and present ker/im at
    position i.  mats[k] holds step k of `resolve_module`, so
    the cocycles at position i are the relations among the columns of
    mats[i] and the coboundaries are the columns of mats[i-1].
    """
    if i < 0:
        raise ValueError("Ext index must be nonnegative")
    ad = adjoint(a)
    mats = resolve_module(ad.rows(), max_steps=i).steps
    if i >= 1 and len(mats) < i:
        # the resolution stopped below position i: nothing there
        return _trivial_ext(i)
    nvars = a.nvars
    if i == 0:
        width_i = ad.source.dim
        im: list[FreeElem] = []
    else:
        width_i = len(mats[i - 1])
        im = _transpose_rows(mats[i - 1])
    if len(mats) >= i + 1:
        ker = minimize_generators(syzygies(_transpose_rows(mats[i])))
    else:
        # next differential is zero: every vector is a cocycle
        ker = [
            FreeElem(
                Poly.const(nvars, 1) if j == t else Poly.zero(nvars)
                for j in range(width_i)
            )
            for t in range(width_i)
        ]
    if im and len(mats) >= i + 1:
        # sanity: the dual complex composes to zero
        nxt, _ = _int_rows(_transpose_rows(mats[i]))
        code = _RowCode(nxt, max(r.degree() for r in im))
        for r in im:
            if not code.annihilates(r.terms):
                raise RuntimeError("internal error: dual complex not a complex")
    if im:
        gb_im = reduced_groebner(im)
        is_zero = all(gb_im.contains(k) for k in ker)
    else:
        is_zero = all(k.is_zero() for k in ker)
    gens = tuple(ker)
    if not gens:
        return _trivial_ext(i)
    k = len(gens)
    stacked = list(gens) + im
    heads = (_head(s, k) for s in syzygies(stacked))
    raw_rels = [h for h in heads if not h.is_zero()]
    rels = minimize_generators(raw_rels)
    rank = k - fraction_rank(rels)
    if is_zero and rank != 0:
        raise RuntimeError("internal error: vanishing Ext with positive rank")
    return ExtReport(
        index=i,
        is_zero=is_zero,
        rank=rank,
        generators=gens,
        relations=tuple(rels),
    )


# -- minimal parametrizations ---------------------------------------------------


SEARCH_CAP = 10_000


def minimal_parametrization(d1: LinDiffOp, *, report: ParamReport | None = None
                            ) -> LinDiffOp:
    """Cut the candidate parametrization down to rank-many potentials.

    Enumerates column subsets of the full parametrization, ordered by the
    tuple of dropped indices, and returns the first whose compatibility
    conditions still present the same row module as d1.  Only meaningful
    when the parametrizability test passes.
    """
    if report is None:
        report = param_test(d1, with_ext2=False)
    if not report.parametrizable:
        raise ValueError(f"{d1.name} is not parametrizable; no potential cut exists")
    dpar = report.parametrization
    rows1 = d1.rows()
    rk = d1.source.dim - fraction_rank(rows1)
    t = dpar.source.dim
    if rk == t:
        return dpar.with_name(f"minparam({d1.name})")
    if comb(t, rk) > SEARCH_CAP:
        raise SearchBudgetError(
            f"searching {comb(t, rk)} column subsets exceeds the cap {SEARCH_CAP}"
        )
    n = dpar.nvars
    for dropped in combinations(range(t), t - rk):
        keep = [j for j in range(t) if j not in dropped]
        sub_matrix = [[row[j] for j in keep] for row in dpar.matrix]
        sub_bundle = Bundle(
            f"{dpar.source.name}|sub",
            [(dpar.source.labels[j], dpar.source.weights[j]) for j in keep],
        )
        cand = LinDiffOp(
            f"minparam({d1.name})", n, sub_bundle, dpar.target, sub_matrix
        )
        conds = minimize_generators(syzygies(cand.rows()))
        if conds and module_equal(conds, rows1):
            return cand
    raise SearchExhaustedError(
        f"no {rk}-column subset of {dpar.name} keeps the compatibility conditions"
    )

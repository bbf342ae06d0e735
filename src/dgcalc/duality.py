"""Parametrizability by double duality, torsion, Ext and minimal potentials.

The chain for an operator D1 runs: take the formal adjoint, compute its
compatibility conditions, take the adjoint of those to get a candidate
parametrization D, then compare the compatibility conditions of D with D1.
Equality of row modules says the system is exactly the image of D (the
system module is torsion free); the failing rows generate the torsion
submodule and each one carries a scalar annihilator as a witness.  The
comparison decides Ext^1 of the adjoint's module; the next obstruction,
Ext^2, is `ext_module`'s verdict, read from the report kept on the run of
the adjoint's rows, so Ext^2 is computed in one place, `_ext`.  The
test's own report is kept on that run too, the first one it starts.

Everything reduces to Groebner computations from the engine and is exact
and deterministic.
"""

from __future__ import annotations

from typing import NamedTuple

from .engine import (
    FreeElem,
    _basis,
    _budget,
    _minimal,
    _minimal_relations,
    _relations,
    _resolve,
    _same_module,
    _tracked,
    _transpose_rows,
    fraction_rank,
    minimize_generators,
    reduced_groebner,
    syzygies,
)
from .operators import Bundle, LinDiffOp, adjoint, cc
from .poly import Poly, serialize


class TorsionWitnessError(RuntimeError):
    """The relations of a torsion residue stacked on the system's rows show
    no nonzero scalar annihilator.  A torsion residue must have one, so
    this marks an internal fault, never a pass."""


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
    """Outcome of the double-duality test for one operator.

    ext1_zero is the verdict `parametrizable`; ext2_zero is `is_zero` of
    the Ext^2 report that `ext_module` keeps on the run of the adjoint's
    rows."""

    operator: LinDiffOp
    adjoint_cc: LinDiffOp
    parametrization: LinDiffOp
    recomputed_cc: LinDiffOp
    parametrizable: bool
    torsion: tuple[TorsionGenerator, ...]
    ext1_zero: bool
    ext2_zero: bool

    @property
    def potentials(self) -> int:
        return self.parametrization.source.dim


def param_test(d1: LinDiffOp) -> ParamReport:
    """Double-duality parametrizability test.

    Returns the candidate parametrization D with its compatibility
    conditions recomputed, the verdict (row modules equal), a minimal set
    of torsion generators when the verdict is negative, and whether the
    next obstruction, Ext^2, vanishes.  That last is `ext_module(d1, 2)`'s
    verdict, read from (or left for it in) the report kept on the run of
    the adjoint's rows, so a later `ext_module(d1, 2)` is warm.

    The finished report is kept on that same run, the first one a cold
    test starts (in `cc` of the adjoint), under what else it reads: d1's
    name and its bundles with their names, labels and weights.  The
    adjoint's rows and d1's weights give back d1's rows.  A later call
    with the same reads that report back, as the report of the caller's
    operator.  An error is not kept, so a repeat raises it again; the
    run's memo is keyed on the budget, so no report crosses budgets.
    """
    budget = _budget()
    ad1 = adjoint(d1)
    rep = _tracked(ad1._rows, budget).keep(
        ("param_test", d1.name, d1.source.name, d1.target.name, d1.source, d1.target),
        _double_duality, d1, ad1, budget,
    )
    return rep if rep.operator is d1 else rep._replace(operator=d1)


def _double_duality(d1: LinDiffOp, ad1: LinDiffOp, budget: int) -> ParamReport:
    """The report `param_test` keeps, computed from d1 and its adjoint ad1.

    Ext^2 is read from `_ext`'s dual complex.  One more step down the
    adjoint/cc chain, comparing the rows of `adjoint(add)` with those of
    cc(adjoint(cc(add))), gives the same verdict on every input.
    Let mats be the resolution of the adjoint's rows that `_ext` reads:
    mats[1] = add's rows and mats[2] = cc(add)'s rows, since `cc` and the
    resolution both take `_minimal_relations`.  With sigma the ring
    automorphism d -> -d, `adjoint(add)` has the rows of
    sigma(transpose(mats[1])), each scaled by 1/weight, and
    cc(adjoint(cc(add))) generates sigma of the module of
    `_minimal_relations(transpose(mats[2]))`.  Those are sigma of the
    coboundaries and the cocycles at position 2, and the coboundaries lie
    in the cocycles; nonzero row scalings and sigma keep modules equal, so
    the two modules are equal exactly when every cocycle is a coboundary,
    `_ext`'s is_zero.  Where the resolution stops early, both sides see
    the same zero map: the adjoint's rows have no relations (both say
    Ext^2 vanishes), or mats[1] has none (every vector is a cocycle).
    """
    add = cc(ad1)
    dpar = adjoint(add).with_name(f"param({d1.name})")
    d1p = cc(dpar).with_name(f"cc(param({d1.name}))")
    # the rows of d1p have d1's width
    parametrizable = _same_module(d1._rows, d1p._rows, budget)
    torsion: tuple[TorsionGenerator, ...] = ()
    if not parametrizable:
        torsion = tuple(_torsion_generators(d1, d1p))
    ext2 = _tracked(ad1._rows, budget).keep(("ext", 2), _ext, ad1, 2, budget)
    return ParamReport(
        operator=d1,
        adjoint_cc=add,
        parametrization=dpar,
        recomputed_cc=d1p,
        parametrizable=parametrizable,
        torsion=torsion,
        ext1_zero=parametrizable,
        ext2_zero=ext2.is_zero,
    )


def _torsion_generators(d1: LinDiffOp, d1p: LinDiffOp) -> list[TorsionGenerator]:
    """Rows of the recomputed conditions that are genuinely new, minimized
    as generators of the quotient by the given rows, so the count does not
    depend on representative choices.

    Unlike the rest of `param_test`, this goes through the engine's public
    entry points, not their cores: perfbench's tracer self-test looks for
    Groebner, membership, minimization and syzygy calls under a
    `param_test` call, and these are the ones it finds.  Each cold search
    for a residue's witness calls `syzygies` on the residue stacked on the
    rows; the witness itself is kept only inside the kept report."""
    rows1 = d1.rows()
    gb1 = reduced_groebner(rows1)
    residues = [r for r in d1p.rows() if not gb1.contains(r)]
    alive = minimize_generators(residues, base=rows1)
    out = []
    for r in alive:
        ann = _annihilator_witness(r, d1._rows)
        out.append(TorsionGenerator(row=r, order=r.degree(), annihilator=ann))
    return out


def _annihilator_witness(residue: FreeElem, rows1: tuple[FreeElem, ...]) -> Poly:
    """A nonzero scalar p with p * residue in the row module: a first
    coordinate of least degree among the relations of [residue; rows]."""
    ann = _least_head((residue,) + rows1)
    if ann is None:
        raise TorsionWitnessError(f"no nonzero annihilator of {residue} in its relations")
    return ann


def _least_head(stacked: tuple[FreeElem, ...]) -> Poly | None:
    """Of the normalized nonzero first coordinates of least degree among
    the relations of the stacked rows, the one whose text comes first;
    None when every first coordinate is zero."""
    # each syzygy's first coordinate, by degree read off its terms; only
    # those of least degree are normalized and put into text to compare
    heads: list[tuple[int, FreeElem]] = []
    for s in syzygies(stacked):
        deg = max((sum(m) for pos, m in s.terms if pos == 0), default=-1)
        if deg >= 0:
            heads.append((deg, s))
    if not heads:
        return None
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

    For i >= 1 the report is kept with the Buchberger run of the
    adjoint's rows, which the resolution starts from, under ("ext", i):
    it reads nothing else.  `param_test` reads and leaves Ext^2 there too.  Ext^0
    needs no run of those rows and keeps nothing.
    """
    if i < 0:
        raise ValueError("Ext index must be nonnegative")
    budget = _budget()
    ad = adjoint(a)
    if i == 0:
        return _ext(ad, 0, budget)
    return _tracked(ad._rows, budget).keep(("ext", i), _ext, ad, i, budget)


def _ext(ad: LinDiffOp, i: int, budget: int) -> ExtReport:
    """The report `ext_module` keeps, computed from the adjoint `ad`.

    Nothing here checks that the dual complex is a complex.  Each row of
    mats[i] is a relation among the rows of mats[i-1], checked against them
    by `_relations` when that step was built, and the transposed identity,
    that the columns of mats[i-1] are relations among the columns of
    mats[i], is that same product, so multiplying it out again would check
    nothing new."""
    mats = _resolve(ad._rows, i, budget).steps
    if i >= 1 and len(mats) < i:
        # the resolution stopped below position i: nothing there
        return _trivial_ext(i)
    nvars = ad.nvars
    if i == 0:
        width_i = ad.source.dim
        im: list[FreeElem] = []
    else:
        width_i = len(mats[i - 1])
        im = _transpose_rows(mats[i - 1])
    if len(mats) >= i + 1:
        cols = _transpose_rows(mats[i])
        ker = _minimal_relations(tuple(cols), budget)
    else:
        # next differential is zero: every vector is a cocycle
        one = (0,) * nvars
        ker = [FreeElem._make(width_i, nvars, {(t, one): 1}) for t in range(width_i)]
    if im:
        gb_im = _basis(tuple(im), budget)
        is_zero = all(gb_im.contains(k) for k in ker)
    else:
        is_zero = all(k.is_zero() for k in ker)
    gens = tuple(ker)
    if not gens:
        return _trivial_ext(i)
    k = len(gens)
    stacked = list(gens) + im
    heads = (_head(s, k) for s in _relations(tuple(stacked), budget))
    raw_rels = tuple(h for h in heads if not h.is_zero())
    rels = _minimal(raw_rels, (), budget) if raw_rels else ()
    rank = k - fraction_rank(rels)
    if is_zero and rank != 0:
        raise RuntimeError("internal error: vanishing Ext with positive rank")
    return ExtReport(
        index=i,
        is_zero=is_zero,
        rank=rank,
        generators=gens,
        relations=rels,
    )


# -- minimal parametrizations ---------------------------------------------------


def minimal_parametrization(d1: LinDiffOp) -> LinDiffOp:
    """Cut the candidate parametrization down to rank-many potentials.

    The columns of the full parametrization form a matroid under the
    generic rank, so the greedy rule finds a basis: scan the columns from
    the last to the first and keep each one that raises `fraction_rank`
    of those kept.  That basis dominates every other in the Gale order
    (Oxley, *Matroid Theory*, ch. 1), so its dropped indices are the least
    tuple among the subsets of generic rank rk, the first such subset in
    the order of dropped indices that earlier versions enumerated.

    The compatibility conditions of that subset are the left kernel M' of
    its columns.  M' contains the row module M of d1, since d1 composed
    with the parametrization is zero, and it has M's rank, since the
    subset has full rank rk.  So M'/M is torsion, and it lies in F/M,
    which is torsion free once `param_test` has passed: M' = M.  The
    module comparison still runs, as an inline check.

    Only meaningful when the parametrizability test passes.  The
    parametrization is that of `param_test(d1)`, so a warm call reads the
    report kept there.
    """
    report = param_test(d1)
    if not report.parametrizable:
        raise ValueError(f"{d1.name} is not parametrizable; no potential cut exists")
    dpar = report.parametrization
    rk = d1.source.dim - fraction_rank(d1.rows())
    if rk == 0:
        raise ValueError(f"{d1.name} has full column rank; it needs no potentials")
    t = dpar.source.dim
    if rk == t:
        return dpar.with_name(f"minparam({d1.name})")
    cols = _transpose_rows(dpar._rows)
    keep: list[int] = []
    for j in reversed(range(t)):
        if fraction_rank([cols[k] for k in keep + [j]]) > len(keep):
            keep.append(j)
            if len(keep) == rk:
                break
    keep.reverse()
    sub_rows = tuple(_transpose_rows([cols[j] for j in keep]))
    budget = _budget()
    conds = _minimal_relations(sub_rows, budget)
    # conds has d1's width
    if not (conds and _same_module(conds, d1._rows, budget)):
        raise RuntimeError(
            f"internal error: the greedy {rk}-column basis of {dpar.name} "
            "changes the compatibility conditions"
        )
    sub_bundle = Bundle(
        f"{dpar.source.name}|sub",
        [(dpar.source.labels[j], dpar.source.weights[j]) for j in keep],
    )
    return LinDiffOp._make(
        f"minparam({d1.name})", dpar.nvars, sub_bundle, dpar.target, sub_rows
    )

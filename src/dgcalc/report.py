"""Regression suite over the whole package.

Every number the library promises is recomputed here and compared against
its recorded value: resolution shapes, self-adjointness, parametrizability
verdicts, torsion counts, displayed matrices, dimension tables, and a set
of structural properties of the engine itself.  The command line exposes
this as `dgcalc report`; the acceptance tests drive the same rows.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import mul
from random import Random
from typing import Callable, NamedTuple

from . import zoo
from .duality import ext_module, minimal_parametrization, param_test
from .engine import (
    FreeElem,
    Resolution,
    _memo,
    _monomials_of_degree,
    fraction_rank,
    module_equal,
    reduced_groebner,
    resolve_module,
)
from .operators import (
    LinDiffOp,
    adjoint,
    cc,
    compose,
    factor_through,
    image_module_equal,
    json_text,
)
from .poly import Poly, parse


class ReportRow(NamedTuple):
    """One recomputed claim: its identifier, a short description, the
    recorded value, the value computed in this run, and the verdict."""

    id: str
    claim: str
    expected: str
    computed: str
    passed: bool
    seconds: float


class _Check(NamedTuple):
    id: str
    claim: str
    expected: object
    fn: Callable[[], object]


# Wall-clock budgets per criterion group, in seconds.  The acceptance tests
# assert them; the report only records times.
CRITERION_LIMITS = {
    "c01": 30 + 300 + 1800,
    "c02": 300,
    "c03": 5,
    "c04": 600,
    "c05": 5,
    "c06": 30,
    "c07": 5,
    "c08": 600,
    "c09": 5,
    "c10": 60,
    "c11": 600,
}


# -- shared computations, each done once per process ---------------------------


def _metric(tag: str) -> zoo.Metric:
    kind, n = tag[0], int(tag[1:])
    return zoo.euclidean(n) if kind == "e" else zoo.minkowski(n)


def _resolution(name: str, tag: str) -> Resolution:
    return resolve_module(_op(name, _metric(tag)).rows())


@_memo
def _op(name: str, *args) -> LinDiffOp:
    """The zoo operator `name` built from `args`, once per process; looked up
    on `zoo` at each miss, so a wrapper bound there sees the call."""
    return getattr(zoo, name)(*args)


def _order_profile(res: Resolution) -> tuple:
    """Per step: the common order when the step is pure, otherwise the set
    of orders, so a mismatch shows what was actually computed."""
    out = []
    for step in res.orders:
        distinct = sorted(set(step))
        out.append(distinct[0] if len(distinct) == 1 else tuple(distinct))
    return tuple(out)


def _resolution_summary(res: Resolution) -> dict:
    return {
        "dims": res.dims,
        "orders": _order_profile(res),
        "chi": res.euler_characteristic,
        "complete": res.complete,
    }


def _column_set(op: LinDiffOp) -> tuple:
    """Columns as a canonical multiset: each normalized to primitive integer
    entries with positive leading coefficient, then sorted."""
    cols = [str(c.normalized()) for c in op.columns()]
    return tuple(sorted(cols))


def _parse_matrix(entries: list[list[str]], nvars: int) -> list[list[Poly]]:
    return [[parse(s, nvars) for s in row] for row in entries]


# -- the recorded displays ------------------------------------------------------

# Self-adjoint weighted form of the second-order trace-adjusted curvature
# operator in three euclidean variables: row weights (1,2,2,1,2,1) applied
# to the operator matrix give one half of this symmetric matrix.
_WEIGHTED_FORM_E3 = [
    ["0", "0", "0", "-d3^2", "2*d2*d3", "-d2^2"],
    ["0", "2*d3^2", "-2*d2*d3", "0", "-2*d1*d3", "2*d1*d2"],
    ["0", "-2*d2*d3", "2*d2^2", "2*d1*d3", "-2*d1*d2", "0"],
    ["-d3^2", "0", "2*d1*d3", "0", "0", "-d1^2"],
    ["2*d2*d3", "-2*d1*d3", "-2*d1*d2", "0", "2*d1^2", "0"],
    ["-d2^2", "2*d1*d2", "0", "-d1^2", "0", "0"],
]

# Two-column potential form for the divergence in three variables.
_DIV3_MINPARAM = [["0", "-d3"], ["d3", "0"], ["-d2", "d1"]]

# Balance equations of the planar micropolar model: two force rows and one
# couple row with the zeroth-order antisymmetric stress term.
_COSSERAT_BALANCE = [
    ["d1", "d2", "0", "0", "0", "0"],
    ["0", "0", "d1", "d2", "0", "0"],
    ["0", "1", "-1", "0", "d1", "d2"],
]


def _weighted_display_matches() -> bool:
    op = _op("einstein_lin", zoo.euclidean(3))
    weights = op.target.weights
    ref = _parse_matrix(_WEIGHTED_FORM_E3, 3)
    half = Fraction(1, 2)
    for i in range(6):
        for j in range(6):
            if weights[i] * op.matrix[i][j] != half * ref[i][j]:
                return False
    return True


# -- structural property checks (criterion group 11) ----------------------------


def _property_sample() -> list[LinDiffOp]:
    e2, e3, m3, m4 = (
        zoo.euclidean(2),
        zoo.euclidean(3),
        zoo.minkowski(3),
        zoo.minkowski(4),
    )
    return [
        _op("killing", e2),
        _op("killing", e3),
        _op("killing", m4),
        _op("conformal_killing", e3),
        _op("cauchy", e3),
        _op("riemann_lin", e3),
        _op("ricci_lin", m4),
        _op("einstein_lin", e3),
        _op("einstein_lin", m4),
        _op("c_map", m3),
        _op("weyl_killing", e3),
        _op("grad", 3),
        _op("div", 3),
        _op("curl"),
        _op("exterior_derivative", 4, 1),
        _op("lame", 1, 1, 2),
        _op("hooke2d", 1, 1),
        _op("cosserat_spencer"),
        _op("cosserat_equilibrium"),
        _op("cosserat_parametrization"),
    ]


def _adjoint_involution() -> bool:
    return all(adjoint(adjoint(op)) == op for op in _property_sample())


def _adjoint_contravariance() -> bool:
    m4 = zoo.minkowski(4)
    w = _op("weyl_lin", m4)
    pairs = [
        (_op("c_map", m4), _op("ricci_lin", m4)),
        (_op("dalembertian", m4, w.target), w),
        (_op("cauchy", zoo.euclidean(2)), _op("hooke2d", 2, 3)),
        (_op("div", 3), _op("curl")),
        (_op("cosserat_equilibrium"), _op("cosserat_parametrization")),
    ]
    return all(
        adjoint(compose(a, b)) == compose(adjoint(b), adjoint(a))
        for a, b in pairs
    )


def _conditions_annihilate() -> bool:
    e3 = zoo.euclidean(3)
    ops = [
        _op("killing", zoo.euclidean(2)),
        _op("killing", e3),
        _op("killing", zoo.minkowski(4)),
        _op("conformal_killing", e3),
        _op("cauchy", e3),
        _op("grad", 3),
        _op("curl"),
        _op("exterior_derivative", 4, 1),
        _op("cosserat_spencer"),
        _op("cosserat_parametrization"),
    ]
    return all(compose(cc(op), op).is_zero() for op in ops)


def _groebner_determinism() -> bool:
    rng = Random(20260816)
    samples = [
        _op("killing", zoo.minkowski(4)).rows(),
        _op("cauchy", zoo.euclidean(3)).rows(),
        _op("einstein_lin", zoo.euclidean(3)).rows(),
        _op("cosserat_equilibrium").rows(),
    ]
    for rows in samples:
        base = reduced_groebner(rows)
        for _ in range(3):
            shuffled = list(rows)
            rng.shuffle(shuffled)
            if reduced_groebner(shuffled) != base:
                return False
    return True


def _euler_rank_agreement() -> bool:
    ops = [
        _op("killing", zoo.euclidean(2)),
        _op("killing", zoo.euclidean(3)),
        _op("killing", zoo.minkowski(4)),
        _op("conformal_killing", zoo.euclidean(3)),
        _op("cauchy", zoo.euclidean(3)),
        _op("grad", 3),
        _op("div", 3),
        _op("curl"),
        _op("lame", 1, 1, 2),
        _op("hooke2d", 1, 1),
        _op("cosserat_spencer"),
        _op("cosserat_equilibrium"),
    ]
    for op in ops:
        rows = op.rows()
        res = resolve_module(rows)
        if not res.complete:
            return False
        if res.euler_characteristic != op.source.dim - fraction_rank(rows):
            return False
    return True


def _ext_torsion_rank() -> bool:
    ops = [
        _op("killing", zoo.euclidean(2)),
        _op("div", 3),
        _op("cauchy", zoo.euclidean(3)),
        _op("einstein_lin", zoo.minkowski(4)),
        _op("cosserat_equilibrium"),
    ]
    return all(
        ext_module(op, i).rank == 0 for op in ops for i in (1, 2)
    )


def _relations(vectors: list[dict[int, int]]) -> list[dict[int, int]]:
    """The integer relations among sparse integer vectors {key: value},
    keys >= 0: one for each vector in the span of those before it, as
    {index: coefficient}.  A relation is primitive, has a positive
    coefficient on its own vector and mentions no other vector that lies in
    the span of those before it, so the relations are the reduced kernel
    basis of the matrix whose columns are the vectors, one per free column,
    in column order.

    The vectors enter in order into an echelon set of rows, each stored
    under its largest key.  A row carries its combination of the vectors
    under the negative keys ~index, so one elimination updates both, and a
    row left with negative keys only is a relation.  Elimination is
    fraction-free and every stored row is primitive, so no rational number
    is ever formed."""
    pivots: dict[int, dict[int, int]] = {}
    out = []
    for t, vec in enumerate(vectors):
        row = dict(vec)
        row[~t] = 1
        # clear the largest key while a pivot row is stored under it; a
        # pivot row has no key above its own, so the largest key only falls
        # and a heap of the row's keys yields it.  A key that has cancelled
        # since it was pushed is skipped.
        heap = [-x for x in vec]
        heapify(heap)
        lead = None
        while heap:
            c = -heappop(heap)
            if c not in row:
                continue
            piv = pivots.get(c)
            if piv is None:
                lead = c
                break
            fresh = [x for x in piv if x >= 0 and x not in row]
            _eliminate(row, piv, c)
            for x in fresh:
                heappush(heap, -x)
        g = math.gcd(*row.values())
        if g != 1:
            row = {x: v // g for x, v in row.items()}
        if lead is None:
            out.append({~x: v for x, v in row.items()})
        else:
            pivots[lead] = row
    return out


def _eliminate(row: dict[int, int], piv: dict[int, int], c: int) -> None:
    """row := a * row - b * piv with a/b = piv[c]/row[c] in lowest terms,
    which clears key c; a > 0, so a key that piv lacks keeps its sign."""
    g = math.gcd(row[c], piv[c])
    a, b = piv[c] // g, row[c] // g
    if a < 0:
        a, b = -a, -b
    if a != 1:
        for x in row:
            row[x] *= a
    for x, v in piv.items():
        nv = row.get(x, 0) - b * v
        if nv:
            row[x] = nv
        else:
            del row[x]


def _truncated_kernel(rows: list[FreeElem], cap: int) -> list[FreeElem]:
    """All relations among `rows` whose cofactors have degree at most cap,
    found by plain linear algebra over the coefficient field.

    The unknowns are the cofactor coefficients, one per (row i, monomial m),
    i first.  Unknown (i, m) stands for the vector of rows[i] * m, on the
    Kronecker keys pos + width * sum(e_j * base^j) of its terms, with base
    above every exponent such a product can have.  Row i enters as its
    integer terms, which are rows[i] times its denominator den_i, so a
    relation y among those vectors is the relation x_t = den_i * y_t."""
    k, width, nvars = len(rows), rows[0].width, rows[0].nvars
    mons = [m for d in range(cap + 1) for m in _monomials_of_degree(nvars, d)]
    nm = len(mons)
    base = max(r.degree() for r in rows) + cap + 1
    powers = [width * base**j for j in range(nvars)]

    def key(m: tuple[int, ...]) -> int:
        return sum(map(mul, m, powers))

    shifts = [key(m) for m in mons]
    vectors = []
    for relem in rows:
        terms = {pos + key(pm): v for (pos, pm), v in relem.terms.items()}
        vectors += ({x + s: v for x, v in terms.items()} for s in shifts)
    out = []
    for rel in _relations(vectors):
        terms = {}
        for t, y in rel.items():
            i, r = divmod(t, nm)
            terms[(i, mons[r])] = rows[i].den * y
        out.append(FreeElem._make(k, nvars, terms))
    return out


def _finite_degree_exactness() -> bool:
    """For small resolutions: every relation with cofactor degree <= 4 at
    each step already lies in the module generated by the next step, and
    complete resolutions have no leftover low-degree relations at the end.
    Containment both ways pins the truncated kernels to the recorded steps;
    their coefficient-space dimensions therefore agree degree by degree."""
    ops = [
        _op("killing", zoo.euclidean(2)),
        _op("killing", zoo.euclidean(3)),
        _op("conformal_killing", zoo.euclidean(3)),
        _op("cauchy", zoo.euclidean(3)),
        _op("riemann_lin", zoo.euclidean(2)),
        _op("riemann_lin", zoo.euclidean(3)),
        _op("grad", 3),
        _op("div", 3),
        _op("curl"),
        _op("lame", 1, 1, 2),
        _op("hooke2d", 1, 1),
        _op("cosserat_spencer"),
        _op("cosserat_equilibrium"),
    ]
    cap = 4
    for op in ops:
        res = resolve_module(op.rows())
        if not res.complete:
            return False
        if any(len(step) > 10 for step in res.steps):
            continue
        for pos, step in enumerate(res.steps):
            kernel = _truncated_kernel(list(step), cap)
            if pos + 1 < len(res.steps):
                nxt = list(res.steps[pos + 1])
                gb = reduced_groebner(nxt)
                if not all(gb.contains(v) for v in kernel):
                    return False
                if not all(s.dot(list(step)).is_zero() for s in nxt):
                    return False
            elif kernel:
                return False
    return True


# -- the check list --------------------------------------------------------------


def _conformal_check(tag: str, dims: tuple, orders: tuple) -> _Check:
    words = {"e3": "three euclidean", "m4": "four minkowski",
             "e5": "five euclidean"}
    return _Check(
        id=f"c01.conformal-resolution-{tag}",
        claim=(
            f"resolution of the trace-free Killing system in {words[tag]} "
            "variables has the recorded shape"
        ),
        expected={"dims": dims, "orders": orders, "chi": 0, "complete": True},
        fn=lambda: _resolution_summary(_resolution("conformal_killing", tag)),
    )


def _killing_check(tag: str, dims: tuple) -> _Check:
    words = {"e3": "three euclidean", "m4": "four minkowski"}
    return _Check(
        id=f"c02.killing-resolution-{tag}",
        claim=(
            f"resolution of the Killing system in {words[tag]} variables "
            "has the recorded shape and zero Euler characteristic"
        ),
        expected={"dims": dims, "chi": 0, "complete": True},
        fn=lambda: {
            k: v
            for k, v in _resolution_summary(_resolution("killing", tag)).items()
            if k != "orders"
        },
    )


def _checks() -> list[_Check]:
    checks: list[_Check] = []

    checks.append(_conformal_check("e3", (5, 5, 3), (1, 3, 1)))
    checks.append(_conformal_check("m4", (9, 10, 9, 4), (1, 2, 2, 1)))
    checks.append(_conformal_check("e5", (14, 35, 35, 14, 5), (1, 2, 1, 2, 1)))

    checks.append(_killing_check("m4", (10, 20, 20, 6)))
    checks.append(_killing_check("e3", (6, 6, 3)))

    checks.append(_Check(
        id="c03.einstein-self-adjoint-e3",
        claim="the trace-adjusted curvature operator equals its adjoint, "
              "three euclidean variables",
        expected=True,
        fn=lambda: adjoint(_op("einstein_lin", zoo.euclidean(3)))
        == _op("einstein_lin", zoo.euclidean(3)),
    ))
    checks.append(_Check(
        id="c03.einstein-self-adjoint-m4",
        claim="the trace-adjusted curvature operator equals its adjoint, "
              "four minkowski variables",
        expected=True,
        fn=lambda: adjoint(_op("einstein_lin", zoo.minkowski(4)))
        == _op("einstein_lin", zoo.minkowski(4)),
    ))
    checks.append(_Check(
        id="c03.einstein-weighted-display-e3",
        claim="row weights (1,2,2,1,2,1) turn the operator into one half of "
              "the recorded symmetric matrix",
        expected=True,
        fn=_weighted_display_matches,
    ))
    checks.append(_Check(
        id="c03.ricci-not-self-adjoint-m4",
        claim="the second-order trace operator differs from its adjoint as "
              "a matrix, four minkowski variables",
        expected=True,
        fn=lambda: adjoint(_op("ricci_lin", zoo.minkowski(4)))
        != _op("ricci_lin", zoo.minkowski(4)),
    ))

    checks.append(_Check(
        id="c04.einstein-not-parametrizable",
        claim="the double-duality test rejects the trace-adjusted curvature "
              "operator in four minkowski variables",
        expected={"parametrizable": False, "ext1_zero": False},
        fn=lambda: (lambda rep: {
            "parametrizable": rep.parametrizable,
            "ext1_zero": rep.ext1_zero,
        })(param_test(_op("einstein_lin", zoo.minkowski(4)))),
    ))
    checks.append(_Check(
        id="c04.einstein-candidate-potentials",
        claim="the candidate parametrization found along the way carries "
              "four potentials",
        expected=4,
        fn=lambda: param_test(_op("einstein_lin", zoo.minkowski(4))).potentials,
    ))
    checks.append(_Check(
        id="c04.einstein-new-conditions-are-curvature",
        claim="the recomputed conditions have twenty rows presenting the "
              "same module as the linearized curvature operator",
        expected={"rows": 20, "matches_curvature": True},
        fn=lambda: (lambda conds: {
            "rows": conds.target.dim,
            "matches_curvature": module_equal(
                conds.rows(), _op("riemann_lin", zoo.minkowski(4)).rows(),
            ),
        })(param_test(_op("einstein_lin", zoo.minkowski(4))).recomputed_cc),
    ))
    checks.append(_Check(
        id="c04.einstein-torsion-count",
        claim="ten independent torsion rows obstruct the parametrization",
        expected=10,
        fn=lambda: len(param_test(_op("einstein_lin", zoo.minkowski(4))).torsion),
    ))

    checks.append(_Check(
        id="c05.div3-parametrizable",
        claim="the divergence in three variables passes the double-duality "
              "test with both obstruction modules zero",
        expected={"parametrizable": True, "ext1_zero": True, "ext2_zero": True},
        fn=lambda: (lambda rep: {
            "parametrizable": rep.parametrizable,
            "ext1_zero": rep.ext1_zero,
            "ext2_zero": rep.ext2_zero,
        })(param_test(_op("div", 3))),
    ))
    checks.append(_Check(
        id="c05.div3-parametrization-is-curl",
        claim="the computed parametrization has the same image as the curl",
        expected=True,
        fn=lambda: image_module_equal(
            param_test(_op("div", 3)).parametrization, _op("curl")
        ),
    ))
    checks.append(_Check(
        id="c05.div3-ext-modules-vanish",
        claim="the first two obstruction modules of the divergence vanish "
              "when presented directly",
        expected={"ext1_is_zero": True, "ext2_is_zero": True},
        fn=lambda: {
            "ext1_is_zero": ext_module(_op("div", 3), 1).is_zero,
            "ext2_is_zero": ext_module(_op("div", 3), 2).is_zero,
        },
    ))
    checks.append(_Check(
        id="c05.div3-minimal-parametrization",
        claim="two potentials suffice and the columns match the recorded "
              "two-column form up to sign and order",
        expected={
            "potentials": 2,
            "columns": _column_set(
                LinDiffOp(
                    "recorded", 3,
                    zoo.vector_bundle(2, "potentials"),
                    zoo.vector_bundle(3),
                    _parse_matrix(_DIV3_MINPARAM, 3),
                )
            ),
        },
        fn=lambda: (lambda mp: {
            "potentials": mp.source.dim,
            "columns": _column_set(mp),
        })(minimal_parametrization(_op("div", 3), report=param_test(_op("div", 3)))),
    ))

    checks.append(_Check(
        id="c06.strain-conditions-single-row",
        claim="the compatibility conditions of the plane strain operator "
              "are one row, the linearized curvature",
        expected={
            "rows": 1,
            "row": str(FreeElem([
                parse("d2^2", 2), parse("-2*d1*d2", 2), parse("d1^2", 2),
            ]).normalized()),
        },
        fn=lambda: (lambda c: {
            "rows": c.target.dim,
            "row": str(c.rows()[0].normalized()),
        })(cc(_op("killing", zoo.euclidean(2)))),
    ))
    checks.append(_Check(
        id="c06.airy-adjoint-column",
        claim="the adjoint of that row is the classical stress-function "
              "column",
        expected=[["d2^2"], ["-d1*d2"], ["d1^2"]],
        fn=lambda: adjoint(cc(_op("killing", zoo.euclidean(2)))).entry_strs(),
    ))
    checks.append(_Check(
        id="c06.dam-operator-identity",
        claim="curvature composed with the inverted plane stress law and "
              "the adjoint curvature gives three quarters of the squared "
              "laplacian at unit moduli",
        expected=[["3/4*d1^4 + 3/2*d1^2*d2^2 + 3/4*d2^4"]],
        fn=lambda: compose(
            _op("riemann_lin", zoo.euclidean(2)),
            compose(
                _op("hooke2d_inverse", 1, 1),
                adjoint(_op("riemann_lin", zoo.euclidean(2))),
            ),
        ).entry_strs(),
    ))
    checks.append(_Check(
        id="c06.stress-parametrization-3d",
        claim="the stress divergence in three euclidean variables is "
              "parametrized by the adjoint of the linearized curvature",
        expected={"parametrizable": True, "matches_adjoint_curvature": True},
        fn=lambda: (lambda rep: {
            "parametrizable": rep.parametrizable,
            "matches_adjoint_curvature": image_module_equal(
                rep.parametrization, adjoint(_op("riemann_lin", zoo.euclidean(3))),
            ),
        })(param_test(_op("cauchy", zoo.euclidean(3)))),
    ))

    checks.append(_Check(
        id="c07.balance-equations-display",
        claim="minus the adjoint of the planar micropolar jet operator is "
              "the recorded balance system, including the zeroth-order "
              "antisymmetric stress term",
        expected=_COSSERAT_BALANCE,
        fn=lambda: _op("cosserat_equilibrium").entry_strs(),
    ))
    checks.append(_Check(
        id="c07.potential-display-composes-to-zero",
        claim="the recorded three-potential form composes to zero with the "
              "balance system",
        expected=True,
        fn=lambda: compose(
            _op("cosserat_equilibrium"), _op("cosserat_parametrization")
        ).is_zero(),
    ))
    checks.append(_Check(
        id="c07.balance-parametrizable",
        claim="the balance system passes the double-duality test and the "
              "recorded potentials have the computed image",
        expected={"parametrizable": True, "display_matches": True},
        fn=lambda: (lambda rep: {
            "parametrizable": rep.parametrizable,
            "display_matches": image_module_equal(
                _op("cosserat_parametrization"), rep.parametrization,
            ),
        })(param_test(_op("cosserat_equilibrium"))),
    ))

    checks.append(_Check(
        id="c08.wave-factors-through-trace",
        claim="the wave operator applied after the trace-free curvature "
              "factors through the second-order trace operator with a "
              "second-order quotient, four minkowski variables",
        expected={"order": 2, "identity": True},
        fn=_wave_factorization,
    ))

    checks.append(_Check(
        id="c09.trace-flip-composition",
        claim="the trace flip composed with the second-order trace operator "
              "reproduces the trace-adjusted operator, four minkowski "
              "variables",
        expected=True,
        fn=lambda: compose(
            _op("c_map", zoo.minkowski(4)), _op("ricci_lin", zoo.minkowski(4))
        ) == _op("einstein_lin", zoo.minkowski(4)),
    ))
    checks.append(_Check(
        id="c09.adjoint-then-trace-flip",
        claim="the adjoint of the second-order trace operator followed by "
              "the trace flip reproduces the same operator",
        expected=True,
        fn=lambda: compose(
            adjoint(_op("ricci_lin", zoo.minkowski(4))),
            _op("c_map", zoo.minkowski(4)),
        ) == _op("einstein_lin", zoo.minkowski(4)),
    ))

    checks.append(_Check(
        id="c10.curvature-bundle-sizes",
        claim="the curvature bundle built from the index basis matches the "
              "closed-form count for two to six variables",
        expected={"bundle": (1, 6, 20, 50, 105), "formula": (1, 6, 20, 50, 105)},
        fn=lambda: {
            "bundle": tuple(
                zoo.riemann_bundle(n, "F1").dim for n in range(2, 7)
            ),
            "formula": tuple(zoo.dims(n).f1 for n in range(2, 7)),
        },
    ))
    checks.append(_Check(
        id="c10.trace-free-curvature-sizes",
        claim="the trace-free curvature bundle matches its closed-form "
              "count for four to six variables",
        expected={"bundle": (10, 35, 84), "formula": (10, 35, 84)},
        fn=lambda: {
            # weyl_lin's target has one component per selected index
            "bundle": tuple(
                len(zoo.weyl_component_selection(zoo.euclidean(n))) for n in (4, 5, 6)
            ),
            "formula": tuple(zoo.dims(n).f1hat for n in (4, 5, 6)),
        },
    ))
    checks.append(_Check(
        id="c10.jet-complex-splits",
        claim="the planar third-order jet complex splits columnwise over "
              "each geometric group, and the full dimensions match the "
              "alternating-sum formula",
        expected={
            "full": (20, 30, 12),
            "formula": (20, 30, 12),
            "splits": (("conformal", True), ("homothety", True),
                       ("isometry", True)),
            "group_dims": (3, 4, 6),
        },
        fn=_jet_split_summary,
    ))

    checks.append(_Check(
        id="c11.adjoint-involution",
        claim="taking the adjoint twice returns every sampled operator "
              "unchanged",
        expected=True,
        fn=_adjoint_involution,
    ))
    checks.append(_Check(
        id="c11.adjoint-contravariance",
        claim="the adjoint of a composition is the reversed composition of "
              "adjoints on all sampled composable pairs",
        expected=True,
        fn=_adjoint_contravariance,
    ))
    checks.append(_Check(
        id="c11.conditions-annihilate",
        claim="compatibility conditions compose to zero with their operator "
              "on the sampled zoo",
        expected=True,
        fn=_conditions_annihilate,
    ))
    checks.append(_Check(
        id="c11.groebner-determinism",
        claim="reduced bases are identical under generator permutation and "
              "thread count",
        expected=True,
        fn=_groebner_determinism,
    ))
    checks.append(_Check(
        id="c11.euler-rank-agreement",
        claim="the Euler characteristic of every complete sampled "
              "resolution equals the generic rank of the presented module",
        expected=True,
        fn=_euler_rank_agreement,
    ))
    checks.append(_Check(
        id="c11.ext-torsion-rank",
        claim="higher obstruction modules have zero generic rank on the "
              "sampled operators",
        expected=True,
        fn=_ext_torsion_rank,
    ))
    checks.append(_Check(
        id="c11.finite-degree-exactness",
        claim="low-degree relations at every step of the small sampled "
              "resolutions are generated by the recorded next step",
        expected=True,
        fn=_finite_degree_exactness,
    ))

    return checks


def _wave_factorization() -> dict:
    m4 = zoo.minkowski(4)
    w = _op("weyl_lin", m4)
    ric = _op("ricci_lin", m4)
    lhs = compose(_op("dalembertian", m4, w.target), w)
    q = factor_through(lhs, ric)
    return {"order": q.order(), "identity": compose(q, ric) == lhs}


def _jet_split_summary() -> dict:
    table = zoo.diagram1_table()
    full = table["full"]
    splits = tuple(sorted(
        (
            g["name"],
            tuple(s + j for s, j in zip(g["spencer"], g["janet"])) == full,
        )
        for g in table["groups"]
    ))
    t = zoo.dims(2)
    return {
        "full": full,
        "formula": tuple(t.spencer_full_dim(r, 3, 2) for r in range(3)),
        "splits": splits,
        "group_dims": tuple(g["dim"] for g in table["groups"]),
    }


# -- running and rendering -------------------------------------------------------


def run_report(only: str | None = None) -> list[ReportRow]:
    """Execute the checks (all of them, or those whose id contains `only`)
    and return one row per check.  A crash inside a check is recorded as a
    failed row, never raised."""
    rows = []
    for check in _checks():
        if only and only not in check.id:
            continue
        t0 = time.perf_counter()
        try:
            computed = check.fn()
            passed = computed == check.expected
            shown = repr(computed)
        except Exception as exc:
            passed = False
            shown = f"error: {type(exc).__name__}: {exc}"
        rows.append(ReportRow(
            id=check.id,
            claim=check.claim,
            expected=repr(check.expected),
            computed=shown,
            passed=passed,
            seconds=time.perf_counter() - t0,
        ))
    return rows


def format_rows(rows: list[ReportRow]) -> str:
    lines = []
    for row in rows:
        mark = "PASS" if row.passed else "FAIL"
        lines.append(f"{mark}  {row.id}  ({row.seconds:.2f}s)  {row.claim}")
        if not row.passed:
            lines.append(f"      expected: {row.expected}")
            lines.append(f"      computed: {row.computed}")
    good = sum(1 for r in rows if r.passed)
    total = sum(r.seconds for r in rows)
    lines.append(
        f"{good}/{len(rows)} checks passed in {total:.1f}s"
        if rows else "no checks matched"
    )
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[ReportRow]) -> str:
    """Stable rendering: wall times are omitted so reruns are bit-identical."""
    doc = {
        "checks": [
            {
                "id": r.id,
                "claim": r.claim,
                "expected": r.expected,
                "computed": r.computed,
                "passed": r.passed,
            }
            for r in rows
        ],
        "passed": sum(1 for r in rows if r.passed),
        "failed": sum(1 for r in rows if not r.passed),
    }
    return json_text(doc)

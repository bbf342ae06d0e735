"""A zoo of classical linear differential operators, built exactly.

Everything is expressed over Q[d1..dn] acting on components of symmetric
tensors, vectors, scalars or curvature-type tensors.  Metrics are constant
(Euclidean or Minkowski), so linearized curvature operators have constant
coefficients.  Symmetric 2-tensor bundles carry weight 2 on off-diagonal
components, which makes formal adjoints come out in their classical form.

Index conventions: components of a symmetric tensor are pairs (i,j) with
i <= j in lexicographic order; curvature components are pairs of pairs
(P,Q) with P <= Q, cut down modulo the cyclic identity.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, gcd, lcm
from typing import TYPE_CHECKING, NamedTuple

from .engine import FreeElem, Term, _Echelon
from .operators import MAX_NVARS, Bundle, LinDiffOp, ShapeMismatch, _times, adjoint, compose
from .poly import Monomial, mono_mul

if TYPE_CHECKING:
    from fractions import Fraction


# -- metrics -----------------------------------------------------------------


class Metric(NamedTuple):
    """A constant symmetric nondegenerate metric on R^n.

    A tuple, so it equals and hashes alike over (name, tag, n, matrix) and
    can key a cache; metric[i, j] reads the 1-indexed entry, and `inverse`
    the whole inverse matrix, from one fraction-free elimination per read."""

    name: str
    tag: str
    n: int
    matrix: tuple[tuple[int | Fraction, ...], ...]

    @property
    def inverse(self) -> tuple[tuple[Fraction, ...], ...]:
        from fractions import Fraction

        d, _, inv = _scaled(self)
        return tuple(tuple(Fraction(c, d) for c in row) for row in inv)

    def __getitem__(self, ij: tuple[int, int]) -> int | Fraction:
        i, j = ij  # 1-indexed
        return self.matrix[i - 1][j - 1]


def euclidean(n: int) -> Metric:
    if n < 1:
        raise ValueError("need n >= 1")
    mat = tuple(
        tuple(int(i == j) for j in range(n)) for i in range(n)
    )
    return Metric(name="euclidean", tag="e", n=n, matrix=mat)


def minkowski(n: int) -> Metric:
    """Signature (+,...,+,-): the last coordinate is time."""
    if n < 2:
        raise ValueError("need n >= 2")
    mat = tuple(
        tuple((-1 if i == n - 1 else 1) * int(i == j) for j in range(n))
        for i in range(n)
    )
    return Metric(name="minkowski", tag="m", n=n, matrix=mat)


METRICS = {"euclidean": euclidean, "minkowski": minkowski}


# -- bundles -------------------------------------------------------------------


def sym_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


def sym_bundle(n: int, name: str = "sym2") -> Bundle:
    return Bundle(
        name,
        (
            (f"{i}{j}", 1 if i == j else 2)
            for i, j in sym_pairs(n)
        ),
    )


def vector_bundle(n: int, name: str = "vector") -> Bundle:
    return Bundle(name, ((str(i), 1) for i in range(1, n + 1)))


def scalar_bundle(name: str = "scalar") -> Bundle:
    return Bundle(name, (("1", 1),))


def _sym_col(n: int) -> tuple[tuple[int, ...], ...]:
    """_sym_col(n)[u][v]: the component index of the unordered pair (u, v),
    for 1-indexed u and v (row and column 0 are unused)."""
    col = [[-1] * (n + 1) for _ in range(n + 1)]
    for k, (i, j) in enumerate(sym_pairs(n)):
        col[i][j] = col[j][i] = k
    return tuple(map(tuple, col))


# -- curvature component bookkeeping --------------------------------------------


class RiemannBasis:
    """Independent components of a curvature-type tensor R_{kl,ij}:
    antisymmetric in (k,l) and (i,j), symmetric under pair swap, and
    reduced modulo the cyclic identity by dropping, for every a<b<c<d,
    the component ((a,d),(b,c)) = ((a,c),(b,d)) - ((a,b),(c,d))."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need n >= 2")
        self.n = n
        antis = list(combinations(range(1, n + 1), 2))
        dropped = {
            ((a, d), (b, c))
            for a, b, c, d in combinations(range(1, n + 1), 4)
        }
        self.pairs: list[tuple[tuple[int, int], tuple[int, int]]] = [
            (p, q)
            for ii, p in enumerate(antis)
            for q in antis[ii:]
            if (p, q) not in dropped
        ]
        self.index = {pq: k for k, pq in enumerate(self.pairs)}
        expected = n * n * (n * n - 1) // 12
        if len(self.pairs) != expected:
            raise RuntimeError(
                f"internal error: {len(self.pairs)} curvature components, "
                f"expected {expected}"
            )

    @property
    def size(self) -> int:
        return len(self.pairs)

    def labels(self) -> list[str]:
        return [f"{p[0]}{p[1]},{q[0]}{q[1]}" for p, q in self.pairs]

    def resolve(self, k: int, l: int, i: int, j: int) -> dict[int, int]:
        """Express R_{kl,ij} over the kept components, with integer
        coefficients."""
        if k == l or i == j:
            return {}
        s = 1
        if k > l:
            k, l, s = l, k, -s
        if i > j:
            i, j, s = j, i, -s
        p, q = sorted(((k, l), (i, j)))
        idx = self.index.get((p, q))
        if idx is not None:
            return {idx: s}
        # dropped component: p=(a,d), q=(b,c) with a<b<c<d; the cyclic
        # identity R_{ad,bc} = R_{ac,bd} - R_{ab,cd} gives it over two kept
        # ones
        (a, d), (b, c) = p, q
        return {self.index[(a, c), (b, d)]: s, self.index[(a, b), (c, d)]: -s}


def riemann_bundle(n: int, name: str) -> Bundle:
    rb = RiemannBasis(n)
    return Bundle(name, ((lbl, 1) for lbl in rb.labels()))


# -- first order: Killing-type operators ----------------------------------------


def _killing_rows(w: tuple[tuple[int, ...], ...]) -> list[_IntRow]:
    """The Killing rows for an integer matrix w (D times the metric), one
    per symmetric pair (i, j)."""
    n = len(w)
    d1 = _d(n)
    rows = []
    for i, j in sym_pairs(n):
        row: _IntRow = {}
        for r in range(n):
            _acc(row, r, d1[i], w[r][j - 1])
            _acc(row, r, d1[j], w[i - 1][r])
        rows.append(row)
    return rows


def killing(metric: Metric) -> LinDiffOp:
    """Lie derivative of the metric: Omega_ij = w_rj di xi^r + w_ir dj xi^r."""
    n = metric.n
    d, w, _ = _scaled(metric)
    return _int_op(
        f"killing_{metric.tag}{n}", n, vector_bundle(n), sym_bundle(n),
        _killing_rows(w), d,
    )


def conformal_killing(metric: Metric) -> LinDiffOp:
    """Trace-free part of the Killing operator, Omega_ij - (w_ij / n) 2 d_u
    xi^u; the redundant (n,n) component is dropped, leaving n(n+1)/2 - 1
    rows over the denominator n D."""
    n = metric.n
    if n < 2:
        raise ValueError("need n >= 2")
    d, w, _ = _scaled(metric)
    d1 = _d(n)
    rows = []
    for (i, j), kill in zip(sym_pairs(n)[:-1], _killing_rows(w)):
        row = {t: n * c for t, c in kill.items()}
        for u in range(1, n + 1):
            _acc(row, u - 1, d1[u], -2 * w[i - 1][j - 1])
        rows.append(row)
    tgt = Bundle(f"sym2tf({n})", sym_bundle(n).components[:-1])
    return _int_op(
        f"conformal_killing_{metric.tag}{n}", n, vector_bundle(n), tgt, rows, n * d
    )


def cauchy(metric: Metric) -> LinDiffOp:
    """Symmetrized gradient (small strain): -1/2 times the Killing adjoint."""
    return _times(adjoint(killing(metric)), -1, 2, f"cauchy_{metric.tag}{metric.n}")


def weyl_killing(metric: Metric) -> LinDiffOp:
    """Conformal Killing rows together with the gradient of the trace;
    the gauge system whose solutions are conformal fields with constant
    divergence rescaling."""
    n = metric.n
    ck = conformal_killing(metric)
    dd = _dd(n)
    # d_i of the trace 2 d_u xi^u
    rows = ck.rows() + [
        FreeElem._make(n, n, {(u - 1, dd[i][u]): 2 for u in range(1, n + 1)})
        for i in range(1, n + 1)
    ]
    labels = list(ck.target.labels) + [f"t{i}" for i in range(1, n + 1)]
    weights = list(ck.target.weights) + [1] * n
    tgt = Bundle(f"sym2tf+t({n})", zip(labels, weights))
    return LinDiffOp._make(
        f"weyl_killing_{metric.tag}{n}", n, vector_bundle(n), tgt, tuple(rows)
    )


# -- linearized curvature ---------------------------------------------------------
#
# Every zoo operator is built as integer rows in the engine's term form,
# {(column, monomial): int}, over one denominator per operator.  The metric
# and its inverse enter as integer matrices over their common denominator D
# (see _scaled), rational moduli over their least common denominator, and
# each row becomes the operator's FreeElem row once, in _int_op.

_IntRow = dict[Term, int]
_Scaled = tuple[int, tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]


def _scaled(metric: Metric) -> _Scaled:
    """(D, D*w, D*w^-1): D is the least common denominator of the entries
    of the metric w and of its inverse, so both scaled matrices are
    integer.  The inverse comes from fraction-free Gauss-Jordan
    elimination on e*w, e the least common denominator of w's entries."""
    n = metric.n
    e = lcm(*(c.denominator for row in metric.matrix for c in row))
    aug = [[c.numerator * (e // c.denominator) for c in row] + [int(i == j) for j in range(n)]
           for i, row in enumerate(metric.matrix)]
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c]), None)
        if piv is None:
            raise ValueError("metric is degenerate")
        aug[c], aug[piv] = aug[piv], aug[c]
        top = aug[c]
        for r in range(n):
            if r != c and aug[r][c]:
                row = [top[c] * x - aug[r][c] * y for x, y in zip(aug[r], top)]
                g = gcd(*row)
                aug[r] = [x // g for x in row]
    # now w^-1[r][s] = e * aug[r][n + s] / aug[r][r]
    d = lcm(e, *(row[r] // gcd(e * x, row[r]) for r, row in enumerate(aug) for x in row[n:]))
    w = tuple(tuple(c.numerator * (d // c.denominator) for c in row) for row in metric.matrix)
    inv = tuple(tuple(e * d * x // row[r] for x in row[n:]) for r, row in enumerate(aug))
    return d, w, inv


def _d(n: int) -> list[Monomial]:
    """_d(n)[a]: the exponent tuple of d_a, 1-indexed like _sym_col."""
    return [()] + [tuple(int(a == b) for a in range(1, n + 1)) for b in range(1, n + 1)]


def _dd(n: int) -> tuple[tuple[Monomial, ...], ...]:
    """_dd(n)[a][b]: the exponent tuple of d_a d_b, 1-indexed like _sym_col."""
    d1 = _d(n)
    return tuple(tuple(mono_mul(a, b) for b in d1) for a in d1)


def _nonzero(mat: tuple[tuple[int, ...], ...]) -> list[tuple[int, int, int]]:
    """(r, s, mat[r][s]) for the nonzero entries, 1-indexed."""
    return [
        (r + 1, s + 1, c) for r, row in enumerate(mat) for s, c in enumerate(row) if c
    ]


def _acc(row: _IntRow, col: int, m: Monomial, c: int) -> None:
    t = (col, m)
    row[t] = row.get(t, 0) + c


def _acc_row(row: _IntRow, src: _IntRow, f: int) -> None:
    """row += f * src."""
    for t, c in src.items():
        row[t] = row.get(t, 0) + f * c


def _int_op(name: str, nvars: int, source: Bundle, target: Bundle,
            rows: list[_IntRow], den: int) -> LinDiffOp:
    """The operator whose entry (r, col) is the sum of c / den * m over the
    terms (col, m): c of rows[r].  Each row becomes a FreeElem row of width
    source.dim as it is, once its zero numerators are dropped; nothing is
    sorted.  The row count is checked as `LinDiffOp` checks it."""
    if len(rows) != target.dim:
        raise ShapeMismatch(
            f"{name}: {len(rows)} rows but target has {target.dim} components"
        )
    width = source.dim
    out = tuple(
        FreeElem._make(width, nvars, {t: c for t, c in row.items() if c}, 1, den)
        for row in rows
    )
    return LinDiffOp._make(name, nvars, source, target, out)


def _riemann_rows(n: int) -> list[_IntRow]:
    """K_{kl,ij} = di dk O_jl + dj dl O_ik - di dl O_jk - dj dk O_il, one
    row per component (kl, ij) of the curvature basis, in basis order."""
    col = _sym_col(n)
    dd = _dd(n)
    rows = []
    for (k, l), (i, j) in RiemannBasis(n).pairs:
        row: _IntRow = {}
        for sign, (da, db), (oa, ob) in (
            (1, (i, k), (j, l)),
            (1, (j, l), (i, k)),
            (-1, (i, l), (j, k)),
            (-1, (j, k), (i, l)),
        ):
            _acc(row, col[oa][ob], dd[da][db], sign)
        rows.append(row)
    return rows


def riemann_lin(metric: Metric) -> LinDiffOp:
    """Linearized curvature of a metric perturbation Omega, one row per
    independent curvature component (the rows K of _riemann_rows).

    The matrix itself does not involve the metric; the metric fixes n and
    the naming.  Second order, n^2(n^2-1)/12 rows."""
    n = metric.n
    return _int_op(
        f"riemann_{metric.tag}{n}", n, sym_bundle(n), riemann_bundle(n, f"riem({n})"),
        _riemann_rows(n), 1,
    )


def _curvature_rows(
    n: int, scaled: _Scaled
) -> tuple[dict[tuple[int, int], _IntRow], int, _IntRow, int]:
    """(ric, 2D, scal, D^2) for the metric in n variables that `_scaled`
    gives as `scaled`: ric[(i, j)] for i <= j
    is the Ricci row over the denominator 2D,

        2 R_ij = w^{rs} dr ds O_ij + di dj O^tr - w^{rs}(dr di O_sj + dr dj O_si),

    and scal is the scalar curvature row over D^2,

        R = w^{rs} dr ds O^tr - w^{ru} w^{sv} dr ds O_uv."""
    d, _, inv = scaled
    col = _sym_col(n)
    dd = _dd(n)
    nz = _nonzero(inv)
    ric: dict[tuple[int, int], _IntRow] = {}
    for i, j in sym_pairs(n):
        row: _IntRow = {}
        for r, s, c in nz:
            # wave operator on O_ij, di dj of the trace, cross terms
            _acc(row, col[i][j], dd[r][s], c)
            _acc(row, col[r][s], dd[i][j], c)
            _acc(row, col[s][j], dd[r][i], -c)
            _acc(row, col[s][i], dd[r][j], -c)
        ric[(i, j)] = row
    scal: _IntRow = {}
    for u, v, c in nz:
        for r, s, c2 in nz:
            _acc(scal, col[u][v], dd[r][s], c * c2)
    for r, u, cru in nz:
        for s, v, csv in nz:
            _acc(scal, col[u][v], dd[r][s], -cru * csv)
    return ric, 2 * d, scal, d * d


def ricci_lin(metric: Metric) -> LinDiffOp:
    n = metric.n
    ric, den, _, _ = _curvature_rows(n, _scaled(metric))
    return _int_op(
        f"ricci_{metric.tag}{n}", n, sym_bundle(n), sym_bundle(n, f"ric({n})"),
        [ric[p] for p in sym_pairs(n)], den,
    )


def _index_shift(mat: tuple[tuple[int, ...], ...], n: int) -> list[dict[int, int]]:
    """Component matrix of A_uv -> m^{ku} m^{lv} A_uv on symmetric pairs,
    one sparse row per pair (k, l), for an integer matrix `mat`.  With D
    times the inverse metric this is D^2 times raising both indices; with D
    times the metric, D^2 times lowering them."""
    col = _sym_col(n)
    out: list[dict[int, int]] = []
    for k, l in sym_pairs(n):
        srow: dict[int, int] = {}
        for u, a in enumerate(mat[k - 1], 1):
            if a:
                for v, b in enumerate(mat[l - 1], 1):
                    if b:
                        c = col[u][v]
                        srow[c] = srow.get(c, 0) + a * b
        out.append(srow)
    return out


def _apply_shift(shift: list[dict[int, int]], rows: list[_IntRow]) -> list[_IntRow]:
    """The rows of shift * rows: row r is the sum of c * rows[m] over the
    entries m: c of shift[r]."""
    out: list[_IntRow] = []
    for srow in shift:
        acc: _IntRow = {}
        for m, c in srow.items():
            if c:
                _acc_row(acc, rows[m], c)
        out.append(acc)
    return out


def _constant_rows(rows: list[dict[int, int]], n: int) -> list[_IntRow]:
    one = (0,) * n
    return [{(c, one): v for c, v in row.items()} for row in rows]


def scalar_lin(metric: Metric) -> LinDiffOp:
    n = metric.n
    _, _, scal, den = _curvature_rows(n, _scaled(metric))
    return _int_op(
        f"scalar_{metric.tag}{n}", n, sym_bundle(n), scalar_bundle(f"scal({n})"),
        [scal], den,
    )


def einstein_lin(metric: Metric) -> LinDiffOp:
    """Trace-reversed Ricci with both output indices raised by the metric:
    the raising is what makes the operator equal its formal adjoint for an
    indefinite metric, where covariant components alone pick up stray
    signs.  Written out directly from the Ricci and scalar rows so the
    compose identities stay genuine checks elsewhere."""
    n = metric.n
    scaled = d, w, inv = _scaled(metric)
    ric, _, scal, _ = _curvature_rows(n, scaled)
    # R_ij - (w_ij / 2) Scal over 2 D^3: ric is over 2D and scal over D^2
    lower: list[_IntRow] = []
    for i, j in sym_pairs(n):
        row: _IntRow = {}
        _acc_row(row, ric[(i, j)], d * d)
        if w[i - 1][j - 1]:
            _acc_row(row, scal, -w[i - 1][j - 1])
        lower.append(row)
    # raising both indices multiplies the denominator by D^2
    rows = _apply_shift(_index_shift(inv, n), lower)
    return _int_op(
        f"einstein_{metric.tag}{n}", n, sym_bundle(n), sym_bundle(n, f"ein({n})"),
        rows, 2 * d**5,
    )


def c_map(metric: Metric) -> LinDiffOp:
    """Zeroth order: X -> X - (1/2) w tr X with the output indices raised;
    sends the Ricci operator to the Einstein operator."""
    n = metric.n
    scaled = d, _, inv = _scaled(metric)
    adjust, den = _trace_adjust(n, scaled, -1, 2)
    rows = _apply_shift(_index_shift(inv, n), _constant_rows(adjust, n))
    return _int_op(
        f"cmap_{metric.tag}{n}", n, sym_bundle(n), sym_bundle(n, f"adj({n})"),
        rows, den * d * d,
    )


def c_map_inverse(metric: Metric) -> LinDiffOp:
    """Inverse of c_map: lower the indices, then X -> X - 1/(n-2) w tr X.
    Needs n != 2."""
    n = metric.n
    if n == 2:
        raise ValueError("the trace adjustment is not invertible for n = 2")
    scaled = d, w, _ = _scaled(metric)
    # -1/(n-2), which is 1 for n = 1
    adjust, den = _trace_adjust(n, scaled, -1 if n > 2 else 1, abs(n - 2))
    rows = _apply_shift(adjust, _constant_rows(_index_shift(w, n), n))
    return _int_op(
        f"cmapinv_{metric.tag}{n}", n, sym_bundle(n), sym_bundle(n, f"adj({n})"),
        rows, den * d * d,
    )


def _trace_adjust(n: int, scaled: _Scaled, p: int, q: int) -> tuple[list[dict[int, int]], int]:
    """X_ij -> X_ij + (p/q) w_ij w^{uv} X_uv, for q > 0, as sparse integer
    rows over their denominator q D^2, for the metric `_scaled` gives as
    `scaled`."""
    d, w, inv = scaled
    col = _sym_col(n)
    nz = _nonzero(inv)
    rows: list[dict[int, int]] = []
    for i, j in sym_pairs(n):
        row = {col[i][j]: q * d * d}
        wij = w[i - 1][j - 1]
        if wij:
            for u, v, c in nz:
                row[col[u][v]] = row.get(col[u][v], 0) + p * wij * c
        rows.append(row)
    return rows, q * d * d


# -- Weyl ------------------------------------------------------------------------


def _weyl_component_rows(
    n: int, scaled: _Scaled, picked: list[int]
) -> tuple[list[_IntRow], int]:
    """The picked curvature-basis components of the linearized Weyl tensor:

        C = G + 1/(n-2) (w ^ Ric) - Scal/(2(n-1)(n-2)) (w ^ w)

    with G_{kl,ij} = -K_{kl,ij} / 2 (contracting G with w^{ki} returns
    minus the Ricci rows) and (h^k)_{kl,ij} = h_ki k_lj + h_lj k_ki - h_kj k_li
    - h_li k_kj.  The rows come over the denominator 2 (n-1)(n-2) D^4,
    for the metric `_scaled` gives as `scaled`."""
    d, w, _ = scaled
    ric, _, scal, _ = _curvature_rows(n, scaled)
    # the multipliers that bring G (over 2), w ^ Ric (over (n-2) 2 D^2) and
    # Scal w ^ w (over (n-1)(n-2) D^4) to the common denominator
    fg = (n - 1) * (n - 2) * d**4
    fr = (n - 1) * d * d
    pairs, riemann = RiemannBasis(n).pairs, _riemann_rows(n)
    rows = []
    for r in picked:
        (k, l), (i, j) = pairs[r]
        row: _IntRow = {}
        _acc_row(row, riemann[r], -fg)
        for sgn, (ma, mb), (ra, rb) in (
            (1, (k, i), (l, j)),
            (1, (l, j), (k, i)),
            (-1, (k, j), (l, i)),
            (-1, (l, i), (k, j)),
        ):
            wm = w[ma - 1][mb - 1]
            if wm:
                _acc_row(row, ric[(min(ra, rb), max(ra, rb))], sgn * fr * wm)
        wfac = w[k - 1][i - 1] * w[l - 1][j - 1] - w[k - 1][j - 1] * w[l - 1][i - 1]
        if wfac:
            _acc_row(row, scal, -2 * wfac)
        rows.append(row)
    return rows, 2 * (n - 1) * (n - 2) * d**4


def weyl_component_selection(metric: Metric) -> list[int]:
    """Indices of curvature-basis components that stay independent on the
    trace-free subspace, chosen greedily in basis order.

    Component r depends on the earlier ones there exactly when some
    combination of the trace rows has its last nonzero entry at r, that is
    when r leads a row of the trace rows' echelon form."""
    return _weyl_selection(metric.n, _scaled(metric)[2])


def _weyl_selection(n: int, inv: tuple[tuple[int, ...], ...]) -> list[int]:
    """weyl_component_selection for the metric in n variables whose scaled
    inverse D * w^-1 is `inv`."""
    rb = RiemannBasis(n)
    # D * w^-1 in integers: each trace row is D times the one over w^-1, a
    # multiple, so the same span
    nz = _nonzero(inv)
    ech = _Echelon()
    for l, j in sym_pairs(n):
        acc: dict[int, int] = {}
        for k, i, c in nz:
            for r, c2 in rb.resolve(k, l, i, j).items():
                acc[r] = acc.get(r, 0) + c * c2
        ech.insert({r: v for r, v in acc.items() if v})
    return [r for r in range(rb.size) if r not in ech.rows]


def weyl_lin(metric: Metric) -> LinDiffOp:
    """Linearized Weyl tensor on an independent set of trace-free
    components; defined for n >= 4 (it vanishes identically below)."""
    n = metric.n
    if n < 4:
        raise ValueError("the Weyl tensor vanishes identically for n < 4")
    rb = RiemannBasis(n)
    scaled = _scaled(metric)
    picked = _weyl_selection(n, scaled[2])
    expected = n * (n + 1) * (n + 2) * (n - 3) // 12
    if len(picked) != expected:
        raise RuntimeError(
            f"internal error: {len(picked)} independent Weyl components, "
            f"expected {expected}"
        )
    labels = rb.labels()
    tgt = Bundle(f"weyl({n})", ((labels[r], 1) for r in picked))
    rows, den = _weyl_component_rows(n, scaled, picked)
    return _int_op(f"weyl_{metric.tag}{n}", n, sym_bundle(n), tgt, rows, den)


# -- vector calculus ----------------------------------------------------------------


def grad(n: int) -> LinDiffOp:
    if n < 1:
        raise ValueError("need n >= 1")
    rows = [{(0, m): 1} for m in _d(n)[1:]]
    return _int_op(f"grad{n}", n, scalar_bundle(), vector_bundle(n), rows, 1)


def div(n: int) -> LinDiffOp:
    if n < 1:
        raise ValueError("need n >= 1")
    rows = [{(i, m): 1 for i, m in enumerate(_d(n)[1:])}]
    return _int_op(f"div{n}", n, vector_bundle(n), scalar_bundle("scalar"), rows, 1)


def curl() -> LinDiffOp:
    _, d1, d2, d3 = _d(3)
    rows = [{(1, d3): -1, (2, d2): 1}, {(0, d3): 1, (2, d1): -1}, {(0, d2): -1, (1, d1): 1}]
    return _int_op("curl3", 3, vector_bundle(3), vector_bundle(3, "vector'"), rows, 1)


def exterior_derivative(n: int, r: int) -> LinDiffOp:
    """d on r-forms with components indexed by increasing multi-indices."""
    if not 0 <= r < n:
        raise ValueError(f"need 0 <= r < n, got r={r}, n={n}")
    if n > 9:
        raise ValueError("multi-index labels only support n <= 9")
    src_sets = list(combinations(range(1, n + 1), r))
    tgt_sets = list(combinations(range(1, n + 1), r + 1))
    src = Bundle(
        f"forms{r}({n})",
        ((("".join(map(str, s)) or "0"), 1) for s in src_sets),
    )
    tgt = Bundle(
        f"forms{r + 1}({n})",
        (("".join(map(str, s)), 1) for s in tgt_sets),
    )
    src_idx = {s: c for c, s in enumerate(src_sets)}
    d1 = _d(n)
    rows = [
        {(src_idx[big[:pos] + big[pos + 1:]], d1[k]): (-1) ** pos
         for pos, k in enumerate(big)}
        for big in tgt_sets
    ]
    return _int_op(f"extd{n}_{r}", n, src, tgt, rows, 1)


def box_weyl(metric: Metric) -> LinDiffOp:
    """The dalembertian applied after the linearized Weyl tensor; the
    composite that factors through the linearized Ricci tensor."""
    w = weyl_lin(metric)
    out = compose(dalembertian(metric, w.target), w)
    return out.with_name(f"box_weyl_{metric.tag}{metric.n}")


def dalembertian(metric: Metric, bundle: Bundle | None = None) -> LinDiffOp:
    """The metric trace of second derivatives, acting componentwise."""
    n = metric.n
    if bundle is None:
        bundle = scalar_bundle()
    d, _, inv = _scaled(metric)
    dd = _dd(n)
    lap: dict[Monomial, int] = {}
    for r, s, c in _nonzero(inv):
        lap[dd[r][s]] = lap.get(dd[r][s], 0) + c
    rows = [{(i, m): c for m, c in lap.items()} for i in range(bundle.dim)]
    out_bundle = Bundle(bundle.name, bundle.components)
    return _int_op(f"box_{metric.tag}{n}", n, bundle, out_bundle, rows, d)


# -- elasticity -----------------------------------------------------------------------


def lame(lam, mu, n: int) -> LinDiffOp:
    """Elastostatics on displacement: (lam+mu) grad div + mu laplacian."""
    if n < 1:
        raise ValueError("need n >= 1")
    from fractions import Fraction

    lam, mu = Fraction(lam), Fraction(mu)
    if mu == 0:
        raise ValueError("mu must be nonzero")
    (a, b), den = _over_lcm(lam + mu, mu)
    dd = _dd(n)
    rows = []
    for i in range(1, n + 1):
        row: _IntRow = {(j - 1, dd[i][j]): a for j in range(1, n + 1)}
        for u in range(1, n + 1):
            _acc(row, i - 1, dd[u][u], b)
        rows.append(row)
    return _int_op(f"lame{n}", n, vector_bundle(n), vector_bundle(n, "force"), rows, den)


def hooke2d(lam, mu) -> LinDiffOp:
    """Plane stress-strain law: sigma = (lam/2) tr(O) w + mu O, n = 2."""
    from fractions import Fraction

    lam, mu = Fraction(lam), Fraction(mu)
    if mu == 0 or lam + mu == 0:
        raise ValueError("need mu != 0 and lam + mu != 0")
    c = lam / 2
    return _plane_law("hooke2d", "strain", "stress", c + mu, mu, c)


def hooke2d_inverse(lam, mu) -> LinDiffOp:
    """Strain from stress: mu O = sigma - lam/(2(lam+mu)) tr(sigma) w."""
    from fractions import Fraction

    lam, mu = Fraction(lam), Fraction(mu)
    if mu == 0 or lam + mu == 0:
        raise ValueError("need mu != 0 and lam + mu != 0")
    c = lam / (2 * (lam + mu))
    return _plane_law("hooke2d_inv", "stress", "strain", (1 - c) / mu, 1 / mu, -c / mu)


def _over_lcm(*values: Fraction) -> tuple[list[int], int]:
    """The values as integer numerators over their least common denominator."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _plane_law(name: str, source: str, target: str,
               diag: Fraction, shear: Fraction, cross: Fraction) -> LinDiffOp:
    """The constant operator [[diag, 0, cross], [0, shear, 0], [cross, 0,
    diag]] between symmetric 2-tensors in the plane."""
    (p, m, q), den = _over_lcm(diag, shear, cross)
    rows = _constant_rows([{0: p, 2: q}, {1: m}, {0: q, 2: p}], 2)
    return _int_op(name, 2, sym_bundle(2, source), sym_bundle(2, target), rows, den)


# -- planar Cosserat media --------------------------------------------------------


# the first jets of (u1, u2, r): the target of the Spencer operator and the potentials
_COSSERAT_JETS = Bundle("jets", ((c, 1) for c in ("11", "12", "21", "22", "r1", "r2")))


def cosserat_spencer() -> LinDiffOp:
    """First Spencer operator of the planar Cosserat group action, on
    (u1, u2, r): the six first-jet components, the rows [d1, 0, 0],
    [d2, 0, -1], [0, d1, 1], [0, d2, 0], [0, 0, d1] and [0, 0, d2]."""
    one, d1, d2 = (0, 0), (1, 0), (0, 1)
    rows = [{(0, d1): 1}, {(0, d2): 1, (2, one): -1}, {(1, d1): 1, (2, one): 1},
            {(1, d2): 1}, {(2, d1): 1}, {(2, d2): 1}]
    src = Bundle("displacement+rotation", (("u1", 1), ("u2", 1), ("r", 1)))
    return _int_op("cosserat_spencer", 2, src, _COSSERAT_JETS, rows, 1)


def cosserat_equilibrium() -> LinDiffOp:
    """Force and couple balance on (stress, couple stress); minus the
    adjoint of the Spencer operator."""
    return _times(adjoint(cosserat_spencer()), -1, 1, "cosserat_equilibrium")


def cosserat_parametrization() -> LinDiffOp:
    """Airy-type potentials for the planar Cosserat equilibrium, the rows
    [d2, 0, 0], [-d1, 0, 0], [0, -d2, 0], [0, d1, 0], [1, 0, d2] and
    [0, -1, -d1]."""
    one, d1, d2 = (0, 0), (1, 0), (0, 1)
    rows = [{(0, d2): 1}, {(0, d1): -1}, {(1, d2): -1}, {(1, d1): 1},
            {(0, one): 1, (2, d2): 1}, {(1, one): -1, (2, d1): -1}]
    src = Bundle("potentials", (("p1", 1), ("p2", 1), ("p3", 1)))
    return _int_op("cosserat_parametrization", 2, src, _COSSERAT_JETS, rows, 1)


class Cosserat2D(NamedTuple):
    """The planar Cosserat triple: jet operator, its balance equations,
    and potentials for the latter."""

    spencer_D1: LinDiffOp
    equilibrium: LinDiffOp
    parametrization: LinDiffOp


def cosserat2d() -> Cosserat2D:
    return Cosserat2D(
        spencer_D1=cosserat_spencer(),
        equilibrium=cosserat_equilibrium(),
        parametrization=cosserat_parametrization(),
    )


# -- dimension bookkeeping -----------------------------------------------------------


class DimTable(NamedTuple):
    """Closed-form dimension counts used across the examples."""

    n: int

    @property
    def f1(self) -> int:
        n = self.n
        return n * n * (n * n - 1) // 12

    @property
    def f1hat(self) -> int:
        n = self.n
        return n * (n + 1) * (n + 2) * (n - 3) // 12

    @property
    def group_isometry(self) -> int:
        return self.n * (self.n + 1) // 2

    @property
    def group_homothety(self) -> int:
        return self.group_isometry + 1

    @property
    def group_conformal(self) -> int:
        return (self.n + 1) * (self.n + 2) // 2

    def jet_dim(self, m: int, q: int) -> int:
        return m * comb(self.n + q, self.n)

    def sym_dim(self, q: int, m: int = 1) -> int:
        return m * comb(self.n + q - 1, self.n - 1)

    def spencer_full_dim(self, r: int, q: int, m: int) -> int:
        n = self.n
        total = comb(n, r) * self.jet_dim(m, q)
        for i in range(1, r + 1):
            total += (-1) ** i * comb(n, r - i) * self.sym_dim(q + i, m)
        return total


def dims(n: int) -> DimTable:
    return DimTable(n)


def diagram1_table() -> dict:
    """Spencer/Janet dimension split for the three planar geometric group
    actions at jet order 3 on two unknowns; the rows of each group sum
    columnwise to the full complex."""
    full = (20, 30, 12)
    groups = [
        {"name": "isometry", "dim": 3, "spencer": (3, 6, 3), "janet": (17, 24, 9)},
        {"name": "homothety", "dim": 4, "spencer": (4, 8, 4), "janet": (16, 22, 8)},
        {"name": "conformal", "dim": 6, "spencer": (6, 12, 6), "janet": (14, 18, 6)},
    ]
    return {"n": 2, "unknowns": 2, "jet_order": 3, "full": full, "groups": groups}


# -- registry for the command line ----------------------------------------------------


class ZooEntry(NamedTuple):
    needs_metric: bool = False
    needs_n: bool = False
    needs_lame: bool = False
    needs_r: bool = False
    fixed_n: int | None = None
    summary: str = ""


ZOO = {
    "killing": ZooEntry(needs_metric=True, summary="Lie derivative of the metric"),
    "conformal_killing": ZooEntry(needs_metric=True,
                                  summary="trace-free Killing operator"),
    "cauchy": ZooEntry(needs_metric=True, summary="symmetrized gradient"),
    "weyl_killing": ZooEntry(needs_metric=True,
                             summary="conformal Killing plus trace gradient"),
    "riemann": ZooEntry(needs_metric=True, summary="linearized curvature tensor"),
    "ricci": ZooEntry(needs_metric=True, summary="linearized Ricci tensor"),
    "scalar": ZooEntry(needs_metric=True, summary="linearized scalar curvature"),
    "einstein": ZooEntry(needs_metric=True, summary="linearized Einstein tensor"),
    "c_map": ZooEntry(needs_metric=True, summary="trace flip: Ricci to Einstein"),
    "c_map_inverse": ZooEntry(needs_metric=True,
                              summary="trace flip back: Einstein to Ricci"),
    "weyl": ZooEntry(needs_metric=True, summary="linearized Weyl tensor (n >= 4)"),
    "dalembertian": ZooEntry(needs_metric=True,
                             summary="metric second-order trace on scalars"),
    "box_weyl": ZooEntry(needs_metric=True,
                         summary="dalembertian after the linearized Weyl tensor"),
    "grad": ZooEntry(needs_n=True, summary="gradient"),
    "div": ZooEntry(needs_n=True, summary="divergence"),
    "curl": ZooEntry(fixed_n=3, summary="curl in three variables"),
    "exterior_derivative": ZooEntry(needs_n=True, needs_r=True,
                                    summary="d on r-forms"),
    "lame": ZooEntry(needs_n=True, needs_lame=True,
                     summary="elastostatics operator"),
    "hooke2d": ZooEntry(needs_lame=True, fixed_n=2,
                        summary="plane stress-strain law"),
    "hooke2d_inverse": ZooEntry(needs_lame=True, fixed_n=2,
                                summary="plane strain from stress"),
    "cosserat_spencer": ZooEntry(fixed_n=2,
                                 summary="planar Cosserat first Spencer operator"),
    "cosserat_equilibrium": ZooEntry(fixed_n=2,
                                     summary="planar Cosserat balance equations"),
    "cosserat_parametrization": ZooEntry(fixed_n=2,
                                         summary="potentials for Cosserat balance"),
}


# the ZOO keys whose constructor has another name
_BUILDERS = {"riemann": "riemann_lin", "ricci": "ricci_lin", "scalar": "scalar_lin",
             "einstein": "einstein_lin", "weyl": "weyl_lin"}


def build(name: str, *, n: int | None = None, metric: str = "euclidean",
          lam=1, mu=1, r: int = 0) -> LinDiffOp:
    """Construct a zoo operator by name; the CLI calls straight into this.

    The constructor is looked up in the module namespace at each call, so a
    rebound module attribute (a wrapper, a patch) is the one called."""
    entry = ZOO.get(name)
    if entry is None:
        raise KeyError(f"unknown zoo operator {name!r}")
    if (entry.needs_metric or entry.needs_n) and n is None:
        raise ValueError(f"{name} needs --n")
    # no operator document holds more variables
    if n is not None and n > MAX_NVARS:
        raise ValueError(f"--n {n} exceeds the largest variable count {MAX_NVARS}")
    args, kwargs = (), {}
    if entry.needs_metric:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}")
        args = (METRICS[metric](n),)
    if entry.needs_n:
        kwargs["n"] = n
    if entry.needs_lame:
        kwargs.update(lam=lam, mu=mu)
    if entry.needs_r:
        kwargs["r"] = r
    return globals()[_BUILDERS.get(name, name)](*args, **kwargs)

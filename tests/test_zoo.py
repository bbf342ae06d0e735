"""The operator zoo: metrics, bundles, curvature chain, elasticity, forms."""

import hashlib
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import example, given, strategies as st

from dgcalc import zoo
from dgcalc.engine import module_equal
from dgcalc.operators import adjoint, cc, compose, is_self_adjoint, scale
from dgcalc.poly import serialize


# -- metrics --------------------------------------------------------------------


def test_metric_tables():
    e3 = zoo.euclidean(3)
    assert e3.n == 3 and e3.tag == "e"
    assert e3.matrix == tuple(
        tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)
    )
    m4 = zoo.minkowski(4)
    assert m4.tag == "m"
    assert m4[4, 4] == -1
    assert m4[1, 1] == 1
    assert m4[1, 2] == 0
    assert m4.inverse == m4.matrix
    assert e3.inverse[1][1] == 1
    with pytest.raises(ValueError):
        zoo.euclidean(0)
    with pytest.raises(ValueError):
        zoo.minkowski(1)


# -- bundles --------------------------------------------------------------------


def test_symmetric_bundle_layout():
    assert zoo.sym_pairs(3) == [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
    b = zoo.sym_bundle(3)
    assert b.labels == ("11", "12", "13", "22", "23", "33")
    assert b.weights == (1, 2, 2, 1, 2, 1)
    assert zoo.vector_bundle(4).dim == 4
    assert zoo.scalar_bundle().dim == 1


@pytest.mark.parametrize("n, expect", [(2, 1), (3, 6), (4, 20), (5, 50), (6, 105)])
def test_curvature_bundle_dimension(n, expect):
    assert zoo.riemann_bundle(n, "F1").dim == expect
    assert zoo.dims(n).f1 == expect


@pytest.mark.parametrize("n, expect", [(3, 0), (4, 10), (5, 35)])
def test_trace_free_curvature_dimension(n, expect):
    assert zoo.dims(n).f1hat == expect


# -- first-order geometry ---------------------------------------------------------


def test_killing_in_the_plane():
    k = zoo.killing(zoo.euclidean(2))
    assert k.entry_strs() == [["2*d1", "0"], ["d2", "d1"], ["0", "2*d2"]]
    assert k.source.labels == ("1", "2")
    assert k.target.labels == ("11", "12", "22")


def test_stress_divergence_is_minus_half_the_adjoint():
    for g in (zoo.euclidean(2), zoo.euclidean(3), zoo.minkowski(4)):
        assert zoo.cauchy(g) == scale(adjoint(zoo.killing(g)), Fraction(-1, 2))
    assert zoo.cauchy(zoo.euclidean(2)).entry_strs() == [
        ["d1", "d2", "0"],
        ["0", "d1", "d2"],
    ]
    assert zoo.cauchy(zoo.euclidean(3)).entry_strs()[0] == [
        "d1", "d2", "d3", "0", "0", "0",
    ]


def test_conformal_killing_shapes():
    assert len(zoo.conformal_killing(zoo.euclidean(3)).matrix) == 5
    wk = zoo.weyl_killing(zoo.euclidean(3))
    assert len(wk.matrix) == 8
    assert wk.source.dim == 3


# -- the curvature chain ------------------------------------------------------------


@pytest.mark.parametrize("g", [
    zoo.euclidean(2), zoo.euclidean(3), zoo.minkowski(3),
])
def test_curvature_rows_are_the_killing_conditions(g):
    assert module_equal(
        zoo.riemann_lin(g).rows(), cc(zoo.killing(g)).rows()
    )


@pytest.mark.parametrize("g", [zoo.euclidean(3), zoo.minkowski(4)])
def test_curvature_operators_annihilate_infinitesimal_motions(g):
    k = zoo.killing(g)
    for op in (zoo.riemann_lin(g), zoo.ricci_lin(g), zoo.scalar_lin(g),
               zoo.einstein_lin(g)):
        assert compose(op, k).is_zero()
    if g.n >= 4:
        assert compose(zoo.weyl_lin(g), k).is_zero()


@pytest.mark.parametrize("g", [zoo.euclidean(3), zoo.minkowski(4)])
def test_trace_adjusted_curvature_is_self_adjoint(g):
    assert is_self_adjoint(zoo.einstein_lin(g))
    assert not is_self_adjoint(zoo.ricci_lin(g))


@pytest.mark.parametrize("g", [zoo.euclidean(3), zoo.minkowski(4)])
def test_trace_flip_relates_the_two_curvatures(g):
    assert compose(zoo.c_map(g), zoo.ricci_lin(g)) == zoo.einstein_lin(g)
    back = compose(zoo.c_map_inverse(g), zoo.c_map(g))
    k = g.n * (g.n + 1) // 2
    assert back.entry_strs() == [
        ["1" if i == j else "0" for j in range(k)] for i in range(k)
    ]


def test_trace_flip_has_no_inverse_in_the_plane():
    with pytest.raises(ValueError):
        zoo.c_map_inverse(zoo.euclidean(2))


def test_weyl_component_selection_is_pinned():
    first_ten = list(range(10))
    assert zoo.weyl_component_selection(zoo.euclidean(4)) == first_ten
    assert zoo.weyl_component_selection(zoo.minkowski(4)) == first_ten
    assert zoo.weyl_component_selection(zoo.euclidean(5)) == (
        list(range(25)) + list(range(30, 40))
    )


@pytest.mark.parametrize("g", [
    zoo.euclidean(4), zoo.euclidean(5), zoo.euclidean(6), zoo.minkowski(4),
    zoo.minkowski(5),
], ids=lambda g: f"{g.tag}{g.n}")
def test_weyl_selection_counts_the_weyl_target(g):
    # the report's trace-free size check reads the selection, not the operator
    picked = zoo.weyl_component_selection(g)
    assert len(picked) == zoo.weyl_lin(g).target.dim == zoo.dims(g.n).f1hat


def test_weyl_shapes_and_wave_composite():
    w = zoo.weyl_lin(zoo.minkowski(4))
    assert len(w.matrix) == 10
    assert w.source.dim == 10
    bw = zoo.box_weyl(zoo.minkowski(4))
    assert bw.name == "box_weyl_m4"
    assert len(bw.matrix) == 10 and bw.source.dim == 10
    assert bw.order() == 4
    assert zoo.dalembertian(zoo.minkowski(4)).entry_strs() == [
        ["d1^2 + d2^2 + d3^2 - d4^2"]
    ]


# -- vector calculus and forms --------------------------------------------------------


def test_gradient_divergence_curl_complexes():
    assert zoo.div(3).entry_strs() == [["d1", "d2", "d3"]]
    assert compose(zoo.div(3), zoo.curl()).is_zero()
    assert compose(zoo.curl(), zoo.grad(3)).is_zero()
    assert zoo.exterior_derivative(3, 0).matrix == zoo.grad(3).matrix


@pytest.mark.parametrize("n, r", [(3, 0), (3, 1), (4, 0), (4, 1), (4, 2)])
def test_form_derivative_squares_to_zero(n, r):
    inner = zoo.exterior_derivative(n, r)
    assert len(inner.matrix) == comb(n, r + 1)
    assert inner.source.dim == comb(n, r)
    if r + 1 < n:
        outer = zoo.exterior_derivative(n, r + 1)
        assert compose(outer, inner).is_zero()


@pytest.mark.parametrize("n, r", [(3, 0), (3, 1), (4, 1)])
def test_form_conditions_are_the_next_derivative(n, r):
    assert module_equal(
        cc(zoo.exterior_derivative(n, r)).rows(),
        zoo.exterior_derivative(n, r + 1).rows(),
    )


def test_form_degree_bounds():
    with pytest.raises(ValueError):
        zoo.exterior_derivative(3, 3)
    with pytest.raises(ValueError):
        zoo.exterior_derivative(3, -1)


# -- elasticity -------------------------------------------------------------------------


def test_elastostatics_display_and_symmetry():
    op = zoo.lame(1, 1, 2)
    assert op.entry_strs() == [
        ["3*d1^2 + d2^2", "2*d1*d2"],
        ["2*d1*d2", "d1^2 + 3*d2^2"],
    ]
    assert is_self_adjoint(op)
    assert is_self_adjoint(zoo.lame(Fraction(5, 2), 1, 3))
    with pytest.raises(ValueError):
        zoo.lame(1, 0, 2)


def test_plane_stress_law_inverts():
    prod = compose(zoo.hooke2d(1, 1), zoo.hooke2d_inverse(1, 1))
    assert prod.entry_strs() == [
        ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"],
    ]
    prod2 = compose(
        zoo.hooke2d_inverse(2, Fraction(1, 3)), zoo.hooke2d(2, Fraction(1, 3))
    )
    assert prod2.entry_strs() == [
        ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"],
    ]


def test_biharmonic_identity_at_unit_moduli():
    r = zoo.riemann_lin(zoo.euclidean(2))
    out = compose(r, compose(zoo.hooke2d_inverse(1, 1), adjoint(r)))
    assert out.entry_strs() == [["3/4*d1^4 + 3/2*d1^2*d2^2 + 3/4*d2^4"]]


# -- planar Cosserat ---------------------------------------------------------------------


def test_cosserat_displays():
    sp = zoo.cosserat_spencer()
    assert sp.entry_strs() == [
        ["d1", "0", "0"],
        ["d2", "0", "-1"],
        ["0", "d1", "1"],
        ["0", "d2", "0"],
        ["0", "0", "d1"],
        ["0", "0", "d2"],
    ]
    eq = zoo.cosserat_equilibrium()
    assert eq == scale(adjoint(sp), -1)
    assert eq.entry_strs() == [
        ["d1", "d2", "0", "0", "0", "0"],
        ["0", "0", "d1", "d2", "0", "0"],
        ["0", "1", "-1", "0", "d1", "d2"],
    ]
    par = zoo.cosserat_parametrization()
    assert compose(eq, par).is_zero()


def test_cosserat_record_bundles_the_triple():
    rec = zoo.cosserat2d()
    assert rec.spencer_D1 == zoo.cosserat_spencer()
    assert rec.equilibrium == zoo.cosserat_equilibrium()
    assert rec.parametrization == zoo.cosserat_parametrization()


# -- dimension bookkeeping ----------------------------------------------------------------


def test_group_dimensions_in_the_plane():
    t = zoo.dims(2)
    assert t.group_isometry == 3
    assert t.group_homothety == 4
    assert t.group_conformal == 6
    assert zoo.dims(4).group_isometry == 10


def test_jet_complex_split():
    table = zoo.diagram1_table()
    assert table["full"] == (20, 30, 12)
    t = zoo.dims(2)
    assert tuple(t.spencer_full_dim(r, 3, 2) for r in range(3)) == (20, 30, 12)
    for group in table["groups"]:
        for s, j, f in zip(group["spencer"], group["janet"], table["full"]):
            assert s + j == f
    names = [g["name"] for g in table["groups"]]
    assert names == ["isometry", "homothety", "conformal"]
    assert [g["dim"] for g in table["groups"]] == [3, 4, 6]


# -- registry -------------------------------------------------------------------------------


def test_registry_builds_match_direct_constructors():
    assert zoo.build("killing", n=2) == zoo.killing(zoo.euclidean(2))
    assert (
        zoo.build("einstein", n=4, metric="minkowski")
        == zoo.einstein_lin(zoo.minkowski(4))
    )
    assert zoo.build("curl") == zoo.curl()
    assert zoo.build("grad", n=3) == zoo.grad(3)
    assert zoo.build("exterior_derivative", n=4, r=1) == zoo.exterior_derivative(4, 1)
    assert zoo.build("lame", n=2, lam=1, mu=1) == zoo.lame(1, 1, 2)
    assert zoo.build("hooke2d", lam=2, mu=3) == zoo.hooke2d(2, 3)
    assert zoo.build("cosserat_equilibrium") == zoo.cosserat_equilibrium()


def test_registry_error_cases():
    with pytest.raises(KeyError):
        zoo.build("nonsense")
    with pytest.raises(ValueError):
        zoo.build("killing")
    with pytest.raises(ValueError):
        zoo.build("killing", n=3, metric="hyperbolic")


def test_registry_covers_every_entry():
    assert len(zoo.ZOO) == 23
    for name, entry in zoo.ZOO.items():
        assert entry.summary
        op = zoo.build(
            name,
            n=4 if entry.needs_metric or entry.needs_n else None,
            metric="minkowski" if entry.needs_metric else "euclidean",
            r=1,
        )
        assert op.nvars >= 1
        assert not all(p.is_zero() for row in op.matrix for p in row)


# -- the integer metric inverse ----------------------------------------------------------


def _fraction_inverse(matrix):
    """Gauss-Jordan over Fraction, the reference for the integer _scaled;
    None for a degenerate matrix."""
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c]), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


@st.composite
def symmetric_matrices(draw):
    entry = st.one_of(
        st.integers(-3, 3),
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
    )
    n = draw(st.integers(1, 4))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(entry)
    return tuple(map(tuple, m))


def _check_scaled(metric):
    inv = _fraction_inverse(metric.matrix)
    if inv is None:
        with pytest.raises(ValueError, match="metric is degenerate"):
            zoo._scaled(metric)
        return
    mats = (metric.matrix, inv)
    d = lcm(*(Fraction(c).denominator for mat in mats for row in mat for c in row))
    assert zoo._scaled(metric) == (d,) + tuple(
        tuple(tuple(int(c * d) for c in row) for row in mat) for mat in mats
    )
    assert metric.inverse == tuple(map(tuple, inv))


@given(symmetric_matrices())
@example(((0, 1), (1, 0)))
@example(((1, 2), (2, 4)))
@example(((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(-1, 2))))
def test_integer_inverse_matches_fraction_gauss_jordan(matrix):
    _check_scaled(zoo.Metric("h", "h", len(matrix), matrix))


# -- byte pin of every metric builder --------------------------------------------------


_METRIC_BUILDERS = {
    "killing": zoo.killing,
    "conformal_killing": zoo.conformal_killing,
    "cauchy": zoo.cauchy,
    "weyl_killing": zoo.weyl_killing,
    "riemann": zoo.riemann_lin,
    "ricci": zoo.ricci_lin,
    "scalar": zoo.scalar_lin,
    "einstein": zoo.einstein_lin,
    "c_map": zoo.c_map,
    "c_map_inverse": zoo.c_map_inverse,
    "weyl": zoo.weyl_lin,
    "dalembertian": zoo.dalembertian,
    "box_weyl": zoo.box_weyl,
}


def _pin_metrics() -> list:
    # a rational, non-diagonal, indefinite metric next to the standard ones
    rows = [[2, 1, 0, 0], [1, 3, 0, 0], [0, 0, Fraction(1, 5), 0], [0, 0, 0, -1]]
    custom = zoo.Metric(
        "custom", "c", 4, tuple(tuple(Fraction(x) for x in r) for r in rows)
    )
    return (
        [zoo.euclidean(n) for n in range(2, 7)]
        + [zoo.minkowski(n) for n in range(2, 6)]
        + [custom]
    )


def test_integer_inverse_of_the_pinned_metrics():
    for g in _pin_metrics():
        _check_scaled(g)


@pytest.mark.parametrize("g", [zoo.minkowski(4), _pin_metrics()[-1]])
def test_inverse_entries_read_the_inverse(g):
    # the 1-indexed entries g[i, j] times the rows of `inverse` give the identity
    inv, idx = g.inverse, range(1, g.n + 1)
    assert all(type(c) is Fraction for row in inv for c in row)
    assert all(
        sum(g[i, k] * inv[k - 1][j - 1] for k in idx) == (i == j) for i in idx for j in idx
    )


def _bundle_text(b) -> str:
    return " ".join(f"{lbl}:{w}" for lbl, w in b.components)


def _operator_text(op) -> str:
    lines = [_bundle_text(op.source), _bundle_text(op.target)]
    lines += ["\t".join(row) for row in op.entry_strs()]
    return "\n".join(lines)


# sha256 per builder of its operators on the metrics of _pin_metrics, in
# order, blank-line separated; a metric the builder rejects contributes the
# ValueError's message instead
_ZOO_DIGESTS = {
    "killing": "5f182d91a0c1da19c3fba0acfce3f7e147176bdc46d84aa61072fc3f55bf9066",
    "conformal_killing": "3cbadd199b69993690fadeae3e0f99aa43b25fddb0e73d004d32707a1fae5cf9",
    "cauchy": "10ac4ba619970106315f4e476d103820e2b6cdb9f1ae9dda62c6d95f61e57443",
    "weyl_killing": "edda1649a0e25792bfdf903ed2ac4eabb8d0a9aa7e6258838db1d9067a65c7d9",
    "riemann": "3de36c111be5dd119a68ec417501b8d4949ccec7f6ee284f8748e68942beb203",
    "ricci": "b83aaddfcd1888dc4e5ba4074b256c93b58c47b014204046926f8020a7d17a2f",
    "scalar": "86b52e41cd0e4b049b28fdaff5a06337c38123949bdbe92b91e79a66527851a8",
    "einstein": "8f8875d5304346d85fccddc6a841379b3e5cf6eaa8961c265b5022fbb60490aa",
    "c_map": "1a60f0bb2dc41a2d14f97da9867a02634a4d210f8119e900e6eac1398a1a3307",
    "c_map_inverse": "773dafb132e58b7c0789fc1ccda2f23a2a3d44f488c0a6fc2163228f589f19bf",
    "weyl": "69151a2f92a2c4240f78b6e8a06a08785649446f641b9fcc6931e3b48e89e046",
    "dalembertian": "55083f1f5b3fecc6081bad10310517ee22361ccdd0edc6c94124634551298d45",
    "box_weyl": "b5064989f4040d1e3d1960e703b8ae5210e33f76a1d35a0aebf8f75d236ae904",
}


def test_metric_zoo_bytes_are_pinned():
    assert set(_METRIC_BUILDERS) == {k for k, e in zoo.ZOO.items() if e.needs_metric}
    digests = {}
    for name, fn in _METRIC_BUILDERS.items():
        parts = []
        for g in _pin_metrics():
            try:
                parts.append(_operator_text(fn(g)))
            except ValueError as exc:
                parts.append(f"ValueError: {exc}")
        digests[name] = hashlib.sha256("\n\n".join(parts).encode()).hexdigest()
    assert digests == _ZOO_DIGESTS


def test_metric_zoo_cells_are_written_from_the_rows():
    # the builders behind _ZOO_DIGESTS make rows; their text is the text
    # of the Polys the matrix view holds
    for name, fn in _METRIC_BUILDERS.items():
        for g in _pin_metrics():
            try:
                op = fn(g)
            except ValueError:
                continue
            cells = [[serialize(p) for p in row] for row in op.matrix]
            assert op.entry_strs() == cells, (name, g.tag, g.n)


# -- byte pin of the other builders ----------------------------------------------------


# moduli (lam, mu) for the elasticity builders: integers, fractions and
# strings; (0, 1) and (-2, 1) make entries of the plane laws vanish and
# (-1, 1) the grad div term of `lame`; the plane laws reject (-1, 1) and
# (-3, 3), and every elasticity builder rejects (1, 0)
_MODULI = [
    (1, 1), (2, 3), (Fraction(5, 2), 1), (Fraction(1, 3), Fraction(-2, 7)),
    (0, 1), (-1, 1), (-2, 1), (-3, 3), ("3/4", "-1/6"), (1, 0),
]


def _other_builds() -> dict[str, list[tuple]]:
    """The argument tuples each non-metric builder is pinned over, rejected
    ones included."""
    return {
        "grad": [(n,) for n in range(0, 6)],
        "div": [(n,) for n in range(0, 6)],
        "curl": [()],
        "exterior_derivative": [(n, r) for n in range(1, 7) for r in range(-1, n + 1)]
        + [(10, 0)],
        "lame": [(lam, mu, n) for n in range(0, 5) for lam, mu in _MODULI],
        "hooke2d": list(_MODULI),
        "hooke2d_inverse": list(_MODULI),
        "cosserat_spencer": [()],
        "cosserat_equilibrium": [()],
        "cosserat_parametrization": [()],
    }


# sha256 per builder of its operators (name and nvars, then the text that
# _ZOO_DIGESTS hashes) over the argument tuples of _other_builds, in order,
# blank-line separated; a rejected tuple contributes the ValueError's message
_OTHER_ZOO_DIGESTS = {
    "grad": "6dcd726a765a4f6bc0bcc2106d8162e900197193ed8b3f8995cb9157bd40dcaf",
    "div": "cfe26042bc3c87600862d2176000ecf3ff8e5e3296c2f17d89e6083583a2f6c6",
    "curl": "1071f68dbc407a7dc21d5d6a054030ead61e6243cc1833ca0c738a5ca94bbdcf",
    "exterior_derivative": "8b4848f2cf760258034ea6e0778a43fd0fa8bdcae18fac8e851e877c9fb25e4c",
    "lame": "d7cf9fa6604cb888eec1c06bff9fba1b3c8eda31371bc8bf59a4dc8a5ad73aa5",
    "hooke2d": "4883e64ef9d62f5ac63b639c579c15358104ae324e8de7431c8f4a25c1816caa",
    "hooke2d_inverse": "53773fecdcae899bd702e8ce86e9814211c2c3773c5584c6620ccdc2e33711b6",
    "cosserat_spencer": "0d1bd2d132c846033e5bd978854946ca5553a2de1c5a42c0f5ae49bfa11fc360",
    "cosserat_equilibrium": "bf108119ecbb507ce0b20e524e984d3d67d970b22011ee25fbb9eb76198c8823",
    "cosserat_parametrization": "45c49e62b3915d31b81c49469d7612d9f6daf2b555531e648066a1bf9bd4ce5b",
}


def test_other_zoo_bytes_are_pinned():
    digests = {}
    for name, arglist in _other_builds().items():
        parts = []
        for args in arglist:
            try:
                op = getattr(zoo, name)(*args)
            except ValueError as exc:
                parts.append(f"ValueError: {exc}")
                continue
            parts.append(f"{op.name} {op.nvars}\n{_operator_text(op)}")
        digests[name] = hashlib.sha256("\n\n".join(parts).encode()).hexdigest()
    assert digests == _OTHER_ZOO_DIGESTS


def test_zoo_builds_rows_without_the_poly_matrix():
    # every zoo entry is built as rows; the Poly view waits for a reader
    for name, entry in zoo.ZOO.items():
        op = zoo.build(
            name,
            n=4 if entry.needs_metric or entry.needs_n else None,
            metric="minkowski" if entry.needs_metric else "euclidean",
            lam=Fraction(3, 2), mu=-2, r=1,
        )
        assert op._matrix is None, name

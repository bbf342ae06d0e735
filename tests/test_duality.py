"""Double-duality parametrizability test, torsion witnesses, Ext modules."""

import hashlib

import pytest

from dgcalc import zoo
from dgcalc.duality import (
    TorsionWitnessError,
    ext_module,
    minimal_parametrization,
    param_test,
)
from dgcalc.engine import (
    BudgetExceeded,
    FreeElem,
    module_contains,
    module_equal,
    reduced_groebner,
)
from dgcalc.operators import (
    Bundle,
    LinDiffOp,
    adjoint,
    cc,
    compose,
    image_module_equal,
    operator_json,
)
from dgcalc.poly import serialize


def test_divergence_is_parametrized_by_the_curl():
    rep = param_test(zoo.div(3))
    assert rep.parametrizable
    assert rep.ext1_zero
    assert rep.ext2_zero
    assert compose(zoo.div(3), rep.parametrization).is_zero()
    assert image_module_equal(rep.parametrization, zoo.curl())
    assert rep.torsion == ()
    assert module_equal(rep.recomputed_cc.rows(), zoo.div(3).rows())


def test_divergence_minimal_parametrization_has_two_potentials():
    mp = minimal_parametrization(zoo.div(3))
    assert mp.source.dim == 2
    assert compose(zoo.div(3), mp).is_zero()
    assert mp.entry_strs() == [["d3", "0"], ["0", "d3"], ["-d1", "-d2"]]
    assert image_module_equal(
        mp, minimal_parametrization(zoo.div(3))
    )


def test_plane_rigid_motions_leave_torsion():
    rep = param_test(zoo.killing(zoo.euclidean(2)))
    assert not rep.parametrizable
    assert not rep.ext1_zero
    assert rep.ext2_zero
    assert rep.potentials == 1
    witnessed = {
        (str(t.row), t.order, serialize(t.annihilator)) for t in rep.torsion
    }
    assert witnessed == {("(0, 1)", 0, "d2"), ("(1, 0)", 0, "d1")}


def test_torsion_annihilators_actually_annihilate():
    for op in (zoo.killing(zoo.euclidean(2)),
               zoo.einstein_lin(zoo.minkowski(4))):
        rep = param_test(op, with_ext2=False)
        rows = op.rows()
        assert rep.torsion
        for t in rep.torsion:
            killed = FreeElem([t.annihilator * p for p in t.row.entries])
            assert not module_contains(rows, t.row)
            assert module_contains(rows, killed)


def test_torsion_witness_search_can_be_exhausted():
    with pytest.raises(TorsionWitnessError):
        param_test(zoo.killing(zoo.euclidean(2)), witness_degree=0)


def _report_texts(rep):
    """Every field of a ParamReport as text: each operator by its name and
    document, each torsion generator with its order and witness."""
    return [
        (v.name, operator_json(v)) if isinstance(v, LinDiffOp)
        else [str(t) for t in v] if isinstance(v, tuple)
        else v
        for v in rep
    ]


@pytest.mark.parametrize("build", [
    lambda: zoo.einstein_lin(zoo.minkowski(4)),
    lambda: zoo.killing(zoo.euclidean(4)),
    lambda: zoo.weyl_killing(zoo.euclidean(3)),
], ids=["einstein-m4", "killing-e4", "weyl_killing-e3"])
def test_a_warm_param_test_reads_what_the_cold_one_kept(build, clear_engine_caches):
    op = build()
    clear_engine_caches()
    cold = _report_texts(param_test(op))
    # the memos, the kept adjoint and the kept witnesses all warm
    assert _report_texts(param_test(op)) == cold
    # the memos emptied, the adjoint still kept with the operator
    clear_engine_caches()
    assert _report_texts(param_test(op)) == cold


def test_a_warm_param_test_still_raises(clear_engine_caches, monkeypatch):
    op = zoo.einstein_lin(zoo.minkowski(4))
    clear_engine_caches()
    torsion = param_test(op).torsion
    # the kept witnesses have degree 2: each read compares them with the cap
    with pytest.raises(TorsionWitnessError):
        param_test(op, witness_degree=1)
    assert param_test(op, witness_degree=2).torsion == torsion
    # and no kept result crosses into a lower degree budget
    monkeypatch.setenv("DGCALC_BUDGET_DEGREE", "1")
    with pytest.raises(BudgetExceeded):
        param_test(op)


def _count_work(monkeypatch):
    """[reduce_full calls, Buchberger runs], counted from here on."""
    from dgcalc import engine

    work = [0, 0]
    reduce_full, run = engine._Reducer.reduce_full, engine._Run.run

    def counted_reduce_full(self, *args, **kwargs):
        work[0] += 1
        return reduce_full(self, *args, **kwargs)

    def counted_run(self):
        work[1] += 1
        return run(self)

    monkeypatch.setattr(engine._Reducer, "reduce_full", counted_reduce_full)
    monkeypatch.setattr(engine._Run, "run", counted_run)
    return work


@pytest.mark.parametrize("build", [
    lambda: zoo.einstein_lin(zoo.minkowski(4)),
    lambda: zoo.killing(zoo.euclidean(4)),
    lambda: zoo.weyl_killing(zoo.euclidean(3)),
], ids=["einstein-m4", "killing-e4", "weyl_killing-e3"])
def test_warm_double_duality_queries_do_no_reduction(build, monkeypatch,
                                                     clear_engine_caches):
    op = build()
    clear_engine_caches()
    queries = [lambda: param_test(op), lambda: ext_module(op, 1),
               lambda: ext_module(op, 2)]
    cold = [query() for query in queries]
    work = _count_work(monkeypatch)
    # each repeat reads the report its first call kept
    assert all(query() is rep for query, rep in zip(queries, cold))
    assert work == [0, 0]


def test_a_test_over_its_budget_raises_what_its_first_run_raises(monkeypatch):
    """The report lookup runs the operator's rows first, but a test over
    its budget raises the error of the run a cold test starts first, that
    of cc(adjoint(op)): the rows' own run stops at a lower S-pair here."""
    op = zoo.weyl_killing(zoo.euclidean(3))
    monkeypatch.setenv("DGCALC_BUDGET_DEGREE", "0")
    errors = []
    for call in (lambda: param_test(op), lambda: cc(adjoint(op)),
                 lambda: reduced_groebner(op.rows())):
        with pytest.raises(BudgetExceeded) as exc:
            call()
        errors.append(str(exc.value))
    assert errors[0] == errors[1] != errors[2]


def test_ext0_starts_no_run_of_the_adjoint_rows(clear_engine_caches):
    from dgcalc import engine

    op = zoo.div(3)
    clear_engine_caches()
    rep = ext_module(op, 0)
    # a run of the adjoint's rows would be a miss that Ext^1 then hits
    misses = engine._tracked.cache_info().misses
    engine._tracked(adjoint(op)._rows, engine._budget())
    assert engine._tracked.cache_info().misses == misses + 1
    assert ext_module(op, 0) == rep


def _reweighted(op, weights):
    """op with the same rows and the source bundle's weights replaced."""
    source = Bundle(op.source.name, zip(op.source.labels, weights))
    return LinDiffOp._make(op.name, op.nvars, source, op.target, op._rows)


def test_each_kept_report_answers_only_its_own_reads(clear_engine_caches):
    op = zoo.killing(zoo.euclidean(2))
    clear_engine_caches()
    kept = param_test(op)
    # an equal operator gets the kept report as its own
    twin = op.with_name(op.name)
    assert param_test(twin).operator is twin
    assert _report_texts(param_test(twin)) == _report_texts(kept)
    variants = [
        op.with_name("other"),
        LinDiffOp._make(op.name, op.nvars, Bundle(
            "u", op.source.components), Bundle("w", op.target.components), op._rows),
        _reweighted(op, [2, 3]),
    ]
    for other in variants:
        # op's report kept again, since each round ends with the memos empty
        param_test(op)
        rep = param_test(other)
        assert rep.operator is other
        clear_engine_caches()
        assert _report_texts(rep) == _report_texts(param_test(other))
        assert _report_texts(rep) != _report_texts(kept)
    # the options are read too
    no_ext2 = param_test(op, with_ext2=False)
    assert no_ext2.ext2_zero is None and kept.ext2_zero is True
    with pytest.raises(TorsionWitnessError):
        param_test(op, witness_degree=0)
    assert param_test(op) == kept


def test_kept_ext_reports_follow_the_adjoint_rows(clear_engine_caches):
    op = zoo.killing(zoo.euclidean(2))
    clear_engine_caches()
    rep = ext_module(op, 1)
    heavier = _reweighted(op, [2, 3])
    other = ext_module(heavier, 1)
    clear_engine_caches()
    assert other == ext_module(heavier, 1)
    assert ext_module(op, 1) == rep
    assert other != rep


def test_trace_adjusted_curvature_is_not_parametrizable():
    op = zoo.einstein_lin(zoo.minkowski(4))
    rep = param_test(op, with_ext2=False)
    assert not rep.parametrizable
    assert not rep.ext1_zero
    assert rep.potentials == 4
    assert len(rep.recomputed_cc.matrix) == 20
    assert module_equal(
        rep.recomputed_cc.rows(), zoo.riemann_lin(zoo.minkowski(4)).rows()
    )
    assert len(rep.torsion) == 10
    anns = {serialize(t.annihilator) for t in rep.torsion}
    assert anns == {"d1^2 + d2^2 + d3^2 - d4^2"}
    assert all(t.order == 2 for t in rep.torsion)
    with pytest.raises(ValueError):
        minimal_parametrization(op, report=rep)


def test_stress_equilibrium_is_parametrizable_in_three_variables():
    op = zoo.cauchy(zoo.euclidean(3))
    rep = param_test(op)
    assert rep.parametrizable
    assert rep.ext1_zero
    assert rep.ext2_zero
    assert rep.potentials == 6
    assert compose(op, rep.parametrization).is_zero()
    mp = minimal_parametrization(op, report=rep)
    assert mp.source.dim == 3
    assert mp.order() == 2
    assert compose(op, mp).is_zero()
    assert module_equal(cc(mp).rows(), op.rows())


def test_couple_stress_balance_is_parametrizable():
    eq = zoo.cosserat_equilibrium()
    rep = param_test(eq, with_ext2=False)
    assert rep.parametrizable
    assert rep.ext1_zero
    assert rep.potentials == 3
    assert compose(eq, rep.parametrization).is_zero()


@pytest.mark.parametrize("index, gens", [(0, 0), (1, 1), (2, 3)])
def test_divergence_obstruction_modules_vanish(index, gens):
    rep = ext_module(zoo.div(3), index)
    assert rep.index == index
    assert rep.is_zero
    assert rep.rank == 0
    assert len(rep.generators) == gens


def test_first_obstruction_of_plane_rigid_motions_is_nonzero():
    rep = ext_module(zoo.killing(zoo.euclidean(2)), 1)
    assert not rep.is_zero
    assert rep.rank == 0
    assert rep.generators
    assert rep.relations


def test_report_and_direct_ext_agree():
    for op, expect in [
        (zoo.div(3), True),
        (zoo.killing(zoo.euclidean(2)), False),
        (zoo.einstein_lin(zoo.minkowski(4)), False),
    ]:
        assert param_test(op, with_ext2=False).ext1_zero is expect
        assert ext_module(op, 1).is_zero is expect


def _digest(elems):
    return hashlib.sha256("\n".join(map(str, elems)).encode()).hexdigest()


# sha256 of the newline-joined generator and relation texts
EXT_PINS = {
    ("einstein_lin", 1): (
        20, "f5c00d076dc46fe9abedc90cbd6af936657981ce1682b6b3d8cf36507b63479e",
        26, "b45a9ca63ab1ce22b470dcfd97c6a1983022b8eacd4945b4301af58ba96e023e"),
    ("einstein_lin", 2): (
        4, "8a6f794cb018079afa1203292123f6bb42b79d400d2fd13a85094ea4b9574534",
        10, "3765ea3adfd74bd1d203ebb227e18cb5c9289690105ec6826480c490cd829ae4"),
    ("ricci_lin", 1): (
        20, "f5c00d076dc46fe9abedc90cbd6af936657981ce1682b6b3d8cf36507b63479e",
        26, "2240d924911c64174f28b3a04520d85e461c1dac30770ac96a7901c0799adb02"),
}


@pytest.mark.parametrize("builder, index", sorted(EXT_PINS))
def test_ext_presentation_of_curvature_operators_is_pinned(builder, index):
    rep = ext_module(getattr(zoo, builder)(zoo.minkowski(4)), index)
    ngens, gens, nrels, rels = EXT_PINS[builder, index]
    assert not rep.is_zero and rep.rank == 0
    assert (len(rep.generators), _digest(rep.generators)) == (ngens, gens)
    assert (len(rep.relations), _digest(rep.relations)) == (nrels, rels)


def test_ext_presentation_of_plane_rigid_motions_is_pinned():
    rep = ext_module(zoo.killing(zoo.euclidean(2)), 1)
    assert [str(g) for g in rep.generators] == ["(1, 0)", "(0, 1)"]
    assert [str(r) for r in rep.relations] == ["(0, d2)", "(d1, 0)", "(d2, d1)"]

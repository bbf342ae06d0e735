"""Double-duality parametrizability test, torsion witnesses, Ext modules."""

from fractions import Fraction
import hashlib
from itertools import combinations
from math import comb

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
    fraction_rank,
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
from dgcalc.poly import parse, serialize


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
        rep = param_test(op)
        rows = op.rows()
        assert rep.torsion
        for t in rep.torsion:
            killed = FreeElem([t.annihilator * p for p in t.row.entries])
            assert not module_contains(rows, t.row)
            assert module_contains(rows, killed)


def test_a_torsion_witness_of_any_degree_is_returned():
    # D/(d1^7) is all torsion, and its least annihilator has degree 7
    op = LinDiffOp("d1^7", 1, Bundle.simple("u", 1), Bundle.simple("f", 1),
                   [[parse("d1^7", 1)]])
    rep = param_test(op)
    assert not rep.parametrizable
    witnessed = [(str(t.row), t.order, serialize(t.annihilator)) for t in rep.torsion]
    assert witnessed == [("(1)", 0, "d1^7")]


def test_a_residue_without_an_annihilator_raises(monkeypatch, clear_engine_caches):
    from dgcalc import duality

    clear_engine_caches()
    monkeypatch.setattr(duality, "_least_head", lambda stacked: None)
    try:
        with pytest.raises(TorsionWitnessError, match="no nonzero annihilator of "):
            param_test(zoo.killing(zoo.euclidean(2)))
    finally:
        # the runs of the stacked rows keep the missing witnesses
        clear_engine_caches()


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
    param_test(op)
    # no kept result crosses into a lower degree budget
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


@pytest.mark.parametrize("build", [
    lambda: zoo.einstein_lin(zoo.minkowski(4)),
    lambda: zoo.killing(zoo.euclidean(4)),
], ids=["einstein-m4", "killing-e4"])
def test_param_test_leaves_its_ext2_report_for_ext_module(build, monkeypatch,
                                                         clear_engine_caches):
    from dgcalc import duality, engine

    op = build()
    clear_engine_caches()
    read = []
    kept_ext = duality._kept_ext
    monkeypatch.setattr(duality, "_kept_ext",
                        lambda *args: read.append(kept_ext(*args)) or read[-1])
    rep = param_test(op)
    assert [r.index for r in read] == [2]
    assert rep.ext2_zero is read[0].is_zero
    work = _count_work(monkeypatch)
    spairs = []
    spair = engine._Run._spair
    monkeypatch.setattr(engine._Run, "_spair",
                        lambda self, *args: spairs.append(1) or spair(self, *args))
    # the Ext^2 query reads the report the test computed
    assert ext_module(op, 2) is read[0]
    assert (len(spairs), *work) == (0, 0, 0)


@pytest.mark.parametrize("build, search", [
    (lambda: zoo.div(3), [4, 1]),
    (lambda: zoo.cauchy(zoo.euclidean(3)), [9, 1]),
], ids=["div3", "cauchy-e3"])
def test_minimal_parametrization_reads_the_kept_report(build, search, monkeypatch,
                                                       clear_engine_caches):
    from dgcalc import duality

    op = build()
    clear_engine_caches()
    param_test(op)
    tests = []
    double_duality = duality._double_duality
    monkeypatch.setattr(duality, "_double_duality",
                        lambda *args: tests.append(args) or double_duality(*args))
    work = _count_work(monkeypatch)
    mp = minimal_parametrization(op)
    # no second test: only the check of the greedy basis works
    assert (tests, work) == ([], search)
    work[:] = [0, 0]
    assert minimal_parametrization(op) == mp
    assert work == [0, 0]
    clear_engine_caches()
    assert minimal_parametrization(op) == mp
    assert len(tests) == 1


def _columns(op, keep, name):
    """op restricted to the source components in keep, in order."""
    at = {j: k for k, j in enumerate(keep)}
    rows = tuple(
        FreeElem._make(len(keep), op.nvars, {
            (at[j], m): v for (j, m), v in r.terms.items() if j in at
        }, 1, r.den)
        for r in op.rows()
    )
    source = Bundle(f"{op.source.name}|sub",
                    [op.source.components[j] for j in keep])
    return LinDiffOp._make(name, op.nvars, source, op.target, rows)


def _keeps_conditions(op, sub):
    return module_equal(cc(sub).rows(), op.rows())


def _enumerated_parametrization(op):
    """The minimal parametrization as earlier versions searched for it: the
    first column subset, in the order of the tuple of dropped indices,
    whose compatibility conditions present op's rows.  None where that
    search would take more than 10 000 subsets."""
    dpar = param_test(op).parametrization
    rk = op.source.dim - fraction_rank(op.rows())
    t = dpar.source.dim
    if rk == t:
        return dpar.with_name(f"minparam({op.name})")
    if comb(t, rk) > 10_000:
        return None
    for dropped in combinations(range(t), t - rk):
        sub = _columns(dpar, [j for j in range(t) if j not in dropped],
                       f"minparam({op.name})")
        if _keeps_conditions(op, sub):
            return sub
    raise AssertionError(f"no {rk}-column subset keeps the conditions of {op.name}")


def _zoo_up_to_4():
    """Every `zoo.ZOO` entry at each n from 2 to 4 that it builds, or at its
    fixed n, under each metric where it takes one."""
    for name, entry in zoo.ZOO.items():
        for n in [None] if entry.fixed_n else [2, 3, 4]:
            for metric in zoo.METRICS if entry.needs_metric else ["euclidean"]:
                try:
                    yield zoo.build(name, n=n, metric=metric)
                except ValueError:
                    # c_map_inverse needs n >= 3 and the Weyl entries n >= 4
                    continue


def test_the_greedy_basis_is_the_first_subset_the_old_search_found():
    compared = 0
    for op in _zoo_up_to_4():
        try:
            mp = minimal_parametrization(op)
        except ValueError:
            # not parametrizable, or no potentials needed
            continue
        assert _keeps_conditions(op, mp), op.name
        old = _enumerated_parametrization(op)
        if old is not None:
            assert operator_json(mp) == operator_json(old), op.name
            compared += 1
    assert compared


@pytest.mark.parametrize("build, full_rank", [
    (lambda: zoo.div(4), 16),
    (lambda: zoo.cauchy(zoo.euclidean(3)), 17),
], ids=["div4", "cauchy-e3"])
def test_a_column_subset_keeps_the_conditions_iff_it_has_full_rank(build, full_rank):
    """The system module is torsion free, so every column subset of generic
    rank rk presents it, and no smaller rank can."""
    op = build()
    dpar = param_test(op).parametrization
    rk = op.source.dim - fraction_rank(op.rows())
    full = 0
    for keep in combinations(range(dpar.source.dim), rk):
        sub = _columns(dpar, list(keep), "sub")
        has_full_rank = fraction_rank(sub.rows()) == rk
        assert _keeps_conditions(op, sub) is has_full_rank, keep
        full += has_full_rank
    assert full == full_rank


@pytest.mark.parametrize("name, n, potentials", [
    ("cauchy", 5, 10), ("cauchy", 6, 15), ("cauchy", 7, 21),
    ("scalar", 4, 9), ("scalar", 5, 14), ("scalar", 6, 20),
    ("div", 7, 6),
])
def test_minimal_parametrizations_past_the_old_search_cap(name, n, potentials):
    """Earlier versions refused these: each has more than 10 000 column
    subsets of its rank."""
    op = zoo.build(name, n=n)
    mp = minimal_parametrization(op)
    assert mp.source.dim == potentials
    assert module_equal(cc(mp).rows(), op.rows())


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
    rep = param_test(op)
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
        minimal_parametrization(op)


def test_stress_equilibrium_is_parametrizable_in_three_variables():
    op = zoo.cauchy(zoo.euclidean(3))
    rep = param_test(op)
    assert rep.parametrizable
    assert rep.ext1_zero
    assert rep.ext2_zero
    assert rep.potentials == 6
    assert compose(op, rep.parametrization).is_zero()
    mp = minimal_parametrization(op)
    assert mp.source.dim == 3
    assert mp.order() == 2
    assert compose(op, mp).is_zero()
    assert module_equal(cc(mp).rows(), op.rows())


def test_couple_stress_balance_is_parametrizable():
    eq = zoo.cosserat_equilibrium()
    rep = param_test(eq)
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
    """Ext^1 is decided twice, by the module comparison of the test and by
    `_ext`; Ext^2 once, by `_ext`.  The reference for Ext^2 is the chain
    one step further down the adjoint/cc sequence: the parametrization's
    rows against cc(adjoint(cc(adjoint_cc))), the image of `_ext`'s dual
    complex under d -> -d up to row scalings."""
    for op, ext1, ext2 in [
        (zoo.div(3), True, True),
        (zoo.killing(zoo.euclidean(2)), False, True),
        (zoo.einstein_lin(zoo.minkowski(4)), False, False),
        (zoo.weyl_killing(zoo.euclidean(3)), False, True),
        (zoo.cosserat_equilibrium(), True, False),
        (zoo.lame(Fraction(5, 2), Fraction(1, 3), 2), False, True),
    ]:
        rep = param_test(op)
        add = cc(adjoint(op))
        chain = module_equal(adjoint(add).rows(), cc(adjoint(cc(add))).rows())
        assert rep.ext1_zero is ext1 is ext_module(op, 1).is_zero
        assert rep.ext2_zero is ext2 is chain is ext_module(op, 2).is_zero


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

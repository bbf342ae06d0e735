"""Command-line interface: subcommands, exit codes, file output, determinism."""

import gc
import hashlib
import io
import json
import os
import pstats
import subprocess
import sys
from pathlib import Path

import pytest

from dgcalc import cli, duality, zoo
from dgcalc.engine import module_equal
from dgcalc.operators import (MAX_NVARS, cc, compose, operator_from_dict, operator_json,
                              save_operator)
from dgcalc.poly import Poly
from dgcalc.report import run_report


@pytest.fixture
def ops_dir(tmp_path):
    d = tmp_path / "ops"
    d.mkdir()
    save_operator(zoo.grad(3), d / "grad3.json")
    save_operator(zoo.div(3), d / "div3.json")
    save_operator(zoo.curl(), d / "curl3.json")
    save_operator(zoo.killing(zoo.euclidean(2)), d / "killing_e2.json")
    return d


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- zoo -----------------------------------------------------------------------


def test_metric_choices_are_the_zoo_metrics(capsys):
    assert cli._METRIC_CHOICES == tuple(sorted(zoo.METRICS))
    with pytest.raises(SystemExit) as exc:
        cli.main(["zoo", "killing", "--n", "3", "--metric", "bogus"])
    assert exc.value.code == 2
    # argparse quotes the choices before Python 3.13 and lists them bare
    # from 3.13 on
    metrics = sorted(zoo.METRICS)
    spellings = [", ".join(f"'{m}'" for m in metrics), ", ".join(metrics)]
    err = capsys.readouterr().err
    assert any(f"invalid choice: 'bogus' (choose from {s})" in err for s in spellings)


ZOO_LISTING = """\
box_weyl                  dalembertian after the linearized Weyl tensor  [--metric --n]
c_map                     trace flip: Ricci to Einstein  [--metric --n]
c_map_inverse             trace flip back: Einstein to Ricci  [--metric --n]
cauchy                    symmetrized gradient  [--metric --n]
conformal_killing         trace-free Killing operator  [--metric --n]
cosserat_equilibrium      planar Cosserat balance equations  [n=2]
cosserat_parametrization  potentials for Cosserat balance  [n=2]
cosserat_spencer          planar Cosserat first Spencer operator  [n=2]
curl                      curl in three variables  [n=3]
dalembertian              metric second-order trace on scalars  [--metric --n]
div                       divergence  [--n]
einstein                  linearized Einstein tensor  [--metric --n]
exterior_derivative       d on r-forms  [--n, --r]
grad                      gradient  [--n]
hooke2d                   plane stress-strain law  [--lam --mu, n=2]
hooke2d_inverse           plane strain from stress  [--lam --mu, n=2]
killing                   Lie derivative of the metric  [--metric --n]
lame                      elastostatics operator  [--n, --lam --mu]
ricci                     linearized Ricci tensor  [--metric --n]
riemann                   linearized curvature tensor  [--metric --n]
scalar                    linearized scalar curvature  [--metric --n]
weyl                      linearized Weyl tensor (n >= 4)  [--metric --n]
weyl_killing              conformal Killing plus trace gradient  [--metric --n]
"""


def test_zoo_listing_is_pinned(capsys):
    code, out, err = run(capsys, "zoo")
    assert (code, err) == (0, "")
    assert out == ZOO_LISTING


def test_zoo_listing_names_every_operator(capsys):
    code, out, err = run(capsys, "zoo")
    assert code == 0
    for key in zoo.ZOO:
        assert key in out
    assert "--lam --mu" in out


def test_zoo_prints_an_operator_document(capsys):
    code, out, _ = run(capsys, "zoo", "div", "--n", "3")
    assert code == 0
    assert operator_from_dict(json.loads(out)) == zoo.div(3)


def test_zoo_writes_into_a_directory(capsys, tmp_path):
    code, out, _ = run(
        capsys, "zoo", "einstein", "--n", "4", "--metric", "minkowski",
        "-o", str(tmp_path) + "/",
    )
    assert code == 0
    target = tmp_path / "einstein_m4.json"
    assert target.exists()
    assert str(target) in out
    assert operator_from_dict(json.loads(target.read_text())) \
        == zoo.einstein_lin(zoo.minkowski(4))


@pytest.mark.parametrize("argv, message", [
    (["curl", "--n", "5"], "curl has n = 3, not --n 5"),
    (["grad", "--n", "2", "--r", "7"], "grad takes no --r"),
    (["killing", "--n", "2", "--lam", "x"], "killing takes no --lam"),
    (["div", "--n", "3", "--metric", "euclidean"], "div takes no --metric"),
    (["hooke2d", "--mu", "2", "--r", "0"], "hooke2d takes no --r"),
    (["cosserat_spencer", "--n", "2", "--mu", "1"], "cosserat_spencer takes no --mu"),
], ids=["curl-n", "grad-r", "killing-lam", "div-metric", "hooke2d-r", "cosserat-mu"])
def test_zoo_option_the_entry_does_not_take_exits_1(capsys, argv, message):
    code, out, err = run(capsys, "zoo", *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_zoo_takes_an_entrys_fixed_n_and_default_moduli(capsys):
    code, out, _ = run(capsys, "zoo", "curl", "--n", "3")
    assert code == 0
    assert operator_from_dict(json.loads(out)) == zoo.curl()
    code, out, _ = run(capsys, "zoo", "lame", "--n", "2", "--mu", "2")
    assert code == 0
    assert operator_from_dict(json.loads(out)) == zoo.lame(1, 2, 2)


def test_zoo_rational_moduli(capsys):
    code, out, _ = run(capsys, "zoo", "lame", "--n", "2",
                       "--lam", "5/2", "--mu", "1/3")
    assert code == 0
    assert operator_from_dict(json.loads(out)) == zoo.lame("5/2", "1/3", 2)


# -- algebra subcommands -----------------------------------------------------------


def test_cc_output_annihilates_the_input(capsys, ops_dir):
    code, out, _ = run(capsys, "cc", str(ops_dir / "grad3.json"))
    assert code == 0
    c = operator_from_dict(json.loads(out))
    assert compose(c, zoo.grad(3)).is_zero()
    assert not c.is_zero()


def test_adjoint_twice_returns_the_operator(capsys, ops_dir, tmp_path):
    first = tmp_path / "once.json"
    code, _, _ = run(capsys, "adjoint", str(ops_dir / "killing_e2.json"),
                     "-o", str(first))
    assert code == 0
    code, out, _ = run(capsys, "adjoint", str(first))
    assert code == 0
    assert operator_from_dict(json.loads(out)) == zoo.killing(zoo.euclidean(2))


def test_compose_matches_library_composition(capsys, ops_dir):
    code, out, _ = run(capsys, "compose", str(ops_dir / "div3.json"),
                       str(ops_dir / "curl3.json"))
    assert code == 0
    assert operator_from_dict(json.loads(out)).is_zero()


def test_rank_reports_the_matrix_profile(capsys, ops_dir):
    code, out, _ = run(capsys, "rank", str(ops_dir / "curl3.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc == {"operator": "curl3", "rows": 3, "columns": 3, "rank": 2}


def test_resolve_writes_summary_and_steps(capsys, ops_dir, tmp_path):
    out_dir = tmp_path / "res"
    code, out, _ = run(capsys, "resolve", str(ops_dir / "grad3.json"),
                       "-o", str(out_dir))
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["dims"] == [3, 3, 1]
    assert summary["complete"] is True
    assert summary["euler_characteristic"] == 0
    step_files = sorted(p.name for p in out_dir.glob("step*.json"))
    assert step_files == ["step00.json", "step01.json", "step02.json"]
    step0 = json.loads((out_dir / "step00.json").read_text())
    assert step0["index"] == 0
    assert step0["rows"] == [["d1"], ["d2"], ["d3"]]
    step2 = json.loads((out_dir / "step02.json").read_text())
    assert len(step2["rows"]) == 1


def test_paramtest_and_minparam(capsys, ops_dir):
    code, out, _ = run(capsys, "paramtest", str(ops_dir / "div3.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["parametrizable"] is True
    assert doc["torsion"] == []
    code, out, _ = run(capsys, "minparam", str(ops_dir / "div3.json"))
    assert code == 0
    mp = operator_from_dict(json.loads(out))
    assert mp.source.dim == 2
    assert compose(zoo.div(3), mp).is_zero()


def test_paramtest_reports_torsion(capsys, ops_dir):
    code, out, _ = run(capsys, "paramtest", str(ops_dir / "killing_e2.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["parametrizable"] is False
    assert len(doc["torsion"]) == 2
    anns = {t["annihilator"] for t in doc["torsion"]}
    assert anns == {"d1", "d2"}


def test_ext_subcommand(capsys, ops_dir):
    code, out, _ = run(capsys, "ext", str(ops_dir / "div3.json"), "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["index"] == 1
    assert doc["is_zero"] is True
    assert doc["rank"] == 0


def test_factor_finds_the_left_factor(capsys, ops_dir, tmp_path):
    lap = compose(zoo.div(3), zoo.grad(3))
    save_operator(lap, tmp_path / "lap.json")
    code, out, _ = run(capsys, "factor", str(tmp_path / "lap.json"),
                       str(ops_dir / "grad3.json"))
    assert code == 0
    q = operator_from_dict(json.loads(out))
    assert compose(q, zoo.grad(3)) == lap


# -- exit codes ----------------------------------------------------------------------


def test_malformed_document_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nvars": 0}')
    code, _, err = run(capsys, "adjoint", str(bad))
    assert code == 2
    assert err


_DROP = object()

# a field of grad3.json, the value it is set to (or _DROP to delete it) and
# the loader's message, which names the field rather than a Python exception
_BAD_FIELDS = [
    (("source", "components", 0, "weight"), True,
     "weight True is not a string or an integer"),
    (("source",), None, "source is not a JSON object"),
    (("source", "components"), "x", "source components 'x' is not a list"),
    (("source", "components", 0), ["a", 1], "source component 0 is not a JSON object"),
    (("target", "components", 1, "label"), _DROP, "target component 1 has no label"),
    (("source", "components", 0, "weight"), "1/0",
     "weight '1/0' is not a rational number"),
]


def test_document_field_of_the_wrong_json_type_exits_2(capsys, ops_dir, tmp_path):
    for (*keys, last), value, message in _BAD_FIELDS:
        doc = json.loads((ops_dir / "grad3.json").read_text())
        at = doc
        for key in keys:
            at = at[key]
        if value is _DROP:
            del at[last]
        else:
            at[last] = value
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "adjoint", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: bad bundle: {message}\n"


@pytest.mark.parametrize("data", [
    b"[" * 10000 + b"]" * 10000,
    b'{"nvars": ' + b"7" * 5000 + b"}",
    b'{"nvars": 1, "name": "\xff"}',
], ids=["nested-too-deep", "integer-too-long", "not-utf-8"])
def test_unreadable_document_exits_2(capsys, tmp_path, data):
    path = tmp_path / "unreadable.json"
    path.write_bytes(data)
    code, out, err = run(capsys, "cc", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def _square_doc(matrix: list[list[str]]) -> str:
    """An operator document with this square matrix of cell texts, over
    two variables."""
    comps = [{"label": str(i + 1), "weight": "1"} for i in range(len(matrix))]
    return json.dumps({
        "name": "m", "nvars": 2,
        "source": {"name": "u", "components": comps},
        "target": {"name": "v", "components": comps},
        "matrix": matrix,
    })


@pytest.mark.parametrize("data", [
    b'{"nvars": ' + b"7" * 5000 + b"}",
    _square_doc([["2^20000*d1"]]).encode(),
], ids=["nvars-digits", "literal-power"])
def test_number_over_the_digit_limit_is_an_input_error(capsys, tmp_path, data):
    path = tmp_path / "digits.json"
    path.write_bytes(data)
    for command in ("cc", "adjoint"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert "set_int_max_str_digits" not in err


def test_literal_powers_refused_only_above_the_digit_limit(capsys, tmp_path):
    path = tmp_path / "power.json"
    path.write_text(_square_doc([["2^20000*d1"]]))
    code, _, err = run(capsys, "adjoint", str(path))
    assert code == 2
    assert err == ("error: matrix[0][0]: number of 6021 digits exceeds the limit of "
                   "4300 digits (at position 0)\n")
    # 4,215 digits
    path.write_text(_square_doc([["2^14000*d1"]]))
    for command in ("cc", "adjoint", "rank", "resolve"):
        code, _, err = run(capsys, command, str(path))
        assert (code, err) == (0, "")


@pytest.mark.parametrize("grouped, plain", [
    ("(3)^30000000*d1", "3^30000000*d1"),
    ("(1/3)^30000*d1", "1/3^30000*d1"),
])
def test_one_term_group_power_over_the_digit_limit_exits_2(capsys, tmp_path,
                                                           grouped, plain):
    """A parenthesized term raised to a power gets its plain spelling's
    digit check; earlier versions computed the power, and `rank` ran 28 s
    on the first cell and exited 0."""
    path = tmp_path / "power.json"
    errors = []
    for cell in (grouped, plain):
        path.write_text(_square_doc([[cell]]))
        code, out, err = run(capsys, "rank", str(path))
        assert (code, out) == (2, "")
        errors.append(err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: matrix[0][0]: number of ")


@pytest.mark.parametrize("cell, at", [("9^4000*9^4000*d1", 7), ("9^8000*d1", 0)])
def test_numbers_of_a_term_multiplying_past_the_digit_limit_exit_2(capsys, tmp_path,
                                                                  cell, at):
    """A product of numbers in one term gets the digit check of the number
    it makes; earlier versions accepted the first cell, and `rank` exited 0
    on it."""
    path = tmp_path / "product.json"
    path.write_text(_square_doc([[cell]]))
    code, out, err = run(capsys, "rank", str(path))
    assert (code, out) == (2, "")
    assert err == ("error: matrix[0][0]: number of 7634 digits exceeds the limit of "
                   f"4300 digits (at position {at})\n")


def test_result_number_over_the_digit_limit_exits_4(capsys, tmp_path):
    """Inputs of 4,215 and 3,817 digits whose results multiply them: each
    command refuses the result, naming the cell, and writes nothing."""
    square = tmp_path / "square.json"
    square.write_text(_square_doc([["2^14000*d1"]]))
    code, out, err = run(capsys, "compose", str(square), str(square))
    assert (code, out) == (4, "")
    assert err == ("error: matrix[0][0]: number of 8429 digits exceeds the limit "
                   "of 4300 digits\n")
    # the relation 3^8000 * r1 + 2^14000 * r2 - 2^14000 * 3^8000 * r3
    comps = [{"label": str(i + 1), "weight": "1"} for i in range(3)]
    path = tmp_path / "three.json"
    path.write_text(json.dumps({
        "name": "m", "nvars": 2,
        "source": {"name": "u", "components": comps[:2]},
        "target": {"name": "v", "components": comps},
        "matrix": [["2^14000*d1", "0"], ["0", "3^8000*d2"], ["d1", "d2"]],
    }))
    limit = "number of 8032 digits exceeds the limit of 4300 digits\n"
    code, out, err = run(capsys, "cc", str(path))
    assert (code, out, err) == (4, "", "error: matrix[0][2]: " + limit)
    out_dir = tmp_path / "res"
    code, out, err = run(capsys, "resolve", str(path), "-o", str(out_dir))
    assert (code, out, err) == (4, "", "error: step01.json: rows[0][2]: " + limit)
    assert not out_dir.exists()


def _cli_env() -> dict:
    """The environment for a `python -m dgcalc.cli` subprocess: this
    checkout's sources first on the path, the default degree budget, and
    stdout buffered, as Python buffers a pipe unless told not to."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("DGCALC_BUDGET_DEGREE", None)
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_rank_of_huge_exponents_answers_in_bounded_time(tmp_path):
    """The point stage of `fraction_rank` evaluates modulo a prime, so a
    power d1^N costs no N-bit integer; a fresh process answers well within
    the timeout for N = 10^8."""
    n = 10**8
    path = tmp_path / "huge.json"
    path.write_text(_square_doc([[f"d1^{n}", "d2"], [f"d2^{n} + d1", "d1*d2"]]))
    done = subprocess.run([sys.executable, "-m", "dgcalc.cli", "rank", str(path)],
                          env=_cli_env(), capture_output=True, text=True, timeout=30)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["rank"] == 2


def test_deficient_rank_and_minparam_answer_in_bounded_time(tmp_path):
    """A rank the point stage leaves open is read off the rows' Buchberger
    run: `rank` of einstein e6 and `minparam` of weyl e5, both rank
    deficient, took 0.19 s and 0.23 s in a fresh process on a 2-core VM.
    The 10 s timeout leaves 40 times that for slow machines; elimination
    over Z[d1..dn] ran over 120 s on the first and 19.9 s on the second."""
    einstein, weyl = tmp_path / "einstein_e6.json", tmp_path / "weyl_e5.json"
    save_operator(zoo.build("einstein", n=6), einstein)
    save_operator(zoo.build("weyl", n=5), weyl)
    for argv in (["rank", str(einstein)], ["minparam", str(weyl)]):
        done = subprocess.run([sys.executable, "-m", "dgcalc.cli", *argv],
                              env=_cli_env(), capture_output=True, text=True,
                              timeout=10)
        assert (done.returncode, done.stderr) == (0, ""), argv
        doc = json.loads(done.stdout)
        if argv[0] == "rank":
            assert (doc["rows"], doc["columns"], doc["rank"]) == (21, 21, 15)
        else:
            assert operator_from_dict(doc).target.dim == 15


def test_deficient_rank_obeys_the_degree_budget(capsys, tmp_path, monkeypatch):
    """The rank of (d1^7, 0; d2^7, 0) is 1, and its run needs the S-pair of
    degree 14 between the two rows."""
    path = tmp_path / "d7.json"
    path.write_text(_square_doc([["d1^7", "0"], ["d2^7", "0"]]))
    monkeypatch.delenv("DGCALC_BUDGET_DEGREE", raising=False)
    code, out, err = run(capsys, "rank", str(path))
    assert (code, out) == (4, "")
    assert err == ("error: S-pair of degree 14 exceeds budget 12; "
                   "raise DGCALC_BUDGET_DEGREE to go further\n")
    monkeypatch.setenv("DGCALC_BUDGET_DEGREE", "14")
    code, out, err = run(capsys, "rank", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["rank"] == 1


def test_negative_resolve_depth_exits_1(capsys, ops_dir):
    code, out, err = run(capsys, "resolve", str(ops_dir / "curl3.json"),
                         "--steps", "-1")
    assert code == 1
    assert out == ""
    assert err == "error: max_steps must be nonnegative\n"


def test_shape_mismatch_exits_3(capsys, ops_dir):
    code, _, err = run(capsys, "compose", str(ops_dir / "killing_e2.json"),
                       str(ops_dir / "div3.json"))
    assert code == 3
    assert "variable counts" in err


def test_budget_exhaustion_exits_4(capsys, ops_dir, monkeypatch):
    monkeypatch.setenv("DGCALC_BUDGET_DEGREE", "1")
    code, _, err = run(capsys, "resolve", str(ops_dir / "killing_e2.json"))
    assert code == 4
    assert err


def test_weyl_killing_resolves_within_budget_3(capsys, tmp_path, monkeypatch):
    """Minimizing its non-homogeneous steps needs one relation run per list
    and width-1 runs on coordinate ideals, none with an S-pair above degree
    3; one Groebner run per left-out generator needed more."""
    path = tmp_path / "weyl_killing_e3.json"
    save_operator(zoo.weyl_killing(zoo.euclidean(3)), path)
    monkeypatch.setenv("DGCALC_BUDGET_DEGREE", "3")
    code, out, err = run(capsys, "resolve", str(path))
    assert (code, err) == (0, "")
    summary = json.loads(out)
    assert summary["dims"] == [8, 9, 4]
    assert summary["complete"] is True


@pytest.mark.parametrize("nvars", [True, MAX_NVARS + 1, 1_000_000])
def test_boolean_or_huge_nvars_exits_2(capsys, ops_dir, tmp_path, nvars):
    doc = json.loads((ops_dir / "grad3.json").read_text())
    doc["nvars"] = nvars
    path = tmp_path / "nvars.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "adjoint", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad nvars")


def test_a_torsion_witness_above_degree_6_is_reported(capsys, tmp_path):
    # D/(d1^7) is all torsion, and its least annihilator has degree 7
    doc = {"nvars": 1, "source": {"components": [{"label": "u", "weight": 1}]},
           "target": {"components": [{"label": "f", "weight": 1}]},
           "matrix": [["d1^7"]]}
    path = tmp_path / "d1_7.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "paramtest", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["torsion"] == [
        {"row": ["1"], "order": 0, "annihilator": "d1^7"}]


def test_a_residue_without_an_annihilator_exits_1(capsys, ops_dir, monkeypatch,
                                                   clear_engine_caches):
    # an internal fault, not a budget: one error line and exit 1
    clear_engine_caches()
    monkeypatch.setattr(duality, "_least_head", lambda stacked: None)
    try:
        code, out, err = run(capsys, "paramtest", str(ops_dir / "killing_e2.json"))
    finally:
        # the runs of the stacked rows keep the missing witnesses
        clear_engine_caches()
    assert (code, out) == (1, "")
    assert err.startswith("error: no nonzero annihilator of ")
    assert err.count("\n") == 1


def test_minparam_whose_check_fails_exits_1(capsys, ops_dir, monkeypatch):
    # the test passes first, so only the check of the greedy basis fails
    path = str(ops_dir / "div3.json")
    assert run(capsys, "paramtest", path)[0] == 0
    monkeypatch.setattr(duality, "_same_module", lambda *args: False)
    code, out, err = run(capsys, "minparam", path)
    assert (code, out) == (1, "")
    assert err == ("error: internal error: the greedy 2-column basis of "
                   "param(div3) changes the compatibility conditions\n")


def test_minparam_cuts_cauchy_e4_to_six_stress_functions(capsys, tmp_path):
    # C(20, 6) column subsets: earlier versions refused to search them
    op = zoo.build("cauchy", n=4)
    path = tmp_path / "cauchy_e4.json"
    save_operator(op, path)
    code, out, err = run(capsys, "minparam", str(path))
    assert (code, err) == (0, "")
    mp = operator_from_dict(json.loads(out))
    assert mp.source.dim == 6
    assert module_equal(cc(mp).rows(), op.rows())


def _sweep_builds():
    """Every `zoo.ZOO` entry at each n from 2 to 5 that it builds, on the
    euclidean metric, or at its fixed n."""
    for name, entry in zoo.ZOO.items():
        for n in [None] if entry.fixed_n else [2, 3, 4, 5]:
            try:
                yield zoo.build(name, n=n)
            except ValueError:
                # c_map_inverse needs n >= 3 and the Weyl entries n >= 4
                continue


def test_minparam_answers_every_zoo_entry(capsys, tmp_path, clear_engine_caches):
    """Each call answers, or exits 1 on an operator that is not
    parametrizable or needs no potentials; box_weyl e5 takes most of the
    second or so this runs."""
    answered = 0
    for op in _sweep_builds():
        path = tmp_path / "op.json"
        save_operator(op, path)
        clear_engine_caches()
        code, out, err = run(capsys, "minparam", str(path))
        if code == 1:
            assert out == "", op.name
            assert err in (
                f"error: {op.name} is not parametrizable; no potential cut exists\n",
                f"error: {op.name} has full column rank; it needs no potentials\n",
            )
            continue
        assert (code, err) == (0, ""), op.name
        mp = operator_from_dict(json.loads(out))
        assert module_equal(cc(mp).rows(), op.rows()), op.name
        answered += 1
    assert answered
    clear_engine_caches()


def test_malformed_budget_is_rejected(capsys, ops_dir, monkeypatch):
    for value in ("abc", "-3"):
        monkeypatch.setenv("DGCALC_BUDGET_DEGREE", value)
        code, out, err = run(capsys, "cc", str(ops_dir / "grad3.json"))
        assert code == 1, value
        assert out == ""
        assert err.startswith("error: ") and "DGCALC_BUDGET_DEGREE" in err
        assert "Traceback" not in err
        # curl3's rank (2 of 3) is read off its Buchberger run, which
        # reads the budget; a full rank is certified before that
        code, out, err = run(capsys, "rank", str(ops_dir / "curl3.json"))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "DGCALC_BUDGET_DEGREE" in err
        code, _, err = run(capsys, "rank", str(ops_dir / "grad3.json"))
        assert (code, err) == (0, "")


def test_deeply_nested_entry_exits_2(capsys, ops_dir, tmp_path):
    doc = json.loads((ops_dir / "grad3.json").read_text())
    doc["matrix"][0][0] = "(" * 5000 + "d1" + ")" * 5000
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps(doc))
    code, out, err = run(capsys, "cc", str(deep))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "nested" in err
    assert "Traceback" not in err


LONG = "7" * 100001


@pytest.mark.parametrize("cell, at", [
    (LONG + "*d1", 0),
    ("d2 + 1/" + LONG + "*d1", 5),
    ("d1^" + LONG, 3),
    ("d" + LONG, 0),
], ids=["coefficient", "denominator", "exponent", "variable"])
def test_number_too_long_to_convert_exits_2(capsys, ops_dir, tmp_path, cell, at):
    doc = json.loads((ops_dir / "grad3.json").read_text())
    doc["matrix"][0][0] = cell
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "rank", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: matrix[0][0]: number of 100001 digits exceeds the limit of ")
    assert err.endswith(f" digits (at position {at})\n")
    assert "Traceback" not in err


def test_failed_factorization_exits_5(capsys, ops_dir):
    code, _, err = run(capsys, "factor", str(ops_dir / "div3.json"),
                       str(ops_dir / "curl3.json"))
    assert code == 5
    assert "row 0" in err


@pytest.mark.parametrize("name", ["grad", "div"])
def test_zoo_operator_of_no_variables_exits_1(capsys, name):
    code, out, err = run(capsys, "zoo", name, "--n", "0")
    assert code == 1
    assert out == ""
    assert err == "error: need n >= 1\n"


@pytest.mark.parametrize("name, n, least", [
    ("lame", 0, 1), ("conformal_killing", 1, 2), ("weyl_killing", 1, 2),
    ("riemann", 1, 2),
])
def test_zoo_operator_below_its_least_n_exits_1(capsys, name, n, least):
    code, out, err = run(capsys, "zoo", name, "--n", str(n))
    assert code == 1
    assert out == ""
    assert err == f"error: need n >= {least}\n"


def test_zoo_n_above_the_document_limit_exits_1(capsys, tmp_path):
    code, out, err = run(capsys, "zoo", "grad", "--n", str(MAX_NVARS + 1),
                         "-o", str(tmp_path / "g.json"))
    assert (code, out) == (1, "")
    assert err == f"error: --n {MAX_NVARS + 1} exceeds the largest variable count {MAX_NVARS}\n"
    assert list(tmp_path.iterdir()) == []
    code, out, _ = run(capsys, "zoo", "grad", "--n", str(MAX_NVARS))
    assert code == 0
    assert operator_from_dict(json.loads(out)) == zoo.grad(MAX_NVARS)


def test_minparam_of_full_column_rank_exits_1(capsys, tmp_path):
    path = tmp_path / "id2.json"
    path.write_text(json.dumps({
        "name": "id2", "nvars": 2,
        "source": {"name": "u", "components": [{"label": "1", "weight": "1"},
                                               {"label": "2", "weight": "1"}]},
        "target": {"name": "v", "components": [{"label": "1", "weight": "1"},
                                               {"label": "2", "weight": "1"}]},
        "matrix": [["1", "0"], ["0", "1"]],
    }))
    code, out, err = run(capsys, "minparam", str(path))
    assert (code, out) == (1, "")
    assert err == "error: id2 has full column rank; it needs no potentials\n"


def test_unknown_zoo_name_exits_1(capsys):
    code, out, err = run(capsys, "zoo", "cmapinv")
    assert code == 1
    assert out == ""
    assert err == "error: unknown zoo operator 'cmapinv'\n"


@pytest.mark.parametrize("flag, value", [
    ("--lam", "1/0"), ("--lam", "x"), ("--mu", "1/0"), ("--mu", ""),
])
def test_non_rational_modulus_exits_1(capsys, flag, value):
    code, out, err = run(capsys, "zoo", "lame", "--n", "2", flag, value)
    assert code == 1
    assert out == ""
    assert err == f"error: {flag} {value!r} is not a rational number\n"


# -- report ---------------------------------------------------------------------------


def test_report_filtered_run_passes(capsys):
    code, out, _ = run(capsys, "report", "--only", "c09")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert len(lines) == 2
    assert "checks passed" in out


def test_report_json_form(capsys):
    code, out, _ = run(capsys, "report", "--only", "c09", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["failed"] == 0
    assert doc["passed"] == 2
    assert all(row["passed"] for row in doc["checks"])


def test_report_with_no_matching_checks_fails(capsys):
    code, _, err = run(capsys, "report", "--only", "zzz")
    assert code == 1


# -- determinism -----------------------------------------------------------------------


def test_outputs_are_byte_identical_across_cold_runs(capsys, ops_dir, tmp_path,
                                                    clear_engine_caches):
    save_operator(zoo.killing(zoo.minkowski(3)), tmp_path / "k.json")
    runs = []
    for sub in ("a", "b"):
        clear_engine_caches()
        out_dir = tmp_path / sub
        code, _, _ = run(capsys, "resolve", str(tmp_path / "k.json"),
                         "-o", str(out_dir))
        assert code == 0
        blob = b"".join(
            p.read_bytes() for p in sorted(out_dir.iterdir())
        )
        runs.append(blob)
    assert runs[0] == runs[1]
    first = run(capsys, "paramtest", str(ops_dir / "div3.json"))
    second = run(capsys, "paramtest", str(ops_dir / "div3.json"))
    assert first == second


# sha256 of the bytes each writer gives: the resolve step files of
# conformal_killing e3 (step 0 has 1/3 coefficients), and the paramtest
# (two torsion rows) and ext 1 (2 generators, 3 relations) of killing e2
PINNED_CLI_BYTES = {
    "resolve": "5fadb5b5e73ac2151975f4f7abd46137124adbb6f638ab478a27612c24750c92",
    "paramtest": "5d100aa4a78cfc50f6da107a31e0ec8e0beb24396afedee72cd194597bf69e2a",
    "ext": "3abc886afa83357747b4bc5db3a8e7bdf6e8c5c7a7536ce5e3040bd4e78557d7",
}


def test_module_element_writers_keep_their_bytes(capsys, ops_dir, tmp_path):
    save_operator(zoo.conformal_killing(zoo.euclidean(3)), tmp_path / "ck.json")
    out_dir = tmp_path / "res"
    code, _, _ = run(capsys, "resolve", str(tmp_path / "ck.json"), "-o", str(out_dir))
    assert code == 0
    blob = b"".join(p.read_bytes() for p in sorted(out_dir.glob("step*.json")))
    assert "/3*d1" in (out_dir / "step00.json").read_text()
    got = {"resolve": hashlib.sha256(blob).hexdigest()}
    for argv in (("paramtest",), ("ext", "1")):
        code, out, _ = run(capsys, argv[0], str(ops_dir / "killing_e2.json"), *argv[1:])
        assert code == 0
        got[argv[0]] = hashlib.sha256(out.encode()).hexdigest()
    assert got == PINNED_CLI_BYTES


# -- the Fraction view of a Poly stays unbuilt ---------------------------------------


def _viewed_polys() -> list:
    """Every live Poly whose `terms` view has been built."""
    gc.collect()
    return [o for o in gc.get_objects() if type(o) is Poly and o._terms is not None]


def test_no_poly_builds_its_fraction_view(capsys, tmp_path, clear_engine_caches):
    # c_map of Minkowski 4-space has 1/2 coefficients
    save_operator(zoo.c_map(zoo.minkowski(4)), tmp_path / "c.json")
    doc = str(tmp_path / "c.json")
    before = _viewed_polys()
    seen = {id(p) for p in before}
    clear_engine_caches()
    rows = run_report()
    assert [p for p in _viewed_polys() if id(p) not in seen] == []
    assert run(capsys, "adjoint", doc)[0] == 0
    assert run(capsys, "compose", doc, doc)[0] == 0
    assert [p for p in _viewed_polys() if id(p) not in seen] == []
    assert all(r.passed for r in rows)


# -- the process entry -------------------------------------------------------------------


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


# one command per documented exit code, and an argparse usage error; the
# -o paths are relative, so both runs print the same "wrote" line
_EXIT_CASES = [
    (0, ["adjoint", "{ops}/div3.json"]),
    (0, ["cc", "{ops}/div3.json", "-o", "out/"]),
    (1, ["zoo", "nosuch", "-o", "out/x.json"]),
    (2, ["adjoint", "{bad}"]),
    (3, ["compose", "{ops}/killing_e2.json", "{ops}/div3.json", "-o", "out/c.json"]),
    (4, ["compose", "{square}", "{square}", "-o", "out/sq.json"]),
    (5, ["factor", "{ops}/div3.json", "{ops}/curl3.json"]),
    (2, ["adjoint"]),
]


@pytest.mark.parametrize("expected, argv", _EXIT_CASES,
                         ids=["0", "0-output", "1", "2", "3", "4", "5", "usage"])
def test_process_entry_matches_main(capsys, ops_dir, tmp_path, monkeypatch,
                                    expected, argv):
    """`python -m dgcalc.cli` gives the exit code, stdout bytes, stderr text
    and written files that `cli.main` gives in-process."""
    (tmp_path / "bad.json").write_text('{"nvars": 0}')
    (tmp_path / "square.json").write_text(_square_doc([["2^14000*d1"]]))
    argv = [a.format(ops=ops_dir, bad=tmp_path / "bad.json",
                     square=tmp_path / "square.json") for a in argv]
    here, there = tmp_path / "in_process", tmp_path / "process"
    here.mkdir()
    there.mkdir()
    monkeypatch.chdir(here)
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    done = subprocess.run([sys.executable, "-m", "dgcalc.cli", *argv], cwd=there,
                          env=_cli_env(), capture_output=True, timeout=60)
    assert code == expected
    assert (done.returncode, done.stdout, done.stderr.decode()) == (
        code, captured.out.encode(), captured.err)
    assert _tree(there) == _tree(here)
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["curl"], ["riemann", "--n", "4"], ["weyl", "--n", "5"]],
                         ids=["697B", "4868B", "38kB"])
def test_a_reader_that_closed_its_pipe_exits_1(argv, unbuffered):
    """Whether the write, the flush in `cli.run` or neither meets the
    closed pipe depends on the size of the output and on buffering; each
    way ends in one error line and exit 1."""
    env = _cli_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "dgcalc.cli", "zoo", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "error: [Errno 32] Broken pipe\n")


@pytest.mark.skipif(os.name != "posix", reason="closes file descriptor 1 in the child")
@pytest.mark.parametrize("argv", [["zoo", "curl"], ["zoo"], ["zoo", "curl", "-o", "c.json"]],
                         ids=["document", "listing", "output"])
def test_closed_stdout_exits_1(tmp_path, argv):
    done = subprocess.run([sys.executable, "-m", "dgcalc.cli", *argv], cwd=tmp_path,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          preexec_fn=lambda: os.close(1), env=_cli_env(),
                          text=True, timeout=60)
    assert (done.returncode, done.stderr) == (1, "error: [Errno 9] stdout is closed\n")
    # -o writes its file first; only the line naming it is lost
    assert [p.name for p in tmp_path.iterdir()] == (["c.json"] if "-o" in argv else [])


class _Exited(Exception):
    pass


@pytest.fixture
def fast_exit(monkeypatch):
    """`cli.run` with os._exit recording its code and raising `_Exited`,
    and the atexit handlers of this test process counted, not run.  pytest
    imports pdb, which `cli._watched` takes for a debugger, so bdb is
    hidden from sys.modules for the test."""
    monkeypatch.delitem(sys.modules, "bdb", raising=False)
    if cli._watched():
        pytest.skip("a tracer or profiler watches the tests")
    calls = {"os._exit": [], "atexit": 0}

    def os_exit(code):
        calls["os._exit"].append(code)
        raise _Exited

    def run_exitfuncs():
        calls["atexit"] += 1

    monkeypatch.setattr(os, "_exit", os_exit)
    monkeypatch.setattr(cli.atexit, "_run_exitfuncs", run_exitfuncs)
    return calls


@pytest.mark.parametrize("argv, code", [(["zoo", "curl"], 0), (["zoo", "nosuch"], 1)])
def test_run_ends_in_os_exit_with_mains_code(capsys, monkeypatch, fast_exit, argv, code):
    monkeypatch.setattr(sys, "argv", ["dgcalc", *argv])
    with pytest.raises(_Exited):
        cli.run()
    assert fast_exit == {"os._exit": [code], "atexit": 1}
    out = capsys.readouterr().out
    assert out == (operator_json(zoo.curl()) if code == 0 else "")


class _UnflushableStdout(io.StringIO):
    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_run_reports_a_flush_that_raises(capsys, monkeypatch, fast_exit):
    monkeypatch.setattr(sys, "argv", ["dgcalc", "zoo", "curl"])
    monkeypatch.setattr(sys, "stdout", _UnflushableStdout())
    with pytest.raises(_Exited):
        cli.run()
    assert fast_exit == {"os._exit": [1], "atexit": 1}
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("get, put", [(sys.getprofile, sys.setprofile),
                                      (sys.gettrace, sys.settrace)],
                         ids=["profile", "trace"])
def test_run_takes_sys_exit_under_a_profiler_or_tracer(capsys, monkeypatch, fast_exit,
                                                        get, put):
    monkeypatch.setattr(sys, "argv", ["dgcalc", "zoo", "curl"])
    before = get()
    put(lambda *args: None)
    try:
        with pytest.raises(SystemExit) as exc:
            cli.run()
    finally:
        put(before)
    assert exc.value.code == 0
    # the interpreter's own exit runs the atexit handlers
    assert fast_exit == {"os._exit": [], "atexit": 0}
    assert capsys.readouterr().out == operator_json(zoo.curl())


def test_run_calls_an_atexit_handler_exactly_once():
    """In a child: the handler runs inside `run`, before os._exit, and not
    again when the child, its os._exit a no-op, goes on to exit normally."""
    code = "\n".join([
        "import atexit, os, sys",
        "from dgcalc import cli",
        "atexit.register(print, 'handler', flush=True)",
        "os._exit = lambda code: print('os._exit', code, flush=True)",
        "sys.argv = ['dgcalc', 'zoo', 'nosuch']",
        "cli.run()",
    ])
    done = subprocess.run([sys.executable, "-c", code], env=_cli_env(),
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "handler\nos._exit 1\n")
    assert done.stderr == "error: unknown zoo operator 'nosuch'\n"


def test_profiled_process_writes_its_profile(tmp_path):
    done = subprocess.run([sys.executable, "-m", "cProfile", "-o", "prof.out",
                           "-m", "dgcalc.cli", "zoo", "curl"], cwd=tmp_path,
                          env=_cli_env(), capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == operator_json(zoo.curl())
    assert pstats.Stats(str(tmp_path / "prof.out")).total_calls > 0


@pytest.mark.parametrize("args, stdin, shown", [
    # pdb has dropped its trace function after `c` with no breakpoint set
    (["-m", "pdb"], "c\nq\n", "The program exited via sys.exit(). Exit status: 0"),
    (["-i"], "", ">>> "),
], ids=["pdb", "inspect"])
def test_a_debugged_process_keeps_the_interpreters_exit(args, stdin, shown):
    done = subprocess.run([sys.executable, *args, "-m", "dgcalc.cli", "zoo", "curl"],
                          input=stdin, env=_cli_env(), capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert operator_json(zoo.curl()) in done.stdout
    assert shown in done.stdout + done.stderr

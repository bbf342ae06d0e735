"""Start-up: which modules a fresh process loads, and the lazy package surface.

Each check runs a new interpreter, because this test process has long since
imported every layer.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dgcalc
from dgcalc import duality, zoo
from dgcalc.operators import save_operator

SRC = str(Path(dgcalc.__file__).resolve().parents[1])
UPPER = {"dgcalc.duality", "dgcalc.zoo", "dgcalc.report"}
# what argparse loads; a well-formed command line is read without it
ARGPARSE = {"argparse", "gettext", "locale"}


def _python(*args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


LIST_MODULES = "\nsys.stderr.write('\\n' + ' '.join(sorted(sys.modules)))\n"

# what `python -m dgcalc.cli ARGV` runs, inside the child that lists
# sys.modules: `cli.run` ends the process in os._exit, so the wrapped
# os._exit lists them there, after a line naming its code; argparse's own
# exits (--help) raise SystemExit, and the list follows the script
RUN_CLI = """
import os, runpy

def _exit(code, _os_exit=os._exit):
    sys.stderr.write(f"\\nfast exit {code}\\n" + " ".join(sorted(sys.modules)))
    sys.stderr.flush()
    _os_exit(code)

os._exit = _exit
try:
    runpy.run_module("dgcalc.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code in (0, None), exc.code
"""


def _child(code: str, *argv: str) -> tuple[set[str], str]:
    """The modules in sys.modules at the end of a fresh `python -c CODE
    ARGV`, and the child's stderr."""
    proc = _python("-c", "import sys\n" + code + LIST_MODULES, *argv)
    assert proc.returncode == 0, proc.stderr
    names = set(proc.stderr.rsplit("\n", 1)[-1].split())
    assert "dgcalc.operators" in names
    return names, proc.stderr


def _cli_loaded(*argv: str) -> set[str]:
    """The modules `python -m dgcalc.cli ARGV` has loaded when `cli.run`
    ends it, which it must do by the fast exit with code 0."""
    names, err = _child(RUN_CLI, *argv)
    assert err.count("fast exit") == 1 and "\nfast exit 0\n" in err, err
    return names


@pytest.fixture(scope="module")
def curl_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "curl3.json"
    save_operator(zoo.curl(), path)
    return str(path)


@pytest.fixture(scope="module")
def rational_doc(tmp_path_factory):
    """A square operator with p/q coefficients and a weight "2", the kind
    of document that once needed `fractions` to load."""
    doc = {
        "name": "rational",
        "nvars": 3,
        "source": {"name": "s", "components": [{"label": "a", "weight": "2"},
                                               {"label": "b", "weight": "1"}]},
        "target": {"name": "t", "components": [{"label": "x", "weight": "2"},
                                               {"label": "y", "weight": 1}]},
        "matrix": [["3/2*d1 - d2", "-1/3*d3^2"], ["d2*d3 + 5/7", "-d1"]],
    }
    path = tmp_path_factory.mktemp("startup") / "rational.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["adjoint", "{doc}"],
    ["adjoint", "{doc}", "-o", "{out}/adj.json"],
    ["compose", "{doc}", "{doc}"],
    ["cc", "{doc}"],
    ["cc", "{doc}", "-o", "{out}/cc.json"],
    ["rank", "{doc}"],
    ["resolve", "{doc}"],
    ["factor", "{doc}", "{doc}"],
    ["zoo", "--help"],
], ids=["help", "adjoint", "adjoint-o", "compose", "cc", "cc-o", "rank", "resolve",
        "factor", "zoo-help"])
def test_core_commands_load_no_upper_layer(argv, rational_doc, tmp_path):
    argv = [a.format(doc=rational_doc, out=tmp_path) for a in argv]
    if "--help" in argv:
        # argparse's own exit keeps the interpreter's exit path
        names, err = _child(RUN_CLI, *argv)
        assert "fast exit" not in err
        assert "argparse" in names
    else:
        names = _cli_loaded(*argv)
        assert not names & ARGPARSE
    assert not names & (UPPER | {"dataclasses", "inspect"})
    # no Fraction is made on the way, so neither module is imported
    assert not names & {"fractions", "decimal"}


@pytest.mark.parametrize("argv", [
    ["zoo"],
    ["paramtest", "{doc}"],
    ["minparam", "{doc}"],
    ["ext", "{doc}", "1"],
    ["report", "--only", "c10"],
], ids=["zoo-list", "paramtest", "minparam", "ext", "report-c10"])
def test_upper_commands_load_no_dataclasses(argv, curl_doc):
    names = _cli_loaded(*(a.format(doc=curl_doc) for a in argv))
    assert names & UPPER
    assert not names & ({"dataclasses", "inspect"} | ARGPARSE)


def test_zoo_builds_without_duality_or_report(tmp_path):
    for argv in (["killing", "--n", "3"],
                 ["riemann", "--n", "3", "--metric", "minkowski", "-o", f"{tmp_path}/"]):
        names = _cli_loaded("zoo", *argv)
        assert "dgcalc.zoo" in names
        assert not names & {"dgcalc.duality", "dgcalc.report", "dataclasses", "inspect"}
        assert not names & ARGPARSE, argv


@pytest.mark.parametrize("argv", [
    ["weyl", "--n", "4"],
    ["box_weyl", "--n", "4", "--metric", "minkowski"],
    ["conformal_killing", "--n", "3"],
    ["cauchy", "--n", "3"],
    ["c_map", "--n", "4"],
], ids=["weyl", "box_weyl", "conformal_killing", "cauchy", "c_map"])
def test_integer_metric_zoo_builds_load_no_fractions(argv):
    names = _cli_loaded("zoo", *argv)
    assert "dgcalc.zoo" in names
    assert not names & {"fractions", "decimal"}


def test_rational_moduli_zoo_build_keeps_its_bytes():
    proc = _python("-m", "dgcalc.cli", "zoo", "lame", "--n", "2", "--lam", "3/2")
    assert proc.returncode == 0, proc.stderr
    assert '"7/2*d1^2 + d2^2"' in proc.stdout
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "cb233cf210a5f9a7c591022e2dba8d51c432eec61d8f0d74493744f687256470"
    )


def test_clear_caches_imports_no_upper_layer():
    names, _ = _child("import dgcalc\ndgcalc.clear_caches()")
    assert not names & UPPER


PUBLIC_SURFACE = """
import sys
from types import ModuleType

import dgcalc

lazy = ("duality", "zoo", "report", "cli")
assert not {f"dgcalc.{m}" for m in lazy} & set(sys.modules), "loaded eagerly"
listed = dir(dgcalc)
assert set(dgcalc.__all__) <= set(listed) and set(lazy) <= set(listed)

for name in lazy:
    assert getattr(dgcalc, name) is sys.modules[f"dgcalc.{name}"], name
for name in dgcalc.__all__:
    value = getattr(dgcalc, name)
    if isinstance(value, ModuleType):
        assert value is sys.modules[f"dgcalc.{name}"], name
    elif name != "__version__":
        assert value.__module__.startswith("dgcalc."), name
        assert getattr(sys.modules[value.__module__], name) is value, name

# names read through the package's __getattr__ are not stored on it
assert "param_test" not in vars(dgcalc)

star = {}
exec("from dgcalc import *", star)
for name in dgcalc.__all__:
    assert star[name] is getattr(dgcalc, name), name

try:
    dgcalc.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'dgcalc' has no attribute 'no_such_name'", exc
else:
    raise AssertionError("no AttributeError")
print("ok")
"""


def test_lazy_package_public_surface():
    proc = _python("-c", PUBLIC_SURFACE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_a_lazy_name_is_what_its_module_holds_now(monkeypatch):
    def fake(d1):
        raise AssertionError("not called")

    monkeypatch.setattr(duality, "param_test", fake)
    assert dgcalc.param_test is fake
    monkeypatch.undo()
    assert dgcalc.param_test is duality.param_test
    assert "param_test" not in vars(dgcalc)


FIRST_LAZY_READ = """
import sys

import dgcalc

assert "dgcalc.duality" not in sys.modules
ext_module = dgcalc.ext_module
assert ext_module is sys.modules["dgcalc.duality"].ext_module
assert dgcalc.duality is sys.modules["dgcalc.duality"]
print("ok")
"""


def test_a_first_lazy_name_read_loads_its_module():
    proc = _python("-c", FIRST_LAZY_READ)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


# -- the records of the upper layers -------------------------------------------------


def test_record_texts_are_pinned():
    assert repr(zoo.euclidean(2)) == (
        "Metric(name='euclidean', tag='e', n=2, matrix=((1, 0), (0, 1)))"
    )
    assert repr(zoo.ZOO["curl"]) == (
        "ZooEntry(needs_metric=False, needs_n=False, needs_lame=False, "
        "needs_r=False, fixed_n=3, summary='curl in three variables')"
    )
    rep = duality.param_test(zoo.einstein_lin(zoo.minkowski(4)))
    assert str(rep.torsion[0]) == (
        "(0, d2*d3, -d2^2, 0, -d1*d3, d1*d2, 0, 0, 0, 0)  "
        "[order 2, annihilated by d1^2 + d2^2 + d3^2 - d4^2]"
    )


def test_equal_metrics_are_equal_and_hash_alike():
    a, b = zoo.minkowski(3), zoo.minkowski(3)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != zoo.euclidean(3)
    assert a[3, 3] == -1

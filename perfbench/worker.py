"""One benchmark process: `python3 perfbench/worker.py MODE SPEC OUT [-- ARGV]`.

Modes:
  report     one cold run_report() in this fresh interpreter
  session    one pass over the session-mix query stream
  cli-setup  import the CLI and write one pass's input documents
  cli        run one CLI command under the tracer (traced cli-docs only)
  selftest   check the tracer itself

SPEC is a JSON file written by run.py; the result goes to the JSON file OUT.
Timings are CPU time of this process (user plus system, all threads), so
set-up time includes interpreter start.  The speed probe runs before and
after every operation, outside its timing, and every probe time is
returned in probes.  PERFBENCH_T_SPAWN holds the parent's perf_counter()
at spawn time (the clock is system-wide), from which the traced CLI
measures its wall-clock start-up.
"""

from __future__ import annotations

from time import perf_counter, process_time

T_ENTER = perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from random import Random  # noqa: E402

import gen  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402

# Errors the library documents for these queries; on a random operator
# such an error is a legitimate outcome, recorded in the outcome digest.
EXPECTED_ERRORS = {
    "cc": ("BudgetExceeded",),
    "param_test": ("BudgetExceeded", "TorsionWitnessError"),
    "resolve": ("BudgetExceeded",),
    "ext1": ("BudgetExceeded",),
    "ext2": ("BudgetExceeded",),
    "rank": (),
    "factor": ("BudgetExceeded",),
}


def sha(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def _t_spawn() -> float:
    return float(os.environ.get("PERFBENCH_T_SPAWN", T_ENTER))


def _import_dgcalc(root: Path):
    import dgcalc
    import dgcalc.cli  # noqa: F401  (imports every layer)

    src = (root / "src").resolve()
    if src not in Path(dgcalc.__file__).resolve().parents:
        raise SystemExit(f"dgcalc imported from {dgcalc.__file__}, not {src}")
    return dgcalc


def _start(spec: dict):
    """Import the program and, for a traced pass, install the tracer."""
    dgcalc = _import_dgcalc(Path(spec["root"]))
    tr = None
    if spec.get("trace"):
        tr = tracing.Tracer()
        tr.install()
    elif tracing.wrappers_present():
        raise SystemExit(f"wrappers left in an untraced run: {tracing.wrappers_present()}")
    return dgcalc, tr


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- report-cold -----------------------------------------------------------------


class _ProbedCpuClock:
    """Stands in for the `time` module inside dgcalc.report, which reads
    time.perf_counter() before and after each check.  Each reading first
    runs the speed probe, then returns the process's CPU time less all
    probe time so far: a row records its check's own CPU seconds, and
    probes[2k] and probes[2k + 1] are the probes just before and after
    check k."""

    def __init__(self):
        self.probes: list[float] = []
        self.probe_total = 0.0

    def perf_counter(self) -> float:
        t = speed.probe()
        self.probes.append(t)
        self.probe_total += t
        return process_time() - self.probe_total


def run_report(spec: dict) -> dict:
    dgcalc, tr = _start(spec)
    clock = _ProbedCpuClock()
    dgcalc.report.time = clock
    c_ready, t_ready = process_time(), perf_counter()
    rows = dgcalc.report.run_report()
    t_done = perf_counter()
    if tr:
        tr.active = False
    return {
        "setup_s": c_ready,
        "probes": clock.probes,
        "wall_s": t_done - t_ready,
        "digest": sha(dgcalc.report.rows_to_json(rows)),
        "rows": [[r.id, r.passed, r.seconds] for r in rows],
        "spans": tr.spans if tr else None,
        "peak_rss_mb": _maxrss_mb(),
    }


# -- session-mix -------------------------------------------------------------------


def _strs(elems) -> list:
    from dgcalc.poly import serialize

    return [[serialize(p) for p in e.entries] for e in elems]


def _render(dgcalc, kind: str, res) -> str:
    ops = dgcalc.operators
    if kind in ("cc", "factor"):
        return ops.operator_json(res)
    if kind == "param_test":
        return json.dumps({
            "parametrizable": res.parametrizable,
            "ext2_zero": res.ext2_zero,
            "torsion": [[_strs([t.row]), t.order, str(t.annihilator)] for t in res.torsion],
            "parametrization": res.parametrization.entry_strs(),
            "recomputed": res.recomputed_cc.entry_strs(),
        })
    if kind == "resolve":
        return json.dumps({"dims": list(res.dims), "complete": res.complete,
                           "euler": res.euler_characteristic,
                           "steps": [_strs(s) for s in res.steps]})
    if kind in ("ext1", "ext2"):
        return json.dumps({"index": res.index, "is_zero": res.is_zero, "rank": res.rank,
                           "generators": _strs(res.generators),
                           "relations": _strs(res.relations)})
    return str(res)


def _point_rank(op, point: list[Fraction]) -> int:
    """Rank of the symbol at one point, by plain elimination over Q."""
    m = [[gen.eval_canonical(t, point) for t in row] for row in op.entry_strs()]
    rank, cols = 0, len(m[0])
    for c in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][c] / m[rank][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _verify(dgcalc, kind: str, op, res, left, rng: Random) -> str | None:
    """An identity the result must satisfy, checked outside the timed
    region; returns a description of the violation or None."""
    compose = dgcalc.operators.compose
    if kind == "cc" and not compose(res, op).is_zero():
        return "compose(cc(D), D) is not zero"
    if kind == "param_test":
        if not compose(op, res.parametrization).is_zero():
            return "compose(D, parametrization) is not zero"
        if res.parametrizable != (not res.torsion):
            return "verdict and torsion list disagree"
    if kind == "resolve" and res.complete:
        rank = dgcalc.engine.fraction_rank(op.rows())
        if res.euler_characteristic != op.source.dim - rank:
            return "Euler characteristic != source.dim - fraction_rank"
    if kind in ("ext1", "ext2") and (res.rank < 0 or (res.is_zero and res.rank)):
        return "Ext rank inconsistent"
    if kind == "rank":
        at_points = max(_point_rank(op, gen.random_point(rng, op.nvars)) for _ in range(2))
        if at_points != res:
            return f"fraction_rank {res} != symbol rank {at_points} at random points"
    if kind == "factor" and compose(res, op) != compose(left, op):
        return "factor identity fails"
    return None


def run_session(spec: dict) -> dict:
    dgcalc, tr = _start(spec)
    if tr:
        tr.active = False  # set-up is not traced
    plan = spec["plan"]
    pool = {}
    for name, zname, n, metric in plan["zoo"]:
        pool[name] = dgcalc.zoo.build(zname, n=n, metric=metric)
    for name, doc in plan["random"].items():
        pool[name] = dgcalc.operators.operator_from_dict(doc)
    lefts = {}
    for i, q in enumerate(plan["queries"]):
        if q["kind"] == "factor":
            op = pool[q["op"]]
            lefts[i] = dgcalc.operators.operator_from_dict(
                gen.left_factor_doc(*q["left"], op.nvars, 2, op.target.dim))
    c_ready = process_time()
    ops, probes = [], []
    for i, q in enumerate(plan["queries"]):
        kind, op = q["kind"], pool[q["op"]]
        probes.append(speed.probe())
        if tr:
            tr.active = True
        c0, t0 = process_time(), perf_counter()
        try:
            if kind == "cc":
                res = dgcalc.cc(op)
            elif kind == "param_test":
                res = dgcalc.param_test(op)
            elif kind == "resolve":
                res = dgcalc.resolve_module(op.rows())
            elif kind in ("ext1", "ext2"):
                res = dgcalc.ext_module(op, int(kind[-1]))
            elif kind == "rank":
                res = dgcalc.fraction_rank(op.rows())
            else:
                res = dgcalc.factor_through(dgcalc.compose(lefts[i], op), op)
            err = None
        except Exception as exc:  # every outcome is recorded, not raised
            res, err = None, exc
        latency, wall = process_time() - c0, perf_counter() - t0
        if tr:
            tr.active = False
        if err is None:
            outcome = _render(dgcalc, kind, res)
            problem = _verify(dgcalc, kind, op, res, lefts.get(i),
                              Random(f"{spec['seed']}:{i}"))
        else:
            outcome = f"error: {type(err).__name__}: {err}"
            problem = (None if type(err).__name__ in EXPECTED_ERRORS[kind]
                       else f"undocumented {type(err).__name__}: {err}")
        key = f"{kind}:{q['op']}"
        if "left" in q and q["left"][1] != q["op"]:
            key += f"@{q['left'][1]}"
        ops.append({"key": key, "op": q["op"], "latency": latency, "wall": wall,
                    "digest": sha(outcome), "problem": problem})
    probes.append(speed.probe())  # probes[i] and probes[i + 1] bracket query i
    return {
        "setup_s": c_ready,
        "probes": probes,
        "wall_s": sum(o["wall"] for o in ops),
        "ops": ops,
        "spans": tr.spans if tr else None,
        "peak_rss_mb": _maxrss_mb(),
    }


# -- cli-docs ------------------------------------------------------------------------


def run_cli_setup(spec: dict) -> dict:
    _import_dgcalc(Path(spec["root"]))
    plan = gen.cli_plan(spec["seed"])
    base = Path(spec["pass_dir"])
    for rel, doc in plan["docs"].items():
        path = base / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2) + "\n")
    (base / "ops").mkdir(exist_ok=True)
    return {"setup_s": process_time()}


def run_cli_traced(out: Path, argv: list[str]) -> int:
    """The traced twin of `python -m dgcalc.cli ARGV`; the spans file is
    written even when the command fails."""
    tr = tracing.Tracer()
    tr.install()
    import dgcalc.cli

    t_main = perf_counter()
    code = 1
    try:
        code = tr.run("cli.main", dgcalc.cli.main, argv)
    finally:
        out.write_text(json.dumps({"start_s": t_main - _t_spawn(), "spans": tr.spans}))
    return code


# -- tracer self-tests ------------------------------------------------------------------


def _snapshot(dgcalc) -> dict:
    snap = {}
    for m in tracing._dgcalc_modules():
        for key, value in vars(m).items():
            snap[(m.__name__, key)] = value
    for cls in (dgcalc.engine.FreeElem, dgcalc.engine.GroebnerBasis):
        for key, value in vars(cls).items():
            snap[(cls.__name__, key)] = value
    return snap


def run_selftest(spec: dict) -> dict:
    """Every wrapped call is seen, wrappers are removed again, and spans add up.

    A profile hook counts calls of each original function's code object,
    however it was reached; a call that reached an original through a
    binding the tracer missed shows as a hook count above the span count.
    For an lru_cache'd zoo constructor the hook sees only cache misses, so a
    span name that covers one is checked as hook count <= span count.
    """
    problems: list[str] = []
    dgcalc = _import_dgcalc(Path(spec["root"]))
    before = _snapshot(dgcalc)
    tr = tracing.Tracer()
    tr.install()
    span_name, cached = {}, set()
    for modname, attr, name in tracing.TARGETS:
        owner = sys.modules[modname]
        for part in attr.split("."):
            owner = getattr(owner, part)
        orig = getattr(owner, tracing.MARK, owner)  # unwrapped: every call escapes
        if not hasattr(orig, "__code__"):
            cached.add(name)
            orig = orig.__wrapped__
        span_name[orig.__code__] = name
    seen: dict[str, int] = {}

    def hook(frame, event, arg):
        if event == "call":
            name = span_name.get(frame.f_code)
            if name is not None:
                seen[name] = seen.get(name, 0) + 1

    def counted(fn, *args):
        start = len(tr.spans)
        seen.clear()
        sys.setprofile(hook)
        try:
            result = fn(*args)
        finally:
            sys.setprofile(None)
        spans: dict[str, int] = {}
        for s in tr.spans[start:]:
            spans[s[0]] = spans.get(s[0], 0) + 1
        for name, n in seen.items():
            got = spans.get(name, 0)
            if got < n or (got != n and name not in cached):
                problems.append(f"{name}: {n} calls but {got} spans")
        return result, spans

    zoo = dgcalc.zoo
    ein = zoo.einstein_lin(zoo.minkowski(4))
    _, pt_spans = counted(dgcalc.param_test, ein)
    groebner_calls = tracing.summarize(tr.spans)["duality.param_test.groebner_calls"]
    if groebner_calls != pt_spans.get("engine.groebner"):
        problems.append("Groebner spans under param_test miscounted")

    def coverage():
        path = Path(spec["work"]) / "selftest_op.json"
        kill = zoo.killing(zoo.euclidean(3))
        dgcalc.save_operator(kill, path)
        kill = dgcalc.load_operator(path)
        dgcalc.compose(dgcalc.cc(kill), kill)
        dgcalc.adjoint(kill)
        curl = zoo.build("curl")
        dgcalc.factor_through(dgcalc.compose(curl, curl), curl)
        dgcalc.resolve_module(kill.rows())
        dgcalc.ext_module(zoo.div(3), 1)
        dgcalc.minimal_parametrization(zoo.div(3))
        dgcalc.fraction_rank(kill.rows())

    _, cover_spans = counted(coverage)
    tracing.summarize(tr.spans)
    names = {name for _, _, name in tracing.TARGETS}
    missing = sorted(names - set(pt_spans) - set(cover_spans))
    if missing:
        problems.append(f"self-test reached no span of {missing}")
    tr.uninstall()
    after = _snapshot(dgcalc)
    changed = [k for k in before if after.get(k) is not before[k]]
    if changed or tracing.wrappers_present():
        problems.append(f"uninstall left changes: {changed[:5]} {tracing.wrappers_present()[:5]}")
    return {"problems": problems, "param_test_groebner_calls": groebner_calls}


def main() -> int:
    mode = sys.argv[1]
    if mode == "cli":
        return run_cli_traced(Path(sys.argv[2]), sys.argv[4:])
    spec = json.loads(Path(sys.argv[2]).read_text())
    result = {
        "report": run_report,
        "session": run_session,
        "cli-setup": run_cli_setup,
        "selftest": run_selftest,
    }[mode](spec)
    Path(sys.argv[3]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

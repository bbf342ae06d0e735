"""dgcalc benchmark: `python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1`.

Run from the root of a source checkout.  Workloads (one client, closed loop,
at most one child process at a time):

  report-cold  one full run_report() per fresh interpreter: every module
               cache and lru_cache starts empty.
  cli-docs     a fixed list of `python -m dgcalc.cli` commands, one process
               each: zoo builds, adjoint/compose of large curvature
               operators, adjoint/cc round trips of seeded documents.
  session-mix  one long-lived process per pass runs a seeded stream of
               library queries over a skewed pool of small operators.

A run makes a fixed number of passes, set by --seconds and the
workload's nominal pass cost (PASS_COST), never by how fast the program
turns out to be.  Passes alternate PYTHONHASHSEED between two values and
every output digest must agree across all of them.  With --trace 1,
untraced and traced passes alternate, the tracer self-test runs once, and
the per-layer metrics are reported; with --trace 0 the end-to-end metrics
are.  The last line of stdout is one JSON object: correct, attempted,
failed, metrics.  Lines before it give every metric with unit and sample
count, and the run's environment.

`--record-digests` runs one pass and rewrites the seed-independent entries
of perfbench/digests.json; use it only for a stated change of output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import speed  # noqa: E402
from tracer import summarize  # noqa: E402

WORKLOADS = ("report-cold", "cli-docs", "session-mix")
HASHSEEDS = ("1", "12345")
# Nominal seconds of one pass, set-up included, on a 2-vCPU x86 VM with
# Python 3.11; a run makes round(--seconds * 0.85 / PASS_COST) passes, so
# it measures about --seconds there.  The constants fix the number of
# passes, so a faster program gets as many samples as a slower one.
PASS_COST = {"report-cold": 2.9, "cli-docs": 5.9, "session-mix": 1.1}
MIN_PASSES = 4
CLI_SETUPS = 3  # set-up processes per cli-docs pass; set-up is short
# A child still running this long after --seconds is over is killed, and
# the margin grows to twice the longest pass seen.
DEADLINE_MARGIN = 140.0
DIGESTS = HERE / "digests.json"

END_TO_END = [
    ("setup_s", "s"), ("pass_s", "s"), ("op_p50_s", "s"), ("op_p90_s", "s"),
    ("ops_ok_ratio", "ratio"), ("peak_rss_mb", "MiB"),
]

# name, unit; self times are summed over a pass, then the median over
# traced passes is taken.  Counts are per pass and must repeat exactly.
PER_LAYER = [
    ("cli.start_s", "s"), ("cli.main_s", "s"),
    ("poly.parse.calls", "count"), ("poly.parse.self_s", "s"),
    ("poly.parse.terms_out", "count"),
    ("poly.serialize.calls", "count"), ("poly.serialize.self_s", "s"),
    ("operators.load.self_s", "s"), ("operators.dump.self_s", "s"),
    ("operators.adjoint.self_s", "s"), ("operators.compose.self_s", "s"),
    ("operators.cc.self_s", "s"), ("operators.factor.self_s", "s"),
    ("engine.groebner.calls", "count"), ("engine.groebner.self_s", "s"),
    ("engine.groebner.repeat_ratio", "ratio"), ("engine.groebner.basis_out", "count"),
    ("engine.syzygies.calls", "count"), ("engine.syzygies.self_s", "s"),
    ("engine.syzygies.relations_out", "count"),
    ("engine.minimize.calls", "count"), ("engine.minimize.self_s", "s"),
    ("engine.minimize.kept_ratio", "ratio"),
    ("engine.dot.calls", "count"), ("engine.dot.self_s", "s"),
    ("engine.contains.calls", "count"), ("engine.contains.self_s", "s"),
    ("engine.resolve.calls", "count"), ("engine.resolve.self_s", "s"),
    ("engine.divide.calls", "count"), ("engine.divide.self_s", "s"),
    ("engine.rank.calls", "count"), ("engine.rank.self_s", "s"),
    ("duality.param_test.self_s", "s"), ("duality.param_test.groebner_calls", "count"),
    ("duality.ext.self_s", "s"), ("duality.minparam.self_s", "s"),
    ("zoo.calls", "count"), ("zoo.self_s", "s"),
] + [(f"report.c{k:02d}_s", "s") for k in range(1, 12)] + [
    ("trace.overhead_ratio", "ratio"),
]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Failures:
    """Operations attempted and the ones that failed, with reasons.  A
    failure found outside one operation, such as a worker that crashed or
    a self-test that failed, counts as one more failed operation."""

    def __init__(self):
        self.attempted = 0
        self.reasons: list[str] = []

    def op(self, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.reasons.append(problem)


class Child:
    """Spawns one child process at a time, killed if it is still running
    at the deadline, and returns its exit code, wall time, CPU time (user
    plus system) and peak resident memory."""

    def __init__(self, env: dict, deadline: float):
        self.env = env
        self.deadline = deadline  # perf_counter() time; run.py moves it

    def run(self, argv: list[str], *, cwd: Path, hashseed: str,
            stdout: Path | None = None, stderr: Path | None = None
            ) -> tuple[int, float, float, float]:
        env = dict(self.env, PYTHONHASHSEED=hashseed)
        out = open(stdout, "wb") if stdout else subprocess.DEVNULL
        err = open(stderr, "wb") if stderr else subprocess.DEVNULL
        try:
            t0 = perf_counter()
            env["PERFBENCH_T_SPAWN"] = repr(t0)
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - perf_counter()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            elapsed = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            for f in (out, err):
                if f is not subprocess.DEVNULL:
                    f.close()
        return (proc.returncode, elapsed, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)


class Workload:
    def __init__(self, seed: int, work: Path, child: Child, digests: dict):
        self.seed = seed
        self.work = work
        self.child = child
        self.recorded = digests
        self.fail = Failures()
        self.outputs: dict[str, str] = {}  # output key -> digest of pass 0

    def worker(self, mode: str, spec: dict, hashseed: str, tag: str) -> dict | None:
        spec_path = self.work / f"{tag}.spec.json"
        out_path = self.work / f"{tag}.out.json"
        spec = dict(spec, root=str(ROOT), work=str(self.work), seed=self.seed)
        spec_path.write_text(json.dumps(spec))
        out_path.unlink(missing_ok=True)
        code, _, _, _ = self.child.run(
            [sys.executable, str(HERE / "worker.py"), mode, str(spec_path), str(out_path)],
            cwd=self.work, hashseed=hashseed, stderr=self.work / f"{tag}.err")
        if code != 0 or not out_path.exists():
            err = (self.work / f"{tag}.err").read_text()[-400:]
            self.fail.op(f"{mode} worker exited {code}: {err}")
            return None
        return json.loads(out_path.read_text())

    def output(self, key: str, digest: str, recorded: bool) -> str | None:
        """Check one output digest against the first pass and, where the
        output does not depend on the seed, against digests.json."""
        first = self.outputs.setdefault(key, digest)
        if first != digest:
            return f"{key}: output differs between passes (PYTHONHASHSEED or run)"
        if recorded and self.recorded is not None and self.recorded.get(key) != digest:
            return f"{key}: digest {digest[:12]} does not match the recorded one"
        return None


class ReportCold(Workload):
    def run_pass(self, i: int, traced: bool, hashseed: str) -> dict | None:
        res = self.worker("report", {"trace": traced}, hashseed, f"pass{i}")
        if res is None:
            return None
        for rid, passed, _ in res["rows"]:
            self.fail.op(None if passed else f"report check {rid} failed")
        self.fail.op(self.output("report", res["digest"], True))
        crit: dict[str, float] = {}
        for rid, _, seconds in res["rows"]:
            crit[rid[:3]] = crit.get(rid[:3], 0.0) + seconds
        pr = res["probes"]  # pr[2k], pr[2k + 1] bracket check k
        return {"setups": [res["setup_s"]], "setup_probes": pr[:1],
                "ops": [r[2] for r in res["rows"]],
                "op_probes": [(a + b) / 2 for a, b in zip(pr[::2], pr[1::2])],
                "wall_s": res["wall_s"], "peak_rss_mb": res["peak_rss_mb"],
                "spans": res["spans"], "report": crit}

    def record(self) -> dict:
        return {"report": self.outputs["report"]}


class CliDocs(Workload):
    def __init__(self, *a):
        super().__init__(*a)
        self.plan = gen.cli_plan(self.seed)

    def check(self, cmd: dict, pdir: Path, stdout: bytes) -> str | None:
        name = " ".join(cmd["argv"])
        written = (pdir / cmd["writes"]).read_bytes() if "writes" in cmd else b""
        kind = cmd["check"]
        key = cmd.get("key", name)
        problem = self.output(key, sha(stdout + b"\0" + written), kind == "digest")
        if problem:
            return problem
        doc = json.loads(written or stdout) if kind != "digest" else None
        if kind == "zero" and any(e != "0" for row in doc["matrix"] for e in row):
            return f"{name}: composition is not zero"
        if kind == "nonzero" and all(e == "0" for row in doc["matrix"] for e in row):
            return f"{name}: no compatibility conditions found"
        if kind in ("adjoint", "same"):
            nvars, mat = self.plan["plans"][cmd["doc"]]
            for point in self.plan["points"][cmd["doc"]]:
                neg = [-x for x in point[:-1]] + [point[-1]]
                for i, row in enumerate(doc["matrix"]):
                    for j, text in enumerate(row):
                        got = gen.eval_canonical(text, point)
                        want = (gen.eval_entry(mat[j][i], neg) if kind == "adjoint"
                                else gen.eval_entry(mat[i][j], point))
                        if got != want:
                            return f"{name}: entry [{i}][{j}] wrong at a sample point"
        return None

    def run_pass(self, i: int, traced: bool, hashseed: str) -> dict | None:
        pdir = self.work / f"pass{i}"
        shutil.rmtree(pdir, ignore_errors=True)
        pdir.mkdir(parents=True)
        setups, probes = [], []
        for _ in range(CLI_SETUPS):
            probes.append(speed.probe())
            res = self.worker("cli-setup", {"pass_dir": str(pdir)}, hashseed, f"setup{i}")
            if res is None:
                return None
            setups.append(res["setup_s"])
        latencies, walls, starts, spans, peak = [], [], [], [], 0.0
        for k, cmd in enumerate(self.plan["commands"]):
            out, err = pdir / f"cmd{k}.out", pdir / f"cmd{k}.err"
            if traced:
                span_file = pdir / f"cmd{k}.spans.json"
                argv = [sys.executable, str(HERE / "worker.py"), "cli", str(span_file), "--"]
            else:
                argv = [sys.executable, "-m", "dgcalc.cli"]
            probes.append(speed.probe())
            code, wall, cpu, rss = self.child.run(argv + cmd["argv"], cwd=pdir,
                                                  hashseed=hashseed, stdout=out, stderr=err)
            latencies.append(cpu)
            walls.append(wall)
            peak = max(peak, rss)
            if code != 0:
                self.fail.op(f"{' '.join(cmd['argv'])}: exit {code}: {err.read_text()[-300:]}")
                continue
            self.fail.op(self.check(cmd, pdir, out.read_bytes()))
            if traced:
                data = json.loads(span_file.read_text())
                starts.append(data["start_s"])
                offset = len(spans)
                spans += [[s[0], s[1], s[2], s[3] + offset if s[3] >= 0 else -1, s[4]]
                          for s in data["spans"]]
        probes.append(speed.probe())
        around = bracket(probes)
        return {"setups": setups, "setup_probes": around[:CLI_SETUPS],
                "ops": latencies, "op_probes": around[CLI_SETUPS:], "wall_s": sum(walls),
                "peak_rss_mb": peak, "spans": spans if traced else None,
                "cli_start": starts}

    def record(self) -> dict:
        return {c["key"]: self.outputs[c["key"]]
                for c in self.plan["commands"] if c["check"] == "digest"}


class SessionMix(Workload):
    def __init__(self, *a):
        super().__init__(*a)
        self.plan = gen.session_plan(self.seed)
        if self.recorded is None:  # recording: every query kind on every zoo operator
            self.plan["queries"] = [
                {"kind": k, "op": z[0], "left": [z[0], z[0]]}
                for k in gen.SESSION_KINDS for z in gen.SESSION_ZOO]

    def run_pass(self, i: int, traced: bool, hashseed: str) -> dict | None:
        res = self.worker("session", {"plan": self.plan, "trace": traced}, hashseed, f"pass{i}")
        if res is None:
            return None
        for o in res["ops"]:
            zoo_op = o["op"] not in self.plan["random"]
            self.fail.op(o["problem"] or self.output(o["key"], o["digest"], zoo_op))
        return {"setups": [res["setup_s"]], "setup_probes": res["probes"][:1],
                "ops": [o["latency"] for o in res["ops"]], "op_probes": bracket(res["probes"]),
                "wall_s": res["wall_s"], "peak_rss_mb": res["peak_rss_mb"],
                "spans": res["spans"]}

    def record(self) -> dict:
        return dict(self.outputs)


# -- metrics ---------------------------------------------------------------------


def pct(values: list[float], q: int) -> float:
    """The q-th percentile of values, by the inclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def bracket(probes: list[float]) -> list[float]:
    """For probes taken before interval 0, between every two intervals and
    after the last, the mean of the two around each interval."""
    return [(a + b) / 2 for a, b in zip(probes, probes[1:])]


def scaled(times: list[float], probes: list[float]) -> list[float]:
    """CPU times brought to the probe's nominal speed (see speed.py), each
    by the probe time measured around it."""
    return [t * speed.NOMINAL / pr for t, pr in zip(times, probes)]


def pass_time(p: dict) -> float:
    return sum(scaled(p["ops"], p["op_probes"]))


def end_to_end(passes: list[dict], fail: Failures) -> tuple[dict, dict]:
    """Medians over the run's fixed number of passes, of scaled CPU times.
    Every pass runs the same operations in the same order; the latency
    percentiles are taken over the operation list of each operation's
    median latency."""
    setups = [t for p in passes for t in scaled(p["setups"], p["setup_probes"])]
    latencies = [statistics.median(op)
                 for op in zip(*(scaled(p["ops"], p["op_probes"]) for p in passes))]
    values = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(pass_time(p) for p in passes),
        "op_p50_s": pct(latencies, 50),
        "op_p90_s": pct(latencies, 90),
        "ops_ok_ratio": 1.0 - len(fail.reasons) / max(1, fail.attempted),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    per_op = f"{len(latencies)} operations x {len(passes)} passes"
    samples = {"setup_s": f"{len(setups)} set-ups", "pass_s": f"{len(passes)} passes",
               "op_p50_s": per_op, "op_p90_s": per_op,
               "ops_ok_ratio": f"{fail.attempted} operations",
               "peak_rss_mb": f"{len(passes)} passes"}
    return values, samples


def _layer_values(summary: dict, p: dict) -> dict:
    def get(name, field):
        return summary.get(name, {}).get(field, 0)

    def notes(name):
        return summary.get(name, {}).get("notes", [])

    v = {}
    for span, metric in [
        ("poly.parse", "poly.parse"), ("poly.serialize", "poly.serialize"),
        ("engine.groebner", "engine.groebner"), ("engine.syzygies", "engine.syzygies"),
        ("engine.minimize", "engine.minimize"), ("engine.dot", "engine.dot"),
        ("engine.contains", "engine.contains"), ("engine.resolve", "engine.resolve"),
        ("engine.divide", "engine.divide"), ("engine.rank", "engine.rank"),
        ("zoo", "zoo"),
    ]:
        v[f"{metric}.calls"] = get(span, "calls")
        v[f"{metric}.self_s"] = get(span, "self_s")
    for name in ("load", "dump", "adjoint", "compose", "cc", "factor"):
        v[f"operators.{name}.self_s"] = get(f"operators.{name}", "self_s")
    for name in ("param_test", "ext", "minparam"):
        v[f"duality.{name}.self_s"] = get(f"duality.{name}", "self_s")
    v["duality.param_test.groebner_calls"] = summary["duality.param_test.groebner_calls"]
    v["poly.parse.terms_out"] = sum(notes("poly.parse"))
    gb = notes("engine.groebner")
    v["engine.groebner.repeat_ratio"] = sum(n[0] for n in gb) / len(gb) if gb else 0.0
    v["engine.groebner.basis_out"] = sum(n[1] for n in gb)
    v["engine.syzygies.relations_out"] = sum(notes("engine.syzygies"))
    mins = notes("engine.minimize")
    v["engine.minimize.kept_ratio"] = (
        sum(n[1] for n in mins) / sum(n[0] for n in mins) if mins else 0.0)
    starts = p.get("cli_start") or [0.0]
    v["cli.start_s"] = statistics.median(starts)
    mains = [s[2] - s[1] for s in p["spans"] if s[0] == "cli.main"] or [0.0]
    v["cli.main_s"] = statistics.median(mains)
    for k in range(1, 12):
        v[f"report.c{k:02d}_s"] = p.get("report", {}).get(f"c{k:02d}", 0.0)
    return v


def per_layer(traced: list[dict], untraced: list[dict], fail: Failures) -> dict:
    per_pass = []
    for p in traced:
        try:
            per_pass.append(_layer_values(summarize(p["spans"]), p))
        except ValueError as exc:
            fail.op(f"span tree check failed: {exc}")
    if not per_pass:
        return {}
    out = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_ratio":
            continue
        vals = [v[name] for v in per_pass]
        if unit != "s":
            if len(set(vals)) != 1:
                fail.op(f"{name} differs between traced passes: {vals}")
            out[name] = vals[0]
        else:
            out[name] = statistics.median(vals)
    out["trace.overhead_ratio"] = (statistics.median(pass_time(p) for p in traced)
                                   / statistics.median(pass_time(p) for p in untraced))
    return out


# -- main ----------------------------------------------------------------------------


def source_id() -> str:
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for f in sorted((ROOT / "src" / "dgcalc").rglob("*.py")):
        h.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # One CPU for this process and every child, so that the speed probe and
    # the operation it scales run on the same virtual CPU.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (ROOT / "src" / "dgcalc" / "__init__.py").is_file():
        print(f"error: no dgcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_build" / "perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    start = perf_counter()
    child = Child(env, start + args.seconds + DEADLINE_MARGIN)
    # the build: byte-compile once so no pass pays for it
    code, _, _, _ = child.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "dgcalc")],
                           cwd=ROOT, hashseed="0")
    if code != 0:
        print("error: dgcalc sources do not compile", file=sys.stderr)
        return 2

    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    cls = {"report-cold": ReportCold, "cli-docs": CliDocs, "session-mix": SessionMix}
    recorded = None if args.record_digests else digests.get(args.workload, {})
    wl = cls[args.workload](args.seed, work, child, recorded)

    n_passes = max(MIN_PASSES, round(args.seconds * 0.85 / PASS_COST[args.workload]))
    n_passes += n_passes % 2  # as many passes under each PYTHONHASHSEED
    if args.record_digests:
        n_passes = 1
    untraced, traced = [], []
    longest = 0.0
    for i in range(n_passes):
        is_traced = bool(args.trace) and i % 2 == 1
        hashseed = HASHSEEDS[(i // (2 if args.trace else 1)) % 2]
        t0 = perf_counter()
        res = wl.run_pass(i, is_traced, hashseed)
        if res is None:
            break
        (traced if is_traced else untraced).append(res)
        longest = max(longest, perf_counter() - t0)
        child.deadline = start + args.seconds + max(DEADLINE_MARGIN, 2 * longest)

    if args.record_digests:
        if wl.fail.reasons:
            print("\n".join(wl.fail.reasons), file=sys.stderr)
            return 1
        digests[args.workload] = wl.record()
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(digests[args.workload])} digests for {args.workload}")
        return 0

    selftest = None
    if args.trace:
        selftest = wl.worker("selftest", {}, HASHSEEDS[0], "selftest")
        for problem in (selftest or {}).get("problems", []):
            wl.fail.op(f"tracer self-test: {problem}")
    complete = len(untraced) + len(traced) == n_passes
    if not complete:
        wl.fail.op("run stopped before its last pass")

    metrics, samples = {}, {}
    if complete:
        if args.trace:
            values = per_layer(traced, untraced, wl.fail)
            units = dict(PER_LAYER)
        else:
            values, samples = end_to_end(untraced, wl.fail)
            units = dict(END_TO_END)
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units if k in values}

    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "python": platform.python_version(),
            "nproc": os.cpu_count(), "source": source_id()}
    if args.workload == "session-mix":
        meta["mix"] = gen.kind_mix(wl.plan)
    (work / "result.json").write_text(json.dumps({
        "meta": meta, "metrics": metrics, "failures": wl.fail.reasons,
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in untraced + traced],
        "spans": [p["spans"] for p in traced],
    }))
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items())
          + f" passes={len(untraced)}+{len(traced)}traced")
    if selftest is not None:
        verdict = "FAILED, see below" if selftest["problems"] else "passed"
        print(f"# tracer self-test {verdict}; param_test(einstein m4) made "
              f"{selftest['param_test_groebner_calls']} Groebner calls")
    for k, m in metrics.items():
        n = f"  (n={samples[k]})" if k in samples else ""
        print(f"{k:36s} {m['value']:.6g} {m['unit']}{n}")
    if not args.trace and complete:
        cpu, wall, probe = (statistics.median(f(p) for p in untraced) for f in (
            lambda p: sum(p["ops"]), lambda p: p["wall_s"], lambda p: statistics.mean(p["op_probes"])))
        print(f"# not metrics, medians over passes: unscaled CPU time of a pass {cpu:.6g} s, "
              f"wall time {wall:.6g} s, speed probe {probe * 1e3:.4g} ms "
              f"(nominal {speed.NOMINAL * 1e3:.4g} ms)")
    if not args.trace:
        ratio = len(wl.fail.reasons) / max(1, wl.fail.attempted)
        print(f"{'ops_failed_ratio':36s} {ratio:.6g} ratio  (n={wl.fail.attempted} operations)")
    for reason in wl.fail.reasons[:20]:
        print(f"# FAILED: {reason}")
    print(json.dumps({
        "correct": complete and not wl.fail.reasons,
        "attempted": max(1, wl.fail.attempted),
        "failed": len(wl.fail.reasons),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

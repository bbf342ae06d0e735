"""The benchmark tracer's contract with the program.

perfbench/tracer.py times each layer by rebinding the module attributes
that its TARGETS name.  A call that reaches one of those functions through
another binding (a function object held in a table, say) escapes the
tracer, and a traced benchmark run then reports its outputs as incorrect.
The worker's self-test counts every call of a target however it is reached
and compares that with the spans; this runs it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_selftest_finds_no_problem(tmp_path):
    spec, out = tmp_path / "selftest.spec.json", tmp_path / "selftest.out.json"
    spec.write_text(json.dumps({"root": str(ROOT), "work": str(tmp_path), "seed": 1}))
    # no bytecode, so the run leaves perfbench/ as it found it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="1",
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "selftest",
         str(spec), str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(out.read_text())["problems"] == []

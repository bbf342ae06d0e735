"""Acceptance gate: every recorded claim, checked exactly, one line each.

Each criterion below runs the corresponding slice of the built-in report
and fails loudly with the expected/computed pair of any check that does
not come back exact.  Wall-clock limits are generous caps, not targets.
"""

import hashlib
import json
from pathlib import Path

import pytest

from dgcalc.report import CRITERION_LIMITS, rows_to_json, run_report

DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"

CRITERIA = {
    "c01": "conformal Killing resolutions have the recorded shape",
    "c02": "Killing resolutions have the recorded shape",
    "c03": "the trace-adjusted curvature operator is self-adjoint",
    "c04": "the trace-adjusted curvature operator admits no potentials",
    "c05": "the divergence is parametrized by the curl",
    "c06": "plane and space stress functions behave as recorded",
    "c07": "the planar couple-stress balance admits potentials",
    "c08": "the wave composite factors through the trace part",
    "c09": "the trace flip converts between the two curvature operators",
    "c10": "dimension tables match the closed forms",
    "c11": "library-level identities hold on the sampled operators",
}


@pytest.mark.parametrize("cid", sorted(CRITERIA))
def test_criterion(cid, capsys):
    rows = run_report(only=f"{cid}.")
    assert rows, f"no checks matched {cid}"
    elapsed = sum(r.seconds for r in rows)
    limit = CRITERION_LIMITS[cid]
    failures = [r for r in rows if not r.passed]
    verdict = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"{verdict}  {cid}  {len(rows) - len(failures)}/{len(rows)} "
              f"checks, {elapsed:.2f}s  {CRITERIA[cid]}")
    if failures:
        detail = "\n".join(
            f"{r.id}: expected {r.expected!r}, computed {r.computed!r}"
            for r in failures
        )
        pytest.fail(f"{cid} failed:\n{detail}")
    assert elapsed < limit, (
        f"{cid} took {elapsed:.1f}s, over the {limit}s cap"
    )


def test_report_json_bytes_match_the_recorded_digest():
    """The full report renders to exactly the bytes the benchmark records."""
    recorded = json.loads(DIGESTS.read_text())["report-cold"]["report"]
    text = rows_to_json(run_report())
    assert hashlib.sha256(text.encode()).hexdigest() == recorded

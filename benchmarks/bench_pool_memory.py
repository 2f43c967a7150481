"""Campaign memory is bounded by the largest scenario, not by the signature count.

A serial :class:`~repro.engine.CampaignRunner` campaign releases each
pooled BDD manager right after its order signature's last scenario, so
a campaign over eight distinct same-size signatures should peak where a
campaign over two does.  Before managers were released, every pooled
manager lived until the campaign ended and the peak grew with the
signature count.

The eight signatures are all-normal 3-slot VSM beta checks with 1-8
reset cycles: the same 168,271-node peak each, ~0.5 s each.  Each
campaign runs in a fresh child interpreter, so ``ru_maxrss`` measures
it alone, and the gate is a same-run ratio, not an absolute size.
Measured on a 2-CPU Linux box (MB of ``ru_maxrss``, 2 -> 8 signatures):
68.6 -> 70.9 with release (ratio 1.03); 111.7 -> 360.6 with every
manager kept to the end (ratio 3.23).

    PYTHONPATH=src python benchmarks/bench_pool_memory.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Highest allowed ``ru_maxrss`` ratio of the 8-signature campaign over
#: the 2-signature one (measured 1.03 with release, 3.23 without).
MAX_PEAK_RATIO = 1.3

CHILD = """
import resource, sys
from repro.engine import CampaignRunner, Scenario
from repro.strings import NORMAL

count = int(sys.argv[1])
report = CampaignRunner().run(
    [
        Scenario(name=f"vsm/reset{cycles}", slots=(NORMAL,) * 3, reset_cycles=cycles)
        for cycles in range(1, count + 1)
    ]
)
assert report.passed and report.pool["managers"] == count
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def campaign_peak_mb(signatures: int) -> float:
    """``ru_maxrss`` (MB) of a child interpreter running ``signatures`` checks."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    completed = subprocess.run(
        [sys.executable, "-c", CHILD, str(signatures)],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        timeout=600,
    )
    return int(completed.stdout.split()[-1]) / 1024


@pytest.mark.bench_smoke
def test_peak_memory_is_flat_in_the_signature_count():
    two = campaign_peak_mb(2)
    eight = campaign_peak_mb(8)
    assert eight <= MAX_PEAK_RATIO * two, (two, eight)


if __name__ == "__main__":
    two, eight = campaign_peak_mb(2), campaign_peak_mb(8)
    print(f"2 signatures: {two:.1f} MB, 8 signatures: {eight:.1f} MB, ratio {eight / two:.2f}")

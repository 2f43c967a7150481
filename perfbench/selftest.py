#!/usr/bin/env python3
"""Fast self-test of the benchmark harness at tiny sizes.

Run from the repository root::

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` at the tiny scale, traced and
untraced, and checks that each metric the file declares prints with its
unit, that a run reproduces the digests it recorded, and that a
tampered digest trips the correctness gate.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(*args: str) -> dict:
    """One tiny benchmark run; returns its result line."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--scale", "tiny", "--seconds", "0", *args]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, declared: list, label: str) -> None:
    """Every declared metric, and nothing else, printed with its unit."""
    want = {metric["name"]: metric["unit"] for metric in declared}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(name for name in set(want) & set(got) if want[name] != got[name])
        raise AssertionError(f"{label}: missing {missing}, undeclared {extra}, wrong unit {wrong}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry["value"], (int, float)):
            raise AssertionError(f"{label}: {name} is not a number")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    scratch_root = BENCH_DIR / ".scratch"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch_root))
    try:
        recorded = scratch / "digests.json"
        absent = scratch / "absent.json"
        for workload in (entry["name"] for entry in spec["workloads"]):
            for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
                label = f"{workload} --trace {trace}"
                result = run(
                    "--workload", workload, "--seed", "0", "--trace", trace,
                    "--digests", str(absent), "--emit-digests", str(recorded),
                )
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    raise AssertionError(f"{label}: not correct: {result}")
                check_metrics(result, declared, label)
            print(f"ok   {workload}: every metric prints with its unit")

        again = run("--workload", "prove-cold", "--seed", "0", "--digests", str(recorded))
        if not again["correct"]:
            raise AssertionError(f"a run does not reproduce its recorded digests: {again}")
        print("ok   recorded digests reproduce")

        table = json.loads(recorded.read_text(encoding="utf-8"))
        entry = table["tiny"]["prove-cold"]["0"]
        entry["scenarios"][0] = "0" * len(entry["scenarios"][0])
        tampered = scratch / "tampered.json"
        tampered.write_text(json.dumps(table), encoding="utf-8")
        caught = run("--workload", "prove-cold", "--seed", "0", "--digests", str(tampered))
        if caught["correct"] or caught["failed"] < 1:
            raise AssertionError(f"a tampered digest passed the gate: {caught}")
        print("ok   a tampered digest trips the correctness gate")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass
    print("perfbench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

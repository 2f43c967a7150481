#!/usr/bin/env python3
"""Campaign benchmark of the verification engine.

Run from the repository root::

    python3 perfbench/run.py --workload prove-cold --seed 0 --seconds 25 --trace 0

Workloads: ``prove-cold``, ``prove-rehydrate`` and ``bug-hunt`` (see
``perfbench/README.md``).  A run times repeated campaigns for
``--seconds`` seconds, checks every verdict against ground truth and the
recorded digests, and prints as the last line of standard output one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH_ROOT = BENCH_DIR / ".scratch"
WORKLOADS = ("prove-cold", "prove-rehydrate", "bug-hunt")
#: Environment toggle that would swap the BDD kernel under the benchmark.
KERNEL_ENV = "REPRO_KERNEL_BACKEND"
#: Set-up is timed in fresh interpreters, because importing the program
#: is part of it; the metric is the median over this many of them.
SETUP_PROBES = {"full": 5, "tiny": 2}
#: A run times at least this many campaigns, then more until
#: ``--seconds`` have passed.
MIN_REPS = 3
MAX_REPS = 200

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER_UNITS = {
    "relational.extract_s": "s",
    "relational.extract_calls": "count",
    "relational.advance_s": "s",
    "relational.advance_calls": "count",
    "bdd.restore_s": "s",
    "bdd.restore_calls": "count",
    "bdd.restore_nodes": "count",
    "bdd.restore_us_per_node": "us",
    "bdd.snapshot_s": "s",
    "relational.pack_s": "s",
    "bdd.nodes_allocated": "count",
    "bdd.peak_live": "count",
    "bdd.gc_runs": "count",
    "bdd.cache_hit_rate": "ratio",
    "executor.fallback_count": "count",
    "executor.fallback_s": "s",
    "executor.refutations": "count",
    "executor.events_s": "s",
    **{
        f"store.{family}.{name}": unit
        for family in ("results", "snapshots")
        for name, unit in (
            ("read_calls", "count"),
            ("read_s", "s"),
            ("bytes_read", "bytes"),
            ("hit_rate", "ratio"),
            ("write_calls", "count"),
            ("write_s", "s"),
            ("bytes_written", "bytes"),
        )
    },
    "pool.acquisitions": "count",
    "pool.reuse_rate": "ratio",
    "runner.worker_busy_s.w0": "s",
    "runner.worker_busy_s.w1": "s",
    "runner.parent_wait_s": "s",
    "runner.imbalance": "ratio",
    "runner.units": "count",
    "runner.memo_hits": "count",
    "runner.errors": "count",
    "runner.retries": "count",
    "campaigns.minimize_s": "s",
    "campaigns.minimize_runs": "count",
    "campaigns.minimize_attempts": "count",
    "campaigns.minimize_accept_ratio": "ratio",
    "campaigns.generate_s": "s",
    "telemetry.trace_overhead": "ratio",
    "trace.coverage": "ratio",
    "failed_share": "ratio",
}


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny: the harness self-test's sizes",
    )
    parser.add_argument(
        "--digests", type=Path, default=BENCH_DIR / "digests.json",
        help="recorded verdict digests to check against",
    )
    parser.add_argument(
        "--emit-digests", type=Path, default=None,
        help="merge this run's digests into the given JSON file",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--fuzz-seeds", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: no program source under src/repro; run from a checkout", file=sys.stderr)
        return 2
    kernel_env = os.environ.pop(KERNEL_ENV, None)
    sys.path.insert(0, str(SRC))
    SCRATCH_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH_ROOT))
    try:
        if args.setup_probe:
            return setup_probe(args, scratch)
        return benchmark(args, scratch, kernel_env)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def setup_probe(args: argparse.Namespace, scratch: Path) -> int:
    """Time import + scenario generation + runner and store construction."""
    fuzz_seeds = [int(seed) for seed in args.fuzz_seeds.split(",")] if args.fuzz_seeds else None
    started = time.perf_counter()
    import workloads

    workload = workloads.make(args.workload, args.seed, args.scale, scratch, fuzz_seeds)
    state = workload.build()
    seconds = time.perf_counter() - started
    workload.discard(state)
    print(json.dumps({"setup_s": seconds}))
    return 0


def measure_setup(args: argparse.Namespace, workload) -> float:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
    ]
    fuzz_seeds = getattr(workload, "fuzz_seeds", None)
    if fuzz_seeds:
        command += ["--fuzz-seeds", ",".join(map(str, fuzz_seeds))]
    values = []
    for _ in range(SETUP_PROBES[args.scale]):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        values.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(values)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child (a worker)."""
    parent = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (parent + worker) / 1024.0


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def timed_reps(workload, seconds: float) -> List:
    reps = []
    started = time.perf_counter()
    while len(reps) < MIN_REPS or (
        time.perf_counter() - started < seconds and len(reps) < MAX_REPS
    ):
        reps.append(workload.rep())
    return reps


def traced_reps(workload, seconds: float) -> Tuple[List, List]:
    """Alternate untraced and traced reps; returns both lists.

    A traced rep records the program's spans in memory and runs with the
    probes installed; each traced entry is ``(rep, metrics, split)``.
    """
    import probes
    from repro import telemetry

    plain, traced = [], []
    started = time.perf_counter()
    while not traced or (time.perf_counter() - started < seconds and len(traced) < MAX_REPS):
        plain.append(workload.rep())
        probe = probes.Probes()
        tracer = telemetry.enable()
        try:
            with probe.installed():
                rep = workload.rep()
        finally:
            telemetry.disable()
        metrics, split = probes.layer_metrics(workload, rep, probe.values(), tracer.events)
        traced.append((rep, metrics, split))
    return plain, traced


def benchmark(args: argparse.Namespace, scratch: Path, kernel_env) -> int:
    import gate
    import workloads

    workload = workloads.make(args.workload, args.seed, args.scale, scratch)
    workload.prepare()
    try:
        if args.trace:
            plain, traced = traced_reps(workload, args.seconds)
            reps = plain + [rep for rep, _metrics, _split in traced]
        else:
            reps = timed_reps(workload, args.seconds)
    finally:
        workload.close()

    first = gate.digests(reps[0])
    references = [("first rep's", first)]
    expected = gate.recorded(gate.load_table(args.digests), args.scale, args.workload, args.seed)
    if expected is not None:
        references.append(("recorded", expected))
    attempted = failed = 0
    problems: List[str] = []
    warnings: List[str] = []
    for rep in reps:
        rep_failed, rep_problems = gate.check(rep, references)
        attempted += gate.units(rep)
        failed += rep_failed
        problems += rep_problems
        if args.scale == "full":
            violations, rep_warnings = gate.validity(args.workload, rep)
            problems += violations
            warnings += rep_warnings
    correct = failed == 0 and not problems
    if args.emit_digests is not None and correct:
        gate.record(args.emit_digests, args.scale, args.workload, args.seed, first)

    lines = []
    if args.trace:
        walls = [rep.wall_s for rep in plain]
        traced_walls = [rep.wall_s for rep, _metrics, _split in traced]
        values: Dict[str, float] = {
            name: statistics.median(metrics[name] for _rep, metrics, _split in traced)
            for name in traced[0][1]
        }
        values["telemetry.trace_overhead"] = statistics.median(traced_walls) / statistics.median(walls)
        values["failed_share"] = failed / attempted
        split = {
            layer: statistics.median(entry[layer] for _rep, _metrics, entry in traced)
            for layer in traced[0][2]
        }
        total = sum(split.values()) or 1.0
        lines.append(
            "perfbench traced split: "
            + "  ".join(f"{layer} {seconds / total:.1%}" for layer, seconds in split.items())
        )
        lines += [
            f"perfbench per-layer  {name:34s} {value:14.6g} {PER_LAYER_UNITS[name]}"
            for name, value in values.items()
        ]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    else:
        rss = peak_rss_mb()  # before the set-up probes add children of their own
        values = {
            "wall_s": statistics.median(rep.wall_s for rep in reps),
            "cpu_s": statistics.median(rep.cpu_s for rep in reps),
            "setup_s": measure_setup(args, workload),
            "peak_rss_mb": rss,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "reps": len(reps),
        "fuzz_seeds": getattr(workload, "fuzz_seeds", None),
        "digests_recorded": expected is not None,
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "mp_start_method": multiprocessing.get_start_method(),
        KERNEL_ENV: kernel_env,
    }
    for problem in dict.fromkeys(problems):  # each once, in order
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    for warning in sorted(set(warnings)):
        print(f"perfbench: warning: {warning}", file=sys.stderr)
    for line in lines:
        print(line)
    print(json.dumps({"perfbench_environment": environment}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

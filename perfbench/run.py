#!/usr/bin/env python3
"""Benchmark of the domprod calculator: time to certified answers.

Run from the repository root:

    python3 perfbench/run.py --workload search-hard --seed 1 --seconds 40 --trace 0

A run repeats whole passes of the workload's calls (at least one, or one
untraced and one traced with --trace 1) and starts another pass only if
it would end within --seconds of the run's start.  Every answer is
checked by the benchmark's own code (verify.py).  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
ones with --trace 1.
README.md beside this file explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracer as tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench-state"  # node counts of earlier runs, scratch caches
SETUP_REPEATS = 9
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def load_package():
    init = SRC / "domprod" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from a domprod checkout")
    sys.path.insert(0, str(SRC))
    import domprod
    import domprod.cli

    if Path(domprod.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported domprod from {domprod.__file__}, not {init}")
    return domprod, domprod.cli


def setup(workload: str, seed: int):
    """Everything before the first timed call: imports and the inputs."""
    pkg, cli = load_package()
    return WORKLOADS[workload](pkg, cli, seed)


def measure_setup(workload: str, seed: int) -> float:
    """Median time from starting a fresh interpreter to being ready for
    the first call, over SETUP_REPEATS child processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return statistics.median(times)


class Pass:
    def __init__(self, traced: bool):
        self.traced = traced
        self.wall = 0.0
        self.results: list[tuple[float, object]] = []  # (seconds, payload)
        self.layers: dict[str, float] = {}


def run_pass(calls, traced: bool) -> Pass:
    """One pass over the calls with a fresh, empty result cache."""
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=STATE)
    cache_file = os.path.join(cache_dir, "results.jsonl")
    os.environ["DOMPROD_CACHE"] = cache_file
    result = Pass(traced)
    tracer = tracing.Tracer() if traced else None
    if tracer:
        tracer.install()
    try:
        for call in calls:
            gc.collect()  # so that peak memory does not depend on the call order
            t0 = time.perf_counter()
            try:
                payload = call.run()
            except Exception:  # a crash is a failed call; the run goes on
                payload = RuntimeError(traceback.format_exc())
            result.results.append((time.perf_counter() - t0, payload))
    finally:
        if tracer:
            tracer.uninstall()
    # the workload's calls only: the probe is no part of the time to answers
    result.wall = sum(secs for call, (secs, _) in zip(calls, result.results) if not call.probe)
    if tracer:
        size = os.path.getsize(cache_file) if os.path.exists(cache_file) else 0
        result.layers = tracer.metrics(size)
    shutil.rmtree(cache_dir)
    return result


def check_passes(calls, passes):
    """Check every answer; returns (failed calls, node list per pass)."""
    failures = []
    node_lists = []
    for number, p in enumerate(passes):
        nodes = []
        for call, (_, payload) in zip(calls, p.results):
            if isinstance(payload, Exception):
                ok, n, why = False, 0, str(payload).strip().splitlines()[-1]
            else:
                try:
                    ok, n, why = call.check(payload)
                except (KeyError, TypeError, ValueError) as exc:
                    ok, n, why = False, 0, f"malformed answer: {exc!r}"
            nodes.append(n)
            if not ok:
                failures.append(f"pass {number}: {call.label}: {why}")
        node_lists.append(nodes)
    return failures, node_lists


def inputs_key(workload: str, seed: int, calls) -> str:
    """Workload, seed, and a hash of the calls and of src/domprod: node
    counts must repeat whenever all of these do."""
    digest = hashlib.sha256("\n".join(call.label for call in calls).encode())
    for path in sorted((SRC / "domprod").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return f"{workload}|{seed}|{digest.hexdigest()[:16]}"


def node_self_check(key: str, node_lists) -> list[str]:
    """Node counts are machine-independent: every pass of this run, and
    every earlier run with the same key, must agree."""
    problems = [f"pass {i}: node counts differ from pass 0"
                for i, nodes in enumerate(node_lists) if nodes != node_lists[0]]
    path = STATE / "nodes.json"
    try:
        known = json.loads(path.read_text())
    except (FileNotFoundError, ValueError):
        known = {}
    if key in known and known[key] != node_lists[0]:
        problems.append(f"node counts differ from an earlier run ({key})")
    known.setdefault(key, node_lists[0])
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known))
    os.replace(tmp, path)
    return problems


def end_to_end(calls, node_lists, setup_s: float) -> dict[str, tuple[float, str]]:
    spent = sum(n for call, n in zip(calls, node_lists[0]) if not (call.repeat or call.probe))
    return {
        "search_nodes": (spent, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def latency_lines(calls, passes) -> list[str]:
    """Call latency percentiles, printed for people but not bounded: only
    cli-stream has ten samples beyond p95."""
    ms = sorted(
        secs * 1000
        for p in passes
        for call, (secs, _) in zip(calls, p.results)
        if not call.probe
    )
    lines = []
    for q in (0.50, 0.95):
        value = statistics.quantiles(ms, n=100, method="inclusive")[round(q * 100) - 1]
        beyond = sum(1 for x in ms if x > value)
        lines.append(f"call_p{round(q * 100)}_ms {value:.6g} ms ({len(ms)} calls, {beyond} beyond)")
    return lines


def per_layer(passes) -> dict[str, tuple[float, str]]:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    out = {
        name: (statistics.fmean(p.layers[name] for p in traced), tracing.UNITS[name])
        for name in traced[0].layers
    }
    overhead = statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in plain)
    out["trace.overhead"] = (overhead, "ratio")
    out["e2e.wall_s"] = (statistics.median(p.wall for p in plain), "s")
    return out


def main(argv=None) -> int:
    start = time.perf_counter()  # --seconds counts from here, set-up included
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    calls = setup(args.workload, args.seed)
    STATE.mkdir(exist_ok=True)
    os.environ["XDG_CACHE_HOME"] = str(STATE)  # never the user's cache
    setup_s = measure_setup(args.workload, args.seed) if not args.trace else 0.0

    passes: list[Pass] = []
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(calls, traced=bool(args.trace) and len(passes) % 2 == 1))
        now = time.perf_counter()
        enough = len(passes) >= (2 if args.trace else 1)
        if enough and now - start + (now - pass_start) > args.seconds:
            break

    failures, node_lists = check_passes(calls, passes)
    problems = failures + node_self_check(inputs_key(args.workload, args.seed, calls), node_lists)
    for line in problems:
        print(f"FAILED {line}", file=sys.stderr)

    metrics = per_layer(passes) if args.trace else end_to_end(calls, node_lists, setup_s)
    attempted = len(calls) * len(passes)
    print(f"# {args.workload} seed {args.seed}: {len(passes)} passes of {len(calls)} calls, "
          f"pass walls {[round(p.wall, 3) for p in passes]} s")
    if len(calls) <= 20:  # the library workloads: one line per solve
        for call, (secs, _), nodes in zip(calls, passes[0].results, node_lists[0]):
            if not call.probe:
                print(f"#   {call.label:40s} {secs:9.3f} s  {nodes:>9} nodes")
    print(f"#   failed_frac {len(failures) / attempted:.4f} ({len(failures)} of {attempted} calls)")
    if not args.trace:
        print(f"#   wall_s {statistics.median(p.wall for p in passes):.6g} s (median pass)")
        for line in latency_lines(calls, passes):
            print(f"#   {line}")
    for name, (value, unit) in metrics.items():
        note = "  (computed as n^2/8)" if name == "graphs.adj_bytes" else ""
        print(f"#   {name:32s} {value:.6g} {unit}{note}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

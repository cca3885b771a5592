"""Benchmark for resym: seeded closed-loop workloads with checked answers.

Run from the repository root:

  python3 bench/run.py --workload residue-batch --seed 1 --seconds 20
  python3 bench/run.py --workload series-1d --seed 1 --trace 1
  python3 bench/run.py --all --seed 1 --seconds 20 [--trace 1]

One client in one process sends each task only after the previous one
returned.  Inputs come from --seed and are generated, with their oracle
answers, before timing starts; answers are checked after it ends.  With
--trace 0 the run measures whole blocks of tasks until --seconds have
passed and reports the end-to-end metrics.  With --trace 1 it runs a fixed
prefix of the same inputs once untraced and once traced (so call counts
repeat exactly for a seed) and reports the per-layer metrics.  The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("parser", "operators", "homology", "laurent", "polynomials", "residue", "scalars")

# Set-up: a fresh interpreter imports resym.cli and answers one `res`.
SETUP_REPS = 7
SETUP_CODE = "import sys; from resym.cli import main; sys.exit(main(['res', 't^-1 d(t)']))"
SETUP_ANSWER = '{"value": "1"}'

# Machine-speed probe: a fixed stdlib-only computation that runs no resym
# code.  The shared host this benchmark was sized on changed speed by up to
# 1.8x from one half-minute to the next, for every process alike.  Each run
# times the probe between blocks (outside the timed interval) and reports
# its timings scaled to the speed at which the probe takes REF_PROBE_S,
# about its time on that host when nothing else competed.  The unscaled
# figures are in the summary line.
PROBE_REPS = 5
REF_PROBE_S = 0.0045

# Spans the traced run must see on each workload, and the ones the layer
# predictions say stay at zero there.  A violation fails the run.
DECLARED = {
    "residue-batch": ["parser.parse_form", "operators.compose", "operators.canon",
                      "operators.tate_trace", "homology.phi_hh_closed",
                      "homology.hkr_antisymmetrize", "residue.residue_form",
                      "scalars.field_trace", "scalars.ExtElem.mul"],
    "cross-check": ["operators.compose", "operators.canon", "operators.tate_trace",
                    "homology.chain_is_zero", "homology.hochschild_b", "homology.homotopy_H",
                    "homology.phi_hh_closed", "homology.phi_hh_zigzag", "homology.phi_c",
                    "homology.hkr_antisymmetrize"],
    "series-1d": ["parser.parse_rational_function", "laurent.TruncatedSeries.mul",
                  "laurent.unit_inverse", "polynomials.factor_monic",
                  "polynomials.rational_roots", "polynomials.shifted_coefficients",
                  "residue.expand_at_place", "residue.global_residue_sum",
                  "scalars.field_trace", "scalars.ExtElem.mul", "scalars.ExtElem.inverse"],
}
PREDICTED_ZERO = {
    "residue-batch": ["homology.chain_is_zero", "operators.evaluate", "laurent.unit_inverse",
                      "laurent.TruncatedSeries.mul", "polynomials.factor_monic"],
    "cross-check": ["laurent.unit_inverse", "laurent.TruncatedSeries.mul",
                    "polynomials.factor_monic"],
    "series-1d": ["operators.compose", "operators.canon", "homology.chain_is_zero",
                  "homology.phi_hh_closed"],
}
# Per-layer metrics published besides calls and self_ms of every span.
STAGE_TOTALS = ("residue.residue_form", "residue.expand_at_place", "residue.global_residue_sum")


def load_library():
    if not (SRC / "resym" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no library sources under {SRC}; run from a checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    return {name: importlib.import_module(f"resym.{name}") for name in MODULES}


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def probe() -> float:
    """Seconds one fixed computation takes at the machine's current speed."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 2000):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


def slowdown(probes) -> float:
    """How much slower than the reference speed the machine ran."""
    return statistics.mean(probes) / REF_PROBE_S


def measure_setup():
    """Median wall time of SETUP_REPS fresh interpreters (one warm-up first),
    and the probe times taken next to them."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, probes = [], []
    for rep in range(SETUP_REPS + 1):
        probes.extend(probe() for _ in range(PROBE_REPS))
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or proc.stdout.strip() != SETUP_ANSWER:
            raise RuntimeError(f"set-up answer {proc.stdout!r} {proc.stderr[-500:]!r}")
        if rep:
            times.append(elapsed)
    return statistics.median(times), probes


def make_pool(workload, seed: int, blocks: int):
    rng = random.Random(f"{workload.name}:{seed}")
    pool = []
    for _ in range(blocks):
        pool.extend(workload.generate(rng))
    digest = hashlib.sha256("\n".join(t.digest_text() for t in pool).encode()).hexdigest()
    return [workload.prepare(t) for t in pool], digest[:16]


def run_loop(pool, block_len: int, call, on_block, seconds=None):
    """Closed loop over whole blocks: until `seconds` pass, or the pool once.

    Each block's (task, answer, error) triples go to `on_block` outside the
    timed interval and are then dropped, so memory does not grow with the
    number of tasks run.  Returns the per-task latencies, the timed
    interval, and whether the pool had to be reused.
    """
    latencies = []
    n_blocks = len(pool) // block_len
    done, elapsed = 0, 0.0
    while True:
        base = (done % n_blocks) * block_len
        answers = []
        start = time.perf_counter()
        for task in pool[base:base + block_len]:
            t0 = time.perf_counter()
            try:
                answer, error = call(task), None
            except Exception as exc:  # a failed task is counted, never fatal
                answer, error = None, exc
            latencies.append(time.perf_counter() - t0)
            answers.append((task, answer, error))
        elapsed += time.perf_counter() - start
        on_block(answers)
        done += 1
        if (seconds is None and done == n_blocks) or (seconds is not None and elapsed >= seconds):
            return latencies, elapsed, done > n_blocks


def check_answers(workload, answers):
    failures = []
    for task, answer, error in answers:
        if error is not None:
            reason = f"{type(error).__name__}: {error}"
        else:
            try:
                reason = workload.check(task, answer)
            except Exception as exc:  # a malformed answer is a failure, not a crash
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            failures.append(f"{task.kind} {task.text!r}: {reason}")
    return failures


def end_to_end(workload, pool, seconds):
    setup, setup_probes = measure_setup()
    failures, probes = [], []

    def after_block(answers):
        failures.extend(check_answers(workload, answers))
        probes.extend(probe() for _ in range(PROBE_REPS))

    latencies, elapsed, wrapped = run_loop(pool, len(workload.BLOCK), workload.run,
                                           after_block, seconds)
    lat_ms = [x * 1e3 for x in latencies]
    ops = len(lat_ms) / elapsed
    p50, p90 = statistics.median(lat_ms), statistics.quantiles(lat_ms, n=10)[8]
    slow, setup_slow = slowdown(probes), slowdown(setup_probes)
    metrics = {
        "ops_per_s": (ops * slow, "1/s"),
        "latency_p50_ms": (p50 / slow, "ms"),
        "latency_p90_ms": (p90 / slow, "ms"),
        "setup_s": (setup / setup_slow, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    summary = {"samples": len(lat_ms), "beyond_p90": sum(x > p90 for x in lat_ms),
               "failed_frac": len(failures) / len(lat_ms), "elapsed_s": elapsed,
               "pool_wrapped": wrapped, "slowdown": slow, "setup_slowdown": setup_slow,
               "unscaled": {"ops_per_s": ops, "latency_p50_ms": p50, "latency_p90_ms": p90,
                            "setup_s": setup}}
    return len(lat_ms), failures, metrics, summary, []


def traced(workload, pool, modules, seed):
    from tracer import COUNTS, SPANS, Tracer

    block_len = len(workload.BLOCK)
    answers = []
    lat_plain, el_plain, _ = run_loop(pool, block_len, workload.run, answers.extend)
    tracer = Tracer(modules)
    tracer.install()
    try:
        # Answers are checked after uninstall, so checking adds no counts.
        lat_traced, el_traced, _ = run_loop(
            pool, block_len, lambda task: tracer.run_task(workload.run, task), answers.extend)
    finally:
        tracer.uninstall()
    failures = check_answers(workload, answers)
    raw = tracer.metrics()

    metrics = {}
    for name in list(SPANS) + list(COUNTS):
        metrics[f"{name}.calls"] = (raw[f"{name}.calls"], "count")
        if name in SPANS:
            metrics[f"{name}.self_ms"] = (raw[f"{name}.self_ms"], "ms")
    for name in STAGE_TOTALS:
        metrics[f"{name}.total_ms"] = (raw[f"{name}.total_ms"], "ms")
    for name in ("homology.hochschild_b", "homology.homotopy_H"):
        metrics[f"{name}.out_terms"] = (raw[f"{name}.out_terms"], "count")
    metrics["operators.canon.single_box_frac"] = (raw["operators.canon.single_box_frac"], "frac")
    plain, with_trace = len(lat_plain) / el_plain, len(lat_traced) / el_traced
    metrics["trace.untraced_ops_per_s"] = (plain, "1/s")
    metrics["trace.traced_ops_per_s"] = (with_trace, "1/s")
    metrics["trace.overhead_ops_per_s"] = (with_trace - plain, "1/s")

    problems = [f"declared span {name} recorded no calls"
                for name in DECLARED[workload.name] if not raw[f"{name}.calls"]]
    problems += [f"{name} predicted 0 calls, recorded {raw[f'{name}.calls']}"
                 for name in PREDICTED_ZERO[workload.name] if raw[f"{name}.calls"]]

    OUT.mkdir(exist_ok=True)
    dump = OUT / f"trace-{workload.name}-seed{seed}.json"
    tracer.dump(dump)
    summary = {"tasks": len(lat_plain), "spans_file": str(dump.relative_to(ROOT)),
               "spans_dropped": tracer.dropped}
    return len(answers), failures, metrics, summary, problems


def run_all(args) -> int:
    """Every workload in its own process, one table of metrics."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            sys.stderr.write(proc.stderr)
            status = 1
        if not lines:
            continue
        result = json.loads(lines[-1])
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for line in lines[:-1]:
            print("  " + line)
        for metric, entry in result["metrics"].items():
            print(f"  {metric:44s} {entry['value']:>14.6g} {entry['unit']}")
    return status


def main(argv=None) -> int:
    from workloads import WORKLOADS, bind

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.all == bool(args.workload):
        ap.error("give exactly one of --workload and --all")

    modules = load_library()
    if args.all:
        return run_all(args)
    bind(modules)
    workload = WORKLOADS[args.workload]
    if args.trace:
        blocks = workload.TRACE_BLOCKS
    else:
        blocks = -(-int(args.seconds * workload.MAX_RATE) // len(workload.BLOCK))
    pool, digest = make_pool(workload, args.seed, blocks)

    print(json.dumps({"stamp": {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs_sha256": digest, "pool_tasks": len(pool),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)), "commit": git_commit()}}))
    if args.trace:
        attempted, failures, metrics, summary, problems = traced(workload, pool, modules,
                                                                 args.seed)
    else:
        attempted, failures, metrics, summary, problems = end_to_end(workload, pool,
                                                                     args.seconds)
    summary["failures"] = failures[:5]
    summary["problems"] = problems
    print(json.dumps({"summary": summary}))
    for line in failures[:5] + problems:
        sys.stderr.write(f"bench: {line}\n")
    correct = not failures and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Closed-loop benchmark of fzn2qip: compile throughput and proof time.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.

Each workload runs in its own single-threaded process.  It builds its
inputs from the seed (set-up), then runs whole rounds of the same
operations back to back, each op starting when the previous one ended,
until the ops have run for ``--seconds`` in all.  Every op time is
divided by the host pace measured around it (see pace.py), and the
timings are taken from each op's median over the rounds.  Each op's
output is checked outside its timed region, and the checks' time is not
counted.
``--workload all`` (the default) runs every workload in turn, each in a
child process.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` untraced and traced
rounds alternate, the metrics are the per-layer ones, and the spans are
written to ``perfbench/traces/``.  See README.md for the workloads and
the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("corpus", "verify_scaled", "compile_large")
SETUP_REPEATS = 5  # at least, and until SETUP_SECONDS have passed
SETUP_SECONDS = 5.0
PACE_EVERY_S = 0.05  # op time between two samples of the host pace
IMPORT_PROBE = ("import time; t = time.perf_counter(); import fzn2qip; "
                "print(time.perf_counter() - t)")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _import_seconds() -> float:
    """Import time of the package, measured in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_env(),
                         cwd=ROOT, capture_output=True, text=True, check=True,
                         timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def setup(name: str, seed: int, pace):
    """Build the inputs repeatedly; return them and the median set-up time,
    scaled by the host pace around each set-up."""
    import workloads

    times = []
    start = time.perf_counter()
    while len(times) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        before = pace.sample()
        imp = _import_seconds()
        t0 = time.perf_counter()
        ops = workloads.WORKLOADS[name](seed)
        dt = imp + time.perf_counter() - t0
        times.append(dt / ((before + pace.sample()) / 2))
    return ops, statistics.median(times)


def run_round(ops, options, checker, pace=None, tracer=None):
    """Run every op once, in order; return [(seconds, pace, outcome)].

    With a ``pace``, the host pace is sampled before the first op, after
    the last and between ops every PACE_EVERY_S of op time; each op gets
    the mean of the samples before and after its chunk.  Without one,
    every pace is 1.
    """
    import workloads

    results = []
    marks = [(0, pace.sample() if pace else 1.0)]  # (index of the next op, pace)
    since = 0.0
    for i, op in enumerate(ops):
        if pace and since >= PACE_EVERY_S:
            marks.append((i, pace.sample()))
            since = 0.0
        runner = workloads.RUNNERS[op.kind]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outcome, value = runner(op, options)
            else:
                outcome, value = tracer.run_op(runner, op, options)
        except Exception as exc:  # a failing op is counted, the run goes on
            outcome, value = workloads.Outcome(False, f"{type(exc).__name__}: {exc}"), None
        dt = time.perf_counter() - t0
        since += dt
        results.append((dt, checker.check(i, op, outcome, value)))
    marks.append((len(ops), pace.sample() if pace else 1.0))
    paced = []
    for (first, a), (end, b) in zip(marks, marks[1:]):
        paced += [(dt, (a + b) / 2, outcome) for dt, outcome in results[first:end]]
    return paced


def measure(name: str, seed: int, seconds: float, traced: bool) -> dict:
    from fzn2qip import rewrite

    import tracing
    import workloads
    from pace import Pace

    pace = Pace()
    ops, setup_s = setup(name, seed, pace)
    options = rewrite.RewriteOptions()
    checker = workloads.Checker(options)
    tracer = tracing.Tracer() if traced else None
    rounds = {False: [], True: []}  # traced? -> per round, each op's scaled seconds
    qip_bytes = 0
    failures: Counter = Counter()
    op_time = 0.0  # the output checks run outside it
    start = time.perf_counter()
    while True:
        trace_round = traced and len(rounds[False]) > len(rounds[True])
        if trace_round:
            tracer.install()
        try:
            results = run_round(ops, options, checker, pace,
                                tracer if trace_round else None)
        finally:
            if trace_round:
                tracer.uninstall()
        rounds[trace_round].append([dt / slow for dt, slow, _ in results])
        op_time += sum(dt for dt, _, _ in results)
        for op, (_, _, outcome) in zip(ops, results):
            qip_bytes += outcome.qip_bytes
            if not outcome.ok:
                fault = workloads.known_fault(op, outcome)
                failures[(op.label, fault and fault.name, outcome.detail)] += 1
        if op_time >= seconds and (rounds[True] or not traced):
            break

    n_rounds = len(rounds[False]) + len(rounds[True])
    # each op's median over the rounds of its time at the reference pace
    per_op = {k: [statistics.median(ts) for ts in zip(*v)] for k, v in rounds.items() if v}
    if traced:
        overhead = sum(per_op[True]) - sum(per_op[False])
        metrics = tracer.layer_metrics(len(rounds[True]), overhead)
        tracer.dump(HERE / "traces" / f"{name}-seed{seed}.json",
                    workload=name, seed=seed, traced_rounds=len(rounds[True]))
    else:
        times = sorted(per_op[False])
        round_s = sum(times)
        constraints = sum(op.constraints for op in ops)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(ops) / round_s, "1/s"),
            "constraints_per_s": (constraints / round_s, "1/s"),
            "op_s_p50": (statistics.median(times), "s"),
            "op_s_p99": (times[math.ceil(0.99 * len(times)) - 1], "s"),
            "qip_bytes": (qip_bytes / n_rounds, "bytes"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    return {
        "workload": name,
        "seed": seed,
        "rounds": n_rounds,
        "ops_per_round": len(ops),
        "wall_s": time.perf_counter() - start,
        "op_s": op_time,
        "pace": statistics.median(pace.samples),
        "correct": all(fault is not None for _, fault, _ in failures),
        "attempted": n_rounds * len(ops),
        "failed": sum(failures.values()),
        "failures": [[label, fault, detail, n]
                     for (label, fault, detail), n in sorted(
                         failures.items(), key=lambda kv: (kv[0][0], kv[0][2]))],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def report(res: dict) -> None:
    print(f"workload {res['workload']}: seed {res['seed']}, {res['rounds']} rounds "
          f"of {res['ops_per_round']} ops in {res['wall_s']:.1f} s")
    print(f"  op time {res['op_s']:.2f} s unscaled, median host pace {res['pace']:.3f}")
    print(f"  attempted {res['attempted']}  failed {res['failed']}"
          f"  correct {str(res['correct']).lower()}")
    for label, fault, detail, n in res["failures"]:
        tag = f"known fault: {fault}" if fault else "UNEXPECTED"
        print(f"  failed x{n}  {label}: {detail}  [{tag}]")
    for key, m in res["metrics"].items():
        print(f"  {key:28s} {m['value']:>16.6g} {m['unit']}")


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload, each in its own process; one combined JSON line."""
    combined = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        combined[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in combined.values()),
        "attempted": sum(r["attempted"] for r in combined.values()),
        "failed": sum(r["failed"] for r in combined.values()),
        "workloads": combined,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    # one thread per workload process, also inside numpy
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "fzn2qip" / "__init__.py").is_file():
        print(f"fzn2qip sources not found under {SRC}", file=sys.stderr)
        return 2
    seconds = ns.seconds
    if seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        seconds = spec["run_seconds"]
    if ns.workload == "all":
        return run_all(ns.seed, seconds, ns.trace)
    sys.path.insert(0, str(SRC))
    res = measure(ns.workload, ns.seed, seconds, bool(ns.trace))
    report(res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

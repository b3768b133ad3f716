#!/usr/bin/env python3
"""mouldkit benchmark: run one workload for a fixed time and report.

    python3 perfbench/run.py --workload basis|senary|paper-suite \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition runs in a fresh child
interpreter (perfbench/child.py), one child at a time, with PYTHONPATH set
to the checkout's src/, PYTHONHASHSEED fixed, MOULDKIT_CACHE cleared and no
--cache-dir; MOULDKIT_PURE is passed through and recorded.  Repetitions
continue while the next one is expected to end within --seconds.

With --trace 0 the last stdout line reports the end-to-end metrics, with
--trace 1 the per-layer metrics of one traced repetition.  Every answer is
checked against perfbench/golden.json; a wrong answer is a failed op, and
the command then exits 1.  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

END_TO_END = [
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
SETUP_PROBES = 4  # set-up-only children per run, besides the measured ones
RUN_LIMIT_S = 165  # no repetition starts that would end after this


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def host_loop_ms():
    """Median time of a fixed pure-Python loop, in ms.  It reads how fast
    the host runs Python at the moment, apart from mouldkit: on a shared
    host it can change by half from one minute to the next."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for k in range(200_000):
            acc += k * k
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def child_env():
    env = dict(os.environ)
    env.pop("MOULDKIT_CACHE", None)
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".perfbench" / "pycache")
    return env


class Child:
    """Runs child.py repetitions and keeps their results."""

    def __init__(self, args, env, started):
        self.base = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
                     "--seed", str(args.seed), "--size", str(args.size),
                     "--golden", str(args.golden)]
        self.env = env
        self.started = started

    def run(self, extra=()):
        """One child; returns (result dict or None, setup_s, seconds taken)."""
        t0 = time.monotonic()
        timeout = max(1.0, self.started + RUN_LIMIT_S + 10 - t0)
        with subprocess.Popen(self.base + list(extra), stdout=subprocess.PIPE,
                              env=self.env, cwd=str(ROOT), text=True) as proc:
            try:
                out, _ = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                print("perfbench: child timed out after %.0f s" % timeout, file=sys.stderr)
                return None, None, time.monotonic() - t0
        took = time.monotonic() - t0
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("perfbench: child exited with code %d" % proc.returncode, file=sys.stderr)
            return None, None, took
        result = json.loads(lines[-1])
        return result, result["t_ready"] - t0, took


def percentile_ms(samples, q):
    """The q-th percentile (q in 1..99) of samples, in ms, or None when
    fewer than ten samples lie beyond it."""
    if len(samples) * (100 - q) / 100 < 10:
        return None
    return statistics.quantiles(samples, n=100)[q - 1] * 1e3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SETUP))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", type=int, default=None,
                    help="workload size: basis weight, senary moulds per repetition, "
                         "paper-suite max weight (default: %s)" % workloads.DEFAULT_SIZE)
    ap.add_argument("--golden", type=Path, default=HERE / "golden.json")
    args = ap.parse_args()
    if args.size is None:
        args.size = workloads.DEFAULT_SIZE[args.workload]
    args.golden = args.golden.resolve()

    if not (ROOT / "src" / "mouldkit" / "__init__.py").is_file():
        print("perfbench: no mouldkit sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    if not args.golden.is_file():
        print("perfbench: golden record %s missing" % args.golden, file=sys.stderr)
        return 2
    work = ROOT / ".perfbench"
    (work / "results").mkdir(parents=True, exist_ok=True)
    (work / "traces").mkdir(parents=True, exist_ok=True)

    env = {
        "python": platform.python_version(),
        "MOULDKIT_PURE": os.environ.get("MOULDKIT_PURE", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "host_loop_ms_start": host_loop_ms(),
        "commit": git_commit(),
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    started = time.monotonic()
    child = Child(args, child_env(), started)

    # Warm-up child: writes the bytecode cache, which users of an installed
    # package do not pay for on every command.
    warm, _, _ = child.run(["--setup-only"])
    if warm is None:
        return 1
    env["backend"] = warm["backend"]
    setups = []
    for _ in range(SETUP_PROBES):
        probe, setup_s, _ = child.run(["--setup-only"])
        if probe is None:
            return 1
        setups.append(setup_s)

    trace_path = work / "traces" / ("%s-seed%d.tsv.gz" % (args.workload, args.seed))
    reps, took = [], []
    attempted = failed = 0
    broken = False
    measure_start = time.monotonic()
    while True:
        traced = args.trace and not reps
        result, setup_s, secs = child.run(["--trace-out", str(trace_path)] if traced else [])
        took.append(secs)
        if result is None:
            broken = True
            attempted += 1
            failed += 1
            break
        reps.append((result, traced))
        attempted += result["attempted"]
        failed += result["failed"]
        if not traced:
            setups.append(setup_s)
        # The slowest repetition so far predicts the next one, so a run
        # rarely ends after --seconds.
        expect = max(took)
        enough = len(reps) >= (2 if args.trace else 1)
        if enough and (time.monotonic() - measure_start + expect > args.seconds
                       or time.monotonic() - started + expect > RUN_LIMIT_S):
            break

    env["loadavg_end"] = os.getloadavg()
    env["host_loop_ms_end"] = host_loop_ms()
    plain = [r for r, t in reps if not t]
    digests = {r["verdict_sha256"] for r, _ in reps}
    correct = not broken and failed == 0 and len(digests) == 1

    report = {}
    if plain:
        walls = [r["wall_s"] for r in plain]
        report["wall_s"] = statistics.median(walls)
        report["ops_per_s"] = statistics.median(r["attempted"] / r["wall_s"] for r in plain)
        report["setup_s"] = statistics.median(setups)
        report["peak_rss_mb"] = statistics.median(r["rss_kb"] / 1024 for r in plain)
    lines = ["%s %.6g %s" % (name, report[name], unit)
             for name, unit in END_TO_END if name in report]
    if plain:
        ops = [s for r in plain for s in r["op_s"]]
        for q in (50, 90):
            value = percentile_ms(ops, q)
            if value is not None:
                lines.append("op_p%d_ms %.6g ms (of %d ops)" % (q, value, len(ops)))
    lines.append("fail_ratio %.6g ratio (%d of %d ops)" % (failed / attempted, failed, attempted))
    lines.append("repetitions %d, verdict digest %s" % (len(reps), sorted(digests)))

    if args.trace:
        metrics = {}
        if reps and reps[0][1] and plain:
            layers = dict(reps[0][0]["layers"])
            layers["trace.overhead_s"] = reps[0][0]["wall_s"] - report["wall_s"]
            metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
            lines += ["%s %s %s" % (n, m["value"], m["unit"]) for n, m in metrics.items()]
            lines.append("traced wall_s %.6g s; spans in %s"
                         % (reps[0][0]["wall_s"], trace_path.relative_to(ROOT)))
    else:
        metrics = {name: {"value": report[name], "unit": unit}
                   for name, unit in END_TO_END if name in report}
    correct = correct and bool(metrics)

    out = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {"env": env, "result": out, "setup_s": setups,
              "repetitions": [dict(r, traced=bool(t)) for r, t in reps]}
    for rep in detail["repetitions"]:
        rep.pop("op_s")
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (work / "results" / name).write_text(json.dumps(detail, indent=1))

    print("\n".join(lines))
    print("env %s" % json.dumps(env))
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""One repetition of one workload, in a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  It sets
up the workload (import mouldkit, build the inputs), runs every op in
order, checks each answer against the golden record and prints one JSON
object on its last stdout line.  With --setup-only it stops after set-up.
With --trace-out it records spans around the public layer functions and
writes them to that path.
"""

import argparse
import json
import resource
import sys
import time
import traceback

import workloads


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SETUP))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", type=int, required=True)
    ap.add_argument("--golden", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()

    with open(args.golden) as fh:
        golden = json.load(fh)
    import mouldkit

    tracer = None
    if args.trace_out:
        # Installed before set-up so the functions the ops hold are the
        # traced ones; the spans set-up records are dropped below.
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ops = workloads.SETUP[args.workload](args.size, args.seed, golden)
    if tracer:
        del tracer.spans[:]
    t_ready = time.monotonic()
    result = {"t_ready": t_ready, "backend": mouldkit.backend_name}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    failed = 0
    latencies = []
    verdicts = []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            ok, verdict = op()
        except Exception:
            traceback.print_exc()
            ok, verdict = False, "error"
        latencies.append(time.perf_counter() - t0)
        failed += not ok
        verdicts.append(verdict)
    wall = time.perf_counter() - start

    result.update(
        wall_s=wall,
        attempted=len(ops),
        failed=failed,
        op_s=latencies,
        verdict_sha256=workloads.sha256("\n".join(verdicts)),
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer:
        result["layers"] = tracer.summary()
        tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

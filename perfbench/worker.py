"""One fresh benchmark process: set up a workload, run ops, print one JSON line.

``run.py`` starts this script once per measurement so that every measured
process starts cold.  Roles:

  setup    import smc_kit and generate the inputs, nothing else
  timed    ``--seconds // cycle_s`` whole cycles (at least two)
  pass     one cycle, untraced (also what ``digests.json`` is recorded from)
  traced   one cycle with every layer wrapped by ``spans.Tracer``

Usage: python3 perfbench/worker.py ROLE --workload NAME --seed N [--seconds S]
"""

import time

_T0 = time.perf_counter()  # before smc_kit is imported: part of set-up time

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def digest_of(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_op(work, item, tracer=None):
    """Time one op, then check its answer outside the timed region."""
    rec = {"key": work.key(item)}
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            tracer.active = True
        try:
            out = work.run(item)
        finally:
            if tracer is not None:
                tracer.active = False
        rec["wall_s"] = time.perf_counter() - t0
        rec["cpu_s"] = time.process_time() - c0
        payload, problems = work.check(item, out)
        rec["digest"] = digest_of(payload)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        rec.setdefault("wall_s", time.perf_counter() - t0)
        rec.setdefault("cpu_s", time.process_time() - c0)
        problems = [f"{type(exc).__name__}: {exc}"]
    if problems:
        rec["problems"] = problems
    return rec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("role", choices=["setup", "timed", "pass", "traced"])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args()

    import workloads  # imports smc_kit
    work = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s}
    if args.role == "setup":
        print(json.dumps(result))
        return 0

    import numpy
    result["env"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "smc_kit": workloads.smc_kit.__version__}
    result["inputs"] = work.describe()
    cycle = work.cycle()
    ops = []
    tracer = None
    if args.role == "timed":
        # A cycle count fixed by --seconds, not by the clock, so that every
        # run of the same length holds the same ops and repeats; only on a
        # machine far slower than the nominal one does the run stop early.
        start = time.perf_counter()
        cycles = 0
        for _ in range(max(2, int(args.seconds // work.cycle_s))):
            ops.extend(run_op(work, item) for item in cycle)
            cycles += 1
            if cycles >= 2 and time.perf_counter() - start > 1.5 * args.seconds:
                break
        result["cycles"] = cycles
    else:
        if args.role == "traced":
            import spans
            tracer = spans.Tracer()
            tracer.install()
        ops = [run_op(work, item, tracer) for item in cycle]
    result["ops"] = ops
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["trace"] = tracer.summary(sum(op["wall_s"] for op in ops))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark for smc-kit: four workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --record-digests

Workloads (see workloads.py): glue_scan, mutation_walk, path_algebra_build,
cli_fixtures.  Load is single-threaded and closed-loop: each op starts when
the previous one returns.  Every measurement runs in a fresh interpreter
(worker.py), one at a time, so each process starts cold.

--trace 0 runs --seconds // cycle_s whole cycles over the workload's inputs
(at least two; see workloads.py) and prints the end-to-end metrics.  The CPU
speed of a shared sandbox swings by up to 40% over seconds to minutes, so a
mean over one run carries that noise; each input is therefore timed by its
fastest pass in the run, and the metrics are taken over those per-input times:
  ops_per_s       inputs per second of their fastest passes (headline)
  latency_p50_ms  median over inputs of the fastest pass
  cpu_ms_per_op   mean over inputs of the least process CPU time per pass;
                  the library is single-threaded, so this separates its cost
                  from scheduling delays
  setup_s         median over several fresh processes of importing smc_kit
                  and generating the inputs (for mutation_walk: also
                  building the algebra and its standard collection)
  peak_rss_mb     peak RSS of the timed process
The report line also gives the plain closed-loop figures over every op
(ops per second of op wall time, p50, and p90 when the run holds at least
100 ops).  Failed ops are the result's "failed" count against "attempted".

--trace 1 runs one cycle three times, each in a fresh process: untraced (the
reference wall time), traced, and traced again.  It prints the per-layer
metrics of the first traced run, and fails the run unless the exact counts of
both traced runs are identical and the spans nest so that per-layer self
times plus time outside any span add up to the traced wall time.

Every op's answer is checked against independent references and against
the iso-invariant digest recorded in digests.json for that input.  The line
before the result is a JSON report with machine notes, input descriptors,
failures, the run's digest and (trace 1) the full span table.
"""

import argparse
import hashlib
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
WORKLOADS = ("glue_scan", "mutation_walk", "path_algebra_build", "cli_fixtures")
SETUP_SAMPLES = 5
DEADLINE_S = 170
DIGESTS = HERE / "digests.json"

# Per-layer metrics, read from the first traced run's summary.
SPAN_METRICS = [
    ("exactla.rref", ("calls", "self_s")),
    ("exactla.solve_matrix", ("calls",)),
    ("exactla.express_rows", ("calls",)),
    ("exactla.rank", ("calls",)),
    ("algebra.Algebra.mul_vec", ("self_s",)),
    ("algebra.Algebra.validate", ("self_s",)),
    ("algebra.Algebra.from_quiver", ("incl_s",)),
    ("algebra.global_dimension", ("incl_s",)),
    ("algebra.Algebra.lrow", ("calls", "self_s")),
    ("algebra.Algebra.rrow", ("calls", "self_s")),
    ("algebra.submodule_from_rows", ("calls", "incl_s")),
    ("algebra.direct_sum_modules", ("calls", "incl_s")),
    ("algebra.Module.projective_cover", ("incl_s",)),
    ("homotopy.resolve.resolve_complex", ("calls", "incl_s")),
    ("homotopy.complexes.minimalize", ("calls", "self_s")),
    ("homotopy.complexes.cone", ("calls", "self_s")),
    ("homotopy.complexes.cocone", ("calls", "self_s")),
    ("homotopy.complexes.compose", ("calls", "self_s")),
    ("homotopy.homs.hom_table", ("calls", "self_s", "incl_s")),
    ("homotopy.homs.is_iso", ("calls", "incl_s")),
    ("recollement.build_recollement", ("incl_s",)),
    ("smc.glue", ("incl_s",)),
    ("smc.glue_dual", ("incl_s",)),
    ("smc.mutate", ("incl_s",)),
    ("smc.validate_smc", ("incl_s",)),
    ("smc.compare", ("incl_s",)),
    ("smc.smc_iso", ("incl_s",)),
    ("smc.truncate", ("calls",)),
    ("verify.run_paper_examples", ("incl_s",)),
    ("cli.main", ("calls", "incl_s")),
]
COUNT_METRICS = [
    ("exactla.rref.entries_p50", "entries"),
    ("exactla.rref.entries_p99", "entries"),
    ("exactla.rref.entries_total", "entries"),
    ("homotopy.homs.hom_table.window_total", "count"),
    ("homotopy.homs.is_iso.certified_yes", "count"),
    ("homotopy.homs.is_iso.certified_no", "count"),
    ("homotopy.homs.is_iso.monte_carlo_no", "count"),
    ("recollement.build_recollement.validated", "count"),
    ("recollement.build_recollement.unvalidated", "count"),
    ("smc.truncate.strip_steps", "count"),
]


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def worker(role, workload, seed, deadline, **extra):
    cmd = [sys.executable, str(HERE / "worker.py"), role,
           "--workload", workload, "--seed", str(seed)]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before the {role} process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} process exceeded the {DEADLINE_S} s budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{role} process exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{role} process printed nothing")
    return json.loads(lines[-1])


def machine_notes():
    notes = {"git_sha": git_sha(), "nproc": os.cpu_count(),
             "affinity": len(os.sched_getaffinity(0)),
             "platform": platform.platform(), "cpu_model": "unknown"}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    notes["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return notes


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
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
    return "unknown (not a git checkout)"


def check_digests(workload, ops):
    """Mark every op whose digest differs from the recorded one as failed.

    Returns the run's digest (a hash over the distinct input/digest pairs it
    saw), the number of distinct inputs, and the failed ops with reasons."""
    recorded = json.loads(DIGESTS.read_text()).get(workload, {})
    seen = {}
    for op in ops:
        if "digest" not in op:
            continue
        want = recorded.get(op["key"])
        if want is None:
            op.setdefault("problems", []).append("no recorded digest for this input")
        elif op["digest"] != want:
            op.setdefault("problems", []).append(
                f"answer digest {op['digest']} differs from recorded {want}")
        seen[op["key"]] = op["digest"]
    failures = [{"input": op["key"], "problems": op["problems"]}
                for op in ops if op.get("problems")]
    text = json.dumps(sorted(seen.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16], len(seen), failures


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(args, deadline, report):
    setups = [worker("setup", args.workload, args.seed, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    res = worker("timed", args.workload, args.seed, deadline, seconds=args.seconds)
    setups.append(res["setup_s"])
    ops = res["ops"]
    digest, distinct, failures = check_digests(args.workload, ops)
    failed = len(failures)
    fastest = {}
    for op in ops:
        wall, cpu = fastest.get(op["key"], (op["wall_s"], op["cpu_s"]))
        fastest[op["key"]] = (min(wall, op["wall_s"]), min(cpu, op["cpu_s"]))
    best_walls = [wall for wall, _ in fastest.values()]
    walls = [op["wall_s"] for op in ops]
    closed_loop = {"ops_per_s": len(ops) / sum(walls),
                   "latency_p50_ms": statistics.median(walls) * 1000}
    if len(ops) >= 100:
        closed_loop["latency_p90_ms"] = statistics.quantiles(walls, n=10)[-1] * 1000
    report.update(env=res["env"], inputs=res["inputs"], cycles=res["cycles"],
                  ops=len(ops), distinct_inputs=distinct, digest=digest,
                  setup_samples_s=setups, closed_loop=closed_loop,
                  failures=failures[:20], fail_ratio=failed / len(ops))
    metrics = {
        "ops_per_s": metric(len(fastest) / sum(best_walls), "1/s"),
        "latency_p50_ms": metric(statistics.median(best_walls) * 1000, "ms"),
        "cpu_ms_per_op": metric(statistics.mean(cpu for _, cpu in fastest.values()) * 1000,
                                "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def traced_run(args, deadline, report):
    plain = worker("pass", args.workload, args.seed, deadline)
    first = worker("traced", args.workload, args.seed, deadline)
    second = worker("traced", args.workload, args.seed, deadline)
    ops = plain["ops"] + first["ops"] + second["ops"]
    digest, distinct, failures = check_digests(args.workload, ops)
    failed = len(failures)

    trace = first["trace"]
    counts, counts2 = trace["counts"], second["trace"]["counts"]
    differing = sorted(k for k in counts.keys() | counts2.keys()
                       if counts.get(k) != counts2.get(k))
    cons = trace["consistency"]
    consistent = cons["spans_nested"] and cons["outside_s"] >= 0 and \
        abs(cons["residual_s"]) <= 1e-6 * max(cons["wall_s"], 1.0)
    plain_wall = sum(op["wall_s"] for op in plain["ops"])

    spans = trace["spans"]
    metrics = {f"{layer}.self_s": metric(seconds, "s")
               for layer, seconds in trace["layers"].items()}
    for name, fields in SPAN_METRICS:
        row = spans.get(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        for field in fields:
            unit = "count" if field == "calls" else "s"
            metrics[f"{name}.{field}"] = metric(row[field], unit)
    for name, unit in COUNT_METRICS:
        metrics[name] = metric(counts.get(name, 0), unit)
    metrics["trace.wall_s"] = metric(cons["wall_s"], "s")
    metrics["trace.outside_s"] = metric(cons["outside_s"], "s")
    metrics["trace.overhead_ratio"] = metric(cons["wall_s"] / plain_wall, "ratio")

    wall = cons["wall_s"]
    report.update(
        env=first["env"], inputs=first["inputs"], ops_per_pass=len(first["ops"]),
        distinct_inputs=distinct, digest=digest, failures=failures[:20],
        determinism={"kind": "exact counts, not timings",
                     "compared": len(counts), "identical": not differing,
                     "differing": differing[:20]},
        consistency={**cons, "ok": consistent},
        untraced_wall_s=plain_wall, missing_spans=trace["missing"],
        share_of_wall={name: round(row["incl_s"] / wall, 4)
                       for name, row in spans.items() if row["incl_s"] >= 0.01 * wall},
        spans=dict(sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])),
    )
    correct = failed == 0 and not differing and consistent
    return {"correct": correct, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def record_digests():
    deadline = time.monotonic() + 900
    out = {}
    for name in WORKLOADS:
        res = worker("pass", name, 0, deadline)
        bad = [op for op in res["ops"] if op.get("problems")]
        if bad:
            raise BenchError(f"{name}: refusing to record failing ops: {bad[:3]}")
        out[name] = {op["key"]: op["digest"] for op in res["ops"]}
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(map(len, out.values()))} digests in {DIGESTS}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="run every input once and rewrite digests.json")
    args = ap.parse_args()
    if not (ROOT / "src" / "smc_kit" / "__init__.py").is_file():
        print(f"error: no smc_kit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.record_digests:
            record_digests()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        report = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "machine": machine_notes()}
        run = traced_run if args.trace else timed_run
        result = run(args, deadline, report)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

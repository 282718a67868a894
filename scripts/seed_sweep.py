#!/usr/bin/env python3
"""Run pytest node ids over a range of Hypothesis seeds and print the
failing seeds.

Each seed runs in a fresh temporary working directory, so each gets its own
empty Hypothesis example database (``.hypothesis/`` is created in the
working directory) and no run replays an example another run saved.  Run
the sweep before and after any change to arithmetic over the rationals: a
property test that fails at one seed in six shows up here, not in one
tier-1 run.

Usage (from the root of a checkout):

  python scripts/seed_sweep.py tests/test_algebra.py::test_stacked_module_solves_against_reference
  python scripts/seed_sweep.py --seeds 1-60 tests/test_exactla.py tests/test_algebra.py

Exits 1 when any seed fails.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def absolute(node_id):
    """node_id with its file part made absolute, relative to the repo root
    unless it names an existing path from the current directory."""
    path, sep, rest = node_id.partition("::")
    p = Path(path)
    if not p.is_absolute():
        p = (Path.cwd() / p) if (Path.cwd() / p).exists() else ROOT / p
    return str(p.resolve()) + sep + rest


def run_seed(seed, node_ids):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with tempfile.TemporaryDirectory(prefix="seed_sweep_") as work:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"--rootdir={ROOT}", f"--hypothesis-seed={seed}", *node_ids],
            cwd=work, env=env, capture_output=True, text=True)
    tail = proc.stdout.strip().splitlines()[-1:] or [proc.stderr.strip()]
    return proc.returncode, tail[0]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("node_ids", nargs="+", help="pytest node ids or test files")
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-60"),
                    help="inclusive seed range, as 1-60 or 9 (default 1-60)")
    args = ap.parse_args(argv)
    node_ids = [absolute(n) for n in args.node_ids]
    failing = []
    for seed in args.seeds:
        code, summary = run_seed(seed, node_ids)
        print(f"seed {seed}: {summary}", flush=True)
        if code != 0:
            failing.append(seed)
    print(f"failing seeds: {' '.join(map(str, failing)) or 'none'} "
          f"(of {len(args.seeds)}: {args.seeds.start}-{args.seeds.stop - 1})")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())

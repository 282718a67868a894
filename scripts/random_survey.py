#!/usr/bin/env python3
"""Randomized survey over small linear-quiver recollements.

For each validated random (algebra, idempotent) pair, glue the standard
collections through both routes, test their agreement, run the order
preservation check on a randomly weakened pair, and probe whether
corner-side mutation commutes with gluing (recording how often the
first-terms condition holds).

Usage: python scripts/random_survey.py [--count N] [--seed S] [--field P]
"""

import argparse
import random
import sys
import time

from smc_kit.exactla import DEFAULT_PRIME, get_field
from smc_kit.fixtures import random_recollement
from smc_kit.smc import (
    glue,
    glue_dual,
    is_rigid,
    mutate,
    smc_iso,
    standard_smc,
    validate_smc,
)
from smc_kit.verify import check_glue_mutation_commute, check_order_preservation


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--field", default=str(DEFAULT_PRIME))
    args = ap.parse_args()
    rng = random.Random(args.seed)
    field = get_field(args.field if not args.field.isdigit() else int(args.field))
    stats = {"instances": 0, "routes_agree": 0, "validated_glue": 0,
             "order_preserved": 0, "commute_checked": 0, "condition_held": 0}
    t0 = time.time()
    while stats["instances"] < args.count:
        spec = random_recollement(field, rng)
        if spec is None:
            print("warning: no validated recollement in this batch", file=sys.stderr)
            continue
        stats["instances"] += 1
        sx, sy = standard_smc(spec.x_algebra), standard_smc(spec.y_algebra)
        g, _ = glue(sx, sy, spec)
        d, _ = glue_dual(sx, sy, spec)
        if smc_iso(g, d, rng=rng):
            stats["routes_agree"] += 1
        if validate_smc(g).passed:
            stats["validated_glue"] += 1

        def weaker(s):
            if len(s) and rng.random() < 0.5:
                i = rng.randrange(len(s))
                if is_rigid(s, i):
                    return mutate(s, i, "left")[0]
            return s.shifted(1)

        rep = check_order_preservation(sx, weaker(sx), sy, weaker(sy), spec)
        if rep.passed:
            stats["order_preserved"] += 1
        if len(sy):
            j = rng.randrange(len(sy))
            rep = check_glue_mutation_commute(sx, sy, spec, "y", j, "left")
            stats["commute_checked"] += 1
            if "condition holds" in rep.witness:
                stats["condition_held"] += 1
            if not rep.passed:
                print(f"UNEXPECTED: {rep.line()}")
                return 1
    for key, val in stats.items():
        print(f"{key:18} {val}")
    print(f"elapsed {time.time() - t0:.1f}s")
    ok = (stats["routes_agree"] == stats["instances"]
          and stats["validated_glue"] == stats["instances"]
          and stats["order_preserved"] == stats["instances"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads, run through smc_kit's public API.

Every workload draws a fixed universe of inputs from its own
``random.Random`` with a fixed seed, and the run's ``--seed`` only orders that
universe.  A timed run executes whole passes over the universe ("cycles"), so
every run measures the same mix of inputs and the seed cannot move the
averages; the heavy tails of the per-input cost (a 4-vertex glue candidate
costs a tenth of an 8-vertex one) would otherwise dominate run-to-run spread.
Universes are small so that a run repeats every input about ten times: the
CPU speed of a shared sandbox swings by tens of percent over seconds, and
``run.py`` times each input by its fastest repeat.  ``cycle_s`` is the
nominal wall time of one cycle on a 2-vCPU x86-64 sandbox (Python 3.11,
numpy 2.4); a run of S seconds holds ``S // cycle_s`` cycles, at least two,
whatever the speed of the code under test.

One op is one closed-loop call.  Ops start cold: they rebuild algebras and
complexes from raw quiver data, so no object cache survives from set-up or an
earlier op.  The exception is ``mutation_walk``, whose collection carries over
from step to step as in a user's session.  Every library call that takes an
``rng`` gets a fresh ``random.Random(0)``, so a change in how many random
numbers the library draws cannot change the workload.

Each op returns its answer; ``check`` then tests it against references that do
not come from the code path under test and returns an iso-invariant digest
payload: minimal term profiles, Hom windows, validated flags and iso outcomes,
never representatives or signs.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import smc_kit
import smc_kit.cli
from smc_kit import Algebra, build_recollement, get_field
from smc_kit.algebra import global_dimension, linear_quiver
from smc_kit.config import NotRigidError
from smc_kit.smc import compare, glue, glue_dual, mutate, smc_iso, standard_smc, validate_smc

PRIME = 32003
ROOT = Path(__file__).resolve().parent.parent


def profile(cplx):
    """Minimal term profile as a JSON-friendly list."""
    return sorted([k, list(v)] for k, v in cplx.term_profile().items())


def report_digest(rep):
    return {
        "passed": rep.passed,
        "axiom1_failures": sorted(map(list, rep.axiom1_failures)),
        "axiom3_failures": sorted(map(list, rep.axiom3_failures)),
        "euler_det": rep.euler_det,
        "windows": sorted([list(k), list(v)] for k, v in rep.windows.items()),
    }


def path_count(n, rels):
    """Dimension of the path algebra of 1 -> ... -> n modulo the monomial
    relations ``rels``: the paths i -> j containing no relation."""
    spans = [(int(r[0][1:]), int(r[-1][1:])) for r in rels]
    return sum(1 for i in range(1, n + 1) for j in range(i, n + 1)
               if not any(i <= first and last <= j - 1 for first, last in spans))


def draw_relations(rng, n):
    """Monomial relations on 1 -> ... -> n, distributed as in
    ``smc_kit.fixtures.random_monomial_linear_algebra``."""
    arrows = [f"a{i + 1}" for i in range(n - 1)]
    rels = []
    for start in range(len(arrows) - 1):
        if rng.random() < 0.35:
            length = rng.randint(2, min(3, len(arrows) - start))
            rels.append(tuple(arrows[start:start + length]))
    return rels


class GlueScan:
    """Random recollement, then both gluing routes and their comparison."""

    name = "glue_scan"
    cycle_s = 1.8

    def __init__(self, seed):
        rng = random.Random("glue_scan universe")
        self.universe = []
        for n in range(4, 9):  # one candidate per vertex count
            rels = draw_relations(rng, n)
            subset = tuple(sorted(rng.sample(range(n), rng.randint(1, n - 1))))
            self.universe.append((n, rels, subset))
        self.order = list(range(len(self.universe)))
        random.Random(seed).shuffle(self.order)

    def cycle(self):
        return [self.universe[i] for i in self.order]

    @staticmethod
    def key(item):
        n, rels, subset = item
        return (f"n{n} rels[{','.join('*'.join(r) for r in rels)}] "
                f"e[{','.join(map(str, subset))}]")

    def run(self, item):
        n, rels, subset = item
        A = Algebra.from_quiver(get_field(PRIME), linear_quiver(n), relations=rels)
        spec = build_recollement(A, subset)
        if not spec.validated:
            return A, spec, None
        sx, sy = standard_smc(spec.x_algebra), standard_smc(spec.y_algebra)
        g, _ = glue(sx, sy, spec, rng=random.Random(0))
        d, _ = glue_dual(sx, sy, spec, rng=random.Random(0))
        same = smc_iso(g, d, rng=random.Random(0))
        return A, spec, (g, d, same, validate_smc(g))

    def check(self, item, out):
        A, spec, glued = out
        rep = spec.report
        digest = {
            "dim": A.dim,
            "validated": spec.validated,
            "gldim": [rep.gldim_middle, rep.gldim_quotient, rep.gldim_corner,
                      rep.gldim_corner_op],
            "pd_quotient": rep.pd_quotient_over_middle,
            "checks": [[c.name, c.ok] for c in rep.checks],
        }
        n, rels, _ = item
        problems = []
        if A.dim != path_count(n, rels):
            problems.append(f"dim A is {A.dim}, want {path_count(n, rels)} paths")
        if glued is not None:
            g, d, same, vrep = glued
            digest.update(glued=[profile(o) for o in g.objects],
                          dual=[profile(o) for o in d.objects],
                          routes_agree=bool(same), validate=report_digest(vrep))
            if not same:
                problems.append("j_! and j_* routes give non-isomorphic collections")
            if not vrep.passed:
                problems.append("glued collection fails validate_smc")
            if not g.euler_unimodular:
                problems.append("glued collection has a non-unimodular Euler matrix")
            if len(g) != A.nvert:
                problems.append(f"glued collection has {len(g)} objects, want {A.nvert}")
        return digest, problems

    def describe(self):
        return {"field": PRIME,
                "candidates": [self.key(item) for item in self.universe],
                "algebra_dims": [path_count(n, rels) for n, rels, _ in self.universe]}


class MutationWalk:
    """Seeded random walk of rigid mutations on one fixed algebra."""

    name = "mutation_walk"
    n = 10
    relations = (("a4", "a5", "a6"), ("a7", "a8", "a9"))
    segments = 2
    steps = 16
    cycle_s = 2.0

    def __init__(self, seed):
        self.algebra = Algebra.from_quiver(get_field(PRIME), linear_quiver(self.n),
                                           relations=self.relations)
        self.standard = standard_smc(self.algebra)
        rng = random.Random("mutation_walk universe")
        self.walks = [[(rng.randrange(self.n), rng.choice(("left", "right")))
                       for _ in range(self.steps)] for _ in range(self.segments)]
        self.order = list(range(self.segments))
        random.Random(seed).shuffle(self.order)
        self.current = self.standard

    def cycle(self):
        return [(w, s) for w in self.order for s in range(self.steps)]

    @staticmethod
    def key(item):
        return f"walk{item[0]:02d} step{item[1]:02d}"

    def run(self, item):
        w, s = item
        if s == 0:
            self.current = self.standard
        prev = self.current
        i, direction = self.walks[w][s]
        for attempt in range(self.n):
            idx = (i + attempt) % self.n
            try:
                new, _ = mutate(prev, idx, direction)
                break
            except NotRigidError:
                continue
        else:
            raise RuntimeError("no rigid object to mutate at")
        rep = validate_smc(new)
        relation = compare(prev, new, rng=random.Random(0))
        self.current = new
        return idx, direction, new, rep, relation

    def check(self, item, out):
        idx, direction, new, rep, relation = out
        digest = {"index": idx, "direction": direction, "relation": relation,
                  "objects": [profile(o) for o in new.objects],
                  "validate": report_digest(rep)}
        problems = []
        if not rep.passed:
            problems.append("mutated collection fails validate_smc")
        want = "geq" if direction == "left" else "leq"
        if relation != want:
            problems.append(f"compare(S, mu S) is {relation!r}, want {want!r} "
                            f"for a {direction} mutation")
        return digest, problems

    def describe(self):
        return {"field": PRIME, "vertices": self.n,
                "algebra_dim": path_count(self.n, self.relations),
                "relations": ["*".join(r) for r in self.relations],
                "walks": self.segments, "steps_per_walk": self.steps}


class PathAlgebraBuild:
    """Path algebras of linear quivers without relations, and their global
    dimension."""

    name = "path_algebra_build"
    sizes = tuple(range(8, 13))
    cycle_s = 2.5

    def __init__(self, seed):
        self.order = list(self.sizes)
        random.Random(seed).shuffle(self.order)

    def cycle(self):
        return list(self.order)

    @staticmethod
    def key(item):
        return f"A{item}"

    def run(self, n):
        A = Algebra.from_quiver(get_field(PRIME), linear_quiver(n))
        return A, global_dimension(A)

    def check(self, n, out):
        A, gldim = out
        problems = []
        if A.dim != n * (n + 1) // 2:
            problems.append(f"dim A_{n} is {A.dim}, want {n * (n + 1) // 2}")
        if gldim != 1:
            problems.append(f"global dimension of A_{n} is {gldim}, want 1")
        return {"n": n, "dim": A.dim, "nvert": A.nvert, "gldim": gldim}, problems

    def describe(self):
        return {"field": PRIME, "vertices": list(self.sizes),
                "algebra_dims": [n * (n + 1) // 2 for n in self.sizes]}


# README command list; the expected exit code and, where the README states
# it, the expected collection as (degree -> vertices) terms per object.
S2 = {"0": ["2"]}
S1 = {"-1": ["2"], "0": ["1"]}
CLI_COMMANDS = (
    (("paper-examples",), 0, None),
    (("validate", "fixtures/two_cycle.json", "standard"), 0, None),
    (("validate", "fixtures/two_cycle.json", "naive_lower"), 1, None),
    (("glue", "fixtures/a2.json", "R", "xstd", "ystd"), 0, [S2, S1]),
    (("glue", "fixtures/a2.json", "R", "xstd", "ystd", "--dual"), 0, [S2, S1]),
    (("mutate", "fixtures/a2.json", "glued_order", "0", "left"), 0,
     [{"-1": ["2"]}, {"0": ["1"]}]),
    (("order", "fixtures/a2.json", "standard", "glued_order"), 0, None),
    (("truncate", "fixtures/two_cycle.json", "standard", "S1res"), 0, None),
    (("hom", "fixtures/two_cycle.json", "A", "simple:2", "proj:1"), 0, None),
)
# Representatives (differentials, the non-minimal coaisle part of a
# truncation), timings and prose stay out of the digest.
CLI_DROPPED_KEYS = {"diffs", "coaisle_part", "seconds", "witness", "notes"}


def _strip(value):
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k not in CLI_DROPPED_KEYS}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


class CliFixtures:
    """In-process ``smc_kit.cli.main`` calls on the shipped fixtures."""

    name = "cli_fixtures"
    fields = ("32003", "rationals")
    cycle_s = 1.1

    def __init__(self, seed):
        self.order = list(range(len(CLI_COMMANDS)))
        random.Random(seed).shuffle(self.order)

    def cycle(self):
        # An odd number of commands with alternating fields runs every
        # command once over each field per cycle.
        return [(self.order[k % len(self.order)], self.fields[k % 2])
                for k in range(2 * len(self.order))]

    @staticmethod
    def key(item):
        idx, field = item
        return f"--field {field} {' '.join(CLI_COMMANDS[idx][0])}"

    def run(self, item):
        idx, field = item
        args = [str(ROOT / a) if a.startswith("fixtures/") else a
                for a in CLI_COMMANDS[idx][0]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = smc_kit.cli.main(["--field", field, "--json", *args])
        return code, out.getvalue(), err.getvalue()

    def check(self, item, out):
        code, stdout, stderr = out
        _, want_code, want_terms = CLI_COMMANDS[item[0]]
        problems = []
        if code != want_code:
            problems.append(f"exit code {code}, want {want_code}: {stderr.strip()[:200]}")
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError:
            return {"exit": code}, problems + ["stdout is not one JSON document"]
        if want_terms is not None:
            got = [o["terms"] for o in payload.get("objects", [])]
            if got != want_terms:
                problems.append(f"collection terms {got}, want {want_terms}")
        if "all_passed" in payload and not payload["all_passed"]:
            problems.append("paper-examples reports a failed check")
        return {"exit": code, "out": _strip(payload)}, problems

    def describe(self):
        return {"fields": list(self.fields),
                "commands": [" ".join(c[0]) for c in CLI_COMMANDS]}


WORKLOADS = {w.name: w for w in (GlueScan, MutationWalk, PathAlgebraBuild, CliFixtures)}

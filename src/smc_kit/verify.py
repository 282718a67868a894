"""Named, reportable checks for every verifiable statement of the theory:
order preservation under gluing, mutation order chains, commutation of
gluing with mutation (with its first-terms condition), and the built-in
worked examples.

Every failing report carries a finite witness (the offending Hom dimension
or the pair that failed the isomorphism match), so a failure can be
re-examined in isolation.  Hypothesis-gated statements report one of three
states: pass, fail, hypothesis-failed; a statement counts as refuted only
when it fails with its hypothesis satisfied.
"""

from __future__ import annotations

import random as _random
import time
from dataclasses import dataclass
from typing import List, Literal, Tuple

from .config import DEFAULT_LIMITS, SmcKitError
from .exactla import DEFAULT_PRIME
from .fixtures import a2_fixture, two_cycle_fixture
from .algebra import module_hom_space
from .homotopy import hom_dims, is_iso, shift
from .recollement import RecollementSpec, j_upper_shriek
from .smc import (
    SMC,
    Certificate,
    dominates,
    glue,
    glue_dual,
    is_glued_type_candidate,
    is_rigid,
    mutate,
    smc_iso,
    validate_smc,
)

Status = Literal["pass", "fail", "hypothesis-failed", "precondition-failed"]


@dataclass
class CheckReport:
    name: str
    inputs: str
    status: Status
    witness: str = ""
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def line(self) -> str:
        mark = {"pass": "PASS", "fail": "FAIL",
                "hypothesis-failed": "SKIP(hypothesis)",
                "precondition-failed": "SKIP(precondition)"}[self.status]
        extra = f" [{self.witness}]" if self.witness else ""
        return f"{mark:18} {self.name} ({self.inputs}){extra} {self.seconds:.2f}s"

    def to_dict(self):
        return {"name": self.name, "inputs": self.inputs, "status": self.status,
                "witness": self.witness, "seconds": self.seconds}


def _timed(name: str, inputs: str, fn) -> CheckReport:
    t0 = time.perf_counter()
    try:
        status, witness = fn()
    except SmcKitError as exc:
        status, witness = "fail", f"error: {exc}"
    return CheckReport(name, inputs, status, witness,
                       time.perf_counter() - t0)


def check_order_preservation(S_X: SMC, Sp_X: SMC, S_Y: SMC, Sp_Y: SMC,
                             R: RecollementSpec) -> CheckReport:
    """Gluing four dominating pairs preserves the order on both routes."""

    def run():
        if not dominates(S_X, Sp_X) or not dominates(S_Y, Sp_Y):
            return "precondition-failed", "inputs are not ordered"
        g1, _ = glue(S_X, S_Y, R)
        g2, _ = glue(Sp_X, S_Y, R)
        g3, _ = glue(S_X, Sp_Y, R)
        g4, _ = glue(Sp_X, Sp_Y, R)
        for label, a, b in (("1>=2", g1, g2), ("2>=4", g2, g4),
                            ("1>=3", g1, g3), ("3>=4", g3, g4)):
            if not dominates(a, b):
                return "fail", f"inequality {label} fails"
        return "pass", ""

    return _timed("order preservation under gluing",
                  f"|X|={len(S_X)}, |Y|={len(S_Y)}", run)


def check_mutation_order_chain(S: SMC, i: int) -> CheckReport:
    """S[-1] >= mu^-_i(S) >= S >= mu^+_i(S) >= S[1]."""

    def run():
        if not is_rigid(S, i):
            return "precondition-failed", f"object {i} is not rigid"
        plus, _ = mutate(S, i, "left")
        minus, _ = mutate(S, i, "right")
        chain = (("S[-1] >= mu^-", S.shifted(-1), minus),
                 ("mu^- >= S", minus, S),
                 ("S >= mu^+", S, plus),
                 ("mu^+ >= S[1]", plus, S.shifted(1)))
        for label, a, b in chain:
            if not dominates(a, b):
                return "fail", label
        return "pass", ""

    return _timed("mutation order chain", f"index {i}", run)


def check_conditional_order(S: SMC, Sp: SMC, i: int, j: int) -> CheckReport:
    """Conditional comparison of one-step mutations of ordered collections."""

    def run():
        if not dominates(S, Sp):
            return "precondition-failed", "S >= S' fails"
        if not is_rigid(S, i) or not is_rigid(Sp, j):
            return "precondition-failed", "rigidity fails"
        hyp1 = all(hom_dims(Sp.objects[l], S.objects[i], (0,))[0] == 0
                   for l in range(len(Sp)))
        results = []
        if hyp1:
            mu_i, _ = mutate(S, i, "left")
            mu_j, _ = mutate(Sp, j, "left")
            ok = dominates(mu_i, Sp) and dominates(Sp, mu_j)
            results.append(("left clause", ok))
        hyp2 = all(hom_dims(Sp.objects[j], S.objects[l], (0,))[0] == 0
                   for l in range(len(S)))
        if hyp2:
            mu_i, _ = mutate(S, i, "right")
            mu_j, _ = mutate(Sp, j, "right")
            ok = dominates(mu_i, S) and dominates(S, mu_j)
            results.append(("right clause", ok))
        if not results:
            return "hypothesis-failed", "both vanishing hypotheses fail"
        for label, ok in results:
            if not ok:
                return "fail", label
        return "pass", f"{len(results)} clause(s) checked"

    return _timed("conditional mutation order", f"i={i}, j={j}", run)


def _routes(S_X: SMC, S_Y: SMC, R: RecollementSpec, glued: SMC, side: str,
            index: int, direction: str) -> Tuple[SMC, SMC]:
    """The two routes round the gluing-mutation square for the object index
    of one side: (glue after mutating it, mutation of glued, the gluing of
    S_X and S_Y, at its position there)."""
    if side == "x":
        after = glue(mutate(S_X, index, direction)[0], S_Y, R)[0]
        pos = index
    else:
        after = glue(S_X, mutate(S_Y, index, direction)[0], R)[0]
        pos = len(S_X) + index
    return after, mutate(glued, pos, direction)[0]


def commute_condition(glued: SMC, m: int, j: int, direction: str) -> bool:
    """The first-terms condition: no degree-one Hom between the quotient
    images and W_j (left), or the dual (right)."""
    W = glued.objects[m + j]
    for t in range(m):
        if direction == "left":
            d = hom_dims(glued.objects[t], W, (1,))[1]
        else:
            d = hom_dims(W, glued.objects[t], (1,))[1]
        if d:
            return False
    return True


def check_glue_mutation_commute(S_X: SMC, S_Y: SMC, R: RecollementSpec,
                                side: str, index: int,
                                direction: str = "left") -> CheckReport:
    """Quotient-side mutations always commute with gluing; corner-side ones
    commute exactly under the degree-one Hom-vanishing condition."""

    def run():
        m = len(S_X)
        glued, _ = glue(S_X, S_Y, R)
        if side == "x":
            if not is_rigid(S_X, index):
                return "precondition-failed", "object not rigid"
            lhs, rhs = _routes(S_X, S_Y, R, glued, "x", index, direction)
            if smc_iso(lhs, rhs):
                return "pass", ""
            return "fail", "quotient-side commutation failed"
        if not is_rigid(S_Y, index):
            return "precondition-failed", "object not rigid"
        cond = commute_condition(glued, m, index, direction)
        lhs, rhs = _routes(S_X, S_Y, R, glued, "y", index, direction)
        if cond:
            if smc_iso(lhs, rhs):
                return "pass", "condition holds and results agree"
            return "fail", "condition holds but results differ"
        # both sides are collections, so their objects are bricks and a
        # NO of smc_iso is certified
        if not smc_iso(lhs, rhs):
            return "pass", "condition fails; non-isomorphism certified"
        return "pass", "condition fails; results nevertheless isomorphic"

    return _timed("gluing commutes with mutation",
                  f"side {side}, index {index}, {direction}", run)


def check_intermediate_order(S_X: SMC, S_Y: SMC, R: RecollementSpec,
                             side: str, index: int) -> CheckReport:
    """S^- >= S_T >= S^+ and mu^+(S_T) >= S^+, S^- >= mu^-(S_T)."""

    def run():
        S = S_X if side == "x" else S_Y
        if not is_rigid(S, index):
            return "precondition-failed", "object not rigid"
        glued, _ = glue(S_X, S_Y, R)
        plus_side, mu_plus = _routes(S_X, S_Y, R, glued, side, index, "left")
        minus_side, mu_minus = _routes(S_X, S_Y, R, glued, side, index, "right")
        for label, a, b in (("S^- >= S_T", minus_side, glued),
                            ("S_T >= S^+", glued, plus_side),
                            ("mu^+(S_T) >= S^+", mu_plus, plus_side),
                            ("S^- >= mu^-(S_T)", minus_side, mu_minus)):
            if not dominates(a, b):
                return "fail", label
        return "pass", ""

    return _timed("intermediate mutation order",
                  f"side {side}, index {index}", run)


def check_first_m_terms(S_X: SMC, S_Y: SMC, R: RecollementSpec, j: int,
                        direction: str = "left") -> CheckReport:
    """First-m-terms agreement holds iff the Hom-vanishing condition does."""

    def run():
        if not is_rigid(S_Y, j):
            return "precondition-failed", "corner object not rigid"
        m = len(S_X)
        glued, _ = glue(S_X, S_Y, R)
        cond = commute_condition(glued, m, j, direction)
        lhs, rhs = _routes(S_X, S_Y, R, glued, "y", j, direction)
        rng = _random.Random(0)
        same = all(is_iso(lhs.objects[t], rhs.objects[t], rng=rng).isomorphic
                   for t in range(m))
        if cond == same:
            return "pass", "condition and agreement match"
        return "fail", f"condition={cond} but first-terms agreement={same}"

    return _timed("first terms vs condition", f"j={j}, {direction}", run)


# -- the worked examples ---------------------------------------------------------


def run_paper_examples(field=DEFAULT_PRIME,
                       pd_bound: int = DEFAULT_LIMITS.pd_bound) -> List[CheckReport]:
    """The built-in fixtures, end to end; all must pass.  pd_bound bounds
    every projective dimension the fixtures resolve."""
    reports: List[CheckReport] = []
    rng = _random.Random(0)
    tc = two_cycle_fixture(field, pd_bound)
    a2 = a2_fixture(field, pd_bound)

    def add(name, inputs, fn):
        reports.append(_timed(name, inputs, fn))

    # 1. the non-collection demonstration over the two-cycle algebra
    def non_smc():
        A = tc.algebra
        h1 = len(module_hom_space(A.simple_module(1), A.projective_module(0)))
        h2 = len(module_hom_space(A.injective_module(0), A.simple_module(1)))
        if h1 < 1 or h2 < 1:
            return "fail", f"expected nonzero Hom spaces, got {h1}, {h2}"
        bad1 = SMC(A, (tc.complexes["S2"], tc.complexes["P1"]), Certificate("user"))
        bad2 = SMC(A, (tc.complexes["S2"], tc.complexes["I1"]), Certificate("user"))
        r1, r2 = validate_smc(bad1), validate_smc(bad2)
        if r1.passed or r2.passed:
            return "fail", "a non-collection validated"
        witness = (f"dim Hom(S2,eA)={h1}, dim Hom(I1,S2)={h2}; rejections: "
                   f"{(r1.axiom1_failures + r1.axiom3_failures)[:1]}, "
                   f"{(r2.axiom1_failures + r2.axiom3_failures)[:1]}")
        return "pass", witness

    add("naive corner images are not a collection", "two-cycle", non_smc)

    # 2. gluing across the two-cycle recollement, with image identities
    def glued_ok():
        out, report = glue(tc.x_smc, tc.y_smc, tc.spec, deep=True, rng=rng)
        rep = validate_smc(out)
        if not rep.passed:
            return "fail", f"axiom failures {rep.axiom1_failures + rep.axiom3_failures}"
        if not rep.euler_unimodular:
            return "fail", f"Euler determinant {rep.euler_det}"
        if not report.all_verified():
            bad = [(i.y_index, i.image_identities, i.second_triangle_ok)
                   for i in report.items]
            return "fail", f"image identities: {bad}"
        return "pass", "axioms, Euler, triangles and image identities"

    add("glued collection validates", "two-cycle", glued_ok)

    # 3. the two gluing routes agree
    for fix in (tc, a2):
        def both_routes(fix=fix):
            g, _ = glue(fix.x_smc, fix.y_smc, fix.spec)
            d, _ = glue_dual(fix.x_smc, fix.y_smc, fix.spec)
            if smc_iso(g, d, rng=rng):
                return "pass", ""
            return "fail", "routes disagree"

        add("primal and dual gluing agree", fix.name, both_routes)

    # 4. diagram (1): quotient-side mutations commute (both directions)
    reports.append(check_glue_mutation_commute(a2.x_smc, a2.y_smc, a2.spec,
                                               "x", 0, "left"))
    reports.append(check_glue_mutation_commute(
        a2.x_smc.shifted(1), a2.y_smc.shifted(-1), a2.spec, "x", 0, "right"))

    def diagram1_values():
        glued, _ = glue(a2.x_smc, a2.y_smc, a2.spec)
        mu, _ = mutate(glued, 0, "left")
        expected = SMC(a2.algebra, (shift(a2.complexes["S2"], 1),
                                    a2.complexes["P1"]), Certificate("user"))
        if smc_iso(mu, expected, rng=rng):
            return "pass", "mutation lands on {S2[1], P1}"
        return "fail", "unexpected mutation result"

    add("diagram (1) explicit values", "a2", diagram1_values)

    # 5. diagram (2): corner-side mutations commute when the condition holds
    reports.append(check_glue_mutation_commute(
        a2.x_smc.shifted(1), a2.y_smc.shifted(1), a2.spec, "y", 0, "left"))
    reports.append(check_glue_mutation_commute(
        a2.x_smc.shifted(1), a2.y_smc, a2.spec, "y", 0, "right"))

    def diagram2_values():
        S_X = a2.x_smc.shifted(1)
        glued, _ = glue(S_X, a2.y_smc.shifted(1), a2.spec)
        if not commute_condition(glued, 1, 0, "left"):
            return "fail", "condition unexpectedly fails"
        mu, _ = mutate(glued, 1, "left")
        expected = SMC(a2.algebra, (shift(a2.complexes["S2"], 1),
                                    shift(a2.complexes["S1"], 2)),
                       Certificate("user"))
        if smc_iso(mu, expected, rng=rng):
            return "pass", "mutation lands on {S2[1], S1[2]}"
        return "fail", "unexpected mutation result"

    add("diagram (2) explicit values", "a2", diagram2_values)

    # 6. diagram (3): without the condition the routes certifiably differ
    def diagram3_plus():
        S_X = a2.x_smc.shifted(1)
        glued, _ = glue(S_X, a2.y_smc, a2.spec)   # {S2[1], P1}
        if commute_condition(glued, 1, 0, "left"):
            return "fail", "condition unexpectedly holds"
        # mu = {S1, P1[1]}
        other, mu = _routes(S_X, a2.y_smc, a2.spec, glued, "y", 0, "left")
        if smc_iso(mu, other, rng=rng):
            return "fail", "the two routes agree"
        expected = SMC(a2.algebra, (a2.complexes["S1"],
                                    shift(a2.complexes["P1"], 1)),
                       Certificate("user"))
        if not smc_iso(mu, expected, rng=rng):
            return "fail", "unexpected left-mutation value"
        return "pass", "{S1, P1[1]} vs {S2[1], S1[1]} certified distinct"

    add("diagram (3), left mutation differs", "a2", diagram3_plus)

    def diagram3_minus():
        S_X, S_Y = a2.x_smc.shifted(1), a2.y_smc.shifted(1)
        glued, _ = glue(S_X, S_Y, a2.spec)  # {S2[1], S1[1]}
        if commute_condition(glued, 1, 0, "right"):
            return "fail", "dual condition unexpectedly holds"
        # mu = {P1[1], S1}
        other, mu = _routes(S_X, S_Y, a2.spec, glued, "y", 0, "right")
        if smc_iso(mu, other, rng=rng):
            return "fail", "the two routes agree"
        expected = SMC(a2.algebra, (shift(a2.complexes["P1"], 1),
                                    a2.complexes["S1"]), Certificate("user"))
        if not smc_iso(mu, expected, rng=rng):
            return "fail", "unexpected right-mutation value"
        return "pass", "{P1[1], S1} vs {S2[1], P1} certified distinct"

    add("diagram (3), right mutation differs", "a2", diagram3_minus)

    # the two inequality assertions on the diagram (3) data
    reports.append(check_intermediate_order(a2.x_smc.shifted(1), a2.y_smc,
                                            a2.spec, "y", 0))
    reports.append(check_intermediate_order(a2.x_smc.shifted(1),
                                            a2.y_smc.shifted(1), a2.spec, "y", 0))

    # 7. the glued-type necessary condition
    def glued_type():
        cand = SMC(a2.algebra, (shift(a2.complexes["P1"], 1),
                                a2.complexes["S1"]), Certificate("user"))
        rep = validate_smc(cand)
        if not rep.passed:
            return "fail", "{P1[1], S1} should validate"
        if is_glued_type_candidate(cand, a2.spec):
            return "fail", "{P1[1], S1} wrongly reported as glued type"
        # the corner images are the stated nonzero objects Y[1] and Y
        Yc = a2.y_smc.objects[0]
        img1 = j_upper_shriek(a2.spec, cand.objects[0])
        img2 = j_upper_shriek(a2.spec, cand.objects[1])
        if not is_iso(img1, shift(Yc, 1), rng=rng).isomorphic:
            return "fail", "corner image of P1[1] is not Y[1]"
        if not is_iso(img2, Yc, rng=rng).isomorphic:
            return "fail", "corner image of S1 is not Y"
        out, _ = glue(a2.x_smc, a2.y_smc, a2.spec)
        if not is_glued_type_candidate(out, a2.spec):
            return "fail", "a glued output must be a candidate"
        return "pass", "corner images are Y[1] and Y, both noncontractible"

    add("glued-type necessary condition", "a2 {P1[1], S1}", glued_type)

    return reports

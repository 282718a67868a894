"""Checks of the paper's claims that only the test suite runs: the mutation
order chain, the conditional order of one-step mutations, first-terms
agreement against the commutation condition, and the generator-level
comparison of a glued collection's aisle with the glued t-structure.  They
report through verify's CheckReport, as the checks the CLI runs do."""

import random
from typing import List, Tuple

from smc_kit.homotopy import hom_dims, is_iso, shift
from smc_kit.recollement import (
    RecollementSpec,
    canonical_triangles,
    j_lower_shriek,
    j_upper_shriek,
)
from smc_kit.smc import (
    SMC,
    _quotient_images,
    dominates,
    glue,
    is_rigid,
    member_filt_geq,
    mutate,
)
from smc_kit.verify import CheckReport, _routes, _timed, commute_condition


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
        rng = random.Random(0)
        same = all(is_iso(lhs.objects[t], rhs.objects[t], rng=rng).isomorphic
                   for t in range(m))
        if cond == same:
            return "pass", "condition and agreement match"
        return "fail", f"condition={cond} but first-terms agreement={same}"

    return _timed("first terms vs condition", f"j={j}, {direction}", run)


def glued_t_structure_checks(S_T: SMC, S_X: SMC, S_Y: SMC, R: RecollementSpec,
                             shifts: int = 2) -> List[Tuple[str, bool]]:
    """Generator-level comparison of Filt S_T[>=0] with the glued aisle."""
    out = []
    images = _quotient_images(R, S_X)
    for l, img in enumerate(images):
        for k in range(shifts + 1):
            ok = member_filt_geq(shift(img, k), S_T.objects, 0)
            out.append((f"i_*(X_{l})[{k}] in glued aisle", ok))
    for l, Y in enumerate(S_Y.objects):
        jy = j_lower_shriek(R, Y)
        for k in range(shifts + 1):
            ok = member_filt_geq(shift(jy, k), S_T.objects, 0)
            out.append((f"j_!(Y_{l})[{k}] in glued aisle", ok))
    for idx, T in enumerate(S_T.objects):
        ok = member_filt_geq(j_upper_shriek(R, T), S_Y.objects, 0)
        out.append((f"j^!(T_{idx}) in corner aisle", ok))
        tri = canonical_triangles(R, T)
        ok = member_filt_geq(tri.i_star_part, images, 0)
        out.append((f"i_*i^*(T_{idx}) in quotient aisle", ok))
    return out

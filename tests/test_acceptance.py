"""Acceptance criteria, one test per criterion, each printing a PASS line
with its runtime and asserting the stated time budget."""

import random
import time

import claims
import gen
from smc_kit import verify
from smc_kit.exactla import PrimeField
from smc_kit.fixtures import a2_fixture, random_recollement, two_cycle_fixture
from smc_kit.homotopy import (
    cone,
    direct_sum,
    hom_basis,
    hom_table,
    is_iso,
    minimalize,
    shift,
)
from smc_kit.homotopy.complexes import ProjComplex
from smc_kit.recollement import j_lower_shriek, j_lower_star, j_upper_shriek
from smc_kit.smc import (
    SMC,
    Certificate,
    glue,
    glue_dual,
    is_glued_type_candidate,
    is_rigid,
    mutate,
    smc_iso,
    standard_smc,
    truncate,
    validate_smc,
)

A2 = a2_fixture()
TC = two_cycle_fixture()
FIELD = PrimeField(32003)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.limit = seconds
        self.t0 = time.perf_counter()

    def finish(self):
        elapsed = time.perf_counter() - self.t0
        print(f"\nACCEPTANCE {self.name}: PASS ({elapsed:.2f}s, "
              f"budget {self.limit}s)")
        assert elapsed < self.limit, f"{self.name} exceeded {self.limit}s"


def test_criterion_1_non_smc_example():
    b = Budget("1 (non-collection example)", 5)
    A = TC.algebra
    eA = A.projective_module(0)
    assert len(gen.module_hom_space(A.simple_module(1), eA)) >= 1
    assert len(gen.module_hom_space(A.injective_module(0), A.simple_module(1))) >= 1
    bad1 = SMC(A, (TC.complexes["S2"], TC.complexes["I1"]), Certificate("user"))
    bad2 = SMC(A, (TC.complexes["S2"], TC.complexes["P1"]), Certificate("user"))
    for bad in (bad1, bad2):
        rep = validate_smc(bad)
        assert not rep.passed
        assert rep.axiom1_failures or rep.axiom3_failures  # finite witness
    b.finish()


def test_criterion_2_gluing_theorem():
    b = Budget("2 (gluing theorem)", 30)
    out, report = glue(TC.x_smc, TC.y_smc, TC.spec, deep=True)
    rep = validate_smc(out)
    assert rep.passed
    assert rep.euler_unimodular
    assert out.certificate.kind == "glued"
    for item in report.items:
        assert item.image_identities["j_shriek_w_is_y"]
        assert item.image_identities["i_star_part_is_u_shift"]
        assert item.image_identities["i_shriek_part_is_v"]
        assert item.second_triangle_ok
    b.finish()


def test_criterion_3_primal_dual_agreement():
    b = Budget("3 (primal/dual agreement)", 300)
    rng = random.Random(2024)
    for fix in (A2, TC):
        g, _ = glue(fix.x_smc, fix.y_smc, fix.spec)
        d, _ = glue_dual(fix.x_smc, fix.y_smc, fix.spec)
        assert smc_iso(g, d, rng=rng)
    done = 0
    attempts = 0
    while done < 20 and attempts < 200:
        attempts += 1
        spec = random_recollement(FIELD, rng)
        if spec is None:
            continue
        sx = standard_smc(spec.x_algebra)
        sy = standard_smc(spec.y_algebra)
        g, _ = glue(sx, sy, spec)
        d, _ = glue_dual(sx, sy, spec)
        assert smc_iso(g, d, rng=rng), f"routes disagree on {spec.algebra}"
        assert validate_smc(g).passed
        done += 1
    assert done >= 20
    b.finish()


def test_criterion_4_a2_diagrams():
    b = Budget("4 (worked example diagrams)", 30)
    rng = random.Random(7)
    spec = A2.spec
    x, y = A2.x_smc, A2.y_smc
    S1, S2, P1 = A2.complexes["S1"], A2.complexes["S2"], A2.complexes["P1"]

    def expect(*objs):
        return SMC(A2.algebra, tuple(objs), Certificate("user"))

    # diagram (1), left-mutation commutation, both directions
    glued, _ = glue(x, y, spec)
    assert smc_iso(glued, expect(S2, S1), rng=rng)
    lhs, _ = glue(mutate(x, 0, "left")[0], y, spec)
    rhs, _ = mutate(glued, 0, "left")
    assert smc_iso(lhs, rhs, rng=rng) and smc_iso(rhs, expect(shift(S2, 1), P1), rng=rng)
    glued_m, _ = glue(x.shifted(1), y.shifted(-1), spec)
    assert smc_iso(glued_m, expect(shift(S2, 1), shift(P1, -1)), rng=rng)
    lhs, _ = glue(mutate(x.shifted(1), 0, "right")[0], y.shifted(-1), spec)
    rhs, _ = mutate(glued_m, 0, "right")
    assert smc_iso(lhs, rhs, rng=rng) and smc_iso(rhs, expect(S2, shift(P1, -1)), rng=rng)

    # diagram (2), right mutations with the conditions verified true
    g2, _ = glue(x.shifted(1), y.shifted(1), spec)
    assert smc_iso(g2, expect(shift(S2, 1), shift(S1, 1)), rng=rng)
    assert verify.commute_condition(g2, 1, 0, "left")
    lhs, _ = glue(x.shifted(1), mutate(y.shifted(1), 0, "left")[0], spec)
    rhs, _ = mutate(g2, 1, "left")
    assert smc_iso(lhs, rhs, rng=rng)
    assert smc_iso(rhs, expect(shift(S2, 1), shift(S1, 2)), rng=rng)
    g2b, _ = glue(x.shifted(1), y, spec)  # {S2[1], P1}
    assert verify.commute_condition(g2b, 1, 0, "right")
    lhs, _ = glue(x.shifted(1), mutate(y, 0, "right")[0], spec)
    rhs, _ = mutate(g2b, 1, "right")
    assert smc_iso(lhs, rhs, rng=rng)
    assert smc_iso(rhs, expect(shift(S2, 1), shift(P1, -1)), rng=rng)

    # diagram (3): conditions fail and the results are certifiably distinct
    assert not verify.commute_condition(g2b, 1, 0, "left")
    mu, _ = mutate(g2b, 1, "left")                      # {S1, P1[1]}
    other, _ = glue(x.shifted(1), mutate(y, 0, "left")[0], spec)  # {S2[1], S1[1]}
    assert smc_iso(mu, expect(S1, shift(P1, 1)), rng=rng)
    assert not smc_iso(mu, other, rng=rng)
    assert not verify.commute_condition(g2, 1, 0, "right")
    mu, _ = mutate(g2, 1, "right")                      # {P1[1], S1}
    other, _ = glue(x.shifted(1), mutate(y.shifted(1), 0, "right")[0], spec)
    assert smc_iso(mu, expect(shift(P1, 1), S1), rng=rng)
    assert smc_iso(other, expect(shift(S2, 1), P1), rng=rng)
    assert not smc_iso(mu, other, rng=rng)
    b.finish()


BUILTIN_SMCS = []


def _builtins():
    if BUILTIN_SMCS:
        return BUILTIN_SMCS
    rng = random.Random(0)
    out = [A2.standard, TC.standard,
           glue(A2.x_smc, A2.y_smc, A2.spec)[0],
           glue(TC.x_smc, TC.y_smc, TC.spec)[0],
           SMC(A2.algebra, (shift(A2.complexes["P1"], 1), A2.complexes["S1"]),
               Certificate("user")),
           SMC(A2.algebra, (shift(A2.complexes["S2"], 1), A2.complexes["P1"]),
               Certificate("user"))]
    BUILTIN_SMCS.extend(out)
    return out


def test_criterion_5_order_theory():
    b = Budget("5 (order theory)", 300)
    rng = random.Random(31)
    for S in _builtins():
        for i in range(len(S)):
            if not is_rigid(S, i):
                continue
            rep = claims.check_mutation_order_chain(S, i)
            assert rep.passed, rep.line()
    done = 0
    attempts = 0
    while done < 20 and attempts < 200:
        attempts += 1
        spec = random_recollement(FIELD, rng)
        if spec is None:
            continue
        sx = standard_smc(spec.x_algebra)
        sy = standard_smc(spec.y_algebra)
        # random dominating pairs: a left mutation or a positive shift
        def weaker(S):
            if len(S) and rng.random() < 0.6:
                idx = rng.randrange(len(S))
                if is_rigid(S, idx):
                    return mutate(S, idx, "left")[0]
            return S.shifted(1)
        rep = verify.check_order_preservation(sx, weaker(sx), sy, weaker(sy), spec)
        assert rep.passed, rep.line()
        done += 1
    assert done >= 20
    b.finish()


def test_criterion_6_engine_properties():
    b = Budget("6 (engine property suite)", 600)
    rng = random.Random(99)
    algebras = [A2.algebra, TC.algebra]

    # d^2 = 0 after every constructor, LES bookkeeping on 100 random cones
    cones_done = 0
    while cones_done < 100:
        A = algebras[cones_done % 2]
        X = gen.random_complex(A, rng)
        Y = gen.random_complex(A, rng)
        if X.is_zero() or Y.is_zero():
            continue
        basis = hom_basis(X, Y, 0)
        f = basis[0] if basis else None
        from smc_kit.homotopy.complexes import ChainMap
        if f is None:
            f = ChainMap(X, Y, {})
        C, _ = cone(f)
        ProjComplex(A, C.terms, C.diffs)         # re-validates d^2 = 0
        M, _ = minimalize(C)
        ProjComplex(A, M.terms, M.diffs)
        Xs = shift(X, 1)
        ProjComplex(A, Xs.terms, Xs.diffs)
        # alternating-rank bookkeeping for Hom(-, Z) across the triangle
        Z = gen.resolved_simple(A, rng.randrange(A.nvert))
        total = 0
        for T, s in ((C, 1), (Y, -1), (X, 1)):
            t = hom_table(T, Z)
            for n, d in t.dims.items():
                total += s * d * (-1) ** (n % 2)
        assert total == 0
        cones_done += 1

    # hom_table shift invariance and direct-sum additivity
    for _ in range(10):
        A = algebras[rng.randrange(2)]
        X = gen.random_complex(A, rng)
        Y = gen.random_complex(A, rng)
        if X.is_zero() or Y.is_zero():
            continue
        t0 = hom_table(X, Y)
        t1 = hom_table(shift(X, 1), shift(Y, 1))
        assert t0.dims == t1.dims
        XX = direct_sum([X, X])
        t2 = hom_table(XX, Y)
        assert all(t2.dim(n) == 2 * t0.dim(n) for n in set(t0.dims) | set(t2.dims))

    # minimalize idempotence
    for _ in range(10):
        A = algebras[rng.randrange(2)]
        X = gen.random_complex(A, rng)
        M, _ = minimalize(X)
        M2, _ = minimalize(M)
        assert M2.terms == M.terms and M2.diffs == M.diffs

    # adjunction dimension equalities on 50 random functor applications
    specs = [A2.spec, TC.spec]
    extra = random_recollement(FIELD, rng)
    if extra is not None:
        specs.append(extra)
    done = 0
    while done < 50:
        spec = specs[done % len(specs)]
        T = gen.random_complex(spec.algebra, rng)
        if T.is_zero():
            continue
        Yobj = gen.resolved_simple(spec.y_algebra, rng.randrange(max(spec.y_algebra.nvert, 1)))
        jy = j_lower_shriek(spec, Yobj)
        jt = j_upper_shriek(spec, T)
        t1 = hom_table(jy, T)
        t2 = hom_table(Yobj, jt)
        assert t1.dims == t2.dims, (t1.dims, t2.dims)
        ty = j_lower_star(spec, Yobj)
        t3 = hom_table(T, ty)
        t4 = hom_table(jt, Yobj)
        assert t3.dims == t4.dims, (t3.dims, t4.dims)
        done += 1

    # truncation invariants on explicit calls (every call self-checks too)
    for fix in (A2, TC):
        std = fix.standard
        for obj in std.objects:
            for n in (-1, 0, 1):
                tri = truncate(shift(obj, n), list(std.objects), threshold=1)
                CC, _ = cone(tri.u_map)
                assert is_iso(CC, tri.v_part, rng=rng).isomorphic
    b.finish()


def test_criterion_7_glued_type_condition():
    b = Budget("7 (glued-type necessary condition)", 5)
    cand = SMC(A2.algebra, (shift(A2.complexes["P1"], 1), A2.complexes["S1"]),
               Certificate("user"))
    assert validate_smc(cand).passed
    assert not is_glued_type_candidate(cand, A2.spec)
    for fix in (A2, TC):
        out, _ = glue(fix.x_smc, fix.y_smc, fix.spec)
        assert is_glued_type_candidate(out, fix.spec)
    b.finish()

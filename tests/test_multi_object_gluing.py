"""A hereditary linear A3 with the corner at both end vertices: the corner
side carries two simples, exercising multi-object gluing, the generator
checks, and both branches of the commutation condition."""

from claims import (
    check_first_m_terms,
    check_mutation_order_chain,
    glued_t_structure_checks,
)
from smc_kit.algebra import Algebra, linear_quiver
from smc_kit.exactla import PrimeField
from smc_kit.recollement import build_recollement
from smc_kit.smc import (
    glue,
    glue_dual,
    smc_iso,
    standard_smc,
    validate_smc,
)
from smc_kit.verify import check_glue_mutation_commute, check_intermediate_order

A = Algebra.from_quiver(PrimeField(32003), linear_quiver(3))
SPEC = build_recollement(A, [0, 2])
SX = standard_smc(SPEC.x_algebra)
SY = standard_smc(SPEC.y_algebra)


def test_spec_shape():
    assert SPEC.validated
    assert SPEC.x_algebra.dim == 1
    assert SPEC.y_algebra.dim == 3  # e_1, e_3, and the path between them
    assert len(SY) == 2


def test_glue_both_routes_deep():
    g, rep = glue(SX, SY, SPEC, deep=True)
    assert validate_smc(g).passed and rep.all_verified()
    d, drep = glue_dual(SX, SY, SPEC, deep=True)
    assert validate_smc(d).passed and drep.all_verified()
    assert smc_iso(g, d)


def test_generator_level_t_structure():
    g, _ = glue(SX, SY, SPEC)
    checks = glued_t_structure_checks(g, SX, SY, SPEC)
    assert all(ok for _, ok in checks)


def test_mutation_chains_on_glued():
    g, _ = glue(SX, SY, SPEC)
    for i in range(len(g)):
        assert check_mutation_order_chain(g, i).passed


def test_commutation_both_branches_arise():
    held, failed = 0, 0
    for j in range(len(SY)):
        for direction in ("left", "right"):
            r = check_glue_mutation_commute(SX, SY, SPEC, "y", j, direction)
            assert r.passed, r.line()
            if "condition holds" in r.witness:
                held += 1
            elif "certified" in r.witness:
                failed += 1
            rf = check_first_m_terms(SX, SY, SPEC, j, direction)
            assert rf.passed, rf.line()
    # this instance genuinely exhibits both behaviours
    assert held >= 1 and failed >= 1


def test_intermediate_order_both_sides():
    assert check_intermediate_order(SX, SY, SPEC, "x", 0).passed
    for j in range(len(SY)):
        assert check_intermediate_order(SX, SY, SPEC, "y", j).passed


def test_deep_gluing_with_three_quotient_objects():
    # corner at an inner vertex of linear A4: the quotient side carries
    # three simples, so the image identities run against several images
    B = Algebra.from_quiver(PrimeField(32003), linear_quiver(4))
    spec = build_recollement(B, [1])
    assert spec.validated and spec.x_algebra.nvert == 3
    sx, sy = standard_smc(spec.x_algebra), standard_smc(spec.y_algebra)
    g, rep = glue(sx, sy, spec, deep=True)
    assert rep.all_verified() and validate_smc(g).passed
    d, drep = glue_dual(sx, sy, spec, deep=True)
    assert drep.all_verified() and smc_iso(g, d)


def test_deep_gluing_with_relations():
    B = Algebra.from_quiver(PrimeField(32003), linear_quiver(4),
                            relations=[("a2", "a3")])
    spec = build_recollement(B, [0, 3])
    assert spec.validated
    sx, sy = standard_smc(spec.x_algebra), standard_smc(spec.y_algebra)
    g, rep = glue(sx, sy, spec, deep=True)
    assert rep.all_verified() and validate_smc(g).passed
    d, _ = glue_dual(sx, sy, spec, deep=True)
    assert smc_iso(g, d)


def test_glue_insensitive_to_input_order():
    from smc_kit.smc import SMC, Certificate
    g, _ = glue(SX, SY, SPEC)
    flipped = SMC(SY.algebra, (SY.objects[1], SY.objects[0]),
                  Certificate("standard_simples", "permuted"))
    g2, _ = glue(SX, flipped, SPEC)
    assert smc_iso(g, g2)


def test_canonical_theta_on_zero_complex():
    from smc_kit.homotopy import zero_complex
    from smc_kit.recollement import canonical_theta
    theta = canonical_theta(SPEC, zero_complex(SPEC.y_algebra))
    assert theta.is_zero()


def test_adjunctions_with_multiterm_corner_objects():
    # the corner algebra here has two vertices, so random corner complexes
    # have several terms and exercise the dual-resolution pipeline fully
    import random

    import gen
    from smc_kit.homotopy import hom_table
    from smc_kit.recollement import j_lower_shriek, j_lower_star, j_upper_shriek

    rng = random.Random(8)
    for _ in range(6):
        Y = gen.random_complex(SPEC.y_algebra, rng)
        T = gen.random_complex(SPEC.algebra, rng)
        if Y.is_zero() or T.is_zero():
            continue
        jt = j_upper_shriek(SPEC, T)
        t1 = hom_table(j_lower_shriek(SPEC, Y), T)
        t2 = hom_table(Y, jt)
        assert t1.dims == t2.dims
        t3 = hom_table(T, j_lower_star(SPEC, Y))
        t4 = hom_table(jt, Y)
        assert t3.dims == t4.dims

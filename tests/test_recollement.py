import gc
import random
import weakref
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

import gen
from smc_kit import recollement as rec
from smc_kit.algebra import Algebra, global_dimension, linear_quiver
from smc_kit.config import BoundExceeded, InputError
from smc_kit.exactla import PrimeField, RationalField
from smc_kit.fixtures import random_monomial_linear_algebra, random_recollement
from smc_kit.homotopy import (
    ProjComplex,
    cohomology_dims,
    hom_table,
    is_contractible,
    is_iso,
    minimalize,
    resolve_complex,
    resolve_module,
    stalk_complex,
    zero_complex,
)
from smc_kit.homotopy.complexes import stalk
from smc_kit.smc import SMC, glue, glue_dual, standard_smc

FP = gen.FP
A2 = gen.a2_algebra()
TC = gen.two_cycle_algebra()


def spec_for(A):
    return rec.build_recollement(A, [0])


SPEC_A2 = spec_for(A2)
SPEC_TC = spec_for(TC)


def y_simple(spec, i=0):
    return gen.resolved_simple(spec.y_algebra, i)


def x_simple(spec, i=0):
    return gen.resolved_simple(spec.x_algebra, i)


def test_build_validates_paper_fixtures():
    for spec in (SPEC_A2, SPEC_TC):
        assert spec.validated, [c for c in spec.report.checks if not c.ok]
        assert spec.x_algebra.dim == 1
        assert spec.y_algebra.dim == 1


def test_degenerate_subsets():
    full = rec.build_recollement(A2, [0, 1])
    assert full.x_algebra.dim == 0
    assert full.validated
    empty = rec.build_recollement(A2, [])
    assert empty.y_algebra.dim == 0
    assert empty.x_algebra.dim == A2.dim


def test_j_lower_shriek_unit():
    # the corner algebra's free module goes to eA
    for spec, expected_dim in ((SPEC_A2, 2), (SPEC_TC, 2)):
        Y = stalk(spec.y_algebra, 0)
        img = rec.j_lower_shriek(spec, Y)
        assert img.terms == {0: (0,)}
        realized = img.algebra.projective_module(0)
        assert realized.dim == expected_dim


def test_j_upper_shriek_on_projectives():
    # P1 |-> eAe-free of rank one; P2 |-> e_2 A e as an eAe-module, resolved
    spec = SPEC_A2
    z = rec.j_upper_shriek(spec, stalk(A2, 0))
    assert z.terms == {0: (0,)}
    z = rec.j_upper_shriek(spec, stalk(A2, 1))
    assert z.is_zero()  # e_2 A e_1 = 0 over the A2 quiver


def test_j_shriek_j_lower_identities():
    rng = random.Random(0)
    for spec in (SPEC_A2, SPEC_TC):
        Ys = y_simple(spec)
        back = rec.j_upper_shriek(spec, rec.j_lower_shriek(spec, Ys))
        assert is_iso(back, Ys, rng=rng).isomorphic
        back = rec.j_upper_shriek(spec, rec.j_lower_star(spec, Ys))
        assert is_iso(back, Ys, rng=rng).isomorphic
        assert is_contractible(rec.j_upper_shriek(spec, rec.i_star(spec, x_simple(spec))))


def test_i_star_restriction():
    # over the two-cycle algebra the quotient simple restricts to S_2
    spec = SPEC_TC
    img = rec.i_star(spec, x_simple(spec))
    s2 = gen.resolved_simple(TC, 1)
    assert is_iso(img, s2, rng=random.Random(0)).isomorphic


def test_j_lower_star_gives_injective():
    # over the two-cycle algebra: j_*(corner simple) is the injective I_1
    spec = SPEC_TC
    img = rec.j_lower_star(spec, y_simple(spec))
    i1, _ = resolve_complex(stalk_complex(TC.injective_module(0)))
    assert is_iso(img, i1, rng=random.Random(0)).isomorphic
    # over A2: I_1 = S_1
    img = rec.j_lower_star(SPEC_A2, y_simple(SPEC_A2))
    s1 = gen.resolved_simple(A2, 0)
    assert is_iso(img, s1, rng=random.Random(0)).isomorphic


def test_canonical_theta_and_cocone():
    from smc_kit.homotopy import cocone
    # A2: theta: P1 -> j_*(Y) has cocone S2 (in the image of i_*)
    spec = SPEC_A2
    theta = rec.canonical_theta(spec, y_simple(spec))
    C, _ = cocone(theta)
    Cm, _ = minimalize(C)
    s2 = gen.resolved_simple(A2, 1)
    assert is_iso(Cm, s2, rng=random.Random(0)).isomorphic
    # two-cycle: the cocone has composition factors S2 in degrees 0 and 1
    spec = SPEC_TC
    theta = rec.canonical_theta(spec, y_simple(spec))
    C, _ = cocone(theta)
    assert cohomology_dims(C) == {0: 1, 1: 1}


def test_canonical_triangles_identities():
    rng = random.Random(0)
    for spec in (SPEC_A2, SPEC_TC):
        # T = j_!(Y): the i_* i^* part degenerates
        T = rec.j_lower_shriek(spec, y_simple(spec))
        tri = rec.canonical_triangles(spec, T)
        assert is_contractible(tri.i_star_part)
        # T = i_*(X): the i_* i^! part is all of T
        T = rec.i_star(spec, x_simple(spec))
        tri = rec.canonical_triangles(spec, T)
        assert is_iso(tri.i_shriek_part, T, rng=rng).isomorphic
        assert is_iso(tri.i_star_part, T, rng=rng).isomorphic


def test_canonical_triangles_euler():
    # [middle] = [left] + [right] for both canonical triangles
    for spec in (SPEC_A2, SPEC_TC):
        T = gen.resolved_simple(spec.algebra, 0)
        tri = rec.canonical_triangles(spec, T)
        a = minimalize(tri.i_shriek_part)[0].euler_class()
        mid = minimalize(T)[0].euler_class()
        c = minimalize(rec.j_lower_star_full(spec, rec.j_upper_shriek(spec, T)).cplx)[0]
        b = c.euler_class()
        assert all(x == y + z for x, y, z in zip(mid, a, b))


def test_adjunction_dimension_checks():
    rng = random.Random(7)
    for spec in (SPEC_A2, SPEC_TC):
        Y = y_simple(spec)
        T = gen.random_complex(spec.algebra, rng)
        if T.is_zero():
            T = gen.resolved_simple(spec.algebra, 0)
        jy = rec.j_lower_shriek(spec, Y)
        jt = rec.j_upper_shriek(spec, T)
        t1 = hom_table(jy, T)
        t2 = hom_table(Y, jt)
        for n in set(t1.dims) | set(t2.dims):
            assert t1.dim(n) == t2.dim(n)
        ty = rec.j_lower_star(spec, Y)
        t3 = hom_table(T, ty)
        t4 = hom_table(jt, Y)
        for n in set(t3.dims) | set(t4.dims):
            assert t3.dim(n) == t4.dim(n)


def test_functors_on_wrong_algebra_rejected():
    with pytest.raises(InputError):
        rec.i_star(SPEC_A2, stalk(A2, 0))
    with pytest.raises(InputError):
        rec.j_lower_shriek(SPEC_A2, stalk(A2, 0))


def test_zero_complex_through_functors():
    spec = SPEC_TC
    assert rec.i_star(spec, zero_complex(spec.x_algebra)).is_zero()
    assert rec.j_lower_shriek(spec, zero_complex(spec.y_algebra)).is_zero()
    assert rec.j_upper_shriek(spec, zero_complex(spec.algebra)).is_zero()
    assert rec.j_lower_star(spec, zero_complex(spec.y_algebra)).is_zero()


def test_rationals_fixture():
    A = gen.two_cycle_algebra(RationalField())
    spec = rec.build_recollement(A, [0])
    assert spec.validated


def _algebras_near(A, rng):
    """A, the corner and the quotient of A at a random proper vertex subset."""
    out = [A]
    if A.nvert > 1:
        subset = sorted(rng.sample(range(A.nvert), rng.randint(1, A.nvert - 1)))
        out += [A.corner(subset)[0], A.quotient(subset)[0]]
    return out


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([FP, PrimeField(2)]), st.randoms(use_true_random=False))
def test_left_and_right_global_dimension_agree(f, rng):
    # Auslander (Nagoya Math. J. 9, 1955): gldim B = gldim B^op for a
    # finite-dimensional algebra B; build_recollement reports gldim (eAe)^op
    # as gldim eAe on the strength of it
    A = random_monomial_linear_algebra(f, rng, max_vertices=7)
    for B in _algebras_near(A, rng) + _algebras_near(gen.two_cycle_algebra(f), rng):
        assert global_dimension(B) == global_dimension(B.op())
    B = gen.self_injective_cycle_algebra(f)
    assert global_dimension(B, 8) is None and global_dimension(B.op(), 8) is None


def test_recollement_reports_corner_op_gldim_of_the_opposite():
    rng = random.Random(4)
    for _ in range(6):
        spec = random_recollement(FP, rng, max_vertices=6)
        assert spec.report.gldim_corner_op == global_dimension(spec.y_algebra.op())


# -- functor values memoized per spec, resolutions kept per module ----------


def _cold_spec(spec):
    """The recollement of spec over a new copy of its algebra, built without
    build_recollement: no check has run, and it shares no module, resolution
    or functor value with spec."""
    A = spec.algebra
    B = Algebra(A.field, A.vertex_labels, A.basis_labels, A.source, A.target,
                A.prod)
    y_alg, y_embed = B.corner(spec.subset)
    x_alg, x_proj = B.quotient(spec.subset)
    return rec.RecollementSpec(B, spec.subset, x_alg, x_proj, y_alg, y_embed,
                               rec.RecollementReport(), spec.pd_bound)


def _gluing_record(route, spec, deep=True):
    """Representatives, differentials and deep-check verdicts of one route."""
    S, report = route(standard_smc(spec.x_algebra), standard_smc(spec.y_algebra),
                      spec, deep=deep, rng=random.Random(0))

    def cx(X):
        return dict(X.terms), dict(X.diffs)

    return ([cx(X) for X in S.objects], S.names,
            [(cx(it.u_part), cx(it.v_part), cx(it.w), it.second_triangle_ok,
              it.image_identities) for it in report.items])


@settings(max_examples=6, deadline=None)
@given(st.sampled_from([FP, PrimeField(2), RationalField()]),
       st.randoms(use_true_random=False))
def test_memoized_functors_give_the_cold_gluings(f, rng):
    spec = random_recollement(f, rng, max_vertices=5)
    assume(spec is not None)
    cold = {(route, deep): _gluing_record(route, _cold_spec(spec), deep)
            for route in (glue, glue_dual) for deep in (False, True)}
    # spec is warm from its sample checks; a second spec of the same algebra
    # is warmed by the routes in the other order, and each route runs twice,
    # first without deep (which keeps its items) and then with it
    again = rec.build_recollement(spec.algebra, spec.subset)
    for warm, order in ((spec, (glue_dual, glue)), (again, (glue, glue_dual))):
        for route in order + order:
            for deep in (False, True):
                assert _gluing_record(route, warm, deep) == cold[route, deep]


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([PrimeField(2), FP, RationalField()]),
       st.randoms(use_true_random=False))
def test_functor_resolutions_keep_cohomology_and_are_minimal(f, rng):
    # every complex that i_*, j^! and j_* resolve for the simples of the
    # outer algebras: its resolution has its cohomology and is minimal
    spec = random_recollement(f, rng, max_vertices=4)
    assume(spec is not None)
    spec = _cold_spec(spec)
    seen = []

    def recording(C, **kw):
        P, aug = resolve_complex(C, **kw)
        seen.append((C, P))
        return P, aug

    with mock.patch.object(rec, "resolve_complex", recording):
        for i in range(spec.x_algebra.nvert):
            rec.j_upper_shriek(spec, rec.i_star(spec, x_simple(spec, i)))
        for i in range(spec.y_algebra.nvert):
            rec.j_upper_shriek(spec, rec.j_lower_star(spec, y_simple(spec, i)))
    assert seen
    for C, P in seen:
        assert cohomology_dims(P) == C.cohomology_dims()
        assert P.is_minimal()


def test_functor_values_are_computed_once_per_spec():
    for spec in (SPEC_A2, SPEC_TC):
        Y, X = y_simple(spec), x_simple(spec)
        assert rec.j_lower_star_full(spec, Y) is rec.j_lower_star_full(spec, Y)
        assert rec.canonical_theta(spec, Y) is rec.canonical_theta(spec, Y)
        assert rec.i_star(spec, X) is rec.i_star(spec, X)
        assert rec.j_lower_star(spec, Y) is rec.j_lower_star_full(spec, Y).cplx


@pytest.mark.parametrize("route", [glue, glue_dual])
def test_plain_gluing_items_are_made_once_per_spec(route):
    # the corner of A_3 at its ends has two vertices, so its simples make a
    # collection in either order
    spec = rec.build_recollement(Algebra.from_quiver(FP, linear_quiver(3)), [0, 2])
    S_X, S_Y = standard_smc(spec.x_algebra), standard_smc(spec.y_algebra)
    rng = random.Random(7)
    state = rng.getstate()
    first, rep1 = route(S_X, S_Y, spec, rng=rng)
    assert rng.getstate() == state  # without deep nothing is drawn
    second, rep2 = route(S_X, S_Y, spec)
    assert len(rep2.items) == 2
    assert all(a is b for a, b in zip(first.objects, second.objects))
    assert all(a is b for a, b in zip(rep1.items, rep2.items))
    flipped = SMC(S_Y.algebra, S_Y.objects[::-1], S_Y.certificate)
    _, rep3 = route(S_X, flipped, spec)
    assert [item.y_index for item in rep3.items] == [0, 1]
    assert all(a.w is b.w for a, b in zip(rep3.items, rep2.items[::-1]))


def test_plain_gluing_item_dies_with_its_corner_object():
    spec = spec_for(gen.a2_algebra())
    Y0 = y_simple(spec)
    Y = ProjComplex(spec.y_algebra, dict(Y0.terms), dict(Y0.diffs))
    glue(standard_smc(spec.x_algebra), SMC(spec.y_algebra, (Y,)), spec)
    assert any(isinstance(key, tuple) for key in spec._memo[Y])
    gc.collect()
    ref, held = weakref.ref(Y), len(spec._memo)
    del Y
    gc.collect()
    assert ref() is None and len(spec._memo) == held - 1


def test_specs_of_one_algebra_share_no_functor_values():
    # with the empty idempotent both specs have A itself as quotient, so the
    # same complex reaches i_* of each
    A = gen.two_cycle_algebra()
    first, second = (rec.build_recollement(A, []) for _ in range(2))
    X = resolve_module(A.simple_module(0))
    img = rec.i_star(first, X)
    assert img is rec.i_star(first, X)
    assert img is not rec.i_star(second, X)
    assert dict(img.terms) == dict(rec.i_star(second, X).terms)


def test_kept_resolution_honours_each_bound():
    A = gen.two_cycle_algebra()   # a new algebra, so its simples are unresolved
    S = A.simple_module(0)
    P = resolve_module(S, 32)
    pd = -min(P.terms)
    assert pd == 2 and resolve_module(S, pd) is P
    with pytest.raises(BoundExceeded):
        resolve_module(S, pd - 1)


def test_resolution_that_raised_keeps_nothing():
    A = gen.two_cycle_algebra()
    S = A.simple_module(0)
    with pytest.raises(BoundExceeded):
        resolve_module(S, 1)
    assert S._resolution is None
    P = resolve_module(S, 2)
    assert -min(P.terms) == 2 and resolve_module(S) is P

import itertools
import random
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import gen
from smc_kit import exactla as la
from smc_kit import smc
from smc_kit.algebra import Algebra, linear_quiver
from smc_kit.cli import main
from smc_kit.config import InputError, NotRigidError
from smc_kit.exactla import PrimeField, RationalField
from smc_kit.fixtures import a2_fixture, random_recollement, two_cycle_fixture
from smc_kit.homotopy import homs, is_iso, shift
from smc_kit.smc import (
    SMC,
    _has_perfect_matching,
    Certificate,
    compare,
    dominates,
    glue,
    glue_dual,
    glued_t_structure_checks,
    is_glued_type_candidate,
    member_aisle,
    member_coaisle,
    member_filt_geq,
    mutate,
    smc_iso,
    standard_smc,
    truncate,
    validate_smc,
)

A2 = a2_fixture()
TC = two_cycle_fixture()
RNG = random.Random(0)


def user_smc(fix, *objects):
    return SMC(fix.algebra, tuple(objects), Certificate("user"))


def test_standard_simples_pass():
    for fix in (A2, TC):
        rep = validate_smc(fix.standard)
        assert rep.passed
        assert rep.euler_unimodular
        assert "theorem-backed" in rep.generation


def test_euler_det_is_computed_once_per_collection(monkeypatch):
    calls = []
    det = la.det
    monkeypatch.setattr(la, "det", lambda rows: calls.append(rows) or det(rows))
    S = user_smc(TC, *TC.standard.objects)
    reports = [validate_smc(S) for _ in range(3)]
    assert len(calls) == 1
    assert [r.euler_det for r in reports] == [det(S.euler_matrix())] * 3


def test_non_smc_paper_sets_fail():
    # {S2, eA} and {S2, I1} over the two-cycle algebra are not collections
    S2 = TC.complexes["S2"]
    eA = TC.complexes["P1"]
    I1 = TC.complexes["I1"]
    rep = validate_smc(user_smc(TC, S2, eA))
    assert not rep.passed
    assert rep.axiom1_failures or rep.axiom3_failures
    rep = validate_smc(user_smc(TC, S2, I1))
    assert not rep.passed


def test_shifted_projective_and_simple_is_smc():
    # {P1[1], S1} over the A2 quiver is a collection
    rep = validate_smc(user_smc(A2, shift(A2.complexes["P1"], 1), A2.complexes["S1"]))
    assert rep.passed and rep.euler_unimodular


def test_membership_basics():
    std = A2.standard
    for obj in std.objects:
        assert member_aisle(obj, std)
        assert member_coaisle(obj, std)
        assert member_aisle(shift(obj, 1), std)
        assert not member_coaisle(shift(obj, 1), std)
        assert not member_aisle(shift(obj, -1), std)
    S2 = A2.complexes["S2"]
    assert not member_filt_geq(S2, [shift(S2, 1)], 0)
    assert member_filt_geq(shift(S2, 1), [shift(S2, 1)], 0)


def test_truncate_trivial_cases():
    from smc_kit.homotopy import is_contractible
    std = TC.standard
    T = std.objects[0]
    tri = truncate(T, list(std.objects), threshold=1)
    assert tri.u_part.same_shape(T)
    assert is_contractible(tri.v_part)
    # T = S_i[-1] is pure coaisle
    tri = truncate(shift(T, -1), list(std.objects), threshold=1)
    assert tri.u_part.is_zero() or is_contractible(tri.u_part)
    assert is_iso(tri.v_part, shift(T, -1), rng=RNG).isomorphic


def test_glue_a2_gives_standard():
    out, report = glue(A2.x_smc, A2.y_smc, A2.spec, deep=True)
    rep = validate_smc(out)
    assert rep.passed and rep.euler_unimodular
    assert report.all_verified()
    # the glued objects are S2 and S1
    assert is_iso(out.objects[0], A2.complexes["S2"], rng=RNG).isomorphic
    assert is_iso(out.objects[1], A2.complexes["S1"], rng=RNG).isomorphic
    assert smc_iso(out, A2.standard)


def test_glue_shifted_x_side_gives_projective():
    out, _ = glue(A2.x_smc.shifted(1), A2.y_smc, A2.spec)
    expected = user_smc(A2, shift(A2.complexes["S2"], 1), A2.complexes["P1"])
    assert smc_iso(out, expected)
    assert validate_smc(out).passed


def test_glue_two_cycle():
    out, report = glue(TC.x_smc, TC.y_smc, TC.spec, deep=True)
    rep = validate_smc(out)
    assert rep.passed and rep.euler_unimodular
    assert report.all_verified()
    assert smc_iso(out, TC.standard)


def test_glue_dual_matches_glue():
    for fix in (A2, TC):
        out, _ = glue(fix.x_smc, fix.y_smc, fix.spec)
        out_dual, dual_report = glue_dual(fix.x_smc, fix.y_smc, fix.spec, deep=True)
        assert dual_report.all_verified()
        assert smc_iso(out, out_dual)
        assert validate_smc(out_dual).passed


def test_deep_check_failure_is_reported(monkeypatch):
    # no factorization/lift found: the companion triangle is unverified
    monkeypatch.setattr(smc, "factor_through", lambda *args: None)
    monkeypatch.setattr(smc, "lift_through", lambda *args: None)
    for route in (glue, glue_dual):
        _, report = route(A2.x_smc, A2.y_smc, A2.spec, deep=True)
        assert report.items
        assert all(item.second_triangle_ok is False for item in report.items)
        assert not report.all_verified()
    ws = str(Path(__file__).resolve().parent.parent / "fixtures" / "a2.json")
    assert main(["glue", ws, "R", "xstd", "ystd"]) == 1
    assert main(["glue", ws, "R", "xstd", "ystd", "--dual"]) == 1


def test_glue_rejects_bad_side():
    S2 = TC.complexes["S2"]
    bad = SMC(TC.spec.y_algebra,
              (TC.y_smc.objects[0], TC.y_smc.objects[0]), Certificate("user"))
    with pytest.raises(Exception):
        glue(TC.x_smc, bad, TC.spec)


def test_glued_type_candidate():
    out, _ = glue(A2.x_smc, A2.y_smc, A2.spec)
    assert is_glued_type_candidate(out, A2.spec)
    not_glued = user_smc(A2, shift(A2.complexes["P1"], 1), A2.complexes["S1"])
    assert validate_smc(not_glued).passed
    assert not is_glued_type_candidate(not_glued, A2.spec)
    std = user_smc(A2, A2.complexes["S1"], A2.complexes["S2"])
    assert is_glued_type_candidate(std, A2.spec)


def test_mutation_diagram_one():
    # mu_1^+ {S2, S1} = {S2[1], P1}
    glued, _ = glue(A2.x_smc, A2.y_smc, A2.spec)
    out, step = mutate(glued, 0, "left")
    expected = user_smc(A2, shift(A2.complexes["S2"], 1), A2.complexes["P1"])
    assert smc_iso(out, expected)
    assert step.multiplicities == {1: 1}
    assert validate_smc(out).passed


def test_mutation_diagram_two():
    # mu_2^+ {S2[1], S1[1]} = {S2[1], S1[2]}
    S = user_smc(A2, shift(A2.complexes["S2"], 1), shift(A2.complexes["S1"], 1))
    out, step = mutate(S, 1, "left")
    expected = user_smc(A2, shift(A2.complexes["S2"], 1), shift(A2.complexes["S1"], 2))
    assert smc_iso(out, expected)
    assert step.multiplicities == {0: 0}


def test_mutation_diagram_three():
    # mu_2^+ {S2[1], P1} = {S1, P1[1]}
    S = user_smc(A2, shift(A2.complexes["S2"], 1), A2.complexes["P1"])
    out, _ = mutate(S, 1, "left")
    expected = user_smc(A2, A2.complexes["S1"], shift(A2.complexes["P1"], 1))
    assert smc_iso(out, expected)
    # mu_2^- {S2[1], S1[1]} = {P1[1], S1}
    S = user_smc(A2, shift(A2.complexes["S2"], 1), shift(A2.complexes["S1"], 1))
    out, _ = mutate(S, 1, "right")
    expected = user_smc(A2, shift(A2.complexes["P1"], 1), A2.complexes["S1"])
    assert smc_iso(out, expected)


def test_mutation_inverse():
    for fix in (A2, TC):
        std = fix.standard
        for i in range(len(std)):
            plus, _ = mutate(std, i, "left")
            back, _ = mutate(plus, i, "right")
            assert smc_iso(back, std)


def test_mutation_direction_validated():
    with pytest.raises(InputError):
        mutate(A2.standard, 0, "sideways")


def test_truncate_random_objects_within_span():
    # everything over A generates from the standard simples, so truncation
    # invariants must hold on arbitrary complexes (self-checked inside)
    rng = random.Random(41)
    for fix in (A2, TC):
        std = fix.standard
        for _ in range(6):
            T = gen.random_complex(fix.algebra, rng)
            for threshold in (0, 1):
                tri = truncate(T, list(std.objects), threshold=threshold)
                ex, et, ev = (tri.u_part.euler_class(), T.euler_class(),
                              tri.v_part.euler_class())
                assert all(u - t + v == 0 for u, t, v in zip(ex, et, ev))


def test_mutation_rigidity_guard():
    # S2 + S2[1] over A2: the pair violates axiom 1 but mutation only
    # checks rigidity; build a genuinely non-rigid object instead
    S1 = A2.complexes["S1"]
    S2 = A2.complexes["S2"]
    from smc_kit.homotopy import direct_sum
    nonrigid, _, _ = direct_sum([S1, shift(S1, -1)])
    S = user_smc(A2, nonrigid)
    with pytest.raises(NotRigidError):
        mutate(S, 0, "left")
    out, _ = mutate(S, 0, "left", force=True)
    assert len(out) == 1


def test_mutate_is_theorem_backed_only_at_rigid_objects_of_collections():
    # {P1, P2} over A_2 fails the axioms, so its mutation proves nothing
    S = user_smc(A2, A2.complexes["P1"], A2.complexes["P2"])
    assert not validate_smc(S).passed
    out, _ = mutate(S, 1, "left")
    assert not out.certificate.theorem_backed
    assert "theorem-backed" not in validate_smc(out).generation
    # a rigid step from the standard simples keeps the theorem
    assert mutate(A2.standard, 1, "left")[0].certificate.theorem_backed
    # a forced step at a non-rigid object drops it, whatever the input's
    # label says
    S1, S2 = A2.standard.objects
    from smc_kit.homotopy import direct_sum
    nonrigid, _, _ = direct_sum([S1, shift(S1, -1)])
    S = SMC(A2.algebra, (nonrigid, S2), A2.standard.certificate)
    out, _ = mutate(S, 0, "left", force=True)
    assert not out.certificate.theorem_backed


def test_glue_is_theorem_backed_only_over_validated_recollements():
    from smc_kit.algebra import Algebra, linear_quiver
    from smc_kit.recollement import build_recollement
    A = Algebra.from_quiver(PrimeField(32003), linear_quiver(3),
                            relations=[("a1", "a2")])
    spec = build_recollement(A, [1])
    assert not spec.validated
    sx, sy = standard_smc(spec.x_algebra), standard_smc(spec.y_algebra)
    for route in (glue, glue_dual):
        out, _ = route(sx, sy, spec)
        assert not out.certificate.theorem_backed
        assert "theorem-backed" not in validate_smc(out).generation
    # the same routes over the validated A_2 fixture keep the theorem
    for route in (glue, glue_dual):
        out, _ = route(A2.x_smc, A2.y_smc, A2.spec)
        assert validate_smc(out).generation == "theorem-backed (glued)"


def test_compare_and_order_chain():
    for fix in (A2, TC):
        std = fix.standard
        assert compare(std, std) == "equal"
        for i in range(len(std)):
            plus, _ = mutate(std, i, "left")
            minus, _ = mutate(std, i, "right")
            assert compare(std, plus) == "geq"
            assert compare(minus, std) == "geq"
            assert compare(std.shifted(-1), minus) == "geq"
            assert compare(plus, std.shifted(1)) == "geq"
        assert compare(std, std.shifted(1)) == "geq"
        assert compare(std, std.shifted(-1)) == "leq"


def test_compare_errors():
    with pytest.raises(InputError):
        compare(A2.standard, TC.standard)
    one = user_smc(A2, A2.complexes["S1"])
    with pytest.raises(InputError):
        compare(A2.standard, one)


def test_smc_iso_permutation():
    std = A2.standard
    perm = user_smc(A2, std.objects[1], std.objects[0])
    assert smc_iso(std, perm)
    assert not smc_iso(std, user_smc(A2, std.objects[0], std.objects[0]))


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([PrimeField(2), PrimeField(32003), RationalField()]),
       st.randoms(use_true_random=False))
def test_smc_iso_agrees_with_full_matching(field, rng):
    # smc_iso runs is_iso only on pairs of equal minimal term profiles; the
    # matching over all n^2 pairs decides the same, and on a YES leaves
    # the rng where smc_iso leaves it
    spec = random_recollement(field, rng, max_vertices=4)
    if spec is None:
        return
    sx, sy = standard_smc(spec.x_algebra), standard_smc(spec.y_algebra)
    g, _ = glue(sx, sy, spec, rng=rng)
    d, _ = glue_dual(sx, sy, spec, rng=rng)
    std = standard_smc(spec.algebra)
    colls = [std, g, d, g.shifted(1),
             SMC(spec.algebra, (std.objects[0],) * len(std), Certificate("user"))]
    for i in range(len(g)):
        try:
            colls.append(mutate(g, i, rng.choice(("left", "right")))[0])
        except NotRigidError:
            pass
    for S in colls:
        for T in colls:
            full_rng, rng_used = random.Random(7), random.Random(7)
            full = _has_perfect_matching(
                [[bool(is_iso(X, Y, rng=full_rng)) for Y in T.objects]
                 for X in S.objects])
            got = smc_iso(S, T, rng=rng_used)
            assert got == full
            if got:
                assert rng_used.getstate() == full_rng.getstate()
    assert smc_iso(g, d) and not smc_iso(g, g.shifted(1))


def test_glued_t_structure_generator_checks():
    out, _ = glue(A2.x_smc, A2.y_smc, A2.spec)
    checks = glued_t_structure_checks(out, A2.x_smc, A2.y_smc, A2.spec)
    assert checks and all(ok for _, ok in checks)


def test_single_object_smc_mutation_degenerates():
    # one-object collection over the ground field: mutations are shifts
    fix = A2
    B = fix.spec.y_algebra
    S = standard_smc(B)
    plus, _ = mutate(S, 0, "left")
    assert is_iso(plus.objects[0], shift(S.objects[0], 1), rng=RNG).isomorphic


def test_degenerate_gluing():
    from smc_kit.recollement import build_recollement, j_lower_shriek
    # full idempotent: the quotient side is zero and gluing passes through
    spec = build_recollement(A2.algebra, [0, 1])
    sx = standard_smc(spec.x_algebra)
    sy = standard_smc(spec.y_algebra)
    assert len(sx) == 0
    out, _ = glue(sx, sy, spec)
    assert len(out) == len(sy)
    for W, Y in zip(out.objects, sy.objects):
        assert is_iso(W, j_lower_shriek(spec, Y), rng=RNG).isomorphic
    assert validate_smc(out).passed
    # empty idempotent: the corner side is zero and only images remain
    spec0 = build_recollement(A2.algebra, [])
    sx0 = standard_smc(spec0.x_algebra)
    sy0 = standard_smc(spec0.y_algebra)
    out0, _ = glue(sx0, sy0, spec0)
    assert len(out0) == len(sx0) == 2
    assert validate_smc(out0).passed


def test_hom_transport_and_orthogonality():
    # dim Hom(W_i, W_j[t]) = dim Hom(Y_i, Y_j[t]) for t <= 0, and both
    # mixed Hom groups against the quotient images vanish for t <= 0
    from smc_kit.homotopy import hom_table
    for fix in (A2, TC):
        out, _ = glue(fix.x_smc, fix.y_smc, fix.spec)
        m = len(fix.x_smc)
        ws = out.objects[m:]
        ys = fix.y_smc.objects
        for a, Wa in enumerate(ws):
            for b, Wb in enumerate(ws):
                tw = hom_table(Wa, Wb)
                ty = hom_table(ys[a], ys[b])
                for t in range(min(tw.window[0], ty.window[0]), 1):
                    assert tw.dim(t) == ty.dim(t), (a, b, t)
        for img in out.objects[:m]:
            for W in ws:
                t1 = hom_table(img, W)
                t2 = hom_table(W, img)
                assert all(d == 0 for n, d in t1.dims.items() if n <= 0)
                assert all(d == 0 for n, d in t2.dims.items() if n <= 0)


def test_rigidity_transfer():
    # rigid corner inputs give rigid glued objects, on both routes
    from smc_kit.homotopy import hom_table
    for fix in (A2, TC):
        for builder in (glue, glue_dual):
            out, _ = builder(fix.x_smc, fix.y_smc, fix.spec)
            m = len(fix.x_smc)
            for j, Y in enumerate(fix.y_smc.objects):
                if hom_table(Y, Y).dim(1) == 0:
                    W = out.objects[m + j]
                    assert hom_table(W, W).dim(1) == 0


def test_approximation_transport():
    # with the first-terms condition satisfied, the corner images of the
    # mutated glued objects are the mutated corner objects
    from smc_kit import verify
    from smc_kit.recollement import j_upper_shriek
    S_X = A2.x_smc.shifted(1)
    S_Y = A2.y_smc.shifted(1)
    glued, _ = glue(S_X, S_Y, A2.spec)
    m = len(S_X)
    assert verify.commute_condition(glued, m, 0, "left")
    mutated, _ = mutate(glued, m + 0, "left")
    y_mut, _ = mutate(S_Y, 0, "left")
    for t in range(len(S_Y)):
        img = j_upper_shriek(A2.spec, mutated.objects[m + t])
        assert is_iso(img, y_mut.objects[t], rng=RNG).isomorphic


def test_multi_layer_truncation():
    # a random validated instance whose truncation strips several layers;
    # deep gluing must still verify end to end
    from smc_kit.exactla import PrimeField, RationalField
    from smc_kit.fixtures import random_recollement
    from smc_kit.homotopy import cocone, minimalize
    from smc_kit.recollement import canonical_theta, i_star
    from smc_kit.smc import glue_dual as gd

    rng = random.Random(228)
    spec = random_recollement(PrimeField(32003), rng)
    assert spec is not None
    sx, sy = standard_smc(spec.x_algebra), standard_smc(spec.y_algebra)
    images = [shift(i_star(spec, X), 0) for X in sx.objects]
    logs = []
    for Y in sy.objects:
        theta = canonical_theta(spec, Y)
        C, _ = cocone(theta)
        Cm, _ = minimalize(C)
        logs.append(truncate(Cm, images, threshold=1).strip_log)
    assert max(len(log) for log in logs) >= 2
    g, rep = glue(sx, sy, spec, deep=True)
    assert rep.all_verified() and validate_smc(g).passed
    d, _ = gd(sx, sy, spec)
    assert smc_iso(g, d)


def test_mixed_depth_strips_topmost_first():
    # mutated quotient sides spread layers across shifts; the strip log
    # must be weakly increasing in the stripped shift (deepest first)
    from smc_kit.exactla import PrimeField, RationalField
    from smc_kit.fixtures import random_recollement
    from smc_kit.homotopy import cocone, minimalize
    from smc_kit.recollement import canonical_theta, i_star

    rng = random.Random(300)
    spec = random_recollement(PrimeField(32003), rng)
    assert spec is not None and spec.x_algebra.nvert >= 2
    sx = standard_smc(spec.x_algebra)
    sx = mutate(sx, 0, "left")[0]
    sy = standard_smc(spec.y_algebra)
    images = [minimalize(i_star(spec, X))[0] for X in sx.objects]
    saw_mixed = False
    for Y in sy.objects:
        theta = canonical_theta(spec, Y)
        C, _ = cocone(theta)
        Cm, _ = minimalize(C)
        log = truncate(Cm, images, threshold=1).strip_log
        shifts = [-b for _, b in log]  # depths stripped, largest first
        assert shifts == sorted(shifts, reverse=True)
        if len(set(shifts)) >= 2:
            saw_mixed = True
    assert saw_mixed
    g, _ = glue(sx, sy, spec)
    assert validate_smc(g).passed


def test_mutation_inverse_on_glued():
    for fix in (A2, TC):
        out, _ = glue(fix.x_smc, fix.y_smc, fix.spec)
        for i in range(len(out)):
            plus, _ = mutate(out, i, "left")
            back, _ = mutate(plus, i, "right")
            assert smc_iso(back, out)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.lists(
    st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_perfect_matching_against_permutations(adj):
    n = len(adj)
    expected = any(all(adj[a][p[a]] for a in range(n))
                   for p in itertools.permutations(range(n)))
    assert _has_perfect_matching(adj) == expected


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([2, 32003]), st.randoms(use_true_random=False))
def test_is_iso_on_collection_objects_is_certified(p, rng):
    # every object of a collection is a brick, so every decision between
    # them is certified, in either order, with witnesses on every YES
    spec = random_recollement(PrimeField(p), rng, max_vertices=4)
    if spec is None:
        return
    sx, sy = standard_smc(spec.x_algebra), standard_smc(spec.y_algebra)
    g, _ = glue(sx, sy, spec, rng=rng)
    d, _ = glue_dual(sx, sy, spec, rng=rng)
    pool = list(standard_smc(spec.algebra).objects + g.objects + d.objects)
    i = rng.randrange(len(g))
    try:
        pool += mutate(g, i, rng.choice(("left", "right")))[0].objects
    except NotRigidError:
        pass
    pool = rng.sample(pool, min(len(pool), 6))
    for X in pool:
        for Y in pool:
            r = is_iso(X, Y, rng=rng)
            assert r.certified, r.note
            assert is_iso(Y, X, rng=rng).isomorphic == r.isomorphic
            if r.isomorphic:
                gen.assert_iso_witness(r, X, Y)


def test_warm_hom_queries_build_no_coordinates_and_rank_nothing(monkeypatch):
    A = Algebra.from_quiver(PrimeField(32003), linear_quiver(5),
                            relations=[("a2", "a3")])
    S = standard_smc(A)
    T, _ = mutate(S, 1, "left")
    first = [validate_smc(S), validate_smc(T), compare(S, T, rng=random.Random(0))]
    calls = []
    build, rank = homs._MapCoords.build.__func__, la.rank
    monkeypatch.setattr(homs._MapCoords, "build", classmethod(
        lambda cls, *args: calls.append("build") or build(cls, *args)))
    monkeypatch.setattr(la, "rank", lambda m: calls.append("rank") or rank(m))
    # a warm degree is read from the memo: not even its size is counted
    size = homs._degree_size
    monkeypatch.setattr(homs, "_degree_size",
                        lambda *args: calls.append("size") or size(*args))
    second = [validate_smc(S), validate_smc(T), compare(S, T, rng=random.Random(0))]
    assert calls == []
    assert second == first and first[2] == "geq"
    # the wrappers do count: a fresh collection lays out and ranks
    validate_smc(mutate(S, 2, "left")[0])
    assert set(calls) == {"build", "rank", "size"}


def _walk_answers(walk):
    """validate_smc, compare with the previous member and the dimensions of
    the mutation approximations, per step of a walk."""
    out = []
    for prev, new in zip(walk, walk[1:]):
        pairs = [(X, Y) for X in new.objects for Y in new.objects]
        out.append((validate_smc(new).to_dict(),
                    compare(prev, new, rng=random.Random(0)),
                    [len(homs.hom_basis(shift(X, -1), Y, 0)) for X, Y in pairs],
                    [len(homs.hom_basis(X, shift(Y, 1), 0)) for X, Y in pairs]))
    return out


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(32003), RationalField()],
                         ids=str)
def test_mutation_walk_answers_do_not_depend_on_shared_memos(field):
    A = Algebra.from_quiver(field, linear_quiver(5), relations=(("a1", "a2", "a3"),))
    rng = random.Random(44)
    walk = [standard_smc(A)]
    while len(walk) <= 16:
        S = walk[-1]
        i = rng.randrange(len(S.objects))
        if smc.is_rigid(S, i):
            walk.append(mutate(S, i, rng.choice(("left", "right")))[0])
    # the walk shifts objects, so shifted pairs read their base's memo
    assert any(o._base is not None for S in walk for o in S.objects)
    fresh = [SMC(S.algebra, tuple(map(gen.fresh_copy, S.objects)), S.certificate, S.names)
             for S in walk]
    assert _walk_answers(walk) == _walk_answers(fresh)

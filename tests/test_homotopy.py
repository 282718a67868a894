import gc
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import gen
from smc_kit import exactla as la
from smc_kit.algebra import Algebra, Quiver, module_hom_space
from smc_kit.config import InvariantError
from smc_kit.exactla import Mat, PrimeField, RationalField
from smc_kit.fixtures import random_monomial_linear_algebra
from smc_kit.homotopy import (
    ChainMap,
    ProjComplex,
    cocone,
    cohomology_dims,
    cone,
    compose,
    direct_sum,
    dual_mod_complex,
    hom_basis,
    hom_dims,
    hom_table,
    hom_window,
    homotopic,
    identity_map,
    is_contractible,
    is_iso,
    is_nullhomotopic,
    minimalize,
    module_realization,
    resolve_complex,
    resolve_module,
    shift,
    stalk_complex,
    zero_complex,
)
from smc_kit.homotopy.complexes import stalk
from smc_kit.homotopy.homs import (
    chain_maps_basis,
    _compose_into,
    _degree_size,
    _hom_differential,
    _MapCoords,
)

A2 = gen.a2_algebra()
TC = gen.two_cycle_algebra()


def p_stalk(A, i, deg=0):
    return stalk(A, i, deg)


def s1_complex(A=A2):
    return gen.resolved_simple(A, 0)


def test_shift_identities():
    X = s1_complex()
    assert shift(X, 0) is X
    Y = shift(shift(X, 1), -1)
    assert Y.same_shape(X)
    P = p_stalk(A2, 0, 0)
    assert shift(P, 1).terms == {-1: (0,)}


def _one_step_shift(X, n):
    """X[n] built directly from X, without the shift cache."""
    A = X.algebra
    return ProjComplex(A, {k - n: v for k, v in X.terms.items()},
                       {k - n: [[A.neg_vec(e) if n % 2 else e for e in row] for row in d]
                        for k, d in X.diffs.items()})


def test_shifts_of_shifts_are_shifts_of_the_base():
    X = s1_complex()
    C, _ = cone(chain_maps_basis(X, shift(gen.resolved_simple(A2, 1), 1))[0])
    for Z in (X, C, shift(C, 3)):
        assert any(e for d in Z.diffs.values() for row in d for e in row)
        for a in range(-2, 3):
            assert shift(shift(Z, a), -a) is Z
            for b in range(-2, 3):
                two_step = shift(shift(Z, a), b)
                assert two_step is shift(Z, a + b) is shift(shift(Z, b), a)
                # the terms and differential signs of shifting twice
                assert two_step.same_shape(_one_step_shift(_one_step_shift(Z, a), b))


def test_d_squared_checked():
    # a non-complex is rejected at construction
    a = A2.parse_element("a")
    with pytest.raises(Exception):
        ProjComplex(A2, {0: (0,), 1: (1,), 2: (0,)},
                    {0: [[a]], 1: [[A2.basis_vec(0)]]})


def test_resolve_simple_matches_resolution():
    X = s1_complex()
    assert X.terms == {-1: (1,), 0: (0,)}
    assert cohomology_dims(X) == {0: 1}
    # two-cycle algebra: every simple resolves within global dimension
    for i in range(TC.nvert):
        P = gen.resolved_simple(TC, i)
        assert P.is_minimal()
        assert cohomology_dims(P) == {0: 1}


def test_resolve_projective_is_stalk():
    P, aug = resolve_complex(stalk_complex(A2.projective_module(0)))
    assert P.terms == {0: (0,)}


def test_cone_of_identity_contractible():
    for A in (A2, TC):
        X = gen.resolved_simple(A, 0)
        C, v = cone(identity_map(X))
        assert is_contractible(C)
        assert v.source is X and v.target is C


def test_cone_of_zero_is_sum():
    X = p_stalk(A2, 0)
    Y = p_stalk(A2, 1)
    zero = ChainMap(X, Y, {})
    C, _ = cone(zero)
    S, _, _ = direct_sum([shift(X, 1), Y])
    assert C.term_profile() == S.term_profile()
    assert is_iso(C, S, rng=random.Random(0)).isomorphic


def test_cone_nonzero_map_gives_projective():
    # over A2: the cone of a nonzero map S1[-1] -> S2 is P1
    S1m = shift(s1_complex(), -1)
    S2 = p_stalk(A2, 1)  # S2 = P2 for A2
    assert hom_table(S1m, S2).dim(0) == 1
    f = hom_basis(S1m, S2, 0)[0]
    C, _ = cone(f)
    res = is_iso(C, p_stalk(A2, 0), rng=random.Random(0))
    assert res.isomorphic and res.certified


def test_hom_table_paper_values():
    P1 = p_stalk(A2, 0)
    S1 = s1_complex()
    t = hom_table(P1, S1)
    assert t.dim(0) == 1
    assert all(d == 0 for n, d in t.dims.items() if n != 0)
    S2 = p_stalk(A2, 1)
    t = hom_table(S1, S2)
    assert t.dims == {1: 1}
    t = hom_table(S1, S1)
    assert t.dim(0) == 1


def test_hom_table_against_module_oracle():
    rng = random.Random(11)
    for A in (A2, TC):
        for _ in range(4):
            X = gen.random_complex(A, rng)
            Y = gen.random_complex(A, rng)
            t = hom_table(X, Y)
            if X.is_zero() or Y.is_zero():
                continue
            lo, hi = t.window
            for n in range(lo, hi + 1):
                assert t.dim(n) == gen.hom_dim_oracle(X, Y, n), (X, Y, n)


def test_hom_shift_invariance():
    rng = random.Random(5)
    X = gen.random_complex(A2, rng)
    Y = gen.random_complex(A2, rng)
    if X.is_zero() or Y.is_zero():
        X, Y = s1_complex(), p_stalk(A2, 0)
    t0 = hom_table(X, Y)
    t1 = hom_table(shift(X, 2), shift(Y, 2))
    assert t0.dims == t1.dims


def test_hom_additivity():
    X = s1_complex()
    X2, _, _ = direct_sum([X, X])
    Y = p_stalk(A2, 0)
    t1 = hom_table(X, Y)
    t2 = hom_table(X2, Y)
    for n in set(t1.dims) | set(t2.dims):
        assert t2.dim(n) == 2 * t1.dim(n)


def test_identity_not_nullhomotopic():
    X = s1_complex()
    assert is_nullhomotopic(identity_map(X)) is None
    C, _ = cone(identity_map(X))
    assert is_nullhomotopic(identity_map(C)) is not None


def test_compose_with_identity():
    X = s1_complex()
    Y = p_stalk(A2, 0)
    f = hom_basis(Y, X, 0)[0]
    assert compose(identity_map(Y), f).comps == f.comps
    assert compose(f, identity_map(X)).comps == f.comps


def test_minimalize_cases():
    # cone(id) minimalizes to zero
    X = p_stalk(A2, 0)
    C, _ = cone(identity_map(X))
    M, _ = minimalize(C)
    assert M.is_zero()
    # already minimal complexes come back themselves, with the identity
    S1 = s1_complex()
    M, _ = minimalize(S1)
    assert M is S1
    # cone(0: S2 -> S2) stays S2 + S2[1]
    S2 = p_stalk(A2, 1)
    C, _ = cone(ChainMap(S2, S2, {}))
    M, from_min = minimalize(C)
    assert M is C and M.term_profile() == {-1: (1,), 0: (1,)}
    assert from_min.target is C and from_min.comps == identity_map(C).comps


def test_minimalize_equivalences():
    rng = random.Random(3)
    for A in (A2, TC):
        for _ in range(3):
            X = gen.random_complex(A, rng)
            M, from_min = minimalize(X)
            if X.is_zero():
                continue
            # X_min -> X is a chain map whose cone is acyclic
            assert from_min.source is M and from_min.target is X
            from_min._validate()
            assert cohomology_dims(cone(from_min)[0]) == {}


def test_minimalize_idempotent():
    rng = random.Random(9)
    X = gen.random_complex(TC, rng)
    M, _ = minimalize(X)
    M2, _ = minimalize(M)
    assert M2.terms == M.terms and M2.diffs == M.diffs


def test_euler_conservation():
    rng = random.Random(17)
    for _ in range(5):
        X = gen.random_complex(TC, rng)
        Y = gen.random_complex(TC, rng)
        basis = hom_basis(X, Y, 0)
        f = basis[0] if basis else ChainMap(X, Y, {})
        C, _ = cone(f)
        ex, ey, ec = X.euler_class(), Y.euler_class(), C.euler_class()
        assert all(x - y + c == 0 for x, y, c in zip(ex, ey, ec))
        M, _ = minimalize(C)
        assert M.euler_class() == ec


def test_les_alternating_sum():
    # Hom(-, Z) applied to X -> Y -> cone(f): Euler characteristics telescope
    rng = random.Random(23)
    for _ in range(5):
        X = gen.random_complex(A2, rng)
        Y = gen.random_complex(A2, rng)
        if X.is_zero() or Y.is_zero():
            continue
        basis = hom_basis(X, Y, 0)
        if not basis:
            continue
        f = basis[0]
        C, _ = cone(f)
        Z = gen.resolved_simple(A2, rng.randrange(2))
        # alternating sum over all n of (dim Hom(C) - dim Hom(Y) + dim Hom(X))
        total = 0
        for T, s in ((C, 1), (Y, -1), (X, 1)):
            t = hom_table(T, Z)
            for n, d in t.dims.items():
                total += s * d * (-1) ** (n % 2)
        assert total == 0


def _class_coords(f, X, Y, n):
    """Coordinates of the class of f in the hom_basis(X, Y, n) basis, from
    one solve of [representatives | D^{n-1}] (c, h) = f."""
    coords = _MapCoords.build(X, Y, n)
    below = _MapCoords.build(X, Y, n - 1)
    reps = [coords.from_map(b, n) for b in hom_basis(X, Y, n)]
    system = la.hstack([Mat(A2.field, reps, ncols=coords.total).transpose(),
                        _hom_differential(X, Y, n - 1, below, coords)])
    sol = la.solve(system, coords.from_map(f, n))
    assert sol is not None
    return sol[:len(reps)]


def test_les_exactness_ranks():
    # genuine exactness at one node: rank(incoming) + rank(outgoing) = dim
    X = shift(s1_complex(), -1)
    Y = p_stalk(A2, 1)
    f = hom_basis(X, Y, 0)[0]
    C, v = cone(f)
    Z = s1_complex()
    lo, hi = hom_window(Y, Z)
    for n in range(lo, hi + 1):
        # maps Hom(C,Z[n]) -> Hom(Y,Z[n]) -> Hom(X,Z[n]) induced by v and f
        def induced(src, pre, tgt):
            dim = hom_dims(tgt, Z, (n,))[n]
            rows = [_class_coords(compose(pre, b), tgt, Z, n) for b in hom_basis(src, Z, n)]
            return Mat(A2.field, rows, ncols=dim) if rows else Mat.zeros(A2.field, 0, dim)

        m1 = induced(C, v, Y)
        m2 = induced(Y, f, X)
        assert la.rank(m1) + la.rank(m2) == hom_dims(Y, Z, (n,))[n]


def test_cocone_triangle():
    X = shift(s1_complex(), -1)
    Y = p_stalk(A2, 1)
    f = hom_basis(X, Y, 0)[0]
    C, p = cocone(f)
    # cone of the cocone map recovers the target
    CC, _ = cone(p)
    assert is_iso(CC, Y, rng=random.Random(1)).isomorphic


def test_is_iso_cases():
    X = s1_complex()
    r = is_iso(X, X, rng=random.Random(0))
    assert r.isomorphic and r.certified
    r = is_iso(p_stalk(A2, 0), X, rng=random.Random(0))
    assert not r.isomorphic and r.certified  # term profiles differ
    r = is_iso(zero_complex(A2), cone(identity_map(X))[0], rng=random.Random(0))
    assert r.isomorphic and r.certified


def test_is_iso_witnesses_verified():
    # a non-minimal target: the witness lies between the two minimal models
    X = s1_complex()
    Y, _, _ = direct_sum([X, cone(identity_map(p_stalk(A2, 1)))[0]])
    r = is_iso(X, Y, rng=random.Random(2))
    assert r.isomorphic and r.certified
    gen.assert_iso_witness(r, X, Y)


def test_is_iso_cohomology_certificate():
    # same minimal term profile, different cohomology: certified distinct
    S1 = s1_complex()  # [P2 -> P1] with the arrow differential
    loose = ProjComplex(A2, {-1: (1,), 0: (0,)})  # same terms, zero differential
    r = is_iso(S1, loose, rng=random.Random(0))
    assert not r.isomorphic and r.certified
    assert "cohomology" in r.note


def test_is_iso_certified_over_rationals():
    QQ = RationalField()
    A = gen.a2_algebra(QQ)
    S1 = gen.resolved_simple(A, 0)
    r = is_iso(S1, S1)
    assert r.isomorphic and r.certified
    r = is_iso(S1, stalk(A, 0))
    assert not r.isomorphic and r.certified


def _kronecker_pair(field):
    """X = [P2 -(a; b)-> P1^2], a brick, and Y = [P2 -(a; 0)-> P1^2], which
    is not: same terms and cohomology dimensions, not isomorphic."""
    K = Algebra.from_quiver(field, Quiver(("1", "2"), (("a", "1", "2"), ("b", "1", "2"))))
    a, b = K.parse_element("a"), K.parse_element("b")
    X = ProjComplex(K, {-1: (1,), 0: (0, 0)}, {-1: [[a], [b]]})
    Y = ProjComplex(K, {-1: (1,), 0: (0, 0)}, {-1: [[a], [K.zero_vec()]]})
    return K, X, Y


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), PrimeField(32003),
                                   RationalField()], ids=str)
def test_is_iso_brick_no_is_certified(field):
    K, X, Y = _kronecker_pair(field)
    assert hom_dims(X, X, (0,))[0] == 1 and hom_dims(Y, Y, (0,))[0] > 1
    for P, Q in ((X, Y), (Y, X)):
        r = is_iso(P, Q, rng=random.Random(0))
        assert not r.isomorphic and r.certified, r.note
    # adding P2 makes both sides non-bricks: the NO is sampled, and its
    # Schwartz-Zippel bound divides by the size of the sample set (all of
    # F_p, or the 41 integers -20..20 over Q); a small prime gives no bound
    Xp, _, _ = direct_sum([X, p_stalk(K, 1)])
    Yp, _, _ = direct_sum([Y, p_stalk(K, 1)])
    r = is_iso(Xp, Yp, rng=random.Random(0))
    assert not r.isomorphic and not r.certified
    size = field.p if isinstance(field, PrimeField) else 41
    small = size <= Xp.total_terms()
    assert ("inconclusive" in r.note) == small, r.note
    if not small:
        assert f"probability <= ({Xp.total_terms()}/{size})^40" in r.note, r.note


class _CountingRandom(random.Random):
    draws = 0

    def randrange(self, *args, **kwargs):
        self.draws += 1
        return super().randrange(*args, **kwargs)


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(32003)], ids=str)
def test_is_iso_samples_decomposable_self_iso(field):
    # End(P1 + P2) has basis e_1, e_2 and the arrow, each singular on its
    # own: only the random-combination fallback finds the identity
    A = gen.a2_algebra(field)
    D, _, _ = direct_sum([p_stalk(A, 0), p_stalk(A, 1)])
    assert hom_dims(D, D, (0,))[0] == 3
    rng = _CountingRandom(0)
    r = is_iso(D, D, rng=rng)
    assert rng.draws > 0
    assert r.isomorphic and r.certified
    gen.assert_iso_witness(r, D, D)


def test_resolve_complex_of_two_terms():
    # a complex of modules with a nonzero differential resolves correctly
    A = TC
    S2 = A.simple_module(1)
    P1 = A.projective_module(0)
    homs = module_hom_space(S2, P1)
    assert len(homs) == 1
    from smc_kit.homotopy.resolve import ModComplex
    C = ModComplex(A, {0: S2, 1: P1}, {0: homs[0]})
    P, aug = resolve_complex(C)
    assert module_realization(P).cohomology_dims() == C.cohomology_dims()


RESOLVER_FIELDS = [PrimeField(2), PrimeField(32003), RationalField()]


def _resolver_algebra(f, rng, finite_gldim):
    makers = [gen.two_cycle_algebra,
              lambda f: random_monomial_linear_algebra(f, rng, max_vertices=5)]
    if not finite_gldim:
        makers.append(gen.self_injective_cycle_algebra)
    A = rng.choice(makers)(f)
    return rng.choice([A, A.op()])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(RESOLVER_FIELDS), st.randoms(use_true_random=False))
def test_resolving_a_minimal_complex_gives_a_minimal_copy(f, rng):
    """A minimal complex of projectives is its own minimal model, so the
    resolution of its realization is minimal, has its terms and is
    isomorphic to it.  So is the resolution of its sum with a contractible
    pair P_i -> P_i, whose boundaries reach the pair's generators."""
    if rng.random() < 0.8:
        X = gen.random_minimal_complex(_resolver_algebra(f, rng, finite_gldim=True), rng)
    else:
        X = gen.random_complex(_resolver_algebra(f, rng, finite_gldim=False), rng)
    assert X.is_minimal()
    pair = cone(identity_map(stalk(X.algebra, rng.randrange(X.algebra.nvert),
                                   rng.randrange(-2, 2))))[0]
    for Y in (X, direct_sum([X, pair])[0]):
        P, eps = resolve_complex(module_realization(Y))
        assert P.is_minimal() and P.term_profile() == X.term_profile()
        assert set(eps) <= set(P.terms)
        assert is_iso(P, X)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(RESOLVER_FIELDS), st.randoms(use_true_random=False))
def test_resolving_the_dual_of_a_resolved_simple(f, rng):
    """The j_* step: the dual of the resolution of S_i over B is an
    injective coresolution of the simple S_i over B^op, so its resolution
    has the terms of the minimal resolution of that simple."""
    B = _resolver_algebra(f, rng, finite_gldim=True)
    for i in range(B.nvert):
        Y = gen.resolved_simple(B, i)
        P, _ = resolve_complex(dual_mod_complex(module_realization(Y)))
        assert P.algebra is B.op() and P.is_minimal()
        assert P.term_profile() == resolve_module(B.op().simple_module(i)).term_profile()


def test_resolver_spanning_check_catches_a_missed_cycle(monkeypatch):
    """A cover that misses a cycle above the support's bottom degree, where
    the boundaries of C join the cover, fails the spanning check."""
    from smc_kit.homotopy import resolve
    S2, P1 = TC.simple_module(1), TC.projective_module(0)
    C = resolve.ModComplex(TC, {0: S2, 1: P1}, {0: module_hom_space(S2, P1)[0]})
    real = resolve.top_generators

    def drop_last(M, rows, known):
        gens = real(M, rows, known)
        return gens[:-1] if known else gens

    monkeypatch.setattr(resolve, "top_generators", drop_last)
    with pytest.raises(InvariantError, match="do not span"):
        resolve_complex(C)


_BREACH = """
from smc_kit.algebra import Algebra, Quiver
from smc_kit.config import InvariantError
from smc_kit.exactla import PrimeField
from smc_kit.homotopy import ModComplex
from smc_kit.homotopy.complexes import stalk
from smc_kit.homotopy.resolve import _assert_quasi_iso

A = Algebra.from_quiver(PrimeField(3), Quiver(("1", "2"), (("a", "1", "2"),)))
try:
    # P1 is not quasi-isomorphic to the zero complex
    _assert_quasi_iso(stalk(A, 0), ModComplex(A, {}, {}, validate=False), {})
except InvariantError:
    print("raised", __debug__)
"""


def test_invariant_breach_raises_under_optimize():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-O", "-c", _BREACH], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "raised False"


def test_zero_complex_operations():
    Z = zero_complex(A2)
    assert shift(Z, 3).is_zero()
    assert is_contractible(Z)
    t = hom_table(Z, s1_complex())
    assert t.dims == {}


# -- degree-targeted Hom queries against a dense full-window reference -------


def _dense_block(mat, block, coff, off, combine):
    for i in range(block.nrows):
        for j in range(block.ncols):
            c = block.rows[i][j]
            if c != mat.field.zero:
                mat.rows[coff + j][off + i] = combine(mat.rows[coff + j][off + i], c)


def _dense_differential(X, Y, n, dom, cod):
    """D^n filled entry by entry from lrow/rrow submatrices."""
    A = X.algebra
    fld = A.field
    mat = Mat.zeros(fld, cod.total, dom.total)
    cod_index = {(k, t, s): (off, corner)
                 for (k, t, s, corner), off in zip(cod.blocks, cod.offsets)}
    sign = fld.from_int(-1 if n % 2 else 1)
    for (k, t, s, corner), off in zip(dom.blocks, dom.offsets):
        dY = Y.diff(k + n)
        if dY is not None:
            for tp in range(len(Y.term(k + n + 1))):
                ent = dY[tp][t]
                if ent and (k, tp, s) in cod_index:
                    coff, ccorner = cod_index[(k, tp, s)]
                    _dense_block(mat, gen.submatrix(gen.lrow(A, ent), corner, ccorner),
                                 coff, off, fld.add)
        dX = X.diff(k - 1)
        if dX is not None:
            for sp in range(len(X.term(k - 1))):
                ent = dX[s][sp]
                if ent and (k - 1, t, sp) in cod_index:
                    coff, ccorner = cod_index[(k - 1, t, sp)]
                    _dense_block(mat, gen.submatrix(gen.rrow(A, ent), corner, ccorner),
                                 coff, off, lambda a, c: fld.sub(a, fld.mul(sign, c)))
    return mat


def _dense_compose(coords_in, coords_out, f, left):
    """Coordinates of f o psi (left) or chi o f as a linear map (one row per
    output coordinate), from lrow/rrow."""
    A = f.source.algebra
    out = Mat.zeros(A.field, coords_out.total, coords_in.total)
    out_index = {(k, t, s): (off, corner)
                 for (k, t, s, corner), off in zip(coords_out.blocks, coords_out.offsets)}
    for (k, t, s, corner), off in zip(coords_in.blocks, coords_in.offsets):
        fc = f.comps.get(k)
        if fc is None:
            continue
        if left:
            pairs = [((k, tp, s), fc[tp][t]) for tp in range(len(fc))]
        else:
            pairs = [((k, t, sp), fc[s][sp]) for sp in range(len(fc[s]))]
        for key, ent in pairs:
            if ent and key in out_index:
                coff, ccorner = out_index[key]
                mult = gen.lrow(A, ent) if left else gen.rrow(A, ent)
                _dense_block(out, gen.submatrix(mult, corner, ccorner), coff, off, A.field.add)
    return out


def _dense_hom_dims(X, Y):
    """Every degree of the support window from one dense pass."""
    if X.is_zero() or Y.is_zero():
        return {}
    lo, hi = hom_window(X, Y)
    coords = {n: _MapCoords.build(X, Y, n) for n in range(lo - 1, hi + 2)}
    ranks = {n: la.rank(_dense_differential(X, Y, n, coords[n], coords[n + 1]))
             for n in range(lo - 1, hi + 1)}
    return {n: coords[n].total - ranks[n] - ranks[n - 1] for n in range(lo, hi + 1)}


def _greedy_basis_coords(X, Y, n):
    """Kernel vectors picked one rank computation at a time."""
    fld = X.algebra.field
    coords = {m: _MapCoords.build(X, Y, m) for m in (n - 1, n, n + 1)}
    kern = la.kernel_basis(_dense_differential(X, Y, n, coords[n], coords[n + 1]))
    prev = _dense_differential(X, Y, n - 1, coords[n - 1], coords[n])
    current = []
    if prev.ncols:
        current = [list(r) for r in la.row_space_basis(prev.transpose()).rows]
    chosen = []
    for v in kern:
        if la.rank(Mat(fld, current + [list(v)], ncols=coords[n].total)) > len(current):
            chosen.append(v)
            current.append(list(v))
    return chosen


def _random_pair(field, rng):
    """Two complexes, zero about one time in ten, else an iterated cone of
    random chain maps, left non-minimal (sometimes with an added contractible
    summand) so that D^{n-1} has a large image."""
    A = rng.choice([gen.a2_algebra, gen.two_cycle_algebra,
                    lambda f: random_monomial_linear_algebra(f, rng, max_vertices=4)])(field)

    def draw():
        if rng.random() < 0.1:
            return zero_complex(A)
        pool = [stalk(A, rng.randrange(A.nvert), rng.randrange(-1, 2)),
                gen.resolved_simple(A, rng.randrange(A.nvert), rng.randrange(-1, 2))]
        for _ in range(rng.randint(1, 3)):
            x, y = rng.choice(pool), rng.choice(pool)
            basis = chain_maps_basis(x, y.shift(rng.randrange(-1, 2)))
            if basis:
                f = gen.scale_map(basis[0], field.rand(rng))
                for g in basis[1:]:
                    f = f + gen.scale_map(g, field.rand(rng))
                c, _ = cone(f)
                if c.total_terms() <= 7:
                    pool.append(c)
        if rng.random() < 0.3:
            # a contractible summand first: its null-homotopic maps come
            # first among the coordinates, where a basis pick can go wrong
            trivial, _ = cone(identity_map(stalk(A, rng.randrange(A.nvert),
                                                 rng.randrange(-1, 2))))
            return direct_sum([trivial, pool[-1]])[0]
        return pool[-1]

    return draw(), draw()


@settings(max_examples=40, deadline=None)
@given(st.booleans(), st.randoms(use_true_random=False))
def test_hom_dims_against_dense_window_and_oracle(rationals, rng):
    X, Y = _random_pair(RationalField() if rationals else gen.FP, rng)
    lo, hi = hom_window(X, Y)
    degrees = list(range(lo - 2, hi + 3)) * 2
    rng.shuffle(degrees)
    got = {}
    for chunk in (degrees[:len(degrees) // 2], degrees[len(degrees) // 2:]):
        for n, d in hom_dims(X, Y, chunk).items():
            assert got.setdefault(n, d) == d
    dense = _dense_hom_dims(X, Y)
    for n in range(lo - 2, hi + 3):
        assert got[n] == dense.get(n, 0) == gen.hom_dim_oracle(X, Y, n), n
    table = hom_table(X, Y)
    assert table.window == (lo, hi)
    assert table.dims == {n: d for n, d in dense.items() if d}


@settings(max_examples=40, deadline=None)
@given(st.booleans(), st.randoms(use_true_random=False))
def test_sparse_differential_and_basis_match_dense_build(rationals, rng):
    X, Y = _random_pair(RationalField() if rationals else gen.FP, rng)
    lo, hi = hom_window(X, Y)
    for n in range(lo - 2, hi + 2):
        dom, cod = _MapCoords.build(X, Y, n), _MapCoords.build(X, Y, n + 1)
        sparse = _hom_differential(X, Y, n, dom, cod)
        dense = _dense_differential(X, Y, n, dom, cod)
        # repr tells 0 from Fraction(0), so equal entries must share a type
        assert (sparse.shape, repr(sparse.rows)) == (dense.shape, repr(dense.rows))
        coords = _MapCoords.build(X, Y, n)
        got = [coords.from_map(b, n) for b in hom_basis(X, Y, n)]
        # an element stores no zero coefficient, so a zero coordinate reads
        # back as the field's 0 whatever type the kernel vector gave it
        want = [[x if x else 0 for x in v] for v in _greedy_basis_coords(X, Y, n)]
        assert repr(got) == repr(want)
    # the composition coefficients of the solvers come from the same kernel
    for W in (Y.shift(-1), Y, Y.shift(1)):
        for f in chain_maps_basis(X, W):
            for Z in (X, Y, W):
                # f o psi for psi: Z -> X, and chi o f for chi: W -> Z
                cases = ((True, _MapCoords.build(Z, X, 0), _MapCoords.build(Z, W, 0)),
                         (False, _MapCoords.build(W, Z, 0), _MapCoords.build(X, Z, 0)))
                for left, c_in, c_out in cases:
                    sparse = Mat.zeros(X.algebra.field, c_out.total, c_in.total)
                    _compose_into(X.algebra, sparse.rows, c_in, c_out, f.comps, 0, left)
                    dense = _dense_compose(c_in, c_out, f, left)
                    assert (sparse.shape, repr(sparse.rows)) == (dense.shape, repr(dense.rows))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([PrimeField(2), gen.FP, RationalField()]),
       st.randoms(use_true_random=False))
def test_degree_sizes_and_warm_dims_match_coordinate_layouts(field, rng):
    X, Y = _random_pair(field, rng)
    objects = [X, Y, X.shift(1), Y.shift(-1)]
    basis = chain_maps_basis(X, Y, rng.randrange(-1, 2))
    if basis:
        objects.append(cone(basis[rng.randrange(len(basis))])[0])
    for P in objects:
        for Q in objects:
            lo, hi = hom_window(P, Q)
            around = range(lo - 2, hi + 3)
            for n in around:
                assert _degree_size(P, Q, n) == _MapCoords.build(P, Q, n).total, n
            dense = _dense_hom_dims(P, Q)
            cold = hom_dims(P, Q, range(lo, hi + 1))
            warm = hom_dims(P, Q, around)
            assert warm == {n: dense.get(n, 0) for n in around}
            assert cold == {n: warm[n] for n in range(lo, hi + 1)}


def test_hom_basis_skips_null_homotopic_kernel_vectors():
    # Y's contractible summand puts null-homotopic chain maps first among
    # the kernel vectors of D^0; the basis must pass over them.
    X = s1_complex()
    Y, _, _ = direct_sum([cone(identity_map(p_stalk(A2, 0)))[0], X])
    coords = _MapCoords.build(X, Y, 0)
    kern = la.kernel_basis(_hom_differential(X, Y, 0, coords, _MapCoords.build(X, Y, 1)))
    assert is_nullhomotopic(ChainMap(X, Y, coords.to_entries(X, Y, 0, kern[0]))) is not None
    basis = hom_basis(X, Y, 0)
    assert len(basis) == hom_dims(X, Y, (0,))[0] == 1
    assert all(is_nullhomotopic(f) is None for f in basis)
    assert repr([coords.from_map(f, 0) for f in basis]) == repr(_greedy_basis_coords(X, Y, 0))


def test_hom_rank_memo_dies_with_either_complex():
    for keep_source in (True, False):
        X, Y = s1_complex(), gen.resolved_simple(A2, 1)
        hom_table(X, Y)
        hom_table(shift(X, 1), Y)
        assert all(X._hom_memo[Y])  # dims and ranks
        assert len(X._hom_memo) == 1 and shift(X, 1)._hom_memo is None
        ref = weakref.ref(Y if keep_source else X)
        if keep_source:
            del Y
        else:
            del X
        gc.collect()
        assert ref() is None
        if keep_source:
            assert len(X._hom_memo) == 0


def test_hom_memo_through_shifts_lives_on_the_base_pair():
    X, Y = s1_complex(), gen.resolved_simple(A2, 1)
    Xs, Ys, Ys2 = shift(X, 1), shift(Y, -2), shift(Y, 1)
    dims = hom_table(Xs, Ys).dims
    assert dims and X._hom_memo is not None and all(X._hom_memo[Y])
    assert Xs._hom_memo is None and Y._hom_memo is None
    x_ref, y_ref = weakref.ref(X), weakref.ref(Y)
    del X, Y
    gc.collect()
    # a live shift keeps its base, and the base's entries, alive
    assert x_ref() is Xs._base and y_ref() is Ys._base
    assert len(Xs._base._hom_memo) == 1
    assert hom_table(Xs, Ys2).dims == {n - 3: d for n, d in dims.items()}
    del Ys
    gc.collect()
    assert y_ref() is Ys2._base and len(Xs._base._hom_memo) == 1
    # the entry dies once Y and every shift of Y are gone
    del Ys2
    gc.collect()
    assert y_ref() is None and len(Xs._base._hom_memo) == 0
    del Xs
    gc.collect()
    assert x_ref() is None


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([PrimeField(2), gen.FP, RationalField()]),
       st.randoms(use_true_random=False))
def test_shifted_hom_dims_read_the_base_pair(field, rng):
    X, Y = _random_pair(field, rng)
    dense = {(0, 1): _dense_hom_dims(gen.fresh_copy(X), gen.fresh_copy(Y)),
             (1, 0): _dense_hom_dims(gen.fresh_copy(Y), gen.fresh_copy(X))}
    queries = [(order, a, b) for order in dense for a in range(-2, 3) for b in range(-2, 3)]
    rng.shuffle(queries)
    for order, a, b in queries:
        S, T = ((X, Y) if order == (0, 1) else (Y, X))
        S, T = shift(S, a), shift(T, b)
        lo, hi = hom_window(S, T)
        degrees = list(range(lo - 1, hi + 2))
        rng.shuffle(degrees)
        got = hom_dims(S, T, degrees)
        assert got == {n: dense[order].get(n + b - a, 0) for n in degrees}, (order, a, b)


def test_complexes_are_read_only():
    X = s1_complex()
    k = next(iter(X.diffs))
    with pytest.raises(TypeError):
        X.terms[5] = (0,)
    with pytest.raises(TypeError):
        X.diffs[k] = X.diffs[k]
    with pytest.raises(TypeError):
        X.diffs[k][0][0] = A2.zero_vec()
    with pytest.raises(TypeError):
        del X.terms[k]

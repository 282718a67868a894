"""The product-table kernel against dense multiplication matrices, and the
factorization solvers lift_through / factor_through."""

import hypothesis.strategies as st
from hypothesis import given, settings

import gen
from smc_kit import exactla as la
from smc_kit.algebra import projectives_module
from smc_kit.exactla import Mat, RationalField
from smc_kit.fixtures import random_monomial_linear_algebra
from smc_kit.homotopy import (
    ChainMap,
    chain_maps_basis,
    cocone,
    compose,
    cone,
    factor_through,
    homotopic,
    identity_map,
    is_contractible,
    is_nullhomotopic,
    lift_through,
    zero_complex,
)
from smc_kit.homotopy.complexes import stalk
from smc_kit.homotopy.homs import _hom_differential, _MapCoords
from smc_kit.homotopy.resolve import realize_entry_matrix

QQ = RationalField()


def _dense_realization(B, src_verts, tgt_verts, entries):
    """realize_entry_matrix through submatrices of dense lrow matrices."""
    f = B.field
    src_bases = [B.projective_module(i).basis_in_algebra for i in src_verts]
    tgt_bases = [B.projective_module(j).basis_in_algebra for j in tgt_verts]
    out = Mat.zeros(f, sum(map(len, src_bases)), sum(map(len, tgt_bases)))
    r0 = 0
    for s, sbasis in enumerate(src_bases):
        c0 = 0
        for t, tbasis in enumerate(tgt_bases):
            block = gen.submatrix(gen.lrow(B, entries[t][s]), sbasis, tbasis)
            for r, brow in enumerate(block.rows):
                for c, x in enumerate(brow):
                    if x != f.zero:
                        out.rows[r0 + r][c0 + c] = x
            c0 += len(tbasis)
        r0 += len(sbasis)
    return out


def _dense_inverse(B, x, v):
    """invert_in_corner through a submatrix of the dense rrow matrix."""
    f = B.field
    idx = B.corner_indices(v, v)
    sub = gen.submatrix(gen.rrow(B, x), idx, idx)
    sol = la.solve(sub.transpose(), [f.one if b == v else f.zero for b in idx])
    y = [f.zero] * B.dim
    for pos, b in enumerate(idx):
        y[b] = sol[pos]
    return tuple(y)


def _sparse_vec(B, rng, support):
    f = B.field
    return tuple(f.rand(rng) if b in support and rng.random() < 0.6 else f.zero
                 for b in range(B.dim))


@settings(max_examples=30, deadline=None)
@given(st.booleans(), st.booleans(), st.randoms(use_true_random=False))
def test_products_match_dense_multiplication(rationals, use_two_cycle, rng):
    field = QQ if rationals else gen.FP
    A = gen.two_cycle_algebra(field) if use_two_cycle else \
        random_monomial_linear_algebra(field, rng, max_vertices=5)
    subset = rng.sample(range(A.nvert), rng.randint(1, A.nvert - 1))
    corner, _ = A.corner(subset)
    for B in (A, A.op(), corner, corner.op(), A.quotient(subset)[0],
              A.op().quotient(subset)[0]):
        f = B.field
        src = [rng.randrange(B.nvert) for _ in range(rng.randint(1, 3))]
        tgt = [rng.randrange(B.nvert) for _ in range(rng.randint(1, 3))]
        # entries anywhere in B, so products landing outside a target
        # summand must be dropped by both routes
        entries = [[gen.sparse(_sparse_vec(B, rng, range(B.dim))) for _ in src]
                   for _ in tgt]
        got = gen.dense_map(projectives_module(B, src), projectives_module(B, tgt),
                            realize_entry_matrix(B, src, tgt, entries))
        want = _dense_realization(B, src, tgt, entries)
        # repr tells 0 from Fraction(0), so equal entries must share a type
        assert (got.shape, repr(got.rows)) == (want.shape, repr(want.rows))
        for v in range(B.nvert):
            radical = set(B.corner_indices(v, v)) - {v}
            x = list(_sparse_vec(B, rng, radical))
            x[v] = gen.rand_nonzero(f, rng)
            x = gen.sparse(x)
            y = B.invert_in_corner(x, v)
            # repr tells 1 from Fraction(1), so equal coefficients must share
            # a type; a zero coordinate is stored by neither
            want = gen.sparse(_dense_inverse(B, x, v))
            assert repr(sorted(y.items())) == repr(sorted(want.items()))
            assert B.mul_vec(x, y) == B.mul_vec(y, x) == B.basis_vec(v)


def _random_map(X, Y, rng):
    """A random chain map X -> Y, the zero map when there is none."""
    f = X.algebra.field
    out = ChainMap(X, Y, {})
    for b in chain_maps_basis(X, Y):
        out = out + gen.scale_map(b, f.rand(rng))
    return out


def _draw(A, rng, cones=True):
    """A stalk projective, a resolved simple, or the cone of a random map
    between two of these, in degree -1 or 0."""
    kind = rng.randrange(3 if cones else 2)
    if kind == 0:
        return stalk(A, rng.randrange(A.nvert), rng.randrange(-1, 1))
    if kind == 1:
        return gen.resolved_simple(A, rng.randrange(A.nvert), rng.randrange(-1, 1))
    x, y = _draw(A, rng, False), _draw(A, rng, False)
    return cone(_random_map(x, y, rng))[0]


def _null_homotopic(X, Y, rng):
    """d_Y h + h d_X for a random h of degree -1."""
    f = X.algebra.field
    c_h, c_0 = _MapCoords.build(X, Y, -1), _MapCoords.build(X, Y, 0)
    d = _hom_differential(X, Y, -1, c_h, c_0)
    h = [f.rand(rng) for _ in range(c_h.total)]
    return ChainMap(X, Y, c_0.to_entries(X, Y, 0, [gen.sum_prod(f, r, h) for r in d.rows]))


def _composable(A, rng):
    """Random chain maps a: X -> W and b: W -> Y, redrawn a few times
    until b o a is nonzero."""
    for _ in range(20):
        X, W, Y = (_draw(A, rng) for _ in range(3))
        a, b = _random_map(X, W, rng), _random_map(W, Y, rng)
        if not compose(a, b).is_zero():
            break
    return a, b


@settings(max_examples=25, deadline=None)
@given(st.booleans(), st.randoms(use_true_random=False))
def test_lift_and_factor_through_recover_composites(rationals, rng):
    field = QQ if rationals else gen.FP
    A = rng.choice([gen.a2_algebra, gen.two_cycle_algebra,
                    lambda f: random_monomial_linear_algebra(f, rng, max_vertices=4)])(field)
    # g = p o psi0 + (null-homotopic) lifts through p, up to homotopy only
    psi0, p = _composable(A, rng)
    g = compose(psi0, p) + _null_homotopic(psi0.source, p.target, rng)
    psi = lift_through(p, g)
    assert psi is not None and psi.source is psi0.source and psi.target is p.source
    assert homotopic(compose(psi, p), g)
    # g = chi0 o w + (null-homotopic) factors through w
    w, chi0 = _composable(A, rng)
    g = compose(w, chi0) + _null_homotopic(w.source, chi0.target, rng)
    chi = factor_through(w, g)
    assert chi is not None and chi.source is w.target and chi.target is g.target
    assert homotopic(compose(w, chi), g)


@settings(max_examples=25, deadline=None)
@given(st.booleans(), st.randoms(use_true_random=False))
def test_cone_and_cocone_maps_compose_to_zero_with_f(rationals, rng):
    field = QQ if rationals else gen.FP
    A = rng.choice([gen.a2_algebra, gen.two_cycle_algebra,
                    lambda f: random_monomial_linear_algebra(f, rng, max_vertices=4)])(field)
    X, Y = _draw(A, rng), _draw(A, rng)
    f = _random_map(X, Y, rng)
    C, v = cone(f)
    assert v.source is Y and v.target is C
    ChainMap(Y, C, v.comps)  # validates: v is a chain map
    assert is_nullhomotopic(compose(f, v)) is not None
    D, p = cocone(f)
    assert p.source is D and p.target is X
    ChainMap(D, X, p.comps)
    assert is_nullhomotopic(compose(p, f)) is not None


def test_identity_does_not_factor_through_zero():
    for field in (gen.FP, QQ):
        A = gen.two_cycle_algebra(field)
        X = gen.resolved_simple(A, 0)
        assert not is_contractible(X)
        Z = zero_complex(A)
        assert lift_through(ChainMap(Z, X, {}), identity_map(X)) is None
        assert factor_through(ChainMap(X, Z, {}), identity_map(X)) is None
        # the zero map does lift, to the zero map
        psi = lift_through(ChainMap(Z, X, {}), ChainMap(X, X, {}))
        assert psi is not None and psi.is_zero()

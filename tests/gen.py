"""Shared builders for the test suite: small algebras, random matrices and
complexes, independent oracles for graded Hom dimensions, module Hom spaces
and minimal projective resolutions, and the chain-map arithmetic and
injections the library itself does without."""

import random
from fractions import Fraction

from smc_kit import exactla as la
from smc_kit.algebra import (
    Algebra,
    Module,
    Quiver,
    cover_kernel_dims,
    direct_sum_modules,
    projectives_module,
    top_generators,
    yoneda_map,
)
from smc_kit.config import InputError
from smc_kit.exactla import Mat, PrimeField
from smc_kit.homotopy import (
    ChainMap,
    ProjComplex,
    cohomology_dims,
    compose,
    cone,
    direct_sum,
    minimalize,
    module_realization,
    resolve_complex,
    stalk_complex,
)
from smc_kit.homotopy.complexes import ent_zeros, stalk
from smc_kit.homotopy.homs import _hom_differential, _MapCoords, chain_maps_basis

FP = PrimeField(32003)


def a2_algebra(field=FP):
    return Algebra.from_quiver(field, Quiver(("1", "2"), (("a", "1", "2"),)))


def two_cycle_algebra(field=FP):
    q = Quiver(("1", "2"), (("alpha", "2", "1"), ("beta", "1", "2")))
    return Algebra.from_quiver(field, q, relations=[("beta", "alpha")])


def self_injective_cycle_algebra(field=FP):
    # both length-2 cycles vanish: finite-dimensional but of infinite
    # global dimension
    q = Quiver(("1", "2"), (("alpha", "2", "1"), ("beta", "1", "2")))
    return Algebra.from_quiver(field, q, relations=[("beta", "alpha"),
                                                   ("alpha", "beta")])


def random_matrix(field, m, n, rng):
    return Mat(field, [[field.rand(rng) for _ in range(n)] for _ in range(m)], ncols=n)


def int_mat(field, rows, ncols=None):
    """The matrix of the integers rows, read in field."""
    return Mat(field, [[field.from_int(x) for x in r] for r in rows], ncols=ncols)


def mat_copy(m):
    """A copy of m whose rows can be written without touching m."""
    return Mat(m.field, [list(r) for r in m.rows], ncols=m.ncols)


def mat_scale(m, c):
    """The matrix c * m."""
    f = m.field
    return Mat(f, [[f.mul(c, a) for a in r] for r in m.rows], ncols=m.ncols)


def scale_map(g, c):
    """The chain map c * g."""
    A = g.source.algebra
    mul = A.field.mul
    return ChainMap(g.source, g.target,
                    {k: [[{b: v for b, a in e.items() if (v := mul(c, a))} for e in row]
                         for row in m] for k, m in g.comps.items()},
                    validate=False)


def add_maps(f, g):
    """The chain map f + g, for f and g with the same source and target."""
    A = f.source.algebra
    comps = dict(f.comps)
    for k, m in g.comps.items():
        comps[k] = [[A.add_vec(a, b) for a, b in zip(r, s)]
                    for r, s in zip(f.component(k), m)] if k in comps else m
    return ChainMap(f.source, f.target, comps, validate=False)


def is_nullhomotopic(f):
    """Entries of a homotopy h with f = d_Y h + h d_X, or None."""
    X, Y = f.source, f.target
    if X.is_zero() or Y.is_zero() or f.is_zero():
        return {}
    coords_h = _MapCoords.build(X, Y, -1)
    coords_f = _MapCoords.build(X, Y, 0)
    d = _hom_differential(X, Y, -1, coords_h, coords_f)
    sol = la.solve(d, coords_f.from_map(f, 0))
    if sol is None:
        return None
    return coords_h.to_entries(X, Y, -1, sol)


def homotopic(f, g):
    """Whether the chain maps f and g are homotopic."""
    fld = f.source.algebra.field
    return is_nullhomotopic(add_maps(f, scale_map(g, fld.neg(fld.one)))) is not None


def direct_sum_maps(complexes):
    """direct_sum(complexes) with its injections and projections."""
    S = direct_sum(complexes)
    A = S.algebra
    injs, projs = [], []
    offs = {}  # degree -> terms of the summands before this one
    for Xi in complexes:
        inj_comps, proj_comps = {}, {}
        for k, v in Xi.terms.items():
            o = offs.get(k, 0)
            m = ent_zeros(A, len(S.term(k)), len(v))
            q = ent_zeros(A, len(v), len(S.term(k)))
            for i, vert in enumerate(v):
                m[o + i][i] = A.basis_vec(vert)
                q[i][o + i] = A.basis_vec(vert)
            inj_comps[k], proj_comps[k] = m, q
            offs[k] = o + len(v)
        injs.append(ChainMap(Xi, S, inj_comps, validate=False))
        projs.append(ChainMap(S, Xi, proj_comps, validate=False))
    return S, injs, projs


def injection_approximation(basis, S_i, left):
    """The approximation S_l[-1] -> S_i^d (left) or S_i^d -> S_l[1] (right)
    of the d maps in basis, as the sum of each map composed with its
    summand's injection (left) or projection (right)."""
    _, injs, projs = direct_sum_maps([S_i] * len(basis))
    parts = [compose(f, inj) if left else compose(proj, f)
             for f, inj, proj in zip(basis, injs, projs)]
    out = parts[0]
    for part in parts[1:]:
        out = add_maps(out, part)
    return out


def sum_prod(f, xs, ys):
    """The dot product of two vectors over the field f."""
    acc = f.zero
    for x, y in zip(xs, ys):
        if x != f.zero and y != f.zero:
            acc = f.add(acc, f.mul(x, y))
    return acc


def rand_nonzero(field, rng):
    if isinstance(field, PrimeField):
        return rng.randrange(1, field.p)
    n = rng.randrange(1, 41)
    return Fraction(n if rng.random() < 0.5 else -n)


def dense(A, x):
    """The coordinates of the element x over the whole basis of A."""
    return [x.get(b, A.field.zero) for b in range(A.dim)]


def sparse(coords):
    """The element with the coordinates coords: its nonzero ones."""
    return {b: c for b, c in enumerate(coords) if c}


def lrow(A, x):
    """Row-convention left multiplication: row_b = coords of x * b."""
    f = A.field
    rows = [[f.zero] * A.dim for _ in range(A.dim)]
    for i, xi in x.items():
        for b, k in enumerate(A.prod[i]):
            if k >= 0:
                rows[b][k] = f.add(rows[b][k], xi)
    return Mat(f, rows, ncols=A.dim)


def rrow(A, x):
    """Row-convention right multiplication: row_b = coords of b * x."""
    f = A.field
    rows = [[f.zero] * A.dim for _ in range(A.dim)]
    for j, xj in x.items():
        for b, row in enumerate(A.prod):
            k = row[j]
            if k >= 0:
                rows[b][k] = f.add(rows[b][k], xj)
    return Mat(f, rows, ncols=A.dim)


# -- dense reference modules: one action matrix per algebra basis element ------


def projective_actions(A, i):
    """P_i = e_i A: row b of the action of c is the coordinates of b * c."""
    f = A.field
    idx = [b for b in range(A.dim) if A.source[b] == i]
    pos = {b: k for k, b in enumerate(idx)}
    actions = []
    for c in range(A.dim):
        rows = []
        for b in idx:
            vec = [f.zero] * len(idx)
            k = A.prod[b][c]
            if k >= 0:
                vec[pos[k]] = f.one
            rows.append(vec)
        actions.append(Mat(f, rows, ncols=len(idx)))
    return actions


def simple_actions(A, i):
    f = A.field
    return [Mat(f, [[f.one if c == i else f.zero]], ncols=1) for c in range(A.dim)]


def injective_actions(A, i):
    """The dual of the left projective A e_i: the transposed actions of the
    projective of the opposite algebra."""
    return [m.transpose() for m in projective_actions(A.op(), i)]


def direct_sum_actions(A, summands):
    """Block-diagonal action matrices filled entry by entry."""
    total = sum(acts[0].nrows for acts in summands)
    actions = []
    for b in range(A.dim):
        big = Mat.zeros(A.field, total, total)
        s = 0
        for acts in summands:
            m = acts[b]
            for r in range(m.nrows):
                for c in range(m.ncols):
                    big.rows[s + r][s + c] = m.rows[r][c]
            s += m.nrows
        actions.append(big)
    return actions


def quotient_restriction_actions(A, proj, actions):
    """A module over A/AeA as one over A: b acts as its image, or by zero."""
    dim = actions[0].nrows
    return [Mat.zeros(A.field, dim, dim) if proj[b] is None else actions[proj[b]]
            for b in range(A.dim)]


def corner_restriction_actions(B, embed, actions, pos):
    """M e over eAe: each basis element of eAe acts as its path of A,
    restricted to the positions pos of M e."""
    return [submatrix(actions[embed[c]], pos, pos) for c in range(B.dim)]


def module_from_actions(A, actions):
    """The module with these action matrices: the weights read off the
    idempotent diagonals, each arrow's block cut out at the positions of its
    source and target vertices, which must hold all its nonzero entries."""
    f = A.field
    dim = actions[0].nrows
    weights = [next(i for i in range(A.nvert) if actions[i].rows[r][r] == f.one)
               for r in range(dim)]
    for i in range(A.nvert):
        want = Mat(f, [[f.one if c == r and weights[r] == i else f.zero
                        for c in range(dim)] for r in range(dim)], ncols=dim)
        assert actions[i] == want, "module basis is not idempotent-diagonal"
    pos = [[r for r in range(dim) if weights[r] == v] for v in range(A.nvert)]
    M = Module(A, weights, [submatrix(actions[a], pos[A.source[a]], pos[A.target[a]])
                            for a in A.arrow_indices])
    for a in A.arrow_indices:
        assert dense_action(M, a) == actions[a], "arrow leaves its corner"
    return M


def dense_action(M, b):
    """The dim x dim matrix of the basis element b on M: its block placed at
    the positions of its source vertex (rows) and target vertex (columns)."""
    A = M.algebra
    out = Mat.zeros(A.field, M.dim, M.dim)
    for r, brow in zip(M.positions[A.source[b]], M.action(b).rows):
        for c, x in zip(M.positions[A.target[b]], brow):
            out.rows[r][c] = x
    return out


def dense_actions(M):
    return [dense_action(M, b) for b in range(M.algebra.dim)]


# -- the dense adapter: module maps and vertex rows in a module's basis ---------


def dense_map(M, N, F):
    """The dim M x dim N matrix of the module map F: M -> N, its block at
    each vertex placed at the positions of M (rows) and of N (columns)."""
    out = Mat.zeros(M.algebra.field, M.dim, N.dim)
    for pm, pn, block in zip(M.positions, N.positions, F):
        for r, brow in zip(pm, block.rows):
            for c, x in zip(pn, brow):
                out.rows[r][c] = x
    return out


def dense_rows(M, rows):
    """Rows given per vertex in the coordinates of M there, as rows of M,
    vertex after vertex."""
    f = M.algebra.field
    out = []
    for pv, rows_v in zip(M.positions, rows):
        for r in rows_v:
            row = [f.zero] * M.dim
            for c, x in zip(pv, r):
                row[c] = x
            out.append(row)
    return Mat(f, out, ncols=M.dim)


def kernel_rows(F):
    """The kernel of a module map, as a left kernel basis per vertex."""
    return [la.left_kernel_basis(b) for b in F]


def submatrix(m, row_idx, col_idx):
    return Mat(m.field, [[m.rows[i][j] for j in col_idx] for i in row_idx],
               ncols=len(col_idx))


def row_span_module(N, rows):
    """The submodule of N spanned by rows, given per vertex in the
    coordinates of N there, with its own blocks: a basis of the span at each
    vertex, and each arrow's images of the basis at its source solved for in
    the basis at its target."""
    A, f = N.algebra, N.algebra.field
    bases = []
    for pv, rows_v in zip(N.positions, rows):
        at_v = [r for r in rows_v if any(r)]
        bases.append(row_space_basis(Mat(f, at_v)) if at_v
                     else Mat.zeros(f, 0, len(pv)))
    blocks = []
    for a, block in zip(A.arrow_indices, N.blocks):
        src, tgt = bases[A.source[a]], bases[A.target[a]]
        if src.nrows == 0 or tgt.nrows == 0:
            blocks.append(Mat.zeros(f, src.nrows, tgt.nrows))
            continue
        coords = la.solve_matrix(tgt.transpose(), (src @ block).transpose())
        assert coords is not None, "rows do not span a submodule"
        blocks.append(coords.transpose())
    weights = [v for v, b in enumerate(bases) for _ in range(b.nrows)]
    return Module(A, weights, blocks)


def random_representation(A, rng):
    """A random module: the image of a random map from a sum of projectives
    to a sum of injectives.  Every module is one, through its projective
    cover and its injective envelope."""
    f = A.field
    N = direct_sum_modules(A, [A.injective_module(rng.randrange(A.nvert))
                               for _ in range(rng.randint(1, 3))])
    rows = [[] for _ in range(A.nvert)]
    for _ in range(rng.randint(1, 4)):
        i = rng.choice(N.weights)
        v = [f.rand(rng) for _ in N.positions[i]]
        for rows_w, block in zip(rows, yoneda_map(A, N, [(i, v)])):
            rows_w.extend(block.rows)
    return row_span_module(N, rows)


def row_space_basis(m):
    """The nonzero rows of the reduced row echelon form of m."""
    red = la.rref(m)
    return Mat(m.field, [red.reduced.rows[i] for i in range(len(red.pivots))],
               ncols=m.ncols)


def module_hom_space(M, N):
    """Basis of Hom_A(M, N): the module maps F, one block F_v from the
    coordinates of M at v to those of N at v per vertex, with
    block(a) @ F_t = F_s @ block(a) for every arrow a: s -> t.  A module
    linear system, independent of the homotopy-category Hom engine."""
    A, f = M.algebra, M.algebra.field
    if N.algebra is not A:
        raise InputError("modules over different algebras")
    # the unknowns F_v[i][j], numbered in the row-major order of M's basis;
    # var[v][i][j] is the unknown of the i-th row and j-th column at v
    var = [[] for _ in range(A.nvert)]
    nvars = 0
    for w in M.weights:
        width = len(N.positions[w])
        var[w].append(list(range(nvars, nvars + width)))
        nvars += width
    if nvars == 0:
        return []
    rows = []
    for a, bm, bn in zip(A.arrow_indices, M.blocks, N.blocks):
        vs, vt = var[A.source[a]], var[A.target[a]]
        # equation (bm @ F_t - F_s @ bn)[i][j] = 0
        for i in range(bm.nrows):
            for j in range(bn.ncols):
                coeff = [f.zero] * nvars
                for k, x in enumerate(bm.rows[i]):
                    if x:
                        coeff[vt[k][j]] = f.add(coeff[vt[k][j]], x)
                for k, brow in enumerate(bn.rows):
                    if brow[j]:
                        coeff[vs[i][k]] = f.sub(coeff[vs[i][k]], brow[j])
                rows.append(coeff)
    system = Mat(f, rows, ncols=nvars) if rows else Mat.zeros(f, 0, nvars)
    return [tuple(Mat(f, [[x[c] for c in cells] for cells in var_v], ncols=len(pv))
                  for var_v, pv in zip(var, N.positions))
            for x in la.kernel_basis(system)]


def projective_cover(M, rows=None):
    """Projective cover of the submodule of M spanned by rows, or of M itself
    when rows is None (see top_generators): the vertices of the cover and
    the cover map into M, checked onto."""
    gens = top_generators(M, rows)
    cover = yoneda_map(M.algebra, M, gens)
    cover_kernel_dims(cover, [len(pv) for pv in M.positions] if rows is None
                      else [len(r) for r in rows])
    return [i for i, _ in gens], cover


def assert_cover_oracle(M, rows=None):
    """projective_cover(M, rows) against the dense path matrices of M: the
    submodule N spanned by rows (M itself for None) gets d_i - dim(N rad)_i
    generators at each vertex i, d_i the dimension of N at i, and the cover
    is a module map onto N."""
    A, f = M.algebra, M.algebra.field
    span = Mat.identity(f, M.dim) if rows is None else dense_rows(M, rows)
    verts, blocks = projective_cover(M, rows)
    P = projectives_module(A, verts)
    cover = dense_map(P, M, blocks)
    dense = dense_actions(M)
    if span.nrows:
        rad = [r for b in A.radical_indices for r in (span @ dense[b]).rows]
        for i in range(A.nvert):
            n_i = la.rank(span @ dense[i])
            rad_i = la.rank(Mat(f, rad) @ dense[i]) if rad else 0
            assert verts.count(i) == n_i - rad_i
    assert cover.shape[0] == sum(A.projective_module(i).dim for i in verts)
    # surjective onto N: the cover's rows and rows span the same space
    assert la.rank(cover) == span.nrows
    if span.nrows:
        assert la.rank(la.vstack([span, cover])) == span.nrows
    # a module map: it commutes with every basis element
    for b in range(A.dim):
        assert dense_action(P, b) @ cover == cover @ dense[b]
    return verts, blocks


def kernel_cover_resolution(M, bound):
    """Vertices of the terms P_0, P_1, ... of the minimal projective
    resolution of M, by iterated kernels and covers; None when it is longer
    than bound.  An independent reference for the stalk-complex resolver."""
    if M.dim == 0:
        return []
    A = M.algebra
    verts, cur_map = projective_cover(M)
    current = projectives_module(A, verts)
    out = [verts]
    while True:
        rows = kernel_rows(cur_map)
        if not any(rows):
            return out
        if len(out) > bound:
            return None
        # P_n -> P_{n-1}: the cover of the kernel rows, inside P_{n-1}
        kverts, cur_map = projective_cover(current, rows)
        current = projectives_module(A, kverts)
        out.append(kverts)


def resolved_simple(A, i, degree=0):
    P, _ = resolve_complex(stalk_complex(A.simple_module(i), degree))
    return P


def fresh_copy(X: ProjComplex) -> ProjComplex:
    """A copy of X that shares no Hom memo, shift or minimal model with it."""
    return ProjComplex(X.algebra, X.terms, X.diffs, validate=False)


def random_complex(A, rng: random.Random, steps: int = 2) -> ProjComplex:
    """Iterated cones of random maps between shifted stalks: a cheap source
    of valid complexes (d^2 = 0 by construction)."""
    pool = [stalk(A, rng.randrange(A.nvert), rng.randrange(-1, 2))
            for _ in range(2)]
    for _ in range(steps):
        x = rng.choice(pool)
        y = rng.choice(pool)
        n = rng.randrange(-1, 2)
        basis = chain_maps_basis(x, y.shift(n))
        if basis:
            f = basis[rng.randrange(len(basis))]
            c, _ = cone(f)
            cm, _ = minimalize(c)
            if not cm.is_zero() and cm.total_terms() <= 8:
                pool.append(cm)
        else:
            pool.append(stalk(A, rng.randrange(A.nvert), rng.randrange(-2, 3)))
    out = pool[-1]
    return out


def random_minimal_complex(A, rng: random.Random, steps: int = 3) -> ProjComplex:
    """The minimal model of iterated cones of random chain maps between
    shifted resolutions of simples, A of finite global dimension: minimal
    complexes that spread over several degrees, where random_complex mostly
    returns a stalk."""
    pool = [resolved_simple(A, rng.randrange(A.nvert), rng.randrange(-1, 2))
            for _ in range(2)]
    for _ in range(steps):
        x, y = rng.choice(pool), rng.choice(pool).shift(rng.randrange(-1, 2))
        basis = chain_maps_basis(x, y)
        if basis:
            f = add_maps(basis[rng.randrange(len(basis))],
                         basis[rng.randrange(len(basis))])
            cm, _ = minimalize(cone(f)[0])
            if not cm.is_zero() and cm.total_terms() <= 10:
                pool.append(cm)
    return pool[-1]


def assert_iso_witness(r, X: ProjComplex, Y: ProjComplex):
    """The witness of an is_iso YES is a chain map between the minimal models
    of X and Y whose cone is acyclic, i.e. an isomorphism."""
    f = r.witness
    assert f.source is minimalize(X)[0] and f.target is minimalize(Y)[0]
    f._validate()
    assert cohomology_dims(cone(f)[0]) == {}


def hom_dim_oracle(X: ProjComplex, Y: ProjComplex, n: int) -> int:
    """Graded Hom dimension via module-level intertwiner solves: an
    independent route (module_hom_space) to the same number."""
    if X.is_zero() or Y.is_zero():
        return 0
    A = X.algebra
    f = A.field
    rx, ry = module_realization(X), module_realization(Y)

    def hom_block_basis(k, shiftn):
        mk = rx.module(k)
        nk = ry.module(k + shiftn)
        if mk.dim == 0 or nk.dim == 0:
            return []
        return [dense_map(mk, nk, F) for F in module_hom_space(mk, nk)]

    def dense_diff(real, k):
        d = real.diff(k)
        return None if d is None else dense_map(real.terms[k], real.terms[k + 1], d)

    def space(shiftn):
        # list of (degree, basis list); coordinates concatenated
        out = []
        for k in sorted(X.terms):
            basis = hom_block_basis(k, shiftn)
            if basis:
                out.append((k, basis))
        return out

    def d_matrix(shiftn, dom, cod):
        # D(f)^k = d_Y f^k - (-1)^n f^{k+1} d_X
        sign = f.from_int(-1 if shiftn % 2 else 1)
        ncols = sum(len(b) for _, b in dom)
        nrows_blocks = [(k, len(b)) for k, b in cod]
        nrows = sum(c for _, c in nrows_blocks)
        mat = Mat.zeros(f, nrows, ncols)
        col = 0
        cod_basis = {k: b for k, b in cod}
        cod_offset = {}
        off = 0
        for k, b in cod:
            cod_offset[k] = off
            off += len(b)
        for k, basis in dom:
            for fb in basis:
                img = {}
                dy = dense_diff(ry, k + shiftn)
                if dy is not None and (k in cod_basis):
                    img[k] = fb @ dy
                dx = dense_diff(rx, k - 1)
                if dx is not None and (k - 1) in cod_basis:
                    contrib = dx @ fb
                    prev = img.get(k - 1)
                    m = mat_scale(contrib, f.neg(sign))
                    img[k - 1] = m if prev is None else prev + m
                for kk, mat_img in img.items():
                    coords = coords_in_basis(mat_img, cod_basis[kk])
                    for i, c in enumerate(coords):
                        mat.rows[cod_offset[kk] + i][col] = c
                col += 1
        return mat

    def coords_in_basis(m, basis):
        flat = [x for row in m.rows for x in row]
        bmat = Mat(f, [[x for row in b.rows for x in row] for b in basis],
                   ncols=len(flat))
        res = la.solve(bmat.transpose(), flat)
        assert res is not None
        return res

    dom = space(n)
    cod = space(n + 1)
    below = space(n - 1)
    d_n = d_matrix(n, dom, cod)
    d_prev = d_matrix(n - 1, below, dom)
    total = sum(len(b) for _, b in dom)
    return (total - la.rank(d_n)) - la.rank(d_prev)

"""Complexes of modules and their replacement by complexes of projectives.

The resolver works down from the top degree, covering at each step the
pullback of "cycles compatible with the part already built":

    Z^k = {(m, p) in M^k (+) P^{k+1} : m d_M = p eps,  p delta = 0}

with P^k a projective cover of Z^k.  Cycles of M lift through Z (so the
comparison map is surjective on cohomology) and liftable boundaries die
(injective), giving a quasi-isomorphism without any higher-homotopy
bookkeeping.  Termination below the support is the finiteness of the
projective dimension of the last syzygy.

This is the package's one resolver: a module is resolved as its stalk
complex (resolve_module), and projective and global dimension are read off
the degrees of the result.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .. import exactla as la
from ..algebra import (
    Algebra,
    Module,
    direct_sum_modules,
    dual_module,
    projective_cover,
    projectives_module,
    zero_module,
)
from ..config import BoundExceeded, InputError, InvariantError
from ..exactla import Mat
from .complexes import (
    ChainMap,
    Entries,
    ProjComplex,
    identity_map,
    minimalize,
    zero_complex,
)


class ModComplex:
    """Bounded complex of finite-dimensional right modules (scalar maps)."""

    def __init__(self, algebra: Algebra, terms: Dict[int, Module],
                 diffs: Dict[int, Mat], validate: bool = True):
        self.algebra = algebra
        self.terms = {k: m for k, m in terms.items() if m.dim > 0}
        self.diffs = {k: d for k, d in diffs.items()
                      if k in self.terms and k + 1 in self.terms}
        if validate:
            self._validate()

    def _validate(self):
        A = self.algebra
        for k, d in self.diffs.items():
            src, tgt = self.terms[k], self.terms[k + 1]
            if d.shape != (src.dim, tgt.dim):
                raise InputError(f"module differential shape at {k}")
            # the idempotents and the arrows generate A: d preserves weights,
            # and its blocks at the ends of each arrow commute with it
            if any(x and src.weights[r] != tgt.weights[c]
                   for r, row in enumerate(d.rows) for c, x in enumerate(row)):
                raise InputError(f"module differential at {k} is not a module map")
            for a, bs, bt in zip(A.arrow_indices, src.blocks, tgt.blocks):
                s, t = A.source[a], A.target[a]
                if bs @ d.submatrix(src.positions[t], tgt.positions[t]) != \
                        d.submatrix(src.positions[s], tgt.positions[s]) @ bt:
                    raise InputError(f"module differential at {k} is not a module map")
        for k in self.diffs:
            if k + 1 in self.diffs:
                if not (self.diffs[k] @ self.diffs[k + 1]).is_zero():
                    raise InputError(f"module d^2 != 0 at degree {k}")

    @property
    def support(self) -> Optional[Tuple[int, int]]:
        if not self.terms:
            return None
        return (min(self.terms), max(self.terms))

    def dim(self, k: int) -> int:
        return self.terms[k].dim if k in self.terms else 0

    def module(self, k: int) -> Module:
        return self.terms.get(k) or zero_module(self.algebra)

    def diff(self, k: int) -> Optional[Mat]:
        return self.diffs.get(k)

    def cohomology_dims(self) -> Dict[int, int]:
        ranks = {k: la.rank(d) for k, d in self.diffs.items()}
        out = {}
        for k in self.terms:
            h = self.terms[k].dim - ranks.get(k, 0) - ranks.get(k - 1, 0)
            if h:
                out[k] = h
        return out


def stalk_complex(M: Module, degree: int = 0) -> ModComplex:
    return ModComplex(M.algebra, {degree: M}, {}, validate=False)


def module_realization(X: ProjComplex) -> Tuple[ModComplex, Dict[int, List[Tuple[int, int]]]]:
    """The complex of modules underlying X, with summand slices per degree."""
    if X._module_cache is not None:
        return X._module_cache
    A = X.algebra
    terms: Dict[int, Module] = {}
    slices: Dict[int, List[Tuple[int, int]]] = {}
    for k, verts in X.terms.items():
        mod, sl = projectives_module(A, verts)
        terms[k] = mod
        slices[k] = sl
    diffs: Dict[int, Mat] = {}
    for k, d in X.diffs.items():
        diffs[k] = realize_entry_matrix(A, X.term(k), X.term(k + 1), d)
    out = (ModComplex(A, terms, diffs, validate=False), slices)
    X._module_cache = out
    return out


def realize_entry_matrix(A: Algebra, src_verts: Sequence[int],
                         tgt_verts: Sequence[int], entries: Entries) -> Mat:
    """Scalar matrix of an entry matrix on the direct sums of projectives."""
    f = A.field
    src_bases = [A.projective_module(i).basis_in_algebra for i in src_verts]
    # the column of each path of each target summand
    tgt_cols, ncols = [], 0
    for j in tgt_verts:
        tbasis = A.projective_module(j).basis_in_algebra
        tgt_cols.append({b: ncols + c for c, b in enumerate(tbasis)})
        ncols += len(tbasis)
    out = Mat.zeros(f, sum(len(b) for b in src_bases), ncols)
    r0 = 0
    for s, sbasis in enumerate(src_bases):
        for t, cols in enumerate(tgt_cols):
            for r, c, x in A.products(entries[t][s], sbasis, cols, True):
                row = out.rows[r0 + r]
                row[c] = f.add(row[c], x)
        r0 += len(sbasis)
    return out


def realize_chain_map(g: ChainMap) -> Dict[int, Mat]:
    A = g.source.algebra
    out = {}
    for k in set(g.source.terms) & set(g.target.terms):
        out[k] = realize_entry_matrix(A, g.source.term(k), g.target.term(k),
                                      g.component(k))
    return out


def entries_from_realized(A: Algebra, src_verts: Sequence[int],
                          tgt_verts: Sequence[int], mat: Mat) -> Entries:
    """Recover the entry matrix of a module map between sums of projectives.

    The (t, s) entry is read off the image of the generator e_{i_s}: the
    corresponding row of mat, sliced to the t-th block, is the coefficient
    vector of an element of e_{j_t} A e_{i_s}.
    """
    f = A.field
    src_bases = [A.projective_module(i).basis_in_algebra for i in src_verts]
    tgt_bases = [A.projective_module(j).basis_in_algebra for j in tgt_verts]
    out = [[A.zero_vec() for _ in src_verts] for _ in tgt_verts]
    r0 = 0
    for s, i in enumerate(src_verts):
        gen_row = r0 + src_bases[s].index(i)  # position of e_i in P_i
        c0 = 0
        for t, j in enumerate(tgt_verts):
            vec = [f.zero] * A.dim
            for c, bidx in enumerate(tgt_bases[t]):
                val = mat.rows[gen_row][c0 + c]
                if val:
                    vec[bidx] = val
            out[t][s] = tuple(vec)
            c0 += len(tgt_bases[t])
        r0 += len(src_bases[s])
    return out


def dual_mod_complex(C: ModComplex) -> ModComplex:
    """K-linear dual: degree k becomes -k, over the opposite algebra."""
    opp = C.algebra.op()
    terms = {-k: dual_module(m) for k, m in C.terms.items()}
    diffs = {}
    for k, d in C.diffs.items():
        diffs[-k - 1] = d.transpose()
    return ModComplex(opp, terms, diffs, validate=False)


def corner_of_proj_complex(X: ProjComplex, B: Algebra, embed: Sequence[int],
                           subset: Sequence[int]) -> Tuple[ModComplex, Dict[int, List[int]]]:
    """X * e as a complex of eAe-modules, with the positions used to slice
    (weight in the subset); each arrow of eAe acts by the block of its path
    of A, as the coordinates at each vertex of the subset keep their order."""
    real, _ = module_realization(X)
    vertex = {v: n for n, v in enumerate(subset)}
    pos: Dict[int, List[int]] = {}
    terms: Dict[int, Module] = {}
    for k, M in real.terms.items():
        pk = M.weight_positions(vertex)
        pos[k] = pk
        terms[k] = Module(B, [vertex[M.weights[r]] for r in pk],
                          [M.action(embed[c]) for c in B.arrow_indices])
    diffs = {}
    for k, d in real.diffs.items():
        diffs[k] = d.submatrix(pos[k], pos[k + 1])
    return ModComplex(B, terms, diffs, validate=False), pos


def cohomology_dims(X: ProjComplex) -> Dict[int, int]:
    real, _ = module_realization(X)
    return real.cohomology_dims()


def resolve_complex(C: ModComplex, pd_bound: int = 32) -> Tuple[ProjComplex, Dict[int, Mat]]:
    """Minimal complex of projectives quasi-isomorphic to C, plus the
    comparison map.

    The second component maps the realization of the result onto C degreewise
    (a surjection onto cycles-and-lifts, quasi-iso overall).  Raises
    BoundExceeded when a term would be needed below degree lo - pd_bound,
    lo the lowest degree of C.
    """
    A = C.algebra
    f = A.field
    sup = C.support
    if sup is None:
        return zero_complex(A), {}
    lo, hi = sup
    verts: Dict[int, List[int]] = {}
    pmods: Dict[int, Module] = {}
    eps: Dict[int, Mat] = {}
    delta: Dict[int, Mat] = {}
    k = hi
    while True:
        Mk, Pk1 = C.terms.get(k), pmods.get(k + 1)
        mdim = C.dim(k)
        pdim = Pk1.dim if Pk1 is not None else 0
        mdim1 = C.dim(k + 1)
        ncols = mdim1 + (pmods[k + 2].dim if k + 2 in pmods else 0)
        parts = [m for m in (Mk, Pk1) if m is not None]
        sum_mod = direct_sum_modules(A, parts)[0] if parts else None
        zmat = None  # no condition: all of sum_mod is compatible
        if sum_mod is not None and ncols:
            zmat = Mat(f, _cycle_rows(sum_mod, mdim, C.diff(k), eps.get(k + 1),
                                      delta.get(k + 1), C.terms.get(k + 1),
                                      pmods.get(k + 2)), ncols=sum_mod.dim)
        if sum_mod is None or (zmat is not None and zmat.nrows == 0):
            if k <= lo:
                break
            k -= 1
            continue
        if k < lo - pd_bound:
            raise BoundExceeded(
                f"hyperprojective resolution exceeds pd bound {pd_bound}")
        # P_k -> Z^k inside M_k (+) P_{k+1}
        vlist, into_sum = projective_cover(sum_mod, zmat)
        Pk, _ = projectives_module(A, vlist)
        if mdim:
            eps[k] = into_sum.submatrix(range(Pk.dim), range(mdim))
        if pdim:
            delta[k] = into_sum.submatrix(range(Pk.dim), range(mdim, mdim + pdim))
        verts[k] = vlist
        pmods[k] = Pk
        k -= 1

    entries: Dict[int, Entries] = {}
    for deg, dmat in delta.items():
        entries[deg] = entries_from_realized(A, verts[deg], verts[deg + 1], dmat)
    P = ProjComplex(A, {d: tuple(v) for d, v in verts.items()}, entries)
    _assert_quasi_iso(P, C, eps)
    if lo == hi:
        # Covers of the syzygies of one module: the differentials already
        # land in the radical.
        if not P.is_minimal():
            raise InvariantError("resolution of a module is not minimal")
        P._minimal_cache = (P, identity_map(P))
        return P, eps
    Pmin, from_min = minimalize(P)
    real_from = realize_chain_map(from_min)
    aug_min = {}
    for d in Pmin.terms:
        if d in eps and d in real_from:
            aug_min[d] = real_from[d] @ eps[d]
    return Pmin, aug_min


def _cycle_rows(sum_mod: Module, mdim: int, dM: Optional[Mat],
                eps: Optional[Mat], delta: Optional[Mat], M1: Optional[Module],
                P2: Optional[Module]) -> List[List]:
    """A basis of Z^k, the rows (m, p) of sum_mod = M^k (+) P^{k+1} (m in
    the first mdim coordinates) with m d_M = p eps and p delta = 0, as rows
    of sum_mod.

    The condition is a module map into M^{k+1} (+) P^{k+2}, so it preserves
    weights and Z^k is solved one vertex at a time, on the coordinates at
    that vertex.  The rows come grouped by vertex, and within a vertex in
    the order of a kernel basis of the whole condition."""
    f = sum_mod.algebra.field
    z = f.zero
    pdim = sum_mod.dim - mdim
    zero_m = [z] * (M1.dim if M1 is not None else 0)
    zero_p = [z] * (P2.dim if P2 is not None else 0)
    # the condition's row for each row of sum_mod, towards M^{k+1} and P^{k+2}
    to_m = (dM.rows if dM is not None else [zero_m] * mdim) + \
        ([[f.neg(x) for x in r] for r in eps.rows] if eps is not None else [zero_m] * pdim)
    to_p = [zero_p] * mdim + (delta.rows if delta is not None else [zero_p] * pdim)
    out = []
    for v, rows_v in enumerate(sum_mod.positions):
        cols_m = M1.positions[v] if M1 is not None else ()
        cols_p = P2.positions[v] if P2 is not None else ()
        if not rows_v:
            continue
        if not cols_m and not cols_p:  # no condition at v
            out.extend([f.one if c == r else z for c in range(sum_mod.dim)]
                       for r in rows_v)
            continue
        cond = [[to_m[r][c] for c in cols_m] + [to_p[r][c] for c in cols_p]
                for r in rows_v]
        for x in la.left_kernel_basis(Mat(f, cond, ncols=len(cols_m) + len(cols_p))):
            row = [z] * sum_mod.dim
            for r, val in zip(rows_v, x):
                row[r] = val
            out.append(row)
    return out


def resolve_module(M: Module, pd_bound: int = 32) -> ProjComplex:
    """The minimal projective resolution of M, in degrees -pd M .. 0.

    The first resolution found is kept on M, which is sound because a module
    is never changed in place; a later call raises BoundExceeded iff its
    length exceeds that call's pd_bound, as resolving afresh would."""
    P = M._resolution
    if P is None:
        P, _ = resolve_complex(stalk_complex(M), pd_bound)
        M._resolution = P
    elif -min(P.terms, default=0) > pd_bound:
        raise BoundExceeded(
            f"hyperprojective resolution exceeds pd bound {pd_bound}")
    return P


def _assert_quasi_iso(P: ProjComplex, C: ModComplex, aug: Dict[int, Mat]):
    real, _ = module_realization(P)
    hP = real.cohomology_dims()
    hC = C.cohomology_dims()
    if hP != hC:
        raise InvariantError(f"resolution changed cohomology: {hP} vs {hC}")
    # the comparison map is a chain map
    for k, a in aug.items():
        dP = real.diff(k)
        dC = C.diff(k)
        lhs = dP @ aug[k + 1] if (dP is not None and k + 1 in aug) else None
        rhs = a @ dC if dC is not None else None
        if lhs is None and rhs is None:
            continue
        shape = (real.dim(k), C.dim(k + 1))
        if 0 in shape:
            continue
        lhs = lhs if lhs is not None else Mat.zeros(a.field, *shape)
        rhs = rhs if rhs is not None else Mat.zeros(a.field, *shape)
        if lhs != rhs:
            raise InvariantError(f"comparison map fails to commute at degree {k}")

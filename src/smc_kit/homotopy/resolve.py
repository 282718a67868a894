"""Complexes of modules and their replacement by minimal complexes of
projectives.

The resolver works down from the top degree, covering at each step the
pullback of "cycles compatible with the part already built",

    Z^k = {(m, p) in M^k (+) P^{k+1} : m d_M = p eps,  p delta = 0},

modulo the boundaries B^k = {(d m, 0) : m in M^{k-1}} of C: a row of Z^k at
a vertex is a generator of P^k iff it is outside the span of the radical
of Z^k, the rows of B^k and the rows picked before it.  Z^k and B^k +
(eps, delta)(P^k) are the cycles and boundaries in degree k of the cone of
eps: P -> C; the picks make the boundaries span Z^k modulo its radical, so
by Nakayama they are all of it, and eps is a quasi-isomorphism without any
higher-homotopy bookkeeping.  The result is minimal: entries between
distinct vertices are radical, and a unit entry would put a combination of
rows picked for P^{k+1} at one vertex, nonzero on the last of them, in
B^{k+1} + rad Z^{k+1}, against the rule that picked that row.  Below C
there are no boundaries, Z^k is the kernel of the cover, and the
resolution stops once that is zero (pd of the last syzygy).

Each generator of P^k is a row (m, p) of Z^k at its vertex v: eps sends it
to the Yoneda image of m, and delta to p, read as an entry column of
elements of e_j A e_v, realized once as the result's module realization.

This is the package's one resolver: a module is resolved as its stalk
complex (resolve_module), and projective and global dimension are read off
the degrees of the result.
"""

from __future__ import annotations

from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from .. import exactla as la
from ..algebra import (
    Algebra,
    ModMap,
    Module,
    compose_maps,
    direct_sum_modules,
    dual_module,
    cover_kernel_dims,
    map_rank,
    projectives_module,
    top_generators,
    yoneda_map,
    zero_module,
)
from ..config import DEFAULT_LIMITS, BoundExceeded, InputError, InvariantError, PdBoundExceeded
from ..exactla import Mat
from .complexes import ChainMap, Entries, ProjComplex, identity_map, zero_complex


class ModComplex:
    """Bounded complex of finite-dimensional right modules; each
    differential is a module map, one block per vertex."""

    def __init__(self, algebra: Algebra, terms: Dict[int, Module],
                 diffs: Dict[int, ModMap], validate: bool = True):
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
            if [b.shape for b in d] != [(len(p), len(q)) for p, q in
                                        zip(src.positions, tgt.positions)]:
                raise InputError(f"module differential shape at {k}")
            # the idempotents and the arrows generate A: the blocks at the
            # ends of each arrow commute with its blocks
            for a, bs, bt in zip(A.arrow_indices, src.blocks, tgt.blocks):
                if bs @ d[A.target[a]] != d[A.source[a]] @ bt:
                    raise InputError(f"module differential at {k} is not a module map")
        for k in self.diffs:
            if k + 1 in self.diffs:
                if not all(b.is_zero() for b in compose_maps(self.diffs[k],
                                                             self.diffs[k + 1])):
                    raise InputError(f"module d^2 != 0 at degree {k}")

    @property
    def support(self) -> Optional[Tuple[int, int]]:
        if not self.terms:
            return None
        return (min(self.terms), max(self.terms))

    def module(self, k: int) -> Module:
        return self.terms.get(k) or zero_module(self.algebra)

    def diff(self, k: int) -> Optional[ModMap]:
        return self.diffs.get(k)

    def cohomology_dims(self) -> Dict[int, int]:
        ranks = {k: map_rank(d) for k, d in self.diffs.items()}
        out = {}
        for k in self.terms:
            h = self.terms[k].dim - ranks.get(k, 0) - ranks.get(k - 1, 0)
            if h:
                out[k] = h
        return out


def stalk_complex(M: Module, degree: int = 0) -> ModComplex:
    return ModComplex(M.algebra, {degree: M}, {}, validate=False)


def module_realization(X: ProjComplex) -> ModComplex:
    """The complex of modules underlying X."""
    if X._module_cache is None:
        A = X.algebra
        X._module_cache = ModComplex(
            A, {k: projectives_module(A, verts) for k, verts in X.terms.items()},
            {k: realize_entry_matrix(A, X.term(k), X.term(k + 1), d)
             for k, d in X.diffs.items()}, validate=False)
    return X._module_cache


def summand_offsets(A: Algebra, verts: Sequence[int]) -> List[List[int]]:
    """offsets[s][v]: where the paths ending at v of the s-th summand start
    in the block at v of the sum of the projectives P_i, i in verts; the
    last of the len(verts) + 1 lists holds the sizes of the blocks."""
    out = [[0] * A.nvert]
    for i in verts:
        out.append(list(map(add, out[-1], A.corner_dims[i])))
    return out


def realize_entry_matrix(A: Algebra, src_verts: Sequence[int],
                         tgt_verts: Sequence[int], entries: Entries) -> ModMap:
    """The module map of an entry matrix between sums of projectives.  Its
    block at v has a row per path ending at v of each source summand and a
    column per such path of each target summand, summand after summand."""
    f = A.field
    add = f.add
    src_off, tgt_off = summand_offsets(A, src_verts), summand_offsets(A, tgt_verts)
    out = [[[f.zero] * c for _ in range(r)] for r, c in zip(src_off[-1], tgt_off[-1])]
    tgt_place = [A.projective_layout(j)[2] for j in tgt_verts]
    for s, (i, soff) in enumerate(zip(src_verts, src_off)):
        basis, rows, _ = A.projective_layout(i)
        for t, (place, toff) in enumerate(zip(tgt_place, tgt_off)):
            # the entry itself, not any(entry): the key 0 (e_0) is falsy
            if not entries[t][s]:
                continue
            # left multiplication keeps the end vertex v of each path
            for r, (v, n), x in A.products(entries[t][s], basis, place, True):
                row = out[v][soff[v] + rows[r]]
                c = toff[v] + n
                row[c] = add(row[c], x)
    return tuple(Mat(f, rs, ncols=c) for rs, c in zip(out, tgt_off[-1]))


def realize_chain_map(g: ChainMap) -> Dict[int, ModMap]:
    A = g.source.algebra
    out = {}
    for k in set(g.source.terms) & set(g.target.terms):
        out[k] = realize_entry_matrix(A, g.source.term(k), g.target.term(k),
                                      g.component(k))
    return out


def dual_mod_complex(C: ModComplex) -> ModComplex:
    """K-linear dual: degree k becomes -k, over the opposite algebra."""
    opp = C.algebra.op()
    terms = {-k: dual_module(m) for k, m in C.terms.items()}
    diffs = {-k - 1: tuple(b.transpose() for b in d) for k, d in C.diffs.items()}
    return ModComplex(opp, terms, diffs, validate=False)


def corner_of_proj_complex(X: ProjComplex, B: Algebra, embed: Sequence[int],
                           subset: Sequence[int]) -> ModComplex:
    """X * e as a complex of eAe-modules.  The coordinates at each vertex of
    the subset keep their order, so each arrow of eAe acts by the block of
    its path of A, and each differential by its block at that vertex."""
    real = module_realization(X)
    vertex = {v: n for n, v in enumerate(subset)}
    terms = {k: Module(B, [vertex[w] for w in M.weights if w in vertex],
                       [M.action(embed[c]) for c in B.arrow_indices])
             for k, M in real.terms.items()}
    diffs = {k: tuple(d[v] for v in subset) for k, d in real.diffs.items()}
    return ModComplex(B, terms, diffs, validate=False)


def cohomology_dims(X: ProjComplex) -> Dict[int, int]:
    return module_realization(X).cohomology_dims()


def resolve_complex(C: ModComplex, pd_bound: int = DEFAULT_LIMITS.pd_bound
                    ) -> Tuple[ProjComplex, Dict[int, ModMap]]:
    """Minimal complex of projectives quasi-isomorphic to C, plus the
    comparison map eps, built minimal (see the module docstring).

    eps maps the realization of the result to C degreewise; with the
    boundaries of C its image spans the cycles-and-lifts Z^k.  Raises
    PdBoundExceeded when a term would be needed below degree lo - pd_bound,
    lo the lowest degree of C, BoundExceeded once the terms hold more than
    DEFAULT_LIMITS.summand_cap projective summands, and InvariantError when
    a check fails: the span of each cover, the quasi-isomorphism and the
    minimality of the result.
    """
    A = C.algebra
    sup = C.support
    if sup is None:
        return zero_complex(A), {}
    lo, hi = sup
    verts: Dict[int, List[int]] = {}
    pmods: Dict[int, Module] = {}
    entries: Dict[int, Entries] = {}
    eps: Dict[int, ModMap] = {}
    delta: Dict[int, ModMap] = {}
    covers: Dict[int, ModMap] = {}
    placed, cap = 0, DEFAULT_LIMITS.summand_cap
    k = hi
    while True:
        Mk, Pk1, M1 = C.terms.get(k), pmods.get(k + 1), C.terms.get(k + 1)
        parts = [m for m in (Mk, Pk1) if m is not None]
        zrows = None  # no condition: all of M^k (+) P^{k+1} is compatible
        if parts and (M1 is not None or k + 2 in pmods):
            zrows = _cycle_rows(A, Mk, M1, C.diff(k), covers.get(k + 1))
        if not parts or (zrows is not None and not any(zrows)):
            if k <= lo:
                break
            k -= 1
            continue
        if k < lo - pd_bound:
            raise PdBoundExceeded(
                f"hyperprojective resolution exceeds pd bound {pd_bound}")
        # P^k -> Z^k inside M^k (+) P^{k+1}, whose coordinates of M^k come
        # first at each vertex; generators are picked modulo the boundaries
        # (d m, 0) of C, the rows of d^{k-1} padded with zeros
        total = direct_sum_modules(A, parts)
        dC, z = C.diff(k - 1), A.field.zero
        known = dC and [[r + [z] * (len(p) - b.ncols) for r in b.rows if any(r)]
                        for b, p in zip(dC, total.positions)]
        gens = top_generators(total, zrows, known)
        vlist = [i for i, _ in gens]
        placed += len(vlist)
        if placed > cap:
            raise BoundExceeded(
                f"hyperprojective resolution exceeds the summand cap of {cap} "
                f"projective summands (reached degree {k})")
        if Mk is not None:
            eps[k] = yoneda_map(A, Mk, [(i, r[:len(Mk.positions[i])]) for i, r in gens])
        if Pk1 is not None:
            entries[k] = _entry_columns(A, gens, Mk, verts[k + 1])
            delta[k] = realize_entry_matrix(A, vlist, verts[k + 1], entries[k])
        maps = [m[k] for m in (eps, delta) if k in m]
        covers[k] = maps[0] if len(maps) == 1 else tuple(map(la.hstack, zip(*maps)))
        kernel = cover_kernel_dims(covers[k], [len(p) for p in total.positions]
                                   if zrows is None else map(len, zrows), known)
        if vlist:
            verts[k], pmods[k] = vlist, projectives_module(A, vlist)
        else:  # the boundaries of C span Z^k: P^k = 0
            for m in (eps, entries, delta, covers):
                m.pop(k, None)
        # below C, Z^{k-1} is the kernel of the cover
        if k <= lo and not any(kernel):
            break
        k -= 1

    P = ProjComplex(A, verts, entries)
    P._module_cache = ModComplex(A, pmods, delta, validate=False)
    _assert_quasi_iso(P, C, eps)
    if not P.is_minimal():
        raise InvariantError("resolution is not minimal")
    P._minimal_cache = (P, identity_map(P))
    return P, eps


def _entry_columns(A: Algebra, gens: Sequence[Tuple[int, List]], Mk: Optional[Module],
                   tgt_verts: Sequence[int]) -> Entries:
    """The entry matrix of the map into P^{k+1} sending each generator
    (i, row) to the P^{k+1} part of row: past the coordinates of M^k at i,
    summand P_j of P^{k+1} holds the coefficients of an element of e_j A e_i
    at summand_offsets."""
    off = summand_offsets(A, tgt_verts)
    skip = [len(p) for p in Mk.positions] if Mk is not None else [0] * A.nvert
    return [[{b: x for b, x in zip(A.corner_indices(j, i),
                                   row[skip[i] + off[t][i]:skip[i] + off[t + 1][i]]) if x}
             for i, row in gens] for t, j in enumerate(tgt_verts)]


def _cycle_rows(A: Algebra, Mk: Optional[Module], M1: Optional[Module],
                dM: Optional[ModMap], cover: Optional[ModMap]) -> List[List]:
    """A basis of Z^k, the rows (m, p) of M^k (+) P^{k+1} with m d_M = p eps
    and p delta = 0, per vertex in the coordinates of the sum there (those
    of M^k first).  cover is (eps, delta), the map P^{k+1} -> M^{k+1} (+)
    P^{k+2} made one step before; a missing map is zero.

    Z^k is the left kernel of [[d_M, 0], [-eps, delta]] at each vertex, as
    of [[-d_M, 0], [eps, delta]], whose columns of M^{k+1} are negated; the
    rows of one summand need neither the sign nor the zero columns."""
    f = A.field
    out = []
    for v in range(A.nvert):
        dm = len(Mk.positions[v]) if Mk is not None else 0
        wm = len(M1.positions[v]) if M1 is not None else 0
        at_m = dM[v].rows if dM is not None else [[f.zero] * wm] * dm
        if cover is None or not cover[v].nrows:
            cond = Mat(f, at_m, ncols=wm)
        elif not dm:
            cond = cover[v]
        else:
            pad = [f.zero] * (cover[v].ncols - wm)
            cond = Mat(f, [[f.neg(x) for x in r] + pad for r in at_m] + cover[v].rows,
                       ncols=cover[v].ncols)
        out.append(la.left_kernel_basis(cond) if cond.ncols else
                   Mat.identity(f, cond.nrows).rows)
    return out


def resolve_module(M: Module, pd_bound: int = DEFAULT_LIMITS.pd_bound) -> ProjComplex:
    """The minimal projective resolution of M, in degrees -pd M .. 0.

    The first resolution found is kept on M, which is sound because a module
    is never changed in place; a later call raises BoundExceeded iff its
    length exceeds that call's pd_bound, as resolving afresh would."""
    P = M._resolution
    if P is None:
        P, _ = resolve_complex(stalk_complex(M), pd_bound)
        M._resolution = P
    elif -min(P.terms, default=0) > pd_bound:
        raise PdBoundExceeded(
            f"hyperprojective resolution exceeds pd bound {pd_bound}")
    return P


def _assert_quasi_iso(P: ProjComplex, C: ModComplex, aug: Dict[int, ModMap]):
    real = module_realization(P)
    hP = real.cohomology_dims()
    hC = C.cohomology_dims()
    if hP != hC:
        raise InvariantError(f"resolution changed cohomology: {hP} vs {hC}")
    # the comparison map is a chain map; a missing map is zero
    for k, a in aug.items():
        dP, dC = real.diff(k), C.diff(k)
        lhs = compose_maps(dP, aug[k + 1]) if dP is not None and k + 1 in aug else None
        rhs = compose_maps(a, dC) if dC is not None else None
        if lhs is None or rhs is None:
            bad = not all(b.is_zero() for b in lhs or rhs or ())
        else:
            bad = lhs != rhs
        if bad:
            raise InvariantError(f"comparison map fails to commute at degree {k}")

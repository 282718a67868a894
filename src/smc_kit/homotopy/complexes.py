"""Bounded complexes of indecomposable projectives and their chain maps.

A complex stores, per degree, the ordered multiset of projective indices
(= vertices) and a differential matrix whose (t, s) entry is an algebra
element of e_{j_t} A e_{i_s}, acting on e_{i_s}A by left multiplication.
An entry is a sparse ``Vec`` (see algebra): its keys lie in that corner,
``{}`` is a zero entry, and as elements are never changed in place, entry
matrices of complexes and chain maps share them.  Sign conventions, fixed
once:

* shift by one negates the differential: d_{X[1]} = -d_X;
* the cone of f: X -> Y has degree-k term X^{k+1} (+) Y^k and differential
  [[-d_X, 0], [f, d_Y]].

Minimal representatives come from Gaussian cancellation of unit entries
(possible because every corner e_i A e_i is local), which is what makes
Krull-Schmidt comparisons computable.
"""

from __future__ import annotations

import weakref
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..algebra import Algebra, Vec
from ..config import InputError, InvariantError

Entries = List[List[Vec]]  # rows = target summands, cols = source summands


def ent_zeros(A: Algebra, m: int, n: int) -> Entries:
    z = A.zero_vec()
    return [[z] * n for _ in range(m)]


def ent_matmul(A: Algebra, left: Entries, right: Entries) -> Entries:
    """Entry matrix of the composite map 'right first, then left'."""
    m = len(left)
    k = len(left[0]) if left else 0
    n = len(right[0]) if right else 0
    if m and len(right) != k:
        raise InputError("entry matmul shape mismatch")
    out = ent_zeros(A, m, n)
    for t in range(m):
        for s in range(n):
            acc = A.zero_vec()
            for u in range(k):
                x, y = left[t][u], right[u][s]
                if x and y:
                    acc = A.add_vec(acc, A.mul_vec(x, y))
            out[t][s] = acc
    return out


def ent_neg(A: Algebra, x: Entries) -> Entries:
    return [[A.neg_vec(a) for a in r] for r in x]


def ent_is_zero(A: Algebra, x: Entries) -> bool:
    return all(not a for r in x for a in r)


def ent_identity(A: Algebra, verts: Sequence[int]) -> Entries:
    n = len(verts)
    out = ent_zeros(A, n, n)
    for i, v in enumerate(verts):
        out[i][i] = A.basis_vec(v)
    return out


class ProjComplex:
    """Bounded complex of projectives P_i = e_i A over a fixed algebra."""

    def __init__(self, algebra: Algebra, terms: Dict[int, Sequence[int]],
                 diffs: Optional[Dict[int, Entries]] = None, validate: bool = True):
        self.algebra = algebra
        # Read-only views over tuples: the caches below (and the Hom memo of
        # homotopy.homs) are sound only because a complex never changes.
        self.terms: Mapping[int, Tuple[int, ...]] = MappingProxyType({
            k: tuple(v) for k, v in terms.items() if len(v) > 0})
        diffs = diffs or {}
        frozen = {}
        for k in self.terms:
            if k + 1 in self.terms:
                d = diffs.get(k)
                if d is None:
                    d = ent_zeros(algebra, len(self.terms[k + 1]), len(self.terms[k]))
                frozen[k] = tuple(map(tuple, d))
        self.diffs: Mapping[int, Tuple[Tuple[Vec, ...], ...]] = MappingProxyType(frozen)
        # lowest and highest nonzero degree; None for the zero complex
        self.support: Optional[Tuple[int, int]] = \
            (min(self.terms), max(self.terms)) if self.terms else None
        # A shift X[n] made by shift() records its unshifted base X and n;
        # only an unshifted complex fills _shift_cache.
        self._base: Optional["ProjComplex"] = None
        self._offset = 0
        self._shift_cache: Dict[int, "ProjComplex"] = {}
        self._minimal_cache = None
        self._module_cache = None
        # Y -> ({n: dim Hom(X, Y[n])}, {n: rank D^n}) for unshifted X and Y,
        # made by the first Hom query out of X or a shift of it; ints only,
        # so an entry dies once X or Y is gone with all its shifts.
        self._hom_memo: Optional[weakref.WeakKeyDictionary] = None
        if validate:
            self._validate()

    def _validate(self):
        A = self.algebra
        for k, d in self.diffs.items():
            src, tgt = self.terms[k], self.terms[k + 1]
            if len(d) != len(tgt) or any(len(row) != len(src) for row in d):
                raise InputError(f"differential at degree {k} has wrong shape")
            for t, row in enumerate(d):
                for s, e in enumerate(row):
                    if not set(e) <= set(A.corner_indices(tgt[t], src[s])):
                        raise InputError(
                            f"entry ({t},{s}) at degree {k} is not in "
                            f"e_{tgt[t]} A e_{src[s]}")
                    if not all(e.values()):
                        raise InputError(
                            f"entry ({t},{s}) at degree {k} stores a zero coefficient")
        for k in self.diffs:
            if k + 1 in self.diffs:
                sq = ent_matmul(A, self.diffs[k + 1], self.diffs[k])
                if not ent_is_zero(A, sq):
                    raise InputError(f"d^2 != 0 between degrees {k} and {k + 2}")

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def term(self, k: int) -> Tuple[int, ...]:
        return self.terms.get(k, ())

    def diff(self, k: int) -> Optional[Entries]:
        return self.diffs.get(k)

    def total_terms(self) -> int:
        return sum(len(v) for v in self.terms.values())

    def term_profile(self) -> Dict[int, Tuple[int, ...]]:
        """Degree -> sorted vertex multiset; the Krull-Schmidt fingerprint
        once the complex is minimal."""
        return {k: tuple(sorted(v)) for k, v in self.terms.items()}

    def euler_class(self) -> Tuple[int, ...]:
        """Alternating sum of term multiplicities per vertex (integers)."""
        out = [0] * self.algebra.nvert
        for k, verts in self.terms.items():
            sgn = 1 if k % 2 == 0 else -1
            for v in verts:
                out[v] += sgn
        return tuple(out)

    def is_minimal(self) -> bool:
        A = self.algebra
        return all(A.is_radical_vec(e) for d in self.diffs.values()
                   for row in d for e in row)

    def same_shape(self, other: "ProjComplex") -> bool:
        return (self.algebra is other.algebra and self.terms == other.terms
                and all(self.diffs[k] == other.diffs[k] for k in self.diffs)
                and self.diffs.keys() == other.diffs.keys())

    def shift(self, n: int) -> "ProjComplex":
        """Degrees translated by -n; differential picks up (-1)^n.

        Every shift is made from, and kept by, the unshifted complex it
        comes from, and holds that base alive, so X.shift(0) is X,
        X.shift(a).shift(b) is X.shift(a + b), and all shifts of X share
        the Hom memo of X (see homotopy.homs)."""
        if n == 0:
            return self
        if self._base is not None:
            return self._base.shift(self._offset + n)
        out = self._shift_cache.get(n)
        if out is None:
            A = self.algebra
            terms = {k - n: v for k, v in self.terms.items()}
            sign_flip = n % 2 == 1
            diffs = {k - n: ent_neg(A, d) if sign_flip else d
                     for k, d in self.diffs.items()}
            out = self._shift_cache[n] = ProjComplex(A, terms, diffs, validate=False)
            out._base, out._offset = self, n
        return out

    def __repr__(self):
        if self.is_zero():
            return "ProjComplex(0)"
        parts = [f"{k}:{list(v)}" for k, v in sorted(self.terms.items())]
        return f"ProjComplex({', '.join(parts)})"


def zero_complex(A: Algebra) -> ProjComplex:
    return ProjComplex(A, {}, {}, validate=False)


def stalk(A: Algebra, vertex: int, degree: int = 0) -> ProjComplex:
    return ProjComplex(A, {degree: (vertex,)}, validate=False)


def shift(X: ProjComplex, n: int) -> ProjComplex:
    return X.shift(n)


class ChainMap:
    """Degreewise map of complexes with entries in the hom corners."""

    def __init__(self, source: ProjComplex, target: ProjComplex,
                 comps: Dict[int, Entries], validate: bool = True):
        self.source = source
        self.target = target
        self.comps: Dict[int, Entries] = {}
        A = source.algebra
        for k, m in comps.items():
            if source.term(k) and target.term(k) and not ent_is_zero(A, m):
                self.comps[k] = [list(row) for row in m]
        if validate:
            self._validate()

    def _validate(self):
        X, Y, A = self.source, self.target, self.source.algebra
        if Y.algebra is not A:
            raise InputError("chain map between different algebras")
        for k, m in self.comps.items():
            if len(m) != len(Y.term(k)) or any(len(r) != len(X.term(k)) for r in m):
                raise InputError(f"component at degree {k} has wrong shape")
        for k in set(X.terms) | set(Y.terms):
            lhs = None  # d_Y^k f^k
            if k in self.comps and Y.diff(k) is not None:
                lhs = ent_matmul(A, Y.diff(k), self.comps[k])
            rhs = None  # f^{k+1} d_X^k
            if k + 1 in self.comps and X.diff(k) is not None:
                rhs = ent_matmul(A, self.comps[k + 1], X.diff(k))
            if lhs is None and rhs is None:
                continue
            # elements store no zero coefficient, so == is their equality
            zero = ent_zeros(A, len(Y.term(k + 1)), len(X.term(k)))
            if (lhs or zero) != (rhs or zero):
                raise InputError(f"chain map does not commute at degree {k}")

    def component(self, k: int) -> Entries:
        if k in self.comps:
            return self.comps[k]
        return ent_zeros(self.source.algebra, len(self.target.term(k)),
                         len(self.source.term(k)))

    def is_zero(self) -> bool:
        return not self.comps

    def __repr__(self):
        return f"ChainMap({self.source!r} -> {self.target!r})"


def identity_map(X: ProjComplex) -> ChainMap:
    A = X.algebra
    comps = {k: ent_identity(A, v) for k, v in X.terms.items()}
    return ChainMap(X, X, comps, validate=False)


def compose(f: ChainMap, g: ChainMap) -> ChainMap:
    """f then g (defined when target(f) = source(g) up to shape)."""
    if not f.target.same_shape(g.source):
        raise InputError("compose: target of f does not match source of g")
    A = f.source.algebra
    comps = {}
    for k in set(f.comps) & set(g.comps):
        comps[k] = ent_matmul(A, g.comps[k], f.comps[k])
    return ChainMap(f.source, g.target, comps, validate=False)


def _cone_complex(f: ChainMap) -> ProjComplex:
    """The mapping cone of f: X -> Y, with term X^{k+1} + Y^k in degree k."""
    X, Y = f.source, f.target
    A = X.algebra
    terms: Dict[int, List[int]] = {}
    for k in set(x - 1 for x in X.terms) | set(Y.terms):
        verts = list(X.term(k + 1)) + list(Y.term(k))
        if verts:
            terms[k] = verts
    diffs: Dict[int, Entries] = {}
    for k in terms:
        if k + 1 not in terms:
            continue
        nx, ny = len(X.term(k + 1)), len(Y.term(k))
        mx, my = len(X.term(k + 2)), len(Y.term(k + 1))
        d = ent_zeros(A, mx + my, nx + ny)
        dX = X.diff(k + 1)
        if dX is not None:
            for t in range(mx):
                for s in range(nx):
                    d[t][s] = A.neg_vec(dX[t][s])
        fc = f.comps.get(k + 1)
        if fc is not None:
            for t in range(my):
                for s in range(nx):
                    d[mx + t][s] = fc[t][s]
        dY = Y.diff(k)
        if dY is not None:
            for t in range(my):
                for s in range(ny):
                    d[mx + t][nx + s] = dY[t][s]
        diffs[k] = d
    return ProjComplex(A, terms, diffs, validate=False)


def cone(f: ChainMap) -> Tuple[ProjComplex, ChainMap]:
    """Mapping cone C of f: X -> Y with the inclusion v: Y -> C of its
    triangle X -> Y -> C -> X[1]."""
    X, Y = f.source, f.target
    A = X.algebra
    C = _cone_complex(f)
    v_comps = {}
    for k in Y.terms:
        nx = len(X.term(k + 1))
        m = ent_zeros(A, len(C.term(k)), len(Y.term(k)))
        for i, vert in enumerate(Y.term(k)):
            m[nx + i][i] = A.basis_vec(vert)
        v_comps[k] = m
    return C, ChainMap(Y, C, v_comps, validate=False)


def cocone(f: ChainMap) -> Tuple[ProjComplex, ChainMap]:
    """C = cone(f)[-1] with the projection p: C -> X of its triangle
    C -> X --f--> Y -> C[1]."""
    X = f.source
    A = X.algebra
    C = _cone_complex(f).shift(-1)
    p_comps = {}
    for k in C.terms:
        if not X.term(k):
            continue
        m = ent_zeros(A, len(X.term(k)), len(C.term(k)))
        for i, vert in enumerate(X.term(k)):
            m[i][i] = A.basis_vec(vert)
        p_comps[k] = m
    return C, ChainMap(C, X, p_comps, validate=False)


def direct_sum(complexes: Sequence[ProjComplex]) -> ProjComplex:
    """The direct sum, its summands' terms in order in each degree."""
    complexes = list(complexes)
    A = complexes[0].algebra
    terms: Dict[int, List[int]] = {}
    offsets: List[Dict[int, int]] = []
    for Xi in complexes:
        offs = {}
        for k, v in Xi.terms.items():
            offs[k] = len(terms.get(k, []))
            terms.setdefault(k, []).extend(v)
        offsets.append(offs)
    diffs: Dict[int, Entries] = {}
    for k in terms:
        if k + 1 not in terms:
            continue
        d = ent_zeros(A, len(terms[k + 1]), len(terms[k]))
        for Xi, offs in zip(complexes, offsets):
            di = Xi.diff(k)
            if di is None:
                continue
            r0, c0 = offs[k + 1], offs[k]
            for t, row in enumerate(di):
                for s, e in enumerate(row):
                    d[r0 + t][c0 + s] = e
        diffs[k] = d
    return ProjComplex(A, terms, diffs, validate=False)


def minimalize(X: ProjComplex) -> Tuple[ProjComplex, ChainMap]:
    """Homotopy-equivalent complex with radical differentials.

    Returns (X_min, X_min -> X), a homotopy equivalence; it is the one map
    callers read, so the inverse equivalence is never built.  An X that is
    already minimal is its own model, with the identity.  Relies on the
    corners e_i A e_i being local.
    """
    if X._minimal_cache is not None:
        return X._minimal_cache
    A = X.algebra

    def find_unit(terms, diffs):
        for k, d in diffs.items():
            src, tgt = terms[k], terms[k + 1]
            for t in range(len(tgt)):
                for s in range(len(src)):
                    if src[s] == tgt[t] and src[s] in d[t][s]:
                        return k, t, s
        return None

    hit = find_unit(X.terms, X.diffs)
    if hit is None:
        # already minimal: X is its own minimal model, sharing its Hom memos
        if not X.is_minimal():
            raise InvariantError("minimal model has a non-radical differential entry")
        X._minimal_cache = (X, identity_map(X))
        return X._minimal_cache
    terms = {k: list(v) for k, v in X.terms.items()}
    diffs = {k: [list(row) for row in d] for k, d in X.diffs.items()}
    from_comps: Dict[int, Entries] = {k: ent_identity(A, v) for k, v in X.terms.items()}

    while hit is not None:
        k, t, s = hit
        vert = terms[k][s]
        u = diffs[k][t][s]
        uinv = A.invert_in_corner(u, vert)
        old_src, old_tgt = terms[k], terms[k + 1]
        keep_s = [i for i in range(len(old_src)) if i != s]
        keep_t = [i for i in range(len(old_tgt)) if i != t]
        b_row = [diffs[k][t][y] for y in keep_s]          # others^k -> P_t
        c_col = [diffs[k][x][s] for x in keep_t]          # P_s -> others^{k+1}

        # corrected block: e - c * u^{-1} * b
        new_d = ent_zeros(A, len(keep_t), len(keep_s))
        for xi, x in enumerate(keep_t):
            cu = A.mul_vec(c_col[xi], uinv)
            for yi, y in enumerate(keep_s):
                corr = A.mul_vec(cu, b_row[yi])
                new_d[xi][yi] = A.sub_vec(diffs[k][x][y], corr)
        # step equivalence new -> old (identity outside degrees k, k+1)
        g_k = ent_zeros(A, len(old_src), len(keep_s))
        for yi, y in enumerate(keep_s):
            g_k[y][yi] = A.basis_vec(old_src[y])
            g_k[s][yi] = A.neg_vec(A.mul_vec(uinv, b_row[yi]))
        g_k1 = ent_zeros(A, len(old_tgt), len(keep_t))
        for xi, x in enumerate(keep_t):
            g_k1[x][xi] = A.basis_vec(old_tgt[x])

        # update the running equivalence
        if k in from_comps:
            from_comps[k] = ent_matmul(A, from_comps[k], g_k)
        if k + 1 in from_comps:
            from_comps[k + 1] = ent_matmul(A, from_comps[k + 1], g_k1)

        # shrink the terms and the neighbouring differentials
        terms[k] = [old_src[i] for i in keep_s]
        terms[k + 1] = [old_tgt[i] for i in keep_t]
        diffs[k] = new_d
        if k - 1 in diffs:
            diffs[k - 1] = [[diffs[k - 1][x][y] for y in range(len(diffs[k - 1][0]))]
                            for x in keep_s]
        if k + 1 in diffs:
            diffs[k + 1] = [[row[y] for y in keep_t] for row in diffs[k + 1]]
        for deg in (k, k + 1):
            if not terms[deg]:
                del terms[deg]
                diffs.pop(deg, None)
                diffs.pop(deg - 1, None)
        hit = find_unit(terms, diffs)

    clean_terms = {k: tuple(v) for k, v in terms.items() if v}
    clean_diffs = {k: d for k, d in diffs.items()
                   if k in clean_terms and k + 1 in clean_terms}
    Xmin = ProjComplex(A, clean_terms, clean_diffs, validate=False)
    from_min = ChainMap(Xmin, X, {k: m for k, m in from_comps.items()
                                  if k in clean_terms and X.term(k)}, validate=False)
    if not Xmin.is_minimal():
        raise InvariantError("minimal model has a non-radical differential entry")
    X._minimal_cache = (Xmin, from_min)
    Xmin._minimal_cache = (Xmin, identity_map(Xmin))
    return X._minimal_cache


def is_contractible(X: ProjComplex) -> bool:
    return minimalize(X)[0].is_zero()

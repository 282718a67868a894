"""Hom spaces in the homotopy category and the linear solvers behind them.

Hom(X, Y[n]) is computed as cohomology of the total Hom complex: one
coordinate block per (degree, target summand, source summand) triple, with
coordinates running over the corner basis of e_j A e_i.  The differential
D^n is read straight off the algebra's product table.  A query computes
only the degrees it asks for, and the rank of each D^n is memoized per
ordered pair of complexes (complexes are immutable), so repeated queries
on the same objects cost no elimination.

The same coordinate bookkeeping powers the solvers: null-homotopy tests,
factorization of maps through triangles, and chain maps constrained at the
level of the idempotent corner (used by the recollement unit/counit).
"""

from __future__ import annotations

import itertools
import random as _random
import weakref
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .. import exactla as la
from ..algebra import Algebra
from ..config import InputError
from ..exactla import Mat, PrimeField, RationalField
from .complexes import (
    ChainMap,
    Entries,
    ProjComplex,
    compose,
    ent_zeros,
    identity_map,
    minimalize,
)
from .resolve import (
    ModComplex,
    entries_from_realized,
    module_realization,
    realize_chain_map,
)


class LinearSystem:
    """Sparse accumulator for exact linear systems A x = b."""

    def __init__(self, field):
        self.field = field
        self.nvars = 0
        self.rows: List[Dict[int, object]] = []
        self.rhs: List[object] = []

    def add_vars(self, count: int) -> int:
        off = self.nvars
        self.nvars += count
        return off

    def add_equations(self, count: int) -> int:
        off = len(self.rows)
        for _ in range(count):
            self.rows.append({})
            self.rhs.append(self.field.zero)
        return off

    def add_coeff(self, eq: int, var: int, c):
        if c == self.field.zero:
            return
        row = self.rows[eq]
        row[var] = self.field.add(row.get(var, self.field.zero), c)

    def add_block(self, eq_off: int, var_off: int, coeffs: Mat, negate=False):
        """coeffs[i][j]: contribution of var (var_off+i) to eq (eq_off+j)."""
        f = self.field
        for i in range(coeffs.nrows):
            row = coeffs.rows[i]
            for j in range(coeffs.ncols):
                c = row[j]
                if c != f.zero:
                    self.add_coeff(eq_off + j, var_off + i, f.neg(c) if negate else c)

    def set_rhs(self, eq: int, value):
        self.rhs[eq] = value

    def solve(self) -> Optional[List]:
        f = self.field
        if self.nvars == 0:
            if any(v != f.zero for v in self.rhs):
                return None
            return []
        mat = Mat.zeros(f, len(self.rows), self.nvars)
        for i, row in enumerate(self.rows):
            for j, c in row.items():
                mat.rows[i][j] = c
        res = la.solve(mat, self.rhs)
        return res.solution


# -- coordinates of chain maps ------------------------------------------------


@dataclass
class _MapCoords:
    """Layout of the coordinate space of degree-preserving maps X -> Y[n]."""

    blocks: List[Tuple[int, int, int, Tuple[int, ...]]]  # (k, t, s, corner)
    offsets: List[int]
    total: int
    # (k, t, s) -> (offset, path -> position in the block)
    index: Dict[Tuple[int, int, int], Tuple[int, Dict[int, int]]]

    @classmethod
    def build(cls, X: ProjComplex, Y: ProjComplex, n: int) -> "_MapCoords":
        A = X.algebra
        blocks, offsets, index = [], [], {}
        total = 0
        for k in sorted(X.terms):
            yk = Y.term(k + n)
            if not yk:
                continue
            for t, j in enumerate(yk):
                for s, i in enumerate(X.term(k)):
                    corner = A.hom_corner(i, j)  # e_j A e_i
                    if corner:
                        blocks.append((k, t, s, corner))
                        offsets.append(total)
                        index[(k, t, s)] = (total, {b: p for p, b in enumerate(corner)})
                        total += len(corner)
        return cls(blocks, offsets, total, index)

    def to_entries(self, X: ProjComplex, Y: ProjComplex, n: int,
                   coords: Sequence) -> Dict[int, Entries]:
        A = X.algebra
        comps: Dict[int, Entries] = {}
        for (k, t, s, corner), off in zip(self.blocks, self.offsets):
            if k not in comps:
                comps[k] = ent_zeros(A, len(Y.term(k + n)), len(X.term(k)))
            vec = list(A.zero_vec())
            for pos, b in enumerate(corner):
                vec[b] = coords[off + pos]
            comps[k][t][s] = A.add_vec(comps[k][t][s], tuple(vec))
        return comps

    def from_map(self, f: ChainMap, n: int) -> List:
        A = f.source.algebra
        fld = A.field
        out = [fld.zero] * self.total
        for (k, t, s, corner), off in zip(self.blocks, self.offsets):
            comp = f.comps.get(k)
            if comp is None:
                continue
            e = comp[t][s]
            for pos, b in enumerate(corner):
                out[off + pos] = e[b]
        return out


def _products(A: Algebra, ent, corner: Sequence[int], cpos: Dict[int, int],
              left: bool):
    """Triples (i, j, x): the coefficient x of the path a in ent sends the
    path corner[i] to the path at position j of the target corner, as a*b
    (left) or b*a (right), read straight off the product table."""
    prod, z = A.prod, A.field.zero
    for a, x in enumerate(ent):
        if x == z:
            continue
        row = prod[a]
        for i, b in enumerate(corner):
            k = row[b] if left else prod[b][a]
            if k >= 0:
                j = cpos.get(k)
                if j is not None:
                    yield i, j, x


def _hom_differential(X: ProjComplex, Y: ProjComplex, n: int,
                      dom: _MapCoords, cod: _MapCoords) -> Mat:
    """Matrix of D(f) = d_Y f - (-1)^n f d_X from degree-n to degree-n+1 maps."""
    A = X.algebra
    fld = A.field
    rows = [[fld.zero] * dom.total for _ in range(cod.total)]
    sign = fld.from_int(-1 if n % 2 else 1)
    for (k, t, s, corner), off in zip(dom.blocks, dom.offsets):
        # postcompose with d_Y^{k+n}: lands in block (k, t', s)
        dY = Y.diff(k + n)
        if dY is not None:
            for tp, drow in enumerate(dY):
                hit = cod.index.get((k, tp, s))
                if hit is not None:
                    for i, j, x in _products(A, drow[t], corner, hit[1], True):
                        r = rows[hit[0] + j]
                        r[off + i] = fld.add(r[off + i], x)
        # precompose with d_X^{k-1}: block (k-1, t, s') from f^k
        dX = X.diff(k - 1)
        if dX is not None:
            for sp, ent in enumerate(dX[s]):
                hit = cod.index.get((k - 1, t, sp))
                if hit is not None:
                    for i, j, x in _products(A, ent, corner, hit[1], False):
                        r = rows[hit[0] + j]
                        r[off + i] = fld.sub(r[off + i], fld.mul(sign, x))
    return Mat(fld, rows, ncols=dom.total)


@dataclass
class HomTable:
    """Graded Hom dimensions with representing chain maps over a window."""

    x: ProjComplex
    y: ProjComplex
    window: Tuple[int, int]
    dims: Dict[int, int]
    basis: Dict[int, List[ChainMap]]

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def total(self) -> int:
        return sum(self.dims.values())


def hom_window(X: ProjComplex, Y: ProjComplex) -> Tuple[int, int]:
    """Degrees n outside which Hom(X, Y[n]) vanishes, from the supports;
    (0, 0) when either complex is zero."""
    if X.is_zero() or Y.is_zero():
        return (0, 0)
    (ax, bx), (ay, by) = X.support, Y.support
    return (ay - bx, by - ax)


def _rank_and_size(X: ProjComplex, Y: ProjComplex, n: int) -> Tuple[int, int]:
    """(rank of D^n, number of degree-n coordinates), memoized on X per Y."""
    if X._hom_ranks is None:
        X._hom_ranks = weakref.WeakKeyDictionary()
    memo = X._hom_ranks.get(Y)
    if memo is None:
        memo = X._hom_ranks[Y] = {}
    hit = memo.get(n)
    if hit is None:
        dom = _MapCoords.build(X, Y, n)
        cod = _MapCoords.build(X, Y, n + 1)
        r = la.rank(_hom_differential(X, Y, n, dom, cod)) \
            if dom.total and cod.total else 0
        hit = memo[n] = (r, dom.total)
    return hit


def hom_dims(X: ProjComplex, Y: ProjComplex, degrees: Iterable[int]) -> Dict[int, int]:
    """dim Hom(X, Y[n]) for each requested n, from the two ranks it needs."""
    if X.algebra is not Y.algebra:
        raise InputError("Hom requires complexes over the same algebra")
    lo, hi = hom_window(X, Y)
    empty = X.is_zero() or Y.is_zero()
    out: Dict[int, int] = {}
    for n in degrees:
        if empty or not lo <= n <= hi:
            out[n] = 0
            continue
        r, size = _rank_and_size(X, Y, n)
        h = size - r - (_rank_and_size(X, Y, n - 1)[0] if n > lo else 0)
        assert h >= 0
        out[n] = h
    return out


def hom_basis(X: ProjComplex, Y: ProjComplex, n: int) -> List[ChainMap]:
    """Chain maps X -> Y[n] whose homotopy classes form a basis of Hom."""
    if not hom_dims(X, Y, (n,))[n]:
        return []
    below, coords, above = (_MapCoords.build(X, Y, m) for m in (n - 1, n, n + 1))
    kern = la.kernel_basis(_hom_differential(X, Y, n, coords, above))
    prev = _hom_differential(X, Y, n - 1, below, coords)
    # A kernel vector is picked iff it lies outside the image of D^{n-1} and
    # the vectors picked before it, i.e. iff its column is a pivot column of
    # [columns of D^{n-1} | kernel vectors].
    stacked = Mat(X.algebra.field,
                  [row + [v[r] for v in kern] for r, row in enumerate(prev.rows)],
                  ncols=prev.ncols + len(kern))
    target = Y.shift(n)
    return [ChainMap(X, target, coords.to_entries(X, Y, n, kern[j - prev.ncols]))
            for j in la.rref(stacked).pivots if j >= prev.ncols]


def hom_table(X: ProjComplex, Y: ProjComplex, with_basis: bool = True) -> HomTable:
    """Graded Hom dimensions over the support window, with basis maps."""
    lo, hi = hom_window(X, Y)
    dims = {n: d for n, d in hom_dims(X, Y, range(lo, hi + 1)).items() if d}
    basis = {n: hom_basis(X, Y, n) for n in dims} if with_basis else {}
    return HomTable(X, Y, (lo, hi), dims, basis)


def chain_maps_basis(X: ProjComplex, Y: ProjComplex, n: int = 0) -> List[ChainMap]:
    """Basis of honest chain maps X -> Y[n] (not modulo homotopy)."""
    if X.is_zero() or Y.is_zero():
        return []
    coords_n = _MapCoords.build(X, Y, n)
    coords_n1 = _MapCoords.build(X, Y, n + 1)
    d = _hom_differential(X, Y, n, coords_n, coords_n1)
    out = []
    target = Y.shift(n)
    for v in la.kernel_basis(d):
        out.append(ChainMap(X, target, coords_n.to_entries(X, Y, n, v)))
    return out


def is_nullhomotopic(f: ChainMap) -> Optional[Dict[int, Entries]]:
    """Homotopy h with f = d_Y h + h d_X, or None."""
    X, Y = f.source, f.target
    A = X.algebra
    if X.is_zero() or Y.is_zero() or f.is_zero():
        return {}
    coords_h = _MapCoords.build(X, Y, -1)
    coords_f = _MapCoords.build(X, Y, 0)
    d = _hom_differential(X, Y, -1, coords_h, coords_f)
    rhs = coords_f.from_map(f, 0)
    res = la.solve(d, rhs)
    if res.solution is None:
        return None
    return coords_h.to_entries(X, Y, -1, res.solution)


def homotopic(f: ChainMap, g: ChainMap) -> bool:
    return is_nullhomotopic(f - g) is not None


def lift_through(p: ChainMap, g: ChainMap) -> Optional[ChainMap]:
    """psi: X -> W with p . psi homotopic to g, for p: W -> Y, g: X -> Y."""
    X, W, Y = g.source, p.source, p.target
    if not p.target.same_shape(g.target):
        raise InputError("lift_through: targets differ")
    A = X.algebra
    fld = A.field
    coords_psi = _MapCoords.build(X, W, 0)
    coords_g = _MapCoords.build(X, Y, 0)
    coords_h = _MapCoords.build(X, Y, -1)
    d_psi = _hom_differential(X, W, 0, coords_psi, _MapCoords.build(X, W, 1))
    d_h = _hom_differential(X, Y, -1, coords_h, coords_g)
    sys = LinearSystem(fld)
    v_psi = sys.add_vars(coords_psi.total)
    v_h = sys.add_vars(coords_h.total)
    eq_chain = sys.add_equations(d_psi.nrows)
    sys.add_block(eq_chain, v_psi, d_psi.transpose())
    # p o psi + D(h) = g : coordinates of p o psi are linear in psi
    eq_fac = sys.add_equations(coords_g.total)
    comp_mat = _compose_coeff_left(coords_psi, coords_g, p)
    sys.add_block(eq_fac, v_psi, comp_mat)
    sys.add_block(eq_fac, v_h, d_h.transpose())
    for i, val in enumerate(coords_g.from_map(g, 0)):
        sys.set_rhs(eq_fac + i, val)
    sol = sys.solve()
    if sol is None:
        return None
    psi_coords = sol[v_psi:v_psi + coords_psi.total]
    return ChainMap(X, W, coords_psi.to_entries(X, W, 0, psi_coords))


def factor_through(w: ChainMap, g: ChainMap) -> Optional[ChainMap]:
    """chi: W -> Z with chi . w homotopic to g, for w: X -> W, g: X -> Z."""
    X, W, Z = w.source, w.target, g.target
    if not w.source.same_shape(g.source):
        raise InputError("factor_through: sources differ")
    A = X.algebra
    fld = A.field
    coords_chi = _MapCoords.build(W, Z, 0)
    coords_g = _MapCoords.build(X, Z, 0)
    coords_h = _MapCoords.build(X, Z, -1)
    d_chi = _hom_differential(W, Z, 0, coords_chi, _MapCoords.build(W, Z, 1))
    d_h = _hom_differential(X, Z, -1, coords_h, coords_g)
    sys = LinearSystem(fld)
    v_chi = sys.add_vars(coords_chi.total)
    v_h = sys.add_vars(coords_h.total)
    eq_chain = sys.add_equations(d_chi.nrows)
    sys.add_block(eq_chain, v_chi, d_chi.transpose())
    eq_fac = sys.add_equations(coords_g.total)
    comp_mat = _compose_coeff_right(coords_chi, coords_g, w)
    sys.add_block(eq_fac, v_chi, comp_mat)
    sys.add_block(eq_fac, v_h, d_h.transpose())
    for i, val in enumerate(coords_g.from_map(g, 0)):
        sys.set_rhs(eq_fac + i, val)
    sol = sys.solve()
    if sol is None:
        return None
    chi_coords = sol[v_chi:v_chi + coords_chi.total]
    return ChainMap(W, Z, coords_chi.to_entries(W, Z, 0, chi_coords))


def _compose_coeff_left(coords_psi: _MapCoords, coords_out: _MapCoords,
                        p: ChainMap) -> Mat:
    """Coordinates of p o psi as a linear map of the coordinates of psi."""
    A = p.source.algebra
    fld = A.field
    out = Mat.zeros(fld, coords_psi.total, coords_out.total)
    for (k, t, s, corner), off in zip(coords_psi.blocks, coords_psi.offsets):
        pc = p.comps.get(k)
        if pc is None:
            continue
        for tp, prow in enumerate(pc):
            hit = coords_out.index.get((k, tp, s))
            if hit is not None:
                for i, j, x in _products(A, prow[t], corner, hit[1], True):
                    r = out.rows[off + i]
                    r[hit[0] + j] = fld.add(r[hit[0] + j], x)
    return out


def _compose_coeff_right(coords_chi: _MapCoords, coords_out: _MapCoords,
                         w: ChainMap) -> Mat:
    """Coordinates of chi o w as a linear map of the coordinates of chi."""
    A = w.source.algebra
    fld = A.field
    out = Mat.zeros(fld, coords_chi.total, coords_out.total)
    for (k, t, s, corner), off in zip(coords_chi.blocks, coords_chi.offsets):
        wc = w.comps.get(k)
        if wc is None:
            continue
        for sp, ent in enumerate(wc[s]):
            hit = coords_out.index.get((k, t, sp))
            if hit is not None:
                for i, j, x in _products(A, ent, corner, hit[1], False):
                    r = out.rows[off + i]
                    r[hit[0] + j] = fld.add(r[hit[0] + j], x)
    return out


# -- isomorphism testing -------------------------------------------------------


@dataclass
class IsoResult:
    isomorphic: bool
    certified: bool
    forward: Optional[ChainMap] = None
    backward: Optional[ChainMap] = None
    note: str = ""

    def __bool__(self):
        return self.isomorphic


def _scalar_profile_matrices(f_coords, coords: _MapCoords, X: ProjComplex,
                             Y: ProjComplex) -> Optional[Dict[int, Mat]]:
    """Per-degree matrices of the map modulo the radical."""
    A = X.algebra
    fld = A.field
    mats = {}
    for k in X.terms:
        if len(X.term(k)) != len(Y.term(k)):
            return None
        mats[k] = Mat.zeros(fld, len(X.term(k)), len(Y.term(k)))
    for (k, t, s, corner), off in zip(coords.blocks, coords.offsets):
        i, j = X.term(k)[s], Y.term(k)[t]
        if i != j:
            continue
        mats[k].rows[s][t] = fld.add(mats[k].rows[s][t], f_coords[off + corner.index(i)])
    return mats


def is_iso(X: ProjComplex, Y: ProjComplex, trials: int = 40,
           rng: Optional[_random.Random] = None, certify: bool = False,
           certify_points: int = 20_000, verify: bool = False) -> IsoResult:
    """Certified YES with inverse witnesses; NO is Monte Carlo unless the
    minimal term profiles already differ (a Krull-Schmidt certificate)."""
    if X.algebra is not Y.algebra:
        raise InputError("is_iso requires complexes over the same algebra")
    rng = rng or _random.Random(0)
    Xm, x_to, x_from = minimalize(X)
    Ym, y_to, y_from = minimalize(Y)
    if Xm.is_zero() and Ym.is_zero():
        return IsoResult(True, True, note="both contractible")
    if Xm.term_profile() != Ym.term_profile():
        return IsoResult(False, True, note="minimal term profiles differ")
    from .resolve import cohomology_dims
    if cohomology_dims(Xm) != cohomology_dims(Ym):
        return IsoResult(False, True, note="cohomology dimensions differ")
    basis = chain_maps_basis(Xm, Ym, 0)
    if not basis:
        return IsoResult(False, True, note="no chain maps at all")
    fld = X.algebra.field
    coords = _MapCoords.build(Xm, Ym, 0)
    vecs = [coords.from_map(b, 0) for b in basis]
    det_bound = Xm.total_terms()

    def try_coeffs(cs) -> Optional[ChainMap]:
        f_coords = [fld.zero] * coords.total
        for c, v in zip(cs, vecs):
            if c == fld.zero:
                continue
            for i, x in enumerate(v):
                f_coords[i] = fld.add(f_coords[i], fld.mul(c, x))
        profs = _scalar_profile_matrices(f_coords, coords, Xm, Ym)
        if profs is None:
            return None
        for m in profs.values():
            if la.rank(m) < m.nrows:
                return None
        return ChainMap(Xm, Ym, coords.to_entries(Xm, Ym, 0, f_coords))

    found = None
    if certify and isinstance(fld, RationalField):
        grid = range(det_bound + 1)
        count = (det_bound + 1) ** len(vecs)
        if count <= certify_points:
            for cs in itertools.product(grid, repeat=len(vecs)):
                found = try_coeffs([fld.from_int(c) for c in cs])
                if found:
                    break
            if not found:
                return IsoResult(False, True,
                                 note=f"no unit on the full degree-{det_bound} grid")
        # otherwise fall through to sampling
    if found is None:
        for _ in range(trials):
            found = try_coeffs([fld.rand(rng) for _ in vecs])
            if found:
                break
    if found is None:
        if isinstance(fld, PrimeField):
            note = (f"no invertible chain map in {trials} samples; failure "
                    f"probability <= ({det_bound}/{fld.p})^{trials}")
        else:
            note = f"no invertible chain map in {trials} rational samples"
        return IsoResult(False, False, note=note)
    # invert degreewise through the module realization
    inv_comps: Dict[int, Entries] = {}
    real_f = realize_chain_map(found)
    for k, m in real_f.items():
        inv = la.solve_matrix(m, Mat.identity(fld, m.nrows))
        assert inv is not None
        inv_comps[k] = entries_from_realized(X.algebra, Ym.term(k), Xm.term(k), inv)
    back = ChainMap(Ym, Xm, inv_comps)
    forward = compose(compose(x_to, found), y_from)
    backward = compose(compose(y_to, back), x_from)
    if verify:
        assert homotopic(compose(forward, backward), identity_map(X))
        assert homotopic(compose(backward, forward), identity_map(Y))
    return IsoResult(True, True, forward=forward, backward=backward,
                     note="invertible chain map witness")


def coords_in_table(f: ChainMap, table: HomTable, n: int) -> Optional[List]:
    """Coordinates of [f] in the homotopy-class basis of Hom(X, Y[n])."""
    X, Y = table.x, table.y
    fld = X.algebra.field
    coords_n = _MapCoords.build(X, Y, n)
    coords_h = _MapCoords.build(X, Y, n - 1)
    d_h = _hom_differential(X, Y, n - 1, coords_h, coords_n)
    reps = [coords_n.from_map(b, n) for b in table.basis.get(n, [])]
    sys = LinearSystem(fld)
    v_c = sys.add_vars(len(reps))
    v_h = sys.add_vars(coords_h.total)
    eq = sys.add_equations(coords_n.total)
    for i, rep in enumerate(reps):
        for j, val in enumerate(rep):
            sys.add_coeff(eq + j, v_c + i, val)
    sys.add_block(eq, v_h, d_h.transpose())
    for j, val in enumerate(coords_n.from_map(f, n)):
        sys.set_rhs(eq + j, val)
    sol = sys.solve()
    if sol is None:
        return None
    return sol[v_c:v_c + len(reps)]


# -- chain maps with a corner-level constraint ---------------------------------


def solve_corner_constrained(src: ProjComplex, tgt: ProjComplex,
                             subset: Sequence[int],
                             Z: ProjComplex, Zreal: ModComplex,
                             R: Optional[Dict[int, Mat]],
                             P: Optional[Dict[int, Mat]], W: ModComplex,
                             Q: Dict[int, Mat],
                             y_embed: Sequence[int]) -> Optional[ChainMap]:
    """Chain map phi: src -> tgt with R . corner(phi) . P homotopic to Q.

    Z is a complex of projectives over the corner algebra whose realization
    is the domain of the constraint; R: Z -> corner(src) and P: corner(tgt)
    -> W are fixed module maps (None = identity), Q: Z -> W is the target.
    The homotopy runs through Hom(Z^k, W^{k-1}), parametrized by generators
    of the projective summands of Z (Yoneda).
    """
    A = src.algebra
    fld = A.field
    B = W.algebra

    coords_phi = _MapCoords.build(src, tgt, 0)
    d_phi = _hom_differential(src, tgt, 0, coords_phi, _MapCoords.build(src, tgt, 1))

    src_block = {k: _corner_blocks(A, src.term(k), subset) for k in src.terms}
    tgt_block = {k: _corner_blocks(A, tgt.term(k), subset) for k in tgt.terms}

    sys = LinearSystem(fld)
    v_phi = sys.add_vars(coords_phi.total)
    eq_chain = sys.add_equations(d_phi.nrows)
    sys.add_block(eq_chain, v_phi, d_phi.transpose())

    # homotopy variables: Hom_B(Z^k, W^{k-1}) via generators of summands
    h_vars: Dict[Tuple[int, int, int], Tuple[int, Mat]] = {}
    _, zslices = module_realization(Z)
    for k, verts in Z.terms.items():
        Wk1 = W.module(k - 1)
        if Wk1.dim == 0:
            continue
        for s_idx, f_vert in enumerate(verts):
            wpos = Wk1.e_weight_positions(f_vert)
            for q in wpos:
                hmat = _yoneda_matrix(B, f_vert, Wk1, q)
                off = sys.add_vars(1)
                h_vars[(k, s_idx, q)] = (off, hmat)

    # constraint equations per degree with Z-term or Q-entry
    eq_ids: Dict[int, int] = {}
    for k in sorted(set(Z.terms) | set(Q.keys())):
        dimZ = Zreal.dim(k)
        dimW = W.dim(k)
        if dimZ == 0 or dimW == 0:
            continue
        eq_ids[k] = sys.add_equations(dimZ * dimW)
        qk = Q.get(k)
        if qk is not None:
            for r in range(dimZ):
                for c in range(dimW):
                    sys.set_rhs(eq_ids[k] + r * dimW + c, qk.rows[r][c])

    # phi contributions: R^k @ corner(phi)^k @ P^k
    for (k, t, s, corner), off in zip(coords_phi.blocks, coords_phi.offsets):
        if k not in eq_ids:
            continue
        dimW = W.dim(k)
        i_vert = src.term(k)[s]
        j_vert = tgt.term(k)[t]
        s_lo, s_hi = src_block[k][s]
        t_lo, t_hi = tgt_block[k][t]
        if s_hi == s_lo or t_hi == t_lo:
            continue
        r_mat = R.get(k) if R is not None else None
        if r_mat is not None:
            r_cols = r_mat.submatrix(range(r_mat.nrows), range(s_lo, s_hi))
        p_mat = P.get(k) if P is not None else None
        # rows of the corner of P_i (basis elts with target in subset)
        src_corner_rows = [b for b in A.projective_module(i_vert).basis_in_algebra
                           if A.target[b] in subset]
        tgt_corner_rows = [b for b in A.projective_module(j_vert).basis_in_algebra
                           if A.target[b] in subset]
        for pos, belt in enumerate(corner):
            lsl = A.lrow(A.basis_vec(belt)).submatrix(src_corner_rows, tgt_corner_rows)
            if r_mat is not None:
                left = r_cols @ lsl
            else:
                left = _expand_rows(fld, lsl, Zreal.dim(k), s_lo)
            if p_mat is not None:
                p_rows = p_mat.submatrix(range(t_lo, t_hi), range(p_mat.ncols))
                contrib = left @ p_rows
            else:
                contrib = _expand_cols(fld, left, dimW, t_lo)
            eq0 = eq_ids[k]
            for r in range(contrib.nrows):
                for c in range(contrib.ncols):
                    v = contrib.rows[r][c]
                    if v != fld.zero:
                        sys.add_coeff(eq0 + r * dimW + c, v_phi + off + pos, v)
        # the constraint reads: R corner(phi) P - (d h + h d) = Q

    # homotopy contributions: d_Z @ h^{k+1} + h^k @ d_W^{k-1}
    for (k, s_idx, q), (off, hmat) in h_vars.items():
        # h^k contributes to equations at degree k via h^k @ d_W^{k-1}
        dW = W.diff(k - 1)
        if dW is not None and k in eq_ids:
            big = _h_full_matrix(fld, Zreal, zslices, k, s_idx, hmat)
            contrib = big @ dW
            dimW = W.dim(k)
            eq0 = eq_ids[k]
            for r in range(contrib.nrows):
                for c in range(contrib.ncols):
                    v = contrib.rows[r][c]
                    if v != fld.zero:
                        sys.add_coeff(eq0 + r * dimW + c, off, fld.neg(v))
        # h^{k} contributes to equations at degree k-1 via d_Z^{k-1} @ h^{k}
        dZ = Zreal.diff(k - 1)
        if dZ is not None and (k - 1) in eq_ids:
            big = _h_full_matrix(fld, Zreal, zslices, k, s_idx, hmat)
            contrib = dZ @ big
            dimW = W.dim(k - 1)
            eq0 = eq_ids[k - 1]
            for r in range(contrib.nrows):
                for c in range(contrib.ncols):
                    v = contrib.rows[r][c]
                    if v != fld.zero:
                        sys.add_coeff(eq0 + r * dimW + c, off, fld.neg(v))

    sol = sys.solve()
    if sol is None:
        return None
    phi_coords = sol[v_phi:v_phi + coords_phi.total]
    return ChainMap(src, tgt, coords_phi.to_entries(src, tgt, 0, phi_coords))


def _corner_blocks(A: Algebra, verts: Sequence[int], subset) -> List[Tuple[int, int]]:
    """(start, stop) of each summand's slice inside the corner realization."""
    sub = set(subset)
    out = []
    pos = 0
    for i in verts:
        cnt = sum(1 for b in A.projective_module(i).basis_in_algebra
                  if A.target[b] in sub)
        out.append((pos, pos + cnt))
        pos += cnt
    return out


def _yoneda_matrix(B: Algebra, vert: int, target, q: int) -> Mat:
    """Matrix of the map P_vert -> target sending the generator to unit q."""
    fld = B.field
    basis = B.projective_module(vert).basis_in_algebra
    rows = []
    unit = [fld.one if i == q else fld.zero for i in range(target.dim)]
    for b in basis:
        rows.append(target.act(unit, B.basis_vec(b)))
    return Mat(fld, rows, ncols=target.dim)


def _h_full_matrix(fld, Zreal: ModComplex, zslices, k: int, s_idx: int,
                   hmat: Mat) -> Mat:
    """Embed a summand-level homotopy matrix into Hom(Z^k_real, W^{k-1})."""
    big = Mat.zeros(fld, Zreal.dim(k), hmat.ncols)
    lo, hi = zslices[k][s_idx]
    for r in range(hi - lo):
        big.rows[lo + r] = list(hmat.rows[r])
    return big


def _expand_rows(fld, m: Mat, total_rows: int, row_off: int) -> Mat:
    out = Mat.zeros(fld, total_rows, m.ncols)
    for r in range(m.nrows):
        out.rows[row_off + r] = list(m.rows[r])
    return out


def _expand_cols(fld, m: Mat, total_cols: int, col_off: int) -> Mat:
    out = Mat.zeros(fld, m.nrows, total_cols)
    for r in range(m.nrows):
        for c in range(m.ncols):
            out.rows[r][col_off + c] = m.rows[r][c]
    return out

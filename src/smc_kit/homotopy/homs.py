"""Hom spaces in the homotopy category and the linear solvers behind them.

Hom(X, Y[n]) is computed as cohomology of the total Hom complex: one
coordinate block per (degree, target summand, source summand) triple, with
coordinates running over the corner basis of e_j A e_i.  The differential
D^n is read straight off the algebra's product table.  A query computes
only the degrees it asks for.  Each ordered pair of unshifted complexes
(complexes are immutable) memoizes its finished dimensions next to the
ranks of the D^n behind them, and a pair of shifts reads that memo: as
Hom(X[a], Y[b][n]) = Hom(X, Y[n + b - a]) with the same D up to signs,
degree n of (X[a], Y[b]) is degree n + b - a of (X, Y).  So a repeated
query is one dict lookup per degree, whichever shifts it comes through.
The number of degree-n coordinates is counted from the vertices of the terms
and the algebra's table of corner dimensions; coordinate blocks are laid
out, and D^n built and ranked, only when degrees n and n + 1 both have
coordinates.

The same coordinate bookkeeping powers the solvers: null-homotopy tests,
factorization of maps through triangles, and chain maps constrained at the
level of the idempotent corner (used by the recollement unit/counit).  Each
solver assembles its whole system as one dense ``Mat`` and solves it once.

``is_iso`` decides isomorphism from the same chain-map coordinates.  Its YES
carries the invertible chain map it found between the two minimal models;
its NO is certified by term profiles, cohomology, or the brick argument, and
is Monte Carlo only when neither side is a brick.
"""

from __future__ import annotations

import random as _random
import weakref
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .. import exactla as la
from ..algebra import Algebra, ModMap, yoneda_map
from ..config import InputError, InvariantError
from ..exactla import Mat
from .complexes import (
    ChainMap,
    Entries,
    ProjComplex,
    ent_zeros,
    minimalize,
)
from .resolve import (
    ModComplex,
    cohomology_dims,
    realize_chain_map,
    summand_offsets,
)


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
                    corner = A.corner_indices(j, i)  # maps P_i -> P_j
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
            block = coords[off:off + len(corner)]
            comps[k][t][s] = {b: c for b, c in zip(corner, block) if c}
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
                out[off + pos] = e.get(b, fld.zero)
        return out


def _compose_into(A: Algebra, rows: List[List], dom: _MapCoords, cod: _MapCoords,
                  ents: Mapping[int, Entries], shift: int, left: bool,
                  subtract: bool = False) -> None:
    """Add (or subtract) into rows, one per cod coordinate and one column per
    dom coordinate, the composite of each dom block f^k at (k, t, s) with
    the entry matrix e = ents[k + shift]: e f^k (left), landing in block
    (k, t', s), or f^k e (right), landing in block (k + shift, t, s')."""
    op = A.field.sub if subtract else A.field.add
    for (k, t, s, corner), off in zip(dom.blocks, dom.offsets):
        e = ents.get(k + shift)
        if e is None:
            continue
        for u, ent in enumerate(e if left else e[s]):
            hit = cod.index.get((k, u, s) if left else (k + shift, t, u))
            if hit is not None:
                base, pos = hit
                for i, j, x in A.products(ent[t] if left else ent, corner, pos, left):
                    r = rows[base + j]
                    r[off + i] = op(r[off + i], x)


def _hom_differential(X: ProjComplex, Y: ProjComplex, n: int,
                      dom: _MapCoords, cod: _MapCoords) -> Mat:
    """Matrix of D(f) = d_Y f - (-1)^n f d_X from degree-n to degree-n+1 maps."""
    A = X.algebra
    d = Mat.zeros(A.field, cod.total, dom.total)
    _compose_into(A, d.rows, dom, cod, Y.diffs, n, True)
    _compose_into(A, d.rows, dom, cod, X.diffs, -1, False, subtract=n % 2 == 0)
    return d


@dataclass
class HomTable:
    """Graded Hom dimensions over a window; bases come from hom_basis."""

    window: Tuple[int, int]
    dims: Dict[int, int]

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)


def hom_window(X: ProjComplex, Y: ProjComplex) -> Tuple[int, int]:
    """Degrees n outside which Hom(X, Y[n]) vanishes, from the supports;
    (0, 0) when either complex is zero."""
    if X.support is None or Y.support is None:
        return (0, 0)
    (ax, bx), (ay, by) = X.support, Y.support
    return (ay - bx, by - ax)


def _degree_size(X: ProjComplex, Y: ProjComplex, n: int) -> int:
    """Number of degree-n coordinates, sum over k of dim e_j A e_i for i in
    X^k and j in Y^{k+n}: the total of _MapCoords.build(X, Y, n), read off
    the corner dimensions without laying out a block."""
    cdims, tgt = X.algebra.corner_dims, Y.terms
    size = 0
    for k, src in X.terms.items():
        for j in tgt.get(k + n, ()):
            row = cdims[j]
            for i in src:
                size += row[i]
    return size


def _rank(X: ProjComplex, Y: ProjComplex, n: int, ranks: Dict[int, int]) -> int:
    """Rank of D^n, memoized in ranks; coordinates are laid out only when
    neither degree n nor n + 1 is empty."""
    r = ranks.get(n)
    if r is None:
        r = 0
        if _degree_size(X, Y, n) and _degree_size(X, Y, n + 1):
            dom, cod = _MapCoords.build(X, Y, n), _MapCoords.build(X, Y, n + 1)
            r = la.rank(_hom_differential(X, Y, n, dom, cod))
        ranks[n] = r
    return r


def hom_dims(X: ProjComplex, Y: ProjComplex, degrees: Iterable[int]) -> Dict[int, int]:
    """dim Hom(X, Y[n]) for each requested n.  With X = X0[a] and Y = Y0[b]
    for unshifted X0 and Y0, this is dim Hom(X0, Y0[n + b - a]), memoized
    for the pair (X0, Y0), so a degree that any shifts of the pair asked
    before costs one dict lookup; a new one costs the ranks of D^n and
    D^{n-1} of (X0, Y0), each eliminated at most once."""
    if X.algebra is not Y.algebra:
        raise InputError("Hom requires complexes over the same algebra")
    X0, Y0 = X._base or X, Y._base or Y
    offset = Y._offset - X._offset
    if X0._hom_memo is None:
        X0._hom_memo = weakref.WeakKeyDictionary()
    pair = X0._hom_memo.get(Y0)
    if pair is None:
        pair = X0._hom_memo[Y0] = ({}, {})
    dims, ranks = pair
    out: Dict[int, int] = {}
    for n in degrees:
        m = n + offset
        h = dims.get(m)
        if h is None:
            size = _degree_size(X0, Y0, m)
            h = size - _rank(X0, Y0, m, ranks) - _rank(X0, Y0, m - 1, ranks) if size else 0
            if h < 0:
                raise InvariantError(f"negative Hom dimension {h} in degree {n}")
            dims[m] = h
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


def hom_table(X: ProjComplex, Y: ProjComplex) -> HomTable:
    """Graded Hom dimensions over the support window."""
    lo, hi = hom_window(X, Y)
    dims = {n: d for n, d in hom_dims(X, Y, range(lo, hi + 1)).items() if d}
    return HomTable((lo, hi), dims)


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
    sol = la.solve(d, rhs)
    if sol is None:
        return None
    return coords_h.to_entries(X, Y, -1, sol)


def homotopic(f: ChainMap, g: ChainMap) -> bool:
    return is_nullhomotopic(f - g) is not None


def lift_through(p: ChainMap, g: ChainMap) -> Optional[ChainMap]:
    """psi: X -> W with p . psi homotopic to g, for p: W -> Y, g: X -> Y."""
    if not p.target.same_shape(g.target):
        raise InputError("lift_through: targets differ")
    return _solve_up_to_homotopy(g.source, p.source, g, p, left=True)


def factor_through(w: ChainMap, g: ChainMap) -> Optional[ChainMap]:
    """chi: W -> Z with chi . w homotopic to g, for w: X -> W, g: X -> Z."""
    if not w.source.same_shape(g.source):
        raise InputError("factor_through: sources differ")
    return _solve_up_to_homotopy(w.target, g.target, g, w, left=False)


def _solve_up_to_homotopy(S: ProjComplex, T: ProjComplex, g: ChainMap,
                          fixed: ChainMap, left: bool) -> Optional[ChainMap]:
    """Chain map u: S -> T whose composite with the fixed map (fixed . u when
    left, else u . fixed) is homotopic to g.  With C that composite as a
    linear map of u, one solve of [[D_u, 0], [C, D_h]] (u, h) = (0, g)."""
    X, Y = g.source, g.target
    A = X.algebra
    coords_u = _MapCoords.build(S, T, 0)
    coords_g = _MapCoords.build(X, Y, 0)
    coords_h = _MapCoords.build(X, Y, -1)
    d_u = _hom_differential(S, T, 0, coords_u, _MapCoords.build(S, T, 1))
    d_h = _hom_differential(X, Y, -1, coords_h, coords_g)
    c = Mat.zeros(A.field, coords_g.total, coords_u.total)
    _compose_into(A, c.rows, coords_u, coords_g, fixed.comps, 0, left)
    system = la.vstack([
        la.hstack([d_u, Mat.zeros(A.field, d_u.nrows, coords_h.total)]),
        la.hstack([c, d_h])])
    sol = la.solve(system, [A.field.zero] * d_u.nrows + coords_g.from_map(g, 0))
    if sol is None:
        return None
    return ChainMap(S, T, coords_u.to_entries(S, T, 0, sol[:coords_u.total]))


# -- isomorphism testing -------------------------------------------------------


ISO_TRIALS = 40  # random combinations tried when neither side is a brick


@dataclass
class IsoResult:
    isomorphic: bool
    certified: bool
    witness: Optional[ChainMap] = None  # YES: Xm -> Ym, an isomorphism
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


def is_iso(X: ProjComplex, Y: ProjComplex,
           rng: Optional[_random.Random] = None) -> IsoResult:
    """Whether X and Y are isomorphic in the homotopy category.

    A YES carries as witness the chain map X_min -> Y_min between the
    minimal models that it found invertible (None when both are zero); no
    inverse is built.  A NO is certified when the minimal term profiles or
    the cohomology differ, when there is no chain map, or when X or Y is a
    brick (End = k).  Between minimal complexes a chain map is invertible
    iff its scalar profiles are, and when End is local the singular chain
    maps form a proper subspace, so some basis chain map is an isomorphism
    whenever one exists.  Only for two non-bricks is a NO found by random
    combinations: it is Monte Carlo, with its error bound in the note, or
    "inconclusive" when the field's sample set is too small for one.
    """
    if X.algebra is not Y.algebra:
        raise InputError("is_iso requires complexes over the same algebra")
    Xm = minimalize(X)[0]
    Ym = minimalize(Y)[0]
    if Xm.is_zero() and Ym.is_zero():
        return IsoResult(True, True, note="both contractible")
    if Xm.term_profile() != Ym.term_profile():
        return IsoResult(False, True, note="minimal term profiles differ")
    if cohomology_dims(Xm) != cohomology_dims(Ym):
        return IsoResult(False, True, note="cohomology dimensions differ")
    basis = chain_maps_basis(Xm, Ym, 0)
    if not basis:
        return IsoResult(False, True, note="no chain maps at all")
    fld = X.algebra.field
    coords = _MapCoords.build(Xm, Ym, 0)
    vecs = [coords.from_map(b, 0) for b in basis]

    def invertible(f_coords) -> Optional[ChainMap]:
        profs = _scalar_profile_matrices(f_coords, coords, Xm, Ym)
        if profs is None or any(la.rank(m) < m.nrows for m in profs.values()):
            return None
        return ChainMap(Xm, Ym, coords.to_entries(Xm, Ym, 0, f_coords))

    found = next(filter(None, map(invertible, vecs)), None)
    if found is None:
        if any(hom_dims(Z, Z, (0,))[0] == 1 for Z in (Xm, Ym)):
            return IsoResult(False, True, note="no basis chain map is invertible "
                                                "and End = k")
        rng = rng or _random.Random(0)
        for _ in range(ISO_TRIALS):
            f_coords = [fld.zero] * coords.total
            for c, v in zip([fld.rand(rng) for _ in vecs], vecs):
                for i, x in enumerate(v):
                    f_coords[i] = fld.add(f_coords[i], fld.mul(c, x))
            found = invertible(f_coords)
            if found:
                break
    if found is None:
        # Schwartz-Zippel: the determinant of the scalar profiles has degree
        # at most det_bound in the sampled coefficients
        det_bound, size = Xm.total_terms(), fld.sample_size
        if det_bound >= size:
            note = (f"inconclusive: no invertible chain map in {ISO_TRIALS} "
                    f"samples; {size} sample values are too few for an "
                    "error bound")
        else:
            note = (f"no invertible chain map in {ISO_TRIALS} samples; failure "
                    f"probability <= ({det_bound}/{size})^{ISO_TRIALS}")
        return IsoResult(False, False, note=note)
    # a chain map whose scalar profiles are invertible is an isomorphism
    # degreewise; check that on its module realization
    if any(la.rank(b) < b.nrows for F in realize_chain_map(found).values()
           for b in F if b.nrows):
        raise InvariantError("chain map with invertible scalar profiles "
                             "has a singular component")
    return IsoResult(True, True, witness=found, note="invertible chain map witness")


# -- chain maps with a corner-level constraint ---------------------------------


def solve_corner_constrained(src: ProjComplex, tgt: ProjComplex,
                             subset: Sequence[int],
                             Z: ProjComplex, Zreal: ModComplex,
                             R: Optional[Dict[int, ModMap]],
                             P: Optional[Dict[int, ModMap]], W: ModComplex,
                             Q: Dict[int, ModMap]) -> Optional[ChainMap]:
    """Chain map phi: src -> tgt with R . corner(phi) . P homotopic to Q.

    Z is a complex of projectives over the corner algebra whose realization
    is the domain of the constraint; R: Z -> corner(src) and P: corner(tgt)
    -> W are fixed module maps (None = identity), Q: Z -> W is the target.
    Vertex n of the corner algebra is subset[n] of the algebra, so every
    map involved is one block per n, and the constraint is one equation per
    entry of each block.  The homotopy runs through Hom(Z^k, W^{k-1}),
    parametrized by generators of the projective summands of Z (Yoneda).
    """
    A, B = src.algebra, W.algebra
    fld = A.field
    zero = fld.zero

    coords_phi = _MapCoords.build(src, tgt, 0)
    d_phi = _hom_differential(src, tgt, 0, coords_phi, _MapCoords.build(src, tgt, 1))

    # homotopy variables after those of phi: Hom_B(Z^k, W^{k-1}) through
    # the generators of the summands of Z (Yoneda), one per unit of W^{k-1}
    h_vars: List[Tuple[int, int, ModMap]] = []  # (k, summand of Z^k, map)
    for k, verts in Z.terms.items():
        Wk1 = W.module(k - 1)
        for s_idx, f_vert in enumerate(verts):
            width = len(Wk1.positions[f_vert])
            for q in range(width):
                unit = [fld.one if c == q else zero for c in range(width)]
                h_vars.append((k, s_idx, yoneda_map(B, Wk1, [(f_vert, unit)])))
    nphi = coords_phi.total
    nvars = nphi + len(h_vars)

    # the chain-map equations D(phi) = 0, then per degree k and vertex n one
    # equation per entry of the block of R corner(phi) P - (d h + h d) = Q
    rows = [list(r) + [zero] * len(h_vars) for r in d_phi.rows]
    rhs = [zero] * len(rows)
    eq_ids: Dict[Tuple[int, int], int] = {}
    for k in sorted(set(Z.terms) | set(Q.keys())):
        zk, wk, qk = Zreal.module(k), W.module(k), Q.get(k)
        for n, (pz, pw) in enumerate(zip(zk.positions, wk.positions)):
            if pz and pw:
                eq_ids[k, n] = len(rows)
                rows.extend([zero] * nvars for _ in range(len(pz) * len(pw)))
                rhs.extend(qk[n].rows[r][c] if qk is not None else zero
                           for r in range(len(pz)) for c in range(len(pw)))

    def add_block(k: int, n: int, r_off: int, c_off: int, block: Mat, var: int,
                  negate: bool = False):
        """Add +-block at (r_off, c_off) of the block at n of the degree-k
        constraint, as the coefficients of the variable var."""
        eq0, width = eq_ids[k, n], len(W.module(k).positions[n])
        for r, brow in enumerate(block.rows):
            for c, v in enumerate(brow):
                if v != zero:
                    row = rows[eq0 + (r_off + r) * width + c_off + c]
                    row[var] = fld.add(row[var], fld.neg(v) if negate else v)

    # phi contributions: R^k @ corner(phi)^k @ P^k, per vertex
    src_off = {k: summand_offsets(A, v) for k, v in src.terms.items()}
    tgt_off = {k: summand_offsets(A, v) for k, v in tgt.terms.items()}
    for (k, t, s, corner), off in zip(coords_phi.blocks, coords_phi.offsets):
        i, j = src.term(k)[s], tgt.term(k)[t]
        r_map = R.get(k) if R is not None else None
        p_map = P.get(k) if P is not None else None
        for n, v in enumerate(subset):
            src_rows, tgt_rows = A.corner_indices(i, v), A.corner_indices(j, v)
            if (k, n) not in eq_ids or not src_rows or not tgt_rows:
                continue
            s_lo, t_lo = src_off[k][s][v], tgt_off[k][t][v]
            for pos, belt in enumerate(corner):
                # left multiplication by the path belt: a 0/1 block
                prod = A.prod[belt]
                block = Mat(fld, [[fld.one if prod[b] == c else zero for c in tgt_rows]
                                  for b in src_rows], ncols=len(tgt_rows))
                if r_map is not None:
                    block = r_map[n].columns(s_lo, s_lo + len(src_rows)) @ block
                if p_map is not None:
                    block = block @ Mat(fld, p_map[n].rows[t_lo:t_lo + len(tgt_rows)],
                                        ncols=p_map[n].ncols)
                # without R (P) the block sits at the summand's rows (columns)
                add_block(k, n, s_lo if r_map is None else 0,
                          t_lo if p_map is None else 0, block, off + pos)

    # homotopy contributions: -(h^k @ d_W^{k-1}) at degree k and
    # -(d_Z^{k-1} @ h^k) at degree k-1, h^k nonzero on one summand's rows
    z_off = {k: summand_offsets(B, v) for k, v in Z.terms.items()}
    for var, (k, s_idx, hmap) in enumerate(h_vars, nphi):
        dW, dZ = W.diff(k - 1), Zreal.diff(k - 1)
        for n, h in enumerate(hmap):
            lo = z_off[k][s_idx][n]
            if not h.nrows:
                continue
            if dW is not None and (k, n) in eq_ids:
                add_block(k, n, lo, 0, h @ dW[n], var, negate=True)
            if dZ is not None and (k - 1, n) in eq_ids:
                add_block(k - 1, n, 0, 0, dZ[n].columns(lo, lo + h.nrows) @ h,
                          var, negate=True)

    sol = la.solve(Mat(fld, rows, ncols=nvars), rhs)
    if sol is None:
        return None
    return ChainMap(src, tgt, coords_phi.to_entries(src, tgt, 0, sol[:nphi]))


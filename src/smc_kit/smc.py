"""Simple-minded collections: validation, Filt membership, truncation,
gluing along a recollement (both routes), mutation, and the partial order.

Ordering convention for glued collections: the images of the quotient-side
objects come first, then one object per corner-side input, in input order.
Mutation indices refer to positions in this ordering; callers comparing
against a differently ordered collection should go through smc_iso.

Hom-vanishing conditions ("for all n < 0") are decided exhaustively: the
support window bounds every graded Hom space, and each report records the
window it used.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property
from typing import Dict, List, Literal, Optional, Sequence, Tuple

from . import exactla as la
from .algebra import Algebra
from .config import (
    DEFAULT_LIMITS,
    BoundExceeded,
    InputError,
    InvariantError,
    NotRigidError,
    SmcKitError,
)
from .homotopy import (
    ChainMap,
    ProjComplex,
    cocone,
    cone,
    compose,
    direct_sum,
    factor_through,
    hom_basis,
    hom_dims,
    hom_window,
    identity_map,
    is_contractible,
    is_iso,
    lift_through,
    minimalize,
    shift,
)
from .recollement import (
    RecollementSpec,
    canonical_theta,
    canonical_triangles,
    i_star,
    j_upper_shriek,
    resolved_simples,
)


@dataclass(frozen=True)
class Certificate:
    """Why the collection generates.  "glued" and "mutated" are issued only
    where their theorem applies (a validated recollement; a rigid object of
    a theorem-backed collection); any other collection is "user"."""

    kind: Literal["standard_simples", "glued", "mutated", "user"]
    detail: str = ""

    @property
    def theorem_backed(self) -> bool:
        return self.kind in ("standard_simples", "glued", "mutated")


@dataclass
class SMC:
    """An ordered candidate collection with its generation evidence."""

    algebra: Algebra
    objects: Tuple[ProjComplex, ...]
    certificate: Certificate = Certificate("user")
    names: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        for obj in self.objects:
            if obj.algebra is not self.algebra:
                raise InputError("smc object over the wrong algebra")

    def __len__(self):
        return len(self.objects)

    def shifted(self, n: int) -> "SMC":
        return SMC(self.algebra, tuple(shift(o, n) for o in self.objects),
                   Certificate(self.certificate.kind,
                               f"shift[{n}] of ({self.certificate.detail})"),
                   self.names)

    def euler_matrix(self) -> List[List[int]]:
        return [list(o.euler_class()) for o in self.objects]

    @cached_property
    def euler_det(self) -> Optional[int]:
        """Determinant of the matrix of alternating dimension-vector classes;
        None unless there are as many objects as vertices.  Computed once: a
        collection's objects never change."""
        if len(self.objects) != self.algebra.nvert:
            return None
        return la.det(self.euler_matrix())

    @property
    def euler_unimodular(self) -> bool:
        """Necessary condition for generation: the Euler determinant is +-1."""
        return self.euler_det in (1, -1)

    def name_of(self, i: int) -> str:
        if self.names and i < len(self.names):
            return self.names[i]
        return f"object {i}"


def standard_smc(A: Algebra) -> SMC:
    return SMC(A, tuple(resolved_simples(A)),
               Certificate("standard_simples", "heart simples"),
               tuple(f"S{A.vertex_labels[i]}" for i in range(A.nvert)))


@dataclass
class SmcReport:
    axiom1_ok: bool
    axiom3_ok: bool
    axiom1_failures: List[Tuple[int, int, int]]       # (i, j, dim at shift 0)
    axiom3_failures: List[Tuple[int, int, int, int]]  # (i, j, n, dim)
    euler_unimodular: bool
    euler_det: Optional[int]
    generation: str
    windows: Dict[Tuple[int, int], Tuple[int, int]]
    notes: List[str] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.axiom1_ok and self.axiom3_ok

    def to_dict(self):
        return {
            "axiom1_ok": self.axiom1_ok,
            "axiom3_ok": self.axiom3_ok,
            "axiom1_failures": self.axiom1_failures,
            "axiom3_failures": self.axiom3_failures,
            "euler_unimodular": self.euler_unimodular,
            "euler_det": self.euler_det,
            "generation": self.generation,
            "passed": self.passed,
            "windows": {f"{i},{j}": list(w) for (i, j), w in self.windows.items()},
            "notes": self.notes,
        }


def validate_smc(S: SMC) -> SmcReport:
    """Orthogonality and negative-vanishing checked exactly; generation is
    reported as certificate evidence plus the unimodular-Euler necessary check."""
    a1_fail, a3_fail = [], []
    windows = {}
    n_obj = len(S.objects)
    for i in range(n_obj):
        for j in range(n_obj):
            X, Y = S.objects[i], S.objects[j]
            windows[(i, j)] = hom_window(X, Y)
            dims = hom_dims(X, Y, range(windows[(i, j)][0], 1))
            d0 = dims.get(0, 0)
            expected = 1 if i == j else 0
            if d0 != expected:
                a1_fail.append((i, j, d0))
            for n, d in dims.items():
                if n < 0 and d:
                    a3_fail.append((i, j, n, d))
    det_int = S.euler_det
    unimodular = det_int in (1, -1)
    if S.certificate.theorem_backed:
        generation = f"theorem-backed ({S.certificate.kind})"
    elif unimodular:
        generation = "necessary check only (unimodular Euler matrix)"
    else:
        generation = "no evidence (Euler matrix not unimodular)"
    notes = ["negative-shift checks are exhaustive: Hom vanishes outside "
             "the recorded support windows"]
    return SmcReport(not a1_fail, not a3_fail, a1_fail, a3_fail,
                     unimodular, det_int, generation, windows, notes)


# -- Filt membership -------------------------------------------------------------


def _homs_vanish_up_to(X: ProjComplex, Y: ProjComplex, top: int) -> bool:
    """Hom(X, Y[n]) = 0 for every n <= top (exhaustive over the window)."""
    lo, hi = hom_window(X, Y)
    return not any(hom_dims(X, Y, range(lo, min(top, hi) + 1)).values())


def member_filt_geq(T: ProjComplex, objects: Sequence[ProjComplex], m: int = 0) -> bool:
    """T in Filt S[>= m], tested as Hom(T, S_i[k]) = 0 for all k <= m - 1."""
    if T.is_zero():
        return True
    return all(_homs_vanish_up_to(T, S_i, m - 1) for S_i in objects)


def member_filt_leq(T: ProjComplex, objects: Sequence[ProjComplex], m: int = 0) -> bool:
    """T in Filt S[<= m], tested as Hom(S_i[k], T) = 0 for all k >= m + 1."""
    if T.is_zero():
        return True
    # Hom(S_i[k], T) = Hom(S_i, T[-k])
    return all(_homs_vanish_up_to(S_i, T, -m - 1) for S_i in objects)


# -- truncation -------------------------------------------------------------------


@dataclass
class TruncationTriangle:
    """U -> T -> V -> U[1] relative to the aisle generated by the collection."""

    u_part: ProjComplex
    v_part: ProjComplex
    u_map: ChainMap                  # U -> T
    strip_log: List[Tuple[int, int]]  # (object index, shift stripped)


def truncate(T: ProjComplex, objects: Sequence[ProjComplex], threshold: int = 1,
             cap: int = DEFAULT_LIMITS.strip_cap) -> TruncationTriangle:
    """Strip topmost layers Hom(T, S_i[-b]) with b >= threshold.

    Always removes the largest b first; the output is unique up to
    isomorphism.  U lands in Filt S[>= 1 - threshold], V = cone(U -> T)
    in Filt S[<= -threshold].
    """
    current = T
    u_map = identity_map(T)
    log: List[Tuple[int, int]] = []
    steps = 0
    while True:
        best: Optional[Tuple[int, int]] = None
        for idx, S_i in enumerate(objects):
            lo, hi = hom_window(current, S_i)
            degrees = range(lo, min(hi + 1, 1 - threshold))
            for n, d in hom_dims(current, S_i, degrees).items():
                if d and (best is None or -n > best[0]):
                    best = (-n, idx)
        if best is None:
            break
        steps += 1
        if steps > cap:
            raise BoundExceeded(
                f"strip cap {cap} exceeded: object may lie outside the span "
                "or the collection violates the orthogonality axioms")
        b, idx = best
        log.append((idx, -b))
        C, p = cocone(hom_basis(current, objects[idx], -b)[0])
        Cm, c_from = minimalize(C)
        u_map = compose(compose(c_from, p), u_map)
        current = Cm
    V = cone(u_map)[0]
    if not member_filt_geq(current, objects, 1 - threshold):
        raise SmcKitError("truncation invariant failed: U outside the aisle")
    if not member_filt_leq(V, objects, -threshold):
        raise SmcKitError("truncation invariant failed: V outside the coaisle")
    return TruncationTriangle(current, V, u_map, log)


# -- gluing ----------------------------------------------------------------------


@dataclass
class GluingItem:
    y_index: int
    u_part: ProjComplex
    v_part: ProjComplex
    w: ProjComplex                      # minimal model of the new object
    second_triangle_ok: Optional[bool]  # octahedron companion, up to iso
    image_identities: Dict[str, bool] = dc_field(default_factory=dict)


@dataclass
class GluingReport:
    items: List[GluingItem]

    def all_verified(self) -> bool:
        return all(item.second_triangle_ok is not False and
                   all(item.image_identities.values()) for item in self.items)


def _check_side_inputs(S_X: SMC, S_Y: SMC, R: RecollementSpec):
    if S_X.algebra is not R.x_algebra:
        raise InputError("left input must live over the quotient algebra")
    if S_Y.algebra is not R.y_algebra:
        raise InputError("right input must live over the corner algebra")
    for side, S in (("quotient", S_X), ("corner", S_Y)):
        rep = validate_smc(S)
        if not rep.passed:
            raise SmcKitError(
                f"{side}-side input fails the orthogonality axioms: "
                f"{rep.axiom1_failures + rep.axiom3_failures}")


def _quotient_images(R: RecollementSpec, S_X: SMC) -> List[ProjComplex]:
    return [minimalize(i_star(R, X))[0] for X in S_X.objects]


def _glue(S_X: SMC, S_Y: SMC, R: RecollementSpec, new_item, deep: bool,
          rng: Optional[_random.Random], prefix: str,
          detail: str) -> Tuple[SMC, GluingReport]:
    """Both gluing routes: the quotient images, then one object per corner
    object, built by new_item(R, j, Y, images, deep, rng)."""
    rng = rng or _random.Random(0)
    _check_side_inputs(S_X, S_Y, R)
    images = _quotient_images(R, S_X)
    items = [_glued_item(R, new_item, j, Y, images, deep, rng)
             for j, Y in enumerate(S_Y.objects)]
    names = tuple(f"i({S_X.name_of(i)})" for i in range(len(S_X.objects))) + \
        tuple(f"{prefix}{j + 1}" for j in range(len(items)))
    # the gluing theorem applies only over a validated recollement
    out = SMC(R.algebra, tuple(images) + tuple(item.w for item in items),
              Certificate("glued" if R.validated else "user", detail), names)
    return out, GluingReport(items)


def _glued_item(R: RecollementSpec, new_item, j: int, Y: ProjComplex,
                images: List[ProjComplex], deep: bool, rng) -> GluingItem:
    """new_item(R, j, Y, images, deep, rng).  Without deep it draws nothing
    from rng, so it is made once per route and quotient images and kept in
    R._memo[Y] beside the functor values (it dies with Y); a hit made for
    another position j is restamped.  Items are never changed in place."""
    if deep:
        return new_item(R, j, Y, images, deep, rng)
    values = R._memo.setdefault(Y, {})
    key = (new_item, tuple(images))
    if key not in values:
        values[key] = new_item(R, j, Y, images, deep, rng)
    item = values[key]
    return item if item.y_index == j else replace(item, y_index=j)


def _w_item(R: RecollementSpec, j: int, Y: ProjComplex,
            images: List[ProjComplex], deep: bool, rng) -> GluingItem:
    """W_j = cone(U -> j_!(Y)), U the aisle part (threshold 1) of the
    cocone of theta; deep mode checks the companion triangle through j_*."""
    theta = canonical_theta(R, Y)
    C, p = cocone(theta)
    Cm, c_from = minimalize(C)
    p_min = compose(c_from, p)          # Cm -> j_!(Y)
    trunc = truncate(Cm, images, threshold=1)
    into = compose(trunc.u_map, p_min)  # U -> j_!(Y)
    W_full, v = cone(into)              # v: j_!(Y) -> W
    Wm = minimalize(W_full)[0]
    item = GluingItem(j, trunc.u_part, minimalize(trunc.v_part)[0], Wm, None)
    if deep:
        chi = factor_through(v, theta)  # W -> j_*(Y) over the triangle
        item.second_triangle_ok = chi is not None and bool(
            is_iso(cone(chi)[0], shift(item.v_part, 1), rng=rng))
        item.image_identities = _image_identities(R, Wm, Y, trunc, rng)
    return item


def _image_identities(R: RecollementSpec, Wm: ProjComplex, Y: ProjComplex,
                      trunc: TruncationTriangle, rng) -> Dict[str, bool]:
    out = {}
    out["j_shriek_w_is_y"] = bool(is_iso(j_upper_shriek(R, Wm), Y, rng=rng))
    tri = canonical_triangles(R, Wm)
    out["i_star_part_is_u_shift"] = bool(
        is_iso(tri.i_star_part, shift(trunc.u_part, 1), rng=rng))
    out["i_shriek_part_is_v"] = bool(
        is_iso(tri.i_shriek_part, trunc.v_part, rng=rng))
    return out


def _p_item(R: RecollementSpec, j: int, Y: ProjComplex,
            images: List[ProjComplex], deep: bool, rng) -> GluingItem:
    """P_j = cocone(j_*(Y) -> N), N = cone(U -> D) for U the aisle part
    (threshold 0) of D = cone(theta); deep mode checks the companion triangle
    through j_!.  Truncating the minimal model Dm and taking the cone over
    the equivalence Dm -> D gives the coaisle part up to isomorphism."""
    theta = canonical_theta(R, Y)
    D, v = cone(theta)                  # D = i_* i^* j_*(Y)
    Dm, d_from = minimalize(D)
    trunc = truncate(Dm, images, threshold=0)
    u_to_d = compose(trunc.u_map, d_from)  # U -> Dm -> D
    to_n = compose(v, cone(u_to_d)[1])     # j_*(Y) -> D -> N_j
    P_full, pmap = cocone(to_n)
    Pm = minimalize(P_full)[0]
    item = GluingItem(j, trunc.u_part, minimalize(trunc.v_part)[0], Pm, None)
    if deep:
        psi = lift_through(pmap, theta)  # j_!(Y) -> P over the cocone
        item.second_triangle_ok = psi is not None and bool(
            is_iso(cone(psi)[0], item.u_part, rng=rng))
    return item


def glue(S_X: SMC, S_Y: SMC, R: RecollementSpec, deep: bool = False,
         rng: Optional[_random.Random] = None) -> Tuple[SMC, GluingReport]:
    """New collection (i_*(X_1..m), W_1..n) via truncation of i_*i^! j_!(Y_j)."""
    return _glue(S_X, S_Y, R, _w_item, deep, rng, "W", "truncated corner route")


def glue_dual(S_X: SMC, S_Y: SMC, R: RecollementSpec, deep: bool = False,
              rng: Optional[_random.Random] = None) -> Tuple[SMC, GluingReport]:
    """Dual route through j_*: objects (i_*(X_1..m), P_1..n)."""
    return _glue(S_X, S_Y, R, _p_item, deep, rng, "P", "dual route through j_*")


# -- mutation --------------------------------------------------------------------


@dataclass
class MutationStep:
    multiplicities: Dict[int, int]


def _approximation(basis: Sequence[ChainMap], S_i: ProjComplex,
                   left: bool) -> ChainMap:
    """The approximation S_l[-1] -> S_i^d (left) or S_i^d -> S_l[1] (right)
    of the d maps in basis, into or out of direct_sum([S_i] * d): their
    components stacked, rows (left) or columns (right), one summand after
    another."""
    S_d = direct_sum([S_i] * len(basis))
    degrees = set().union(*(f.comps for f in basis))
    if left:
        comps = {k: [row for f in basis for row in f.component(k)]
                 for k in degrees}
        return ChainMap(basis[0].source, S_d, comps, validate=False)
    comps = {k: [[e for row in rows for e in row]
                 for rows in zip(*(f.component(k) for f in basis))]
             for k in degrees}
    return ChainMap(S_d, basis[0].target, comps, validate=False)


def mutate(S: SMC, i: int, direction: Literal["left", "right"],
           force: bool = False) -> Tuple[SMC, MutationStep]:
    """Left: S_i into S_i[1], others into cones of minimal approximations
    S_l[-1] -> S_i^{d}; right is the dual with cocones.  Requires S_i rigid
    (Hom(S_i, S_i[1]) = 0) unless forced."""
    if direction not in ("left", "right"):
        raise InputError(f"mutation direction must be left or right, got {direction!r}")
    if not 0 <= i < len(S.objects):
        raise InputError(f"mutation index {i} out of range")
    rigid = is_rigid(S, i)
    if not rigid and not force:
        raise NotRigidError(
            f"object {i} has self-extensions in degree 1; pass force to "
            "mutate anyway (the result need not satisfy the axioms)")
    left = direction == "left"
    S_i = S.objects[i]
    new_objects: List[ProjComplex] = []
    mults: Dict[int, int] = {}
    for l, S_l in enumerate(S.objects):
        if l == i:
            new_objects.append(shift(S_i, 1 if left else -1))
            continue
        basis = (hom_basis(shift(S_l, -1), S_i, 0) if left
                 else hom_basis(S_i, shift(S_l, 1), 0))
        mults[l] = len(basis)
        if not basis:
            new_objects.append(S_l)
            continue
        approx = _approximation(basis, S_i, left)
        C = cone(approx)[0] if left else cocone(approx)[0]
        new_objects.append(minimalize(C)[0])
    sign = "+" if left else "-"
    # the mutation theorem needs a rigid object of a theorem-backed collection
    kind = "mutated" if rigid and S.certificate.theorem_backed else "user"
    out = SMC(S.algebra, tuple(new_objects),
              Certificate(kind, f"mu{sign}_{i} of ({S.certificate.detail})"),
              S.names)
    return out, MutationStep(mults)


# -- partial order and iso -------------------------------------------------------


def dominates(S: SMC, T: SMC) -> bool:
    """S >= T: Hom(T_i, S_j[s]) = 0 for all s < 0 (exhaustive windows)."""
    return all(_homs_vanish_up_to(T_i, S_j, -1)
               for T_i in T.objects for S_j in S.objects)


def compare(S: SMC, T: SMC, rng: Optional[_random.Random] = None) -> str:
    """'equal', 'geq' (S >= T), 'leq', or 'incomparable'."""
    if S.algebra is not T.algebra:
        raise InputError("collections over different algebras")
    if len(S) != len(T):
        raise InputError("cardinality mismatch")
    fwd = dominates(S, T)
    bwd = dominates(T, S)
    if fwd and bwd:
        if not smc_iso(S, T, rng=rng):
            # mutual dominance forces isomorphism only between collections
            if S.certificate.theorem_backed and T.certificate.theorem_backed:
                raise InvariantError(
                    "mutually dominating collections must be isomorphic")
            raise SmcKitError(
                "the inputs dominate each other but are not isomorphic, so "
                "one of them is not a simple-minded collection")
        return "equal"
    if fwd:
        return "geq"
    if bwd:
        return "leq"
    return "incomparable"


def _has_perfect_matching(adj: Sequence[Sequence[bool]]) -> bool:
    """Whether the n x n bipartite graph adj[a][b] has a perfect matching,
    by augmenting paths (Kuhn's algorithm, O(n^3))."""
    n = len(adj)
    owner: List[Optional[int]] = [None] * n  # right vertex b -> matched a

    def augment(a: int, seen: List[bool]) -> bool:
        for b in range(n):
            if adj[a][b] and not seen[b]:
                seen[b] = True
                if owner[b] is None or augment(owner[b], seen):
                    owner[b] = a
                    return True
        return False

    return all(augment(a, [False] * n) for a in range(n))


def smc_iso(S: SMC, T: SMC, rng: Optional[_random.Random] = None) -> bool:
    """Objectwise isomorphism up to permutation.  Certified in both
    directions when the objects are bricks, as in any collection that
    passes axiom 1.

    is_iso runs only on the pairs whose minimal term profiles agree, in
    row-major order: every other pair is a certified NO of is_iso that
    draws nothing from rng, so the pairs it does run draw what they would
    draw among all n^2."""
    if S.algebra is not T.algebra or len(S) != len(T):
        return False
    rng = rng or _random.Random(0)
    n = len(S)
    s_prof, t_prof = ([minimalize(X)[0].term_profile() for X in C.objects]
                      for C in (S, T))
    candidates = [[s_prof[a] == t_prof[b] for b in range(n)] for a in range(n)]
    if not all(map(any, candidates)):
        return False  # an object of S with no partner of its profile
    adj = [[cand and bool(is_iso(S.objects[a], T.objects[b], rng=rng))
            for b, cand in enumerate(row)] for a, row in enumerate(candidates)]
    return _has_perfect_matching(adj)


def is_rigid(S: SMC, i: int) -> bool:
    return hom_dims(S.objects[i], S.objects[i], (1,))[1] == 0


def is_glued_type_candidate(S: SMC, R: RecollementSpec) -> bool:
    """Necessary condition for arising from a gluing: some object has
    contractible corner image.  Requires both outer sides nonzero."""
    if R.x_algebra.dim == 0 or R.y_algebra.dim == 0:
        raise InputError("glued-type test needs both outer categories nonzero")
    return any(is_contractible(j_upper_shriek(R, T)) for T in S.objects)

"""Recollements induced by an idempotent of a finite-dimensional algebra.

From (A, e) we form the outer algebras A/AeA and eAe and realize the six
functors on bounded complexes of projectives:

* j_! embeds corner projectives termwise (exact, no re-resolution);
* j^! takes the e-corner of each term and resolves over eAe;
* i_* restricts along A ->> A/AeA and resolves over A;
* j_* dualizes, resolves over (eAe)^op, transports along the corner
  embedding of the opposite algebras, dualizes back, and resolves over A;
* i^! and i^* exist only through the canonical triangles: i_*i^! is the
  cocone of the unit T -> j_* j^! T and i_* i^* the cone of the counit
  j_! j^! T -> T, both obtained by solving for a chain map whose corner
  is homotopic to the comparison map of the resolution.

Validation is sample-based: the functor identities are checked on the
simples of the outer algebras and recorded in a report; a spec that fails
them is returned unvalidated rather than rejected.

i_*, j_* and theta are memoized per spec, keyed by the input complex
object (an entry dies with its input), as are the gluing items of
smc.glue and smc.glue_dual without deep; resolve_module keeps each
module's resolution; the simples, projectives and injectives are cached per
algebra, so the validation checks, both gluing routes and the standard
collections all reach the same complexes and share every functor value.
This is sound only because complexes and modules are never changed in
place, and no caller writes into a returned value (a JStarData's maps, a
gluing item, a module's arrow or path blocks, or their rows).
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import Algebra, ModMap, Module, Vec, global_dimension, projective_dimension
from .config import DEFAULT_LIMITS, BoundExceeded, InputError, InvariantError, SmcKitError
from .exactla import Mat
from .homotopy import (
    ChainMap,
    ModComplex,
    ProjComplex,
    cocone,
    cone,
    corner_of_proj_complex,
    dual_mod_complex,
    hom_table,
    is_contractible,
    is_iso,
    module_realization,
    resolve_complex,
    resolve_module,
    zero_complex,
)
from .homotopy.complexes import stalk
from .homotopy.homs import solve_corner_constrained


@dataclass
class CheckItem:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class RecollementReport:
    gldim_middle: Optional[int] = None
    gldim_quotient: Optional[int] = None
    gldim_corner: Optional[int] = None
    gldim_corner_op: Optional[int] = None
    pd_quotient_over_middle: Optional[int] = None
    checks: List[CheckItem] = dc_field(default_factory=list)
    validated: bool = False
    notes: List[str] = dc_field(default_factory=list)


@dataclass
class RecollementSpec:
    algebra: Algebra
    subset: Tuple[int, ...]
    x_algebra: Algebra
    x_proj: Tuple[Optional[int], ...]
    y_algebra: Algebra
    y_embed: Tuple[int, ...]
    report: RecollementReport
    pd_bound: int = DEFAULT_LIMITS.pd_bound
    # input complex -> {functor: value}, filled by the _per_spec functors
    _memo: weakref.WeakKeyDictionary = dc_field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False,
        compare=False)

    @property
    def validated(self) -> bool:
        return self.report.validated


def _per_spec(functor):
    """functor(spec, X), computed once per spec and input complex object;
    a call that raises stores no value."""
    @functools.wraps(functor)
    def memoized(spec: RecollementSpec, X: ProjComplex):
        values = spec._memo.setdefault(X, {})
        if functor not in values:
            values[functor] = functor(spec, X)
        return values[functor]
    return memoized


def build_recollement(A: Algebra, subset: Sequence[int], *,
                      pd_bound: int = DEFAULT_LIMITS.pd_bound) -> RecollementSpec:
    """The recollement of A at the idempotent of subset, sample-validated.

    pd_bound bounds every projective dimension resolved: the global
    dimensions of A, A/AeA and eAe, the dimension of A/AeA over A, and each
    resolution the six functors take; exceeding it raises BoundExceeded.
    """
    subset = tuple(sorted(set(subset)))
    for i in subset:
        if not 0 <= i < A.nvert:
            raise InputError(f"idempotent index {i} out of range")
    y_alg, y_embed = A.corner(subset)
    x_alg, x_proj = A.quotient(subset)
    report = RecollementReport()
    report.gldim_middle = global_dimension(A, pd_bound)
    report.gldim_quotient = global_dimension(x_alg, pd_bound)
    report.gldim_corner = global_dimension(y_alg, pd_bound)
    # left and right global dimension agree for a finite-dimensional algebra
    # (Auslander, Nagoya Math. J. 9, 1955), so (eAe)^op needs no resolution
    report.gldim_corner_op = report.gldim_corner
    for label, value in (("middle", report.gldim_middle),
                         ("quotient", report.gldim_quotient),
                         ("corner", report.gldim_corner)):
        if value is None:
            raise BoundExceeded(
                f"global dimension of the {label} algebra exceeds {pd_bound}")
    spec = RecollementSpec(A, subset, x_alg, x_proj, y_alg, y_embed,
                           report, pd_bound=pd_bound)
    if x_alg.dim:
        pds = []
        for i in range(x_alg.nvert):
            m = _quotient_module_over_middle(spec, x_alg.projective_module(i))
            pd = projective_dimension(m, pd_bound)
            if pd is None:
                raise BoundExceeded("projective dimension of the quotient "
                                    f"algebra over the middle exceeds {pd_bound}")
            pds.append(pd)
        report.pd_quotient_over_middle = max(pds)
    report.notes.append(
        "validation is sample-based (simples of the outer algebras); a pass "
        "does not prove the recollement axioms in general")
    _run_sample_checks(spec, resolved_simples(x_alg, pd_bound),
                       resolved_simples(y_alg, pd_bound))
    return spec


def _quotient_module_over_middle(spec: RecollementSpec, M: Module) -> Module:
    """Restrict a module over A/AeA to a module over A along the projection:
    an arrow of A acts by the block of its image, or by zero inside AeA."""
    A, proj = spec.algebra, spec.x_proj
    vertex = {proj[v]: v for v in range(A.nvert) if proj[v] is not None}
    dims = [0 if proj[v] is None else len(M.positions[proj[v]]) for v in range(A.nvert)]
    blocks = [Mat.zeros(A.field, dims[A.source[a]], dims[A.target[a]])
              if proj[a] is None else M.action(proj[a]) for a in A.arrow_indices]
    return Module(A, [vertex[w] for w in M.weights], blocks)


# -- the six functors ----------------------------------------------------------


@_per_spec
def i_star(spec: RecollementSpec, X: ProjComplex) -> ProjComplex:
    """Restriction along A ->> A/AeA followed by projective resolution."""
    if X.algebra is not spec.x_algebra:
        raise InputError("i_star expects a complex over the quotient algebra")
    if X.is_zero():
        return zero_complex(spec.algebra)
    real = module_realization(X)
    terms = {k: _quotient_module_over_middle(spec, m) for k, m in real.terms.items()}
    # a vertex of A/AeA keeps its coordinates; one inside AeA has none
    A, proj = spec.algebra, spec.x_proj
    diffs = {k: tuple(Mat.zeros(A.field, 0, 0) if proj[v] is None else d[proj[v]]
                      for v in range(A.nvert)) for k, d in real.diffs.items()}
    C = ModComplex(A, terms, diffs, validate=False)
    P, _ = resolve_complex(C, pd_bound=spec.pd_bound)
    return P


def j_lower_shriek(spec: RecollementSpec, Y: ProjComplex) -> ProjComplex:
    """Termwise corner embedding: f(eAe) becomes f A, same differentials."""
    if Y.algebra is not spec.y_algebra:
        raise InputError("j_lower_shriek expects a complex over the corner algebra")
    if Y.is_zero():
        return zero_complex(spec.algebra)
    return _embed_complex(spec, Y, spec.algebra)


def _embed_complex(spec: RecollementSpec, Y: ProjComplex,
                   algebra: Algebra) -> ProjComplex:
    """A complex over eAe (or (eAe)^op = e A^op e) as one over A (or A^op):
    each corner projective f(eAe) becomes fA, differentials keep their entries."""
    terms = {k: tuple(spec.subset[v] for v in verts) for k, verts in Y.terms.items()}
    diffs = {}
    for k, d in Y.diffs.items():
        diffs[k] = [[_embed_vec(spec, e) for e in row] for row in d]
    return ProjComplex(algebra, terms, diffs)


def _embed_vec(spec: RecollementSpec, vec: Vec) -> Vec:
    return {spec.y_embed[i]: c for i, c in vec.items()}


def corner_complex(spec: RecollementSpec, T: ProjComplex) -> ModComplex:
    """T e as a complex of eAe-modules."""
    return corner_of_proj_complex(T, spec.y_algebra, spec.y_embed, spec.subset)


def j_upper_shriek_full(spec: RecollementSpec, T: ProjComplex
                        ) -> Tuple[ProjComplex, Dict[int, ModMap]]:
    """(Z, q) with Z over eAe minimal and q: realization(Z) -> corner(T) a
    degreewise comparison quasi-isomorphism."""
    if T.algebra is not spec.algebra:
        raise InputError("j_upper_shriek expects a complex over the middle algebra")
    if T.is_zero() or spec.y_algebra.dim == 0:
        return zero_complex(spec.y_algebra), {}
    C = corner_complex(spec, T)
    return resolve_complex(C, pd_bound=spec.pd_bound)


def j_upper_shriek(spec: RecollementSpec, T: ProjComplex) -> ProjComplex:
    return j_upper_shriek_full(spec, T)[0]


@dataclass(frozen=True)
class JStarData:
    cplx: ProjComplex
    # W = dual of the opposite-side resolution; the canonical corner model
    W: ModComplex
    P: Dict[int, ModMap]    # corner(realization of cplx) -> W
    Q: Dict[int, ModMap]    # realization of the input -> W


@_per_spec
def j_lower_star_full(spec: RecollementSpec, Y: ProjComplex) -> JStarData:
    """RHom along the corner: injective coresolution over eAe transported
    termwise to injectives over A, then resolved back to projectives."""
    if Y.algebra is not spec.y_algebra:
        raise InputError("j_lower_star expects a complex over the corner algebra")
    A, B = spec.algebra, spec.y_algebra
    if Y.is_zero():
        return JStarData(zero_complex(A), ModComplex(B, {}, {}, validate=False),
                         {}, {})
    y_real = module_realization(Y)
    dy = dual_mod_complex(y_real)                      # over B^op
    r_b, q_b = resolve_complex(dy, pd_bound=spec.pd_bound)  # proj over B^op
    j_op = _embed_complex(spec, r_b, A.op())            # proj over A^op
    inj = dual_mod_complex(module_realization(j_op))    # injectives over A
    res, q_i = resolve_complex(inj, pd_bound=spec.pd_bound)
    W = dual_mod_complex(module_realization(r_b))      # over B, the corner model
    # The dual basis of inj is indexed by the realization basis of the
    # opposite projectives, so at each vertex subset[n] its coordinates are
    # those of W at n (target in A^op = source in A).  That corner must be W
    # on the nose (same coordinates, same differentials); everything
    # downstream relies on it.
    sub = spec.subset
    for k in inj.terms:
        if [len(inj.terms[k].positions[v]) for v in sub] != \
                [len(p) for p in W.module(k).positions]:
            raise InvariantError("corner model misaligned with dual resolution")
    for k, d in W.diffs.items():
        if tuple(inj.diff(k)[v] for v in sub) != d:
            raise InvariantError("corner of the injective complex drifted from W")
    P = {k: tuple(q[v] for v in sub) for k, q in q_i.items()}
    Q = {m: tuple(b.transpose() for b in q_b[-m]) for m in y_real.terms if -m in q_b}
    return JStarData(res, W, P, Q)


def j_lower_star(spec: RecollementSpec, Y: ProjComplex) -> ProjComplex:
    return j_lower_star_full(spec, Y).cplx


@_per_spec
def canonical_theta(spec: RecollementSpec, Y: ProjComplex) -> ChainMap:
    """theta: j_!(Y) -> j_*(Y) whose corner is the canonical comparison;
    its cocone realizes i_* i^! j_!(Y) and its cone i_* i^* j_*(Y)."""
    src = j_lower_shriek(spec, Y)
    data = j_lower_star_full(spec, Y)
    y_real = module_realization(Y)
    theta = solve_corner_constrained(src, data.cplx, spec.subset, Y, y_real,
                                     None, data.P, data.W, data.Q)
    if theta is None:
        raise SmcKitError(
            "no chain map with the canonical corner behaviour: functor "
            "implementation inconsistency (should not happen on validated specs)")
    return theta


@dataclass
class CanonicalTriangles:
    i_shriek_part: ProjComplex   # i_*i^!(T), cocone of the unit T -> j_*j^!(T)
    i_star_part: ProjComplex     # i_*i^*(T), cone of the counit j_!j^!(T) -> T


def canonical_triangles(spec: RecollementSpec, T: ProjComplex) -> CanonicalTriangles:
    A = spec.algebra
    Z, q_t = j_upper_shriek_full(spec, T)
    corner_t = corner_complex(spec, T)
    z_real = module_realization(Z)
    if Z.is_zero():
        jz = zero_complex(A)
        counit = ChainMap(jz, T, {})
        star = zero_complex(A)
        unit = ChainMap(T, star, {})
    else:
        jz = j_lower_shriek(spec, Z)
        counit = solve_corner_constrained(jz, T, spec.subset, Z, z_real,
                                          None, None, corner_t, q_t)
        if counit is None:
            raise SmcKitError("counit system unsolvable: functor inconsistency")
        data = j_lower_star_full(spec, Z)
        star = data.cplx
        unit = solve_corner_constrained(T, star, spec.subset, Z, z_real,
                                        q_t, data.P, data.W, data.Q)
        if unit is None:
            raise SmcKitError("unit system unsolvable: functor inconsistency")
    cone_counit, _ = cone(counit)
    cocone_unit, _ = cocone(unit)
    return CanonicalTriangles(cocone_unit, cone_counit)


# -- validation ----------------------------------------------------------------


def resolved_simples(alg: Algebra,
                     pd_bound: int = DEFAULT_LIMITS.pd_bound) -> List[ProjComplex]:
    """The simple modules of alg as minimal complexes of projectives."""
    return [resolve_module(alg.simple_module(i), pd_bound)
            for i in range(alg.nvert)]


def _run_sample_checks(spec: RecollementSpec, x_simples: List[ProjComplex],
                       y_simples: List[ProjComplex]):
    import random
    rng = random.Random(0)
    report = spec.report
    checks = report.checks
    for idx, Ys in enumerate(y_simples):
        r = is_iso(j_upper_shriek(spec, j_lower_shriek(spec, Ys)), Ys, rng=rng)
        checks.append(CheckItem(f"j^! j_! = id on corner simple {idx}",
                                bool(r), r.note))
        r = is_iso(j_upper_shriek(spec, j_lower_star(spec, Ys)), Ys, rng=rng)
        checks.append(CheckItem(f"j^! j_* = id on corner simple {idx}",
                                bool(r), r.note))
    images = []
    for idx, Xs in enumerate(x_simples):
        img = i_star(spec, Xs)
        images.append(img)
        ok = is_contractible(j_upper_shriek(spec, img))
        checks.append(CheckItem(f"j^! i_* = 0 on quotient simple {idx}", ok))
    for a in range(len(x_simples)):
        for b in range(len(x_simples)):
            tx = hom_table(x_simples[a], x_simples[b])
            tt = hom_table(images[a], images[b])
            ok = tx.dims == tt.dims
            checks.append(CheckItem(
                f"i_* fully faithful on quotient simples ({a},{b})", ok,
                "" if ok else f"{tx.dims} vs {tt.dims}"))
    for i in range(min(spec.algebra.nvert, 2)):
        T = stalk(spec.algebra, i)
        try:
            tri = canonical_triangles(spec, T)
            ok = True
            detail = ""
        except SmcKitError as exc:
            ok, detail = False, str(exc)
        checks.append(CheckItem(f"canonical triangles solvable at P_{i}", ok, detail))
    report.validated = all(c.ok for c in checks)

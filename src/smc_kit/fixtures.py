"""The two built-in worked examples and randomized instance generators.

* a2: the hereditary quiver 1 -> 2 with the idempotent at vertex 1; both
  outer algebras are the ground field, P_1 is projective-injective, and
  every object of the bounded homotopy category is a sum of shifts of
  S_1, S_2, P_1.
* two_cycle: arrows alpha: 2 -> 1 and beta: 1 -> 2 with the cycle at
  vertex 1 killed; e = e_1 gives corner and quotient both equal to the
  ground field while the algebra itself has global dimension 2.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .algebra import Algebra, Quiver, linear_quiver
from .config import DEFAULT_LIMITS, BoundExceeded, SmcKitError
from .exactla import DEFAULT_PRIME, Field, get_field
from .homotopy import ProjComplex, resolve_module
from .homotopy.complexes import stalk
from .recollement import RecollementSpec, build_recollement
from .smc import SMC, standard_smc


@dataclass
class Fixture:
    name: str
    algebra: Algebra
    spec: RecollementSpec
    complexes: Dict[str, ProjComplex]
    x_smc: SMC
    y_smc: SMC
    standard: SMC


def _named_objects(A: Algebra, pd_bound: int) -> Dict[str, ProjComplex]:
    out: Dict[str, ProjComplex] = {}
    for i in range(A.nvert):
        lab = A.vertex_labels[i]
        out[f"S{lab}"] = resolve_module(A.simple_module(i), pd_bound)
        out[f"P{lab}"] = stalk(A, i)
        out[f"I{lab}"] = resolve_module(A.injective_module(i), pd_bound)
    return out


def _make_fixture(name: str, A: Algebra, subset: Tuple[int, ...], pd_bound: int) -> Fixture:
    spec = build_recollement(A, subset, pd_bound=pd_bound)
    if not spec.validated:
        raise SmcKitError(f"fixture {name} failed recollement validation")
    return Fixture(name, A, spec, _named_objects(A, pd_bound),
                   standard_smc(spec.x_algebra), standard_smc(spec.y_algebra),
                   standard_smc(A))


def a2_fixture(field=DEFAULT_PRIME, pd_bound: int = DEFAULT_LIMITS.pd_bound) -> Fixture:
    f = get_field(field)
    A = Algebra.from_quiver(f, Quiver(("1", "2"), (("a", "1", "2"),)))
    return _make_fixture("a2", A, (0,), pd_bound)


def two_cycle_fixture(field=DEFAULT_PRIME,
                      pd_bound: int = DEFAULT_LIMITS.pd_bound) -> Fixture:
    f = get_field(field)
    q = Quiver(("1", "2"), (("alpha", "2", "1"), ("beta", "1", "2")))
    A = Algebra.from_quiver(f, q, relations=[("beta", "alpha")])
    return _make_fixture("two_cycle", A, (0,), pd_bound)


def random_monomial_linear_algebra(field: Field, rng: _random.Random,
                                   max_vertices: int = 4) -> Algebra:
    """Path algebra of a linear quiver with random monomial relations."""
    n = rng.randint(2, max_vertices)
    q = linear_quiver(n)
    arrows = [a[0] for a in q.arrows]
    rels = []
    for start in range(len(arrows) - 1):
        if rng.random() < 0.35:
            length = rng.randint(2, min(3, len(arrows) - start))
            rels.append(tuple(arrows[start:start + length]))
    return Algebra.from_quiver(field, q, relations=rels)


def random_recollement(field: Field, rng: _random.Random,
                       max_vertices: int = 4, attempts: int = 40
                       ) -> Optional[RecollementSpec]:
    """A validated random recollement on a small linear/Nakayama-type
    algebra, or None when none of the attempts validates."""
    for _ in range(attempts):
        try:
            A = random_monomial_linear_algebra(field, rng, max_vertices)
            nv = A.nvert
            size = rng.randint(1, nv - 1)
            subset = tuple(sorted(rng.sample(range(nv), size)))
            spec = build_recollement(A, subset)
        except (BoundExceeded, SmcKitError):
            continue
        if spec.validated:
            return spec
    return None

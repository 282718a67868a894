"""Finite-dimensional basic algebras and their finite-dimensional modules.

Algebras come from a quiver with monomial relations: the basis is the set
of surviving paths, and corners eAe, quotients A/AeA and opposites inherit
a basis of paths.  The product of two basis paths is another basis path or
zero, so multiplication is the int table ``prod[i][j] = k`` for
``b_i*b_j = b_k``, or ``-1`` for zero.  Conventions, fixed once here and
relied on everywhere downstream:

* paths compose left to right: ``a*b`` traverses the arrow ``a`` first,
  so ``a*b`` is defined when target(a) = source(b);
* modules are right modules stored as quiver representations: the basis
  vectors of weight ``v`` are ``positions[v]``, and a basis element ``b``
  from ``s`` to ``t`` acts by the ``d_s x d_t`` matrix ``action(b)`` on
  their coordinates, ``x -> x @ action(b)`` for a row ``x`` of weight ``s``;
* a map of right modules M -> N is a ``ModMap``: one ``d_v(M) x d_v(N)``
  block per vertex v, over the coordinates in ``positions[v]`` order.  It
  multiplies on the right of row vectors, so the composite "f then g" is
  ``compose_maps(F, G)``, the blockwise ``F_v @ G_v``;
* Hom(e_i A, e_j A) = e_j A e_i acting by left multiplication;
* an element of A (a ``Vec``) is a dict from basis indices to coefficients
  that stores no zero coefficient, so ``{}`` is zero and ``==`` is equality
  of elements.  An element is never changed in place once built: helpers
  may return one of their arguments, and entry matrices share them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import exactla as la
from .config import DEFAULT_LIMITS, BoundExceeded, InputError, InvariantError, PdBoundExceeded
from .exactla import Element, Field, Mat

Vec = Dict[int, Element]  # an element: {basis index: nonzero coefficient}
ModMap = Tuple[Mat, ...]  # a module map: one block per vertex


# Characters of the element and object grammars; a label containing one
# would be read as a different element or object.
LABEL_FORBIDDEN = "+-*/[]:"


@dataclass(frozen=True)
class Quiver:
    vertices: Tuple[str, ...]
    arrows: Tuple[Tuple[str, str, str], ...]  # (label, source, target)

    def __post_init__(self):
        for lab in self.vertices + tuple(a[0] for a in self.arrows):
            if not lab or any(ch in LABEL_FORBIDDEN or ch.isspace() for ch in lab):
                raise InputError(f"label {lab!r} is empty or contains one of "
                                 f"{LABEL_FORBIDDEN!r} or whitespace")
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate vertex labels")
        labels = [a[0] for a in self.arrows]
        for lab in filter(_is_number, labels):
            raise InputError(f"arrow label {lab!r} reads as a number")
        if len(set(labels)) != len(labels):
            raise InputError("duplicate arrow labels")
        for lab, s, t in self.arrows:
            if s not in self.vertices or t not in self.vertices:
                raise InputError(f"arrow {lab}: undeclared vertex")
            if lab in self.vertices:
                raise InputError(f"arrow label {lab} clashes with a vertex")

    def vertex_index(self, v: str) -> int:
        try:
            return self.vertices.index(v)
        except ValueError:
            raise InputError(f"unknown vertex {v!r}") from None


def linear_quiver(n: int) -> Quiver:
    """1 -> 2 -> ... -> n with arrows a1, ..., a(n-1)."""
    verts = tuple(str(i + 1) for i in range(n))
    arrows = tuple((f"a{i + 1}", verts[i], verts[i + 1]) for i in range(n - 1))
    return Quiver(verts, arrows)


class Algebra:
    """Basic algebra with a corner-homogeneous multiplicative basis.

    basis element b satisfies e_{source[b]} * b = b = b * e_{target[b]};
    the first nvert basis elements are the primitive idempotents, the rest
    span the radical.  prod[i][j] is the index of b_i * b_j, or -1 when the
    product is zero.
    """

    def __init__(self, field: Field, vertex_labels: Sequence[str],
                 basis_labels: Sequence[str], source: Sequence[int],
                 target: Sequence[int], prod: Sequence[Sequence[int]],
                 validate: bool = True):
        self.field = field
        self.vertex_labels = tuple(vertex_labels)
        self.nvert = len(self.vertex_labels)
        self.basis_labels = tuple(basis_labels)
        self.dim = len(self.basis_labels)
        self.source = tuple(source)
        self.target = tuple(target)
        self.prod = tuple(tuple(row) for row in prod)
        self._label_index = {lab: i for i, lab in enumerate(self.basis_labels)}
        self._corner_cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._corner_dims: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._op: Optional[Algebra] = None
        self._arrows: Optional[Tuple[int, ...]] = None
        self._factors: Optional[Tuple[Optional[Tuple[int, int]], ...]] = None
        self._module_cache: Dict[Tuple, object] = {}  # modules, layouts
        if validate:
            self.validate()

    # -- basic structure ---------------------------------------------------

    @property
    def radical_indices(self) -> range:
        return range(self.nvert, self.dim)

    @property
    def arrow_indices(self) -> Tuple[int, ...]:
        """Radical basis elements that are not a product of two radical ones
        (the arrows, for a path algebra), read off the product table."""
        if self._arrows is None:
            # b * c is zero unless c starts where b ends, so only those
            # products are formed
            starting_at: List[List[int]] = [[] for _ in range(self.nvert)]
            for c in self.radical_indices:
                starting_at[self.source[c]].append(c)
            products = {self.prod[b][c] for b in self.radical_indices
                        for c in starting_at[self.target[b]]}
            self._arrows = tuple(b for b in self.radical_indices if b not in products)
        return self._arrows

    @property
    def path_factors(self) -> Tuple[Optional[Tuple[int, int]], ...]:
        """(prefix, last arrow) with b = prefix * arrow for each radical basis
        element b, read off prod layer by layer from the arrows, whose prefix
        is their source idempotent; None for an idempotent.  Each prefix is
        found before the paths it factors, so following prefixes ends."""
        if self._factors is None:
            factors: List[Optional[Tuple[int, int]]] = [None] * self.dim
            layer = list(self.arrow_indices)
            for a in layer:
                factors[a] = (self.source[a], a)
            while layer:
                nxt = []
                for p in layer:
                    row = self.prod[p]
                    for a in self.arrow_indices:
                        k = row[a]
                        if k >= 0 and factors[k] is None:
                            factors[k] = (p, a)
                            nxt.append(k)
                layer = nxt
            if None in factors[self.nvert:]:
                raise InputError("the radical is not generated by the arrows")
            self._factors = tuple(factors)
        return self._factors

    def zero_vec(self) -> Vec:
        return {}

    def basis_vec(self, i: int) -> Vec:
        return {i: self.field.one}

    def add_vec(self, x: Vec, y: Vec) -> Vec:
        if not x:
            return y  # elements are never mutated, so sharing one is safe
        if not y:
            return x
        add = self.field.add
        out = dict(x)
        for i, c in y.items():
            c = add(out.pop(i), c) if i in out else c
            if c:
                out[i] = c
        return out

    def sub_vec(self, x: Vec, y: Vec) -> Vec:
        return self.add_vec(x, self.neg_vec(y))

    def neg_vec(self, x: Vec) -> Vec:
        neg = self.field.neg
        return {i: neg(c) for i, c in x.items()}

    def mul_vec(self, x: Vec, y: Vec) -> Vec:
        f = self.field
        acc: Vec = {}
        for i, xi in x.items():
            row = self.prod[i]
            for j, yj in y.items():
                k = row[j]
                if k >= 0:
                    acc[k] = f.add(acc[k], f.mul(xi, yj)) if k in acc else f.mul(xi, yj)
        return {k: c for k, c in acc.items() if c}

    def products(self, x: Vec, basis: Sequence[int], pos: Dict[int, int],
                 left: bool):
        """Triples (i, j, c): the coefficient c of the path a in x sends the
        path basis[i] to the path k with pos[k] = j, as a*b (left) or b*a
        (right); products landing outside pos are dropped."""
        prod = self.prod
        for a, c in x.items():
            row = prod[a]
            for i, b in enumerate(basis):
                k = row[b] if left else prod[b][a]
                if k >= 0:
                    j = pos.get(k)
                    if j is not None:
                        yield i, j, c

    def corner_indices(self, i: int, j: int) -> Tuple[int, ...]:
        """Basis indices of e_i A e_j (source i, target j)."""
        key = (i, j)
        if key not in self._corner_cache:
            self._corner_cache[key] = tuple(
                b for b in range(self.dim)
                if self.source[b] == i and self.target[b] == j)
        return self._corner_cache[key]

    @property
    def corner_dims(self) -> Tuple[Tuple[int, ...], ...]:
        """corner_dims[i][j] = len(corner_indices(i, j)), for every pair of
        vertices from one pass over the basis."""
        if self._corner_dims is None:
            dims = [[0] * self.nvert for _ in range(self.nvert)]
            for i, j in zip(self.source, self.target):
                dims[i][j] += 1
            self._corner_dims = tuple(map(tuple, dims))
        return self._corner_dims

    def is_radical_vec(self, x: Vec) -> bool:
        return all(i >= self.nvert for i in x)

    def invert_in_corner(self, x: Vec, vertex: int) -> Vec:
        """Inverse of x in the local algebra e_v A e_v; x must be a unit.
        A unit is lam*(e_v + r) with lam nonzero and r radical, hence
        nilpotent, so its inverse is the finite series lam^-1 sum_i (-r)^i."""
        f = self.field
        lam = x.get(vertex)
        if not lam:
            raise InputError("element is not invertible in its corner")
        y = term = {vertex: f.inv(lam)}
        neg_r = {b: f.neg(f.mul(c, y[vertex])) for b, c in x.items() if b != vertex}
        for _ in range(self.dim):  # r^dim = 0
            term = self.mul_vec(term, neg_r)
            if not term:
                break
            y = self.add_vec(y, term)
        if self.mul_vec(x, y) != {vertex: f.one}:
            raise InvariantError("corner inverse does not invert")
        return y

    def parse_element(self, text: str) -> Vec:
        """Linear combination string, e.g. '2*alpha + beta*alpha - 3*e_1'."""
        f = self.field
        acc: Vec = {}
        text = text.strip()
        if text in ("0", ""):
            return acc
        # split into signed terms; consecutive signs multiply, and every
        # sign needs a term after it
        terms = []
        cur, sign = "", 1
        for ch in text:
            if ch in "+-":
                if cur.strip():
                    terms.append((sign, cur.strip()))
                    cur, sign = "", 1
                sign = sign if ch == "+" else -sign
            else:
                cur += ch
        if not cur.strip():
            raise InputError(f"sign without a term in {text!r}")
        terms.append((sign, cur.strip()))
        for sign, term in terms:
            parts = [p.strip() for p in term.split("*")]
            coeff = f.from_int(sign)
            start = 0
            if parts and _is_number(parts[0]):
                num = parts[0]
                if "/" in num:
                    a, b = num.split("/")
                    den = f.from_int(int(b))
                    if den == f.zero:
                        raise InputError(f"zero denominator in {term!r} over {f}")
                    coeff = f.mul(coeff, f.mul(f.from_int(int(a)), f.inv(den)))
                else:
                    coeff = f.mul(coeff, f.from_int(int(num)))
                start = 1
            label = "*".join(parts[start:])
            if label not in self._label_index:
                raise InputError(f"unknown basis label {label!r}")
            b = self._label_index[label]
            acc[b] = f.add(acc.get(b, f.zero), coeff)
        return {b: c for b, c in acc.items() if c}

    def element_str(self, x: Vec) -> str:
        f = self.field
        parts = []
        for i, c in sorted(x.items()):
            if c == f.one:
                parts.append(self.basis_labels[i])
            else:
                parts.append(f"{c}*{self.basis_labels[i]}")
        return " + ".join(parts) if parts else "0"

    # -- validation ----------------------------------------------------------

    def validate(self):
        """Structural check of the product table in O(dim^2).

        Associativity and nilpotence of the radical are not checked: the
        table comes from concatenating paths of a finite path basis (see
        from_quiver), which guarantees both, and corners, quotients and
        opposites inherit them.
        """
        if self.dim == 0:
            if self.nvert != 0:
                raise InputError("zero algebra cannot have vertices")
            return
        if not (len(self.source) == len(self.target) == len(self.prod) == self.dim) \
                or any(len(row) != self.dim for row in self.prod):
            raise InputError("source/target/product table size mismatch")
        if not set(self.source) | set(self.target) <= set(range(self.nvert)):
            raise InputError("basis element outside the vertex corners")
        for i in range(self.nvert):
            if self.source[i] != i or self.target[i] != i:
                raise InputError("idempotent e_i must sit in corner (i, i)")
            for j in range(self.nvert):
                if self.prod[i][j] != (i if i == j else -1):
                    raise InputError("idempotents not orthogonal")
        for b, row in enumerate(self.prod):
            if self.prod[self.source[b]][b] != b:
                raise InputError(f"basis {b} not left-homogeneous")
            if row[self.target[b]] != b:
                raise InputError(f"basis {b} not right-homogeneous")
            for c, k in enumerate(row):
                if k == -1:
                    continue
                if not (0 <= k < self.dim and self.target[b] == self.source[c]
                        and self.source[k] == self.source[b]
                        and self.target[k] == self.target[c]):
                    raise InputError(f"product of basis {b} and {c} is not "
                                     "corner-homogeneous")
                if k < self.nvert <= min(b, c):
                    raise InputError("radical not an ideal")

    # -- constructions -------------------------------------------------------

    @classmethod
    def zero_algebra(cls, field: Field) -> "Algebra":
        return cls(field, (), (), (), (), [], validate=False)

    @classmethod
    def from_quiver(cls, field: Field, quiver: Quiver,
                    relations: Sequence[Sequence[str]] = (),
                    path_cap: int = 4096) -> "Algebra":
        """Path algebra modulo monomial relations (paths of length >= 2)."""
        nv = len(quiver.vertices)
        arrow_src = [quiver.vertex_index(a[1]) for a in quiver.arrows]
        arrow_tgt = [quiver.vertex_index(a[2]) for a in quiver.arrows]
        arrow_idx = {a[0]: i for i, a in enumerate(quiver.arrows)}
        rels: List[Tuple[int, ...]] = []
        for rel in relations:
            if len(rel) < 2:
                raise InputError("relations must be paths of length >= 2")
            try:
                path = tuple(arrow_idx[lab] for lab in rel)
            except KeyError as exc:
                raise InputError(f"unknown arrow in relation: {exc}") from None
            for u, v in zip(path, path[1:]):
                if arrow_tgt[u] != arrow_src[v]:
                    raise InputError(f"relation {'*'.join(rel)} is not a path")
            rels.append(path)
        rel_set = set(rels)
        max_rel = max((len(r) for r in rels), default=0)

        def dies(path: Tuple[int, ...]) -> bool:
            # only suffix windows can become a relation after one extension
            for ln in range(2, min(max_rel, len(path)) + 1):
                if path[-ln:] in rel_set:
                    return True
            return False

        paths: List[Tuple[int, ...]] = [() for _ in range(nv)]
        src = list(range(nv))
        tgt = list(range(nv))
        alive: List[Tuple[Tuple[int, ...], int, int]] = [
            ((a,), arrow_src[a], arrow_tgt[a]) for a in range(len(quiver.arrows))]
        while alive:
            for p, s, t in alive:
                paths.append(p)
                src.append(s)
                tgt.append(t)
            if len(paths) > path_cap:
                raise BoundExceeded(
                    f"path algebra exceeds {path_cap} basis paths; "
                    "infinite-dimensional or raise path_cap")
            nxt = []
            for p, s, t in alive:
                for a in range(len(quiver.arrows)):
                    if arrow_src[a] != t:
                        continue
                    q = p + (a,)
                    if not dies(q):
                        nxt.append((q, s, arrow_tgt[a]))
            alive = nxt

        index_of = {}
        labels = []
        starting_at: List[List[int]] = [[] for _ in range(nv)]
        for i, p in enumerate(paths):
            labels.append("*".join(quiver.arrows[a][0] for a in p) if p
                          else f"e_{quiver.vertices[i]}")
            index_of[(p, src[i])] = i
            starting_at[src[i]].append(i)

        # a concatenation missing from the basis hits a relation: product 0
        prod = [[-1] * len(paths) for _ in paths]
        for i, p in enumerate(paths):
            row = prod[i]
            for j in starting_at[tgt[i]]:
                row[j] = index_of.get((p + paths[j], src[i]), -1)
        if len(set(labels)) != len(labels):
            dup = next(lab for lab in labels if labels.count(lab) > 1)
            raise InputError(f"basis label {dup!r} names two basis paths")
        return cls(field, quiver.vertices, labels, src, tgt, prod)

    def op(self) -> "Algebra":
        """Opposite algebra; shares the basis index set, op().op() is self."""
        if self._op is None:
            opp = Algebra(self.field, self.vertex_labels, self.basis_labels,
                          self.target, self.source, zip(*self.prod),
                          validate=False)
            opp._op = self
            self._op = opp
        return self._op

    def _restrict(self, vertices: Sequence[int], keep: Sequence[int]) -> "Algebra":
        """The algebra on the basis subset keep, products outside it zero."""
        vert_new = {v: k for k, v in enumerate(vertices)}
        pos = {b: k for k, b in enumerate(keep)}
        prod = [[pos.get(self.prod[b][c], -1) for c in keep] for b in keep]
        return Algebra(self.field, [self.vertex_labels[v] for v in vertices],
                       [self.basis_labels[b] for b in keep],
                       [vert_new[self.source[b]] for b in keep],
                       [vert_new[self.target[b]] for b in keep],
                       prod, validate=False)

    def corner(self, subset: Sequence[int]) -> Tuple["Algebra", Tuple[int, ...]]:
        """eAe for e = sum of the selected idempotents, with basis embedding."""
        subset = sorted(set(subset))
        for i in subset:
            if not 0 <= i < self.nvert:
                raise InputError(f"vertex index {i} out of range")
        if not subset:
            return Algebra.zero_algebra(self.field), ()
        keep = [b for b in range(self.dim)
                if self.source[b] in subset and self.target[b] in subset]
        return self._restrict(subset, keep), tuple(keep)

    def quotient(self, subset: Sequence[int]) -> Tuple["Algebra", Tuple[Optional[int], ...]]:
        """A/AeA for e = sum of selected idempotents, with basis projection."""
        subset = sorted(set(subset))
        for i in subset:
            if not 0 <= i < self.nvert:
                raise InputError(f"vertex index {i} out of range")
        if not subset:
            return self, tuple(range(self.dim))
        # AeA is spanned by the basis paths b * e_i * c through a selected vertex
        in_ideal = set()
        for i in subset:
            for b in range(self.dim):
                left = self.prod[b][i]
                if left >= 0:
                    in_ideal.update(k for k in self.prod[left] if k >= 0)
        keep = [b for b in range(self.dim) if b not in in_ideal]
        vert_keep = [v for v in range(self.nvert) if v not in in_ideal]
        pos = {b: k for k, b in enumerate(keep)}
        proj: List[Optional[int]] = [pos.get(b) for b in range(self.dim)]
        return self._restrict(vert_keep, keep), tuple(proj)

    # -- distinguished modules ------------------------------------------------

    def projective_module(self, i: int) -> "Module":
        key = ("proj", i)
        if key not in self._module_cache:
            f = self.field
            idx = [b for b in range(self.dim) if self.source[b] == i]
            ending_at: List[List[int]] = [[] for _ in range(self.nvert)]
            for b in idx:
                ending_at[self.target[b]].append(b)
            # the block of a: s -> t sends the path b ending at s to b * a
            blocks = []
            for a in self.arrow_indices:
                cols = ending_at[self.target[a]]
                blocks.append(Mat(f, [[f.one if c == self.prod[b][a] else f.zero
                                       for c in cols] for b in ending_at[self.source[a]]],
                                  ncols=len(cols)))
            self._module_cache[key] = Module(self, [self.target[b] for b in idx],
                                             blocks, basis_in_algebra=tuple(idx))
        return self._module_cache[key]

    def projective_layout(self, i: int) -> Tuple[Tuple[int, ...], List[int], Dict]:
        """(basis, rows, place) for P_i = e_i A: its paths, the row of each
        within the block at the vertex where it ends, and place[path] =
        (that vertex, that row)."""
        key = ("layout", i)
        if key not in self._module_cache:
            P = self.projective_module(i)
            basis = P.basis_in_algebra
            place = {basis[r]: (v, n)
                     for v, pv in enumerate(P.positions) for n, r in enumerate(pv)}
            self._module_cache[key] = (basis, [place[b][1] for b in basis], place)
        return self._module_cache[key]

    def simple_module(self, i: int) -> "Module":
        key = ("simple", i)
        if key not in self._module_cache:
            f = self.field
            self._module_cache[key] = Module(
                self, (i,), [Mat.zeros(f, int(self.source[a] == i), int(self.target[a] == i))
                             for a in self.arrow_indices])
        return self._module_cache[key]

    def injective_module(self, i: int) -> "Module":
        # dual of the left projective A e_i, computed through the opposite algebra
        key = ("inj", i)
        if key not in self._module_cache:
            self._module_cache[key] = dual_module(self.op().projective_module(i))
        return self._module_cache[key]

    def __repr__(self):
        return f"Algebra(dim={self.dim}, vertices={list(self.vertex_labels)})"


def _is_number(s: str) -> bool:
    """Whether s is an integer or a fraction p/q that int() can read."""
    s = s.strip()
    body = s[1:] if s[:1] in ("+", "-") else s
    parts = body.split("/")
    return len(parts) <= 2 and all(p.isdecimal() for p in parts)


class Module:
    """Finite-dimensional right module as a quiver representation.

    weights[r] is the vertex of the basis vector r, and positions[v] lists
    the basis vectors of weight v in ascending order; write d_v for its
    length.  blocks holds one d_s x d_t matrix per arrow s -> t of
    Algebra.arrow_indices: the arrow's map from the coordinates at s to
    those at t, in row convention.  action derives every other basis
    element.

    A module is never changed in place: no caller writes into the rows of
    its blocks, and the memoised path blocks and the resolution kept by
    homotopy.resolve.resolve_module are sound only because of that.
    """

    def __init__(self, algebra: Algebra, weights: Sequence[int],
                 blocks: Sequence[Mat],
                 basis_in_algebra: Optional[Tuple[int, ...]] = None):
        self.algebra = algebra
        self.weights: Tuple[int, ...] = tuple(weights)
        positions: List[List[int]] = [[] for _ in range(algebra.nvert)]
        for r, w in enumerate(self.weights):
            if not 0 <= w < algebra.nvert:
                raise InputError("module weight is not a vertex")
            positions[w].append(r)
        self.positions: Tuple[Tuple[int, ...], ...] = tuple(map(tuple, positions))
        self.blocks: Tuple[Mat, ...] = tuple(blocks)
        self.basis_in_algebra = basis_in_algebra
        self._paths: Dict[int, Mat] = dict(zip(algebra.arrow_indices, self.blocks))
        self._resolution = None  # set by resolve_module

    @property
    def dim(self) -> int:
        return len(self.weights)

    def action(self, b: int) -> Mat:
        """The d_s x d_t matrix of the basis element b from s to t: the
        identity for an idempotent, the product of its arrow blocks for a
        path."""
        A = self.algebra
        if b < A.nvert and b not in self._paths:
            self._paths[b] = Mat.identity(A.field, len(self.positions[b]))
        return _along_prefixes(A, b, self._paths, lambda m, a: m @ self._paths[a])

    def validate(self):
        """Each arrow s -> t has a d_s x d_t block, and every path times an
        arrow acts as their product (zero for -1); as the arrows generate
        the radical, the product table then holds on all pairs.  The
        weights are checked on construction."""
        A = self.algebra
        if len(self.blocks) != len(A.arrow_indices):
            raise InputError("need one block per arrow")
        for a, m in zip(A.arrow_indices, self.blocks):
            shape = (len(self.positions[A.source[a]]), len(self.positions[A.target[a]]))
            if m.shape != shape:
                raise InputError(f"arrow {A.basis_labels[a]} has a block of shape "
                                 f"{m.shape}, its vertices have dimensions {shape}")
        for c in range(A.dim):
            for a in A.arrow_indices:
                if A.target[c] != A.source[a]:
                    continue  # the product is zero and so is its action
                k = A.prod[c][a]
                got = self.action(c) @ self.action(a)
                if not (got == self.action(k) if k >= 0 else got.is_zero()):
                    raise InputError(f"action violates the product table at ({c},{a})")

    def __repr__(self):
        return f"Module(dim={self.dim} over {self.algebra!r})"


def _along_prefixes(A: Algebra, b: int, memo: Dict, step):
    """memo[b], filling memo down the prefix chain of b (A.path_factors)
    with memo[p * a] = step(memo[p], a)."""
    chain = []
    while b not in memo:
        chain.append(b)
        b = A.path_factors[b][0]
    for c in reversed(chain):
        p, a = A.path_factors[c]
        memo[c] = step(memo[p], a)
    return memo[chain[0] if chain else b]


def yoneda_map(A: Algebra, target: Module, gens: Sequence[Tuple[int, Sequence]]) -> ModMap:
    """The module map from the sum of the projectives P_i, for (i, v) in
    gens, to target that sends the generator of each P_i to v, a vector in
    the coordinates of target at vertex i.  The path p * a goes to the image
    of p times the block of a, a row of the block at the target vertex of a."""
    rows: List[List] = [[] for _ in range(A.nvert)]
    for i, v in gens:
        memo = {i: list(v)}
        for b in A.projective_module(i).basis_in_algebra:
            rows[A.target[b]].append(
                _along_prefixes(A, b, memo, lambda r, a: la.vec_mat(r, target.action(a))))
    return tuple(Mat(A.field, r, ncols=len(p)) for r, p in zip(rows, target.positions))


def compose_maps(F: ModMap, G: ModMap) -> ModMap:
    """The module map "F then G", one product per vertex."""
    return tuple(f @ g for f, g in zip(F, G))


def map_rank(F: ModMap) -> int:
    """Rank of a module map: the sum of the ranks of its blocks."""
    return sum(la.rank(b) for b in F if b.nrows and b.ncols)


def top_generators(M: Module, rows: Optional[Sequence[Sequence]] = None,
                   known: Optional[Sequence[Sequence]] = None) -> List[Tuple[int, List]]:
    """The generators of the projective cover of the submodule N of M
    spanned by rows, or of M itself when rows is None, modulo the submodule
    spanned by the known rows, as (vertex, row) pairs.

    rows and known hold, per vertex v, rows in the coordinates of M at v.
    rows must be linearly independent and span a submodule (the blocks of a
    kernel basis of a module map are both); known spans one inside N.  The
    generators are the rows that lift a basis of the top modulo known,
    picked per vertex in ascending order and, within a vertex, in the order
    of rows (of the identity, for M itself).

    Everything happens at one vertex at a time, in the coordinates of that
    vertex.  The radical of the submodule N at a vertex t is spanned by the
    images of the rows at s under the blocks of the arrows s -> t: a radical
    path p = q*r with q, r radical gives N*p inside N*r, and following
    right factors from p ends at an arrow a, since p = x*p with x radical
    would make p zero (the radical is nilpotent).  So every N*p lies in some
    N*a.
    """
    A, f = M.algebra, M.algebra.field
    local = rows if rows is not None else \
        [Mat.identity(f, len(pv)).rows if pv else [] for pv in M.positions]
    images: List[List] = [[] for _ in range(A.nvert)]
    for a, block in zip(A.arrow_indices, M.blocks):
        at_s = local[A.source[a]]
        # only a vertex with candidate rows needs its radical
        if at_s and block.ncols and local[A.target[a]]:
            images[A.target[a]].extend(
                block.rows if rows is None else (Mat(f, at_s) @ block).rows)
    gens = []
    for v, cand in enumerate(local):
        # A row is picked iff it is outside the span of the radical, the
        # known rows and the rows picked before it, i.e. iff its column is a
        # pivot column of [radical, known, candidates] at v, taken as
        # columns: every row when neither is there, as the rows are independent.
        picked = range(len(cand))
        before = images[v] + list(known[v]) if known else images[v]
        if cand and before:
            stacked = before + list(cand)
            pivots = la.rref(Mat(f, [list(col) for col in zip(*stacked)],
                                 ncols=len(stacked))).pivots
            picked = [j - len(before) for j in pivots if j >= len(before)]
        gens.extend((v, cand[j]) for j in picked)
    return gens


def cover_kernel_dims(cover: ModMap, dims: Sequence[int],
                      known: Optional[Sequence[Sequence]] = None) -> List[int]:
    """The dimension of the kernel of a cover map at each vertex, after
    checking that its image there, with the known rows at v (see
    top_generators) appended to its rows, spans dims[v] dimensions: all of
    the covered submodule."""
    if known:
        cover = [Mat(b.field, b.rows + list(kn), ncols=b.ncols) for b, kn in zip(cover, known)]
    ranks = [la.rank(b) if b.nrows and b.ncols else 0 for b in cover]
    if ranks != list(dims):
        raise InvariantError("cover and known rows do not span the covered submodule")
    return [b.nrows - r for b, r in zip(cover, ranks)]


def zero_module(A: Algebra) -> Module:
    return Module(A, (), [Mat.zeros(A.field, 0, 0) for _ in A.arrow_indices])


def direct_sum_modules(A: Algebra, mods: Sequence[Module]) -> Module:
    """Direct sum.  The positions of each summand stay contiguous, so each
    arrow's block is block-diagonal over the summands."""
    if len(mods) == 1:
        return mods[0]  # a module is never changed in place
    z = A.field.zero
    widths = [[len(p) for p in m.positions] for m in mods]
    totals = [sum(w[v] for w in widths) for v in range(A.nvert)]
    blocks = []
    for n, a in enumerate(A.arrow_indices):
        t = A.target[a]
        rows, before = [], 0
        for m, w in zip(mods, widths):
            after = totals[t] - before - w[t]
            rows.extend([z] * before + r + [z] * after for r in m.blocks[n].rows)
            before += w[t]
        blocks.append(Mat(A.field, rows, ncols=totals[t]))
    return Module(A, [w for m in mods for w in m.weights], blocks)


def projectives_module(A: Algebra, verts: Sequence[int]) -> Module:
    return direct_sum_modules(A, [A.projective_module(i) for i in verts])


def dual_module(M: Module) -> Module:
    """Right module over the opposite algebra on the dual space; the
    opposite has the same arrows, each reversed and acting by the transpose
    of its block."""
    return Module(M.algebra.op(), M.weights, [m.transpose() for m in M.blocks])


def projective_dimension(M: Module, bound: int = DEFAULT_LIMITS.pd_bound) -> Optional[int]:
    """Length of the minimal projective resolution of M; None past bound.
    Any other BoundExceeded (the summand cap) propagates: it says nothing
    about the length."""
    from .homotopy.resolve import resolve_module  # resolve imports this module
    if M.dim == 0:
        return 0
    try:
        return -min(resolve_module(M, bound).terms)
    except PdBoundExceeded:
        return None


def global_dimension(A: Algebra, bound: int = DEFAULT_LIMITS.pd_bound) -> Optional[int]:
    """Max projective dimension over the simples; None when the bound is hit
    (see projective_dimension)."""
    if A.dim == 0:
        return 0
    worst = 0
    for i in range(A.nvert):
        pd = projective_dimension(A.simple_module(i), bound)
        if pd is None:
            return None
        worst = max(worst, pd)
    return worst

import contextlib
import io
import itertools
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, seed, settings
import hypothesis.strategies as st

import gen
from smc_kit import algebra as alg
from smc_kit import exactla as la
from smc_kit.cli import main
from smc_kit.config import BoundExceeded, InputError, InvariantError
from smc_kit.exactla import Mat, PrimeField, RationalField
from smc_kit.fixtures import random_monomial_linear_algebra
from smc_kit.homotopy import (
    ProjComplex,
    cohomology_dims,
    corner_of_proj_complex,
    module_realization,
    resolve_module,
)
from smc_kit.homotopy.resolve import realize_entry_matrix
from smc_kit.recollement import _quotient_module_over_middle

FP = PrimeField(32003)
QQ = RationalField()


def a2(field=FP):
    q = alg.Quiver(("1", "2"), (("a", "1", "2"),))
    return alg.Algebra.from_quiver(field, q)


def two_cycle(field=FP):
    # alpha: 2 -> 1, beta: 1 -> 2, and the cycle at vertex 1 vanishes
    q = alg.Quiver(("1", "2"), (("alpha", "2", "1"), ("beta", "1", "2")))
    return alg.Algebra.from_quiver(field, q, relations=[("beta", "alpha")])


def test_a2_dimension():
    A = a2()
    assert A.dim == 3
    assert A.basis_labels == ("e_1", "e_2", "a")


def test_two_cycle_dimension():
    A = two_cycle()
    assert A.dim == 5
    assert set(A.basis_labels) == {"e_1", "e_2", "alpha", "beta", "alpha*beta"}


def test_single_vertex_is_field():
    q = alg.Quiver(("v",), ())
    A = alg.Algebra.from_quiver(FP, q)
    assert A.dim == 1 and A.nvert == 1


def test_cycle_without_relations_errors():
    q = alg.Quiver(("1", "2"), (("x", "1", "2"), ("y", "2", "1")))
    with pytest.raises(BoundExceeded):
        alg.Algebra.from_quiver(FP, q, path_cap=64)


def test_one_loop_without_relations_exceeds_path_cap():
    # every round of path extension adds a path, so the cap on basis paths
    # is what stops an infinite-dimensional path algebra
    q = alg.Quiver(("v",), (("x", "v", "v"),))
    with pytest.raises(BoundExceeded, match="exceeds 8 basis paths"):
        alg.Algebra.from_quiver(FP, q, path_cap=8)


def test_default_path_cap_is_4096():
    # with no path_cap given, a one-loop quiver stops at the default cap
    q = alg.Quiver(("v",), (("x", "v", "v"),))
    with pytest.raises(BoundExceeded, match="exceeds 4096 basis paths"):
        alg.Algebra.from_quiver(FP, q)


def test_relation_must_be_path():
    q = alg.Quiver(("1", "2"), (("x", "1", "2"),))
    with pytest.raises(InputError):
        alg.Algebra.from_quiver(FP, q, relations=[("x", "x")])
    with pytest.raises(InputError):
        alg.Algebra.from_quiver(FP, q, relations=[("x",)])


def test_multiplication_convention():
    A = two_cycle()
    beta = A.parse_element("beta")
    alpha = A.parse_element("alpha")
    # beta then alpha is the killed cycle at vertex 1
    assert A.mul_vec(beta, alpha) == {}
    # alpha then beta survives as the cycle at vertex 2
    assert A.element_str(A.mul_vec(alpha, beta)) == "alpha*beta"


def test_corner_algebra():
    A = two_cycle()
    B, embed = A.corner([0])
    assert B.dim == 1  # e A e is one-dimensional
    full, embed_full = A.corner([0, 1])
    assert full.dim == A.dim and embed_full == tuple(range(A.dim))
    A2 = a2()
    B2, _ = A2.corner([0])
    assert B2.dim == 1


def test_quotient_algebra():
    A = two_cycle()
    Q, proj = A.quotient([0])
    assert Q.dim == 1
    assert proj[A.basis_labels.index("e_2")] is not None
    A2 = a2()
    Q2, _ = A2.quotient([0])
    assert Q2.dim == 1
    same, proj_same = A2.quotient([])
    assert same is A2 and proj_same == tuple(range(A2.dim))


def test_projectives_and_simples():
    A = a2()
    P1, P2 = A.projective_module(0), A.projective_module(1)
    assert P1.dim == 2
    assert P2.dim == 1
    for i in range(A.nvert):
        assert A.simple_module(i).dim == 1


def test_injective_duality_dimension():
    for build in (a2, two_cycle):
        A = build()
        for i in range(A.nvert):
            left_proj_dim = len([b for b in range(A.dim) if A.target[b] == i])
            assert A.injective_module(i).dim == left_proj_dim


def test_module_validation():
    A = a2()
    for i in range(A.nvert):
        A.projective_module(i).validate()
        A.simple_module(i).validate()
        A.injective_module(i).validate()


def test_yoneda_dimension_formula():
    # dim Hom(P_i, M) = dim M e_i
    for build in (a2, two_cycle):
        A = build()
        mods = [A.simple_module(0), A.projective_module(0), A.injective_module(1)]
        for M in mods:
            for i in range(A.nvert):
                homs = gen.module_hom_space(A.projective_module(i), M)
                assert len(homs) == len(M.positions[i])


def test_hom_spaces_paper_algebra():
    A = two_cycle()
    S2 = A.simple_module(1)
    eA = A.projective_module(0)  # e = e_1
    I1 = A.injective_module(0)
    assert len(gen.module_hom_space(S2, eA)) >= 1
    assert len(gen.module_hom_space(I1, S2)) >= 1
    for i in range(2):
        for j in range(2):
            expected = 1 if i == j else 0
            assert len(gen.module_hom_space(A.simple_module(i), A.simple_module(j))) == expected


def test_projective_resolutions():
    A = a2()
    assert dict(resolve_module(A.projective_module(0)).terms) == {0: (0,)}
    assert dict(resolve_module(A.simple_module(0)).terms) == {0: (0,), -1: (1,)}
    B = two_cycle()
    for i in range(B.nvert):
        assert cohomology_dims(resolve_module(B.simple_module(i))) == {0: 1}


def test_global_dimension():
    q = alg.Quiver(("v",), ())
    assert alg.global_dimension(alg.Algebra.from_quiver(FP, q)) == 0
    assert alg.global_dimension(a2()) == 1
    gd = alg.global_dimension(two_cycle())
    assert gd is not None and gd == 2


def test_resolution_minimality():
    # the differentials land in the radical: as path entries, and on the
    # realization, where each image row lies in the radical of its target
    B = two_cycle()
    for i in range(B.nvert):
        P = resolve_module(B.simple_module(i))
        assert P.is_minimal()
        real = module_realization(P)
        for k, d in real.diffs.items():
            rad = _radical_rows(real.terms[k + 1])
            for row in gen.dense_map(real.terms[k], real.terms[k + 1], d).rows:
                grown = Mat(B.field, rad.rows + [row], ncols=rad.ncols)
                assert la.rank(grown) == rad.nrows, \
                    "differential does not land in the radical"


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([FP, PrimeField(2), QQ]), st.sampled_from([0, 1, 2, 3, 16]),
       st.randoms(use_true_random=False))
def test_projective_dimension_against_kernel_cover_reference(field, bound, rng):
    A = rng.choice([gen.two_cycle_algebra, gen.self_injective_cycle_algebra,
                    lambda f: random_monomial_linear_algebra(f, rng, max_vertices=4)])(field)
    subset = rng.sample(range(A.nvert), rng.randint(1, A.nvert - 1))
    for B in (A, A.op(), A.corner(subset)[0], A.quotient(subset)[0]):
        for i in range(B.nvert):
            for M in (B.simple_module(i), B.injective_module(i), B.projective_module(i)):
                want = gen.kernel_cover_resolution(M, bound)
                pd = alg.projective_dimension(M, bound)
                if want is None:
                    assert pd is None
                    with pytest.raises(BoundExceeded):
                        resolve_module(M, bound)
                    continue
                assert pd == len(want) - 1
                P = resolve_module(M, bound)
                assert P.is_minimal()
                assert cohomology_dims(P) == {0: M.dim}
                # the realization the resolver kept is the one of P's entries
                real = module_realization(P)
                assert real.diffs == {k: realize_entry_matrix(B, P.term(k), P.term(k + 1), d)
                                      for k, d in P.diffs.items()}
                assert {k: m.weights for k, m in real.terms.items()} == \
                    {k: alg.projectives_module(B, v).weights for k, v in P.terms.items()}
                assert {-k: sorted(v) for k, v in P.terms.items()} == \
                    {n: sorted(v) for n, v in enumerate(want)}


@pytest.mark.parametrize("field", [PrimeField(2), FP, QQ], ids=str)
def test_simples_of_linear_quivers_have_pd_one(field):
    # A_n = k(1 -> 2 -> ... -> n): the simple at the sink is projective, and
    # every other simple S_i has the resolution 0 -> P_{i+1} -> P_i -> S_i
    for n in range(2, 8):
        A = alg.Algebra.from_quiver(field, alg.linear_quiver(n))
        pds = [alg.projective_dimension(A.simple_module(i)) for i in range(n)]
        assert sorted(pds) == [0] + [1] * (n - 1)
        assert alg.global_dimension(A) == 1


def test_opposite_involution():
    A = two_cycle()
    assert A.op().op() is A
    B = A.op()
    x = B.mul_vec(B.parse_element("alpha"), B.parse_element("beta"))
    assert x == {}  # beta*alpha = 0 in A means alpha o op beta = 0


def test_corner_inverse():
    A = two_cycle()
    f = A.field
    # e_2 + alpha*beta is a unit of e_2 A e_2
    x = A.add_vec(A.basis_vec(1), A.parse_element("alpha*beta"))
    y = A.invert_in_corner(x, 1)
    assert A.mul_vec(x, y) == A.basis_vec(1)
    assert A.mul_vec(y, x) == A.basis_vec(1)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([PrimeField(2), FP, QQ]), st.randoms(use_true_random=False))
def test_corner_inverse_of_random_units(f, rng):
    """Random units of local corners with a radical part invert on both
    sides, inside the corner; a non-unit is refused."""
    # a loop x with x^3 = 0 at vertex 1, and the cycle alpha*beta at 2
    loop = alg.Quiver(("1", "2"), (("x", "1", "1"), ("a", "1", "2")))
    A = rng.choice([lambda: two_cycle(f), lambda: alg.Algebra.from_quiver(
        f, loop, relations=[("x", "x", "x")])])()
    A = rng.choice([A, A.op()])
    for v in range(A.nvert):
        corner = A.corner_indices(v, v)
        x = gen.sparse([gen.rand_nonzero(f, rng) if b == v else
                        (_coeff(f, rng) if b in corner else f.zero) for b in range(A.dim)])
        y = A.invert_in_corner(x, v)
        assert set(y) <= set(corner)
        assert A.mul_vec(x, y) == A.mul_vec(y, x) == A.basis_vec(v)
        with pytest.raises(InputError, match="not invertible"):
            A.invert_in_corner({b: c for b, c in x.items() if b != v}, v)


def test_corner_inverse_checks_the_whole_product(monkeypatch):
    """An inverse with a wrong radical part still has the right e_v
    coefficient in x*y; the check compares the whole product."""
    A = two_cycle()
    x = A.add_vec(A.basis_vec(1), A.parse_element("alpha*beta"))
    monkeypatch.setattr(A, "add_vec", lambda y, term: y)  # drops the series' terms
    with pytest.raises(InvariantError, match="does not invert"):
        A.invert_in_corner(x, 1)


def test_parse_element():
    A = two_cycle()
    v = A.parse_element("2*alpha + alpha*beta - e_1")
    assert v[A.basis_labels.index("alpha")] == A.field.from_int(2)
    assert v[A.basis_labels.index("alpha*beta")] == A.field.one
    assert v[0] == A.field.from_int(-1)
    assert A.parse_element(A.element_str(v)) == v
    # killed paths are not silently zero: they are rejected
    with pytest.raises(InputError):
        A.parse_element("beta*alpha")


# -- the element helpers against dense coordinate vectors ---------------------


ELEMENT_FIELDS = [PrimeField(2), FP, PrimeField(2**61 - 1), QQ]


def _coeff(f, rng):
    """A random coefficient, zero included; a Fraction over Q at times."""
    c = f.rand(rng)
    d = f.rand(rng)
    return f.mul(c, f.inv(d)) if d and rng.random() < 0.3 else c


def _dense_mul(A, x, y):
    f = A.field
    out = [f.zero] * A.dim
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            k = A.prod[i][j]
            if k >= 0 and xi and yj:
                out[k] = f.add(out[k], f.mul(xi, yj))
    return out


def _dense_str(A, x):
    """element_str as written over dense coordinates, in basis order."""
    f = A.field
    parts = [A.basis_labels[i] if c == f.one else f"{c}*{A.basis_labels[i]}"
             for i, c in enumerate(x) if c != f.zero]
    return " + ".join(parts) if parts else "0"


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ELEMENT_FIELDS), st.randoms(use_true_random=False))
def test_element_helpers_match_dense_coordinates(f, rng):
    A = rng.choice([lambda: random_monomial_linear_algebra(f, rng, max_vertices=5),
                    lambda: two_cycle(f), lambda: gen.self_injective_cycle_algebra(f)])()
    dx = [_coeff(f, rng) if rng.random() < 0.5 else f.zero for _ in range(A.dim)]
    # y cancels some coordinates of x, so sums must drop zeros
    dy = [f.neg(a) if rng.random() < 0.3 else
          (_coeff(f, rng) if rng.random() < 0.5 else f.zero) for a in dx]
    x, y = gen.sparse(dx), gen.sparse(dy)
    results = [(A.add_vec(x, y), [f.add(a, b) for a, b in zip(dx, dy)]),
               (A.sub_vec(x, y), [f.sub(a, b) for a, b in zip(dx, dy)]),
               (A.neg_vec(x), [f.neg(a) for a in dx]),
               (A.mul_vec(x, y), _dense_mul(A, dx, dy)),
               (A.mul_vec(y, x), _dense_mul(A, dy, dx)),
               (A.zero_vec(), [f.zero] * A.dim)]
    # (e_s + p)(p - e_t) holds p - p for a path p: s -> t, a cancellation
    p = rng.choice(A.radical_indices)
    du = gen.dense(A, A.add_vec(A.basis_vec(A.source[p]), A.basis_vec(p)))
    dw = gen.dense(A, A.sub_vec(A.basis_vec(p), A.basis_vec(A.target[p])))
    results.append((A.mul_vec(gen.sparse(du), gen.sparse(dw)), _dense_mul(A, du, dw)))
    lab = A.basis_labels[p]
    results.append((A.parse_element(f"{lab} - {lab} + 0*{lab}"), [f.zero] * A.dim))
    for got, want in results:
        assert all(got.values())  # no zero coefficient is stored
        assert gen.dense(A, got) == want
    assert (x == {}) == (not any(dx))
    assert A.is_radical_vec(x) == (not any(dx[:A.nvert]))
    # products: the coordinates of x*b (left) or b*x (right) inside pos
    basis = rng.sample(range(A.dim), rng.randint(0, A.dim))
    targets = rng.sample(range(A.dim), rng.randint(0, A.dim))
    pos = {k: j for j, k in enumerate(targets)}
    for left in (True, False):
        got = [[f.zero] * len(targets) for _ in basis]
        for i, j, cc in A.products(x, basis, pos, left):
            got[i][j] = f.add(got[i][j], cc)
        want = []
        for b in basis:
            e = gen.dense(A, A.basis_vec(b))
            prod = _dense_mul(A, dx, e) if left else _dense_mul(A, e, dx)
            want.append([prod[k] for k in targets])
        assert got == want
    # a unit of a local corner: its inverse on both sides
    v = rng.randrange(A.nvert)
    du = [f.zero] * A.dim
    for b in A.corner_indices(v, v):
        du[b] = _coeff(f, rng)
    du[v] = du[v] or f.one
    inv = A.invert_in_corner(gen.sparse(du), v)
    assert all(inv.values()) and set(inv) <= set(A.corner_indices(v, v))
    e_v = gen.dense(A, A.basis_vec(v))
    assert _dense_mul(A, du, gen.dense(A, inv)) == e_v == _dense_mul(A, gen.dense(A, inv), du)
    # the text form, in ascending basis order whatever the order of the
    # keys, reads back as the element
    for z in (x, A.add_vec(y, x)):
        assert A.element_str(z) == _dense_str(A, gen.dense(A, z))
        assert A.parse_element(A.element_str(z)) == z
    # no helper changed its arguments
    assert x == gen.sparse(dx) and y == gen.sparse(dy)


def test_parse_rejects_unknown():
    A = a2()
    with pytest.raises(InputError):
        A.parse_element("nosuch")


@pytest.mark.parametrize("field", [PrimeField(2), FP, QQ], ids=str)
def test_consecutive_signs_multiply_and_a_bare_sign_is_rejected(field):
    A = alg.Algebra.from_quiver(field, alg.linear_quiver(2))
    a1 = A.basis_labels.index("a1")

    def times(c):  # the element c * a1
        return {a1: field.from_int(c)} if field.from_int(c) else {}

    for text, c in (("a1 - - a1", 2), ("a1 - - - a1", 0), ("- - a1", 1),
                    ("-+-a1", 1), ("a1 + -3*a1", -2), ("a1 + + a1", 2)):
        assert A.parse_element(text) == times(c), text
    for text in ("a1 -", "a1 + ", "-", "+", "a1 - -", " - "):
        with pytest.raises(InputError, match="sign without a term"):
            A.parse_element(text)
    # element_str writes a negative coefficient after " + "
    x = A.add_vec(A.parse_element("e_1"), times(-3))
    assert A.parse_element(A.element_str(x)) == x


def test_labels_the_element_grammar_would_misread_are_rejected():
    bad_quivers = [
        (("1", "2"), (("a", "1", "2"), ("b", "1", "2"), ("a-b", "1", "2"))),
        (("1", "2"), (("a*b", "1", "2"),)),
        (("1", "2"), (("2", "1", "2"),)),   # "2*a" would read as twice a
        (("1", "2"), (("", "1", "2"),)),
        (("1", "2"), (("a b", "1", "2"),)),
        (("1", "2[1]"), (("a", "1", "2[1]"),)),
        (("1", "x:y"), ()),
    ]
    for verts, arrows in bad_quivers:
        with pytest.raises(InputError):
            alg.Quiver(verts, arrows)
    # an arrow e_1 would hide the idempotent of vertex 1
    with pytest.raises(InputError, match="e_1"):
        alg.Algebra.from_quiver(FP, alg.Quiver(("1", "2"), (("e_1", "1", "2"),)))


def test_bad_coefficients_are_input_errors():
    for field, text in ((FP, "1/0*a"), (PrimeField(2), "1/2*a"), (RationalField(), "1/0*a")):
        with pytest.raises(InputError, match="zero denominator"):
            a2(field).parse_element(text)
    # malformed numbers are unknown labels, not int() failures
    for text in ("1/-2*a", "1/*a", "\u00b2*a"):
        with pytest.raises(InputError):
            a2().parse_element(text)
    assert a2(PrimeField(3)).parse_element("1/2*a") == a2(PrimeField(3)).parse_element("2*a")


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.randoms(use_true_random=False))
def test_random_linear_algebras_structural_properties(n, rng):
    q = alg.linear_quiver(n)
    arrows = [a[0] for a in q.arrows]
    rels = []
    for start in range(len(arrows) - 1):
        if rng.random() < 0.4:
            rels.append(tuple(arrows[start:start + 2]))
    A = alg.Algebra.from_quiver(FP, q, relations=rels)  # validates on build
    # the corner decomposition exhausts the basis
    assert A.dim == sum(len(A.corner_indices(i, j))
                        for i in range(A.nvert) for j in range(A.nvert))
    # acyclic quivers have finite global dimension
    assert alg.global_dimension(A) is not None
    # Yoneda: dim Hom(P_i, M) = dim M e_i on a random projective sum
    verts = [rng.randrange(A.nvert) for _ in range(2)]
    M = alg.projectives_module(A, verts)
    for i in range(A.nvert):
        assert len(gen.module_hom_space(A.projective_module(i), M)) == \
            len(M.positions[i])


def test_rationals_give_same_dimensions():
    A = two_cycle(QQ)
    assert A.dim == 5
    assert alg.global_dimension(A) == 2
    S2 = A.simple_module(1)
    eA = A.projective_module(0)
    assert len(gen.module_hom_space(S2, eA)) == 1


def _assert_associative(B):
    P = B.prod
    for i, j, k in itertools.product(range(B.dim), repeat=3):
        left = P[P[i][j]][k] if P[i][j] >= 0 else -1
        right = P[i][P[j][k]] if P[j][k] >= 0 else -1
        assert left == right, (i, j, k)


def _ideal_by_row_reduction(B, subset):
    """Basis indices spanning BeB, from a row reduction of the span of the
    products b * e_i * c (the route taken before the product table)."""
    f = B.field
    gens = []
    for i in subset:
        for b in range(B.dim):
            left = B.mul_vec(B.basis_vec(b), B.basis_vec(i))
            for c in range(B.dim):
                v = B.mul_vec(left, B.basis_vec(c))
                if v:
                    gens.append(gen.dense(B, v))
    ideal = set()
    for row in gen.row_space_basis(Mat(f, gens, ncols=B.dim)).rows:
        support = [k for k, x in enumerate(row) if x != f.zero]
        assert len(support) == 1 and row[support[0]] == f.one
        ideal.add(support[0])
    return ideal


@settings(max_examples=30, deadline=None)
@given(st.booleans(), st.randoms(use_true_random=False))
def test_arrow_indices_against_all_radical_products(use_two_cycle, rng):
    # the arrows are the radical paths that are no product of two radical
    # ones; arrow_indices forms only the composable products
    A = two_cycle() if use_two_cycle else \
        random_monomial_linear_algebra(FP, rng, max_vertices=6)
    subset = rng.sample(range(A.nvert), rng.randint(1, A.nvert - 1))
    corner, _ = A.corner(subset)
    for B in (A, A.op(), corner, corner.op(), A.quotient(subset)[0],
              A.op().quotient(subset)[0]):
        rad = B.radical_indices
        products = {B.prod[b][c] for b in rad for c in rad}
        assert B.arrow_indices == tuple(b for b in rad if b not in products)


@settings(max_examples=30, deadline=None)
@given(st.booleans(), st.randoms(use_true_random=False))
def test_product_table_against_reference(use_two_cycle, rng):
    A = two_cycle() if use_two_cycle else \
        random_monomial_linear_algebra(FP, rng, max_vertices=5)
    subset = rng.sample(range(A.nvert), rng.randint(1, A.nvert - 1))
    corner, _ = A.corner(subset)
    derived = [A, A.op(), corner, corner.op(), A.quotient(subset)[0],
               A.op().quotient(subset)[0]]
    for B in derived:
        B.validate()
        _assert_associative(B)
        sub = rng.sample(range(B.nvert), rng.randint(1, B.nvert))
        _, proj = B.quotient(sub)
        kept = {b for b in range(B.dim) if proj[b] is not None}
        assert kept == set(range(B.dim)) - _ideal_by_row_reduction(B, sub)


def test_validate_rejects_malformed_tables():
    for build, (i, j, k) in [(a2, (0, 1, 0)),    # e_1 * e_2 = e_1
                             (a2, (2, 0, 2)),    # a * e_1 = a
                             (a2, (2, 2, 0)),    # a * a = e_1
                             (two_cycle, (2, 3, 1))]:  # alpha * beta = e_2
        A = build()
        alg.Algebra(FP, A.vertex_labels, A.basis_labels, A.source, A.target,
                    A.prod)
        bad = [list(row) for row in A.prod]
        bad[i][j] = k
        with pytest.raises(InputError):
            alg.Algebra(FP, A.vertex_labels, A.basis_labels, A.source,
                        A.target, bad)


# -- the module-layer kernels against their per-element loops ------------------


def _radical_rows(M):
    """Basis of M * rad as rows."""
    A, f = M.algebra, M.algebra.field
    rows = [list(r) for b in A.radical_indices for r in gen.dense_action(M, b).rows]
    return gen.row_space_basis(Mat(f, rows, ncols=M.dim)) if rows \
        else Mat.zeros(f, 0, M.dim)


def _submodule_action_reference(M, rows):
    """Action matrices on a row space, one solve per algebra basis element."""
    action = []
    for b in range(M.algebra.dim):
        coords = la.solve_matrix(rows.transpose(),
                                 (rows @ gen.dense_action(M, b)).transpose())
        if coords is None:
            raise InputError("row space is not a submodule")
        action.append(coords.transpose())
    return action


def _top_generators_reference(M):
    """Greedy choice by one rank computation per candidate unit vector."""
    A, f = M.algebra, M.algebra.field
    rad = _radical_rows(M)
    gens = []
    for i in range(A.nvert):
        pos = M.positions[i]
        if not pos:
            continue
        current = gen.row_space_basis(rad @ gen.dense_action(M, i)) if rad.nrows else None
        rows = [list(r) for r in current.rows] if current is not None else []
        for r in pos:
            cand = [f.one if k == r else f.zero for k in range(M.dim)]
            if la.rank(Mat(f, rows + [cand], ncols=M.dim)) > len(rows):
                gens.append((i, cand))
                rows.append(cand)
    return gens


def _assert_cover_matches_reference(M, rows):
    """projective_cover(M, rows) against the greedy top generators of the
    submodule spanned by rows (per vertex), built with its own action
    matrices and moved back to M's coordinates."""
    A = M.algebra
    dense = gen.dense_rows(M, rows)
    sub = gen.module_from_actions(A, _submodule_action_reference(M, dense))
    sub.validate()
    gens = [(i, (Mat(A.field, [v], ncols=sub.dim) @ dense).rows[0])
            for i, v in _top_generators_reference(sub)]
    verts, cover = gen.projective_cover(M, rows)
    assert verts == [i for i, _ in gens]
    _assert_identical(
        [gen.dense_map(alg.projectives_module(A, verts), M, cover)],
        [la.vstack([gen.dense_map(A.projective_module(i), M, alg.yoneda_map(
            A, M, [(i, [v[c] for c in M.positions[i]])])) for i, v in gens])])
    return sub


def _actions(M):
    return gen.dense_actions(M)


def _assert_identical(mats, refs):
    # repr tells 0 from Fraction(0), so equal entries must also share a type
    assert [(m.shape, repr(m.rows)) for m in mats] == \
        [(m.shape, repr(m.rows)) for m in refs]


def _random_map_from_projectives(A, rng, verts, N):
    """A random module map P_{verts[0]} + ... -> N, stacked Yoneda maps."""
    f = A.field
    rows = [[] for _ in range(A.nvert)]
    for i in verts:
        v = [f.rand(rng) for _ in N.positions[i]]
        for rows_w, block in zip(rows, alg.yoneda_map(A, N, [(i, v)])):
            rows_w.extend(block.rows)
    return tuple(Mat(f, r, ncols=len(p)) for r, p in zip(rows, N.positions))


def _radical_module(P):
    rad = _radical_rows(P)
    return gen.module_from_actions(P.algebra, _submodule_action_reference(P, rad))


def _check_stacked_module_solves(rationals, rng):
    f = QQ if rationals else FP
    A = random_monomial_linear_algebra(f, rng, max_vertices=4)
    nv = A.nvert
    P = [A.projective_module(i) for i in range(nv)]
    targets = P + [A.simple_module(i) for i in range(nv)] + \
        [_radical_module(Pi) for Pi in P if _radical_rows(Pi).nrows] + \
        [alg.projectives_module(A, [rng.randrange(nv) for _ in range(2)])]
    mods = list(targets)
    for _ in range(3):
        verts = [rng.randrange(nv) for _ in range(rng.randint(1, 2))]
        src = alg.projectives_module(A, verts)
        N = rng.choice(targets)
        rows = gen.kernel_rows(_random_map_from_projectives(A, rng, verts, N))
        if any(rows):
            mods.append(_assert_cover_matches_reference(src, rows))
    # a map out of a radical, found by solving the intertwiner equations
    R = _radical_module(P[0])
    N = rng.choice(targets)
    homs = gen.module_hom_space(R, N)
    if homs:
        F = homs[0]
        for H in homs[1:]:
            c = f.rand(rng)
            F = tuple(x + gen.mat_scale(y, c) for x, y in zip(F, H))
        rows = gen.kernel_rows(F)
        if any(rows):
            mods.append(_assert_cover_matches_reference(R, rows))
    for M in mods:
        M.validate()
        assert isinstance(M.blocks, tuple)
        identity = [Mat.identity(f, len(p)).rows for p in M.positions]
        _assert_cover_matches_reference(M, identity)
        verts, cover = gen.projective_cover(M, identity)
        assert gen.projective_cover(M) == (verts, cover)
    picked = rng.sample(mods, 3)
    for summands in (picked, picked[:1]):
        total = alg.direct_sum_modules(A, summands)
        _assert_identical(gen.dense_actions(total),
                          gen.direct_sum_actions(A, [_actions(m) for m in summands]))
    # no rows: the zero cover
    verts, cover = gen.projective_cover(P[0], [[] for _ in range(nv)])
    assert verts == [] and [b.shape for b in cover] == \
        [(0, len(p)) for p in P[0].positions]


_STACKED_CASES = (st.booleans(), st.randoms(use_true_random=False))


@settings(max_examples=30, deadline=None)
@given(*_STACKED_CASES)
def test_stacked_module_solves_against_reference(rationals, rng):
    _check_stacked_module_solves(rationals, rng)


# At seeds 50 and 58 a direct sum over Q once held Fraction(0, 1) in its
# path actions where the block-diagonal reference holds 0; at seeds 9 and 13
# the cover's rows, straight from rref, held it where the reference, a
# product, holds 0.  Pinned so that every run draws them.
@seed(9)
@settings(max_examples=30, deadline=None)
@given(*_STACKED_CASES)
def test_stacked_module_solves_at_seed_9(rationals, rng):
    _check_stacked_module_solves(rationals, rng)


@seed(13)
@settings(max_examples=30, deadline=None)
@given(*_STACKED_CASES)
def test_stacked_module_solves_at_seed_13(rationals, rng):
    _check_stacked_module_solves(rationals, rng)


@seed(50)
@settings(max_examples=30, deadline=None)
@given(*_STACKED_CASES)
def test_stacked_module_solves_at_seed_50(rationals, rng):
    _check_stacked_module_solves(rationals, rng)


@seed(58)
@settings(max_examples=30, deadline=None)
@given(*_STACKED_CASES)
def test_stacked_module_solves_at_seed_58(rationals, rng):
    _check_stacked_module_solves(rationals, rng)


# -- M * rad from the arrows alone ---------------------------------------------


def _row_space(f, rows, ncols):
    return gen.row_space_basis(Mat(f, rows, ncols=ncols)) if rows \
        else Mat.zeros(f, 0, ncols)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([PrimeField(2), FP, QQ]), st.booleans(),
       st.randoms(use_true_random=False))
def test_arrow_images_span_the_radical_images(f, use_two_cycle, rng):
    # projective_cover reduces the images of rows under the arrows a only
    A = two_cycle(f) if use_two_cycle else \
        random_monomial_linear_algebra(f, rng, max_vertices=5)
    subset = rng.sample(range(A.nvert), rng.randint(1, A.nvert - 1))
    corner, _ = A.corner(subset)
    for B in (A, A.op(), corner, corner.op(), A.quotient(subset)[0],
              A.op().quotient(subset)[0]):
        # every radical path is a product of arrows
        closure = set(B.arrow_indices)
        frontier = set(closure)
        while frontier:
            frontier = {B.prod[b][a] for b in frontier for a in B.arrow_indices} \
                - {-1} - closure
            closure |= frontier
        assert closure == set(B.radical_indices)
        nv = B.nvert
        mods = [B.projective_module(i) for i in range(nv)] + \
            [B.simple_module(i) for i in range(nv)]
        subs = [(M, Mat.identity(f, M.dim)) for M in mods]
        for _ in range(2):
            verts = [rng.randrange(nv) for _ in range(rng.randint(1, 2))]
            src = alg.projectives_module(B, verts)
            rows = gen.kernel_rows(
                _random_map_from_projectives(B, rng, verts, rng.choice(mods)))
            if any(rows):
                subs.append((src, gen.dense_rows(src, rows)))
        for M, rows in subs:
            def images(basis):
                return [r for b in basis for r in (rows @ gen.dense_action(M, b)).rows]
            _assert_identical(
                [_row_space(f, images(B.arrow_indices), M.dim)],
                [_row_space(f, images(B.radical_indices), M.dim)])


# -- derived path actions against the dense per-element modules ----------------


def _assert_derived_actions(M, ref, rng):
    """M.action(b), placed at the positions of its vertices, is the
    reference matrix of b, and yoneda_map sends the path b of P_i to
    v @ ref[b], for every basis element b."""
    B, f = M.algebra, M.algebra.field
    M.validate()
    _assert_identical(_actions(M), ref)
    for i in range(B.nvert):
        v = [f.rand(rng) for _ in range(M.dim)]
        want = [(Mat(f, [v], ncols=M.dim) @ ref[b]).rows[0]
                for b in B.projective_module(i).basis_in_algebra]
        got = alg.yoneda_map(B, M, [(i, [v[c] for c in M.positions[i]])])
        _assert_identical([gen.dense_map(B.projective_module(i), M, got)],
                          [Mat(f, want, ncols=M.dim)])


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([PrimeField(2), FP, QQ]), st.booleans(),
       st.randoms(use_true_random=False))
def test_derived_actions_against_dense_reference(f, use_two_cycle, rng):
    A = two_cycle(f) if use_two_cycle else \
        random_monomial_linear_algebra(f, rng, max_vertices=5)
    subset = rng.sample(range(A.nvert), rng.randint(1, A.nvert - 1))
    corner, _ = A.corner(subset)
    for B in (A, A.op(), corner, corner.op(), A.quotient(subset)[0],
              A.op().quotient(subset)[0]):
        nv = B.nvert
        refs = []
        for i in range(nv):
            refs += [(B.projective_module(i), gen.projective_actions(B, i)),
                     (B.simple_module(i), gen.simple_actions(B, i)),
                     (B.injective_module(i), gen.injective_actions(B, i))]
        picked = rng.sample(refs, min(3, len(refs)))
        total = alg.direct_sum_modules(B, [M for M, _ in picked])
        refs.append((total, gen.direct_sum_actions(B, [r for _, r in picked])))
        if nv > 1:
            sub = rng.sample(range(nv), rng.randint(1, nv - 1))
            # restriction along B ->> B/BeB
            Q, proj = B.quotient(sub)
            spec = SimpleNamespace(algebra=B, x_proj=proj)
            for i in range(Q.nvert):
                for M, ref in ((Q.projective_module(i), gen.projective_actions(Q, i)),
                               (Q.injective_module(i), gen.injective_actions(Q, i))):
                    refs.append((_quotient_module_over_middle(spec, M),
                                 gen.quotient_restriction_actions(B, proj, ref)))
            # the e-corner of a sum of projectives, over eBe
            C, embed = B.corner(sub)
            verts = [rng.randrange(nv) for _ in range(rng.randint(1, 3))]
            ref = gen.direct_sum_actions(B, [gen.projective_actions(B, i) for i in verts])
            pos = [r for r in range(ref[0].nrows)
                   if any(ref[v].rows[r][r] == f.one for v in sub)]
            cplx = corner_of_proj_complex(
                ProjComplex(B, {0: verts}), C, embed, sorted(sub))
            # the corner keeps the order of the coordinates at the subset
            assert [sorted(sub)[w] for w in cplx.module(0).weights] == \
                [next(v for v in sub if ref[v].rows[r][r] == f.one) for r in pos]
            refs.append((cplx.module(0), gen.corner_restriction_actions(C, embed, ref, pos)))
        for M, ref in refs:
            _assert_derived_actions(M, ref, rng)


def _commutative_square(f):
    """1 -> 2 -> 4 and 1 -> 3 -> 4 with a*b = c*d = k: a multiplicative
    basis that is not monomial, built directly from its product table."""
    labels = ("e_1", "e_2", "e_3", "e_4", "a", "b", "c", "d", "k")
    source = (0, 1, 2, 3, 0, 1, 0, 2, 0)
    target = (0, 1, 2, 3, 1, 3, 2, 3, 3)
    prod = [[-1] * 9 for _ in range(9)]
    for x in range(9):
        prod[source[x]][x] = x
        prod[x][target[x]] = x
    prod[4][5] = prod[6][7] = 8
    return alg.Algebra(f, ("1", "2", "3", "4"), labels, source, target, prod)


def _representation(A, weights, entries, shapes=()):
    """Arrow blocks with the given (arrow, row, column) entries set to 1,
    row and column numbered among all basis vectors; shapes gives some
    arrows a block of another shape than (d_s, d_t)."""
    f = A.field
    pos = [[r for r, w in enumerate(weights) if w == v] for v in range(A.nvert)]
    shapes = dict(shapes)
    blocks = []
    for a in A.arrow_indices:
        rows, cols = pos[A.source[a]], pos[A.target[a]]
        m = Mat.zeros(f, *shapes.get(a, (len(rows), len(cols))))
        for b, r, c in entries:
            if b == a:
                m.rows[rows.index(r)][cols.index(c)] = f.one
        blocks.append(m)
    return alg.Module(A, weights, blocks)


def test_module_validate_rejects_bad_representations():
    for f in (PrimeField(2), FP, QQ):
        A = two_cycle(f)
        alpha, beta = (A.basis_labels.index(x) for x in ("alpha", "beta"))
        # alpha: 2 -> 1 read from the weight-1 row to the weight-0 column
        _representation(A, (0, 1), [(alpha, 1, 0)]).validate()
        # a block that does not fit the dimensions at the ends of its arrow
        with pytest.raises(InputError, match="block of shape"):
            _representation(A, (0, 1), [], shapes=[(alpha, (2, 1))]).validate()
        # beta then alpha is the killed cycle at vertex 1
        with pytest.raises(InputError, match="product table"):
            _representation(A, (0, 1), [(alpha, 1, 0), (beta, 0, 1)]).validate()
        S = _commutative_square(f)
        a, b, c, d = (S.basis_labels.index(x) for x in "abcd")
        assert S.arrow_indices == (a, b, c, d)
        commuting = [(a, 0, 1), (b, 1, 3), (c, 0, 2)]
        _representation(S, (0, 1, 2, 3), commuting + [(d, 2, 3)]).validate()
        with pytest.raises(InputError, match="product table"):
            _representation(S, (0, 1, 2, 3), commuting).validate()
        for i in range(S.nvert):
            for M in (S.projective_module(i), S.simple_module(i), S.injective_module(i)):
                M.validate()


# -- vertex blocks against the dense path matrices -----------------------------


def _random_block_algebra(f, rng):
    A = rng.choice([gen.two_cycle_algebra, gen.self_injective_cycle_algebra,
                    lambda f: random_monomial_linear_algebra(f, rng, max_vertices=5)])(f)
    return rng.choice([A, A.op()])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([PrimeField(2), FP, QQ]), st.randoms(use_true_random=False))
def test_projective_cover_against_dense_oracle(f, rng):
    A = _random_block_algebra(f, rng)
    M = gen.random_representation(A, rng)
    M.validate()
    verts, cover = gen.assert_cover_oracle(M)
    # the syzygy, as the kernel rows of the cover inside the sum of projectives
    P = alg.projectives_module(A, verts)
    rows = gen.kernel_rows(cover)
    gen.assert_cover_oracle(P, rows if any(rows) else None)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([PrimeField(2), FP, QQ]), st.randoms(use_true_random=False))
def test_dual_and_direct_sum_blocks(f, rng):
    A = _random_block_algebra(f, rng)
    mods = [gen.random_representation(A, rng) for _ in range(rng.randint(1, 3))]
    mods.append(A.projective_module(rng.randrange(A.nvert)))
    for M in mods:
        back = alg.dual_module(alg.dual_module(M))
        assert back.algebra is A and back.weights == M.weights
        _assert_identical(back.blocks, M.blocks)
    # each arrow's block of a direct sum is block-diagonal over the summands
    total = alg.direct_sum_modules(A, mods)
    total.validate()
    for n, a in enumerate(A.arrow_indices):
        s, t = A.source[a], A.target[a]
        want = Mat.zeros(f, len(total.positions[s]), len(total.positions[t]))
        r0 = c0 = 0
        for M in mods:
            block = M.blocks[n]
            for r in range(block.nrows):
                for c in range(block.ncols):
                    want.rows[r0 + r][c0 + c] = block.rows[r][c]
            r0, c0 = r0 + block.nrows, c0 + block.ncols
        _assert_identical([total.blocks[n]], [want])


def test_gluing_a2_builds_only_vertex_blocks(monkeypatch):
    built = []
    init = alg.Module.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(alg.Module, "__init__", recording_init)
    fixture = str(Path(__file__).resolve().parent.parent / "fixtures" / "a2.json")
    for extra in ([], ["--dual"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["glue", fixture, "R", "xstd", "ystd", *extra]) == 0
    assert built
    for M in built:
        A = M.algebra
        assert len(M.blocks) == len(A.arrow_indices)
        for a, block in zip(A.arrow_indices, M.blocks):
            assert block.shape == (len(M.positions[A.source[a]]),
                                   len(M.positions[A.target[a]]))

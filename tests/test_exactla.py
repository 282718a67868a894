import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import gen
from smc_kit import exactla as la
from smc_kit.config import InputError
from smc_kit.exactla import Mat, PrimeField, RationalField, get_field

FP = PrimeField(32003)
QQ = RationalField()
FIELDS = [FP, QQ, PrimeField(5)]


def test_get_field():
    assert get_field("rationals") == QQ
    assert get_field(7) == PrimeField(7)
    with pytest.raises(InputError):
        get_field(6)


def test_rank_identity_and_zero():
    for f in FIELDS:
        assert la.rank(Mat.identity(f, 3)) == 3
        assert la.rank(Mat.zeros(f, 2, 5)) == 0


def test_rank_dependent_rows_over_q():
    # [[1,2],[2,4]] row-reduces to a single pivot
    m = gen.int_mat(QQ, [[1, 2], [2, 4]])
    assert la.rank(m) == 1


def test_kernel_identity_zero():
    for f in FIELDS:
        assert la.kernel_basis(Mat.identity(f, 4)) == []
        assert len(la.kernel_basis(Mat.zeros(f, 2, 3))) == 3


def test_kernel_of_sum_row():
    # [[1,1]] has kernel spanned by (1,-1) up to scale
    for f in FIELDS:
        m = gen.int_mat(f, [[1, 1]])
        ker = la.kernel_basis(m)
        assert len(ker) == 1
        v = ker[0]
        assert f.add(v[0], v[1]) == f.zero
        assert v != [f.zero, f.zero]


def test_solve_identity_and_inconsistent():
    for f in FIELDS:
        b = [f.from_int(3), f.from_int(-1)]
        res = la.solve(Mat.identity(f, 2), b)
        assert res == b
        res = la.solve(Mat.zeros(f, 2, 2), [f.one, f.zero])
        assert res is None


def test_solve_underdetermined():
    for f in FIELDS:
        m = gen.int_mat(f, [[1, 1]])
        res = la.solve(m, [f.from_int(2)])
        assert res is not None
        x = res
        assert f.add(x[0], x[1]) == f.from_int(2)
        assert len(la.kernel_basis(m)) == 1


def test_solve_dimension_mismatch():
    with pytest.raises(InputError):
        la.solve(Mat.identity(FP, 2), [FP.one])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.randoms(use_true_random=False))
def test_rank_nullity(m, n, rng):
    for f in (FP, QQ):
        mat = gen.random_matrix(f, m, n, rng)
        assert la.rank(mat) + len(la.kernel_basis(mat)) == n


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.randoms(use_true_random=False))
def test_solve_is_exact(m, n, rng):
    for f in (FP, QQ):
        mat = gen.random_matrix(f, m, n, rng)
        x0 = [f.rand(rng) for _ in range(n)]
        b = [gen.sum_prod(f, row, x0) for row in mat.rows]
        res = la.solve(mat, b)
        assert res is not None
        check = [gen.sum_prod(f, row, res) for row in mat.rows]
        assert check == b
        for v in la.kernel_basis(mat):
            assert all(gen.sum_prod(f, row, v) == f.zero for row in mat.rows)


# 2^61 - 1 has residues whose products need more than 64 bits
SOLVE_FIELDS = [PrimeField(2), FP, QQ, PrimeField(2**61 - 1)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SOLVE_FIELDS), st.integers(0, 5), st.integers(0, 5),
       st.integers(0, 3), st.integers(0, 5), st.integers(-1, 2),
       st.randoms(use_true_random=False))
def test_solve_matrix_exact_or_none(f, m, n, k, r, bad, rng):
    # a matrix of rank at most r, and a right-hand side whose columns are all
    # in its column space except possibly column `bad`, which is random
    mat = gen.random_matrix(f, m, r, rng) @ gen.random_matrix(f, r, n, rng)
    b = mat @ gen.random_matrix(f, n, k, rng)
    if 0 <= bad < k:
        for row in b.rows:
            row[bad] = f.rand(rng)
    sol = la.solve_matrix(mat, b)
    if la.rank(la.hstack([mat, b])) > la.rank(mat):
        assert sol is None
    else:
        assert sol is not None and sol.shape == (n, k)
        assert mat @ sol == b
    for j in range(k):
        col = la.solve(mat, [row[j] for row in b.rows])
        one = la.solve_matrix(mat, gen.submatrix(b, range(m), [j]))
        assert col == (None if one is None else [row[0] for row in one.rows])


@pytest.mark.parametrize("f", SOLVE_FIELDS, ids=str)
def test_solve_matrix_one_inconsistent_column_and_empty_shapes(f):
    mat = gen.int_mat(f, [[1, 2], [0, 0]])
    good = gen.int_mat(f, [[3], [0]])
    assert mat @ la.solve_matrix(mat, good) == good
    # the second column needs a nonzero second row of mat @ X
    assert la.solve_matrix(mat, gen.int_mat(f, [[3, 1], [0, 1]])) is None
    assert la.solve(mat, [f.one, f.one]) is None
    assert la.solve_matrix(mat, Mat.zeros(f, 2, 0)).shape == (2, 0)
    assert la.solve_matrix(Mat.zeros(f, 0, 3), Mat.zeros(f, 0, 2)) == Mat.zeros(f, 3, 2)
    assert la.solve_matrix(Mat.zeros(f, 2, 0), Mat.zeros(f, 2, 1)).shape == (0, 1)
    assert la.solve_matrix(Mat.zeros(f, 2, 0), gen.int_mat(f, [[0], [1]])) is None
    assert la.solve(Mat.zeros(f, 0, 2), []) == [f.zero, f.zero]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.randoms(use_true_random=False))
def test_prime_and_generic_rref_agree(m, n, rng):
    mat_int = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
    p = 32003
    f = PrimeField(p)
    mp = gen.int_mat(f, mat_int, ncols=n)
    mq = gen.int_mat(QQ, mat_int, ncols=n)
    rp, rq = la.rref(mp), la.rref(mq)
    assert rp.pivots == rq.pivots
    # reduced matrices agree after reducing fractions mod p
    for i in range(m):
        for j in range(n):
            q = rq.reduced.rows[i][j]
            lifted = (q.numerator * pow(q.denominator, p - 2, p)) % p
            assert lifted == rp.reduced.rows[i][j]


def test_determinism():
    rng = random.Random(1)
    m = gen.random_matrix(QQ, 5, 5, rng)
    assert la.rref(m).reduced == la.rref(gen.mat_copy(m)).reduced
    ints = [[rng.randrange(-9, 10) for _ in range(5)] for _ in range(5)]
    assert la.det(ints) == la.det([list(r) for r in ints])


def test_det():
    assert la.det([[2, 0], [1, 3]]) == 6
    assert la.det([[1, 2], [2, 4]]) == 0
    assert la.det([]) == 1
    # the first and the second pivot both need a row swap
    assert la.det([[0, 1, 2], [3, 4, 5], [6, 7, 9]]) == -3
    assert la.det([[1, 2, 3], [2, 4, 7], [0, 5, 1]]) == -5
    with pytest.raises(InputError):
        la.det([[1, 2]])


def _fraction_det(rows):
    """Gaussian elimination over Fractions, swapping in the first row with a
    nonzero pivot."""
    a = [[Fraction(x) for x in r] for r in rows]
    n, d = len(a), Fraction(1)
    for c in range(n):
        k = next((i for i in range(c, n) if a[i][c]), None)
        if k is None:
            return Fraction(0)
        if k != c:
            a[c], a[k] = a[k], a[c]
            d = -d
        d *= a[c][c]
        for i in range(c + 1, n):
            g = a[i][c] / a[c][c]
            a[i] = [x - g * y for x, y in zip(a[i], a[c])]
    return d


@st.composite
def _int_square(draw):
    """Square integer matrices with many zeros (so pivots need row swaps),
    sometimes with a row replaced by a combination of two others."""
    n = draw(st.integers(0, 7))
    entry = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-10**6, 10**6))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if n >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(n)))[:3]
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return rows


@settings(max_examples=300, deadline=None)
@given(_int_square())
def test_det_matches_fraction_gauss(rows):
    want = _fraction_det(rows)
    got = la.det(rows)
    assert type(got) is int and got == want
    # a swap of two rows flips the sign
    if len(rows) >= 2:
        assert la.det([rows[1], rows[0]] + rows[2:]) == -want


@pytest.mark.parametrize("rows", [
    [[2, 4], [6, 5]],                        # no unit pivot at all
    [[2, 3, 5], [4, 7, 11], [6, 13, 17]],
    [[0, 2, 3], [2, 1, 1], [-1, 4, 2]],      # the unit pivot needs a swap
    [[3, 1, 0], [5, 2, 7], [1, 0, 4]],
    [[-1, 2, 0], [2, 2, 3], [3, 4, 4]],      # units, then Bareiss
    [[1, 2, 3], [2, 4, 6], [-1, 5, 2]],      # zero determinant
    [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
    [[2, 4, 6], [1, 3, 5], [3, 7, 11]],
])
def test_det_unit_pivot_cases(rows):
    assert la.det(rows) == _fraction_det(rows)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from([0, 0, 1, -1, 2, -2, 3]), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_det_unit_heavy_matches_fraction_gauss(rows):
    # mostly unit entries, so elimination switches from unit pivots to
    # Bareiss at any column
    assert la.det(rows) == _fraction_det(rows)


def test_matmul_paths_agree():
    rng = random.Random(3)
    a_int = [[rng.randrange(-5, 6) for _ in range(4)] for _ in range(3)]
    b_int = [[rng.randrange(-5, 6) for _ in range(2)] for _ in range(4)]
    p = 101
    f = PrimeField(p)
    ap, bp = gen.int_mat(f, a_int), gen.int_mat(f, b_int)
    aq, bq = gen.int_mat(QQ, a_int), gen.int_mat(QQ, b_int)
    cp = ap @ bp
    cq = aq @ bq
    for i in range(3):
        for j in range(2):
            assert cp.rows[i][j] == cq.rows[i][j].numerator % p * pow(
                cq.rows[i][j].denominator, p - 2, p) % p


def test_empty_shapes():
    f = FP
    e = Mat.zeros(f, 0, 3)
    assert la.rank(e) == 0
    assert len(la.kernel_basis(e)) == 3
    m = Mat.zeros(f, 3, 0)
    assert la.rank(m) == 0
    assert la.kernel_basis(m) == []
    prod = e @ Mat.zeros(f, 3, 2)
    assert prod.shape == (0, 2)


# -- large primes: exact products and primality -----------------------------

LARGE_AND_SMALL_PRIMES = [2, 3, 32003, 2**31 - 1, 2**61 - 1]


def _matmul_oracle(p, a, b):
    return [[sum(x * b[k][j] for k, x in enumerate(row)) % p
             for j in range(len(b[0]))] for row in a]


def _rref_oracle(p, a):
    """Gauss-Jordan over Python ints, pivoting on the first nonzero row."""
    a = [list(r) for r in a]
    nr, nc = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(nc):
        k = next((i for i in range(r, nr) if a[i][c]), None)
        if k is None:
            continue
        a[r], a[k] = a[k], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(nr):
            if i != r and a[i][c]:
                g = a[i][c]
                a[i] = [(x - g * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return a, tuple(pivots)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(LARGE_AND_SMALL_PRIMES), st.integers(1, 16),
       st.integers(1, 16), st.integers(1, 16), st.randoms(use_true_random=False))
def test_matmul_and_rref_against_int_oracle(p, m, k, n, rng):
    f = PrimeField(p)
    a = [[rng.randrange(p) for _ in range(k)] for _ in range(m)]
    b = [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
    # a rank-deficient input too, so that non-pivot columns are exercised
    a_low = a[:max(1, m // 2)] * 2
    assert (Mat(f, a) @ Mat(f, b)).rows == _matmul_oracle(p, a, b)
    for rows in (a, a_low):
        red = la.rref(Mat(f, rows))
        reduced, pivots = _rref_oracle(p, rows)
        assert red.reduced.rows == reduced
        assert red.pivots == pivots


def _rref_fraction_oracle(a):
    """_rref_oracle over Q: Gauss-Jordan over Fractions, nothing reduced."""
    a = [list(r) for r in a]
    nr, nc = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(nc):
        k = next((i for i in range(r, nr) if a[i][c]), None)
        if k is None:
            continue
        a[r], a[k] = a[k], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nr):
            if i != r and a[i][c]:
                g = a[i][c]
                a[i] = [x - g * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return a, tuple(pivots)


def test_integral_rationals_are_ints():
    rng = random.Random(4)
    draws = [QQ.rand(rng) for _ in range(20)]
    ref = random.Random(4)
    assert draws == [ref.randrange(-QQ.RAND_MAX, QQ.RAND_MAX + 1) for _ in range(20)]
    ints = [QQ.zero, QQ.one, QQ.from_int(-7), QQ.inv(1), QQ.inv(-1), QQ.inv(Fraction(-1))]
    assert all(type(x) is int for x in ints + draws)
    assert ints == [0, 1, -7, 1, -1, -1]
    assert type(QQ.inv(-2)) is Fraction and QQ.inv(-2) == Fraction(-1, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8),
       st.randoms(use_true_random=False))
def test_matmul_and_rref_over_q_against_fraction_oracle(m, k, n, rng):
    def draw(nr, nc):
        return [[Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(nc)]
                for _ in range(nr)]
    a, b = draw(m, k), draw(k, n)

    def exact(rows):
        # a rational is an int while integral, else a Fraction: never a float
        return all(type(x) in (int, Fraction) for r in rows for x in r)

    prod = [[sum((x * b[j][c] for j, x in enumerate(row)), Fraction(0))
             for c in range(n)] for row in a]
    got = (Mat(QQ, a) @ Mat(QQ, b)).rows
    assert got == prod and exact(got)
    a_low = a[:max(1, m // 2)] * 2
    for rows in (a, a_low):
        red = la.rref(Mat(QQ, rows))
        reduced, pivots = _rref_fraction_oracle(rows)
        assert red.reduced.rows == reduced and exact(red.reduced.rows)
        assert red.pivots == pivots


def _zeros_are_ints(rows):
    return all(type(x) is int for r in rows for x in r if x == 0)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4),
       st.randoms(use_true_random=False))
def test_zeros_over_q_are_ints(m, n, k, rng):
    """The zero rule over Q: given matrices whose zeros are the int 0, every
    zero that rref, kernel_basis, solve_matrix, @ and vstack return, and
    so every zero of gen.row_space_basis, is the int 0 too, never
    Fraction(0, 1).  Nonintegral entries make elimination cancel through
    Fraction arithmetic."""
    def draw(nr, nc):
        return Mat(QQ, [[rng.choice([0, rng.randrange(-3, 4),
                                     Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)) or 0])
                         for _ in range(nc)] for _ in range(nr)], ncols=nc)
    a, b, c = draw(m, n), draw(n, k), draw(m, k)
    # a dependent row makes a row cancel to zero in the elimination
    dep = Mat(QQ, a.rows + [[x * Fraction(2, 3) or 0 for x in a.rows[0]]], ncols=n)
    for x in (a, b, c, dep):
        assert _zeros_are_ints(x.rows)
    for x in (a, dep):
        assert _zeros_are_ints(la.rref(x).reduced.rows)
        assert _zeros_are_ints(la.kernel_basis(x))
        assert _zeros_are_ints(gen.row_space_basis(x).rows)
    for rhs in (c, a @ b):
        sol = la.solve_matrix(a, rhs)
        assert sol is not None or rhs is c
        assert sol is None or _zeros_are_ints(sol.rows)
    assert _zeros_are_ints((a @ b).rows)
    assert _zeros_are_ints((dep @ b).rows)
    assert _zeros_are_ints(la.vstack([a, dep, la.rref(dep).reduced]).rows)


@pytest.mark.parametrize("f", SOLVE_FIELDS, ids=str)
def test_product_through_no_columns_is_zero(f):
    for m, n in ((0, 0), (0, 3), (2, 0), (2, 3)):
        assert Mat.zeros(f, m, 0) @ Mat.zeros(f, 0, n) == Mat.zeros(f, m, n)


def test_matmul_at_32_bit_primes_is_exact():
    rng = random.Random(5)
    for p in (2**31 - 1, 4294967291):
        f = PrimeField(p)
        a = [[rng.randrange(p) for _ in range(16)] for _ in range(16)]
        b = [[rng.randrange(p) for _ in range(16)] for _ in range(16)]
        assert (Mat(f, a) @ Mat(f, b)).rows == _matmul_oracle(p, a, b)


def _primes_below(n):
    sieve = bytearray([1]) * n
    sieve[0:2] = b"\0\0"
    for d in range(2, int(n ** 0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytearray(len(sieve[d * d::d]))
    return sieve


def test_miller_rabin_matches_trial_division_below_1e5():
    sieve = _primes_below(10**5)
    assert [la._is_prime(n) for n in range(10**5)] == [bool(x) for x in sieve]


def test_miller_rabin_rejects_pseudoprimes():
    # Carmichael numbers, and a strong pseudoprime to bases 2, 3, 5 and 7
    for n in (561, 41041, 3215031751):
        assert not la._is_prime(n)
        with pytest.raises(InputError):
            PrimeField(n)


def test_large_prime_fields_are_accepted_at_once():
    start = time.perf_counter()
    for p in (10**18 + 3, 2**61 - 1, 2**64 - 59):
        assert PrimeField(p).p == p
    assert time.perf_counter() - start < 1.0
    with pytest.raises(InputError):
        PrimeField(2**64 + 13)
    with pytest.raises(InputError):
        get_field(str(2**89 - 1))


_GLUE_AND_REPORT_NUMPY = """
import sys
from smc_kit import cli
code = cli.main(["glue", sys.argv[1], "R", "xstd", "ystd"])
print(code, "numpy" in sys.modules)
"""


def test_glue_runs_without_numpy():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", _GLUE_AND_REPORT_NUMPY,
                          str(root / "fixtures" / "a2.json")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "0 False"

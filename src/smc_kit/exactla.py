"""Exact dense linear algebra over a prime field or the rationals.

Every computation upstream (module homs, homotopy classes, truncation
triangles) bottoms out in the row reductions here, so arithmetic is exact:
Python ints reduced mod p, or rationals as Python ints while integral and
Fractions once a division makes them so.  There is one elimination and one
product for every field, written with native operators over lists.  Python
ints do not overflow, so every prime takes the same path.  The matrices
that reach this module are small (a median of a few entries, rarely more
than a thousand), so the cost of a call is its overhead, not its arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import List, Optional, Sequence, Tuple, Union

from .config import InputError

DEFAULT_PRIME = 32003

Element = Union[int, Fraction]


# The first twelve primes: as Miller-Rabin bases they decide primality
# exactly for every n < 3.18e23 (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 2^64; larger n is refused."""
    if n >= 1 << 64:
        raise InputError(f"{n} is too large: field sizes must be below 2^64")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p with elements stored as reduced Python ints."""

    def __init__(self, p: int = DEFAULT_PRIME):
        if not _is_prime(p):
            raise InputError(f"{p} is not prime")
        self.p = p

    zero = 0
    one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        try:
            return pow(a, -1, self.p)
        except ValueError:
            raise ZeroDivisionError("inverse of 0") from None

    def from_int(self, n: int):
        return n % self.p

    @property
    def sample_size(self) -> int:
        """Size of the set rand draws from uniformly."""
        return self.p

    def rand(self, rng):
        return rng.randrange(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F_{self.p}"


class RationalField:
    """Exact rationals as Python ints or Fractions.  The constants, from_int,
    rand and the inverse of +-1 are ints, so integral work stays in int
    arithmetic; a Fraction enters only through the inverse of any other
    value.  Mixed int/Fraction arithmetic is exact, and an integral Fraction
    equals, hashes and prints as its int, so the two are one rational."""

    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return int(a) if a in (1, -1) else 1 / Fraction(a)

    def from_int(self, n: int):
        return n

    RAND_MAX = 20  # rand draws uniformly from the integers -RAND_MAX..RAND_MAX
    sample_size = 2 * RAND_MAX + 1

    def rand(self, rng):
        return rng.randrange(-self.RAND_MAX, self.RAND_MAX + 1)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


Field = Union[PrimeField, RationalField]


def _modulus(f: Field) -> int:
    """p for F_p, and 0 for the rationals, whose Fractions need no reduction."""
    return f.p if isinstance(f, PrimeField) else 0


def get_field(spec) -> Field:
    """'rationals'/'Q' or a prime number."""
    if isinstance(spec, (PrimeField, RationalField)):
        return spec
    if isinstance(spec, str):
        if spec.lower() in ("q", "qq", "rational", "rationals"):
            return RationalField()
        if spec.isdigit():
            return PrimeField(int(spec))
        raise InputError(f"unknown field spec {spec!r}")
    if isinstance(spec, int):
        return PrimeField(spec)
    raise InputError(f"unknown field spec {spec!r}")


class Mat:
    """Dense matrix over a Field; rows is a list of lists of elements."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, rows: List[List[Element]], ncols: Optional[int] = None):
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        if rows:
            self.ncols = len(rows[0])
            for r in rows:
                if len(r) != self.ncols:
                    raise InputError("ragged matrix")
        else:
            if ncols is None:
                raise InputError("empty matrix needs explicit ncols")
            self.ncols = ncols

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, field, m, n):
        z = field.zero
        return cls(field, [[z] * n for _ in range(m)], ncols=n)

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)], ncols=n)

    # -- arithmetic --------------------------------------------------------

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise InputError(f"matmul shape mismatch {self.shape} @ {other.shape}")
        f = self.field
        p, z = _modulus(f), f.zero
        return Mat(f, [_row_times(row, other, p, z) for row in self.rows],
                   ncols=other.ncols)

    def __add__(self, other):
        f = self.field
        if self.shape != other.shape:
            raise InputError("shape mismatch in add")
        return Mat(f, [[f.add(a, b) for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)],
                   ncols=self.ncols)

    def columns(self, lo: int, hi: int) -> "Mat":
        return Mat(self.field, [r[lo:hi] for r in self.rows], ncols=hi - lo)

    def transpose(self):
        return Mat(self.field, [[self.rows[i][j] for i in range(self.nrows)]
                                for j in range(self.ncols)], ncols=self.nrows)

    # -- misc --------------------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def is_zero(self):
        return not any(map(any, self.rows))

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.shape == other.shape
                and self.rows == other.rows)

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols} over {self.field})"


def _row_times(row: Sequence[Element], m: Mat, p: int, z) -> List[Element]:
    """row @ m as a combination of m's rows, reduced mod p unless p is 0;
    the zero entries of row, most of them in module actions and kernel
    rows, add nothing and are skipped.  Over Q a Fraction times an int 0
    is Fraction(0, 1), so zeros are stored back as the int 0."""
    acc = [z] * m.ncols
    for x, mrow in compress(zip(row, m.rows), row):
        acc = [s + x * y for s, y in zip(acc, mrow)]
    return [s % p for s in acc] if p else [s or 0 for s in acc]


def vec_mat(v: Sequence[Element], m: Mat) -> List[Element]:
    """The row vector v @ m."""
    if len(v) != m.nrows:
        raise InputError(f"vec_mat shape mismatch {len(v)} @ {m.shape}")
    return _row_times(v, m, _modulus(m.field), m.field.zero)


def hstack(mats: Sequence[Mat]) -> Mat:
    mats = list(mats)
    f = mats[0].field
    m = mats[0].nrows
    rows = [[] for _ in range(m)]
    for mat in mats:
        if mat.nrows != m:
            raise InputError("hstack row mismatch")
        for i in range(m):
            rows[i].extend(mat.rows[i])
    return Mat(f, rows, ncols=sum(mat.ncols for mat in mats))


def vstack(mats: Sequence[Mat]) -> Mat:
    mats = list(mats)
    f = mats[0].field
    n = mats[0].ncols
    rows = []
    for mat in mats:
        if mat.ncols != n:
            raise InputError("vstack col mismatch")
        rows.extend([list(r) for r in mat.rows])
    return Mat(f, rows, ncols=n)


# -- row reduction ----------------------------------------------------------


@dataclass
class RRef:
    """Reduced row echelon form of a matrix and its pivot columns."""

    reduced: Mat
    pivots: Tuple[int, ...]


def rref(m: Mat) -> RRef:
    """Gauss-Jordan elimination, pivoting on the first nonzero row of each
    column; over F_p every entry is reduced after each step.  Over Q the
    eliminated entries come out as Fraction(0, 1), and are stored back as
    the int 0, as _row_times stores its zeros: every zero of the rows that
    rref, kernel_basis, solve_matrix and row_space_basis return is the int 0."""
    f = m.field
    p = _modulus(f)
    nr, nc = m.shape
    a = [[x % p for x in r] for r in m.rows] if p else [list(r) for r in m.rows]
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        col = [row[c] for row in a]
        k = next(compress(range(r, nr), col[r:]), None)
        if k is None:
            continue
        a[r], a[k] = a[k], a[r]
        inv = f.inv(col[k])
        col[k] = col[r]
        col[r] = 0
        top = a[r] = [inv * x % p for x in a[r]] if p else [inv * x for x in a[r]]
        for i in compress(range(nr), col):
            g = col[i]
            a[i] = ([(x - g * y) % p for x, y in zip(a[i], top)] if p
                    else [x - g * y for x, y in zip(a[i], top)])
        pivots.append(c)
        r += 1
    if not p:
        a = [[x or 0 for x in row] for row in a]
    return RRef(Mat(f, a, ncols=nc), tuple(pivots))


def rank(m: Mat) -> int:
    """Rank over the matrix's field, by exact Gaussian elimination; one row
    needs none."""
    if m.nrows == 1:
        p = _modulus(m.field)
        return int(any(x % p for x in m.rows[0]) if p else any(m.rows[0]))
    return len(rref(m).pivots)


def kernel_basis(m: Mat) -> List[List[Element]]:
    """Basis of the right null space: vectors v with m @ v = 0."""
    f = m.field
    red = rref(m)
    piv = set(red.pivots)
    free = [j for j in range(m.ncols) if j not in piv]
    basis = []
    pivot_list = list(red.pivots)
    for j in free:
        v = [f.zero] * m.ncols
        v[j] = f.one
        for i, pc in enumerate(pivot_list):
            v[pc] = f.neg(red.reduced.rows[i][j])
        basis.append(v)
    return basis


def left_kernel_basis(m: Mat) -> List[List[Element]]:
    """Row vectors x with x @ m = 0."""
    return kernel_basis(m.transpose())


def solve(m: Mat, b: Sequence[Element]) -> Optional[List[Element]]:
    """One solution x of m @ x = b, or None when the system is inconsistent."""
    if len(b) != m.nrows:
        raise InputError(f"rhs length {len(b)} != nrows {m.nrows}")
    sol = solve_matrix(m, Mat(m.field, [[x] for x in b], ncols=1))
    return None if sol is None else [r[0] for r in sol.rows]


def solve_matrix(m: Mat, b: Mat) -> Optional[Mat]:
    """X with m @ X = b, or None if any column is inconsistent.

    One reduction of [m | b]: a pivot in b's columns means some column of b
    is not in m's column space; otherwise the pivot row of column pc of m
    carries X[pc] in its b-part, and the free coordinates of X are zero."""
    if b.nrows != m.nrows:
        raise InputError("solve_matrix shape mismatch")
    red = rref(hstack([m, b]))
    if red.pivots and red.pivots[-1] >= m.ncols:
        return None
    out = Mat.zeros(m.field, m.ncols, b.ncols)
    for i, pc in enumerate(red.pivots):
        out.rows[pc] = red.reduced.rows[i][m.ncols:]
    return out


def row_space_basis(m: Mat) -> Mat:
    red = rref(m)
    return Mat(m.field, [red.reduced.rows[i] for i in range(len(red.pivots))],
               ncols=m.ncols)


def det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix.  While column 0 has an entry
    +-1, that row is swapped up and the others are cleared by integer row
    operations, touching only the rows with a nonzero entry there; the
    rest, if any, goes through fraction-free Bareiss elimination over
    Python ints, whose division by the previous pivot at each step is
    exact and whose last pivot is the determinant up to the sign of the
    row swaps."""
    a = [list(r) for r in rows]
    if any(len(r) != len(a) for r in a):
        raise InputError("det needs a square matrix")
    sign = 1
    while a:
        k = next((i for i, r in enumerate(a) if r[0] in (1, -1)), None)
        if k is None:
            break
        top = a[k]
        u = top[0]
        if k:
            a[k] = a[0]
            sign = -sign
        sign *= u
        # row r minus (r[0] / u) top, where 1 / u = u
        a = [[x - g * t for x, t in zip(r[1:], top[1:])] if (g := r[0] * u) else r[1:]
             for r in a[1:]]
    prev = 1
    while a:
        k = next((i for i, r in enumerate(a) if r[0]), None)
        if k is None:
            return 0
        if k:
            a[0], a[k] = a[k], a[0]
            sign = -sign
        top = a[0]
        p = top[0]
        a = [[(p * y - r[0] * t) // prev for y, t in zip(r[1:], top[1:])]
             for r in a[1:]]
        prev = p
    return sign * prev

"""Exact integer linear algebra over Python's arbitrary-precision integers.

Each job uses the simplest elimination that answers it.  Forward Bareiss
fraction-free elimination gives the determinant and the first independent
rows, so ranks; its reduced (Gauss-Jordan) form gives signed maximal minors
(the kernel line of a k x (k+1) matrix) and the adjugate behind every square
solve and inverse; one reduced pass over [a | I] gives both at once.  One
unimodular row pass gives the Hermite form, which serves integer_kernel;
the Smith form alternates that pass on a matrix and on its transpose, and
serves only where invariant factors are the answer (the residual of
homology's unit-pivot elimination, is_unimodular_extension).
Values are immutable and every operation is pure, so concurrent use is safe.

Conventions:
  * Smith form: U @ A @ V = D with U, V unimodular, D diagonal with
    nonnegative entries forming a divisibility chain d1 | d2 | ...
  * Hermite form: row-style, H = U @ A with positive pivots and entries
    above each pivot reduced into [0, pivot).
  * Kernel bases are Hermite-normalized so results are deterministic.
  * Every Smith, Hermite and adjugate result is verified before it is returned.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import ConsistencyError, DegenerateInputError, DimensionMismatchError, InputFormatError


def as_int(x, where: str) -> int:
    """x as an int; a float, string or fraction, which int() would truncate or parse, raises."""
    try:
        return operator.index(x)
    except TypeError:
        raise InputFormatError(f"{where} is {x!r}, not an integer") from None


def as_id(x, where: str) -> str:
    """x as a cell, facet or ray id; anything but a string, which str() would rename, raises."""
    if isinstance(x, str):
        return x
    raise InputFormatError(f"{where} is {x!r}, not a string")


def _as_ints(entries: tuple, what: str) -> tuple[int, ...]:
    try:
        return tuple(map(operator.index, entries))  # the fast path of the hot constructors
    except TypeError:
        return tuple(as_int(e, f"{what} entry {i}") for i, e in enumerate(entries))


@dataclass(frozen=True)
class IntVector:
    """Immutable integer vector."""

    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", _as_ints(self.entries, "vector"))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __add__(self, other: "IntVector") -> "IntVector":
        self._same_dim(other)
        return IntVector(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "IntVector") -> "IntVector":
        self._same_dim(other)
        return IntVector(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "IntVector":
        return IntVector(tuple(-a for a in self.entries))

    def scale(self, k: int) -> "IntVector":
        return IntVector(tuple(k * a for a in self.entries))

    def dot(self, other: "IntVector") -> int:
        self._same_dim(other)
        return dot(self.entries, other.entries)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def content(self) -> int:
        """gcd of the entries (0 for the zero vector)."""
        return math.gcd(*self.entries) if self.entries else 0

    def is_primitive(self) -> bool:
        return self.content() == 1

    def _same_dim(self, other: "IntVector") -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError(f"vector dims {self.dim} != {other.dim}")

    def __repr__(self) -> str:
        return f"IntVector({list(self.entries)!r})"


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    """The pairing of two plain rows of ints; the kernel of every product below."""
    return sum(map(operator.mul, u, v))


def vec(*entries: int) -> IntVector:
    return IntVector(tuple(entries))


def primitive(v: IntVector) -> IntVector:
    """v divided by the gcd of its entries, its first nonzero entry made positive."""
    w = primitive_entries(v.entries)
    if w is None:
        raise DegenerateInputError("primitive() of the zero vector")
    return IntVector(w)


def primitive_entries(v: Sequence[int]) -> tuple[int, ...] | None:
    """primitive() on plain ints: v over its gcd, first nonzero entry positive; None for zero."""
    g = math.gcd(*v)
    if g == 0:
        return None
    if next(a for a in v if a) < 0:
        g = -g
    return tuple(a // g for a in v)


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        ent = _as_ints(self.entries, "matrix")
        if len(ent) != self.rows * self.cols:
            raise DimensionMismatchError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries, got {len(ent)}"
            )
        object.__setattr__(self, "entries", ent)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int] | IntVector]) -> "IntMatrix":
        rows = [list(r) for r in rows]
        n = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != n:
                raise DimensionMismatchError("ragged rows")
        return cls(len(rows), n, tuple(x for r in rows for x in r))

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence[int] | IntVector]) -> "IntMatrix":
        cols = [list(c) for c in cols]
        return cls.from_rows(list(map(list, zip(*cols)))) if cols else cls(0, 0, ())

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> IntVector:
        return IntVector(self.entries[i * self.cols : (i + 1) * self.cols])

    def col(self, j: int) -> IntVector:
        return IntVector(self.entries[j :: self.cols][: self.rows]) if self.cols else IntVector(())

    def row_list(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    @cached_property
    def row_tuples(self) -> tuple[tuple[int, ...], ...]:
        """The rows as tuples, sliced once for every product with a vector."""
        c = self.cols
        return tuple(self.entries[i * c : (i + 1) * c] for i in range(self.rows))

    def transpose(self) -> "IntMatrix":
        c = self.cols
        return IntMatrix(c, self.rows, tuple(x for j in range(c) for x in self.entries[j::c]))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __matmul__(self, other):
        if isinstance(other, IntVector):
            if self.cols != other.dim:
                raise DimensionMismatchError(f"{self.rows}x{self.cols} @ vector of dim {other.dim}")
            x = other.entries
            return IntVector(tuple(dot(r, x) for r in self.row_tuples))
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise DimensionMismatchError(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
            return IntMatrix(self.rows, other.cols, _products(self.row_tuples, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"IntMatrix({self.row_list()!r})"


def _products(rows: Sequence[Sequence[int]], b: IntMatrix) -> tuple[int, ...]:
    """The entries of the product of the given rows with b, row-major, as plain ints."""
    cols = [b.entries[j :: b.cols] for j in range(b.cols)]
    return tuple(dot(r, c) for r in rows for c in cols)


def stack_rows(vectors: Sequence[IntVector], cols: int | None = None) -> IntMatrix:
    """Matrix with the given vectors as rows; cols pins the width when empty."""
    if not vectors:
        if cols is None:
            raise DegenerateInputError("stack_rows needs cols for an empty stack")
        return IntMatrix(0, cols, ())
    return IntMatrix.from_rows([list(v) for v in vectors])


def _bareiss(m: list[list[int]], cols: int, reduced: bool = False) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free row echelon form (Bareiss, Math. Comp. 22, 1968) of the rows m.

    Returns (rows, pivots, sign): the pivot column of each nonzero row, among the
    first cols columns, and the parity of the row swaps; m itself is reordered.
    With reduced, each pivot also clears its column above (Nakos, Turner and
    Williams, SIGSAM Bull. 31(3), 1997) and all pivots end equal.  Every entry
    stays a minor of the input, so each division by the previous pivot is exact.
    """
    sign, prev, pivots = 1, 1, []
    for c in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        top, p = m[r], m[r][c]
        for i in range(0 if reduced else r + 1, len(m)):
            f = m[i][c]
            if i != r and (f or p != prev):  # else the row is scaled by p / prev = 1
                m[i] = [(x * p - f * y) // prev for x, y in zip(m[i], top)]
        prev = p
        pivots.append(c)
    return m, pivots, sign


def determinant(a: IntMatrix) -> int:
    """Exact determinant: the last Bareiss pivot, signed by the row swaps (1 when empty)."""
    if not a.is_square():
        raise DimensionMismatchError(f"determinant of a {a.rows}x{a.cols} matrix")
    m, pivots, sign = _bareiss(a.row_list(), a.cols)
    return 0 if len(pivots) < a.rows else sign * m[-1][-1] if m else 1


def _minors(m: list[list[int]], pivots: list[int], sign: int, cols: int) -> tuple[int, ...]:
    """v_t = (-1)^t det(a without column t) for a k x (k+1) matrix a, read off its reduced form.

    a @ v = 0 by Laplace expansion, and v spans ker(a) over Q (else v = 0).
    In the reduced form, with f the column without a pivot, d the last pivot and
    s = (-1)^f times the swap sign, v_f = s d and v_c = -s m[i][f] at row i's pivot c.
    """
    v = [0] * cols
    if len(pivots) == cols - 1:
        f = min(set(range(cols)) - set(pivots))
        s = (-1) ** f * sign
        v[f] = s * m[-1][pivots[-1]] if m else s
        for r, c in zip(m, pivots):
            v[c] = -s * r[f]
    return tuple(v)


@dataclass(frozen=True)
class Adjugate:
    """a @ adj == det * I for a square matrix a; adj is None when det is 0."""

    det: int
    adj: IntMatrix | None

    def solve(self, b: IntVector) -> IntVector | None:
        """The solution x of a @ x = b when it is integral, else None (also when a is singular)."""
        if self.adj is None:
            return None
        num = self.adj @ b
        if any(x % self.det for x in num):
            return None
        return IntVector(tuple(x // self.det for x in num))

    def inverse(self) -> IntMatrix:
        """The integer inverse det * adj, for det +-1."""
        if self.det not in (1, -1):
            raise DegenerateInputError(f"matrix with determinant {self.det} has no integer inverse")
        return IntMatrix(self.adj.rows, self.adj.cols, tuple(self.det * x for x in self.adj.entries))


def adjugate(a: IntMatrix) -> Adjugate:
    """Determinant and adjugate of a square matrix from one reduced elimination.

    The reduced form of [a | I] is [d I | s adj] with s the sign of the row
    swaps, and det = s d.  The result is verified before it is returned.
    """
    if not a.is_square():
        raise DimensionMismatchError(f"adjugate of a {a.rows}x{a.cols} matrix")
    return _beside_identity(a)[1]


def minors_and_adjugate(a: IntMatrix) -> tuple[IntVector, Adjugate]:
    """The signed maximal minors of a (_minors) and the adjugate of its leading k x k block b.

    Both come from one elimination: the reduced form of [a | I] pivots on the
    columns of a alone, so its first k + 1 columns are those of the reduced
    form of a, which give the minors.
    When b is invertible its pivots are the first k columns, and the identity
    block ends as s adj(b), as in adjugate; otherwise the adjugate is
    Adjugate(0, None).  The adjugate is verified before it is returned.
    """
    if a.cols != a.rows + 1:
        raise DimensionMismatchError(f"maximal minors of a {a.rows}x{a.cols} matrix")
    (m, pivots, sign), adj = _beside_identity(a)
    return IntVector(_minors(m, pivots, sign, a.cols)), adj


def _beside_identity(a: IntMatrix) -> tuple[tuple[list[list[int]], list[int], int], Adjugate]:
    """The reduced form of [a | I], pivoting on a's columns, and the adjugate of a's leading square block.

    The adjugate is verified before it is returned.
    """
    k, cols = a.rows, a.cols
    m = [r + [int(i == j) for j in range(k)] for i, r in enumerate(a.row_list())]
    m, pivots, sign = _bareiss(m, cols, reduced=True)
    if pivots != list(range(k)):
        return (m, pivots, sign), Adjugate(0, None)
    det = sign * m[-1][k - 1] if m else 1
    result = Adjugate(det, IntMatrix(k, k, tuple(sign * x for r in m for x in r[cols:])))
    _check_adjugate(a if cols == k else IntMatrix(k, k, tuple(x for r in a.row_tuples for x in r[:k])), result)
    return (m, pivots, sign), result


def _check_adjugate(a: IntMatrix, result: Adjugate) -> None:
    n = a.rows
    if _products(a.row_tuples, result.adj) != tuple(result.det * (i == j) for i in range(n) for j in range(n)):
        raise ConsistencyError("adjugate check: A*adj != det*I")


def independent_rows(rows: Sequence[Sequence[int]], k: int) -> list[int]:
    """Indices of the rows (of length k) independent of those before: pivots of the rows as columns."""
    return _bareiss([[r[i] for r in rows] for i in range(k)], len(rows))[1]


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V = D with U, V unimodular and D in Smith normal form."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    rank: int

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d.entry(i, i) for i in range(min(self.d.rows, self.d.cols)))

    def torsion(self) -> tuple[int, ...]:
        """Nontrivial invariant factors (diagonal entries > 1)."""
        return tuple(x for x in self.diagonal() if x > 1)


def _gcdex(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


class _Worker:
    """Mutable rows d and a tracker u to which every row operation on d is also applied."""

    def __init__(self, a: IntMatrix):
        self.m = a.rows
        self.n = a.cols
        self.d = a.row_list()
        self.u = IntMatrix.identity(a.rows).row_list()

    def transpose(self, tracker):
        """Replace d by its transpose and u by tracker, the tracker of d's columns; return the old u."""
        self.d = [[row[j] for row in self.d] for j in range(self.n)]
        self.m, self.n = self.n, self.m
        self.u, tracker = tracker, self.u
        return tracker

    def swap_rows(self, i, j):
        self.d[i], self.d[j] = self.d[j], self.d[i]
        self.u[i], self.u[j] = self.u[j], self.u[i]

    def negate_row(self, i):
        self.d[i] = [-x for x in self.d[i]]
        self.u[i] = [-x for x in self.u[i]]

    def add_row(self, i, j, q):
        """row i += q * row j"""
        self.d[i] = [x + q * y for x, y in zip(self.d[i], self.d[j])]
        self.u[i] = [x + q * y for x, y in zip(self.u[i], self.u[j])]

    def rot_rows(self, i, j, col):
        """Unimodular 2x2 row transform making d[j][col] = 0, d[i][col] = gcd."""
        a, b = self.d[i][col], self.d[j][col]
        if a != 0 and b % a == 0:
            # plain elimination keeps the pivot row intact (termination relies on it)
            self.add_row(j, i, -(b // a))
            return
        g, x, y = _gcdex(a, b)
        p, q = -(b // g), a // g
        self.d[i], self.d[j] = (
            [x * s + y * t for s, t in zip(self.d[i], self.d[j])],
            [p * s + q * t for s, t in zip(self.d[i], self.d[j])],
        )
        self.u[i], self.u[j] = (
            [x * s + y * t for s, t in zip(self.u[i], self.u[j])],
            [p * s + q * t for s, t in zip(self.u[i], self.u[j])],
        )


def _hermite_rows(w: _Worker) -> None:
    """Bring w.d to row-style Hermite form by row operations; unchecked."""
    pivot_row = 0
    for col in range(w.n):
        row = next((i for i in range(pivot_row, w.m) if w.d[i][col]), None)
        if row is None:
            continue
        if row != pivot_row:
            w.swap_rows(pivot_row, row)
        for i in range(pivot_row + 1, w.m):
            if w.d[i][col]:
                w.rot_rows(pivot_row, i, col)
        if w.d[pivot_row][col] < 0:
            w.negate_row(pivot_row)
        p = w.d[pivot_row][col]
        for i in range(pivot_row):
            q = w.d[i][col] // p
            if q:
                w.add_row(i, pivot_row, -q)
        pivot_row += 1


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transformation matrices.

    Returns SmithDecomposition(u, d, v, rank) with u @ a @ v = d; the result
    is verified before returning.  The Hermite row pass runs alternately on
    D and on its transpose, whose row tracker is V^T (Kannan and Bachem, SIAM
    J. Comput. 8, 1979), until a pass leaves D diagonal; where d_i does not
    divide d_{i+1}, row i+1 is added to row i of whichever of D and D^T the
    pass left, and the passes go on.  This terminates: the leading entry is
    a positive integer that drops at every pass until it divides its row and
    column; the next pass then clears both by plain eliminations, which keep
    the pivot row intact, and later passes leave that row and column alone,
    so the argument recurses on the trailing block.  Each divisibility fix
    replaces d_i by gcd(d_i, d_{i+1}) < d_i.  At least one pass runs before
    D is tested: a diagonal input such as diag(0, 3) or (-2) is not yet in
    Smith form.
    """
    w = _Worker(a)
    other = IntMatrix.identity(a.cols).row_list()  # the tracker of D's columns, as rows of V^T
    flipped = False
    while True:
        _hermite_rows(w)
        if not any(x for i, row in enumerate(w.d) for j, x in enumerate(row) if i != j):
            r = sum(1 for i in range(min(w.m, w.n)) if w.d[i][i])
            i = next((i for i in range(r - 1) if w.d[i + 1][i + 1] % w.d[i][i]), None)
            if i is None:
                break
            w.add_row(i, i + 1, 1)
        other, flipped = w.transpose(other), not flipped
    if flipped:
        other = w.transpose(other)
    m, n = a.rows, a.cols
    u = IntMatrix.from_rows(w.u) if m else IntMatrix(0, 0, ())
    v = IntMatrix.from_rows(other).transpose() if n else IntMatrix(0, 0, ())
    d = IntMatrix.from_rows(w.d) if m and n else IntMatrix(m, n, (0,) * (m * n))
    dec = SmithDecomposition(u, d, v, r)
    _check_smith(a, dec)
    return dec


def _check_smith(a: IntMatrix, dec: SmithDecomposition) -> None:
    if (dec.u @ a @ dec.v).entries != dec.d.entries:
        raise ConsistencyError("Smith check: U*A*V != D")
    if abs(determinant(dec.u)) != 1:
        raise ConsistencyError("Smith check: U not unimodular")
    if abs(determinant(dec.v)) != 1:
        raise ConsistencyError("Smith check: V not unimodular")
    diag = dec.diagonal()
    for i in range(len(diag) - 1):
        if diag[i + 1] and not (diag[i] and diag[i + 1] % diag[i] == 0):
            raise ConsistencyError("Smith check: divisibility chain broken")
    if any(dec.d.entry(i, j) for i in range(dec.d.rows) for j in range(dec.d.cols) if i != j):
        raise ConsistencyError("Smith check: D not diagonal")


def hermite_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns (h, u) with u @ a = h, u unimodular, pivots positive and entries
    above each pivot reduced into [0, pivot).
    """
    w = _Worker(a)
    _hermite_rows(w)
    m, n = a.rows, a.cols
    h = IntMatrix.from_rows(w.d) if m and n else IntMatrix(m, n, (0,) * (m * n))
    u = IntMatrix.from_rows(w.u) if m else IntMatrix(0, 0, ())
    _check_hermite(a, h, u)
    return h, u


def _check_hermite(a: IntMatrix, h: IntMatrix, u: IntMatrix) -> None:
    if (u @ a).entries != h.entries:
        raise ConsistencyError("Hermite check: U*A != H")
    if abs(determinant(u)) != 1:
        raise ConsistencyError("Hermite check: U not unimodular")
    leads = [next((j for j, x in enumerate(r) if x), h.cols) for r in h.row_list()]
    r = sum(1 for c in leads if c < h.cols)
    if leads[:r] != sorted(set(leads[:r])) or leads[r:] != [h.cols] * (h.rows - r):
        raise ConsistencyError("Hermite check: H not in row echelon form")
    for i, c in enumerate(leads[:r]):
        p = h.entry(i, c)
        if p <= 0 or any(not 0 <= h.entry(k, c) < p for k in range(i)):
            raise ConsistencyError("Hermite check: pivot not positive or entry above it not reduced")


def integer_kernel(a: IntMatrix) -> list[IntVector]:
    """Basis of ker(a) as a saturated sublattice of Z^cols.

    With u @ a^T = h in Hermite form, the rows of the unimodular u where h is
    zero generate the full kernel lattice (not a finite-index sublattice).
    Their Hermite form is the basis, so the output is deterministic.
    """
    h, u = hermite_normal_form(a.transpose())
    gens = [u.row(i) for i in range(h.rows) if h.row(i).is_zero()]
    h, _ = hermite_normal_form(stack_rows(gens, cols=a.cols))
    return [h.row(i) for i in range(h.rows)]


def is_unimodular_extension(vectors: Sequence[IntVector], dim: int) -> bool:
    """True iff the vectors extend to a Z-basis of Z^dim.

    Equivalently, the Smith diagonal of their stacked matrix is all ones.
    """
    vs = list(vectors)
    if not vs:
        return True
    if len(vs) > dim:
        return False
    for v in vs:
        if v.dim != dim:
            raise DimensionMismatchError(f"vector of dim {v.dim} in Z^{dim}")
    return smith_normal_form(stack_rows(vs)).diagonal() == (1,) * len(vs)


def kernel_complement(alpha: IntVector) -> IntMatrix:
    """Hermite-canonical basis of {v : <alpha, v> = 0}, one basis vector per row.

    This is the coordinate frame used for a subtorus cut out by the primitive
    character alpha: the rows are a basis of its cocharacter lattice.
    """
    if alpha.is_zero():
        raise DegenerateInputError("kernel_complement of the zero character")
    basis = integer_kernel(stack_rows([alpha]))
    return stack_rows(basis, cols=alpha.dim)

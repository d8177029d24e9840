"""Weight systems of tangent representations at fixed points.

A weight system is n characters in Z^(n-1).  The induced linear relation
determines the Cramer coefficients; their normalized values decide general
position, strictness (all unit coefficients) and the finite parts of
coordinate stabilizers.  Signs of the stored weights are part of the data
(an omniorientation); every predicate that is sign-independent is tested to
be so.  A weight system runs one elimination, of the weights as columns
beside an identity block, which gives both its Cramer coefficients and the
one adjugate its stabilizer lines are read from; a subtorus choice computes
its kernel frame once, and induced weight systems are read through that
frame on plain rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    ConsistencyError,
    DegenerateInputError,
    DimensionMismatchError,
    PreconditionError,
    StarConditionError,
)
from .lattice import (
    Adjugate,
    IntMatrix,
    IntVector,
    adjugate,
    as_int,
    dot,
    kernel_complement,
    minors_and_adjugate,
    stack_rows,
)


@dataclass(frozen=True)
class CramerCoefficients:
    c_tilde: tuple[int, ...]
    c_gcd: int
    c: tuple[int, ...]


@dataclass(frozen=True)
class WeightSystem:
    """n weight vectors in Z^(n-1); their signs are part of the data.

    The Cramer coefficients and the adjugate columns are computed together,
    on first use, by one elimination, and both are verified there.
    """

    n: int
    weights: tuple[IntVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(IntVector(tuple(w)) for w in self.weights))
        if self.n < 2:
            raise DegenerateInputError(f"weight system needs n >= 2, got {self.n}")
        if len(self.weights) != self.n:
            raise DimensionMismatchError(f"expected {self.n} weights, got {len(self.weights)}")
        for w in self.weights:
            if w.dim != self.n - 1:
                raise DimensionMismatchError(f"weight of dim {w.dim}, expected {self.n - 1}")

    @cached_property
    def _eliminated(self) -> tuple[CramerCoefficients, tuple[tuple[int, ...], ...]]:
        """The Cramer coefficients, checked against the relation, and the adjugate columns.

        Both come from one reduced elimination of [W^T | I], W^T having the
        weights as columns (lattice.minors_and_adjugate): its minors are the
        signed maximal minors of W^T, and its adjugate is that of the leading
        block A^T, A the first n-1 weights, whose rows are the columns of adj(A).
        """
        minors, adj = minors_and_adjugate(IntMatrix.from_cols(self.weights))
        c_tilde = tuple(-x for x in minors)
        rows = [w.entries for w in self.weights]
        residual = [dot(c_tilde, column) for column in zip(*rows)]
        if any(residual):
            raise ConsistencyError(f"Cramer identity violated: residual {residual}")
        g = math.gcd(*c_tilde) or 1  # all minors vanish: c is c_tilde itself
        k = self.n - 1
        e = adj.adj.entries if adj.adj is not None else (0,) * (k * k)
        columns = tuple(e[i * k : (i + 1) * k] for i in range(k))
        return CramerCoefficients(c_tilde, g, tuple(x // g for x in c_tilde)), columns + ((0,) * k,)

    @property
    def _cramer(self) -> CramerCoefficients:
        """Signed maximal minors of the weights, checked against the relation once."""
        return self._eliminated[0]

    @property
    def adjugate_columns(self) -> tuple[tuple[int, ...], ...]:
        """Columns a_0..a_(n-2) of the adjugate of the first n-1 weights, then a_(n-1) = 0.

        Weight m < n-1 pairs with a_i to the determinant of those weights when
        m = i and to 0 otherwise; every column is zero when that determinant is.
        """
        return self._eliminated[1]


@dataclass(frozen=True)
class StabilizerStructure:
    torus_rank: int
    finite_orders: tuple[int, ...]


def cramer_coefficients(ws: WeightSystem) -> CramerCoefficients:
    """Signed maximal-minor coefficients of the weight relation.

    c_tilde[i] is (-1)^(i+1) times the determinant of the weights with row i
    deleted (1-based alternation), so that sum_i c_tilde[i] * weight[i] = 0;
    the identity is verified when the system first computes them.  c is
    c_tilde divided by the gcd of its entries.
    """
    return ws._cramer


def _general_position_cramer(ws: WeightSystem) -> CramerCoefficients:
    cc = ws._cramer
    if 0 in cc.c_tilde:
        raise PreconditionError("weight system is not in general position")
    return cc


def is_general_position(ws: WeightSystem) -> bool:
    """True iff every n-1 of the n weights are linearly independent."""
    return 0 not in ws._cramer.c_tilde


def is_strictly_appropriate(ws: WeightSystem) -> bool:
    """True iff every normalized coefficient is +-1 (all stabilizers connected)."""
    return all(abs(x) == 1 for x in _general_position_cramer(ws).c)


def stabilizer_structure(ws: WeightSystem, indices: Iterable[int]) -> StabilizerStructure:
    """Structure of the stabilizer of a coordinate subspace orbit.

    The stabilizer of the coordinate subtorus selected by `indices`
    (0-based) is presented by the single relation with the normalized
    coefficients restricted to those indices.  In general position none is
    zero, so the Smith form of that 1 x k relation is (g), g their gcd: torus
    rank k - 1 and the cyclic factor Z/g.
    """
    idx = sorted({as_int(i, "stabilizer index") for i in indices})
    if not idx:
        raise DegenerateInputError("empty index set")
    if idx[0] < 0 or idx[-1] >= ws.n:
        raise DimensionMismatchError(f"indices out of range for n={ws.n}")
    c = _general_position_cramer(ws).c
    g = math.gcd(*(c[i] for i in idx))
    return StabilizerStructure(torus_rank=len(idx) - 1, finite_orders=(g,) if g > 1 else ())


def strict_coefficients(ws: WeightSystem) -> tuple[int, ...]:
    """The normalized coefficients c of a strictly appropriate system, each +-1.

    Raises PreconditionError for any other system; the chart sweep of
    chardata.data_from_charts guards strictness through it.
    """
    if not is_strictly_appropriate(ws):
        raise PreconditionError("hopf_type requires a strictly appropriate system")
    return ws._cramer.c


@dataclass(frozen=True)
class SubtorusChoice:
    """Primitive character alpha cutting out a codimension-one subtorus.

    The complement rows are the Hermite-canonical basis of ker<alpha, .>;
    circle directions inside the subtorus are written in this basis, and
    characters are restricted by pairing against it.
    """

    alpha: IntVector

    def __post_init__(self):
        object.__setattr__(self, "alpha", IntVector(tuple(self.alpha)))
        if not self.alpha.is_primitive():
            raise DegenerateInputError("alpha must be primitive")

    @cached_property
    def complement(self) -> IntMatrix:
        return kernel_complement(self.alpha)

    @cached_property
    def _frame(self) -> Adjugate:
        """Adjugate of the complement rows and alpha taken as columns."""
        return adjugate(IntMatrix.from_cols(self.complement.row_list() + [self.alpha]))

    def pairing(self, lam: IntVector) -> int:
        return self.alpha.dot(lam)

    def kernel_coordinates(self, v: IntVector) -> IntVector:
        """Coordinates of v in the complement basis; v must lie in ker<alpha, .>."""
        if self.alpha.dot(v) != 0:
            raise DegenerateInputError("vector is not in the kernel of alpha")
        x = self._frame.solve(v)  # its alpha coordinate is 0, as <alpha, v> = 0
        if x is None:
            raise ConsistencyError("kernel vector has no integral coordinates in the basis")
        return IntVector(x.entries[:-1])


def induced_weights(lambda_basis: Sequence[IntVector], st: SubtorusChoice) -> WeightSystem:
    """Weight system induced on the subtorus st.

    lambda_basis must be a Z-basis of Z^n.  The tangent weights are the dual
    basis; each is projected to Z^(n-1) by pairing with the complement basis
    of st.  The normalized Cramer coefficients of the result equal
    (<alpha, lambda_i>)_i up to one global sign.
    """
    lams = [IntVector(tuple(v)) for v in lambda_basis]
    n = len(lams)
    if n < 2:
        raise DegenerateInputError("need at least two basis vectors")
    for v in lams:
        if v.dim != n:
            raise DimensionMismatchError("lambda_basis must be square")
    if st.alpha.dim != n:
        raise DimensionMismatchError(f"alpha_t has dim {st.alpha.dim}, expected {n}")
    adj = adjugate(stack_rows(lams))
    if adj.det not in (1, -1):
        raise StarConditionError(f"lambda vectors have determinant {adj.det}, not a Z-basis")
    # the inverse is det * adj, and its column i pairs to 1 with lams[i]; the
    # weight is that column written in the complement basis
    d, e = adj.det, adj.adj.entries
    frame = st.complement.row_tuples
    weights = tuple(tuple(d * dot(row, e[i::n]) for row in frame) for i in range(n))
    return WeightSystem(n=n, weights=weights)

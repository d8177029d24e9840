import os
import random
from itertools import product as iproduct

import pytest
from hypothesis import settings

from complexity_one.chardata import CharacteristicData, _checks
from complexity_one.lattice import IntMatrix, IntVector, determinant, vec
from complexity_one.quasitoric import CharacteristicFunction, SimplePolytope
from complexity_one.sponge import Cell, SpongeComplex
from oracles import euler_cycle_by_boundary

# CI selects this profile (HYPOTHESIS_PROFILE=ci), so that a failing example
# prints the blob that reproduces it with @reproduce_failure
settings.register_profile("ci", print_blob=True)
if "HYPOTHESIS_PROFILE" in os.environ:
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


def random_unimodular(rng: random.Random, n: int, steps: int = 6) -> IntMatrix:
    """Product of elementary shears and swaps; determinant +-1, small entries."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        op = rng.choice(["shear", "swap", "neg"])
        if op == "shear":
            q = rng.choice([-2, -1, 1, 2])
            for k in range(n):
                m[i][k] += q * m[j][k]
        elif op == "swap":
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    a = IntMatrix.from_rows(m)
    assert determinant(a) in (1, -1)
    return a


def transformed(
    cd: CharacteristicData,
    matrix: IntMatrix | None = None,
    relabel: dict | None = None,
    flip: set | frozenset = frozenset(),
) -> CharacteristicData:
    """Relabel cells, transform directions, optionally flip Euler signs."""
    s = cd.sponge
    rl = relabel or {c.id: c.id for c in s.cells}
    cells = tuple(Cell(rl[c.id], c.dim, c.label) for c in s.cells)
    inc = {rl[k]: tuple((rl[x], sgn) for x, sgn in v) for k, v in s.incidence.items()}
    sp = SpongeComplex(n=s.n, cells=cells, incidence=inc)
    mu = {}
    ks = {}
    for f in s.facet_ids:
        v = cd.mu[f]
        if matrix is not None:
            v = matrix @ v
        mu[rl[f]] = v
        ks[rl[f]] = cd.euler_sign[f] * (-1 if f in flip else 1)
    return CharacteristicData(sponge=sp, mu=mu, euler_sign=ks, ambient=cd.ambient)


def euler_cycle_verdicts(cd: CharacteristicData) -> tuple[bool, bool]:
    """The check pipeline's euler-cycle stage and the chain-boundary oracle, in that order."""
    return dict(_checks(cd))["euler-cycle"].ok, euler_cycle_by_boundary(cd)


@pytest.fixture
def simplex3() -> SimplePolytope:
    facets = ("f1", "f2", "f3", "f4")
    vertices = tuple(
        frozenset(v)
        for v in [("f1", "f2", "f3"), ("f1", "f2", "f4"), ("f1", "f3", "f4"), ("f2", "f3", "f4")]
    )
    return SimplePolytope(3, facets, vertices)


@pytest.fixture
def simplex3_lambda() -> CharacteristicFunction:
    return CharacteristicFunction(
        {"f1": vec(1, 0, 0), "f2": vec(0, 1, 0), "f3": vec(0, 0, 1), "f4": vec(-1, -1, -1)}
    )


@pytest.fixture
def cube3() -> SimplePolytope:
    facets = ("xm", "xp", "ym", "yp", "zm", "zp")
    vertices = tuple(
        frozenset({"x" + sx, "y" + sy, "z" + sz}) for sx, sy, sz in iproduct("mp", repeat=3)
    )
    return SimplePolytope(3, facets, vertices)


@pytest.fixture
def prism3() -> SimplePolytope:
    vertices = tuple(
        frozenset(v)
        for v in [
            ("t", "s1", "s2"),
            ("t", "s2", "s3"),
            ("t", "s1", "s3"),
            ("b", "s1", "s2"),
            ("b", "s2", "s3"),
            ("b", "s1", "s3"),
        ]
    )
    return SimplePolytope(3, ("t", "b", "s1", "s2", "s3"), vertices)


@pytest.fixture
def prism3_lambda() -> CharacteristicFunction:
    return CharacteristicFunction(
        {
            "t": vec(0, 0, 1),
            "b": vec(0, 0, 1),
            "s1": vec(1, 0, 0),
            "s2": vec(0, 1, 0),
            "s3": vec(1, 1, 1),
        }
    )


def random_general_position_system(rng: random.Random, n: int, bound: int = 4):
    from complexity_one.weights import WeightSystem, is_general_position

    while True:
        weights = tuple(
            IntVector(tuple(rng.randint(-bound, bound) for _ in range(n - 1))) for _ in range(n)
        )
        try:
            ws = WeightSystem(n, weights)
        except Exception:
            continue
        if is_general_position(ws):
            return ws

"""Seeded inputs for the benchmark workloads.

Every op gets input files of its own: a copy of a catalog entry with its
cells relabelled (and, where the op asks for it, its circle directions moved
by a random unimodular matrix or one facet's Euler sign flipped), or a
polytope with relabelled facets and a characteristic function.  The
generators take a `random.Random`, so one seed gives the same bytes.

Everything here works on the JSON dictionaries the CLI reads; the program
only ever sees the files written from them.
"""

from __future__ import annotations

import json
import random
from itertools import combinations, product
from math import comb


def dump(obj) -> str:
    """Canonical JSON text, written the same way on every run."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def fresh_ids(count: int, prefix: str, rng: random.Random) -> list[str]:
    """`count` distinct ids whose sorted order is a random permutation."""
    width = len(str(count * 10))
    return [f"{prefix}{k:0{width}d}" for k in rng.sample(range(count * 10), count)]


# ---------------------------------------------------------------------------
# small integer matrices as lists of rows, so that neither the inputs nor
# the checks depend on the program's lattice layer

def mat_vec(a: list[list[int]], v: list[int]) -> list[int]:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def transpose(a: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*a)]


def determinant(a: list[list[int]]) -> int:
    """Exact determinant by cofactor expansion (the matrices here are at most 4x4)."""
    if not a:
        return 1
    return sum(
        (-1) ** j * a[0][j] * determinant([row[:j] + row[j + 1 :] for row in a[1:]])
        for j in range(len(a))
        if a[0][j]
    )


def unimodular(k: int, rng: random.Random) -> tuple[list[list[int]], list[list[int]]]:
    """A random k x k matrix of determinant +-1 and its inverse.

    Built from 2k elementary moves (row additions with multiplier +-1, row
    swaps, row negations), each applied to A and, inverted, to A^-1, so the
    entries stay small and the inverse is exact.
    """
    a = [[int(i == j) for j in range(k)] for i in range(k)]
    inv = [row[:] for row in a]
    if k < 2:
        if rng.random() < 0.5:
            a, inv = [[-1]], [[-1]]
        return a, inv
    for _ in range(2 * k):
        i, j = rng.sample(range(k), 2)
        move = rng.choice(("add", "swap", "negate"))
        if move == "add":
            q = rng.choice((-1, 1))
            # A <- E A with E = I + q e_i e_j^T; A^-1 <- A^-1 E^-1
            a[i] = [x + q * y for x, y in zip(a[i], a[j])]
            for row in inv:
                row[j] -= q * row[i]
        elif move == "swap":
            a[i], a[j] = a[j], a[i]
            for row in inv:
                row[i], row[j] = row[j], row[i]
        else:
            a[i] = [-x for x in a[i]]
            for row in inv:
                row[i] = -row[i]
    return a, inv


# ---------------------------------------------------------------------------
# characteristic data

def relabel(cd: dict, rng: random.Random) -> dict:
    """Copy of a chardata dict under a random renaming of its cells."""
    cells = cd["sponge"]["cells"]
    names = dict(zip((c["id"] for c in cells), fresh_ids(len(cells), "c", rng)))
    return {
        "n": cd["n"],
        "ambient": cd["ambient"],
        "sponge": {
            "n": cd["sponge"]["n"],
            "cells": sorted(
                ({"id": names[c["id"]], "dim": c["dim"], "label": c["label"]} for c in cells),
                key=lambda c: (c["dim"], c["id"]),
            ),
            "incidence": {
                names[cid]: [[names[sub], sign] for sub, sign in entries]
                for cid, entries in cd["sponge"]["incidence"].items()
            },
        },
        "mu": {names[f]: list(v) for f, v in cd["mu"].items()},
        "euler_sign": {names[f]: s for f, s in cd["euler_sign"].items()},
    }


def transform(cd: dict, a: list[list[int]]) -> dict:
    """The same data with every circle direction mu(F) replaced by A mu(F)."""
    out = dict(cd)
    out["mu"] = {f: mat_vec(a, v) for f, v in cd["mu"].items()}
    return out


def flip_sign(cd: dict, rng: random.Random) -> dict:
    """The same data with one random facet's Euler sign negated."""
    out = dict(cd)
    facet = rng.choice(sorted(cd["euler_sign"]))
    out["euler_sign"] = {f: (-s if f == facet else s) for f, s in cd["euler_sign"].items()}
    return out


# ---------------------------------------------------------------------------
# polytopes for `reduce`

def _unit(n: int, i: int) -> list[int]:
    return [int(t == i) for t in range(n)]


def simplex_case() -> dict:
    """The 3-simplex with its standard characteristic function (no 3-coloring exists)."""
    facets = ["f1", "f2", "f3", "f4"]
    lam = {f"f{i + 1}": _unit(3, i) for i in range(3)}
    lam["f4"] = [-1, -1, -1]
    return {
        "n": 3,
        "facets": facets,
        "vertices": [list(v) for v in combinations(facets, 3)],
        "lambda": lam,
        "alpha": [1, 1, -1],
        "faces": {k: comb(4, k) for k in (2, 3)},
    }


def prism_case() -> dict:
    """Triangle times interval; its square sides rule out a 3-coloring."""
    sides = ["s1", "s2", "s3"]
    vertices = [[cap, a, b] for cap in ("t", "b") for a, b in combinations(sides, 2)]
    return {
        "n": 3,
        "facets": ["t", "b"] + sides,
        "vertices": vertices,
        "lambda": {"t": [0, 0, 1], "b": [0, 0, 1], "s1": [1, 0, 0], "s2": [0, 1, 0], "s3": [1, 1, 1]},
        "alpha": [1, 1, -1],
        "faces": {2: 9, 3: 6},
    }


def cube_case(n: int) -> dict:
    """The n-cube with the coloring characteristic function (facet pair i -> e_i)."""
    facets = [f"{s}{i}" for i in range(n) for s in "mp"]
    vertices = [[f"{s}{i}" for i, s in enumerate(signs)] for signs in product("mp", repeat=n)]
    return {
        "n": n,
        "facets": facets,
        "vertices": vertices,
        "lambda": {f"{s}{i}": _unit(n, i) for i in range(n) for s in "mp"},
        "alpha": [1] * n,
        "faces": {k: comb(n, k) * 2**k for k in range(2, n + 1)},
    }


POLYTOPES = {
    "simplex": simplex_case,
    "prism": prism_case,
    "cube3": lambda: cube_case(3),
    "cube4": lambda: cube_case(4),
    "cube5": lambda: cube_case(5),
}


def relabel_polytope(case: dict, rng: random.Random) -> dict:
    """Copy of a polytope case under a random renaming of its facets."""
    names = dict(zip(case["facets"], fresh_ids(len(case["facets"]), "F", rng)))
    out = dict(case)
    out["facets"] = sorted(names.values())
    out["vertices"] = sorted(sorted(names[f] for f in v) for v in case["vertices"])
    out["lambda"] = {names[f]: v for f, v in case["lambda"].items()}
    return out


def conjugate(case: dict, rng: random.Random) -> dict:
    """lambda' = A lambda and alpha' = A^-T alpha, so every pairing is unchanged."""
    a, inv = unimodular(case["n"], rng)
    out = dict(case)
    out["lambda"] = {f: mat_vec(a, v) for f, v in case["lambda"].items()}
    out["alpha"] = mat_vec(transpose(inv), case["alpha"])
    return out

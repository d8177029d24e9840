"""Built-in worked examples wired as validated characteristic data.

Entries:
  g42            -- the rank-3 torus acting on the Grassmannian of planes in C^4;
                    sponge = octahedron boundary plus the three equatorial
                    squares, six fixed points, weights along moment edges.
  f3             -- the rank-2 torus on full flags in C^3; sponge = K_{3,3}
                    (one-skeleton of the three-hexagon torus subdivision).
  cp3-reduction  -- the simplex pipeline: reduction of the standard
                    characteristic function on the 3-simplex by the
                    subtorus with character (1, 1, -1).
  local-model-N  -- one chart of the corner model in ambient parameter N.

Weights are stored in a primitive basis of the honest character lattice
(the sum-zero sublattice of the ambient weight lattice, coordinatized by
its first components); moment coordinates that embed the same data with
finite index would make the circle directions non-integral.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Mapping, Sequence

from .chardata import (
    Ambient,
    CharacteristicData,
    Chart,
    _checks,
    data_from_charts,
    local_model_data,
)
from .errors import ConsistencyError, UnknownEntryError
from .io import chardata_from_dict, parse_int, read_json
from .lattice import IntVector, vec
from .quasitoric import CharacteristicFunction, SimplePolytope, _reduce
from .sponge import (
    CheckResult,
    SpongeComplex,
    ValidationReport,
    face_star,
    homology,
)
from .weights import (
    SubtorusChoice,
    WeightSystem,
    cramer_coefficients,
    induced_weights,
    is_strictly_appropriate,
)

CATALOG_ENV = "COMPLEXITY_ONE_CATALOG"


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    """A worked example: its data, the weights at its fixed points, and its known shape.

    An override file gives data alone; a built-in entry also gives its cell
    counts per dimension (the first is the number of fixed points) and,
    unless it is a local model, the Betti numbers of its sponge.
    """

    name: str
    data: CharacteristicData
    weight_systems: Mapping[str, WeightSystem] = field(default_factory=dict)
    cells_per_dim: Sequence[int] | None = None
    betti: Sequence[int] | None = None


# ---------------------------------------------------------------------------
# the octahedron with squares (planes in C^4)

def _pair_vertex_id(p: frozenset[int]) -> str:
    return "x" + "".join(str(i) for i in sorted(p))


def _edge_id(p: frozenset[int], q: frozenset[int]) -> str:
    a, b = sorted([_pair_vertex_id(p), _pair_vertex_id(q)])
    return f"e.{a}.{b}"


def octahedron_sponge(squares: bool = True) -> SpongeComplex:
    """Octahedron boundary, optionally with the three equatorial squares.

    Vertices are the 2-subsets of {1,2,3,4} (the hypersimplex picture), so
    two vertices are joined iff the subsets share one element; the squares
    are the three partitions of {1,2,3,4} into two pairs.
    """
    verts = [frozenset(p) for p in combinations((1, 2, 3, 4), 2)]
    cells: list[tuple[str, int]] = [(_pair_vertex_id(v), 0) for v in verts]
    covers: dict[str, list[str]] = {}
    edges = [(p, q) for p, q in combinations(verts, 2) if len(p & q) == 1]
    for p, q in edges:
        cells.append((_edge_id(p, q), 1))
        covers[_edge_id(p, q)] = sorted([_pair_vertex_id(p), _pair_vertex_id(q)])

    def two_cell(name: str, members: list[frozenset[int]]) -> None:
        cells.append((name, 2))
        covers[name] = sorted(
            _edge_id(p, q) for p, q in combinations(members, 2) if len(p & q) == 1
        )

    for a in (1, 2, 3, 4):
        two_cell(f"t.in{a}", [v for v in verts if a in v])
        two_cell(f"t.out{a}", [v for v in verts if a not in v])
    if squares:
        for a, b in ((1, 2), (1, 3), (1, 4)):
            mixed = [v for v in verts if len(v & {a, b}) == 1]
            two_cell(f"s.{a}{b}", mixed)
    return SpongeComplex.from_covers(4, cells, covers)


def _sum_zero_coords(v: tuple[int, ...]) -> IntVector:
    """Coordinates of a sum-zero vector in the basis e_i - e_last."""
    if sum(v) != 0:
        raise ConsistencyError(f"{v} is not a sum-zero vector")
    return IntVector(v[:-1])


def _build_g42() -> CatalogEntry:
    sponge = octahedron_sponge(squares=True)
    verts = [frozenset(p) for p in combinations((1, 2, 3, 4), 2)]
    charts: dict[str, Chart] = {}
    for v in verts:
        vid = _pair_vertex_id(v)
        neighbors = sorted(
            (w for w in verts if len(v & w) == 1), key=_pair_vertex_id
        )
        weights = []
        rays = []
        for w in neighbors:
            (gained,) = tuple(w - v)
            (lost,) = tuple(v - w)
            diff = [0, 0, 0, 0]
            diff[gained - 1] += 1
            diff[lost - 1] -= 1
            weights.append(_sum_zero_coords(tuple(diff)))
            rays.append(_edge_id(v, w))
        charts[vid] = Chart(WeightSystem(4, tuple(weights)), tuple(rays))
    data = data_from_charts(sponge, charts, Ambient("sphere"))
    weight_systems = {vid: chart.weights for vid, chart in charts.items()}
    return CatalogEntry("g42", data, weight_systems, [6, 12, 11], [1, 0, 4])


# ---------------------------------------------------------------------------
# K_{3,3} (full flags in C^3)

_PERMS = ("123", "132", "213", "231", "312", "321")
_TRANSPOSITIONS = ((1, 2), (1, 3), (2, 3))


def _swap_values(word: str, i: int, j: int) -> str:
    table = {str(i): str(j), str(j): str(i)}
    return "".join(table.get(ch, ch) for ch in word)


def k33_sponge() -> SpongeComplex:
    """Complete bipartite graph on the six permutation flags."""
    cells: list[tuple[str, int]] = [(f"w{w}", 0) for w in _PERMS]
    covers: dict[str, list[str]] = {}
    for w in _PERMS:
        for i, j in _TRANSPOSITIONS:
            u = _swap_values(w, i, j)
            a, b = sorted([w, u])
            eid = f"e.w{a}.w{b}"
            if eid not in covers:
                cells.append((eid, 1))
                covers[eid] = [f"w{a}", f"w{b}"]
    return SpongeComplex.from_covers(3, cells, covers)


def _flag_weight(word: str, i: int, j: int) -> IntVector:
    """Tangent weight at the flag `word` along the edge swapping values i < j."""
    eps = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    if word.index(str(i)) < word.index(str(j)):
        lo, hi = i, j
    else:
        lo, hi = j, i
    diff = tuple(b - a for a, b in zip(eps[lo - 1], eps[hi - 1]))
    return _sum_zero_coords(diff)


def _build_f3() -> CatalogEntry:
    sponge = k33_sponge()
    charts: dict[str, Chart] = {}
    for w in _PERMS:
        moves = []
        for i, j in _TRANSPOSITIONS:
            u = _swap_values(w, i, j)
            a, b = sorted([w, u])
            moves.append((f"e.w{a}.w{b}", _flag_weight(w, i, j)))
        moves.sort(key=lambda t: t[0])
        ws = WeightSystem(3, tuple(weight for _, weight in moves))
        charts[f"w{w}"] = Chart(ws, tuple(eid for eid, _ in moves))
    data = data_from_charts(sponge, charts, Ambient("product", boundary_trivial=True))
    weight_systems = {vid: chart.weights for vid, chart in charts.items()}
    return CatalogEntry("f3", data, weight_systems, [6, 9], [1, 4])


# ---------------------------------------------------------------------------
# simplex pipeline and local models

def simplex_polytope() -> SimplePolytope:
    facets = ("f1", "f2", "f3", "f4")
    vertices = tuple(frozenset(v) for v in combinations(facets, 3))
    return SimplePolytope(3, facets, vertices)


def simplex_lambda() -> CharacteristicFunction:
    return CharacteristicFunction(
        {"f1": vec(1, 0, 0), "f2": vec(0, 1, 0), "f3": vec(0, 0, 1), "f4": vec(-1, -1, -1)}
    )


def _build_cp3() -> CatalogEntry:
    p = simplex_polytope()
    lam = simplex_lambda()
    st = SubtorusChoice(vec(1, 1, -1))
    data, charts = _reduce(p, lam, st)
    weight_systems = {vid: chart.weights for vid, chart in charts.items()}
    return CatalogEntry("cp3-reduction", data, weight_systems, [4, 6], [1, 3])


def _build_local_model(n: int) -> CatalogEntry:
    basis = [
        IntVector(tuple(1 if t == i else 0 for t in range(n))) for i in range(n)
    ]
    ws = induced_weights(basis, SubtorusChoice(vec(*[1] * (n - 1), -1)))
    cells_per_dim = [comb(n, d) for d in range(n - 1)]
    return CatalogEntry(f"local-model-{n}", local_model_data(ws), {"o": ws}, cells_per_dim)


_BUILDERS = {
    "g42": _build_g42,
    "f3": _build_f3,
    "cp3-reduction": _build_cp3,
}


def names() -> list[str]:
    return sorted(_BUILDERS) + ["local-model-4"]


def load(name: str) -> CatalogEntry:
    """Load a catalog entry by name.

    Names: g42, f3, cp3-reduction, local-model-N (N >= 2).  When the
    COMPLEXITY_ONE_CATALOG environment variable points to a directory
    containing <name>.json, that characteristic-data file takes precedence.
    """
    override_dir = os.environ.get(CATALOG_ENV)
    if override_dir:
        path = os.path.join(override_dir, f"{name}.json")
        if os.path.exists(path):
            data = chardata_from_dict(read_json(path), where=path)
            return CatalogEntry(name=name, data=data)
    if name in _BUILDERS:
        return _BUILDERS[name]()
    if name.startswith("local-model-"):
        n = parse_int(name[len("local-model-") :])
        if n is not None and n >= 2:
            return _build_local_model(n)
    raise UnknownEntryError(f"unknown catalog entry {name!r}; known: {', '.join(names())}")


def verify(entry: CatalogEntry) -> ValidationReport:
    """Run every applicable validator on an entry and check its known shape."""
    cd = entry.data
    stages = dict(_checks(cd))
    entries = [
        CheckResult.of(f"{stage}-valid" if stage in ("sponge", "mu") else stage, rep.ok, rep.summary(3))
        for stage, rep in stages.items()
    ]

    # a valid sponge's stars are decided at its fixed points (stars_local);
    # an invalid sponge lacks that structure, so every cell is checked
    s = cd.sponge
    stars_ok = s.stars_local if stages["sponge"].ok else all(face_star(s, c.id) for c in s.cells)
    entries.append(CheckResult.of("face-stars", stars_ok))

    # every worked example is strictly appropriate at each fixed point, which
    # is to say that its Cramer coefficients there are all +-1
    for vid in sorted(entry.weight_systems):
        ws = entry.weight_systems[vid]
        strict = is_strictly_appropriate(ws)
        detail = f"c = {list(cramer_coefficients(ws).c)}"
        entries.append(CheckResult.of(f"strict[{vid}]", strict, detail))
        entries.append(CheckResult.of(f"cramer-abs[{vid}]", strict, detail))

    if entry.cells_per_dim is not None:
        got = [len(cd.sponge.cells_of_dim(d)) for d in range(cd.n - 1)]
        detail = f"got {got}, expected {list(entry.cells_per_dim)}"
        entries.append(CheckResult.of("cells-per-dim", got == list(entry.cells_per_dim), detail))
    if entry.betti is not None:
        got_b = list(homology(cd.sponge).betti)
        detail = f"got {got_b}, expected {list(entry.betti)}"
        entries.append(CheckResult.of("betti", got_b == list(entry.betti), detail))
    if entry.cells_per_dim is not None:
        entries.append(CheckResult.of("fixed-points", got[0] == entry.cells_per_dim[0], f"got {got[0]}"))
        if stages["euler-cycle"].ok:  # every worked example's Euler chain is a cycle
            entries.append(CheckResult.of("euler-cycle-expected", True))
    return ValidationReport(tuple(entries))

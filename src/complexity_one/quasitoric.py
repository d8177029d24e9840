"""Quasitoric characteristic data and the reduction to a subtorus.

Polytopes are purely combinatorial: a simple polytope is its vertex-facet
incidence, faces are the facet subsets realized at some vertex.  A
characteristic function assigns primitive vectors in Z^n to facets subject
to the determinant-+-1 basis condition at vertices; a subtorus is chosen by
a primitive character (`weights.SubtorusChoice`).  The boundary reduces as
a simple cell manifold, to characteristic data on its codimension-two skeleton.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .chardata import Ambient, CharacteristicData, Chart, data_from_charts
from .errors import (
    ColoringError,
    ConsistencyError,
    DegenerateInputError,
    DimensionMismatchError,
    InputFormatError,
    PreconditionError,
    StarConditionError,
    ValidationError,
)
from .lattice import (
    IntMatrix,
    IntVector,
    adjugate,
    as_id,
    as_int,
    determinant,
    independent_rows,
    is_unimodular_extension,
    primitive_entries,
    stack_rows,
)
from .sponge import CheckResult, SpongeComplex, ValidationReport, _masked, _masks_above
from .weights import SubtorusChoice, induced_weights


@dataclass(frozen=True, eq=False)
class SimplePolytope:
    """Combinatorial simple polytope: facet ids plus vertex facet-sets."""

    n: int
    facets: tuple[str, ...]
    vertices: tuple[frozenset[str], ...]

    def __post_init__(self):
        facets = tuple(f if type(f) is str else as_id(f, f"facets[{t}]") for t, f in enumerate(self.facets))
        vertices = tuple(
            frozenset(f if type(f) is str else as_id(f, f"vertices[{t}] entry") for f in v)
            for t, v in enumerate(self.vertices)
        )
        object.__setattr__(self, "facets", facets)
        object.__setattr__(self, "vertices", vertices)
        self._validate()

    def _validate(self) -> None:
        if self.n < 1:
            raise ValidationError("polytope dimension must be positive")
        fs = set(self.facets)
        if len(fs) != len(self.facets):
            raise ValidationError("duplicate facet ids")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValidationError("duplicate vertices")
        for v in self.vertices:
            if len(v) != self.n:
                raise ValidationError(f"vertex {sorted(v)} lies in {len(v)} facets, expected {self.n}")
            if not v <= fs:
                raise ValidationError(f"vertex {sorted(v)} uses unknown facets")
        used = set().union(*self.vertices) if self.vertices else set()
        if used != fs:
            raise ValidationError(f"facets without vertices: {sorted(fs - used)}")
        # every edge (an (n-1)-subset of a vertex) joins exactly two vertices
        ends: dict[tuple[str, ...], list[frozenset[str]]] = {}
        for v in self.vertices:
            for edge in combinations(sorted(v), self.n - 1):
                ends.setdefault(edge, []).append(v)
        for edge, at in ends.items():  # in order of first sight, as the vertices list them
            if len(at) != 2:
                raise ValidationError(f"edge {list(edge)} lies in {len(at)} vertices, expected 2")
        # vertex graph connectivity
        if self.vertices:
            seen = {self.vertices[0]}
            frontier = [self.vertices[0]]
            while frontier:
                for edge in combinations(sorted(frontier.pop()), self.n - 1):
                    for w in ends[edge]:
                        if w not in seen:
                            seen.add(w)
                            frontier.append(w)
            if len(seen) != len(self.vertices):
                raise ValidationError("vertex graph is disconnected")

    @cached_property
    def _vertex_list(self) -> tuple[frozenset[str], ...]:
        return tuple(sorted(self.vertices, key=lambda v: tuple(sorted(v))))

    def faces_of_codim(self, k: int) -> tuple[frozenset[str], ...]:
        """Realized facet subsets of size k (codimension-k faces)."""
        found = set()
        for v in self.vertices:
            for sub in combinations(sorted(v), k):
                found.add(frozenset(sub))
        return tuple(sorted(found, key=lambda s: tuple(sorted(s))))

    @cached_property
    def boundary(self) -> CellManifold:
        """The boundary sphere as a simple cell manifold: a face of k facets is an (n-k)-cell.

        A face G lies in the boundary of G - {f} for each f in G.
        """
        ids = {face: _face_id(face) for k in range(1, self.n + 1) for face in self.faces_of_codim(k)}
        covers: dict[str, list[str]] = {}
        for face, cid in ids.items():
            if len(face) > 1:
                for f in face:
                    covers.setdefault(ids[face - {f}], []).append(cid)
        return CellManifold(self.n, tuple((cid, self.n - len(face)) for face, cid in ids.items()), covers)


def _face_id(face: Iterable[str]) -> str:
    """Boundary cell id of a face: f:<id> for a facet, g:<sorted facet ids> for a smaller face.

    Facet ids may contain commas; the prefixes keep every facet apart from every face.
    """
    facets = sorted(face)
    return "f:" + facets[0] if len(facets) == 1 else "g:" + ",".join(facets)


@dataclass(frozen=True, eq=False)
class CharacteristicFunction:
    values: Mapping[str, IntVector]

    def __post_init__(self):
        vals = {as_id(k, "lambda key"): IntVector(tuple(v)) for k, v in dict(self.values).items()}
        for k, v in vals.items():
            if v.is_zero() or not v.is_primitive():
                raise DegenerateInputError(f"lambda({k}) must be primitive and nonzero")
        object.__setattr__(self, "values", vals)

    def __getitem__(self, fid: str) -> IntVector:
        return self.values[fid]


def validate_star(p: SimplePolytope, lam: CharacteristicFunction) -> ValidationReport:
    """Determinant condition at vertices, basis-extension condition at faces."""
    missing = [f"facet {f} has no lambda value" for f in p.facets if f not in lam.values]
    entries = list(CheckResult.from_violations("lambda-domain", missing))
    if missing:
        return ValidationReport(tuple(entries))
    bad_dim = [f"lambda({f}) has dim {lam[f].dim}" for f in p.facets if lam[f].dim != p.n]
    entries += CheckResult.from_violations("lambda-dim", bad_dim)
    if bad_dim:
        return ValidationReport(tuple(entries))

    faces = (face for k in range(1, p.n) for face in p.faces_of_codim(k))
    dets, failing = _star_failures(p._vertex_list, faces, sorted, lam.values, p.n)
    vertex_bad = [f"vertex {sorted(v)}: determinant {d}" for v, d in dets.items() if d not in (1, -1)]
    entries += CheckResult.from_violations("vertex-determinant", vertex_bad)
    # every face lies at a vertex, so the faces are read only when a vertex fails
    face_bad = [f"face {sorted(face)}: values do not extend to a basis" for face in failing] if vertex_bad else []
    entries += CheckResult.from_violations("face-extension", face_bad)
    return ValidationReport(tuple(entries))


def _star_failures(
    vertices: Iterable[Hashable], cells: Iterable[Hashable], ids: Callable[[Hashable], Sequence[str]],
    values: Mapping[str, IntVector], n: int,
) -> tuple[dict[Hashable, int], Iterator[Hashable]]:
    """Determinants at the vertices, and a lazy walk of the cells where the basis condition fails.

    ids(x) names the values at a vertex or cell x, n of them at a vertex; at
    a cell they must extend to a Z-basis of Z^n.  A subset of a basis
    extends, so only a cell under no determinant-+-1 vertex gets a Smith form.
    """
    dets = {v: determinant(stack_rows([values[i] for i in ids(v)])) for v in vertices}
    bases = [set(ids(v)) for v, d in dets.items() if d in (1, -1)]
    failing = (
        x
        for x in cells
        if not any(b.issuperset(ids(x)) for b in bases) and not is_unimodular_extension([values[i] for i in ids(x)], n)
    )
    return dets, failing


def _require_star(star: ValidationReport) -> None:
    """Raise unless the validate_star report passes."""
    if not star.ok:
        raise StarConditionError(star.summary(4) or "star condition fails")


def find_strict_subtorus(
    p: SimplePolytope, lam: CharacteristicFunction, search_bound: int = 3
) -> list[SubtorusChoice]:
    """All primitive alpha with entries within the bound pairing to +-1 with every facet.

    Vectors are canonicalized (first nonzero entry positive), so the list is
    deterministic; an empty result is a valid outcome.  A value of the wrong
    dimension raises DimensionMismatchError.  Values of rank < n fail the
    star condition at every vertex and raise its StarConditionError, as
    reduce does.
    """
    if any(f not in lam.values for f in p.facets):
        raise InputFormatError("lambda must cover every facet")
    lams = [lam[f] for f in sorted(p.facets)]
    for l in lams:
        if l.dim != p.n:
            raise DimensionMismatchError(f"vector dims {p.n} != {l.dim}")
    prefer = [lam[f] for v in p._vertex_list[:1] for f in sorted(v)]
    try:
        return list(_strict_subtori(lams, p.n, search_bound, prefer))
    except StarConditionError:
        _require_star(validate_star(p, lam))  # names the vertices where it fails
        raise


def _strict_subtori(
    lams: Sequence[IntVector], n: int, search_bound: int, prefer: Sequence[IntVector]
) -> Iterator[SubtorusChoice]:
    """Canonical primitive alpha within the bound pairing to +-1 with every lam, in lexicographic order.

    alpha is fixed by its pairings eps with n independent values L, the first
    ones found in prefer + lams (prefer holds some of the lams; callers pass a
    vertex, where det L = +-1):
    alpha = adj(L) eps / det L, so the 2^(n-1) sign vectors with eps_1 = +1
    give every candidate up to sign.  Values of rank < n fix no alpha, and
    no vertex of theirs is a basis: they raise StarConditionError.
    """
    rows = [l.entries for l in lams]
    candidates = [l.entries for l in prefer] + rows
    basis = [candidates[i] for i in independent_rows(candidates, n)]
    if len(basis) < n:
        raise StarConditionError(f"lambda values have rank {len(basis)}, expected {n}")
    adj = adjugate(IntMatrix.from_rows(basis))
    found = []
    for signs in product((1, -1), repeat=n - 1):
        alpha = adj.solve(IntVector((1,) + signs))
        if alpha is None:
            continue
        if next(x for x in alpha if x) < 0:
            alpha = -alpha  # +-alpha are the same subtorus
        if max(map(abs, alpha)) <= search_bound and all(
            abs(sum(a * b for a, b in zip(alpha, r))) == 1 for r in rows
        ):
            found.append(alpha.entries)
    for alpha in sorted(found):
        yield SubtorusChoice(IntVector(alpha))


def induced_mu(lam1: IntVector, lam2: IntVector, st: SubtorusChoice) -> IntVector:
    """Circle direction of the intersection of two facet circles with the subtorus.

    Primitive reduction of <alpha, lam2> lam1 - <alpha, lam1> lam2, written
    in the complement basis.
    """
    p1, p2 = st.pairing(lam1), st.pairing(lam2)
    if p1 == 0 and p2 == 0:
        raise DegenerateInputError(
            "both facet circles lie in the subtorus: intersection is not a circle"
        )
    u = primitive_entries([p2 * a - p1 * b for a, b in zip(lam1, lam2)])
    if u is None:
        raise DegenerateInputError("facet circles coincide")
    return st.kernel_coordinates(IntVector(u))


def polytope_sponge(p: SimplePolytope) -> SpongeComplex:
    """Codimension-two skeleton of the polytope boundary as a sponge.

    Cells are the faces of two or more facets; incidence signs come from
    the sign propagation of signed_incidence, so they are deterministic.
    """
    return p.boundary.skeleton_sponge()


def reduce(
    p: SimplePolytope,
    lam: CharacteristicFunction,
    st: SubtorusChoice,
    star: ValidationReport | None = None,
) -> CharacteristicData:
    """Characteristic data of the subtorus action on a quasitoric datum.

    The polytope boundary reduces as a simple cell manifold (see
    _reduction_data), and mu is checked against the facet-pair
    intersections.  star, when given, is validate_star(p, lam), already
    computed by the caller.
    """
    return _reduce(p, lam, st, star)[0]


def _reduce(
    p: SimplePolytope,
    lam: CharacteristicFunction,
    st: SubtorusChoice,
    star: ValidationReport | None = None,
) -> tuple[CharacteristicData, dict[str, Chart]]:
    """reduce's data with the chart at each 0-cell that built them."""
    _require_star(validate_star(p, lam) if star is None else star)
    bad = [f for f in p.facets if abs(st.pairing(lam[f])) != 1]
    if bad:
        raise PreconditionError(
            f"subtorus is not strict: pairings with {sorted(bad)} are not +-1"
        )
    values = {_face_id({f}): lam[f] for f in p.facets}
    cd, charts = _reduction_data(p.boundary, values, st, Ambient("sphere"))
    # mu must match the facet-pair construction, compared on plain ints
    for face in p.faces_of_codim(2):
        f, g = sorted(face)
        fid = _face_id(face)
        expect = induced_mu(lam[f], lam[g], st)
        if primitive_entries(expect.entries) != primitive_entries(cd.mu[fid].entries):
            raise ConsistencyError(f"chart mu and facet-pair mu disagree on {fid}")
    return cd, charts


def coloring_pullback(p: SimplePolytope, coloring: Mapping[str, int]) -> CharacteristicFunction:
    """Characteristic function with basis-vector values from a proper coloring."""
    missing = [f for f in p.facets if f not in coloring]
    if missing:
        raise InputFormatError(f"coloring missing facets {sorted(missing)}")
    colors = {f: as_int(c, f"color of {f}") for f, c in coloring.items()}
    for f, c in colors.items():
        if not 1 <= c <= p.n:
            raise ColoringError(f"color of {f} must lie in 1..{p.n}, got {c}")
    for f, g in map(sorted, p.faces_of_codim(2)):
        if colors[f] == colors[g]:
            raise ColoringError(f"adjacent facets {f}, {g} share color {colors[f]}")
    values = {
        f: IntVector(tuple(1 if t == colors[f] - 1 else 0 for t in range(p.n)))
        for f in p.facets
    }
    lam = CharacteristicFunction(values)
    rep = validate_star(p, lam)
    if not rep.ok:
        raise ConsistencyError("coloring pullback failed the basis condition")
    return lam


@dataclass(frozen=True, eq=False)
class CellManifold:
    """Simple cell subdivision of a closed (n-1)-manifold.

    Cells of dimension up to n-1 with cover lists; every k-cell must lie in
    exactly n-k top cells.  Only the combinatorics is stored.
    """

    n: int
    cells: tuple[tuple[str, int], ...]
    covers: Mapping[str, tuple[str, ...]]

    def __post_init__(self):
        object.__setattr__(self, "n", as_int(self.n, "cell manifold n"))
        cells = tuple((as_id(c, "cell id"), as_int(d, f"dim of cell {c!r}")) for c, d in self.cells)
        object.__setattr__(self, "cells", cells)
        covers = {
            as_id(k, "covers key"): tuple(x if type(x) is str else as_id(x, f"covers[{k!r}] entry") for x in v)
            for k, v in dict(self.covers).items()
        }
        object.__setattr__(self, "covers", covers)
        ids = [c for c, _ in self.cells]
        if len(set(ids)) != len(ids):
            raise InputFormatError("duplicate cell ids")

    @cached_property
    def dims(self) -> dict[str, int]:
        return {c: d for c, d in self.cells}

    @cached_property
    def top_cells(self) -> tuple[str, ...]:
        return tuple(sorted(c for c, d in self.cells if d == self.n - 1))

    @cached_property
    def _top_cell_masks(self) -> dict[str, int]:
        """Per id in the cells or the covers, the top cells whose closure holds it, as a mask over top_cells.

        A cover links up to the cell that lists it.  When every cover is of
        lower dimension than the cell listing it (an id that is no cell
        counting as dimension -1), descending dimensions are top-down;
        otherwise (a cover of another dimension, a cycle) the builder ORs
        the masks to a fixed point.
        """
        dims = self.dims
        ids = sorted({*dims, *self.covers, *(x for below in self.covers.values() for x in below)})
        pos = {c: i for i, c in enumerate(ids)}
        up: list[list[int]] = [[] for _ in ids]
        top_down = True
        for c, below in self.covers.items():
            for x in below:
                up[pos[x]].append(pos[c])
                top_down = top_down and dims.get(x, -1) < dims.get(c, -1)
        order = sorted(range(len(ids)), key=lambda i: dims.get(ids[i], -1), reverse=True)
        masks = _masks_above(order, up, [pos[t] for t in self.top_cells], top_down)
        return dict(zip(ids, masks))

    def top_cells_containing(self, cell: str) -> tuple[str, ...]:
        return _masked(self.top_cells, self._top_cell_masks.get(cell, 0))

    def validate_simple(self) -> ValidationReport:
        bad = []
        for c, d in self.cells:
            want = self.n - d
            got = len(self.top_cells_containing(c))
            if got != want:
                bad.append(f"{d}-cell {c} lies in {got} top cells, expected {want}")
        return ValidationReport(CheckResult.from_violations("simple-subdivision", bad))

    def skeleton_sponge(self) -> SpongeComplex:
        cells = [(c, d) for c, d in self.cells if d <= self.n - 2]
        ids = {c for c, _ in cells}
        covers = {
            c: sorted(x for x in self.covers.get(c, ()) if x in ids)
            for c, d in cells
            if d >= 1
        }
        return SpongeComplex.from_covers(self.n, cells, covers)


def cell_manifold_data(
    m: CellManifold,
    lam: Mapping[str, IntVector] | CharacteristicFunction,
    st: SubtorusChoice | None = None,
    search_bound: int = 3,
) -> CharacteristicData:
    """Characteristic data of the subtorus action over a product orbit space.

    lam assigns primitive vectors in Z^n to the top cells of m; at every
    cell the values of the top cells through it must extend to a basis.
    When st is omitted, the first strict subtorus within the search bound is
    used.  The result carries the boundary-trivial product ambient.
    """
    for c, below in sorted(m.covers.items()):
        for x in (c, *below):
            if x not in m.dims:
                raise InputFormatError(f"covers of {c!r}: {x!r} is not a cell id")
    rep = m.validate_simple()
    if not rep.ok:
        raise ValidationError(rep.summary(4))
    values = lam.values if isinstance(lam, CharacteristicFunction) else {
        as_id(k, "lambda key"): IntVector(tuple(v)) for k, v in dict(lam).items()
    }
    missing = [t for t in m.top_cells if t not in values]
    if missing:
        raise InputFormatError(f"lambda missing top cells {missing}")
    zero_cells = [c for c, d in m.cells if d == 0]
    _, failing = _star_failures(zero_cells, (c for c, _ in m.cells), m.top_cells_containing, values, m.n)
    bad = next(failing, None)
    if bad is not None:
        raise StarConditionError(f"top-cell values at {bad} do not extend to a basis")
    if st is None:
        prefer = [values[t] for c in zero_cells[:1] for t in m.top_cells_containing(c)]
        st = next(_strict_subtori([values[t] for t in m.top_cells], m.n, search_bound, prefer), None)
        if st is None:
            raise DegenerateInputError("no strict subtorus within the search bound")
    else:
        bad = [t for t in m.top_cells if abs(st.pairing(values[t])) != 1]
        if bad:
            raise PreconditionError(f"subtorus is not strict on top cells {bad}")

    return _reduction_data(m, values, st, Ambient("product", boundary_trivial=True))[0]


def _reduction_data(
    m: CellManifold, values: Mapping[str, IntVector], st: SubtorusChoice, ambient: Ambient
) -> tuple[CharacteristicData, dict[str, Chart]]:
    """Characteristic data of the subtorus action from values on the top cells of m, with their charts.

    The sponge is the codimension-two skeleton.  A 0-cell's chart holds the
    weights induced by the values of the sorted top cells through it, and the
    ray dual to top cell t is the edge at the 0-cell missing exactly t.
    """
    sponge = m.skeleton_sponge()
    # a top cell through an edge holds the edge's 0-cells, so at a 0-cell v the
    # edge lies in the top cells through v but those it misses: dual to t if t alone
    dual: dict[str, dict[str, list[str]]] = {}  # 0-cell -> missed top cell -> edges
    for e, d in m.cells:
        if d == 1:
            through = set(m.top_cells_containing(e))
            for v in set(m.covers.get(e, ())):
                missed = set(m.top_cells_containing(v)) - through
                if m.dims[v] == 0 and len(missed) == 1:
                    dual.setdefault(v, {}).setdefault(missed.pop(), []).append(e)
    charts: dict[str, Chart] = {}
    for c, d in m.cells:
        if d != 0:
            continue
        tops = m.top_cells_containing(c)
        ws = induced_weights([values[t] for t in tops], st)
        rays = [dual.get(c, {}).get(t, []) for t in tops]
        for t, matches in zip(tops, rays):
            if len(matches) != 1:
                raise ConsistencyError(
                    f"vertex {c}: expected one edge avoiding top cell {t}, found {len(matches)}"
                )
        charts[c] = Chart(ws, tuple(e for (e,) in rays))
    return data_from_charts(sponge, charts, ambient), charts

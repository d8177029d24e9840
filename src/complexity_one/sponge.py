"""Combinatorial sponge complexes.

A sponge for parameter n is a regular cell complex of dimension n-2 whose
local structure matches the truncated Boolean model: every i-cell lies in
exactly C(n-i, d-i) cells of dimension d.  Cells carry signed incidence;
"type" of a point is implemented as the dimension of its cell.

Complexes are immutable after construction and all queries are pure.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import comb
from typing import Iterable, Mapping, Sequence

from .errors import (
    ConsistencyError,
    DegenerateInputError,
    InputFormatError,
    ValidationError,
)
from .lattice import IntMatrix, as_id, as_int, smith_normal_form


@dataclass(frozen=True)
class Cell:
    id: str
    dim: int
    label: str = ""

    def __post_init__(self):
        if type(self.id) is not str:
            as_id(self.id, "cell id")
        if type(self.label) is not str:
            as_id(self.label, f"label of cell {self.id!r}")
        if type(self.dim) is not int:
            object.__setattr__(self, "dim", as_int(self.dim, f"dim of cell {self.id!r}"))


@dataclass(frozen=True)
class CheckResult:
    check: str
    status: str  # "pass" | "fail"
    detail: str = ""

    @classmethod
    def of(cls, check: str, ok: bool, detail: str = "") -> CheckResult:
        return cls(check, "pass" if ok else "fail", detail)

    @classmethod
    def from_violations(cls, check: str, violations: Sequence[str]) -> tuple[CheckResult, ...]:
        """One failing entry per violation, or a single passing entry when there are none."""
        return tuple(cls(check, "fail", v) for v in violations) or (cls(check, "pass"),)


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(e.status == "pass" for e in self.entries)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(e for e in self.entries if e.status != "pass")

    def summary(self, limit: int) -> str:
        """The first `limit` failure details joined by "; " ("" for a passing report)."""
        return "; ".join(e.detail for e in self.failures()[:limit])

    def to_dict(self) -> list[dict]:
        return [{"check": e.check, "status": e.status, "detail": e.detail} for e in self.entries]


def _masks_above(order: Sequence[int], up: Sequence[Sequence[int]], tops: Sequence[int], top_down: bool) -> list[int]:
    """Per node, the nodes of tops above it (itself included) as a bit mask: bit t for tops[t].

    up[x] lists the nodes just above x.  A node's mask is its own bit, if it
    is a top, ORed with the masks of the nodes above it, so when order is
    top-down (each node after every node above it) one pass in that order
    builds every mask.  Otherwise the passes repeat until none changes a
    mask: the least fixed point, which is what lies above along the links
    whatever they are, cycles included.
    """
    masks = [0] * len(up)
    for t, x in enumerate(tops):
        masks[x] |= 1 << t
    changed = True
    while changed:
        changed = False
        for x in order:
            mask = masks[x]
            for y in up[x]:
                mask |= masks[y]
            if mask != masks[x]:
                masks[x] = mask
                changed = not top_down
    return masks


def _masked(items: Sequence[str], mask: int) -> tuple[str, ...]:
    """The items at the set bits of mask, in order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(items[low.bit_length() - 1])
        mask ^= low
    return tuple(out)


@dataclass(frozen=True, eq=False)
class _Index:
    """A complex's incidence on ints, built for every complex, valid or not.

    Cell i is the i-th cell id in sorted order, so on the cells int order is
    id order.  An id that is no cell but is an incidence key or listed in a
    boundary gets an int past the cells, with dim None.  by_dim groups the
    cells by dim, each group ascending.  bnd[i] is i's boundary as (int,
    sign) pairs in the order of its incidence entry, signs as given and a
    cover listed twice twice; cof[i] holds the distinct ints listing i,
    ascending.  faults holds validation_report's incidence-structure texts as
    (int, text) pairs, in int order and each row's in the order of its
    entries; structured says there are none.
    """

    ids: tuple[str, ...]
    pos: dict[str, int]
    dims: list[int | None]
    by_dim: dict[int, list[int]]
    bnd: list[tuple[tuple[int, int], ...]]
    cof: list[list[int]]
    faults: list[tuple[int, str]]

    @classmethod
    def of(cls, by_id: Mapping[str, Cell], incidence: Mapping[str, Sequence[tuple[str, int]]]) -> _Index:
        ids = sorted(by_id)
        cells = len(ids)
        ids += [k for k in incidence if k not in by_id]
        pos = {c: i for i, c in enumerate(ids)}
        dims: list[int | None] = [by_id[c].dim for c in ids[:cells]] + [None] * (len(ids) - cells)
        by_dim: dict[int, list[int]] = {d: [] for d in set(dims[:cells])}
        bnd: list[tuple[tuple[int, int], ...]] = []
        cof: list[list[int]] = [[] for _ in ids]
        faults: list[tuple[int, str]] = []
        for i in range(len(ids)):  # the ids listed below that are no key have no boundary
            c, d = ids[i], dims[i]
            entries = incidence.get(c, ())
            if d is None:
                faults.append((i, f"incidence key {c} is not a cell"))
            else:
                by_dim[d].append(i)  # ascending, as i
                if (d == 0) == bool(entries):
                    faults.append((i, f"0-cell {c} has boundary entries" if entries else f"{d}-cell {c} has no boundary"))
            low = d - 1 if d else None
            row = []
            for sub, sign in entries:
                j = pos.get(sub)
                if j is None:
                    j = pos[sub] = len(ids)
                    ids.append(sub)
                    dims.append(None)
                    cof.append([])
                up = cof[j]
                if up and up[-1] == i or dims[j] != low or sign not in (1, -1):  # a fault; valid entries test once
                    twice, e = bool(up) and up[-1] == i, dims[j]  # the ints are filled in ascending order
                    if not twice:
                        up.append(i)
                    if low is None:
                        pass  # the entries of a key that is no cell or of a 0-cell are not named
                    elif e is None:
                        faults.append((i, f"{c} references unknown cell {sub}"))
                    else:
                        if e != low:
                            faults.append((i, f"{c} (dim {d}) lists {sub} of dim {e}"))
                        if sign not in (1, -1):
                            faults.append((i, f"incidence {c}->{sub} has coefficient {sign}"))
                        if twice:
                            faults.append((i, f"{c} lists {sub} twice"))
                else:
                    up.append(i)
                row.append((j, sign))
            bnd.append(tuple(row))
        bnd += [()] * (len(ids) - len(bnd))
        return cls(tuple(ids), pos, dims, by_dim, bnd, cof, faults)

    @property
    def structured(self) -> bool:
        """Whether validation_report's incidence-structure check passes."""
        return not self.faults

    @cached_property
    def neighbours(self) -> list[frozenset[int]]:
        """Each cell's faces and cofaces; their dims tell them apart."""
        return [frozenset([*(j for j, _ in b), *c]) for b, c in zip(self.bnd, self.cof)]


@dataclass(frozen=True, eq=False)
class SpongeComplex:
    """Regular cell complex of dimension n-2 with signed incidence.

    incidence maps each cell of dim >= 1 to ((subcell_id, +-1), ...) over its
    boundary cells of one dimension lower.  Every structural query reads one
    int index (_Index), built on first use from cells and incidence alone,
    malformed or not; ids come back only in the answers and report texts.
    """

    n: int
    cells: tuple[Cell, ...]
    incidence: Mapping[str, tuple[tuple[str, int], ...]]

    def __post_init__(self):
        object.__setattr__(self, "n", as_int(self.n, "sponge n"))
        cells = tuple(
            c if isinstance(c, Cell) else Cell(c[0], c[1], c[2] if len(c) > 2 else "")
            for c in self.cells
        )
        object.__setattr__(self, "cells", cells)
        inc = {
            as_id(k, "incidence key"): tuple(
                (
                    i if type(i) is str else as_id(i, f"incidence[{k!r}] entry"),
                    s if type(s) is int else as_int(s, f"incidence sign {k}->{i}"),
                )
                for i, s in v
            )
            for k, v in dict(self.incidence).items()
        }
        object.__setattr__(self, "incidence", inc)
        ids = [c.id for c in cells]
        if len(set(ids)) != len(ids):
            raise InputFormatError("duplicate cell ids")

    @classmethod
    def _from_checked(
        cls, n: int, by_id: dict[str, Cell], incidence: dict[str, tuple[tuple[str, int], ...]]
    ) -> SpongeComplex:
        """The complex on the cells by id and the incidence that io has checked: __post_init__ does not run."""
        s = object.__new__(cls)
        vars(s).update(n=n, cells=tuple(by_id.values()), incidence=incidence, by_id=by_id)
        return s

    @classmethod
    def from_covers(
        cls, n: int, cells: Sequence[tuple[str, int]], covers: Mapping[str, Sequence[str]]
    ) -> SpongeComplex:
        """The complex on (id, dim) cells with the covers signed by signed_incidence."""
        return cls(n, tuple(Cell(c, d) for c, d in sorted(cells)), signed_incidence(cells, covers))

    @cached_property
    def by_id(self) -> dict[str, Cell]:
        return {c.id: c for c in self.cells}

    @cached_property
    def dim(self) -> int:
        return max(self._index.by_dim, default=0)

    @cached_property
    def _cells_by_dim(self) -> dict[int, tuple[Cell, ...]]:
        index, cell = self._index, self.by_id.__getitem__
        return {d: tuple(cell(index.ids[i]) for i in group) for d, group in index.by_dim.items()}

    def cells_of_dim(self, d: int) -> tuple[Cell, ...]:
        return self._cells_by_dim.get(d, ())

    @cached_property
    def facet_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.cells_of_dim(self.n - 2))

    def boundary(self, cell_id: str) -> tuple[tuple[str, int], ...]:
        return self.incidence.get(cell_id, ())

    @cached_property
    def _index(self) -> _Index:
        """The incidence on ints (_Index), built once."""
        return _Index.of(self.by_id, self.incidence)

    def _pos(self, cell_id: str) -> int:
        """The int of a cell; InputFormatError for an id that is no cell."""
        if cell_id not in self.by_id:
            raise InputFormatError(f"unknown cell id {cell_id!r}")
        return self._index.pos[cell_id]

    @cached_property
    def _upper_sets(self) -> list[frozenset[str]]:
        # per cell int, a search up the cofaces, not a recursion: a malformed
        # incidence may be cyclic.  Only the checks of a failing complex read it.
        index = self._index
        cells = len(self.cells)
        out = []
        for c in range(cells):
            seen, frontier = {c}, [c]
            while frontier:
                for up in index.cof[frontier.pop()]:
                    if up not in seen:
                        seen.add(up)
                        if up < cells:  # an id that is no cell leads nowhere
                            frontier.append(up)
            out.append(frozenset(map(index.ids.__getitem__, seen)))
        return out

    def upper_set(self, cell_id: str) -> frozenset[str]:
        """All cells whose closure contains the given cell (including itself)."""
        return self._upper_sets[self._pos(cell_id)]

    @cached_property
    def _facet_masks(self) -> list[int]:
        """Per int, the facets and then the ids that are no cell above it, as a bit mask over both."""
        index = self._index
        cells = len(self.cells)
        facets = index.by_dim.get(self.n - 2, [])  # in id order, as facet_ids
        # where incidence-structure holds every coface is one dimension up and
        # the dims run from self.dim down to 0, so descending dims are
        # top-down; otherwise the masks are a fixed point, in any order
        order = [i for d in range(self.dim, -1, -1) for i in index.by_dim.get(d, ())] if index.structured else range(cells)
        return _masks_above(order, index.cof, facets + list(range(cells, len(index.ids))), index.structured)

    def facets_containing(self, cell_id: str) -> tuple[str, ...]:
        """The facets (cells of dim n-2) in the upper set of the cell, sorted by id."""
        mask = self._facet_masks[self._pos(cell_id)]
        if mask >> len(self.facet_ids):
            raise KeyError(cell_id)  # an upper-set id that is not a cell
        return _masked(self.facet_ids, mask)

    def _coefficient(self, cell_id: str, face_id: str) -> int | None:
        """[cell : face], the sign the face is last listed with in the cell's boundary; None if it is not listed."""
        index = self._index
        j, found = index.pos[face_id], None
        for sub, sign in index.bnd[index.pos[cell_id]]:
            if sub == j:
                found = sign
        return found

    @cached_property
    def validation_report(self) -> ValidationReport:
        """The sponge axioms checked once; validate_sponge returns this report."""
        dim_bad = self.cell_dim_defects
        entries = list(CheckResult.from_violations("cell-dims", dim_bad))

        # the index's walk names the incidence-structure faults: each cell's in
        # the order of cells, then the keys that are no cell, past the cells
        index = self._index
        rank = {index.pos[c.id]: k for k, c in enumerate(self.cells)} if index.faults else {}
        structure_bad = [text for _, text in sorted(index.faults, key=lambda f: rank.get(f[0], f[0]))]
        entries += CheckResult.from_violations("incidence-structure", structure_bad)

        entries += CheckResult.from_violations("boundary-squared", self.boundary_squared_defects)

        # local stars at the 0-cells fix every count (stars_local); otherwise
        # each cell reports its first wrong count in ascending dimension, and
        # as the counts before it match, the expected count stays within n
        # times the cells
        count_bad = []
        if not dim_bad and not structure_bad and not self.stars_local:
            for c in self.cells:
                got = Counter(self.by_id[x].dim for x in self.upper_set(c.id))
                want = 1
                for d in range(c.dim, self.n - 1):
                    if got[d] != want:
                        count_bad.append(
                            f"cell {c.id} (dim {c.dim}) lies in {got[d]} cells of dim {d}, "
                            f"expected {want}"
                        )
                        break
                    want = want * (self.n - d) // (d - c.dim + 1)
        entries += CheckResult.from_violations("upper-counts", count_bad)
        return ValidationReport(tuple(entries))

    @cached_property
    def stars_local(self) -> bool:
        """Whether the star at every 0-cell is local (_star_local_at).

        In a complex that passes cell-dims and incidence-structure the stars
        at the 0-cells decide every other.  Every boundary entry drops the
        dimension by one and every cell of dimension >= 1 has a boundary, so
        every cell x lies above some 0-cell v, and star(x) is an upper set of
        star(v).  When star(v) is a truncated Boolean lattice on n atoms,
        star(x) is the set of supersets of x's atom set: a truncated Boolean
        lattice on n - dim x atoms.  So face_star(x) holds, and x lies in
        C(n - dim x, d - dim x) cells of each dimension d, which is
        upper-counts.  validate_mu decides mu-rank at the 0-cells on the same
        grounds.
        """
        return all(self._star_local_at(v.id) for v in self.cells_of_dim(0))

    def _star_local_at(self, x: str) -> bool:
        """Whether the star of the cell x, its upper set, has local-model shape.

        That is, whether the star is poset-isomorphic to the faces of the
        local model containing a fixed face of x's dimension: the truncated
        Boolean lattice on m = n - dim x atoms.  A face of that lattice is
        the set of its atoms, the rank-one faces below it, and a star cell's
        rank is its dimension less dim x.  The star is local iff it has
        C(m, t) cells of each rank t in 0..m-2, each cell y of rank t >= 1
        has exactly t covers one rank down in the star, whose atom sets join
        to t atoms, and no two cells have the same atoms; a rank-one cell is
        its own atom.  Atom sets are bit masks, ORed up from each rank to the
        next.  The covers of a cell of rank t >= 2 are distinct (t-1)-sets,
        so at most t of them lie in t atoms, and the count of covers over
        the whole rank decides that each cell has t.

        The star is searched rank by rank up the index's cofaces, where only
        a coface one dimension up is a cover and a cover listed twice counts
        once, and the search stops at the first rank of the wrong size.
        Where incidence-structure holds every coface is a cover, so the
        search reaches the whole star.  Otherwise a coface of another
        dimension, or one that is no cell, lies in the star all the same,
        and the star is local only if it holds just the cells found.
        """
        index = self._index
        dims, up = index.dims, index.cof
        x = index.pos[x]
        k = dims[x]
        m = self.n - k
        # a local star has cells of the m - 1 ranks 0..m-2, so no star is
        # local when m - 1 exceeds the cells, and the binomials stay small
        if not 1 <= m - 1 <= len(self.cells):
            return False
        counts = [comb(m, t) for t in range(m - 1)]
        below = {x: 0}  # the atoms of the star's cells one rank down
        for t, want in enumerate(counts[1:] + [0], 1):  # and no cell one rank past the star
            atoms: dict = {}
            covers = 0
            d = k + t
            for z, mask in below.items():
                for y in up[z]:
                    if dims[y] == d:
                        covers += 1
                        atoms[y] = atoms.get(y, 0) | mask
            if len(atoms) != want:
                return False
            if t == 1:
                below = {y: 1 << i for i, y in enumerate(atoms)}  # a rank-one cell is its own atom
                continue
            if covers != t * want or any(mask.bit_count() != t for mask in atoms.values()):
                return False
            if len(set(atoms.values())) != want:
                return False
            below = atoms
        return index.structured or len(self._upper_sets[x]) == sum(counts)

    @cached_property
    def cell_dim_defects(self) -> tuple[str, ...]:
        """Cells outside dimensions 0..n-2, and a nonempty complex not of dimension n-2."""
        out = []
        if self.n < 2:
            out.append(f"n must be >= 2, got {self.n}")
        for c in self.cells:
            if not 0 <= c.dim <= self.n - 2:
                out.append(f"cell {c.id} has dim {c.dim} outside 0..{self.n - 2}")
        if self.cells and self.dim != self.n - 2:
            out.append(f"complex has dimension {self.dim}, expected {self.n - 2}")
        return tuple(out)

    @cached_property
    def boundary_squared_defects(self) -> tuple[str, ...]:
        """One entry per cell of dimension >= 2, in id order, whose boundary has a nonzero boundary."""
        index = self._index
        faces, name = index.bnd, index.ids.__getitem__
        out = []
        for c, d in enumerate(index.dims[: len(self.cells)]):
            if d < 2:
                continue
            acc: dict[int, int] = {}  # the nonzero coefficients of d(d(c)) so far
            for sub, sign in faces[c]:
                for sub2, sign2 in faces[sub]:
                    v = acc.pop(sub2, 0) + sign * sign2
                    if v:
                        acc[sub2] = v
            if acc:
                out.append(f"d(d({name(c)})) != 0 at {sorted(map(name, acc))}")
        return tuple(out)


def propagate_signs(
    nodes: Iterable[str],
    relations: Iterable[tuple[str, str, int]],
    seeds: Mapping[str, int] | None = None,
) -> list[tuple[dict[str, int], str | None]]:
    """Orient each component of a graph of +-1 relations by propagation.

    A relation (a, b, r) asks for s_b = r * s_a.  Per component, in the
    order of its least node (nodes come sorted): its signs, pinned by that
    node's seed (default +1), and the first node where the relations
    conflict, or None.  The walk is the graph's alone: a caller that signs
    one graph many times runs sign_walk once and signs_along each time.
    """
    relations = list(relations)
    return signs_along(sign_walk(nodes, relations), [r for _, _, r in relations], seeds)


def sign_walk(nodes: Iterable[str], edges: Sequence[tuple[str, str, int]]) -> list[tuple[str, list, list]]:
    """The depth-first walk of propagate_signs over the edges e = (a, b, _).

    Per component, in the order of its least node: its root, the tree edges
    (node, parent, e) in the order the walk reaches their nodes, and each
    other edge (a loop twice) as (cur, other, e) where the walk first checks
    it: from cur, with other already reached.
    """
    adj: dict[str, list[tuple[str, int]]] = {}
    for e, (a, b, _) in enumerate(edges):
        adj.setdefault(a, []).append((b, e))
        adj.setdefault(b, []).append((a, e))
    walk = []
    # reached nodes, True once their edges are scanned: an edge's end scanned first checks it
    scanned: dict[str, bool] = {}
    for start in nodes:
        if start in scanned:
            continue
        scanned[start] = False
        tree, closing, frontier = [], [], [start]
        while frontier:
            cur = frontier.pop()
            for other, e in adj.get(cur, ()):
                if other not in scanned:
                    scanned[other] = False
                    tree.append((other, cur, e))
                    frontier.append(other)
                elif not scanned[other]:
                    closing.append((cur, other, e))
            scanned[cur] = True
        walk.append((start, tree, closing))
    return walk


def signs_along(
    walk: Sequence[tuple[str, list, list]], rels: Sequence[int], seeds: Mapping[str, int] | None = None
) -> list[tuple[dict[str, int], str | None]]:
    """propagate_signs on a sign_walk, edge e relating its ends by rels[e]."""
    components: list[tuple[dict[str, int], str | None]] = []
    seeds = seeds or {}
    for root, tree, closing in walk:
        signs = {root: seeds.get(root, 1)}
        for node, parent, e in tree:
            signs[node] = signs[parent] * rels[e]
        conflict = next((other for cur, other, e in closing if signs[other] != signs[cur] * rels[e]), None)
        components.append((signs, conflict))
    return components


def signed_incidence(
    cells: Sequence[tuple[str, int]], covers: Mapping[str, Sequence[str]]
) -> dict[str, tuple[tuple[str, int], ...]]:
    """Choose incidence signs for a regular cell poset, bottom-up.

    covers[c] lists the cells of one dimension lower in the boundary of c.
    Each 1-cell becomes high-endpoint minus low (a single endpoint gets -1).
    A higher cell orients its boundary as a pseudomanifold: each (d-2)-cell
    of it lies in two boundary cells whose coefficients cancel there, and
    signs propagate from the lexicographically least boundary cell, pinned
    to +1.  Each consistent component carries one cycle, so the boundary is
    a unique +-1 cycle iff there is one component and it is consistent.
    Raises ConsistencyError otherwise (the poset is not a regular complex).
    """
    dims = {cid: d for cid, d in cells}
    inc: dict[str, tuple[tuple[str, int], ...]] = {}

    for cid, d in sorted(cells, key=lambda t: (t[1], t[0])):
        below = sorted(covers.get(cid, ()))
        for b, after in zip(below, below[1:] + [None]):
            if b not in dims or dims[b] != d - 1:
                raise ConsistencyError(f"cover {b!r} of {cid!r} is not one dimension lower")
            if b == after:
                raise ConsistencyError(f"covers of {cid!r} list {b!r} twice")
        if d == 0:
            continue
        if d == 1:
            if len(below) == 2:
                lo, hi = below
                inc[cid] = ((hi, 1), (lo, -1))
            elif len(below) == 1:
                inc[cid] = ((below[0], -1),)
            else:
                raise ConsistencyError(f"1-cell {cid!r} has {len(below)} endpoints")
            continue
        through: dict[str, list[tuple[str, int]]] = {}
        for b in below:
            for x, s in inc[b]:
                through.setdefault(x, []).append((b, s))
        for x, pair in sorted(through.items()):
            if len(pair) != 2:
                raise ConsistencyError(
                    f"{d - 2}-cell {x!r} lies in {len(pair)} boundary cells of {cid!r}, expected 2"
                )
        # the two boundary cells through each (d-2)-cell cancel there
        relations = [(a, b, -sa * sb) for (a, sa), (b, sb) in through.values()]
        components = propagate_signs(below, relations)
        rank = sum(conflict is None for _, conflict in components)
        if rank != 1:
            raise ConsistencyError(f"boundary of {cid!r} has cycle space of rank {rank}, expected 1")
        if len(components) != 1:
            raise ConsistencyError(f"boundary of {cid!r} is not a +-1 fundamental cycle")
        inc[cid] = tuple((b, components[0][0][b]) for b in below)
    return inc


def local_model_sponge(n: int) -> SpongeComplex:
    """The corner of coordinate subspaces in dimension n-2, as a sponge complex.

    Its faces are the subsets of {1..n} of size at most n-2, ordered by
    inclusion, with dim(I) = |I|; the empty set is the origin.  Face ids:
    "o" for the origin, "c<i>" for rays, "c<i>.<j>..." above.
    """
    if n < 2:
        raise DegenerateInputError(f"local model needs n >= 2, got {n}")

    def fid(face: tuple[int, ...]) -> str:
        return "c" + ".".join(map(str, face)) if face else "o"

    faces = [sub for size in range(n - 1) for sub in combinations(range(1, n + 1), size)]
    covers = {fid(f): sorted(fid(f[:t] + f[t + 1 :]) for t in range(len(f))) for f in faces if f}
    return SpongeComplex.from_covers(n, [(fid(f), len(f)) for f in faces], covers)


def validate_sponge(s: SpongeComplex) -> ValidationReport:
    """Check the sponge axioms; violations become report entries, not errors."""
    return s.validation_report


@dataclass(frozen=True)
class HomologyResult:
    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]


def homology(s: SpongeComplex) -> HomologyResult:
    """Integral cellular homology from the rank and torsion of each boundary operator."""
    if s.cell_dim_defects:
        raise ValidationError("cell dimensions do not fit n: " + "; ".join(s.cell_dim_defects))
    if s.boundary_squared_defects:
        raise ValidationError("incidence is not a chain complex: " + "; ".join(s.boundary_squared_defects))
    top = s.n - 2
    index = s._index
    ranks = [0] * (top + 2)
    torsion: list[tuple[int, ...]] = [()] * (top + 1)
    pivoted: set[int] = set()  # the cells of the last dimension taken as unit pivots
    for d in range(1, top + 1):
        # The boundary operator from d-chains to (d-1)-chains, one column per
        # d-cell, without the rows of the (d-1)-cells the last operator took
        # unit pivots in.  On its cycles those coordinates are integral
        # combinations of the others, so forgetting them is injective there
        # and maps the cycles onto a saturated sublattice: rank and torsion
        # stay (Kaczynski, Mischaikow and Mrozek, Computational Homology,
        # 2004, ch. 4).
        cells = index.by_dim.get(d, [])
        columns = []
        for c in cells:
            col: dict[int, int] = {}
            for sub, sign in index.bnd[c]:
                if index.dims[sub] == d - 1 and sub not in pivoted:
                    col[sub] = col.get(sub, 0) + sign
            columns.append(col)
        ranks[d], torsion[d - 1], pivots = _rank_and_torsion(columns)
        pivoted = {cells[j] for j in pivots}
    # the alternating sum of these Betti numbers is the Euler characteristic for any ranks
    betti = tuple(len(index.by_dim.get(d, [])) - ranks[d] - ranks[d + 1] for d in range(top + 1))
    return HomologyResult(betti=betti, torsion=tuple(torsion))


def _rank_and_torsion(columns: Sequence[Mapping[int, int]]) -> tuple[int, tuple[int, ...], set[int]]:
    """Rank, nontrivial invariant factors and unit-pivot columns of a sparse integer matrix.

    Unit pivots go first (Dumas, Saunders and Villard, J. Symb. Comput. 32,
    2001; Kaczynski, Mischaikow and Mrozek, Computational Homology, 2004,
    ch. 3): each step takes the +-1 entry of least Markowitz fill
    (r-1)(c-1), ties to the least (row, column), clears its column by row
    additions and drops its row and column.  The steps are unimodular, so
    each adds one to the rank and a factor 1.  Only the residual without a
    unit entry takes a Smith form.  Each pivot column is left with one unit
    entry, which is why homology may drop those cells' rows one dimension up.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for j, column in enumerate(columns):
        for i, x in column.items():
            if x:
                rows.setdefault(i, {})[j] = x
                cols.setdefault(j, set()).add(i)

    def units(row_ids, col_ids):
        """Heap entries (fill, row, column) for the unit entries in these rows and columns."""
        cells = {(i, j) for i in row_ids for j in rows.get(i, ())}
        cells.update((i, j) for j in col_ids for i in cols[j])
        return [((len(rows[i]) - 1) * (len(cols[j]) - 1), i, j) for i, j in cells if rows[i][j] in (1, -1)]

    heap = units(rows, ())
    heapify(heap)
    pivots: set[int] = set()
    while heap:
        fill, p, q = heappop(heap)
        pivot = rows.get(p)
        if pivot is None or pivot.get(q) not in (1, -1):
            continue  # the entry is gone or no longer a unit
        if fill != (len(pivot) - 1) * (len(cols[q]) - 1):
            continue  # the entry is in the heap again with its current fill
        del rows[p]
        for j in pivot:
            cols[j].discard(p)
        below = cols.pop(q)
        unit = pivot.pop(q)
        for i in below:
            row = rows[i]
            f = row.pop(q) * unit
            for j, x in pivot.items():
                y = row.get(j, 0) - f * x
                if y:
                    row[j] = y
                    cols[j].add(i)
                else:
                    del row[j]
                    cols[j].discard(i)
            if not row:
                del rows[i]
        pivots.add(q)
        for entry in units(below, pivot):
            heappush(heap, entry)
    if not rows:
        return len(pivots), (), pivots
    keep = sorted({j for row in rows.values() for j in row})
    residual = [[row.get(j, 0) for j in keep] for _, row in sorted(rows.items())]
    dec = smith_normal_form(IntMatrix.from_rows(residual))
    return len(pivots) + dec.rank, dec.torsion(), pivots


def face_star(s: SpongeComplex, cell_id: str) -> bool:
    """Whether the star of a cell, its upper set, has local-model shape.

    The test is SpongeComplex._star_local_at, the one that stars_local runs at
    the 0-cells; stars_local holds the lemma by which, in a valid sponge,
    those stars decide every other.
    """
    s._pos(cell_id)  # InputFormatError for an id that is no cell
    return s._star_local_at(cell_id)

"""Equivalence of characteristic data.

Two validated data sets are equivalent when a dimension-preserving cell
bijection of their sponges, a per-cell orientation gauge making the signed
incidences agree, and a single unimodular transformation carry one facet
Euler chain exactly onto the other.  Verdicts are relative to this cellular
notion: Inequivalent never claims topological distinctness of the
underlying pairs, only that no cellular equivalence exists.

The witness returned by the search is re-checked by an independent
verifier that substitutes it into every condition.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, fields
from itertools import chain, islice
from typing import Mapping

from .chardata import CharacteristicData, _checks, _pair_index
from .errors import ConsistencyError, PreconditionError
from .lattice import IntMatrix, adjugate, determinant, dot, independent_rows
from .sponge import SpongeComplex, homology, sign_walk, signs_along


@dataclass(frozen=True)
class EquivalenceWitness:
    mapping: Mapping[str, str]  # cells of the first sponge -> cells of the second
    gauge: Mapping[str, int]  # per-cell orientation sign of the bijection
    matrix: IntMatrix  # unimodular transform on circle directions


@dataclass(frozen=True)
class ComparisonResult:
    verdict: str  # "equivalent" | "inequivalent" | "incomparable"
    witness: EquivalenceWitness | None = None
    certificate: str = ""

    @property
    def equivalent(self) -> bool:
        return self.verdict == "equivalent"


@dataclass(frozen=True)
class Fingerprint:
    """Invariants preserved by every cellular equivalence.

    Equal fingerprints are necessary (not sufficient) for equivalence.
    pair_indices collects, over facet pairs sharing a codimension-one face
    of the sponge, the index of the span of their directions inside its
    saturation; this is unimodular-invariant.  compare settles n and the
    ambient before it reads a fingerprint, so neither is a field.
    """

    cells_per_dim: tuple[int, ...]
    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    pair_indices: tuple[int, ...]


def canonical_invariants(cd: CharacteristicData) -> Fingerprint:
    s = cd.sponge
    counts = tuple(len(s.cells_of_dim(d)) for d in range(max(s.n - 1, 1)))
    h = homology(s)
    pair_idx = []
    for _, through, _, _ in cd.three_term_faces:
        for a in range(len(through)):
            for b in range(a + 1, len(through)):
                pair_idx.append(_pair_index(cd.mu[through[a]], cd.mu[through[b]]))
    return Fingerprint(
        cells_per_dim=counts,
        betti=h.betti,
        torsion=h.torsion,
        pair_indices=tuple(sorted(pair_idx)),
    )


def _require_validated(cd: CharacteristicData, tag: str) -> None:
    # compare works on any well-formed (mu, sign) data; whether the chain is a
    # cycle is a property of the data, not an admissibility requirement, so
    # only the sponge, mu and compatibility stages run
    stages = dict(islice(_checks(cd), 3))
    if not stages["mu"].ok:
        raise PreconditionError(f"{tag} is not validated: " + stages["mu"].summary(3))
    if not stages["compatibility"].ok:
        raise PreconditionError(f"{tag} carries malformed local Euler data")


def _signatures(s: SpongeComplex) -> list[tuple[int, int]]:
    """Bijection-invariant local profile of each cell, by index: dim and the number of boundary cells.

    compare searches only sponges that pass validation and share n.  There
    incidence-structure makes every boundary cell one dimension lower, and
    upper-counts puts an i-cell in exactly C(n-i, d-i) cells of each
    dimension d, so the dimensions of the boundary cells and of the upper set
    follow from these two numbers and would not refine the partition.
    """
    index = s._index
    return [(d, len(b)) for d, b in zip(index.dims, index.bnd)]


def _poset_bijections(s1: SpongeComplex, s2: SpongeComplex, counts: dict[str, int]):
    """Yield dim- and cover-preserving cell bijections, connectivity first.

    Cells of s1 are placed in one fixed order, as in VF2's candidate ordering
    (Cordella et al., IEEE TPAMI 26, 2004): the next cell has the most
    neighbours (faces and cofaces) already placed, then the fewest
    same-signature candidates, then the highest dimension, then the smallest
    id.  Each cell tries the candidate with its own id first, so comparing
    data with itself yields the identity first.  Every cover is checked once
    its later cell is placed, so the set of bijections does not depend on the
    order.  counts["nodes"] counts the assignments made.  The search works on
    the ints of both sponges' indices (int order is id order) and yields each
    bijection as {int of s1: int of s2} in placement order.
    """
    index1, index2 = s1._index, s2._index
    sig1, sig2_of = _signatures(s1), _signatures(s2)
    sig2: dict[tuple, list[int]] = {}
    for c2 in s2.cells:  # each class in the order of s2.cells
        j = index2.pos[c2.id]
        sig2.setdefault(sig2_of[j], []).append(j)
    sizes = {sig: len(cls) for sig, cls in sig2.items()}
    if Counter(sig1) != Counter(sizes):
        return
    nbrs1, nbrs2 = index1.neighbours, index2.neighbours

    # Keys only fall, and each fall of an unplaced cell pushes a fresh entry,
    # its least, which pops first: its stale entries pop once it is placed.
    placed_nbrs = [0] * len(sig1)
    rest = [(sizes[sig], -d, x) for x, (sig, d) in enumerate(zip(sig1, index1.dims))]
    heap = [(0, *key) for key in rest]
    heapq.heapify(heap)
    position = [-1] * len(sig1)
    order: list[int] = []
    nbrs_before: list[list[int]] = []  # the positions of each cell's faces and cofaces placed before it
    while heap:
        c1 = heapq.heappop(heap)[-1]
        if position[c1] < 0:
            position[c1] = len(order)
            order.append(c1)
            nbrs_before.append([])
            for x in nbrs1[c1]:
                if position[x] >= 0:
                    nbrs_before[-1].append(position[x])
                else:
                    placed_nbrs[x] += 1
                    heapq.heappush(heap, (-placed_nbrs[x], *rest[x]))

    def candidates(c1):
        """The same id first, then the rest of its class in the order of s2.cells."""
        same = index2.pos.get(index1.ids[c1])
        first = (same,) if same is not None and sig2_of[same] == sig1[c1] else ()
        return chain(first, (j for j in sig2[sig1[c1]] if j != same))

    if not order:
        yield {}
        return
    assign: list[int] = []  # the cell of s2 at each filled position
    used = [False] * len(sig2_of)
    # depth first on an explicit stack (a recursion would take one frame per
    # cell) of candidate iterators, each with the images of its cell's faces
    # and cofaces placed before it: one-directional cover preservation, sizes
    # agree via the signatures
    stack = [(candidates(order[0]), set())]
    while stack:
        pos = len(stack) - 1
        if len(assign) > pos:  # back at this position: undo its last placement
            used[assign.pop()] = False
        options, placed = stack[-1]
        for c2 in options:
            if not used[c2] and placed <= nbrs2[c2]:
                assign.append(c2)
                used[c2] = True
                counts["nodes"] += 1
                break
        else:
            stack.pop()
            continue
        if pos + 1 == len(order):
            yield dict(zip(order, assign))
        else:
            pos += 1
            stack.append((candidates(order[pos]), set(map(assign.__getitem__, nbrs_before[pos]))))


def _solve_gauge(walk, relations, inc2: list[dict[int, int]], image: Mapping[int, int]):
    """Per-cell signs making the incidences agree; yields each consistent gauge.

    Constraints: inc2(b(C), b(D)) = gauge(C) * gauge(D) * inc1(C, D), one per
    incidence (C, D, inc1) of relations, whose sign_walk is walk; compare
    builds them and inc2, [C : D] per cell of s2, once, on index ints like the
    bijection b (image).  The gauge is determined up to one sign per connected
    component of the incidence graph; all completions are enumerated, the
    first component's flip varying fastest.
    """
    rels = [sign1 * inc2[image[c]].get(image[d], 0) for c, d, sign1 in relations]
    if 0 in rels:
        return  # mapping does not even preserve incidence
    components = signs_along(walk, rels)
    if any(conflict is not None for _, conflict in components):
        return
    for flips in range(1 << len(components)):
        gauge = {}
        for c_idx, (signs, _) in enumerate(components):
            flip = -1 if flips >> c_idx & 1 else 1
            gauge.update((x, flip * sign) for x, sign in signs.items())
        yield gauge


@dataclass(frozen=True)
class _SpanFactor:
    """The spanning-facet matrix m1 of the first datum, factored once.

    m1 has the Euler coefficients of the spanning facets (the first facets by
    id with independent directions) as columns; it is square and nonsingular,
    and m1 @ adj == det * I.  A m1 = m2 then has the unique rational solution
    A = m2 @ adj / det.  span holds those facets' ints in the sponge's index,
    adj the rows of the adjugate, adj_cols its columns, and rest the other
    facets' ints with their Euler coefficients, as plain ints.
    """

    span: tuple[int, ...]
    det: int
    adj: tuple[tuple[int, ...], ...]
    adj_cols: tuple[tuple[int, ...], ...]
    rest: tuple[tuple[int, tuple[int, ...]], ...]

    @classmethod
    def of(cls, cd: CharacteristicData) -> "_SpanFactor":
        k = cd.n - 1
        facets, pos = cd.sponge.facet_ids, cd.sponge._index.pos
        span = [facets[i] for i in independent_rows([cd.mu[f] for f in facets], k)]
        rest = tuple((pos[f], cd.euler_coefficient(f).entries) for f in facets if f not in span)
        if not span:
            rows = tuple(map(tuple, IntMatrix.identity(k).row_list()))
            return cls((), 1, rows, rows, rest)
        if len(span) != k:
            raise ConsistencyError(f"spanning facets {span} do not span Q^{k}")
        adj = adjugate(IntMatrix.from_cols([cd.euler_coefficient(f) for f in span]))
        rows = tuple(map(tuple, adj.adj.row_list()))
        return cls(tuple(pos[f] for f in span), adj.det, rows, tuple(zip(*rows)), rest)


def _solve_transform(
    factor: _SpanFactor,
    euler2: Mapping[int, tuple[int, ...]],
    image: Mapping[int, int],
    gauge: Mapping[int, int],
    counts: dict[str, int],
) -> IntMatrix | None:
    """Unimodular A with A sigma1(F) = gauge(F) sigma2(b(F)) on all facets.

    euler2 holds the Euler coefficients sigma2 of the second datum; it, the
    bijection b (image) and the gauge are on the ints of the indices.
    counts["transforms"] counts the gauges whose spanning facets give an
    integral A.  The other facets are checked on plain ints before the
    determinant, which only a transform that fits every facet needs.
    """
    k = len(factor.adj)
    if not factor.span:  # no facets: every A qualifies, the identity among them
        return IntMatrix.identity(k)
    # A = m2 @ adj / det row by row, m2 having gauge(F) sigma2(b(F)) as columns
    a = []
    for m2_row in zip(*([gauge[f] * x for x in euler2[image[f]]] for f in factor.span)):
        row = [dot(m2_row, col) for col in factor.adj_cols]
        if any(x % factor.det for x in row):
            return None
        a.append([x // factor.det for x in row])
    counts["transforms"] += 1
    for fid, e1 in factor.rest:  # A m1 = m2 holds on the span by construction
        g, e2 = gauge[fid], euler2[image[fid]]
        if any(dot(row, e1) != g * z for row, z in zip(a, e2)):
            return None
    transform = IntMatrix(k, k, tuple(x for row in a for x in row))
    return transform if determinant(transform) in (1, -1) else None


def verify_witness(
    cd1: CharacteristicData, cd2: CharacteristicData, witness: EquivalenceWitness
) -> bool:
    """Independent substitution check of a claimed equivalence."""
    s1, s2 = cd1.sponge, cd2.sponge
    mapping = dict(witness.mapping)
    gauge = dict(witness.gauge)
    ids1 = {c.id for c in s1.cells}
    ids2 = {c.id for c in s2.cells}
    if set(mapping) != ids1 or set(mapping.values()) != ids2 or len(mapping) != len(ids2):
        return False
    if any(gauge.get(c) not in (1, -1) for c in ids1):
        return False
    for c in s1.cells:
        if s2.by_id[mapping[c.id]].dim != c.dim:
            return False
    for c in s1.cells:
        b1 = dict(s1.boundary(c.id))
        b2 = dict(s2.boundary(mapping[c.id]))
        if {mapping[x] for x in b1} != set(b2):
            return False
        for x, sign in b1.items():
            if b2[mapping[x]] != gauge[c.id] * gauge[x] * sign:
                return False
    a = witness.matrix
    if a.rows != cd1.n - 1 or a.cols != cd1.n - 1 or determinant(a) not in (1, -1):
        return False
    for fid in s1.facet_ids:
        if a @ cd1.euler_coefficient(fid) != cd2.euler_coefficient(mapping[fid]).scale(gauge[fid]):
            return False
        image_mu = a @ cd1.mu[fid]
        target_mu = cd2.mu[mapping[fid]]
        if image_mu != target_mu and image_mu != -target_mu:
            return False
    return True


def compare(
    cd1: CharacteristicData, cd2: CharacteristicData, stats: dict[str, int] | None = None
) -> ComparisonResult:
    """Decide cellular equivalence of two validated characteristic data.

    Equivalent results carry a witness (verified independently before being
    returned); Inequivalent results carry a certificate naming the failing
    invariant or the exhausted search; Incomparable means the ambient
    descriptors or dimensions differ.

    When stats is a dict, compare sets its counters of the search: "nodes"
    (cell assignments made), "bijections" (complete cell bijections),
    "gauges" (gauge assignments tried) and "transforms" (gauges whose
    spanning facets give an integral A, before the all-facet and
    unimodularity checks).  They stay 0 when compare stops before the search.

    A bijection's gauges come in pairs g, -g (every component flipped), -g
    after g.  If g gives the transform A, -g gives -A: -A is integral iff A
    is, det(-A) = +-det A, and (-A) sigma1 = (-g) sigma2 iff A sigma1 =
    g sigma2; verify_witness reads the gauge through gauge(C) gauge(D) and
    A sigma1 = g sigma2, and the directions up to sign (with no facets both
    get the identity).  So -g has the verdict of g: compare solves the first
    half and counts the second as tried, with the first half's transforms.
    """
    counts = stats if stats is not None else {}
    counts.update(nodes=0, bijections=0, gauges=0, transforms=0)
    _require_validated(cd1, "first argument")
    _require_validated(cd2, "second argument")
    if cd1.n != cd2.n:
        return ComparisonResult(
            "incomparable", certificate=f"dimension parameters differ: {cd1.n} vs {cd2.n}"
        )
    a1, a2 = cd1.ambient, cd2.ambient
    if a1.kind != a2.kind:
        return ComparisonResult(
            "incomparable", certificate=f"ambient kinds differ: {a1.kind} vs {a2.kind}"
        )
    if a1 != a2:
        return ComparisonResult(
            "incomparable",
            certificate=f"ambient boundary_trivial differs: {a1.boundary_trivial} vs {a2.boundary_trivial}",
        )
    f1, f2 = canonical_invariants(cd1), canonical_invariants(cd2)
    for name in (f.name for f in fields(Fingerprint)):
        if getattr(f1, name) != getattr(f2, name):
            return ComparisonResult(
                "inequivalent",
                certificate=f"invariant mismatch: {name} {getattr(f1, name)} vs {getattr(f2, name)}",
            )

    index1, index2 = cd1.sponge._index, cd2.sponge._index
    relations = [(c, d, sign) for c, bnd in enumerate(index1.bnd) for d, sign in bnd]
    walk = sign_walk(range(len(index1.ids)), relations)
    first_half = max(1, (1 << len(walk)) >> 1)  # of each bijection's gauges; -g follows g
    factor = _SpanFactor.of(cd1)
    inc2 = [dict(bnd) for bnd in index2.bnd]
    euler2 = {index2.pos[f]: cd2.euler_coefficient(f).entries for f in cd2.sponge.facet_ids}
    ids1, ids2 = index1.ids, index2.ids
    for image in _poset_bijections(cd1.sponge, cd2.sponge, counts):
        counts["bijections"] += 1
        gauges, transforms = counts["gauges"], counts["transforms"]
        for gauge in islice(_solve_gauge(walk, relations, inc2, image), first_half):
            counts["gauges"] += 1
            a = _solve_transform(factor, euler2, image, gauge, counts)
            if a is None:
                continue
            mapping = {ids1[c]: ids2[x] for c, x in image.items()}
            witness = EquivalenceWitness(mapping, {ids1[c]: sign for c, sign in gauge.items()}, a)
            if verify_witness(cd1, cd2, witness):
                return ComparisonResult("equivalent", witness=witness)
        if walk:  # the negations of the gauges just tried, with their verdicts
            counts["gauges"] += counts["gauges"] - gauges
            counts["transforms"] += counts["transforms"] - transforms
    return ComparisonResult(
        "inequivalent",
        certificate=(
            "no cellular equivalence: exhausted poset bijections "
            f"({counts['gauges']} gauge assignments tried)"
        ),
    )

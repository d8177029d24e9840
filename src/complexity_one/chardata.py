"""Characteristic data on sponge complexes.

A characteristic datum assigns to every sponge facet a primitive circle
direction mu(F) in Z^(n-1) and a sign k(F); the product k(F) * mu(F) is the
local Euler coefficient of the facet.  Validation covers the rank
conditions on stabilizer spans, the three-term vanishing relation at every
codimension-one face of the sponge, and the cycle property of the facet
chain sum k(F) mu(F) F, which the check pipeline reads off the three-term
relations.

The global Euler class is represented by this facet-local data; nothing
topological is constructed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    ConsistencyError,
    DegenerateInputError,
    DimensionMismatchError,
    InputFormatError,
)
from .lattice import (
    IntVector,
    as_id,
    as_int,
    dot,
    independent_rows,
    primitive_entries,
)
from .sponge import (
    Cell,
    CheckResult,
    SpongeComplex,
    ValidationReport,
    local_model_sponge,
    propagate_signs,
    validate_sponge,
)
from .weights import WeightSystem, strict_coefficients


AMBIENT_KINDS = ("sphere", "product", "abstract")


@dataclass(frozen=True)
class Ambient:
    """Orbit-space descriptor: a sphere, a product M x D^2, or abstract.

    For the product kind, boundary_trivial records that the free part over
    the boundary is a trivial bundle; with that flag the facet-local data
    determines the Euler class uniquely.  Only a product has that boundary,
    so the flag is false only for the product kind.
    """

    kind: str
    boundary_trivial: bool = True

    def __post_init__(self):
        if self.kind not in AMBIENT_KINDS:
            raise InputFormatError(f"ambient kind must be one of {AMBIENT_KINDS}")
        if not self.boundary_trivial and self.kind != "product":
            raise InputFormatError(f"boundary_trivial false needs the product ambient, got {self.kind!r}")

    @property
    def determines_class(self) -> bool:
        """True for spheres and boundary-trivial products, where the facet-local data pin the Euler class."""
        return self.kind == "sphere" or (self.kind == "product" and self.boundary_trivial)


@dataclass(frozen=True, eq=False)
class CharacteristicData:
    sponge: SpongeComplex
    mu: Mapping[str, IntVector]
    euler_sign: Mapping[str, int]
    ambient: Ambient = Ambient("abstract")
    n: int = field(init=False)  # the sponge's n, read as a plain attribute

    def __post_init__(self):
        object.__setattr__(self, "n", self.sponge.n)
        mu = {as_id(k, "mu key"): IntVector(tuple(v)) for k, v in dict(self.mu).items()}
        signs = {
            as_id(k, "Euler sign key"): as_int(v, f"Euler sign of {k}") for k, v in dict(self.euler_sign).items()
        }
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "euler_sign", signs)

    @classmethod
    def _from_checked(
        cls, sponge: SpongeComplex, mu: dict[str, IntVector], euler_sign: dict[str, int], ambient: Ambient
    ) -> CharacteristicData:
        """The datum on fields that io has already checked, its vectors kept: __post_init__ does not run."""
        cd = object.__new__(cls)
        vars(cd).update(sponge=sponge, mu=mu, euler_sign=euler_sign, ambient=ambient, n=sponge.n)
        return cd

    def euler_coefficient(self, facet_id: str) -> IntVector:
        return self.mu[facet_id].scale(self.euler_sign[facet_id])

    @cached_property
    def mu_defects(self) -> dict[str, str]:
        """_mu_defect of each facet with a mu value, in id order: one pass for validate_mu and compatibility_check."""
        return {f: _mu_defect(f, self.mu[f], self.n) for f in self.sponge.facet_ids if f in self.mu}

    @cached_property
    def three_term_faces(self) -> tuple[tuple[str, tuple[str, ...], str, tuple[int, ...] | None], ...]:
        """_three_term_faces of the sponge and mu, read once for validate_mu, cocycle and the fingerprint.

        data_from_charts sets it to the faces its Euler sign solve read.
        """
        return tuple(_three_term_faces(self.n, self.sponge, self.mu))

    @cached_property
    def cocycle_report(self) -> ValidationReport:
        """The three-term relations checked once; cocycle_check returns this report."""
        if not self.three_term_faces:
            return ValidationReport((CheckResult("cocycle", "pass", "no codimension-one faces"),))
        unsigned = {f for f in self.sponge.facet_ids if f not in self.euler_sign}
        bad = []
        for face, through, defect, pattern in self.three_term_faces:
            if unsigned and len(through) == 3 and not unsigned.isdisjoint(through):
                lacking = [f for f in through if f not in self.mu or f in unsigned]
                bad.append(f"face {face}: facets {', '.join(lacking)} lack mu or an Euler sign")
                continue
            if defect:
                bad.append(defect)
                continue
            if pattern is None:
                bad.append(f"face {face}: no +-1 combination of mu values vanishes")
                continue
            signs = [(self.sponge._coefficient(f, face) or 0) * self.euler_sign[f] for f in through]
            if signs[1:] == [signs[0] * pattern[1], signs[0] * pattern[2]]:
                continue  # the signs are a multiple of the pattern, whose combination vanishes
            mus = [self.mu[f].entries for f in through]
            if any(sum(s * x for s, x in zip(signs, column)) for column in zip(*mus)):
                bad.append(
                    f"face {face}: stored signs do not match the vanishing pattern "
                    f"(facets {', '.join(through)})"
                )
        return ValidationReport(CheckResult.from_violations("cocycle", bad))


def _pair_index(v: IntVector, w: IntVector) -> int:
    """gcd of the 2x2 minors of the stacked pair (0 when parallel)."""
    minors = []
    for a in range(v.dim):
        for b in range(a + 1, v.dim):
            minors.append(v[a] * w[b] - v[b] * w[a])
    return math.gcd(*minors) if minors else 0


def _mu_defect(fid: str, v: IntVector, n: int) -> str:
    """Why mu(fid) = v is not a primitive nonzero direction in Z^(n-1); "" when it is."""
    if v.dim != n - 1:
        return f"mu({fid}) has dim {v.dim}, expected {n - 1}"
    if v.is_zero():
        return f"mu({fid}) is zero"
    if not v.is_primitive():
        return f"mu({fid}) is not primitive"
    return ""


def validate_mu(cd: CharacteristicData) -> ValidationReport:
    """Rank conditions for the characteristic map, per face.

    For a face of dimension k, the mu values of the facets containing it
    must span a rank n-1-k sublattice, and distinct facets through a common
    face must carry distinct directions.
    """
    sponge_report = validate_sponge(cd.sponge)
    entries = [CheckResult.of("sponge", sponge_report.ok, sponge_report.summary(4))]
    if not sponge_report.ok:
        return ValidationReport(tuple(entries))

    facets = set(cd.sponge.facet_ids)
    domain_bad = []
    for fid in sorted(facets - set(cd.mu)):
        domain_bad.append(f"facet {fid} has no mu value")
    for fid in sorted(set(cd.mu) - facets):
        domain_bad.append(f"mu defined on non-facet {fid}")
    domain_bad += [defect for defect in cd.mu_defects.values() if defect]
    entries += CheckResult.from_violations("mu-domain", domain_bad)
    if domain_bad:
        return ValidationReport(tuple(entries))

    # mu-domain made every value primitive and nonzero, so two values are
    # parallel iff they are equal up to sign: iff the larger of +-mu agree.
    # The one facet through a facet is itself, whose mu spans rank 1, so
    # only the cells below the facets can fail.
    signless = {f: max(v.entries, (-v).entries) for f, v in cd.mu.items()}

    def rank_defects(cells: Iterable[Cell]) -> list[str]:
        bad = []
        for cell in cells:
            through = cd.sponge.facets_containing(cell.id)
            want = cd.n - 1 - cell.dim
            got = len(independent_rows([cd.mu[f].entries for f in through], cd.n - 1))
            if got != want:
                bad.append(f"face {cell.id} (dim {cell.dim}): mu-span rank {got}, expected {want}")
            if len({signless[f] for f in through}) < len(through):
                for a in range(len(through)):
                    for b in range(a + 1, len(through)):
                        if signless[through[a]] == signless[through[b]]:
                            bad.append(f"facets {through[a]}, {through[b]} share face {cell.id} with parallel mu")
        return bad

    # The fixed points decide mu-rank when every 0-cell's star is local and
    # every (n-3)-cell lies in three facets whose mu admit a vanishing +-1
    # combination.  Fix a 0-cell v, whose star is the truncated Boolean
    # lattice on n atoms, and an atom b0.  A cell x above v is the set of
    # its atoms, and the facets through x are the pairs in the set B of the
    # other m = n - dim x atoms.  The relation at the (n-3)-cell missing
    # {b0, j, k} gives mu(jk) = +-mu(b0 j) +-mu(b0 k), so each mu is +-e_b or
    # +-e_j +-e_k in the n - 1 values mu(b0 b).  When those have rank n - 1
    # (v passes), the facets through x span rank m - 1 = n - 1 - dim x, and
    # distinct ones have distinct supports, so none are parallel.  Every
    # cell lies above some 0-cell (SpongeComplex.stars_local), so mu-rank
    # passes everywhere iff it passes at the 0-cells; a failing report is
    # still read off every cell.  At n = 3 the cells below the facets are
    # the 0-cells, so there the loop is already at the fixed points.
    decided = (
        cd.n > 3
        and cd.sponge.stars_local
        and all(not defect and pattern is not None for _, _, defect, pattern in cd.three_term_faces)
    )
    fixed = (c for c in cd.sponge.cells_of_dim(0) if c.id not in facets)
    rank_bad = []
    if not decided or rank_defects(fixed):
        rank_bad = rank_defects(sorted((c for c in cd.sponge.cells if c.id not in facets), key=lambda c: c.id))
    entries += CheckResult.from_violations("mu-rank", rank_bad)
    return ValidationReport(tuple(entries))


def compatibility_check(cd: CharacteristicData) -> bool:
    """Representational consistency of the local Euler data.

    In this representation the local class on a facet is euler_sign * mu by
    construction, so the check verifies the representation itself: every
    facet has a primitive nonzero mu and a sign in {+1, -1}.
    """
    for fid in cd.sponge.facet_ids:
        if fid not in cd.mu or cd.mu_defects[fid]:
            return False
        if cd.euler_sign.get(fid) not in (1, -1):
            return False
    return True


def _vanishing_pattern(vectors: Sequence[Sequence[int]]) -> tuple[int, ...] | None:
    """The sign pattern (e0=+1, e1, e2) with e0*v0 + e1*v1 + e2*v2 = 0, if any."""
    v0, v1, v2 = vectors
    for v in (v1, v2):
        if len(v) != len(v0):
            raise DimensionMismatchError(f"vector dims {len(v0)} != {len(v)}")
    # e2 * v2 = -(v0 + e1 * v1): e2 = 1 when the sum is -v2, e2 = -1 when it is v2
    plus, minus = list(v2), [-z for z in v2]
    for e1 in (1, -1):
        partial = [x + e1 * y for x, y in zip(v0, v1)]
        if partial == minus:
            return (1, e1, 1)
        if partial == plus:
            return (1, e1, -1)
    return None


def _three_term_faces(
    n: int, sponge: SpongeComplex, mu: Mapping[str, IntVector]
) -> Iterator[tuple[str, tuple[str, ...], str, tuple[int, ...] | None]]:
    """The three-term relation read at each codimension-one face.

    Yields (face id, facets through it, defect, pattern) for each (n-3)-cell
    of the sponge.  defect names a face that does not lie in three facets or
    whose facets lack mu or carry mu of dim other than n-1, and pattern is
    then None.  Otherwise defect is "" and pattern is the vanishing +-1
    pattern of the three mu values, or None when no such combination
    vanishes.  Signs play no part: cocycle_report adds the facets that lack
    one.
    """
    for cell in sponge.cells_of_dim(n - 3) if n >= 3 else ():
        face = cell.id
        through = sponge.facets_containing(face)
        defect = ""
        if len(through) != 3:
            defect = f"face {face} lies in {len(through)} facets, expected 3"
        else:
            lacking = [f for f in through if f not in mu]
            misfit = [] if lacking else [f for f in through if mu[f].dim != n - 1]
            if lacking:
                defect = f"face {face}: facets {', '.join(lacking)} lack mu or an Euler sign"
            elif misfit:
                defect = f"face {face}: facets {', '.join(misfit)} carry mu of dim other than {n - 1}"
        pattern = None if defect else _vanishing_pattern([mu[f].entries for f in through])
        yield face, through, defect, pattern


def cocycle_check(cd: CharacteristicData) -> ValidationReport:
    """Three-term relations at every codimension-one face of the sponge.

    At each (n-3)-cell the three incident facet directions must admit a
    +-1-signed vanishing combination, and the stored signs, twisted by the
    incidence orientation, must realize it up to one global sign per face.
    """
    return cd.cocycle_report


def _verdict(check: str, ok: bool, detail: str = "") -> ValidationReport:
    return ValidationReport((CheckResult.of(check, ok, detail),))


def _checks(cd: CharacteristicData) -> Iterator[tuple[str, ValidationReport]]:
    """(stage, report) for sponge, mu, compatibility, cocycle and euler-cycle, in that order.

    Lazy, so a caller that needs only the first stages runs only those.  A
    check whose prerequisite failed is not run: it fails and names the first
    failed prerequisite.  mu needs the sponge (validate_mu reports the sponge
    as its first entry and stops there when it fails), compatibility needs
    nothing, cocycle needs the sponge, and euler-cycle needs the sponge,
    compatibility and cocycle.

    euler-cycle then needs no computation of its own.  In a valid sponge each
    (n-3)-cell c lies in exactly three facets, and only those list c in their
    boundaries, so the boundary of the chain sum k(F) mu(F) F at c is the sum
    of [F:c] k(F) mu(F) over the facets F through c: the sum the cocycle
    report tests at c.  Where every facet carries a sign and a mu of dim n-1
    (compatibility), the chain is a cycle iff the cocycle relations hold.
    The test suite checks this against tests/oracles.py's
    euler_cycle_by_boundary, which sums the chain's boundary cell by cell.
    """
    sponge = validate_sponge(cd.sponge)
    yield "sponge", sponge
    yield "mu", validate_mu(cd)
    compatible = compatibility_check(cd)
    yield "compatibility", _verdict("compatibility", compatible)
    invalid_sponge = "sponge fails validation"
    cocycle = cocycle_check(cd) if sponge.ok else _verdict("cocycle", False, invalid_sponge)
    yield "cocycle", cocycle
    prerequisites = (
        (sponge.ok, invalid_sponge),
        (compatible, "compatibility fails"),
        (cocycle.ok, "cocycle relations fail"),
    )
    failed = next((why for ok, why in prerequisites if not ok), "")
    yield "euler-cycle", _verdict("euler-cycle", not failed, failed)


def _pair_lines(ws: WeightSystem) -> Callable[[int, int], tuple[tuple[int, ...], int]]:
    """The stabilizer line and Hopf sign of each pair of a strict system, read off its one adjugate.

    Strictness is checked, and c and the adjugate columns are read, once per
    system.  The returned function maps a pair (i, j) of distinct indices to
    c_i c_j and the primitive generator, first nonzero entry positive, of
    the rank-one lattice of cocharacters vanishing on all weights but i and
    j (and so, by the Cramer relation, on c_i alpha_i + c_j alpha_j).  Column a_i of the
    adjugate of the first n-1 weights pairs to zero with each of those
    weights but weight i (a_(n-1) is zero), so the line c_j a_i - c_i a_j
    pairs to zero with the first n-1 weights but i and j, and by the Cramer
    relation with the last one too.
    """
    c = strict_coefficients(ws)
    a = ws.adjugate_columns
    rows = [w.entries for w in ws.weights]

    def line(i: int, j: int) -> tuple[tuple[int, ...], int]:
        lam = primitive_entries([c[j] * x - c[i] * y for x, y in zip(a[i], a[j])])
        if lam is None:
            others = [rows[m] for m in range(ws.n) if m not in (i, j)]
            line_rank = ws.n - 1 - len(independent_rows(others, ws.n - 1))
            raise ConsistencyError(f"stabilizer line for pair ({i}, {j}) has rank {line_rank}")
        if not dot(rows[i], lam) or not dot(rows[j], lam):
            raise ConsistencyError("stabilizer direction pairs to zero with its own weights")
        return lam, c[i] * c[j]

    return line


def solve_euler_signs(
    sponge: SpongeComplex, mu: Mapping[str, IntVector], seeds: Mapping[str, int]
) -> dict[str, int]:
    """Orient the facet data so the assembled chain is a cycle.

    The three-term relation at each (n-3)-cell determines the relative signs
    of the facets through it; signs propagate along these constraints, each
    connected component pinned by the seed of its lexicographically least
    facet.  Raises ConsistencyError when no +-1 assignment exists, which
    means the mu data is not coherent.
    """
    return _euler_signs(sponge, mu, seeds)[0]


def _euler_signs(
    sponge: SpongeComplex, mu: Mapping[str, IntVector], seeds: Mapping[str, int]
) -> tuple[dict[str, int], tuple[tuple[str, tuple[str, ...], str, tuple[int, ...] | None], ...]]:
    """solve_euler_signs, with the three-term faces it read."""
    faces = []
    constraints: list[tuple[str, str, int]] = []
    for face, through, defect, pattern in _three_term_faces(sponge.n, sponge, mu):
        faces.append((face, through, defect, pattern))
        if defect:
            raise ConsistencyError(defect)
        if pattern is None:
            raise ConsistencyError(f"face {face}: no +-1 vanishing combination of mu values")
        inc = [sponge._coefficient(f, face) for f in through]
        if None in inc:
            raise KeyError(face)  # a facet above the face that does not list it
        # need inc[t] * k[t] proportional to pattern[t]
        target = [pattern[t] * inc[t] for t in range(3)]
        for t in range(1, 3):
            constraints.append((through[0], through[t], target[t] * target[0]))
    signs: dict[str, int] = {}
    for component, conflict in propagate_signs(sponge.facet_ids, constraints, seeds):
        if conflict is not None:
            raise ConsistencyError(f"orientation constraints are inconsistent at facet {conflict}")
        signs.update(component)
    return signs, tuple(faces)


@dataclass(frozen=True)
class Chart:
    """Weight system at a 0-cell with the 1-cell corresponding to each weight."""

    weights: WeightSystem
    rays: tuple[str, ...]

    def __post_init__(self):
        rays = tuple(r if type(r) is str else as_id(r, f"chart ray {t}") for t, r in enumerate(self.rays))
        object.__setattr__(self, "rays", rays)
        if len(self.rays) != self.weights.n:
            raise DegenerateInputError(
                f"chart has {len(self.rays)} rays for n={self.weights.n}"
            )


def data_from_charts(
    sponge: SpongeComplex,
    charts: Mapping[str, Chart],
    ambient: Ambient,
) -> CharacteristicData:
    """Assemble characteristic data from weight charts, in one pass over the 0-cells.

    A facet's pair at a 0-cell is the two chart rays whose upper sets lack it,
    and its line is read off the chart's one adjugate (_pair_lines), which
    each chart sweeps once.  Directions and Hopf signs from every adjacent
    chart must agree; the Euler signs are then oriented to make the facet
    chain a cycle, each orientation component seeded by the Hopf sign of its
    least facet.
    """
    found: dict[str, tuple[tuple[int, ...], int]] = {}
    for v in sponge.cells_of_dim(0):
        through = sponge.facets_containing(v.id)
        if not through:
            continue
        chart = charts.get(v.id)
        if chart is None:
            raise ConsistencyError(f"0-cell {v.id} lies in a facet but has no chart")
        uppers = [sponge.facets_containing(r) if r in sponge.by_id else () for r in chart.rays]
        lines = None
        for fid in through:
            pair = [t for t, up in enumerate(uppers) if fid not in up]
            if len(pair) != 2:
                raise ConsistencyError(
                    f"facet {fid} meets {len(uppers) - len(pair)} rays at {v.id}, cannot form a chart pair"
                )
            if lines is None:  # strictness is checked once per chart, after its first pair
                lines = _pair_lines(chart.weights)
            direction, sign = lines(*pair)
            first = found.setdefault(fid, (direction, sign))
            if first != (direction, sign):
                what = "direction" if first[0] != direction else "Hopf sign"
                raise ConsistencyError(f"charts disagree on the {what} of facet {fid}")
    for fid in sponge.facet_ids:
        if fid not in found:
            raise ConsistencyError(f"facet {fid} has no vertex in its closure")
    mu = {fid: IntVector(found[fid][0]) for fid in sponge.facet_ids}
    signs, faces = _euler_signs(sponge, mu, seeds={fid: found[fid][1] for fid in sponge.facet_ids})
    cd = CharacteristicData(sponge=sponge, mu=mu, euler_sign=signs, ambient=ambient)
    object.__setattr__(cd, "three_term_faces", faces)  # the same sponge and mu, read once
    return cd


def local_model_data(ws: WeightSystem, ambient: Ambient = Ambient("abstract")) -> CharacteristicData:
    """Characteristic data of a single chart on the local model complex."""
    sponge = local_model_sponge(ws.n)
    rays = tuple(f"c{i + 1}" for i in range(ws.n))
    return data_from_charts(sponge, {"o": Chart(ws, rays)}, ambient)

"""Independent oracles for the test suite.

Everything here works on plain lists of ints over Fractions or exact
integer arithmetic and shares no code path with the package: cofactor
determinants and adjugates, Gaussian ranks, invariant factors and integer
solvability from gcds of minors, torsion element orders from rational
solves, simplicial/graph homology and brute-force incidence indices.  The one
exception is face_star_search, the package's former backtracking face_star,
kept as the reference for the direct atom-set test; it reads a complex only
through by_id, upper_set and boundary, which incidence_indices checks.  Two
more former package searches are kept the same way: poset_bijections_by_dim,
the dimension-descending bijection search, as the reference for the
connectivity-first one, and solve_transform_by_rows, the one-solve_exact-
per-row transform, as the reference for the factored one.  Two former
integer-kernel constructions are kept as references for their replacements:
signed_incidence_by_kernel, which took each boundary's fundamental cycle
from integer_kernel, for sign propagation, and local_euler_by_kernel, which
takes the stabilizer line from integer_kernel and the Hopf sign from the
Cramer coefficients, for the lines that _pair_lines reads off a chart's
adjugate.
Two former quasitoric checks are kept as references for their shortcuts:
strict_subtori_by_box, the search of the whole box of characters, for the
solve from one basis, and validate_star_by_smith, one Smith form per face,
for the check of only the faces that no determinant-+-1 vertex covers.
star_condition_by_smith, cell_manifold_data's former star check with one
Smith form per cell, is the reference for the same shortcut on cell
manifolds.
polytope_edge_error_by_scan, SimplePolytope's former edge and connectivity
checks with a scan of every vertex per edge and per step of the walk, is the
reference for the edge index, and color_clash_by_pairs, coloring_pullback's
former test of every facet pair for a shared vertex, for its walk of the
codimension-two faces.
polytope_sponge_by_subsets, the former polytope_sponge that scanned every
pair of faces in neighbouring codimensions, is the reference for the
skeleton of the polytope's boundary cell manifold; it shares only
signed_incidence with the package.  homology_by_smith, the former homology
with one dense Smith form per boundary matrix, is the reference for the
unit-pivot elimination.  solve_exact, the package's former Hermite-form
solver, stays as the oracle of square solves and of the row-wise transform.
vanishing_pattern_by_vectors and cocycle_report_by_vectors, the former
three-term relation on IntVector sums, are the references for the one on
the tuples of mu.  smith_by_pivoting, the package's former Smith form by
least-pivot row and column rotations and a divisibility loop, is the
reference for the one that alternates Hermite row passes; it shares only
_gcdex and the self-check _check_smith with the package.
poset_bijections_recursive, the connectivity-first bijection search as a
recursive generator with one frame per placed cell and the signature with
the sorted dimensions of the boundary and the upper set, is the reference
for the search on an explicit stack with the (dim, boundary size)
signature.  euler_cycle_by_boundary, the package's former chain-cycle
check, sums the boundary of the facet chain k(F) mu(F) F cell by cell; it is
the reference for the check pipeline's euler-cycle stage, which reads the
verdict off the cocycle report.  data_from_charts_by_facets, the former
data_from_charts that indexed the 0-cells under each facet and rebuilt the
set of chart rays in the facet for every (facet, 0-cell) pair, is the
reference for the one pass over the 0-cells; it takes each direction and
Hopf sign from local_euler_by_kernel and shares the sign solver with the
package.  mu_rank_by_cells and
upper_counts_by_cells, validate_mu's and validation_report's former loops
over every cell, with a Gaussian rank and a count of each upper set, are
the references for the checks decided at the 0-cells; they read a complex
through by_id and upper_set.  propagate_signs_in_one_pass, the package's
former propagate_signs that signed the nodes and checked the relations in
the one walk, is the reference for the walk split from its signing pass,
and gauges_by_propagation, compare's former gauge solver that rebuilt the
relations and propagated them for every bijection, for the gauges signed
along one walk per compare.  upper_sets_by_search, facets_by_upper_sets and
top_cells_by_closure, the package's former string-keyed walks (an upper
set per cell up the cofaces, the facets filtered out of each, and a
closure per top cell down the covers), are the references for the dense
int index and its bit masks, and validation_report_by_walks, the sponge
axioms as the package checked them on string ids with the upper-counts
loop over every cell, for the report the index decides.
string_incidence builds the package's former string-keyed boundary_signs
and cofaces from a complex's cells and incidence alone; the oracles that
walked those maps (poset_bijections_by_dim, poset_bijections_recursive,
gauges_by_propagation, cocycle_report_by_vectors and upper_sets_by_search)
read them there, so none of them shares the package's int index.
cells_by_dim_per_dimension, the former _cells_by_dim that scanned the
id-sorted cells once per dimension, is the reference for the one-pass
grouping.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd

from complexity_one.chardata import CharacteristicData, solve_euler_signs
from complexity_one.errors import (
    ConsistencyError,
    DimensionMismatchError,
    InputFormatError,
    PreconditionError,
    StarConditionError,
    ValidationError,
)
from complexity_one.lattice import (
    IntMatrix,
    IntVector,
    SmithDecomposition,
    _check_smith,
    _gcdex,
    determinant,
    hermite_normal_form,
    integer_kernel,
    is_unimodular_extension,
    primitive,
    smith_normal_form,
    stack_rows,
)
from complexity_one.sponge import CheckResult, HomologyResult, SpongeComplex, ValidationReport
from complexity_one.weights import cramer_coefficients


def cofactor_det(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        sign = -1 if j % 2 else 1
        total += sign * m[0][j] * cofactor_det(minor)
    return total


def cofactor_adjugate(m):
    """adj(m)[i][j] = (-1)^(i+j) det(m without row j and column i), by cofactor expansion."""
    n = len(m)
    return [
        [(-1) ** (i + j) * cofactor_det([r[:i] + r[i + 1 :] for t, r in enumerate(m) if t != j]) for j in range(n)]
        for i in range(n)
    ]


def fraction_rank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def minor_gcd(rows, k):
    """gcd of the k x k minors (1 for k = 0, 0 when every minor vanishes)."""
    cols = len(rows[0]) if rows else 0
    g = 0
    for ri in combinations(range(len(rows)), k):
        for ci in combinations(range(cols), k):
            g = gcd(g, cofactor_det([[rows[i][j] for j in ci] for i in ri]))
    return g


def invariant_factors_from_minors(rows):
    """d_1 | d_2 | ... from gcds of i x i minors, by brute enumeration."""
    if not rows or not rows[0]:
        return []
    factors = []
    prev = 1
    for k in range(1, min(len(rows), len(rows[0])) + 1):
        g = minor_gcd(rows, k)
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def solve_rational(a_cols, b):
    """x with sum x_j * a_cols[j] = b over Q, or None; a_cols independent."""
    rows = len(b)
    cols = len(a_cols)
    aug = [[Fraction(a_cols[j][i]) for j in range(cols)] + [Fraction(b[i])] for i in range(rows)]
    pivots = []
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, rows) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        pv = aug[rank][col]
        aug[rank] = [x / pv for x in aug[rank]]
        for i in range(rows):
            if i != rank and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [u - f * v for u, v in zip(aug[i], aug[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, rows):
        if aug[i][cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for i, col in enumerate(pivots):
        x[col] = aug[i][cols]
    return x


def integer_solvable(rows, b):
    """Whether A x = b has an integer solution, A given by its m rows.

    The classical criterion: A and [A | b] have the same rank r and the same
    gcd of r x r minors.
    """
    r = fraction_rank(rows)
    augmented = [list(row) + [x] for row, x in zip(rows, b)]
    return fraction_rank(augmented) == r and minor_gcd(augmented, r) == minor_gcd(rows, r)


def coset_order(a_rows, v, bound=64):
    """Order of [v] in Z^m / column-lattice(a), or None when infinite/over bound."""
    cols = list(map(list, zip(*a_rows))) if a_rows and a_rows[0] else []
    for t in range(1, bound + 1):
        target = [t * x for x in v]
        x = solve_rational(cols, target) if cols else (None if any(target) else [])
        if x is not None and all(f.denominator == 1 for f in x):
            return t
    return None


def graph_betti(vertices, edges):
    """(b0, b1) of a graph by union-find."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    comps = len({find(v) for v in vertices})
    return comps, len(edges) - len(vertices) + comps


def simplicial_betti(simplices):
    """Betti numbers of an abstract simplicial complex over Q.

    simplices: iterable of vertex tuples; the complex is closed under faces
    automatically.
    """
    faces = set()
    for s in simplices:
        s = tuple(sorted(s))
        for k in range(1, len(s) + 1):
            for f in combinations(s, k):
                faces.add(f)
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    for d in by_dim:
        by_dim[d].sort()
    top = max(by_dim) if by_dim else 0
    ranks = [0] * (top + 2)
    for d in range(1, top + 1):
        lower = {f: i for i, f in enumerate(by_dim.get(d - 1, []))}
        rows = []
        for f in by_dim.get(d, []):
            row = [0] * len(lower)
            for t in range(len(f)):
                sub = f[:t] + f[t + 1 :]
                row[lower[sub]] = (-1) ** t
            rows.append(row)
        if rows and lower:
            ranks[d] = fraction_rank(list(map(list, zip(*rows))))
    betti = []
    for d in range(top + 1):
        betti.append(len(by_dim.get(d, [])) - ranks[d] - ranks[d + 1])
    return tuple(betti)


def incidence_indices(cells, incidence, n):
    """Incidence indices of a cell complex by brute force.

    cells: (id, dim) pairs; incidence: {id: [(subcell id, sign), ...]}, whose
    keys and subcells need not be cells.  Returns per-dimension id lists,
    {subcell: sign} boundary maps, sorted coface tuples, upper sets (grown to
    a fixed point through incidence keys naming a cell already in the set)
    and, where every upper-set member is a cell, the facets (dim n-2) in it.
    """
    dims = dict(cells)
    by_dim = {}
    for cid in sorted(dims):
        by_dim.setdefault(dims[cid], []).append(cid)
    boundary = {cid: {} for cid in dims}
    for key, entries in incidence.items():
        if key in boundary:
            for sub, sign in entries:
                boundary[key][sub] = sign
    cofaces = {
        cid: tuple(sorted(k for k, entries in incidence.items() if any(s == cid for s, _ in entries)))
        for cid in dims
    }
    upper = {}
    for cid in dims:
        grown = {cid}
        while True:
            more = {
                k for k, entries in incidence.items() if any(s in grown and s in dims for s, _ in entries)
            }
            if more <= grown:
                break
            grown |= more
        upper[cid] = frozenset(grown)
    facets = {
        cid: tuple(sorted(x for x in up if dims[x] == n - 2))
        for cid, up in upper.items()
        if all(x in dims for x in up)
    }
    return {"by_dim": by_dim, "boundary": boundary, "cofaces": cofaces, "upper": upper, "facets": facets}


def string_incidence(s):
    """SpongeComplex's former boundary_signs and cofaces, built from s.cells and s.incidence alone.

    boundary_signs maps each cell, in id order, to its boundary as {subcell
    id: sign}, the last listing winning; cofaces maps each cell to the
    incidence keys listing it, sorted by id, a key once per listing.
    """
    boundary = {cid: dict(s.incidence.get(cid, ())) for cid in sorted(s.by_id)}
    cofaces = {c.id: [] for c in s.cells}
    for key, entries in s.incidence.items():
        for sub, _ in entries:
            if sub in cofaces:
                cofaces[sub].append(key)
    return boundary, {cid: tuple(sorted(keys)) for cid, keys in cofaces.items()}


def face_star_search(s, cell_id):
    """face_star by backtracking: (base, cell_dims, relation, is_local).

    Tries every injective, rank-preserving assignment of the star's cells
    to subsets of an (n-k)-set and keeps one whose subset order matches the
    cover relation between consecutive ranks.  Reads the complex only
    through by_id, upper_set and boundary.
    """
    if cell_id not in s.by_id:
        raise InputFormatError(f"unknown cell id {cell_id!r}")
    k = s.by_id[cell_id].dim
    star = sorted(s.upper_set(cell_id))
    dims = {x: s.by_id[x].dim for x in star}
    covers = []
    star_set = set(star)
    for x in star:
        for sub, _ in s.boundary(x):
            if sub in star_set:
                covers.append((sub, x))

    m = s.n - k  # ground-set size of the model star
    target_elems = []
    for size in range(0, s.n - 1 - k):  # relative dims 0 .. (n-2)-k
        target_elems.extend(frozenset(c) for c in combinations(range(m), size))
    by_size = {}
    for t in target_elems:
        by_size.setdefault(len(t), []).append(t)

    order = sorted(star, key=lambda x: (dims[x], x))
    cover_set = {(lo, hi) for lo, hi in covers}
    same_rank_below = {
        x: [y for y in star if dims[y] == dims[x] - 1] for x in star
    }

    assign = {}
    used = set()

    def backtrack(pos):
        if pos == len(order):
            return True
        x = order[pos]
        size = dims[x] - k
        if size < 0 or size not in by_size:
            return False
        for cand in by_size[size]:
            if cand in used:
                continue
            # cover pattern against every assigned cell one rank down
            ok = True
            for lo in same_rank_below[x]:
                img = assign.get(lo)
                if img is None:
                    continue
                if (img < cand) != ((lo, x) in cover_set):
                    ok = False
                    break
            if not ok:
                continue
            assign[x] = cand
            used.add(cand)
            if backtrack(pos + 1):
                return True
            del assign[x]
            used.discard(cand)
        return False

    counts_match = len(star) == len(target_elems) and all(
        sum(1 for x in star if dims[x] == k + t) == len(by_size.get(t, []))
        for t in range(0, s.n - 1 - k)
    )
    is_local = counts_match and backtrack(0)

    return (cell_id, tuple((x, dims[x]) for x in order), tuple(sorted(covers)), is_local)


def _cell_signature(s, cid):
    """Bijection-invariant local profile: dim plus face/coface counts per dim."""
    dim = s.by_id[cid].dim
    down = tuple(sorted(s.by_id[x].dim for x, _ in s.boundary(cid)))
    upper = s.upper_set(cid)
    up = tuple(sorted(s.by_id[x].dim for x in upper if x != cid))
    return (dim, down, up)


def poset_bijections_by_dim(s1, s2):
    """Yield dim- and cover-preserving cell bijections, dimension descending."""
    cells1 = sorted((c.id for c in s1.cells), key=lambda x: (-s1.by_id[x].dim, x))
    sig1 = {c.id: _cell_signature(s1, c.id) for c in s1.cells}
    sig2 = {}
    for c in s2.cells:
        sig2.setdefault(_cell_signature(s2, c.id), []).append(c.id)
    if Counter(sig1.values()) != Counter({k: len(v) for k, v in sig2.items()}):
        return
    (bnd1, cof1), (bnd2, _) = string_incidence(s1), string_incidence(s2)

    assign = {}
    used = set()

    def ok_candidate(c1, c2):
        # one-directional cover preservation; sizes agree via the signatures
        for x in bnd1[c1]:
            if x in assign and assign[x] not in bnd2[c2]:
                return False
        for up in cof1[c1]:
            if up in assign and c2 not in bnd2[assign[up]]:
                return False
        return True

    def backtrack(pos):
        if pos == len(cells1):
            yield dict(assign)
            return
        c1 = cells1[pos]
        for c2 in sig2.get(sig1[c1], ()):  # same local profile
            if c2 in used or not ok_candidate(c1, c2):
                continue
            assign[c1] = c2
            used.add(c2)
            yield from backtrack(pos + 1)
            del assign[c1]
            used.discard(c2)

    yield from backtrack(0)


def poset_bijections_recursive(s1, s2, counts):
    """Yield dim- and cover-preserving cell bijections, connectivity first, by recursion.

    The order, the candidates and counts["nodes"] are those of
    classify._poset_bijections.
    """
    sig1 = {c.id: _cell_signature(s1, c.id) for c in s1.cells}
    sig2 = {}
    for c in s2.cells:
        sig2.setdefault(_cell_signature(s2, c.id), []).append(c.id)
    if Counter(sig1.values()) != Counter({k: len(v) for k, v in sig2.items()}):
        return
    (bnd1, cof1), (bnd2, _) = string_incidence(s1), string_incidence(s2)

    order = []
    placed_nbrs = dict.fromkeys(sig1, 0)
    unplaced = set(sig1)
    while unplaced:
        c1 = min(
            unplaced, key=lambda x: (-placed_nbrs[x], len(sig2[sig1[x]]), -s1.by_id[x].dim, x)
        )
        order.append(c1)
        unplaced.remove(c1)
        for x in (*bnd1[c1], *cof1[c1]):
            placed_nbrs[x] += 1
    position = {c: i for i, c in enumerate(order)}
    faces_before = [[x for x in bnd1[c] if position[x] < i] for i, c in enumerate(order)]
    cofaces_before = [[x for x in cof1[c] if position[x] < i] for i, c in enumerate(order)]
    candidates = [sorted(sig2[sig1[c]], key=lambda c2: c2 != c) for c in order]

    assign = {}
    used = set()

    def backtrack(pos):
        if pos == len(order):
            yield dict(assign)
            return
        c1 = order[pos]
        for c2 in candidates[pos]:
            if c2 in used:
                continue
            if any(assign[x] not in bnd2[c2] for x in faces_before[pos]):
                continue
            if any(c2 not in bnd2[assign[up]] for up in cofaces_before[pos]):
                continue
            assign[c1] = c2
            used.add(c2)
            counts["nodes"] += 1
            yield from backtrack(pos + 1)
            del assign[c1]
            used.discard(c2)

    yield from backtrack(0)


def propagate_signs_in_one_pass(nodes, relations, seeds=None):
    """Per component: the signs s_b = r * s_a of relations (a, b, r) and the first conflict.

    Signs and checks come from one depth-first walk; each component is
    pinned by its first node's seed (default +1).
    """
    adj = {}
    for a, b, r in relations:
        adj.setdefault(a, []).append((b, r))
        adj.setdefault(b, []).append((a, r))
    components = []
    placed = set()
    for start in nodes:
        if start in placed:
            continue
        signs, conflict, frontier = {start: (seeds or {}).get(start, 1)}, None, [start]
        while frontier:
            cur = frontier.pop()
            for other, rel in adj.get(cur, ()):
                if other not in signs:
                    signs[other] = signs[cur] * rel
                    frontier.append(other)
                elif signs[other] != signs[cur] * rel and conflict is None:
                    conflict = other
        placed.update(signs)
        components.append((signs, conflict))
    return components


def gauges_by_propagation(s1, s2, mapping):
    """Yield each per-cell sign assignment making the incidences of s1 and s2 agree.

    Constraints: inc2(b(C), b(D)) = gauge(C) * gauge(D) * inc1(C, D), one
    relation per incidence, propagated afresh; one sign per component is
    free, the first component's flip varying fastest.
    """
    inc1, inc2 = string_incidence(s1)[0], string_incidence(s2)[0]
    relations = []
    for c, bnd in inc1.items():
        for d, sign1 in bnd.items():
            sign2 = inc2[mapping[c]].get(mapping[d])
            if sign2 is None:
                return
            relations.append((c, d, sign1 * sign2))
    components = propagate_signs_in_one_pass(inc1, relations)
    if any(conflict is not None for _, conflict in components):
        return
    for flips in range(1 << len(components)):
        gauge = {}
        for c_idx, (signs, _) in enumerate(components):
            flip = -1 if flips >> c_idx & 1 else 1
            gauge.update((x, flip * sign) for x, sign in signs.items())
        yield gauge


def solve_exact(a, b):
    """Integer solution x of a @ x = b, or None when none exists (the package's former solver).

    With u @ a^T = h in Hermite form, h^T y = b is solved by forward
    substitution over the pivots of h and x = u^T y.  When ker(a) is
    nontrivial the free coordinates of y are 0 (deterministic, not canonical
    in any lattice sense).
    """
    if a.rows != b.dim:
        raise DimensionMismatchError("solve_exact: incompatible shapes")
    h, u = hermite_normal_form(a.transpose())
    y = [0] * a.cols
    for i in range(h.rows):
        col = next((j for j in range(h.cols) if h.entry(i, j)), None)
        if col is None:
            break
        y[i], rem = divmod(b[col] - sum(h.entry(k, col) * y[k] for k in range(i)), h.entry(i, col))
        if rem:
            return None
    x = u.transpose() @ IntVector(tuple(y))
    return x if a @ x == b else None


def solve_transform_by_rows(cd1, cd2, mapping, gauge, span):
    """Unimodular A with A sigma1(F) = gauge(F) sigma2(b(F)) on all facets.

    Solves A m1 = m2 one row of A at a time, one solve_exact per row.
    """
    if not span:  # no facets: every A qualifies, the identity among them
        return IntMatrix.identity(cd1.n - 1)
    m1 = IntMatrix.from_cols([list(cd1.euler_coefficient(f)) for f in span])
    m2 = IntMatrix.from_cols(
        [list(cd2.euler_coefficient(mapping[f]).scale(gauge[f])) for f in span]
    )
    # solve A m1 = m2 column-wise through the transpose
    rows = []
    m1t = m1.transpose()
    for r in range(cd1.n - 1):
        target = IntVector(tuple(m2.entry(r, j) for j in range(len(span))))
        x = solve_exact(m1t, target)
        if x is None:
            return None
        rows.append(list(x))
    a = IntMatrix.from_rows(rows)
    if determinant(a) not in (1, -1):
        return None
    for fid in cd1.sponge.facet_ids:
        lhs = a @ cd1.euler_coefficient(fid)
        rhs = cd2.euler_coefficient(mapping[fid]).scale(gauge[fid])
        if lhs != rhs:
            return None
    return a


def signed_incidence_by_kernel(cells, covers):
    """signed_incidence with each boundary's fundamental cycle from integer_kernel.

    The boundary of a cell of dimension >= 2 must have a rank-one cycle
    space spanned by a +-1 vector, pinned so its least boundary cell gets +1.
    """
    dims = {cid: d for cid, d in cells}
    inc = {}
    for cid, d in sorted(cells, key=lambda t: (t[1], t[0])):
        below = sorted(covers.get(cid, ()))
        for b in below:
            if b not in dims or dims[b] != d - 1:
                raise ConsistencyError(f"cover {b!r} of {cid!r} is not one dimension lower")
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
        lower = sorted({x for b in below for x, _ in inc[b]})
        idx = {x: i for i, x in enumerate(lower)}
        if lower:
            mat_rows = [[0] * len(below) for _ in lower]
            for j, b in enumerate(below):
                for x, s in inc[b]:
                    mat_rows[idx[x]][j] += s
            kernel = integer_kernel(IntMatrix.from_rows(mat_rows))
        else:
            kernel = integer_kernel(IntMatrix(0, len(below), ()))
        if len(kernel) != 1:
            raise ConsistencyError(
                f"boundary of {cid!r} has cycle space of rank {len(kernel)}, expected 1"
            )
        cyc = kernel[0]
        if any(abs(x) != 1 for x in cyc):
            raise ConsistencyError(f"boundary of {cid!r} is not a +-1 fundamental cycle")
        if cyc[0] < 0:
            cyc = -cyc
        inc[cid] = tuple((b, cyc[j]) for j, b in enumerate(below))
    return inc


def local_euler_by_kernel(ws, i, j):
    """Circle direction and Hopf sign c_i c_j of the facet missing weights i and j of a strict system.

    The direction is the stabilizer line from integer_kernel: the kernel of
    the other n-2 weights and c_i alpha_i + c_j alpha_j, oriented so that
    its pairing with weight i has the sign of c_j.
    """
    cramer = cramer_coefficients(ws)
    if 0 in cramer.c_tilde:
        raise PreconditionError("weight system is not in general position")
    c = cramer.c
    if any(abs(x) != 1 for x in c):
        raise PreconditionError("hopf_type requires a strictly appropriate system")
    alphas = ws.weights
    rows = [alphas[m] for m in range(ws.n) if m not in (i, j)]
    rows.append(alphas[i].scale(c[i]) + alphas[j].scale(c[j]))
    kernel = integer_kernel(stack_rows(rows))
    if len(kernel) != 1:
        raise ConsistencyError(f"stabilizer line for pair ({i}, {j}) has rank {len(kernel)}")
    lam = kernel[0]
    pair_i = alphas[i].dot(lam)
    if pair_i == 0 or alphas[j].dot(lam) == 0:
        raise ConsistencyError("stabilizer direction pairs to zero with its own weights")
    if pair_i * c[j] < 0:
        lam = -lam
    return lam, c[i] * c[j]


def strict_subtori_by_box(values, n, bound):
    """find_strict_subtorus by walking the box [-bound, bound]^n in lexicographic order.

    Keeps each primitive character whose first nonzero entry is positive and
    that pairs to +-1 with every value.
    """
    found = []
    for cand in product(range(-bound, bound + 1), repeat=n):
        if gcd(*cand) != 1 or next(x for x in cand if x) < 0:
            continue
        if all(abs(sum(a * b for a, b in zip(cand, v))) == 1 for v in values):
            found.append(cand)
    return found


def validate_star_by_smith(p, lam):
    """validate_star with a Smith-form basis-extension check at every face."""
    missing = [f"facet {f} has no lambda value" for f in p.facets if f not in lam.values]
    entries = list(CheckResult.from_violations("lambda-domain", missing))
    if missing:
        return ValidationReport(tuple(entries))
    bad_dim = [f"lambda({f}) has dim {lam[f].dim}" for f in p.facets if lam[f].dim != p.n]
    entries += CheckResult.from_violations("lambda-dim", bad_dim)
    if bad_dim:
        return ValidationReport(tuple(entries))
    vertex_bad = []
    for v in sorted(p.vertices, key=lambda v: tuple(sorted(v))):
        det = cofactor_det([list(lam[f]) for f in sorted(v)])
        if det not in (1, -1):
            vertex_bad.append(f"vertex {sorted(v)}: determinant {det}")
    entries += CheckResult.from_violations("vertex-determinant", vertex_bad)
    face_bad = []
    for k in range(1, p.n):
        for face in p.faces_of_codim(k):
            if not is_unimodular_extension([lam[f] for f in sorted(face)], p.n):
                face_bad.append(f"face {sorted(face)}: values do not extend to a basis")
    entries += CheckResult.from_violations("face-extension", face_bad)
    return ValidationReport(tuple(entries))


def star_condition_by_smith(m, values):
    """cell_manifold_data's former star check: a Smith form at every cell, in m.cells order."""
    for c, _ in m.cells:
        if not is_unimodular_extension([values[t] for t in m.top_cells_containing(c)], m.n):
            raise StarConditionError(f"top-cell values at {c} do not extend to a basis")


def polytope_edge_error_by_scan(n, vertices):
    """The first edge-count or connectivity error of distinct n-element vertices, or None."""
    for v in vertices:
        for edge in combinations(sorted(v), n - 1):
            count = sum(1 for w in vertices if set(edge) <= w)
            if count != 2:
                return f"edge {list(edge)} lies in {count} vertices, expected 2"
    seen = {vertices[0]}
    frontier = [vertices[0]]
    while frontier:
        cur = frontier.pop()
        for w in vertices:
            if w not in seen and len(cur & w) == n - 1:
                seen.add(w)
                frontier.append(w)
    return None if len(seen) == len(vertices) else "vertex graph is disconnected"


def color_clash_by_pairs(p, coloring):
    """The first pair of facets, in sorted order, that share a vertex and a color, as coloring_pullback names it."""
    for f, g in combinations(sorted(p.facets), 2):
        if any({f, g} <= v for v in p.vertices) and coloring[f] == coloring[g]:
            return f"adjacent facets {f}, {g} share color {coloring[f]}"
    return None


def polytope_sponge_by_subsets(p):
    """polytope_sponge with each cover found by scanning the faces of one more facet."""
    def cid(face):
        return "g:" + ",".join(sorted(face))

    cells = []
    covers = {}
    realized = {}
    for k in range(2, p.n + 1):
        realized[k] = set(p.faces_of_codim(k))
        for face in realized[k]:
            cells.append((cid(face), p.n - k))
    for k in range(2, p.n):
        for face in realized[k]:
            covers[cid(face)] = sorted(cid(bigger) for bigger in realized[k + 1] if face < bigger)
    return SpongeComplex.from_covers(p.n, cells, covers)


def boundary_matrix(s, d):
    """Boundary operator from d-chains to (d-1)-chains as an IntMatrix, cells sorted by id."""
    rows = [c.id for c in s.cells_of_dim(d - 1)]
    cols = [c.id for c in s.cells_of_dim(d)]
    index = {cid: i for i, cid in enumerate(rows)}
    entries = [[0] * len(cols) for _ in rows]
    for j, cid in enumerate(cols):
        for sub, sign in s.boundary(cid):
            if sub in index:
                entries[index[sub]][j] += sign
    if not rows or not cols:
        return IntMatrix(len(rows), len(cols), (0,) * (len(rows) * len(cols)))
    return IntMatrix.from_rows(entries)


def homology_by_smith(s):
    """The package's former homology: one self-checked Smith form per boundary matrix."""
    top = s.n - 2
    if s.cell_dim_defects or s.boundary_squared_defects:
        raise ValidationError("not a chain complex of cells in dimensions 0..n-2")
    counts = [len(s.cells_of_dim(d)) for d in range(top + 1)]
    ranks = [0] * (top + 2)
    torsion = [()] * (top + 1)
    for d in range(1, top + 1):
        bd = boundary_matrix(s, d)
        if bd.rows and bd.cols:
            dec = smith_normal_form(bd)
            ranks[d] = dec.rank
            torsion[d - 1] = dec.torsion()
    betti = tuple(counts[d] - ranks[d] - ranks[d + 1] for d in range(top + 1))
    return HomologyResult(betti=betti, torsion=tuple(torsion))


def vanishing_pattern_by_vectors(vectors):
    """The sign pattern (1, e1, e2) with v0 + e1 v1 + e2 v2 = 0 by IntVector sums, if any."""
    v0, v1, v2 = vectors
    for e1 in (1, -1):
        for e2 in (1, -1):
            if (v0 + v1.scale(e1) + v2.scale(e2)).is_zero():
                return (1, e1, e2)
    return None


def cocycle_report_by_vectors(cd):
    """cocycle_check with the vanishing pattern and the signed sum on IntVectors."""
    codim1 = cd.sponge.cells_of_dim(cd.n - 3) if cd.n >= 3 else ()
    if not codim1:
        return ValidationReport((CheckResult("cocycle", "pass", "no codimension-one faces"),))
    boundary_signs = string_incidence(cd.sponge)[0]
    bad = []
    for cell in codim1:
        through = cd.sponge.facets_containing(cell.id)
        if len(through) != 3:
            bad.append(f"face {cell.id} lies in {len(through)} facets, expected 3")
            continue
        lacking = [f for f in through if f not in cd.mu or f not in cd.euler_sign]
        if lacking:
            bad.append(f"face {cell.id}: facets {', '.join(lacking)} lack mu or an Euler sign")
            continue
        misfit = [f for f in through if cd.mu[f].dim != cd.n - 1]
        if misfit:
            bad.append(f"face {cell.id}: facets {', '.join(misfit)} carry mu of dim other than {cd.n - 1}")
            continue
        mus = [cd.mu[f] for f in through]
        if vanishing_pattern_by_vectors(mus) is None:
            bad.append(f"face {cell.id}: no +-1 combination of mu values vanishes")
            continue
        total = mus[0].scale(0)
        for f, v in zip(through, mus):
            inc = boundary_signs[f].get(cell.id, 0)
            total = total + v.scale(inc * cd.euler_sign[f])
        if not total.is_zero():
            bad.append(
                f"face {cell.id}: stored signs do not match the vanishing pattern "
                f"(facets {', '.join(through)})"
            )
    return ValidationReport(CheckResult.from_violations("cocycle", bad))


def euler_cycle_by_boundary(cd):
    """True iff the facet chain k(F) mu(F) F of the datum is a cycle, by its boundary sum."""
    s = cd.sponge
    facets = set(s.facet_ids)
    keys = set(cd.mu) & set(cd.euler_sign)
    if not facets <= keys:
        raise InputFormatError(f"facets {sorted(facets - keys)} lack mu or an Euler sign")
    coeffs = {f: cd.euler_coefficient(f) for f in s.facet_ids}
    if {v.dim for v in coeffs.values()} - {s.n - 1}:
        raise DimensionMismatchError(f"coefficients must have dim {s.n - 1}")
    acc = {}
    for fid, v in coeffs.items():
        for sub, sign in s.boundary(fid):
            cur = acc.setdefault(sub, [0] * v.dim)
            for t, x in enumerate(v.entries):
                cur[t] += sign * x
    return not any(any(v) for v in acc.values())


class _PivotWorker:
    """D with row tracker U and column tracker V, changed by unimodular row and column operations."""

    def __init__(self, a):
        self.m = a.rows
        self.n = a.cols
        self.d = a.row_list()
        self.u = IntMatrix.identity(a.rows).row_list()
        self.v = IntMatrix.identity(a.cols).row_list()

    def swap_rows(self, i, j):
        self.d[i], self.d[j] = self.d[j], self.d[i]
        self.u[i], self.u[j] = self.u[j], self.u[i]

    def swap_cols(self, i, j):
        for r in self.d + self.v:
            r[i], r[j] = r[j], r[i]

    def negate_row(self, i):
        self.d[i] = [-x for x in self.d[i]]
        self.u[i] = [-x for x in self.u[i]]

    def add_row(self, i, j, q):
        """row i += q * row j"""
        self.d[i] = [x + q * y for x, y in zip(self.d[i], self.d[j])]
        self.u[i] = [x + q * y for x, y in zip(self.u[i], self.u[j])]

    def add_col(self, i, j, q):
        """col i += q * col j"""
        for r in self.d + self.v:
            r[i] += q * r[j]

    def rot_rows(self, i, j, col):
        """Unimodular 2x2 row transform making d[j][col] = 0, d[i][col] = gcd."""
        a, b = self.d[i][col], self.d[j][col]
        if a != 0 and b % a == 0:
            self.add_row(j, i, -(b // a))
            return
        g, x, y = _gcdex(a, b)
        p, q = -(b // g), a // g
        for t in (self.d, self.u):
            t[i], t[j] = (
                [x * s + y * r for s, r in zip(t[i], t[j])],
                [p * s + q * r for s, r in zip(t[i], t[j])],
            )

    def rot_cols(self, i, j, row):
        """Unimodular 2x2 column transform making d[row][j] = 0."""
        a, b = self.d[row][i], self.d[row][j]
        if a != 0 and b % a == 0:
            self.add_col(j, i, -(b // a))
            return
        g, x, y = _gcdex(a, b)
        p, q = -(b // g), a // g
        for r in self.d + self.v:
            r[i], r[j] = x * r[i] + y * r[j], p * r[i] + q * r[j]


def smith_by_pivoting(a):
    """The package's former Smith form: least-pivot row and column rotations, then a divisibility loop."""
    w = _PivotWorker(a)
    m, n = w.m, w.n

    def diagonalize(t):
        while t < min(m, n):
            entries = [(abs(w.d[i][j]), i, j) for i in range(t, m) for j in range(t, n) if w.d[i][j]]
            if not entries:
                return
            _, i, j = min(entries)
            if i != t:
                w.swap_rows(t, i)
            if j != t:
                w.swap_cols(t, j)
            while True:
                for i in range(t + 1, m):
                    if w.d[i][t]:
                        w.rot_rows(t, i, t)
                if not any(w.d[t][j] for j in range(t + 1, n)):
                    break
                for j in range(t + 1, n):
                    if w.d[t][j]:
                        w.rot_cols(t, j, t)
                if not any(w.d[i][t] for i in range(t + 1, m)):
                    break
            t += 1

    def make_positive(t, r):
        for k in range(t, r):
            if w.d[k][k] < 0:
                w.negate_row(k)

    diagonalize(0)
    r = sum(1 for k in range(min(m, n)) if w.d[k][k] != 0)
    make_positive(0, r)
    i = 0
    while i < r - 1:
        j = next((j for j in range(i + 1, r) if w.d[j][j] % w.d[i][i]), None)
        if j is None:
            i += 1
            continue
        w.add_col(i, j, 1)
        diagonalize(i)
        make_positive(i, r)

    u = IntMatrix.from_rows(w.u) if m else IntMatrix(0, 0, ())
    v = IntMatrix.from_rows(w.v) if n else IntMatrix(0, 0, ())
    d = IntMatrix.from_rows(w.d) if m and n else IntMatrix(m, n, (0,) * (m * n))
    dec = SmithDecomposition(u, d, v, r)
    _check_smith(a, dec)
    return dec


def data_from_charts_by_facets(sponge, charts, ambient):
    """data_from_charts facet by facet: each facet's 0-cells first, then its pair in each chart."""
    mu = {}
    hopf = {}
    closure_vertices = {fid: [] for fid in sponge.facet_ids}
    for v in sponge.cells_of_dim(0):
        for fid in sponge.facets_containing(v.id):
            closure_vertices[fid].append(v.id)
    for fid, vertices in closure_vertices.items():
        if not vertices:
            raise ConsistencyError(f"facet {fid} has no vertex in its closure")
        for vid in vertices:
            chart = charts[vid]
            ws = chart.weights
            in_facet = {
                t for t, r in enumerate(chart.rays) if r in sponge.by_id and fid in sponge.upper_set(r)
            }
            pair = sorted(set(range(ws.n)) - in_facet)
            if len(pair) != 2:
                raise ConsistencyError(
                    f"facet {fid} meets {len(in_facet)} rays at {vid}, cannot form a chart pair"
                )
            direction, sign = local_euler_by_kernel(ws, pair[0], pair[1])
            direction = primitive(direction)
            if fid in mu:
                if mu[fid] != direction:
                    raise ConsistencyError(f"charts disagree on the direction of facet {fid}")
                if hopf[fid] != sign:
                    raise ConsistencyError(f"charts disagree on the Hopf sign of facet {fid}")
            else:
                mu[fid] = direction
                hopf[fid] = sign
    signs = solve_euler_signs(sponge, mu, seeds=hopf)
    return CharacteristicData(sponge=sponge, mu=mu, euler_sign=signs, ambient=ambient)


def mu_rank_by_cells(cd):
    """validate_mu's former mu-rank violations: the rank and parallel pairs at every cell below the facets.

    The cells go in id order; the facets through a cell are those in its
    upper set.  Needs a sponge and mu that pass validate_mu's earlier checks.
    """
    s, k = cd.sponge, cd.n - 1
    bad = []
    for cell in sorted((c for c in s.cells if c.dim != cd.n - 2), key=lambda c: c.id):
        through = sorted(x for x in s.upper_set(cell.id) if s.by_id[x].dim == cd.n - 2)
        got = fraction_rank([list(cd.mu[f].entries) for f in through]) if through else 0
        if got != k - cell.dim:
            bad.append(f"face {cell.id} (dim {cell.dim}): mu-span rank {got}, expected {k - cell.dim}")
        for a, b in combinations(through, 2):
            if cd.mu[a] == cd.mu[b] or cd.mu[a] == -cd.mu[b]:
                bad.append(f"facets {a}, {b} share face {cell.id} with parallel mu")
    return bad


def upper_counts_by_cells(s):
    """validation_report's former upper-counts violations: each cell's first wrong count by dimension.

    Needs a complex that passes cell-dims and incidence-structure.
    """
    bad = []
    for c in s.cells:
        got = Counter(s.by_id[x].dim for x in s.upper_set(c.id))
        for d in range(c.dim, s.n - 1):
            want = comb(s.n - c.dim, d - c.dim)
            if got[d] != want:
                bad.append(f"cell {c.id} (dim {c.dim}) lies in {got[d]} cells of dim {d}, expected {want}")
                break
    return bad


def cells_by_dim_per_dimension(s):
    """The reference for the index's grouping by dimension (_Index.by_dim, read by _cells_by_dim):
    per dimension, a scan of the id-sorted cells for that dimension."""
    ordered = sorted(s.cells, key=lambda c: c.id)
    return {d: tuple(c for c in ordered if c.dim == d) for d in {c.dim for c in ordered}}


def upper_sets_by_search(s):
    """SpongeComplex's former _upper_sets: per cell, every id reached up the cofaces, itself included.

    A search per cell, not a recursion: a malformed incidence may be cyclic
    or name ids that are not cells.  Top dimension first, the search takes
    in the known upper set of a coface whole.
    """
    cofaces = string_incidence(s)[1]
    out = {}
    for c in sorted(s.cells, key=lambda c: -c.dim):
        seen = {c.id}
        frontier = [c.id]
        while frontier:
            for up in cofaces.get(frontier.pop(), ()):
                if up in seen:
                    continue
                if up in out:
                    seen |= out[up]
                else:
                    seen.add(up)
                    frontier.append(up)
        out[c.id] = frozenset(seen)
    return out


def facets_by_upper_sets(s):
    """SpongeComplex's former _facets_by_cell: the facets (dim n-2) in each cell's upper set, sorted by id.

    A cell whose upper set holds an id that is not a cell gets no entry, so
    facets_containing raised KeyError there.
    """
    return {
        cid: tuple(sorted(x for x in up if s.by_id[x].dim == s.n - 2))
        for cid, up in upper_sets_by_search(s).items()
        if s.by_id.keys() >= up
    }


def top_cells_by_closure(m):
    """CellManifold's former _top_cells_by_cell: per id in a top cell's closure down the covers, those top cells.

    Ids in no closure get no entry; top_cells_containing gave them ().
    """
    out = {}
    for t in sorted(c for c, d in m.cells if d == m.n - 1):
        seen = {t}
        frontier = [t]
        while frontier:
            for sub in m.covers.get(frontier.pop(), ()):
                if sub not in seen:
                    seen.add(sub)
                    frontier.append(sub)
        for c in seen:
            out.setdefault(c, []).append(t)
    return {c: tuple(tops) for c, tops in out.items()}


def validation_report_by_walks(s):
    """validation_report as the package built it on string ids, its entries in order.

    incidence-structure walks every cell's boundary in the order of cells,
    then the keys that are no cell: the reference for the texts that the
    index's walk names (_Index.faults) and for their order in the report,
    which follows cells, not the ints.  boundary-squared sums each d(d(c))
    in a dict, and upper-counts runs upper_counts_by_cells whenever
    cell-dims and incidence-structure pass: with local stars at the 0-cells
    that loop finds nothing (SpongeComplex.stars_local), which is where the
    package skips it.
    """
    dim_bad = [f"n must be >= 2, got {s.n}"] if s.n < 2 else []
    dim_bad += [f"cell {c.id} has dim {c.dim} outside 0..{s.n - 2}" for c in s.cells if not 0 <= c.dim <= s.n - 2]
    top = max((c.dim for c in s.cells), default=0)
    if s.cells and top != s.n - 2:
        dim_bad.append(f"complex has dimension {top}, expected {s.n - 2}")
    dims = {c.id: c.dim for c in s.cells}
    structure_bad = []
    for c in s.cells:
        bnd = s.incidence.get(c.id, ())
        if c.dim == 0:
            if bnd:
                structure_bad.append(f"0-cell {c.id} has boundary entries")
            continue
        if not bnd:
            structure_bad.append(f"{c.dim}-cell {c.id} has no boundary")
            continue
        seen = set()
        for sub, sign in bnd:
            if sub not in dims:
                structure_bad.append(f"{c.id} references unknown cell {sub}")
                continue
            if dims[sub] != c.dim - 1:
                structure_bad.append(f"{c.id} (dim {c.dim}) lists {sub} of dim {dims[sub]}")
            if sign not in (1, -1):
                structure_bad.append(f"incidence {c.id}->{sub} has coefficient {sign}")
            if sub in seen:
                structure_bad.append(f"{c.id} lists {sub} twice")
            seen.add(sub)
    structure_bad += [f"incidence key {key} is not a cell" for key in s.incidence if key not in dims]
    square_bad = []
    for cid in sorted(dims):
        if dims[cid] < 2:
            continue
        acc = {}
        for sub, sign in s.incidence.get(cid, ()):
            for sub2, sign2 in s.incidence.get(sub, ()):
                acc[sub2] = acc.get(sub2, 0) + sign * sign2
        bad = {k: v for k, v in acc.items() if v != 0}
        if bad:
            square_bad.append(f"d(d({cid})) != 0 at {sorted(bad)}")
    count_bad = upper_counts_by_cells(s) if not dim_bad and not structure_bad else []
    entries = []
    for check, violations in (
        ("cell-dims", dim_bad),
        ("incidence-structure", structure_bad),
        ("boundary-squared", square_bad),
        ("upper-counts", count_bad),
    ):
        entries += CheckResult.from_violations(check, violations)
    return ValidationReport(tuple(entries))

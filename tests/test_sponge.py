import random
from collections import Counter
from functools import cache
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from complexity_one.errors import (
    ConsistencyError,
    DegenerateInputError,
    InputFormatError,
    ValidationError,
)
from complexity_one.catalog import (
    CatalogEntry,
    k33_sponge,
    load,
    names,
    octahedron_sponge,
    simplex_polytope,
    verify,
)
from complexity_one.chardata import CharacteristicData, Chart
from complexity_one.lattice import IntMatrix, integer_kernel, smith_normal_form, vec
from complexity_one.quasitoric import (
    CellManifold,
    CharacteristicFunction,
    SimplePolytope,
    cell_manifold_data,
    coloring_pullback,
    find_strict_subtorus,
    polytope_sponge,
    reduce,
)
from complexity_one.sponge import (
    Cell,
    CheckResult,
    SpongeComplex,
    _rank_and_torsion,
    face_star,
    homology,
    local_model_sponge,
    propagate_signs,
    signed_incidence,
    validate_sponge,
)
from complexity_one.weights import WeightSystem
from oracles import (
    cells_by_dim_per_dimension,
    face_star_search,
    facets_by_upper_sets,
    graph_betti,
    homology_by_smith,
    incidence_indices,
    propagate_signs_in_one_pass,
    signed_incidence_by_kernel,
    simplicial_betti,
    string_incidence,
    top_cells_by_closure,
    upper_counts_by_cells,
    upper_sets_by_search,
    validation_report_by_walks,
)
from test_lattice import _shaped
from test_quasitoric import torus_three_hexagons


def _face_counts(s: SpongeComplex) -> tuple[int, ...]:
    return tuple(len(s.cells_of_dim(d)) for d in range(s.n - 1))


class TestLocalModel:
    def test_counts_n4(self):
        assert _face_counts(local_model_sponge(4)) == (1, 4, 6)

    def test_counts_n3(self):
        assert _face_counts(local_model_sponge(3)) == (1, 3)

    def test_counts_n2(self):
        assert _face_counts(local_model_sponge(2)) == (1,)

    def test_small_n_rejected(self):
        with pytest.raises(DegenerateInputError):
            local_model_sponge(1)

    def test_containment_is_subset_order(self):
        # the faces are the subsets of {1..n} of size at most n-2, and a
        # face's boundary is the faces one element smaller
        s = local_model_sponge(4)
        atoms = {c.id: frozenset() if c.id == "o" else frozenset(map(int, c.id[1:].split("."))) for c in s.cells}
        faces = set(atoms.values())
        assert frozenset() in faces and frozenset({1, 2}) in faces
        assert frozenset({1, 2, 3}) not in faces and len(faces) == len(atoms)
        for cid, face in atoms.items():
            assert len(face) == s.by_id[cid].dim
            assert {atoms[b] for b in string_incidence(s)[0][cid]} == {face - {x} for x in face}

    def test_sponge_realization_validates(self):
        for n in (2, 3, 4, 5):
            assert validate_sponge(local_model_sponge(n)).ok


class TestValidate:
    def test_octahedron_with_squares_passes(self):
        assert validate_sponge(octahedron_sponge(squares=True)).ok

    def test_octahedron_alone_fails_on_edges(self):
        rep = validate_sponge(octahedron_sponge(squares=False))
        assert not rep.ok
        details = [e.detail for e in rep.failures()]
        assert any("lies in 2 cells of dim 2, expected 3" in d for d in details)

    def test_k33_is_three_regular_sponge(self):
        assert validate_sponge(k33_sponge()).ok

    def test_bad_coefficient_reported(self):
        s = SpongeComplex(
            n=3,
            cells=(Cell("a", 0), Cell("b", 0), Cell("e", 1)),
            incidence={"e": (("a", 2), ("b", -1))},
        )
        rep = validate_sponge(s)
        assert any("coefficient 2" in e.detail for e in rep.failures())


    def test_dimension_other_than_n_minus_2_fails_cell_dims_once(self):
        # every cell dimension lies in 0..n-2, but the complex is a graph;
        # the counts C(n-i, d-i) are not checked against it
        k33 = k33_sponge()
        rep = validate_sponge(SpongeComplex(50, k33.cells, k33.incidence))
        assert [(e.check, e.detail) for e in rep.failures()] == [
            ("cell-dims", "complex has dimension 1, expected 48")
        ]
        assert [e.status for e in rep.entries if e.check == "upper-counts"] == ["pass"]


class TestHomology:
    def test_k33_betti(self):
        h = homology(k33_sponge())
        assert h.betti == (1, 4)
        vertices = list("abcdef")
        edges = [(a, b) for a in "abc" for b in "def"]
        assert graph_betti(vertices, edges) == (1, 4)

    def test_octahedron_with_squares(self):
        h = homology(octahedron_sponge(squares=True))
        assert h.betti == (1, 0, 4)
        assert all(t == () for t in h.torsion)

    def test_point(self):
        s = SpongeComplex(n=2, cells=(Cell("p", 0),), incidence={})
        assert homology(s).betti == (1,)

    def test_invalid_incidence_raises(self):
        s = SpongeComplex(
            n=4,
            cells=(Cell("v", 0), Cell("e1", 1), Cell("e2", 1), Cell("f", 2)),
            incidence={"e1": (("v", -1),), "e2": (("v", -1),), "f": (("e1", 1), ("e2", 1))},
        )
        with pytest.raises(ValidationError):
            homology(s)

    @pytest.mark.parametrize("n, dim", [(50, 1), (3, 10**8), (3, -1)])
    def test_cell_dimensions_outside_the_sponge_raise(self, n, dim):
        k33 = k33_sponge()
        cells = k33.cells[:-1] + (Cell(k33.cells[-1].id, dim),)
        with pytest.raises(ValidationError, match="^cell dimensions do not fit n: "):
            homology(SpongeComplex(n, cells, k33.incidence))

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_simplex_skeleta_against_simplicial_oracle(self, m):
        # (k)-skeleton of the boundary of an m-simplex, realized as cells
        k = m - 2
        cells = []
        covers = {}
        for size in range(1, k + 2):
            for sub in combinations(range(m + 1), size):
                cid = "s" + ".".join(map(str, sub))
                cells.append((cid, size - 1))
                if size > 1:
                    covers[cid] = sorted(
                        "s" + ".".join(map(str, sub[:t] + sub[t + 1 :])) for t in range(size)
                    )
        inc = signed_incidence(cells, covers)
        s = SpongeComplex(
            n=k + 2, cells=tuple(Cell(c, d) for c, d in sorted(cells)), incidence=inc
        )
        simplices = list(combinations(range(m + 1), k + 1))
        assert homology(s).betti == simplicial_betti(simplices)


class TestFaceStar:
    def test_local_model_origin(self):
        s = local_model_sponge(4)
        assert face_star(s, "o") is True
        assert len(s.upper_set("o")) == 11

    def test_octahedron_all_cells_local(self):
        s = octahedron_sponge(squares=True)
        for c in s.cells:
            assert face_star(s, c.id), c.id

    def test_overcrowded_edge_not_local(self):
        cells = [("v1", 0), ("v2", 0)] + [(e, 1) for e in "eabcd"] + [
            (f"f{i}", 2) for i in range(1, 5)
        ]
        covers = {e: ["v1", "v2"] for e in "eabcd"}
        covers.update({"f1": ["a", "e"], "f2": ["b", "e"], "f3": ["c", "e"], "f4": ["d", "e"]})
        inc = signed_incidence(cells, covers)
        s = SpongeComplex(
            n=4, cells=tuple(Cell(c, d) for c, d in sorted(cells)), incidence=inc
        )
        assert face_star(s, "e") is False

    def test_unknown_cell(self):
        with pytest.raises(InputFormatError):
            face_star(k33_sponge(), "nope")

    @pytest.mark.parametrize("case", ["five-edges-five-wedges", "doubled-wedge"])
    def test_miscounted_vertex_star_not_local(self, case):
        assert face_star(STAR_SPONGES[case](), "v") is False


# int() truncated these or parsed strings: dim 1.9 was 1, sign 1.5 was 1, "1" was 1,
# and an n or a Cell dim of 3.0 made validate_sponge raise a bare TypeError
NON_INTEGERS = {
    "cell-dim-float": (
        lambda: SpongeComplex(3, [("a", 0), ("b", 0), ("e", 1.9)], {"e": [("a", 1), ("b", -1)]}),
        "dim of cell 'e' is 1.9",
    ),
    "cell-dim-string": (
        lambda: SpongeComplex(3, [("a", 0), ("b", 0), ("e", "1")], {"e": [("a", 1), ("b", -1)]}),
        "dim of cell 'e' is '1'",
    ),
    "incidence-sign-float": (
        lambda: SpongeComplex(3, [("a", 0), ("b", 0), ("e", 1)], {"e": [("a", 1.5), ("b", -1)]}),
        "incidence sign e->a is 1.5",
    ),
    "sponge-n-float": (lambda: SpongeComplex(3.0, [("a", 0)], {}), "sponge n is 3.0"),
    "cell-object-dim-float": (lambda: SpongeComplex(3, [Cell("a", 3.0)], {}), "dim of cell 'a' is 3.0"),
    "manifold-dim-float": (lambda: CellManifold(2, [("a", 0.7)], {}), "dim of cell 'a' is 0.7"),
    "manifold-n-float": (lambda: CellManifold(2.0, [("a", 0)], {}), "cell manifold n is 2.0"),
}


class TestNonIntegerFields:
    @pytest.mark.parametrize("case", sorted(NON_INTEGERS))
    def test_rejected_naming_the_entry(self, case):
        build, where = NON_INTEGERS[case]
        with pytest.raises(InputFormatError) as exc:
            build()
        assert str(exc.value) == f"{where}, not an integer"

    def test_integers_kept(self):
        s = SpongeComplex(3, [("a", 0), ("b", 0), ("e", 1)], {"e": [("a", 1), ("b", -1)]})
        assert s.by_id["e"].dim == 1 and s.incidence["e"] == (("a", 1), ("b", -1))
        assert homology(s).betti == (1, 0)
        assert CellManifold(2, [("a", 0)], {}).cells == (("a", 0),)


_LM3 = local_model_sponge(3)
_DIAGONAL = WeightSystem(3, (vec(1, 0), vec(0, 1), vec(-1, -1)))
NON_STRING_IDS = {
    "cell-id-none": (lambda: SpongeComplex(3, [(None, 0), (7, 0)], {}), "cell id is None"),
    "cell-id-int": (lambda: SpongeComplex(3, [("a", 0), (7, 0)], {}), "cell id is 7"),
    "cell-label-none": (lambda: SpongeComplex(3, [("a", 0, None)], {}), "label of cell 'a' is None"),
    "cell-object-id": (lambda: SpongeComplex(3, [Cell(("a",), 0)], {}), "cell id is ('a',)"),
    "incidence-key": (lambda: SpongeComplex(3, [("a", 0)], {1: [("a", 1)]}), "incidence key is 1"),
    "incidence-entry": (
        lambda: SpongeComplex(3, [("a", 0), ("e", 1)], {"e": [(0, 1)]}),
        "incidence['e'] entry is 0",
    ),
    "polytope-facet": (
        lambda: SimplePolytope(1, ("a", 2), (frozenset({"a"}), frozenset({2}))),
        "facets[1] is 2",
    ),
    "polytope-vertex": (
        lambda: SimplePolytope(1, ("a", "b"), (frozenset({"a"}), frozenset({None}))),
        "vertices[1] entry is None",
    ),
    "lambda-key": (lambda: CharacteristicFunction({1: (1, 0)}), "lambda key is 1"),
    "manifold-cell": (lambda: CellManifold(2, [(1, 0)], {}), "cell id is 1"),
    "manifold-covers-key": (lambda: CellManifold(2, [("a", 0)], {None: ["a"]}), "covers key is None"),
    "manifold-covers-entry": (
        lambda: CellManifold(2, [("a", 0), ("e", 1)], {"e": ["a", 2.5]}),
        "covers['e'] entry is 2.5",
    ),
    "manifold-lambda-key": (
        lambda: cell_manifold_data(torus_three_hexagons(), {0: (1, 0, 0)}),
        "lambda key is 0",
    ),
    "mu-key": (lambda: CharacteristicData(_LM3, {1: (1, 0)}, {}), "mu key is 1"),
    "euler-sign-key": (lambda: CharacteristicData(_LM3, {}, {None: 1}), "Euler sign key is None"),
    "chart-ray": (lambda: Chart(_DIAGONAL, (1, None, 2.5)), "chart ray 0 is 1"),
}


class TestNonStringIds:
    @pytest.mark.parametrize("case", sorted(NON_STRING_IDS))
    def test_rejected_naming_the_entry(self, case):
        # str() renamed these: None became "None" and 7 became "7"
        build, where = NON_STRING_IDS[case]
        with pytest.raises(InputFormatError) as exc:
            build()
        assert str(exc.value) == f"{where}, not a string"

    def test_strings_kept(self):
        s = SpongeComplex(3, [("None", 0), ("7", 0, "x")], {})
        assert [(c.id, c.label) for c in s.cells] == [("None", ""), ("7", "x")]
        p = SimplePolytope(1, ("1", "2"), (frozenset({"1"}), frozenset({"2"})))
        assert p.facets == ("1", "2")
        assert Chart(_DIAGONAL, ("c1", "c2", "c3")).rays == ("c1", "c2", "c3")


def _vertex_star(rays: int, wedges: list[tuple[int, int]]) -> SpongeComplex:
    """An n=4 vertex v with rays e<i> and one 2-cell on each listed pair of rays."""
    cells = [("v", 0)] + [(f"e{i}", 1) for i in range(rays)]
    covers = {f"e{i}": ["v"] for i in range(rays)}
    for j, (a, b) in enumerate(wedges):
        cells.append((f"w{j}", 2))
        covers[f"w{j}"] = [f"e{a}", f"e{b}"]
    return SpongeComplex.from_covers(4, cells, covers)


def _search_local(s: SpongeComplex, cell_id: str) -> bool:
    """The backtracking reference's is_local; a star member that is not a cell fails the star."""
    try:
        return face_star_search(s, cell_id)[3]
    except KeyError:
        return False


def _assert_star_matches_search(s: SpongeComplex) -> None:
    """face_star agrees with the backtracking reference's is_local on every cell."""
    for c in s.cells:
        assert face_star(s, c.id) is _search_local(s, c.id), c.id


def _prism() -> SimplePolytope:
    sides = (("s1", "s2"), ("s2", "s3"), ("s1", "s3"))
    vertices = tuple(frozenset((cap, *pair)) for cap in "tb" for pair in sides)
    return SimplePolytope(3, ("t", "b", "s1", "s2", "s3"), vertices)


STAR_SPONGES = {
    **{name: (lambda name=name: load(name).data.sponge) for name in names()},
    **{f"local-model-sponge-{n}": (lambda n=n: local_model_sponge(n)) for n in range(3, 8)},
    "octahedron-without-squares": lambda: octahedron_sponge(squares=False),
    "simplex-3": lambda: polytope_sponge(simplex_polytope()),
    "prism-3": lambda: polytope_sponge(_prism()),
    **{f"cube-{n}": (lambda n=n: polytope_sponge(_cube(n))) for n in (3, 4, 5)},
    # 11 cells like the local vertex star, but 1, 5, 5 of them by dimension, not 1, 4, 6
    "five-edges-five-wedges": lambda: _vertex_star(5, [(i, (i + 1) % 5) for i in range(5)]),
    # counts 1, 4, 6, but the wedge on e2, e3 is a second wedge on e0, e1
    "doubled-wedge": lambda: _vertex_star(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (0, 1)]),
}

MUTATIONS = (
    "drop-cell",
    "drop-entry",
    "add-entry",
    "add-lower-entry",
    "add-same-dim-entry",
    "add-higher-entry",
    "duplicate-top-cell",
    "ghost-key",
    "redirect-entry",
)


def _mutated(s: SpongeComplex, kind: str, rng: random.Random) -> SpongeComplex:
    """A copy of s with one seeded defect of the given kind.

    The add-*entry kinds list one more cell in a boundary: one dimension
    lower than the key (add-entry), two lower, the same or one higher, or
    the key itself when no cell of that dimension exists.
    """
    cells = list(s.cells)
    inc = {k: list(v) for k, v in s.incidence.items()}
    bounded = sorted(k for k, v in inc.items() if v)
    if kind == "drop-cell":  # its own boundary goes, references to it stay
        gone = cells.pop(rng.randrange(len(cells)))
        inc.pop(gone.id, None)
    elif kind == "drop-entry":
        key = rng.choice(bounded)
        inc[key].pop(rng.randrange(len(inc[key])))
    elif kind == "duplicate-top-cell":
        top = rng.choice(s.cells_of_dim(s.dim))
        cells.append(Cell(top.id + "'", top.dim))
        if top.id in inc:
            inc[top.id + "'"] = list(inc[top.id])
    elif kind == "ghost-key":
        inc["ghost"] = [(rng.choice(cells).id, 1)]
    elif kind == "redirect-entry":  # counts stay, two cells may end up with equal boundaries
        key = rng.choice(bounded)
        j = rng.randrange(len(inc[key]))
        sub, sign = inc[key][j]
        pool = [c.id for c in s.cells_of_dim(s.by_id[sub].dim) if c.id != sub]
        inc[key][j] = (rng.choice(pool or [sub]), sign)
    else:
        key = rng.choice(bounded)
        offset = {"add-entry": -1, "add-lower-entry": -2, "add-same-dim-entry": 0}.get(kind, 1)
        pool = [c.id for c in s.cells_of_dim(s.by_id[key].dim + offset) if c.id != key] or [key]
        inc[key].append((rng.choice(pool), rng.choice((1, -1))))
    return SpongeComplex(s.n, tuple(cells), inc)


class TestFaceStarAgreesWithSearch:
    @pytest.mark.parametrize("case", sorted(STAR_SPONGES))
    def test_every_cell(self, case):
        _assert_star_matches_search(STAR_SPONGES[case]())

    def test_mutated_complexes(self):
        rng = random.Random(6)
        bases = [load(name).data.sponge for name in ("g42", "f3", "cp3-reduction")]
        bases += [local_model_sponge(4), local_model_sponge(5), polytope_sponge(_cube(3))]
        bases += [octahedron_sponge(squares=False), polytope_sponge(_prism())]
        for _, base, kind in product(range(2), bases, MUTATIONS):
            _assert_star_matches_search(_mutated(base, kind, rng))


class TestPropagateSigns:
    def test_components_seeds_and_first_conflict(self):
        # a-b-c is an odd cycle of relations; d-e is seeded at d; f is isolated
        relations = [("a", "b", -1), ("b", "c", 1), ("c", "a", 1), ("d", "e", -1)]
        got = propagate_signs(["a", "b", "c", "d", "e", "f"], relations, {"d": -1})
        assert got == [
            ({"a": 1, "b": -1, "c": 1}, "b"),
            ({"d": -1, "e": 1}, None),
            ({"f": 1}, None),
        ]

    @settings(max_examples=300, deadline=None)
    @given(
        nodes=st.lists(st.sampled_from("abcdefgh"), unique=True),
        relations=st.lists(
            st.tuples(st.sampled_from("abcdefghxy"), st.sampled_from("abcdefghxy"), st.sampled_from((1, -1))),
            max_size=14,
        ),
        seeds=st.dictionaries(st.sampled_from("abcdefgh"), st.sampled_from((1, -1))),
    )
    def test_walk_then_signs_is_the_one_pass(self, nodes, relations, seeds):
        # the same signs in the same key order and the same first conflict,
        # on graphs with parallel edges, loops and nodes missing from nodes
        got = propagate_signs(nodes, iter(relations), seeds)
        want = propagate_signs_in_one_pass(nodes, relations, seeds)
        assert [(list(signs.items()), conflict) for signs, conflict in got] == [
            (list(signs.items()), conflict) for signs, conflict in want
        ]


class TestSignedIncidence:
    def test_edge_signs(self):
        inc = signed_incidence([("u", 0), ("v", 0), ("e", 1)], {"e": ["u", "v"]})
        assert inc["e"] == (("v", 1), ("u", -1))

    def test_one_endpoint_ray(self):
        inc = signed_incidence([("o", 0), ("r", 1)], {"r": ["o"]})
        assert inc["r"] == (("o", -1),)

    def test_polygon_two_cell(self):
        cells = [("a", 0), ("b", 0), ("c", 0), ("ab", 1), ("bc", 1), ("ca", 1), ("f", 2)]
        covers = {
            "ab": ["a", "b"],
            "bc": ["b", "c"],
            "ca": ["c", "a"],
            "f": ["ab", "bc", "ca"],
        }
        inc = signed_incidence(cells, covers)
        acc = {}
        for eid, sign in inc["f"]:
            for v, s2 in inc[eid]:
                acc[v] = acc.get(v, 0) + sign * s2
        assert all(v == 0 for v in acc.values())

    def test_non_regular_rejected(self):
        # two-cell whose boundary is a theta graph: cycle space rank two
        cells = [("a", 0), ("b", 0), ("e1", 1), ("e2", 1), ("e3", 1), ("f", 2)]
        covers = {
            "e1": ["a", "b"],
            "e2": ["a", "b"],
            "e3": ["a", "b"],
            "f": ["e1", "e2", "e3"],
        }
        with pytest.raises(ConsistencyError, match="0-cell 'a' lies in 3 boundary cells of 'f'"):
            signed_incidence(cells, covers)

    def test_doubled_cover_rejected(self):
        with pytest.raises(ConsistencyError, match="covers of 'f' list 'r' twice"):
            signed_incidence([("o", 0), ("r", 1), ("f", 2)], {"r": ["o"], "f": ["r", "r"]})

    @pytest.mark.parametrize(
        "case, message",
        [
            ("empty-boundary", "boundary of 'top' has cycle space of rank 0, expected 1"),
            ("two-spheres", "boundary of 'top' has cycle space of rank 2, expected 1"),
            ("projective-plane", "boundary of 'top' has cycle space of rank 0, expected 1"),
            ("sphere-and-projective-plane", "boundary of 'top' is not a +-1 fundamental cycle"),
        ],
    )
    def test_pseudomanifold_errors_match_kernel(self, case, message):
        cells, covers = _bad_boundaries()[case]
        for construct in (signed_incidence, signed_incidence_by_kernel):
            with pytest.raises(ConsistencyError) as err:
                construct(cells, covers)
            assert str(err.value) == message


def _cells_and_covers(s: SpongeComplex):
    return [(c.id, c.dim) for c in s.cells], {k: [x for x, _ in v] for k, v in s.incidence.items()}


def _simplex_boundary(n: int, tag: str = "s"):
    """(cells, covers) of the boundary of the n-simplex, an (n-1)-sphere."""
    cells, covers = [], {}
    for size in range(1, n + 1):
        for sub in combinations(range(n + 1), size):
            cid = tag + "".join(map(str, sub))
            cells.append((cid, size - 1))
            if size > 1:
                covers[cid] = [tag + "".join(map(str, f)) for f in combinations(sub, size - 1)]
    return cells, covers


def _simplex_boundary_skeleton(n: int) -> SpongeComplex:
    cells, covers = _simplex_boundary(n)
    return CellManifold(n, tuple(cells), covers).skeleton_sponge()


def _hemicube():
    """(cells, covers) of the cube modulo the antipodal map: a projective plane."""
    def cls(cube_cell):  # a cube cell (a set of vertices) up to the antipodal map
        neg = frozenset(tuple(-x for x in v) for v in cube_cell)
        return "p" + str(min(sorted(cube_cell), sorted(neg)))

    verts = list(product((1, -1), repeat=3))
    faces = [frozenset(v for v in verts if v[i] == s) for i in range(3) for s in (1, -1)]
    edges = [frozenset(e) for e in combinations(verts, 2) if sum(map(int.__ne__, *e)) == 1]
    cells = {(cls({v}), 0) for v in verts} | {(cls(e), 1) for e in edges}
    cells |= {(cls(f), 2) for f in faces}
    covers = {cls(e): sorted(cls({v}) for v in e) for e in edges}
    covers.update({cls(f): sorted(cls(e) for e in edges if e <= f) for f in faces})
    return sorted(cells), covers


def _bad_boundaries():
    """Posets whose top cell has a pseudomanifold boundary that is no +-1 cycle."""
    out = {"empty-boundary": ([("top", 2)], {})}
    sphere_a, covers_a = _simplex_boundary(3, "a")
    sphere_b, covers_b = _simplex_boundary(3, "b")
    plane, covers_p = _hemicube()
    for case, parts in {
        "two-spheres": [(sphere_a, covers_a), (sphere_b, covers_b)],
        "projective-plane": [(plane, covers_p)],
        "sphere-and-projective-plane": [(sphere_a, covers_a), (plane, covers_p)],
    }.items():
        cells = [c for part, _ in parts for c in part] + [("top", 3)]
        covers = {k: v for _, part in parts for k, v in part.items()}
        covers["top"] = [c for c, d in cells if d == 2]
        out[case] = (cells, covers)
    return out


def _is_pseudomanifold_poset(cells, covers) -> bool:
    """Every (d-2)-cell below a d-cell, d >= 2, lies in exactly two of its boundary cells."""
    for cid, d in cells:
        if d >= 2:
            counts = Counter(x for b in set(covers.get(cid, ())) for x in set(covers.get(b, ())))
            if any(k != 2 for k in counts.values()):
                return False
    return True


def _assert_incidence_matches_kernel(cells, covers) -> None:
    """Equal incidence or equal error text on pseudomanifold boundaries, else both raise."""
    results = []
    for construct in (signed_incidence_by_kernel, signed_incidence):
        try:
            results.append(construct(cells, covers))
        except ConsistencyError as exc:
            results.append(f"ConsistencyError: {exc}")
    want, got = results
    if _is_pseudomanifold_poset(cells, covers):
        assert got == want
    else:
        assert isinstance(want, str) and isinstance(got, str), (want, got)


# complexes whose incidence signed_incidence chose, CellManifold skeletons included;
# their (cells, covers) are the pseudomanifold cases and the bases of the mutations
ORIENTED_COMPLEXES = {
    **{f"catalog-{name}": (lambda name=name: load(name).data.sponge) for name in names()},
    **{f"cube-{n}": (lambda n=n: polytope_sponge(_cube(n))) for n in (3, 4, 5)},
    "prism-3": lambda: polytope_sponge(_prism()),
    **{f"local-model-sponge-{n}": (lambda n=n: local_model_sponge(n)) for n in (4, 5)},
    "torus-skeleton": lambda: torus_three_hexagons().skeleton_sponge(),
    **{
        f"simplex-boundary-{n}-skeleton": (lambda n=n: _simplex_boundary_skeleton(n))
        for n in (3, 4, 5)
    },
}
MUTATION_BASES = sorted(set(ORIENTED_COMPLEXES) - {"cube-4", "cube-5"})


@cache
def _oriented_case(name: str):
    """(cells, covers) read back from one of ORIENTED_COMPLEXES."""
    return _cells_and_covers(ORIENTED_COMPLEXES[name]())


@st.composite
def mutated_covers(draw):
    """A base poset with one defect: a cover dropped or swapped between two cells, a
    disjoint copy of a cell's boundary added to it, or one boundary cell doubled (theta)."""
    cells, covers = _oriented_case(draw(st.sampled_from(MUTATION_BASES)))
    cells, covers = list(cells), {k: list(v) for k, v in covers.items()}
    dims = dict(cells)
    bounded = sorted(k for k, v in covers.items() if v)
    kind = draw(st.sampled_from(("drop", "swap", "copy", "theta")))
    key = draw(st.sampled_from(bounded))
    if kind == "drop":
        covers[key].pop(draw(st.integers(0, len(covers[key]) - 1)))
    elif kind == "swap":
        pairs = [
            (a, b) for a, b in combinations(bounded, 2)
            if dims[a] == dims[b] and set(covers[a]) - set(covers[b]) and set(covers[b]) - set(covers[a])
        ]
        a, b = draw(st.sampled_from(pairs))
        x = draw(st.sampled_from(sorted(set(covers[a]) - set(covers[b]))))
        y = draw(st.sampled_from(sorted(set(covers[b]) - set(covers[a]))))
        covers[a] = [y if c == x else c for c in covers[a]]
        covers[b] = [x if c == y else c for c in covers[b]]
    elif kind == "copy":
        closure, frontier = set(), list(covers[key])
        while frontier:
            c = frontier.pop()
            if c not in closure:
                closure.add(c)
                frontier += covers.get(c, [])
        cells += [("copy:" + c, dims[c]) for c in sorted(closure)]
        covers.update({"copy:" + c: ["copy:" + x for x in covers[c]] for c in closure if c in covers})
        covers[key] = covers[key] + ["copy:" + b for b in covers[key]]
    else:
        b = draw(st.sampled_from(covers[key]))
        cells.append(("theta:" + b, dims[b]))
        covers["theta:" + b] = list(covers.get(b, []))
        covers[key] = covers[key] + ["theta:" + b]
    return cells, covers


class TestSignedIncidenceAgreesWithKernel:
    @pytest.mark.parametrize("case", sorted(ORIENTED_COMPLEXES))
    def test_oriented_complexes(self, case):
        cells, covers = _oriented_case(case)
        assert _is_pseudomanifold_poset(cells, covers)
        _assert_incidence_matches_kernel(cells, covers)

    @settings(max_examples=150, deadline=None)
    @given(case=mutated_covers())
    def test_mutated_covers(self, case):
        _assert_incidence_matches_kernel(*case)


def _cube(n: int) -> SimplePolytope:
    facets = tuple(f"{axis}{side}" for axis in range(n) for side in "mp")
    vertices = tuple(
        frozenset(f"{axis}{side}" for axis, side in enumerate(sides))
        for sides in product("mp", repeat=n)
    )
    return SimplePolytope(n, facets, vertices)


INDEXED_SPONGES = {
    **{name: (lambda name=name: load(name).data.sponge) for name in names()},
    "simplex-3": lambda: polytope_sponge(simplex_polytope()),
    "cube-3": lambda: polytope_sponge(_cube(3)),
    "cube-4": lambda: polytope_sponge(_cube(4)),
    **{f"local-model-sponge-{n}": (lambda n=n: local_model_sponge(n)) for n in range(3, 7)},
}


def _index_on_ids(s: SpongeComplex) -> tuple[dict, dict]:
    """The index's boundaries ({subcell id: sign}, the last listing winning) and cofaces of the cells, on ids."""
    index = s._index
    cells = range(len(s.cells))
    boundary = {index.ids[i]: {index.ids[j]: sign for j, sign in index.bnd[i]} for i in cells}
    cofaces = {index.ids[i]: tuple(sorted(index.ids[j] for j in index.cof[i])) for i in cells}
    return boundary, cofaces


def _assert_indices_match_oracle(s: SpongeComplex) -> None:
    want = incidence_indices([(c.id, c.dim) for c in s.cells], s.incidence, s.n)
    for d in range(-1, s.dim + 2):
        got = s.cells_of_dim(d)
        assert [c.id for c in got] == want["by_dim"].get(d, [])
        assert all(c is s.by_id[c.id] for c in got)
    boundary, cofaces = _index_on_ids(s)
    assert boundary == want["boundary"]
    assert cofaces == want["cofaces"]
    for c in s.cells:
        assert s.upper_set(c.id) == want["upper"][c.id]
        assert s.upper_set(c.id) is s.upper_set(c.id)  # computed once
        if c.id in want["facets"]:
            assert s.facets_containing(c.id) == want["facets"][c.id]
        else:
            with pytest.raises(KeyError):  # an upper-set id that is not a cell
                s.facets_containing(c.id)


class TestIncidenceIndices:
    @pytest.mark.parametrize("case", sorted(INDEXED_SPONGES))
    def test_indices_match_brute_force(self, case):
        _assert_indices_match_oracle(INDEXED_SPONGES[case]())

    def test_malformed_incidence(self):
        # e and f list each other, e names a missing cell, and ghost/g2 are
        # incidence keys that are not cells
        s = SpongeComplex(
            n=3,
            cells=(Cell("p", 0), Cell("q", 0), Cell("e", 1), Cell("f", 1)),
            incidence={
                "e": (("p", 1), ("f", 1), ("zz", -1)),
                "f": (("e", 1),),
                "ghost": (("q", 1),),
                "g2": (("ghost", 1),),
            },
        )
        _assert_indices_match_oracle(s)
        assert s.upper_set("p") == {"p", "e", "f"}
        assert s.upper_set("q") == {"q", "ghost"}
        assert s.facets_containing("e") == ("e", "f")
        with pytest.raises(KeyError):
            s.facets_containing("q")
        for unknown in ("zz", "ghost", "nope"):
            with pytest.raises(InputFormatError):
                s.upper_set(unknown)
            with pytest.raises(InputFormatError):
                s.facets_containing(unknown)


@cache
def _reduced_cube_sponge(n: int) -> SpongeComplex:
    """The sponge of the n-cube reduced with its coloring lambda and first strict subtorus."""
    p = _cube(n)
    lam = coloring_pullback(p, {f: int(f[:-1]) + 1 for f in p.facets})
    return reduce(p, lam, find_strict_subtorus(p, lam)[0]).sponge


@st.composite
def _chain_complexes(draw):
    """A chain complex in dimensions 0..top under randomly ordered cell ids.

    The first boundary is random; each later one has columns that are integer
    combinations of the kernel basis of the one before, so that d(d) = 0 and
    coefficients other than +-1 leave torsion.
    """
    top = draw(st.integers(1, 3))
    counts = [draw(st.integers(1, 6)) for _ in range(top + 1)]
    order = draw(st.permutations(range(sum(counts))))
    ids, start = [], 0
    for m in counts:
        ids.append([f"c{k:02d}" for k in order[start : start + m]])
        start += m
    entry = st.integers(-2, 2)
    boundary = [[[draw(entry) for _ in range(counts[1])] for _ in range(counts[0])]]
    for d in range(2, top + 1):
        basis = integer_kernel(IntMatrix.from_rows(boundary[-1]))
        combos = [[draw(st.integers(-3, 3)) for _ in basis] for _ in range(counts[d])]
        columns = [[sum(c * b[i] for c, b in zip(combo, basis)) for i in range(counts[d - 1])] for combo in combos]
        boundary.append([list(row) for row in zip(*columns)])
    cells = [Cell(x, d) for d, layer in enumerate(ids) for x in layer]
    incidence = {
        x: tuple((ids[d - 1][i], rows[i][j]) for i in range(counts[d - 1]) if rows[i][j])
        for d, rows in enumerate(boundary, start=1)
        for j, x in enumerate(ids[d])
    }
    return SpongeComplex(top + 2, cells, incidence)


# the catalog, polytope boundaries and other CellManifold skeletons, then more
HOMOLOGY_CASES = {
    **ORIENTED_COMPLEXES,
    **{f"local-model-sponge-{n}": (lambda n=n: local_model_sponge(n)) for n in range(3, 9)},
    **{f"reduced-cube-{n}": (lambda n=n: _reduced_cube_sponge(n)) for n in range(3, 7)},
    "hemicube": lambda: SpongeComplex.from_covers(4, *_hemicube()),
}


class TestUnitPivotHomology:
    @pytest.mark.parametrize("case", sorted(HOMOLOGY_CASES))
    def test_matches_dense_smith_forms(self, case):
        s = HOMOLOGY_CASES[case]()
        assert homology(s) == homology_by_smith(s)

    def test_projective_plane_torsion_comes_through_a_residual(self, monkeypatch):
        import complexity_one.sponge as sponge

        residuals = []

        def counted(a):
            residuals.append(a.entries)
            return smith_normal_form(a)

        monkeypatch.setattr(sponge, "smith_normal_form", counted)
        h = homology(SpongeComplex.from_covers(4, *_hemicube()))
        assert h.betti == (1, 0, 0)
        assert h.torsion == ((), (2,), ())
        # one boundary matrix leaves a residual, and it has no unit entry
        assert len(residuals) == 1 and not {1, -1} & set(residuals[0])

    def test_catalog_sponges_leave_no_residual(self, monkeypatch):
        import complexity_one.sponge as sponge

        def refuse(a):
            raise AssertionError(f"residual of shape {a.rows}x{a.cols}")

        monkeypatch.setattr(sponge, "smith_normal_form", refuse)
        for name in names():
            homology(load(name).data.sponge)

    # up to 5 x 5, of small or wide entries, singular and of full rank
    @given(st.integers(0, 5).flatmap(lambda m: st.integers(0, 5).flatmap(lambda n: _shaped(m, n))))
    @settings(max_examples=300, deadline=None)
    def test_rank_and_torsion_match_smith_form(self, a):
        columns = [{i: a.entry(i, j) for i in range(a.rows)} for j in range(a.cols)]
        dec = smith_normal_form(a)
        assert _rank_and_torsion(columns)[:2] == (dec.rank, dec.torsion())

    # homology drops the rows that the last boundary pivoted, so whole chain
    # complexes are checked, with torsion, against a Smith form of every full
    # boundary matrix
    @given(_chain_complexes())
    @settings(max_examples=200, deadline=None)
    def test_random_chain_complexes_match_smith_forms(self, s):
        assert homology(s) == homology_by_smith(s)


# valid sponges: local models, reduced cubes, and the catalog and CellManifold
# skeletons among the oriented complexes
STAR_CASES = {
    **{f"local-model-sponge-{n}": (lambda n=n: local_model_sponge(n)) for n in range(2, 9)},
    **{f"reduced-cube-{n}": (lambda n=n: _reduced_cube_sponge(n)) for n in range(3, 6)},
    **ORIENTED_COMPLEXES,
}


def _face_stars_entry(s: SpongeComplex) -> CheckResult:
    """catalog.verify's face-stars entry for s, with a unit mu and sign +1 on every facet."""
    mu = {f: (1,) + (0,) * (s.n - 2) for f in s.facet_ids}
    cd = CharacteristicData(s, mu, {f: 1 for f in s.facet_ids})
    report = verify(CatalogEntry("s", cd))
    return next(e for e in report.entries if e.check == "face-stars")


def _stars_local(s: SpongeComplex, cells) -> bool:
    return all(face_star(s, c.id) for c in cells)


def _assert_facet_index_filters_upper_sets(s: SpongeComplex) -> None:
    for c in s.cells:
        up = s.upper_set(c.id)
        if all(x in s.by_id for x in up):
            want = tuple(sorted(x for x in up if s.by_id[x].dim == s.n - 2))
            assert s.facets_containing(c.id) == want
        else:
            with pytest.raises(KeyError):
                s.facets_containing(c.id)


@st.composite
def mutated_sponges(draw):
    """A valid sponge with one boundary entry dropped, one repointed to another cell of
    its dimension, one cell deleted, or one cell without a boundary added."""
    s = STAR_CASES[draw(st.sampled_from(MUTATION_BASES + ["reduced-cube-3", "local-model-sponge-3"]))]()
    cells, incidence = list(s.cells), {k: list(v) for k, v in s.incidence.items()}
    kind = draw(st.sampled_from(("drop", "repoint", "delete", "orphan")))
    if kind == "orphan":
        # its star fails unless it is a facet, while every 0-cell's star is unchanged
        cells.append(Cell("orphan", draw(st.integers(1, s.n - 2))))
    elif kind == "delete":
        gone = draw(st.sampled_from(cells))
        cells.remove(gone)
        incidence.pop(gone.id, None)
    else:
        key = draw(st.sampled_from(sorted(incidence)))
        t = draw(st.integers(0, len(incidence[key]) - 1))
        if kind == "drop":
            incidence[key].pop(t)
        else:
            sub, sign = incidence[key][t]
            listed = {x for x, _ in incidence[key]}
            others = [c.id for c in s.cells_of_dim(s.by_id[sub].dim) if c.id not in listed]
            assume(others)
            incidence[key][t] = (draw(st.sampled_from(others)), sign)
    return SpongeComplex(s.n, tuple(cells), incidence)


class TestStarsAtFixedPoints:
    """catalog.verify reads the face stars of a valid sponge at its 0-cells only."""

    @pytest.mark.parametrize("case", sorted(STAR_CASES))
    def test_valid_sponges_decide_stars_at_the_fixed_points(self, case):
        s = STAR_CASES[case]()
        assert validate_sponge(s).ok and upper_counts_by_cells(s) == []
        everywhere = _stars_local(s, s.cells)
        assert _stars_local(s, s.cells_of_dim(0)) == everywhere == s.stars_local
        assert _face_stars_entry(s) == CheckResult.of("face-stars", everywhere)
        _assert_facet_index_filters_upper_sets(s)

    @settings(max_examples=80, deadline=None)
    @given(s=mutated_sponges())
    def test_mutated_sponges(self, s):
        everywhere = _stars_local(s, s.cells)
        if validate_sponge(s).ok:
            assert _stars_local(s, s.cells_of_dim(0)) == everywhere
        # an invalid sponge is scanned at every cell
        assert _face_stars_entry(s) == CheckResult.of("face-stars", everywhere)
        _assert_facet_index_filters_upper_sets(s)
        _assert_indices_match_oracle(s)

    def test_invalid_sponge_is_scanned_at_every_cell(self):
        # a 1-cell without a boundary leaves every 0-cell's star local
        s = load("g42").data.sponge
        s = SpongeComplex(s.n, s.cells + (Cell("orphan", 1),), s.incidence)
        assert not validate_sponge(s).ok
        assert _stars_local(s, s.cells_of_dim(0))
        assert _face_stars_entry(s) == CheckResult("face-stars", "fail")

    def test_one_star_test_per_fixed_point(self, monkeypatch):
        # validate_sponge, validate_mu and the face-stars entry read one
        # cached bit, which tests each 0-cell's star once and no other star
        import complexity_one.catalog as catalog

        def refuse(s, cell_id):
            raise AssertionError("face_star runs on a valid sponge")

        tested = []
        star_local_at = SpongeComplex._star_local_at
        monkeypatch.setattr(catalog, "face_star", refuse)
        monkeypatch.setattr(SpongeComplex, "_star_local_at", lambda s, x: tested.append(x) or star_local_at(s, x))
        for name in ("g42", "f3", "cp3-reduction", "local-model-7"):
            entry = load(name)
            tested.clear()
            assert verify(entry).ok
            assert tested == [c.id for c in entry.data.sponge.cells_of_dim(0)], name
            # each star is searched up the index's cofaces: no upper set is built
            assert "_upper_sets" not in vars(entry.data.sponge), name


# small complexes of n = 2 to 5, whose covers the strategy below changes
COVER_BASES = [f"local-model-sponge-{n}" for n in (2, 3, 4, 5)] + ["reduced-cube-3"] + [
    name for name in MUTATION_BASES if not name.startswith("local-model-sponge")
]


@st.composite
def covers_changed(draw):
    """A complex of COVER_BASES with one or two covers dropped, added or listed twice (in
    place of another or besides it), a cell capped by a new cell one dimension up, or a
    new 0-cell."""
    s = STAR_CASES[draw(st.sampled_from(COVER_BASES))]()
    cells, incidence = list(s.cells), {k: list(v) for k, v in s.incidence.items()}
    for step in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(("drop", "add", "twice", "repeat", "cap", "point")))
        keys = sorted(k for k, v in incidence.items() if v)
        uppers = [c for c in cells if c.dim >= 1 and c.id in incidence]
        if kind == "drop" and keys:
            key = draw(st.sampled_from(keys))
            incidence[key].pop(draw(st.integers(0, len(incidence[key]) - 1)))
        elif kind in ("twice", "repeat") and keys:
            key = draw(st.sampled_from(keys))
            entry = draw(st.sampled_from(incidence[key]))
            if kind == "twice":
                incidence[key].append(entry)
            else:
                incidence[key][draw(st.integers(0, len(incidence[key]) - 1))] = entry
        elif kind == "add" and uppers:
            upper = draw(st.sampled_from(uppers))
            listed = {x for x, _ in incidence[upper.id]}
            lower = [c.id for c in cells if c.dim == upper.dim - 1 and c.id not in listed]
            if lower:
                incidence[upper.id].append((draw(st.sampled_from(lower)), draw(st.sampled_from((1, -1)))))
        elif kind == "point":
            cells.append(Cell(f"point{step}", 0))
        else:
            below = draw(st.sampled_from(cells))
            cells.append(Cell(f"cap{step}", below.dim + 1))
            incidence[f"cap{step}"] = [(below.id, 1)]
    return SpongeComplex(s.n, tuple(cells), incidence)


def _two_dim_complexes():
    """Complexes with n = 2: points, and points under a 1-cell, which no sponge with n = 2 has."""
    yield SpongeComplex(2, (), {})
    yield local_model_sponge(2)
    yield SpongeComplex(2, (Cell("a", 0), Cell("b", 0)), {})
    yield SpongeComplex(2, (Cell("a", 0), Cell("e", 1)), {"e": (("a", -1),)})
    yield SpongeComplex(2, (Cell("a", 0), Cell("b", 0), Cell("e", 1)), {"e": (("b", 1), ("a", -1))})


class TestChecksAtTheFixedPoints:
    """stars_local is the reference star test at every 0-cell, face_star is it at every cell, and
    upper-counts reads the bit as the per-cell loop would."""

    @settings(max_examples=200, deadline=None)
    @given(s=st.one_of(mutated_sponges(), covers_changed()))
    def test_star_bit_is_face_star_at_the_fixed_points(self, s):
        assert s.stars_local is all(_search_local(s, v.id) for v in s.cells_of_dim(0))

    @settings(max_examples=200, deadline=None)
    @given(s=st.one_of(mutated_sponges(), covers_changed()))
    def test_face_star_is_the_search_at_every_cell(self, s):
        _assert_star_matches_search(s)

    @settings(max_examples=200, deadline=None)
    @given(s=st.one_of(mutated_sponges(), covers_changed()))
    def test_upper_counts_match_the_loop_over_every_cell(self, s):
        report = validate_sponge(s)
        k = next(i for i, e in enumerate(report.entries) if e.check == "upper-counts")
        structured = all(e.status == "pass" for e in report.entries[:k] if e.check != "boundary-squared")
        want = upper_counts_by_cells(s) if structured else []
        assert report.entries[k:] == CheckResult.from_violations("upper-counts", want)

    @pytest.mark.parametrize("s", list(_two_dim_complexes()), ids=["empty", "point", "two-points", "edge", "segment"])
    def test_two_dim_complexes(self, s):
        assert s.stars_local is all(_search_local(s, v.id) for v in s.cells_of_dim(0))
        _assert_star_matches_search(s)
        assert validate_sponge(s).entries[-1:] == (CheckResult("upper-counts", "pass"),)

    @pytest.mark.parametrize(
        "listed, local",
        [
            # a cover listed twice besides the others is one cover to face_star
            ((("c1.2", 1), ("c1.3", -1), ("c2.3", 1), ("c1.2", 1)), True),
            # listed twice in place of another, the three entries are two covers,
            # though their atoms still join to three
            ((("c1.2", 1), ("c1.3", -1), ("c1.2", 1)), False),
        ],
    )
    def test_a_cover_listed_twice_counts_once(self, listed, local):
        s = local_model_sponge(5)
        s = SpongeComplex(s.n, s.cells, {**s.incidence, "c1.2.3": listed})
        assert _search_local(s, "o") is local
        assert face_star(s, "o") is local
        assert s.stars_local is local


@st.composite
def incidence_broken(draw):
    """A complex of COVER_BASES with one defect that validation reports: one of _mutated's kinds,
    a boundary entry naming no cell, a coefficient other than +-1, a 0-cell with a boundary, or a
    cycle (a cell listed in the boundary of one of its faces)."""
    s = STAR_CASES[draw(st.sampled_from(COVER_BASES))]()
    cells, incidence = list(s.cells), {k: list(v) for k, v in s.incidence.items()}
    keys = sorted(k for k, v in incidence.items() if v)
    assume(keys)
    kind = draw(st.sampled_from(MUTATIONS + ("unknown-entry", "coefficient", "point-boundary", "cycle")))
    if kind in MUTATIONS:
        return _mutated(s, kind, random.Random(draw(st.integers(0, 2**16))))
    key = draw(st.sampled_from(keys))
    if kind == "unknown-entry":
        incidence[key].append(("nowhere", 1))
    elif kind == "coefficient":
        t = draw(st.integers(0, len(incidence[key]) - 1))
        incidence[key][t] = (incidence[key][t][0], draw(st.sampled_from((0, 2, -3))))
    elif kind == "point-boundary":
        point = draw(st.sampled_from(s.cells_of_dim(0)))
        incidence[point.id] = [(draw(st.sampled_from(cells)).id, 1)]
    else:
        sub = draw(st.sampled_from([x for x, _ in incidence[key]]))
        incidence[sub] = incidence.get(sub, []) + [(key, 1)]
    return SpongeComplex(s.n, tuple(cells), incidence)


MANIFOLD_CASES = {
    "torus": torus_three_hexagons,
    "simplex-3": lambda: simplex_polytope().boundary,
    "prism-3": lambda: _prism().boundary,
    "cube-3": lambda: _cube(3).boundary,
    "cube-4": lambda: _cube(4).boundary,
}


@st.composite
def manifolds_changed(draw):
    """A cell manifold under a renaming of its ids, with up to two defects: a cover naming no cell,
    a cover listed twice, a cell of another dimension, a cycle (a cell covering itself or a cell
    above it), a cover dropped, or a covers key that is no cell but is listed by a top cell."""
    m = MANIFOLD_CASES[draw(st.sampled_from(sorted(MANIFOLD_CASES)))]()
    ids = [c for c, _ in m.cells]
    rename = dict(zip(ids, draw(st.permutations(ids))))
    cells = [(rename[c], d) for c, d in m.cells]
    covers = {rename[c]: [rename[x] for x in below] for c, below in m.covers.items()}
    for step in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("unknown", "twice", "dim", "cycle", "drop", "ghost-key")))
        key = draw(st.sampled_from(sorted(k for k, v in covers.items() if v)))
        if kind == "unknown":
            covers[key].append(f"zz{step}")
        elif kind == "twice":
            covers[key].append(draw(st.sampled_from(covers[key])))
        elif kind == "dim":
            t = draw(st.integers(0, len(cells) - 1))
            cells[t] = (cells[t][0], draw(st.integers(-1, m.n)))
        elif kind == "cycle":
            sub = draw(st.sampled_from(covers[key] + [key]))
            covers[sub] = covers.get(sub, []) + [key]
        elif kind == "drop":
            covers[key].pop(draw(st.integers(0, len(covers[key]) - 1)))
        else:
            covers[f"ghost{step}"] = [draw(st.sampled_from(cells))[0]]
            covers[key].append(f"ghost{step}")
    return CellManifold(m.n, tuple(cells), covers)


INDEX_CASES = st.one_of(mutated_sponges(), covers_changed(), incidence_broken())


class TestDenseIndex:
    """The int index, its facet masks and the top-cell masks equal the former string-keyed walks
    (tests/oracles.py), exceptions included, on malformed input too."""

    @settings(max_examples=200, deadline=None)
    @given(s=INDEX_CASES)
    def test_facets_containing_filters_the_upper_sets(self, s):
        want = facets_by_upper_sets(s)
        for cid in [c.id for c in s.cells] + ["nowhere", "ghost"]:
            if cid not in s.by_id:
                with pytest.raises(InputFormatError, match=f"^unknown cell id {cid!r}$"):
                    s.facets_containing(cid)
            elif cid in want:
                assert s.facets_containing(cid) == want[cid], cid
            else:
                with pytest.raises(KeyError):  # an upper-set id that is not a cell
                    s.facets_containing(cid)
        assert {c.id: s.upper_set(c.id) for c in s.cells} == upper_sets_by_search(s)

    @settings(max_examples=200, deadline=None)
    @given(s=INDEX_CASES)
    def test_stars_are_the_search(self, s):
        assert s.stars_local is all(_search_local(s, v.id) for v in s.cells_of_dim(0))
        _assert_star_matches_search(s)
        with pytest.raises(InputFormatError, match="^unknown cell id 'nowhere'$"):
            face_star(s, "nowhere")

    @settings(max_examples=200, deadline=None)
    @given(s=INDEX_CASES)
    def test_validation_report_is_the_walks(self, s):
        report = validate_sponge(s)
        assert report == validation_report_by_walks(s)
        # the index builds exactly where incidence-structure passes
        structure_fails = CheckResult("incidence-structure", "pass") not in report.entries
        assert (not s._index.structured) is structure_fails

    def test_boundary_squared_names_in_id_order(self):
        # "nowhere" is no cell, so its int comes after every cell's, while its
        # name sorts before the cell o: a d(d(x)) text lists names in id order
        s = local_model_sponge(4)
        broken = SpongeComplex(s.n, s.cells, {**s.incidence, "c1": (("o", 1), ("nowhere", 1))})
        assert broken._index.pos["nowhere"] > broken._index.pos["o"]
        report = validate_sponge(broken)
        assert report == validation_report_by_walks(broken)
        squared = [e.detail for e in report.failures() if e.check == "boundary-squared"]
        assert squared and all(detail.endswith(" != 0 at ['nowhere', 'o']") for detail in squared)

    @pytest.mark.parametrize("case", sorted(STAR_CASES))
    def test_valid_complexes(self, case):
        s = STAR_CASES[case]()
        assert s._index.structured and s._index.ids == tuple(sorted(s.by_id))
        want = facets_by_upper_sets(s)
        assert {c.id: s.facets_containing(c.id) for c in s.cells} == want
        assert validate_sponge(s) == validation_report_by_walks(s)
        cofaces = string_incidence(s)[1]
        assert s._index.cof == [[s._index.pos[x] for x in cofaces[cid]] for cid in s._index.ids]

    @settings(max_examples=200, deadline=None)
    @given(m=manifolds_changed())
    def test_top_cells_containing_is_the_closure(self, m):
        want = top_cells_by_closure(m)
        named = {c for c, _ in m.cells} | set(m.covers) | {x for below in m.covers.values() for x in below}
        for cid in sorted(named) + ["nope"]:
            assert m.top_cells_containing(cid) == want.get(cid, ()), cid

    @pytest.mark.parametrize("name", names() + ["local-model-7"])
    def test_cells_of_dim_catalog(self, name):
        s = load(name).data.sponge
        assert s._cells_by_dim == cells_by_dim_per_dimension(s)

    @settings(max_examples=200, deadline=None)
    @given(s=INDEX_CASES)
    def test_cells_of_dim_is_the_scan_per_dimension(self, s):
        # one pass groups the id-sorted cells: the same tuples, in id order
        want = cells_by_dim_per_dimension(s)
        assert s._cells_by_dim == want
        assert all(s.cells_of_dim(d) == want.get(d, ()) for d in range(-2, s.n + 2))

    def test_a_cycle_above_a_top_cell(self):
        # t covers e, e covers v and e lists t back: the fixed point, not one pass
        m = CellManifold(2, (("t", 1), ("e", 0), ("v", 0)), {"t": ["e"], "e": ["v", "t"], "v": ["e"]})
        assert [m.top_cells_containing(c) for c in ("t", "e", "v", "nope")] == [("t",), ("t",), ("t",), ()]
        assert top_cells_by_closure(m) == {"t": ("t",), "e": ("t",), "v": ("t",)}


def _counting_upper_sets(monkeypatch) -> list:
    """Record each SpongeComplex whose _upper_sets is built from now on."""
    from functools import cached_property

    built = []
    search = vars(SpongeComplex)["_upper_sets"].func
    probe = cached_property(lambda s: built.append(s) or search(s))
    probe.__set_name__(SpongeComplex, "_upper_sets")
    monkeypatch.setattr(SpongeComplex, "_upper_sets", probe)
    return built


class TestNoUpperSetsOnTheValidPath:
    """Valid data's checks, compare and CLI reduce read the index and never search an upper set."""

    def test_checks_and_compare(self, monkeypatch):
        from complexity_one.chardata import _checks
        from complexity_one.classify import compare
        from complexity_one.io import chardata_from_dict, chardata_to_dict

        built = _counting_upper_sets(monkeypatch)
        for name in ("g42", "f3", "cp3-reduction", "local-model-5"):
            cd = chardata_from_dict(chardata_to_dict(load(name).data))
            assert all(report.ok for _, report in _checks(cd)), name
            other = chardata_from_dict(chardata_to_dict(load(name).data))
            assert compare(cd, other).equivalent, name
        assert built == []
        # the probe sees a malformed complex's upper sets
        s = load("g42").data.sponge
        broken = SpongeComplex(s.n, s.cells, {**s.incidence, "ghost": (("nowhere", 1),)})
        assert not validate_sponge(broken).ok and face_star(broken, s.facet_ids[0]) and built == [broken]

    def test_cli_reduce(self, tmp_path, monkeypatch, capsys):
        from complexity_one import cli
        from complexity_one.io import canonical_json, lambda_to_dict, polytope_to_dict

        p = _cube(4)
        lam = coloring_pullback(p, {f: int(f[:-1]) + 1 for f in p.facets})
        (tmp_path / "p.json").write_text(canonical_json(polytope_to_dict(p)))
        (tmp_path / "l.json").write_text(canonical_json(lambda_to_dict(lam)))
        built = _counting_upper_sets(monkeypatch)
        argv = ["reduce", "--polytope", str(tmp_path / "p.json"), "--lambda", str(tmp_path / "l.json")]
        assert cli.main(argv + ["-o", str(tmp_path / "out.json")]) == 0
        capsys.readouterr()
        assert built == []

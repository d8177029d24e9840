import random
import sys
from collections import Counter
from itertools import combinations, product

import pytest

from complexity_one.chardata import (
    assemble_euler_cycle,
    cocycle_check,
    compatibility_check,
    validate_mu,
)
from complexity_one.errors import (
    ColoringError,
    DegenerateInputError,
    PreconditionError,
    StarConditionError,
    ValidationError,
)
from complexity_one.lattice import IntMatrix, IntVector, vec
from complexity_one.quasitoric import (
    CellManifold,
    CharacteristicFunction,
    SimplePolytope,
    SubtorusChoice,
    cell_manifold_data,
    coloring_pullback,
    find_strict_subtorus,
    induced_mu,
    polytope_sponge,
    reduce,
    validate_star,
    vertex_weights,
)
from complexity_one.sponge import validate_sponge
from complexity_one.weights import induced_weights, is_strictly_appropriate


class TestSimplePolytope:
    def test_simplex_faces(self, simplex3):
        assert len(simplex3.faces_of_codim(2)) == 6
        assert len(simplex3.faces_of_codim(3)) == 4

    def test_bad_vertex_size_rejected(self):
        with pytest.raises(ValidationError):
            SimplePolytope(3, ("a", "b", "c"), (frozenset({"a", "b"}),))

    def test_dangling_facet_rejected(self):
        with pytest.raises(ValidationError):
            SimplePolytope(
                2, ("a", "b", "c"), (frozenset({"a", "b"}),)
            )

    def test_open_edge_rejected(self):
        # one vertex only: its edges have no second endpoint
        with pytest.raises(ValidationError):
            SimplePolytope(2, ("a", "b"), (frozenset({"a", "b"}),))


class TestValidateStar:
    def test_simplex_standard(self, simplex3, simplex3_lambda):
        assert validate_star(simplex3, simplex3_lambda).ok

    def test_square_with_repeats(self):
        sq = SimplePolytope(
            2,
            ("a", "b", "c", "d"),
            tuple(frozenset(v) for v in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]),
        )
        lam = CharacteristicFunction({"a": vec(1, 0), "b": vec(0, 1), "c": vec(1, 0), "d": vec(0, 1)})
        assert validate_star(sq, lam).ok

    def test_determinant_two_fails(self):
        sq = SimplePolytope(
            2,
            ("a", "b", "c", "d"),
            tuple(frozenset(v) for v in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]),
        )
        lam = CharacteristicFunction({"a": vec(1, 0), "b": vec(0, 1), "c": vec(2, 1), "d": vec(0, 1)})
        rep = validate_star(sq, lam)
        assert not rep.ok
        assert any("determinant" in e.detail for e in rep.failures())


class TestVertexWeights:
    def test_identity_dual(self, simplex3, simplex3_lambda):
        ws = vertex_weights(simplex3, simplex3_lambda, ("f1", "f2", "f3"))
        assert [list(w) for w in ws] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_dual_pairing_identity(self, simplex3, simplex3_lambda):
        for v in simplex3.vertices:
            ws = vertex_weights(simplex3, simplex3_lambda, v)
            lams = [simplex3_lambda[f] for f in sorted(v)]
            for i, w in enumerate(ws):
                for j, l in enumerate(lams):
                    assert w.dot(l) == (1 if i == j else 0)

    def test_upper_triangular(self):
        tri = SimplePolytope(
            2,
            ("a", "b", "c"),
            tuple(frozenset(v) for v in [("a", "b"), ("b", "c"), ("c", "a")]),
        )
        lam = CharacteristicFunction({"a": vec(1, 2), "b": vec(0, 1), "c": vec(1, 1)})
        ws = vertex_weights(tri, lam, ("a", "b"))
        mat = IntMatrix.from_rows([list(lam["a"]), list(lam["b"])])
        for i, w in enumerate(ws):
            assert (mat @ w) == IntVector(tuple(1 if t == i else 0 for t in range(2)))

    def test_star_violation_raises(self):
        sq = SimplePolytope(
            2,
            ("a", "b", "c", "d"),
            tuple(frozenset(v) for v in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]),
        )
        lam = CharacteristicFunction({"a": vec(2, 1), "b": vec(0, 1), "c": vec(1, 0), "d": vec(1, 2)})
        with pytest.raises(StarConditionError):
            vertex_weights(sq, lam, ("a", "b"))


class TestFindStrictSubtorus:
    def test_simplex_finds_known_character(self, simplex3, simplex3_lambda):
        found = find_strict_subtorus(simplex3, simplex3_lambda, 1)
        assert [1, 1, -1] in [list(s.alpha) for s in found]
        for s in found:
            assert all(abs(s.pairing(simplex3_lambda[f])) == 1 for f in simplex3.facets)

    def test_coloring_pullback_character(self, cube3):
        lam = coloring_pullback(cube3, {"xm": 1, "xp": 1, "ym": 2, "yp": 2, "zm": 3, "zp": 3})
        found = find_strict_subtorus(cube3, lam, 1)
        alphas = [list(s.alpha) for s in found]
        assert [1, 1, 1] in alphas and [1, 1, -1] in alphas

    def test_incompatible_pair_yields_empty(self):
        sq = SimplePolytope(
            2,
            ("a", "b", "c", "d"),
            tuple(frozenset(v) for v in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]),
        )
        # adjacent pairs force pairings that cannot all be +-1 within bound 0
        lam = CharacteristicFunction({"a": vec(1, 0), "b": vec(0, 1), "c": vec(1, 0), "d": vec(0, 1)})
        assert find_strict_subtorus(sq, lam, 0) == []

    def test_parity_obstruction_reports_none(self):
        # pairings a, b, a+b cannot all be odd: empty result at any bound
        tri = SimplePolytope(
            2,
            ("a", "b", "c"),
            tuple(frozenset(v) for v in [("a", "b"), ("b", "c"), ("c", "a")]),
        )
        lam = CharacteristicFunction({"a": vec(1, 0), "b": vec(0, 1), "c": vec(1, 1)})
        assert validate_star(tri, lam).ok
        assert find_strict_subtorus(tri, lam, 4) == []

    def test_induced_systems_strict_at_every_vertex(self, simplex3, simplex3_lambda):
        for st in find_strict_subtorus(simplex3, simplex3_lambda, 2):
            for v in simplex3.vertices:
                ws = induced_weights([simplex3_lambda[f] for f in sorted(v)], st)
                assert is_strictly_appropriate(ws)


class TestInducedMu:
    def setup_method(self):
        self.st = SubtorusChoice(vec(1, 1, -1))

    def test_worked_example_e1_e2(self):
        assert list(induced_mu(vec(1, 0, 0), vec(0, 1, 0), self.st)) == [1, -1]

    def test_worked_example_e1_e3(self):
        assert list(induced_mu(vec(1, 0, 0), vec(0, 0, 1), self.st)) == [1, 0]

    def test_opposite_pairings_give_sum(self):
        # pairings (1, -1): combination lam1 + lam2, primitive by the basis condition
        out = induced_mu(vec(1, 0, 0), vec(0, 0, 1), self.st)
        assert out.is_primitive()

    def test_swap_symmetry_up_to_sign(self):
        a = induced_mu(vec(1, 0, 0), vec(0, 1, 0), self.st)
        b = induced_mu(vec(0, 1, 0), vec(1, 0, 0), self.st)
        assert a == b or a == -b

    def test_double_degeneracy_rejected(self):
        st = SubtorusChoice(vec(0, 0, 1))
        with pytest.raises(DegenerateInputError):
            induced_mu(vec(1, 0, 0), vec(0, 1, 0), st)

    def test_unimodular_covariance(self):
        # lambda -> g lambda with alpha -> (g^-1)^T alpha preserves pairings,
        # so the ambient intersection vector transforms by g; the outputs
        # must present the same circle through the two complement bases.
        rng = random.Random(21)
        from complexity_one.lattice import inverse_unimodular
        from conftest import random_unimodular

        for _ in range(40):
            g = random_unimodular(rng, 3)
            lam1, lam2 = vec(1, 0, 0), vec(0, 1, 0)
            base = induced_mu(lam1, lam2, self.st)
            ginv_t = inverse_unimodular(g).transpose()
            st2 = SubtorusChoice(ginv_t @ self.st.alpha)
            moved = induced_mu(g @ lam1, g @ lam2, st2)
            amb_base = self.st.complement.transpose() @ base
            amb_moved = st2.complement.transpose() @ moved
            image = g @ amb_base
            assert amb_moved == image or amb_moved == -image


class TestReduce:
    def test_simplex_pipeline(self, simplex3, simplex3_lambda):
        cd = reduce(simplex3, simplex3_lambda, SubtorusChoice(vec(1, 1, -1)))
        assert validate_sponge(cd.sponge).ok
        assert validate_mu(cd).ok
        assert compatibility_check(cd)
        assert cocycle_check(cd).ok
        assert assemble_euler_cycle(cd).is_cycle
        assert cd.ambient.kind == "sphere"
        assert len(cd.sponge.cells_of_dim(1)) == 6
        assert len(cd.sponge.cells_of_dim(0)) == 4

    def test_square_degenerate_dimension(self):
        sq = SimplePolytope(
            2,
            ("a", "b", "c", "d"),
            tuple(frozenset(v) for v in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]),
        )
        lam = CharacteristicFunction({"a": vec(1, 0), "b": vec(0, 1), "c": vec(1, 0), "d": vec(0, 1)})
        cd = reduce(sq, lam, SubtorusChoice(vec(1, 1)))
        assert len(cd.sponge.cells) == 4
        assert all(v.dim == 1 and abs(v[0]) == 1 for v in cd.mu.values())
        assert validate_mu(cd).ok and cocycle_check(cd).ok

    def test_non_strict_subtorus_rejected(self, simplex3, simplex3_lambda):
        with pytest.raises(PreconditionError):
            reduce(simplex3, simplex3_lambda, SubtorusChoice(vec(1, 1, 2)))

    def test_four_dimensional_reduction(self):
        from itertools import product as iproduct

        facets = tuple(f"{ax}{s}" for ax in "wxyz" for s in "mp")
        verts = tuple(
            frozenset({f"{ax}{s}" for ax, s in zip("wxyz", signs)})
            for signs in iproduct("mp", repeat=4)
        )
        cube4 = SimplePolytope(4, facets, verts)
        lam = coloring_pullback(
            cube4, {f"{ax}{s}": c for c, ax in enumerate("wxyz", start=1) for s in "mp"}
        )
        st = SubtorusChoice(vec(1, 1, 1, -1))
        cd = reduce(cube4, lam, st)
        counts = [len(cd.sponge.cells_of_dim(d)) for d in range(3)]
        assert counts == [16, 32, 24]
        assert validate_mu(cd).ok
        assert cocycle_check(cd).ok
        assert assemble_euler_cycle(cd).is_cycle

    def test_closure_over_polytope_family(self, simplex3, simplex3_lambda, cube3, prism3, prism3_lambda):
        cube_lam = coloring_pullback(
            cube3, {"xm": 1, "xp": 1, "ym": 2, "yp": 2, "zm": 3, "zp": 3}
        )
        cases = [
            (simplex3, simplex3_lambda),
            (cube3, cube_lam),
            (prism3, prism3_lambda),
        ]
        for p, lam in cases:
            for st in find_strict_subtorus(p, lam, 1):
                cd = reduce(p, lam, st)
                assert validate_mu(cd).ok
                assert compatibility_check(cd)
                assert cocycle_check(cd).ok
                assert assemble_euler_cycle(cd).is_cycle


    def test_reduce_computes_local_data_once(self, monkeypatch):
        # each vertex chart takes its Cramer minors once and one basis check,
        # and every chart reads the one subtorus frame
        from complexity_one import lattice, weights

        facets = tuple(f"{ax}{s}" for ax in "wxyz" for s in "mp")
        verts = tuple(
            frozenset({f"{ax}{s}" for ax, s in zip("wxyz", signs)})
            for signs in product("mp", repeat=4)
        )
        cube4 = SimplePolytope(4, facets, verts)
        lam = coloring_pullback(
            cube4, {f"{ax}{s}": c for c, ax in enumerate("wxyz", start=1) for s in "mp"}
        )
        calls = Counter()

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(weights, "determinant", counted(lattice.determinant))
        monkeypatch.setattr(weights, "signed_maximal_minors", counted(lattice.signed_maximal_minors))
        original = lattice.kernel_complement
        for mod in list(sys.modules.values()):
            in_package = getattr(mod, "__name__", "").partition(".")[0] == "complexity_one"
            if in_package and getattr(mod, "kernel_complement", None) is original:
                monkeypatch.setattr(mod, "kernel_complement", counted(original))
        cd = reduce(cube4, lam, SubtorusChoice(vec(1, 1, 1, -1)))
        assert validate_mu(cd).ok
        assert calls["signed_maximal_minors"] <= len(verts)
        assert calls["determinant"] <= len(verts)
        assert calls["kernel_complement"] == 1


class TestColoring:
    def test_cube_three_coloring(self, cube3):
        lam = coloring_pullback(cube3, {"xm": 1, "xp": 1, "ym": 2, "yp": 2, "zm": 3, "zp": 3})
        assert validate_star(cube3, lam).ok

    def test_simplex_has_no_proper_coloring(self, simplex3):
        # four pairwise adjacent facets, three colors
        with pytest.raises(ColoringError):
            coloring_pullback(simplex3, {"f1": 1, "f2": 2, "f3": 3, "f4": 1})

    def test_prism_squares_block_three_coloring(self, prism3):
        # the three squares are pairwise adjacent and each touches both
        # triangles, so three colors cannot be proper
        for colors in [
            {"t": 3, "b": 3, "s1": 1, "s2": 2, "s3": 3},
            {"t": 1, "b": 2, "s1": 1, "s2": 2, "s3": 3},
        ]:
            with pytest.raises(ColoringError):
                coloring_pullback(prism3, colors)

    def test_out_of_range_color(self, cube3):
        with pytest.raises(ColoringError):
            coloring_pullback(cube3, {"xm": 1, "xp": 1, "ym": 2, "yp": 2, "zm": 3, "zp": 4})


def torus_three_hexagons() -> CellManifold:
    def swap(word, i, j):
        table = {str(i): str(j), str(j): str(i)}
        return "".join(table.get(ch, ch) for ch in word)

    evens = ["123", "231", "312"]
    cells = [(f"w{w}", 0) for w in ("123", "132", "213", "231", "312", "321")]
    covers = {}
    color = {}
    for w in evens:
        for (i, j) in ((1, 2), (1, 3), (2, 3)):
            u = swap(w, i, j)
            a, b = sorted([w, u])
            eid = f"e{a}.{b}"
            if eid not in covers:
                cells.append((eid, 1))
                covers[eid] = [f"w{a}", f"w{b}"]
                color[eid] = (i, j)
    for pair in (((1, 2), (1, 3)), ((1, 2), (2, 3)), ((1, 3), (2, 3))):
        hid = "h" + "".join(f"{i}{j}" for i, j in pair)
        cells.append((hid, 2))
        covers[hid] = sorted(e for e, c in color.items() if c in pair)
    return CellManifold(3, tuple(cells), covers)


class TestCellManifold:
    def test_torus_subdivision_is_simple(self):
        assert torus_three_hexagons().validate_simple().ok

    def test_torus_data_valid(self):
        m = torus_three_hexagons()
        lam = {h: v for h, v in zip(sorted(t for t, d in m.cells if d == 2), [vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)])}
        cd = cell_manifold_data(m, lam)
        assert cd.ambient.kind == "product" and cd.ambient.boundary_trivial
        assert validate_mu(cd).ok
        assert cocycle_check(cd).ok
        ec = assemble_euler_cycle(cd)
        assert ec.is_cycle and ec.determines_class
        from complexity_one.sponge import homology

        assert homology(cd.sponge).betti == (1, 4)

    def _sphere_cells(self):
        cells = []
        covers = {}
        for v in (1, 2, 3, 4):
            cells.append((f"v{v}", 0))
        for a, b in combinations((1, 2, 3, 4), 2):
            cells.append((f"e{a}{b}", 1))
            covers[f"e{a}{b}"] = [f"v{a}", f"v{b}"]
        for a, b, c in combinations((1, 2, 3, 4), 3):
            cells.append((f"t{a}{b}{c}", 2))
            covers[f"t{a}{b}{c}"] = [f"e{a}{b}", f"e{a}{c}", f"e{b}{c}"]
        return cells, covers

    def test_simplex_boundary_counts(self):
        cells, covers = self._sphere_cells()
        assert CellManifold(3, tuple(cells), covers).validate_simple().ok
        rep = CellManifold(4, tuple(cells), covers).validate_simple()
        assert not rep.ok  # wrong ambient parameter: counts are off by one

    def test_simplex_boundary_data(self):
        cells, covers = self._sphere_cells()
        m = CellManifold(3, tuple(cells), covers)
        lam = {"t123": vec(1, 0, 0), "t124": vec(0, 1, 0), "t134": vec(0, 0, 1), "t234": vec(1, 1, 1)}
        cd = cell_manifold_data(m, lam, SubtorusChoice(vec(1, 1, -1)))
        assert validate_mu(cd).ok and cocycle_check(cd).ok
        assert assemble_euler_cycle(cd).is_cycle

    def test_non_simple_rejected(self):
        cells, covers = self._sphere_cells()
        m = CellManifold(4, tuple(cells), covers)
        with pytest.raises(ValidationError):
            cell_manifold_data(m, {})

    def test_top_cells_containing_matches_closure_scan(self):
        cells, covers = self._sphere_cells()
        covers["t123"] = covers["t123"] + ["zz"]  # a cover that is not a cell
        for m in (torus_three_hexagons(), CellManifold(3, tuple(cells), covers)):
            tops = sorted(c for c, d in m.cells if d == m.n - 1)
            for cell in [c for c, _ in m.cells] + ["zz", "nope"]:
                want = tuple(t for t in tops if cell in m.closure(t))
                assert m.top_cells_containing(cell) == want, cell

    def test_no_subtorus_within_bound(self):
        m = torus_three_hexagons()
        lam = {h: v for h, v in zip(sorted(t for t, d in m.cells if d == 2), [vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 2)])}
        with pytest.raises(Exception):
            cell_manifold_data(m, lam)


class TestPolytopeSponge:
    def test_simplex_skeleton_is_complete_graph(self, simplex3):
        s = polytope_sponge(simplex3)
        assert validate_sponge(s).ok
        assert len(s.cells_of_dim(0)) == 4 and len(s.cells_of_dim(1)) == 6

    def test_cube_skeleton(self, cube3):
        s = polytope_sponge(cube3)
        assert validate_sponge(s).ok
        assert len(s.cells_of_dim(0)) == 8 and len(s.cells_of_dim(1)) == 12

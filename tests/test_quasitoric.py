import hashlib
import math
import random
import sys
import time
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from complexity_one.catalog import simplex_lambda, simplex_polytope
from complexity_one.chardata import (
    cocycle_check,
    compatibility_check,
    validate_mu,
)
from complexity_one.cli import main
from complexity_one.errors import (
    ColoringError,
    DegenerateInputError,
    DimensionMismatchError,
    InputFormatError,
    PreconditionError,
    StarConditionError,
    ValidationError,
)
from complexity_one.lattice import IntMatrix, adjugate, vec
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
)
from complexity_one.io import canonical_json, chardata_to_dict, lambda_to_dict, polytope_to_dict
from complexity_one.sponge import validate_sponge
from complexity_one.weights import induced_weights, is_strictly_appropriate
from conftest import euler_cycle_verdicts, random_unimodular
from oracles import (
    color_clash_by_pairs,
    polytope_edge_error_by_scan,
    polytope_sponge_by_subsets,
    star_condition_by_smith,
    strict_subtori_by_box,
    top_cells_by_closure,
    validate_star_by_smith,
)


def _cube(n):
    """The n-cube with its coloring characteristic function (facet pair i -> e_i)."""
    facets = tuple(f"{s}{i}" for i in range(n) for s in "mp")
    verts = tuple(
        frozenset(f"{s}{i}" for i, s in enumerate(signs)) for signs in product("mp", repeat=n)
    )
    lam = {f"{s}{i}": vec(*(int(t == i) for t in range(n))) for i in range(n) for s in "mp"}
    return SimplePolytope(n, facets, verts), lam


def _prism():
    sides = ("s1", "s2", "s3")
    verts = tuple(frozenset((cap, a, b)) for cap in ("t", "b") for a, b in combinations(sides, 2))
    lam = {"t": vec(0, 0, 1), "b": vec(0, 0, 1), "s1": vec(1, 0, 0), "s2": vec(0, 1, 0), "s3": vec(1, 1, 1)}
    return SimplePolytope(3, ("t", "b") + sides, verts), lam


POLYTOPES = {
    "simplex": lambda: (simplex_polytope(), dict(simplex_lambda().values)),
    "prism": _prism,
    **{f"cube{n}": (lambda n=n: _cube(n)) for n in range(2, 6)},
}


def _varied(name, change, rng):
    """A catalog case with lambda as given, conjugated by a unimodular matrix, or one entry perturbed."""
    p, values = POLYTOPES[name]()
    return p, _vary(values, p.n, change, rng)


def _vary(values, n, change, rng):
    values = dict(values)
    if change == "conjugate":
        a = random_unimodular(rng, n)
        values = {f: a @ v for f, v in values.items()}
    elif change == "perturb":
        f = rng.choice(sorted(values))
        entries = list(values[f])
        entries[rng.randrange(n)] += rng.choice((-2, -1, 1, 2))
        assume(any(entries))
        g = math.gcd(*entries)
        values[f] = vec(*(x // g for x in entries))
    return values


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

    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(["simplex", "prism", "cube3", "cube4"]), data=st.data())
    def test_edge_errors_match_vertex_scans(self, name, data):
        # some vertices of the polytope and of a disjoint copy, in any order:
        # open or crowded edges and a disconnected graph are named as the
        # vertex-by-vertex scans name them
        p, _ = POLYTOPES[name]()
        pool = list(p.vertices) + [frozenset(f + "'" for f in v) for v in p.vertices]
        order = data.draw(st.permutations(pool))
        vertices = order[: data.draw(st.sampled_from([len(pool), len(pool) // 2, 1]) | st.integers(1, len(pool)))]
        facets = sorted(set().union(*vertices))
        want = polytope_edge_error_by_scan(p.n, vertices)
        if want is None:
            SimplePolytope(p.n, facets, vertices)
            return
        with pytest.raises(ValidationError) as got:
            SimplePolytope(p.n, facets, vertices)
        assert str(got.value) == want


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

    def test_face_without_a_basis_vertex_fails_extension(self, simplex3):
        # lambda(f1), lambda(f2) span an index-2 sublattice, so both vertices
        # of the edge {f1, f2} fail and the edge itself cannot extend
        lam = CharacteristicFunction(
            {"f1": vec(1, 0, 0), "f2": vec(1, 2, 0), "f3": vec(0, 0, 1), "f4": vec(-1, -1, -1)}
        )
        rep = validate_star(simplex3, lam)
        assert [(e.check, e.detail) for e in rep.failures()] == [
            ("vertex-determinant", "vertex ['f1', 'f2', 'f3']: determinant 2"),
            ("vertex-determinant", "vertex ['f1', 'f2', 'f4']: determinant -2"),
            ("face-extension", "face ['f1', 'f2']: values do not extend to a basis"),
        ]
        assert rep == validate_star_by_smith(simplex3, lam)

    def test_passing_vertices_read_no_face(self, monkeypatch):
        # the check reduce runs first: one determinant per vertex, no face enumerated
        import complexity_one.quasitoric as quasitoric

        p, values = _cube(5)
        dets, faces = [], []
        determinant = quasitoric.determinant
        monkeypatch.setattr(quasitoric, "determinant", lambda a: dets.append(a) or determinant(a))
        monkeypatch.setattr(SimplePolytope, "faces_of_codim", lambda self, k: faces.append(k) or ())
        assert validate_star(p, CharacteristicFunction(values)).ok
        assert (len(dets), faces) == (len(p.vertices), [])

    @pytest.mark.parametrize("name", sorted(POLYTOPES))
    def test_catalog_cases_match_every_face_oracle(self, name):
        p, values = POLYTOPES[name]()
        lam = CharacteristicFunction(values)
        assert validate_star(p, lam) == validate_star_by_smith(p, lam)

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(POLYTOPES)),
        change=st.sampled_from(["conjugate", "perturb"]),
        rng=st.randoms(use_true_random=False),
    )
    def test_varied_lambda_matches_every_face_oracle(self, name, change, rng):
        p, values = _varied(name, change, rng)
        lam = CharacteristicFunction(values)
        assert validate_star(p, lam) == validate_star_by_smith(p, lam)


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

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(POLYTOPES)),
        change=st.sampled_from(["none", "conjugate", "perturb"]),
        bound=st.integers(0, 3),
        rng=st.randoms(use_true_random=False),
    )
    def test_matches_box_search(self, name, change, bound, rng):
        p, values = _varied(name, change, rng)
        got = find_strict_subtorus(p, CharacteristicFunction(values), bound)
        want = strict_subtori_by_box([values[f] for f in sorted(p.facets)], p.n, bound)
        assert [s.alpha.entries for s in got] == want

    @pytest.mark.parametrize(
        "a, b, c",
        [((-2, 3), (-3, 1), (3, -1)), ((1, 0), (1, 2), (0, 1)), ((1, 0), (1, 3), (0, 1))],
    )
    def test_first_vertex_not_a_basis(self, a, b, c):
        # the values at vertex {a, b} have determinant 7, 2 or 3: only the
        # sign vectors whose solution is integral give candidates
        tri = SimplePolytope(
            2,
            ("a", "b", "c"),
            tuple(frozenset(v) for v in [("a", "b"), ("b", "c"), ("c", "a")]),
        )
        values = {"a": vec(*a), "b": vec(*b), "c": vec(*c)}
        got = find_strict_subtorus(tri, CharacteristicFunction(values), 3)
        assert [s.alpha.entries for s in got] == strict_subtori_by_box([values[f] for f in "abc"], 2, 3)

    @pytest.mark.parametrize("bound", range(4))
    def test_rank_deficient_values_search_the_box(self, cube3, bound):
        # values of rank < n fail the star condition at every vertex, so at any
        # bound find_strict_subtorus raises its error, as reduce does
        sq = SimplePolytope(
            2,
            ("a", "b", "c", "d"),
            tuple(frozenset(v) for v in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]),
        )
        planar = {"xm": vec(1, 0, 0), "xp": vec(1, 0, 0), "ym": vec(0, 1, 0), "yp": vec(0, 1, 0),
                  "zm": vec(1, 1, 0), "zp": vec(1, -1, 0)}
        for p, values in ((sq, {f: vec(1, 0) for f in "abcd"}), (cube3, planar)):
            lam = CharacteristicFunction(values)
            with pytest.raises(StarConditionError) as found:
                find_strict_subtorus(p, lam, bound)
            with pytest.raises(StarConditionError) as reduced:
                reduce(p, lam, SubtorusChoice(vec(*([1] * p.n))))
            assert str(found.value) == str(reduced.value)
            assert str(found.value).startswith("vertex [")
            assert "determinant 0" in str(found.value)

    def test_value_of_wrong_dimension_searches_the_box(self):
        # raised before any search, at any bound
        sq = SimplePolytope(
            2,
            ("a", "b", "c", "d"),
            tuple(frozenset(v) for v in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]),
        )
        lam = CharacteristicFunction({"a": vec(1, 0), "b": vec(0, 1), "c": vec(1, 0), "d": vec(0, 1, 0)})
        for bound in (0, 1):
            with pytest.raises(DimensionMismatchError, match=r"^vector dims 2 != 3$"):
                find_strict_subtorus(sq, lam, bound)

    def test_huge_bound_finds_the_same_alpha_fast(self, tmp_path, capsys):
        p, values = _cube(4)
        (tmp_path / "cube4.json").write_text(canonical_json(polytope_to_dict(p)))
        (tmp_path / "lam.json").write_text(canonical_json(lambda_to_dict(CharacteristicFunction(values))))
        args = ["reduce", "--polytope", str(tmp_path / "cube4.json"), "--lambda", str(tmp_path / "lam.json")]
        outputs = []
        for bound in ("3", "1000000"):
            t0 = time.monotonic()
            assert main(args + ["--alpha-bound", bound]) == 0
            dt = time.monotonic() - t0
            outputs.append([line for line in capsys.readouterr().out.splitlines() if "alpha=" in line])
        # the box of bound 10^6 has 2,000,001^4 points
        assert outputs[0] == outputs[1] == ["PASS subtorus: alpha=[1, -1, -1, -1]"]
        assert dt < 1.0

    def test_cell_manifold_takes_the_first_strict_subtorus(self):
        m = torus_three_hexagons()
        tops = sorted(t for t, d in m.cells if d == 2)
        lam = dict(zip(tops, [vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)]))
        first = strict_subtori_by_box([lam[t] for t in tops], 3, 3)[0]
        cd = cell_manifold_data(m, lam)
        want = cell_manifold_data(m, lam, SubtorusChoice(vec(*first)))
        assert cd.mu == want.mu and cd.euler_sign == want.euler_sign

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
        from complexity_one.lattice import adjugate
        from conftest import random_unimodular

        for _ in range(40):
            g = random_unimodular(rng, 3)
            lam1, lam2 = vec(1, 0, 0), vec(0, 1, 0)
            base = induced_mu(lam1, lam2, self.st)
            ginv_t = adjugate(g).inverse().transpose()
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
        assert euler_cycle_verdicts(cd) == (True, True)
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
        assert euler_cycle_verdicts(cd) == (True, True)

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
                assert euler_cycle_verdicts(cd) == (True, True)


    def test_reduce_computes_local_data_once(self, monkeypatch):
        # every elimination of the reduce is counted: per vertex one
        # determinant for the star condition, one adjugate for the induced
        # weights and one elimination for both the Cramer minors and the
        # adjugate behind all of the chart's stabilizer lines; then the
        # subtorus frame's adjugate and the two Hermite self-checks of its
        # one kernel
        from complexity_one import lattice

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

        monkeypatch.setattr(lattice, "_bareiss", counted(lattice._bareiss))
        original = lattice.kernel_complement
        for mod in list(sys.modules.values()):
            in_package = getattr(mod, "__name__", "").partition(".")[0] == "complexity_one"
            if in_package and getattr(mod, "kernel_complement", None) is original:
                monkeypatch.setattr(mod, "kernel_complement", counted(original))
        cd = reduce(cube4, lam, SubtorusChoice(vec(1, 1, 1, -1)))
        assert calls["_bareiss"] <= 3 * len(verts) + 3
        assert calls["kernel_complement"] == 1
        assert validate_mu(cd).ok

    def test_cli_reduce_of_cube5_eliminations(self, tmp_path, monkeypatch, capsys):
        # the benchmark's cube5 op with alpha given: 323 eliminations when
        # each vertex ran three for its charts, 32 fewer with one per weight system
        from complexity_one import lattice

        p, values = _cube(5)
        (tmp_path / "p.json").write_text(canonical_json(polytope_to_dict(p)))
        (tmp_path / "lam.json").write_text(canonical_json(lambda_to_dict(CharacteristicFunction(values))))
        calls = []
        bareiss = lattice._bareiss

        def counting(*args, **kwargs):
            calls.append(args[1])
            return bareiss(*args, **kwargs)

        monkeypatch.setattr(lattice, "_bareiss", counting)
        args = ["--format", "json", "reduce", "--polytope", str(tmp_path / "p.json")]
        args += ["--lambda", str(tmp_path / "lam.json"), "--alpha=1,-1,-1,-1,-1", "-o", str(tmp_path / "out.json")]
        assert main(args) == 0
        capsys.readouterr()
        assert len(calls) <= 291

    def test_cli_reduce_reads_the_three_term_faces_once(self, tmp_path, monkeypatch, capsys):
        # the Euler sign solve and the checks after it share one pass over the
        # codimension-one faces of the reduced datum; they made two
        from complexity_one import chardata

        p, values = _cube(4)
        (tmp_path / "p.json").write_text(canonical_json(polytope_to_dict(p)))
        (tmp_path / "lam.json").write_text(canonical_json(lambda_to_dict(CharacteristicFunction(values))))
        passes = []
        three_term_faces = chardata._three_term_faces

        def counting(*args):
            passes.append(args[1])
            return three_term_faces(*args)

        monkeypatch.setattr(chardata, "_three_term_faces", counting)
        args = ["reduce", "--polytope", str(tmp_path / "p.json"), "--lambda", str(tmp_path / "lam.json")]
        assert main([*args, "-o", str(tmp_path / "out.json")]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "PASS cocycle" in out and "PASS mu" in out
        assert len(passes) == 1

    @pytest.mark.parametrize(
        "case, digest",
        [
            ("cube3", "37510fd387a5a27af78366e2d8436d9557283a6e8ab460c3235ad025cf028f10"),
            ("cube4", "f123d8251e01efddc752c2d799a87557acbcdc76577ba54d38b86e11e979c9e6"),
            ("cube5", "08dfc9775eadf1f7a377cef6873a696b66eb3660a5b3759ee0870c58d2415d6f"),
            ("cube6", "d93dba5f8038b0b9ed4d9a3c7e12b05905c486cd7d9f9e2f776ffac3bbbf2f60"),
            ("cube7", "0430b1b524978718162643593edf267d07edb6a5639606dba13dfc7f7f7533f1"),
            ("cube4-conjugated", "836ed62bc99c027b6851697080e8a2c2834ce0d3c245f29760bb09dc32c27c47"),
        ],
    )
    def test_golden_bytes(self, case, digest):
        # the sha256 of the reduced cube's canonical JSON, coloring lambda and
        # the first alpha found; the conjugated case moves lambda by A and
        # alpha by A^-T, so every pairing is unchanged
        n = int(case[4])
        p, values = _cube(n)
        lam = coloring_pullback(p, {f: 1 + list(v).index(1) for f, v in values.items()})
        st = find_strict_subtorus(p, lam)[0]
        if case.endswith("conjugated"):
            a = IntMatrix.from_rows([[1, 1, 0, 0], [0, 1, 0, 0], [2, 1, 1, 0], [0, 0, -1, 1]])
            lam = CharacteristicFunction({f: a @ v for f, v in lam.values.items()})
            st = SubtorusChoice(adjugate(a).inverse().transpose() @ st.alpha)
            assert list(st.alpha) == [5, -4, -2, -1]
        cd = reduce(p, lam, st)
        assert hashlib.sha256(canonical_json(chardata_to_dict(cd)).encode()).hexdigest() == digest


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

    @pytest.mark.parametrize("color", ["1", 1.5, 1.0, None])
    def test_non_integer_color_rejected(self, cube3, color):
        # int() let "1" through to a bare TypeError and 1.5 to a misleading primitivity error
        colors = {"xm": color, "xp": 1, "ym": 2, "yp": 2, "zm": 3, "zp": 3}
        with pytest.raises(InputFormatError, match="color of xm"):
            coloring_pullback(cube3, colors)

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(POLYTOPES)), data=st.data())
    def test_first_clash_matches_facet_pair_scan(self, name, data):
        p, _ = POLYTOPES[name]()
        coloring = {f: data.draw(st.integers(1, p.n)) for f in p.facets}
        want = color_clash_by_pairs(p, coloring)
        if want is None:
            assert validate_star(p, coloring_pullback(p, coloring)).ok
            return
        with pytest.raises(ColoringError) as got:
            coloring_pullback(p, coloring)
        assert str(got.value) == want


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
        assert euler_cycle_verdicts(cd) == (True, True)
        assert cd.ambient.determines_class
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
        assert euler_cycle_verdicts(cd) == (True, True)

    def test_non_simple_rejected(self):
        cells, covers = self._sphere_cells()
        m = CellManifold(4, tuple(cells), covers)
        with pytest.raises(ValidationError):
            cell_manifold_data(m, {})

    @pytest.mark.parametrize("cell, cover", [("e12", "zz"), ("zz", "v1")])
    def test_covers_that_are_not_cells_rejected(self, cell, cover):
        cells, covers = self._sphere_cells()
        covers[cell] = covers.get(cell, []) + [cover]
        m = CellManifold(3, tuple(cells), covers)
        lam = {"t123": vec(1, 0, 0), "t124": vec(0, 1, 0), "t134": vec(0, 0, 1), "t234": vec(1, 1, 1)}
        with pytest.raises(InputFormatError, match=f"covers of '{cell}': 'zz' is not a cell id"):
            cell_manifold_data(m, lam, SubtorusChoice(vec(1, 1, -1)))

    def test_top_cells_containing_matches_closure_scan(self):
        cells, covers = self._sphere_cells()
        covers["t123"] = covers["t123"] + ["zz"]  # a cover that is not a cell
        for m in (torus_three_hexagons(), CellManifold(3, tuple(cells), covers)):
            want = top_cells_by_closure(m)
            for cell in [c for c, _ in m.cells] + ["zz", "nope"]:
                assert m.top_cells_containing(cell) == want.get(cell, ()), cell

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


def _assert_same_sponge(a, b):
    assert (a.n, a.cells, a.incidence) == (b.n, b.cells, b.incidence)


def _relabelled(p, ids):
    ren = dict(zip(p.facets, ids))
    return SimplePolytope(
        p.n, tuple(ren[f] for f in p.facets), tuple(frozenset(ren[f] for f in v) for v in p.vertices)
    )


BOUNDARY_CASES = {**POLYTOPES, "cube6": lambda: _cube(6)}


class TestPolytopeBoundary:
    @pytest.mark.parametrize("name", sorted(BOUNDARY_CASES))
    def test_boundary_is_simple_with_one_cell_per_face(self, name):
        p, _ = BOUNDARY_CASES[name]()
        m = p.boundary
        assert m.validate_simple().ok
        faces = [face for k in range(1, p.n + 1) for face in p.faces_of_codim(k)]
        assert sorted(d for _, d in m.cells) == sorted(p.n - len(face) for face in faces)
        assert m.top_cells == tuple(sorted("f:" + f for f in p.facets))

    @pytest.mark.parametrize("name", sorted(BOUNDARY_CASES))
    def test_sponge_matches_subset_scan(self, name):
        p, _ = BOUNDARY_CASES[name]()
        _assert_same_sponge(polytope_sponge(p), polytope_sponge_by_subsets(p))

    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(["simplex", "prism", "cube3"]), data=st.data())
    def test_relabelled_facets_match_subset_scan(self, name, data):
        # ids may contain commas: faces whose g: ids collide are rejected as
        # duplicate cells, and every other relabelling gives the scan's complex
        p, _ = POLYTOPES[name]()
        ids = data.draw(
            st.lists(st.text("ab,", min_size=1, max_size=3), min_size=len(p.facets), max_size=len(p.facets), unique=True)
        )
        q = _relabelled(p, ids)
        faces = [face for k in range(2, q.n + 1) for face in q.faces_of_codim(k)]
        if len({",".join(sorted(face)) for face in faces}) < len(faces):
            with pytest.raises(InputFormatError, match="^duplicate cell ids$"):
                polytope_sponge(q)
            return
        assert q.boundary.validate_simple().ok
        _assert_same_sponge(polytope_sponge(q), polytope_sponge_by_subsets(q))

    def test_comma_facet_is_not_a_face(self, cube3):
        # facet xm renamed to the id of the face {ym, zm}
        ren = {f: {"xm": "ym,zm"}.get(f, f) for f in cube3.facets}
        q = _relabelled(cube3, [ren[f] for f in cube3.facets])
        lam = coloring_pullback(q, {ren[f]: "xyz".index(f[0]) + 1 for f in cube3.facets})
        cd = reduce(q, lam, find_strict_subtorus(q, lam)[0])
        assert validate_mu(cd).ok and cocycle_check(cd).ok
        assert {"g:ym,zm", "g:ym,ym,zm"} <= set(cd.mu)

    def test_colliding_faces_are_duplicate_cells(self, simplex3):
        # the faces {a, b,c} and {a,b, c} both have the id g:a,b,c
        q = _relabelled(simplex3, ["a", "b,c", "a,b", "c"])
        lam = CharacteristicFunction(dict(zip(q.facets, (vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1), vec(-1, -1, -1)))))
        with pytest.raises(InputFormatError, match="^duplicate cell ids$"):
            reduce(q, lam, SubtorusChoice(vec(1, 1, -1)))

    def test_cell_manifold_rejects_duplicate_ids(self):
        with pytest.raises(InputFormatError, match="^duplicate cell ids$"):
            CellManifold(2, (("a", 1), ("v", 0), ("a", 0)), {})

    @pytest.mark.parametrize("name", sorted(POLYTOPES))
    def test_reduce_is_the_boundary_reduction(self, name):
        p, values = POLYTOPES[name]()
        lam = CharacteristicFunction(values)
        for st_ in find_strict_subtorus(p, lam, 1):
            cd = reduce(p, lam, st_)
            on_cells = cell_manifold_data(p.boundary, {"f:" + f: v for f, v in values.items()}, st_)
            _assert_same_sponge(on_cells.sponge, cd.sponge)
            assert (on_cells.mu, on_cells.euler_sign) == (cd.mu, cd.euler_sign)
            assert (cd.ambient.kind, on_cells.ambient.kind) == ("sphere", "product")


def _cell_case(name):
    """A polytope boundary with its lambda on the facet cells, or the torus with a basis on its hexagons."""
    if name == "torus":
        m = torus_three_hexagons()
        return m, dict(zip(m.top_cells, (vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1))))
    p, values = BOUNDARY_CASES[name]()
    return p.boundary, {"f:" + f: v for f, v in values.items()}


class TestCellManifoldStar:
    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(POLYTOPES) + ["torus"]),
        change=st.sampled_from(["conjugate", "perturb"]),
        rng=st.randoms(use_true_random=False),
    )
    def test_matches_smith_form_at_every_cell(self, name, change, rng):
        m, values = _cell_case(name)
        values = _vary(values, m.n, change, rng)
        try:
            star_condition_by_smith(m, values)
        except StarConditionError as want:
            with pytest.raises(StarConditionError) as got:
                cell_manifold_data(m, values)
            assert str(got.value) == str(want)
            return
        try:
            cd = cell_manifold_data(m, values)
        except DegenerateInputError as exc:
            assert str(exc) == "no strict subtorus within the search bound"
            assert strict_subtori_by_box(list(values.values()), m.n, 3) == []
            return
        assert validate_mu(cd).ok and cocycle_check(cd).ok

    @pytest.mark.parametrize("name", ["cube6", "torus"])
    def test_passing_star_builds_no_smith_form(self, name, monkeypatch):
        import complexity_one.lattice as lattice

        calls = []
        smith = lattice.smith_normal_form
        monkeypatch.setattr(lattice, "smith_normal_form", lambda a: calls.append(a) or smith(a))
        m, values = _cell_case(name)
        cd = cell_manifold_data(m, values)
        assert len(cd.mu) == sum(d == m.n - 2 for _, d in m.cells) and calls == []

    def test_value_of_wrong_dimension(self):
        m, values = _cell_case("torus")
        values["h1213"] = vec(1, 0)
        with pytest.raises(DimensionMismatchError):
            cell_manifold_data(m, values)

import random
from dataclasses import replace
from functools import cache
from itertools import islice, zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complexity_one.catalog import load, names
from complexity_one.chardata import Ambient, cocycle_check, validate_mu
from complexity_one.classify import (
    _poset_bijections,
    _solve_gauge as _gauges_on_walk,
    _solve_transform,
    _SpanFactor,
    canonical_invariants,
    compare,
    verify_witness,
)
from complexity_one.errors import ConsistencyError, PreconditionError
from complexity_one.lattice import IntMatrix, vec
from complexity_one.quasitoric import SubtorusChoice, reduce
from complexity_one.sponge import Cell, SpongeComplex, sign_walk, signs_along
from conftest import euler_cycle_verdicts, random_unimodular, transformed
from oracles import (
    gauges_by_propagation,
    poset_bijections_by_dim,
    poset_bijections_recursive,
    solve_transform_by_rows,
)
from test_chardata import _reduced_cube_data

# test_transform_matches_row_wise_solves pairs each bijection with the gauges
# of the former per-bijection propagation; TestGaugeWalk holds them equal to
# the gauges compare signs along its one walk
_solve_gauge = gauges_by_propagation


def _bijections(s1, s2, counts):
    """_poset_bijections' int bijections on the ids of the two sponges, in placement order."""
    ids1, ids2 = s1._index.ids, s2._index.ids
    for image in _poset_bijections(s1, s2, counts):
        yield {ids1[c]: ids2[x] for c, x in image.items()}


def shuffled_relabel(cd, rng):
    ids = [c.id for c in cd.sponge.cells]
    target = [f"cell{idx:03d}" for idx in range(len(ids))]
    rng.shuffle(target)
    return dict(zip(ids, target))


class TestCompareBasics:
    def test_reflexive(self):
        cd = load("cp3-reduction").data
        res = compare(cd, cd)
        assert res.equivalent
        assert verify_witness(cd, cd, res.witness)

    def test_symmetric_verdicts(self):
        cd = load("cp3-reduction").data
        rng = random.Random(31)
        moved = transformed(cd, matrix=random_unimodular(rng, 2), relabel=shuffled_relabel(cd, rng))
        assert compare(cd, moved).equivalent
        assert compare(moved, cd).equivalent

    def test_relabel_and_transform_found(self):
        rng = random.Random(32)
        for name in ("g42", "f3", "cp3-reduction"):
            cd = load(name).data
            a = random_unimodular(rng, cd.n - 1)
            moved = transformed(cd, matrix=a, relabel=shuffled_relabel(cd, rng))
            res = compare(cd, moved)
            assert res.equivalent, name
            assert verify_witness(cd, moved, res.witness)

    def test_single_sign_flip_inequivalent(self):
        cd = load("g42").data
        f0 = sorted(cd.sponge.facet_ids)[0]
        flipped = transformed(cd, flip={f0})
        res = compare(cd, flipped)
        assert res.verdict == "inequivalent"
        assert "exhausted" in res.certificate

    def test_different_n_incomparable(self):
        g42 = load("g42").data
        f3 = load("f3").data
        res = compare(g42, f3)
        assert res.verdict == "incomparable"
        assert "dimension" in res.certificate

    def test_different_ambient_incomparable(self):
        cp3 = load("cp3-reduction").data  # sphere, n=3
        f3 = load("f3").data  # product, n=3
        res = compare(cp3, f3)
        assert res.verdict == "incomparable"
        assert res.certificate == "ambient kinds differ: sphere vs product"

    def test_unvalidated_rejected(self):
        from complexity_one.chardata import Ambient, CharacteristicData
        from complexity_one.sponge import local_model_sponge

        bad = CharacteristicData(
            sponge=local_model_sponge(3),
            mu={"c1": vec(1, 0), "c2": vec(1, 0), "c3": vec(0, 1)},
            euler_sign={"c1": 1, "c2": 1, "c3": 1},
            ambient=Ambient("abstract"),
        )
        good = load("cp3-reduction").data
        with pytest.raises(PreconditionError):
            compare(good, bad)

    def test_different_boundary_triviality_incomparable(self):
        f3 = load("f3").data  # product, boundary trivial
        other = replace(f3, ambient=Ambient("product", boundary_trivial=False))
        res = compare(f3, other)
        assert res.verdict == "incomparable"
        assert res.certificate == "ambient boundary_trivial differs: True vs False"
        assert compare(other, other).equivalent

    def test_different_cell_counts_certificate(self, simplex3, simplex3_lambda):
        cd1 = load("g42").data
        # simplex skeleton sponge vs octahedron sponge: same n? no, cp3 has n=3.
        # build another n=4 datum with different counts is involved; instead
        # compare two n=3 data with different sponges.
        cd_simplex = reduce(simplex3, simplex3_lambda, SubtorusChoice(vec(1, 1, -1)))
        f3 = load("f3").data
        res = compare(
            cd_simplex,
            transformed(f3),
        )
        assert res.verdict == "incomparable"  # sphere vs product

    def test_witness_matrix_unimodular(self):
        rng = random.Random(33)
        cd = load("f3").data
        moved = transformed(cd, matrix=random_unimodular(rng, 2), relabel=shuffled_relabel(cd, rng))
        res = compare(cd, moved)
        from complexity_one.lattice import determinant

        assert determinant(res.witness.matrix) in (1, -1)


class TestWitnessVerifier:
    def test_rejects_wrong_matrix(self):
        cd = load("cp3-reduction").data
        res = compare(cd, cd)
        bad = IntMatrix.from_rows([[1, 1], [0, 1]])
        from complexity_one.classify import EquivalenceWitness

        tampered = EquivalenceWitness(
            mapping=res.witness.mapping,
            gauge=res.witness.gauge,
            matrix=bad @ res.witness.matrix,
        )
        assert not verify_witness(cd, cd, tampered)

    def test_rejects_wrong_mapping(self):
        cd = load("cp3-reduction").data
        res = compare(cd, cd)
        mapping = dict(res.witness.mapping)
        facets = sorted(cd.sponge.facet_ids)
        mapping[facets[0]], mapping[facets[1]] = mapping[facets[1]], mapping[facets[0]]
        from complexity_one.classify import EquivalenceWitness

        tampered = EquivalenceWitness(
            mapping=mapping,
            gauge=res.witness.gauge,
            matrix=res.witness.matrix,
        )
        assert not verify_witness(cd, cd, tampered)


class TestFingerprints:
    def test_relabel_invariance(self):
        rng = random.Random(34)
        for name in ("g42", "f3", "cp3-reduction", "local-model-4"):
            cd = load(name).data
            moved = transformed(
                cd, matrix=random_unimodular(rng, cd.n - 1), relabel=shuffled_relabel(cd, rng)
            )
            assert canonical_invariants(cd) == canonical_invariants(moved)

    def test_distinguishes_different_sponges(self, simplex3, simplex3_lambda):
        cd_simplex = reduce(simplex3, simplex3_lambda, SubtorusChoice(vec(1, 1, -1)))
        f3 = load("f3").data
        fp1 = canonical_invariants(cd_simplex)
        fp2 = canonical_invariants(f3)
        assert fp1.cells_per_dim != fp2.cells_per_dim or fp1.betti != fp2.betti

    def test_fields(self):
        fp = canonical_invariants(load("g42").data)
        assert fp.cells_per_dim == (6, 12, 11)
        assert fp.betti == (1, 0, 4)
        assert len(fp.pair_indices) == 3 * 12  # three facet pairs per edge


@pytest.mark.parametrize("name", ["cp3-reduction", "local-model-4"])
@settings(max_examples=25, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_relabel_and_transform_preserve_verdicts(name, rng):
    # relabelling permutes every id-sorted order the sponge indices produce
    cd = load(name).data
    moved = transformed(cd, matrix=random_unimodular(rng, cd.n - 1), relabel=shuffled_relabel(cd, rng))
    assert validate_mu(moved).ok == validate_mu(cd).ok
    assert cocycle_check(moved).ok == cocycle_check(cd).ok
    assert euler_cycle_verdicts(moved) == euler_cycle_verdicts(cd) == (True, True)
    res = compare(cd, moved)
    assert res.equivalent and verify_witness(cd, moved, res.witness)


class TestSearchStats:
    @pytest.mark.parametrize(
        "name, counts",
        [
            ("g42", {"nodes": 1143, "bijections": 48, "gauges": 96, "transforms": 96}),
            ("f3", {"nodes": 762, "bijections": 72, "gauges": 144, "transforms": 144}),
            ("local-model-5", {"nodes": 2446, "bijections": 120, "gauges": 240, "transforms": 240}),
            ("local-model-6", {"nodes": 32947, "bijections": 720, "gauges": 1440, "transforms": 1440}),
            ("reduced-cube-4", {"nodes": 25488, "bijections": 384, "gauges": 768, "transforms": 768}),
        ],
    )
    def test_flip_counts(self, name, counts):
        cd = _reduced_cube_data(4) if name == "reduced-cube-4" else load(name).data
        flipped = transformed(cd, flip={sorted(cd.sponge.facet_ids)[0]})
        stats = {}
        res = compare(cd, flipped, stats=stats)
        assert stats == counts
        assert res == compare(cd, flipped)
        assert res.certificate.endswith(f"({counts['gauges']} gauge assignments tried)")

    def test_counts_stay_zero_before_the_search(self):
        stats = {"nodes": 7}
        res = compare(load("cp3-reduction").data, load("f3").data, stats=stats)
        assert res.verdict == "incomparable"
        assert stats == {"nodes": 0, "bijections": 0, "gauges": 0, "transforms": 0}

    @pytest.mark.parametrize("name", ["cp3-reduction", "f3"])
    def test_self_compare_counts(self, name):
        cd = load(name).data
        stats = {}
        res = compare(cd, cd, stats=stats)
        # the same-id candidate comes first: one node per cell, no backtracking
        assert stats == {"nodes": len(cd.sponge.cells), "bijections": 1, "gauges": 1, "transforms": 1}
        assert all(k == v for k, v in res.witness.mapping.items())


def _bijection_set(search):
    return {frozenset(m.items()) for m in search}


# valid sponges: the catalog entries and the reduced 3-, 4- and 5-cubes
SEARCH_BASES = {
    **{name: cache(lambda name=name: load(name).data) for name in names()},
    **{f"reduced-cube-{n}": cache(lambda n=n: _reduced_cube_data(n)) for n in (3, 4, 5)},
}


class TestSearchOracles:
    @pytest.mark.parametrize("name", ["cp3-reduction", "local-model-4", "f3"])
    def test_bijections_match_dimension_descending_search(self, name):
        cd = load(name).data
        relabel = shuffled_relabel(cd, random.Random(35))
        moved = transformed(cd, relabel=relabel)
        # the old search takes seconds on f3, so it runs on the relabelled
        # pair only; the self-pair's bijections are those composed with the
        # inverse relabelling
        want_moved = _bijection_set(poset_bijections_by_dim(cd.sponge, moved.sponge))
        back = {v: k for k, v in relabel.items()}
        want_self = {frozenset((c, back[d]) for c, d in m) for m in want_moved}
        for other, want in ((cd, want_self), (moved, want_moved)):
            got = list(_bijections(cd.sponge, other.sponge, {"nodes": 0}))
            assert len(got) == len(want) > 0
            assert _bijection_set(got) == want

    @pytest.mark.parametrize("name", sorted(SEARCH_BASES))
    def test_stack_search_matches_recursive_search(self, name):
        # the same bijections in the same order, with the same node count
        # after each one, on the datum against itself and a relabelled copy;
        # the first 60 bijections where there are more
        cd = SEARCH_BASES[name]()
        relabelled = transformed(cd, relabel=shuffled_relabel(cd, random.Random(37)))
        for other in (cd, relabelled):
            got_counts, want_counts = {"nodes": 0}, {"nodes": 0}
            got = islice(_bijections(cd.sponge, other.sponge, got_counts), 60)
            want = islice(poset_bijections_recursive(cd.sponge, other.sponge, want_counts), 60)
            steps = 0
            for g, w in zip_longest(got, want):
                assert g is not None and w is not None
                assert list(g.items()) == list(w.items())
                assert got_counts == want_counts
                steps += 1
            assert steps > 0 and got_counts == want_counts

    @pytest.mark.parametrize("name, flip", [("cp3-reduction", True), ("local-model-4", False)])
    def test_transform_matches_row_wise_solves(self, name, flip):
        cd = load(name).data
        rng = random.Random(36)
        if flip:
            other = transformed(cd, flip={sorted(cd.sponge.facet_ids)[0]})
        else:
            a = random_unimodular(rng, cd.n - 1)
            other = transformed(cd, matrix=a, relabel=shuffled_relabel(cd, rng))
        factor = _SpanFactor.of(cd)
        pos1, pos2 = cd.sponge._index.pos, other.sponge._index.pos
        euler2 = {pos2[f]: other.euler_coefficient(f).entries for f in other.sponge.facet_ids}
        span = [cd.sponge._index.ids[f] for f in factor.span]
        pairs = found = 0
        for mapping in _bijections(cd.sponge, other.sponge, {"nodes": 0}):
            image = {pos1[c]: pos2[x] for c, x in mapping.items()}
            for gauge in _solve_gauge(cd.sponge, other.sponge, mapping):
                signs = {pos1[c]: sign for c, sign in gauge.items()}
                got = _solve_transform(factor, euler2, image, signs, {"transforms": 0})
                assert got == solve_transform_by_rows(cd, other, mapping, gauge, span)
                pairs += 1
                found += got is not None
        assert pairs > 0
        assert (found == 0) if flip else (found > 0)

    def test_span_factor_adjugate(self):
        cd = load("local-model-5").data
        factor = _SpanFactor.of(cd)
        k = cd.n - 1
        m1 = IntMatrix.from_cols([cd.euler_coefficient(cd.sponge._index.ids[f]) for f in factor.span])
        assert m1 @ IntMatrix.from_rows(factor.adj) == IntMatrix(k, k, tuple(factor.det * (i == j) for i in range(k) for j in range(k)))

    def test_too_few_spanning_facets_raise(self):
        from complexity_one.chardata import CharacteristicData
        from complexity_one.sponge import local_model_sponge

        sponge = local_model_sponge(4)
        parallel = CharacteristicData(
            sponge=sponge,
            mu={f: vec(1, 0, 0) for f in sponge.facet_ids},
            euler_sign={f: 1 for f in sponge.facet_ids},
            ambient=Ambient("abstract"),
        )
        with pytest.raises(ConsistencyError):
            _SpanFactor.of(parallel)


def _incidence_walk(s):
    """The incidences (C, D, inc(C, D)) of s and their sign_walk, as compare builds them."""
    index = s._index
    relations = [(c, d, sign) for c, bnd in enumerate(index.bnd) for d, sign in bnd]
    return relations, sign_walk(range(len(index.ids)), relations)


def _gauges_along_walk(s1, s2, mapping):
    relations, walk = _incidence_walk(s1)
    index1, index2 = s1._index, s2._index
    image = {index1.pos[c]: index2.pos[x] for c, x in mapping.items()}
    inc2 = [dict(bnd) for bnd in index2.bnd]
    gauges = _gauges_on_walk(walk, relations, inc2, image)
    return [{index1.ids[c]: sign for c, sign in g.items()} for g in gauges]


def _reoriented(s, cells):
    """s with the orientation of each of cells reversed: its incidences change sign."""
    inc = {
        c: tuple((x, -sign if (c in cells) != (x in cells) else sign) for x, sign in bnd)
        for c, bnd in s.incidence.items()
    }
    return SpongeComplex(s.n, s.cells, inc)


def _assert_gauges_match(s1, s2, limit):
    # equal to the oracle's gauges in order and in key order; the last half
    # negates the first, in reverse: flips f and ~f, ~f the later
    bijections = 0
    for mapping in islice(_bijections(s1, s2, {"nodes": 0}), limit):
        got = _gauges_along_walk(s1, s2, mapping)
        want = list(gauges_by_propagation(s1, s2, mapping))
        assert [list(g.items()) for g in got] == [list(w.items()) for w in want]
        for g, negated in zip(got[: len(got) // 2], reversed(got)):
            assert negated == {x: -sign for x, sign in g.items()}
        bijections += 1
    assert bijections > 0


# the catalog entries and the reduced 3-cube
GAUGE_BASES = {name: SEARCH_BASES[name] for name in (*names(), "reduced-cube-3")}


class TestGaugeWalk:
    @pytest.mark.parametrize("name", sorted(GAUGE_BASES))
    @settings(max_examples=10, deadline=None)
    @given(rng=st.randoms(use_true_random=False), flip=st.booleans())
    def test_gauges_match_propagation(self, name, rng, flip):
        # on a relabelled, transformed and maybe flipped copy whose cells are
        # partly re-oriented, so that the gauges are not all +1
        cd = GAUGE_BASES[name]()
        facets = sorted(cd.sponge.facet_ids)
        other = transformed(
            cd,
            matrix=random_unimodular(rng, cd.n - 1),
            relabel=shuffled_relabel(cd, rng),
            flip={rng.choice(facets)} if flip else frozenset(),
        ).sponge
        other = _reoriented(other, {c.id for c in other.cells if rng.random() < 0.3})
        _assert_gauges_match(cd.sponge, other, 12)

    def test_components_pair_by_complement(self):
        # three components, two edges and a lone vertex, so 8 gauges per
        # bijection, paired by complementing the flips of all three
        cells = [("a0", 0), ("a1", 0), ("b0", 0), ("b1", 0), ("v", 0), ("ea", 1), ("eb", 1)]
        inc = {"ea": (("a1", 1), ("a0", -1)), "eb": (("b1", 1), ("b0", -1))}
        s1 = SpongeComplex(3, tuple(Cell(c, d) for c, d in cells), inc)
        s2 = _reoriented(s1, {"a0", "eb"})
        assert len(_incidence_walk(s1)[1]) == 3
        _assert_gauges_match(s1, s2, None)
        assert {len(_gauges_along_walk(s1, s2, m)) for m in _bijections(s1, s2, {"nodes": 0})} == {8}

    def test_signs_conflicting_on_a_cycle(self):
        # a triangle whose 2-cell meets one edge with the wrong sign in s2:
        # the identity preserves covers, but not the signs around the cycle
        dims = {"a": 0, "b": 0, "c": 0, "ab": 1, "bc": 1, "ca": 1, "f": 2}
        cells = tuple(Cell(c, d) for c, d in dims.items())
        edges = {"ab": (("b", 1), ("a", -1)), "bc": (("c", 1), ("b", -1)), "ca": (("a", 1), ("c", -1))}
        s1 = SpongeComplex(4, cells, {**edges, "f": (("ab", 1), ("bc", 1), ("ca", 1))})
        s2 = SpongeComplex(4, cells, {**edges, "f": (("ab", -1), ("bc", 1), ("ca", 1))})
        identity = dict(zip(dims, dims))
        relations, walk = _incidence_walk(s1)
        inc2 = [dict(bnd) for bnd in s2._index.bnd]  # s1 and s2 have the same cells
        rels = [sign * inc2[c][d] for c, d, sign in relations]
        [(_, conflict)] = signs_along(walk, rels)
        assert conflict is not None
        assert _gauges_along_walk(s1, s2, identity) == list(gauges_by_propagation(s1, s2, identity)) == []
        assert len(_gauges_along_walk(s1, s1, identity)) == 2

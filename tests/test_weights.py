import random

import pytest

from complexity_one.errors import (
    DegenerateInputError,
    DimensionMismatchError,
    InputFormatError,
    PreconditionError,
    StarConditionError,
)
from complexity_one import lattice
from complexity_one.lattice import IntVector, adjugate, primitive, vec
from complexity_one.weights import (
    SubtorusChoice,
    WeightSystem,
    cramer_coefficients,
    induced_weights,
    is_general_position,
    is_strictly_appropriate,
    stabilizer_structure,
    strict_coefficients,
)
from conftest import random_general_position_system, random_unimodular
from oracles import cofactor_adjugate, cofactor_det, invariant_factors_from_minors

G42 = WeightSystem(4, (vec(1, 0, -1), vec(0, 1, -1), vec(-1, 0, -1), vec(0, -1, -1)))
F3 = WeightSystem(3, (vec(1, 0), vec(1, 1), vec(0, 1)))
NONSTRICT = WeightSystem(3, (vec(2, 0), vec(0, 2), vec(-1, -1)))


def up_to_sign(a, b) -> bool:
    return tuple(a) == tuple(b) or tuple(-x for x in a) == tuple(b)


class TestCramer:
    def test_grassmannian_example(self):
        cc = cramer_coefficients(G42)
        assert cc.c_tilde == (2, -2, 2, -2)
        assert cc.c_gcd == 2
        assert cc.c == (1, -1, 1, -1)

    def test_flag_example(self):
        assert up_to_sign(cramer_coefficients(F3).c, (1, -1, 1))

    def test_doubled_example(self):
        cc = cramer_coefficients(NONSTRICT)
        assert cc.c_tilde == (-2, -2, -4)
        assert up_to_sign(cc.c, (1, 1, 2))

    def test_fractional_weights_rejected(self):
        # int() would truncate them to (0, 1), (1, 0), (-1, -1), a valid system
        with pytest.raises(InputFormatError, match=r"vector entry 0 is 0\.5, not an integer"):
            WeightSystem(3, ((0.5, 1), (1, 0.9), (-1, -1)))

    def test_identity_fuzz(self):
        rng = random.Random(1)
        for _ in range(300):
            n = rng.randint(2, 6)
            ws = random_general_position_system(rng, n)
            cc = cramer_coefficients(ws)  # raises internally if the relation fails
            total = ws.weights[0].scale(0)
            for c, a in zip(cc.c_tilde, ws.weights):
                total = total + a.scale(c)
            assert total.is_zero()

    def test_sign_covariance(self):
        rng = random.Random(2)
        for _ in range(200):
            n = rng.randint(3, 5)
            ws = random_general_position_system(rng, n)
            base = cramer_coefficients(ws).c_tilde
            i = rng.randrange(n)
            flipped = WeightSystem(
                n, tuple(w.scale(-1) if t == i else w for t, w in enumerate(ws.weights))
            )
            new = cramer_coefficients(flipped).c_tilde
            assert new[i] == base[i]
            assert all(new[j] == -base[j] for j in range(n) if j != i)
            assert is_general_position(flipped) == is_general_position(ws)
            assert is_strictly_appropriate(flipped) == is_strictly_appropriate(ws)

    def test_gl_invariance(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(3, 5)
            ws = random_general_position_system(rng, n)
            a = random_unimodular(rng, n - 1)
            moved = WeightSystem(n, tuple(a @ w for w in ws.weights))
            assert is_general_position(moved) == is_general_position(ws)
            assert is_strictly_appropriate(moved) == is_strictly_appropriate(ws)
            assert up_to_sign(cramer_coefficients(moved).c, cramer_coefficients(ws).c)

    def test_predicates_invariant_under_all_sign_choices(self):
        from itertools import product as iproduct

        for ws in (G42, F3, NONSTRICT):
            gp = is_general_position(ws)
            strict = gp and is_strictly_appropriate(ws)
            for signs in iproduct((1, -1), repeat=ws.n):
                flipped = WeightSystem(ws.n, tuple(w.scale(s) for w, s in zip(ws.weights, signs)))
                assert is_general_position(flipped) == gp
                if gp:
                    assert is_strictly_appropriate(flipped) == strict

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatchError):
            WeightSystem(3, (vec(1, 0), vec(1, 1)))
        with pytest.raises(DimensionMismatchError):
            WeightSystem(3, (vec(1, 0, 0), vec(1, 1, 0), vec(0, 1, 0)))


class TestOneElimination:
    def test_one_bareiss_for_coefficients_and_adjugate(self, monkeypatch):
        calls = []
        bareiss = lattice._bareiss

        def counting(*args, **kwargs):
            calls.append(args[1])
            return bareiss(*args, **kwargs)

        monkeypatch.setattr(lattice, "_bareiss", counting)
        ws = WeightSystem(4, G42.weights)
        cramer_coefficients(ws)
        ws.adjugate_columns
        is_strictly_appropriate(ws)
        strict_coefficients(ws)
        assert calls == [4]

    def test_adjugate_columns_match_cofactors(self):
        rng = random.Random(27)
        for _ in range(150):
            n = rng.randint(2, 6)
            ws = random_general_position_system(rng, n)
            if rng.random() < 0.3:  # a singular leading block: weight 0 repeated
                ws = WeightSystem(n, (ws.weights[0],) * min(2, n - 1) + ws.weights[min(2, n - 1) :])
            k = n - 1
            adj = cofactor_adjugate([list(w) for w in ws.weights[:k]])
            singular = cofactor_det([list(w) for w in ws.weights[:k]]) == 0
            want = [tuple(0 if singular else adj[r][i] for r in range(k)) for i in range(k)] + [(0,) * k]
            assert list(ws.adjugate_columns) == want


class TestPredicates:
    def test_general_position_examples(self):
        assert is_general_position(G42)
        assert is_general_position(F3)
        assert not is_general_position(
            WeightSystem(3, (vec(1, 0), vec(1, 0), vec(0, 1)))
        )

    def test_strictness_examples(self):
        assert is_strictly_appropriate(G42)
        assert is_strictly_appropriate(F3)
        assert not is_strictly_appropriate(NONSTRICT)

    def test_strictness_requires_general_position(self):
        with pytest.raises(PreconditionError):
            is_strictly_appropriate(WeightSystem(3, (vec(1, 0), vec(1, 0), vec(0, 1))))


class TestStabilizers:
    def test_doubled_coefficient(self):
        st_ = stabilizer_structure(NONSTRICT, [2])
        assert st_.torus_rank == 0 and st_.finite_orders == (2,)

    def test_strict_singletons_trivial(self):
        for i in range(4):
            st_ = stabilizer_structure(G42, [i])
            assert st_.torus_rank == 0 and st_.finite_orders == ()

    def test_full_index_set(self):
        st_ = stabilizer_structure(G42, range(4))
        assert st_.torus_rank == 3 and st_.finite_orders == ()

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInputError):
            stabilizer_structure(G42, [])

    @pytest.mark.parametrize("indices", [[0.7, 1.2], ["1", "2"], [0, 1.0]])
    def test_non_integer_indices_rejected(self, indices):
        # int() would read 0.7 and 1.2 as {0, 1} and parse "1"
        with pytest.raises(InputFormatError, match="stabilizer index"):
            stabilizer_structure(G42, indices)

    def test_connectedness_criterion_matches_strictness(self):
        rng = random.Random(4)
        for _ in range(300):
            n = rng.randint(3, 6)
            ws = random_general_position_system(rng, n)
            strict = is_strictly_appropriate(ws)
            all_trivial = all(
                stabilizer_structure(ws, [i]).finite_orders == () for i in range(n)
            )
            assert strict == all_trivial
            c = cramer_coefficients(ws).c
            for i in range(n):
                orders = stabilizer_structure(ws, [i]).finite_orders
                assert orders == ((abs(c[i]),) if abs(c[i]) > 1 else ())

    def test_matches_invariant_factors_of_the_relation(self):
        # the Smith form of the 1 x k relation, from the gcds of its minors
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(3, 6)
            ws = random_general_position_system(rng, n)
            idx = sorted(rng.sample(range(n), rng.randint(1, n)))
            factors = invariant_factors_from_minors([[cramer_coefficients(ws).c[i] for i in idx]])
            got = stabilizer_structure(ws, idx)
            assert got.torus_rank == len(idx) - len(factors)
            assert got.finite_orders == tuple(f for f in factors if f > 1)


class TestHopf:
    """The Hopf sign of a pair is c_i c_j, from the unit coefficients strict_coefficients returns."""

    def test_grassmannian_signs(self):
        c = strict_coefficients(G42)
        assert c[0] * c[1] == -1
        assert c[0] * c[2] == 1

    def test_non_strict_rejected(self):
        with pytest.raises(PreconditionError, match="^hopf_type requires a strictly appropriate system$"):
            strict_coefficients(NONSTRICT)

    def test_multiplicative_on_triples(self):
        rng = random.Random(5)
        found = 0
        while found < 60:
            ws = random_general_position_system(rng, rng.randint(3, 5))
            if not is_strictly_appropriate(ws):
                continue
            found += 1
            c = strict_coefficients(ws)
            assert c == cramer_coefficients(ws).c and all(abs(x) == 1 for x in c)
            n = ws.n
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        if len({i, j, k}) == 3:
                            assert (c[i] * c[j]) * (c[j] * c[k]) == c[i] * c[k]


class TestInducedWeights:
    def test_standard_basis_strict(self):
        basis = [vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)]
        ws = induced_weights(basis, SubtorusChoice(vec(1, 1, -1)))
        assert [list(w) for w in ws.weights] == [[1, 0], [0, 1], [1, 1]]
        assert up_to_sign(cramer_coefficients(ws).c, (1, 1, -1))

    def test_standard_basis_nonstrict(self):
        basis = [vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)]
        ws = induced_weights(basis, SubtorusChoice(vec(1, 1, 2)))
        assert up_to_sign(cramer_coefficients(ws).c, (1, 1, 2))
        assert not is_strictly_appropriate(ws)

    def test_non_basis_rejected(self):
        with pytest.raises(StarConditionError):
            basis = [vec(2, 0, 0), vec(0, 1, 0), vec(0, 0, 1)]
            induced_weights(basis, SubtorusChoice(vec(1, 1, -1)))

    def test_non_primitive_alpha_rejected(self):
        with pytest.raises(DegenerateInputError):
            induced_weights([vec(1, 0), vec(0, 1)], SubtorusChoice(vec(2, 2)))

    def test_matches_the_dual_basis_frame(self):
        # the weights are the columns of complement @ inverse(lambda matrix)
        rng = random.Random(28)
        for _ in range(120):
            n = rng.randint(2, 6)
            lam = random_unimodular(rng, n)
            alpha = IntVector(tuple(rng.randint(-3, 3) for _ in range(n)))
            if alpha.is_zero():
                continue
            st = SubtorusChoice(primitive(alpha))
            frame = st.complement @ adjugate(lam).inverse()
            ws = induced_weights([lam.row(i) for i in range(n)], st)
            assert ws.weights == tuple(frame.col(i) for i in range(n))

    def test_coefficients_equal_pairings_up_to_sign(self):
        rng = random.Random(6)
        for _ in range(120):
            n = rng.randint(2, 5)
            lam = random_unimodular(rng, n)
            lams = [lam.row(i) for i in range(n)]
            alpha = IntVector(tuple(rng.randint(-3, 3) for _ in range(n)))
            if alpha.is_zero():
                continue
            alpha = primitive(alpha)
            pairings = tuple(alpha.dot(l) for l in lams)
            if any(p == 0 for p in pairings):
                continue  # induced system falls out of general position
            ws = induced_weights(lams, SubtorusChoice(alpha))
            got = cramer_coefficients(ws).c
            want = primitive(IntVector(pairings))
            assert up_to_sign(got, want)

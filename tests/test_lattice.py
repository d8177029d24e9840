import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complexity_one.errors import ConsistencyError, DegenerateInputError, DimensionMismatchError
from complexity_one.lattice import (
    IntMatrix,
    IntVector,
    SmithDecomposition,
    _check_smith,
    determinant,
    hermite_normal_form,
    integer_kernel,
    inverse_unimodular,
    is_unimodular_extension,
    kernel_complement,
    primitive,
    smith_normal_form,
    solve_exact,
    stack_rows,
    vec,
)
from oracles import cofactor_det, fraction_rank

EYE2 = [[1, 0], [0, 1]]


def rand_matrix(rng, m, n, bound=5):
    return IntMatrix(m, n, tuple(rng.randint(-bound, bound) for _ in range(m * n)))


matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.integers(-9, 9), min_size=m * n, max_size=m * n
        ).map(lambda ent: IntMatrix(m, n, tuple(ent)))
    )
)


class TestDeterminant:
    def test_identity(self):
        assert determinant(IntMatrix.identity(3)) == 1

    def test_worked_examples(self):
        assert determinant(IntMatrix.from_rows([[1, 0, -1], [0, 1, -1], [-1, 0, -1]])) == -2
        assert determinant(IntMatrix.from_rows([[0, 1, -1], [-1, 0, -1], [0, -1, -1]])) == -2

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            determinant(IntMatrix(2, 3, (1, 2, 3, 4, 5, 6)))

    @given(matrices.filter(lambda a: a.is_square()))
    @settings(max_examples=150, deadline=None)
    def test_matches_cofactor_expansion(self, a):
        assert determinant(a) == cofactor_det(a.row_list())

    def test_random_sizes_up_to_four(self):
        rng = random.Random(11)
        for _ in range(250):
            n = rng.randint(1, 4)
            a = rand_matrix(rng, n, n)
            assert determinant(a) == cofactor_det(a.row_list())


class TestSmith:
    def test_zero(self):
        dec = smith_normal_form(IntMatrix.zero(2, 2))
        assert dec.diagonal() == (0, 0) and dec.rank == 0

    def test_diag_2_3(self):
        dec = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert dec.diagonal() == (1, 6)

    def test_identity(self):
        for n in (1, 2, 5):
            dec = smith_normal_form(IntMatrix.identity(n))
            assert dec.diagonal() == (1,) * n and dec.rank == n

    def test_random_decomposition_properties(self):
        # U*A*V = D, unimodularity and the divisibility chain are checked
        # inside smith_normal_form; this loop exercises them at volume.
        rng = random.Random(5)
        for _ in range(1000):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            a = rand_matrix(rng, m, n)
            dec = smith_normal_form(a)
            assert dec.rank == fraction_rank(a.row_list())

    @given(matrices)
    @settings(max_examples=120, deadline=None)
    def test_rank_matches_rational_rank(self, a):
        assert smith_normal_form(a).rank == fraction_rank(a.row_list())

    @pytest.mark.parametrize(
        "a, u, d, v, message",
        [
            (EYE2, EYE2, [[1, 0], [0, 2]], EYE2, r"U\*A\*V != D"),
            (EYE2, [[2, 0], [0, 1]], [[2, 0], [0, 1]], EYE2, "U not unimodular"),
            (EYE2, EYE2, [[1, 0], [0, 2]], [[1, 0], [0, 2]], "V not unimodular"),
            ([[2, 0], [0, 3]], EYE2, [[2, 0], [0, 3]], EYE2, "divisibility"),
            ([[1, 1], [0, 1]], EYE2, [[1, 1], [0, 1]], EYE2, "not diagonal"),
        ],
    )
    def test_self_check_rejects_tampered_decomposition(self, a, u, d, v, message):
        # a package error, not an assert, so the check also runs under python -O
        dec = SmithDecomposition(*(IntMatrix.from_rows(x) for x in (u, d, v)), rank=2)
        with pytest.raises(ConsistencyError, match=message):
            _check_smith(IntMatrix.from_rows(a), dec)


class TestKernel:
    def test_sum_of_two(self):
        basis = integer_kernel(IntMatrix.from_rows([[1, 1]]))
        assert [list(v) for v in basis] == [[1, -1]]

    def test_weight_matrix_kernel(self):
        w = IntMatrix.from_cols([[1, 0, -1], [0, 1, -1], [-1, 0, -1], [0, -1, -1]])
        basis = integer_kernel(w)
        assert [list(v) for v in basis] == [[1, -1, 1, -1]]

    def test_identity_kernel_empty(self):
        assert integer_kernel(IntMatrix.identity(4)) == []

    def test_kernel_is_saturated(self):
        rng = random.Random(3)
        for _ in range(200):
            a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 5), 3)
            basis = integer_kernel(a)
            for v in basis:
                assert (a @ v).is_zero()
            if basis:
                dec = smith_normal_form(stack_rows(basis))
                assert dec.rank == len(basis)
                assert all(x == 1 for x in dec.diagonal()[: len(basis)])


class TestPrimitive:
    def test_examples(self):
        assert list(primitive(vec(2, -2, 2, -2))) == [1, -1, 1, -1]
        assert list(primitive(vec(0, 0, 5))) == [0, 0, 1]
        assert list(primitive(vec(3, 6, 9))) == [1, 2, 3]

    def test_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            primitive(vec(0, 0))

    def test_sign_not_pinned_when_disabled(self):
        assert list(primitive(vec(-2, 4), pin_sign=False)) == [-1, 2]

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=6).filter(lambda e: any(e)))
    def test_content_one_and_recovers(self, entries):
        v = IntVector(tuple(entries))
        p = primitive(v)
        assert p.content() == 1
        g = v.content()
        assert v == p.scale(g) or v == p.scale(-g)


class TestUnimodularExtension:
    def test_standard_subset(self):
        assert is_unimodular_extension([vec(1, 0, 0), vec(0, 1, 0)], 3)

    def test_index_two_fails(self):
        assert not is_unimodular_extension([vec(2, 0), vec(0, 1)], 2)

    def test_full_basis(self):
        basis = [IntVector(tuple(1 if i == j else 0 for j in range(5))) for i in range(5)]
        assert is_unimodular_extension(basis, 5)

    def test_empty_is_trivially_true(self):
        assert is_unimodular_extension([], 3)


class TestHermiteAndSolve:
    def test_hnf_properties(self):
        rng = random.Random(17)
        for _ in range(200):
            a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            h, u = hermite_normal_form(a)
            assert (u @ a).entries == h.entries
            assert abs(determinant(u)) == 1

    def test_solve_exact_roundtrip(self):
        rng = random.Random(23)
        for _ in range(150):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            a = rand_matrix(rng, m, n, 3)
            x = IntVector(tuple(rng.randint(-3, 3) for _ in range(n)))
            b = a @ x
            y = solve_exact(a, b)
            assert y is not None and (a @ y) == b

    def test_solve_exact_detects_unsolvable(self):
        a = IntMatrix.from_rows([[2, 0], [0, 2]])
        assert solve_exact(a, vec(1, 0)) is None

    def test_inverse_unimodular(self):
        a = IntMatrix.from_rows([[2, 1], [1, 1]])
        inv = inverse_unimodular(a)
        assert (a @ inv).entries == IntMatrix.identity(2).entries
        with pytest.raises(DegenerateInputError):
            inverse_unimodular(IntMatrix.from_rows([[2, 0], [0, 1]]))

    def test_kernel_complement_examples(self):
        comp = kernel_complement(vec(1, 1, -1))
        assert comp.row_list() == [[1, 0, 1], [0, 1, 1]]
        for r in range(comp.rows):
            assert comp.row(r).dot(vec(1, 1, -1)) == 0

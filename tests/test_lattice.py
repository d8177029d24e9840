import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complexity_one import lattice
from complexity_one.errors import ConsistencyError, DegenerateInputError, DimensionMismatchError, InputFormatError
from complexity_one.lattice import (
    Adjugate,
    IntMatrix,
    IntVector,
    SmithDecomposition,
    _check_adjugate,
    _check_hermite,
    _check_smith,
    adjugate,
    determinant,
    hermite_normal_form,
    independent_rows,
    integer_kernel,
    is_unimodular_extension,
    kernel_complement,
    minors_and_adjugate,
    primitive,
    smith_normal_form,
    stack_rows,
    vec,
)
from conftest import random_unimodular
from oracles import cofactor_adjugate, cofactor_det, fraction_rank, integer_solvable, smith_by_pivoting, solve_exact

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

small_ints = st.integers(-6, 6)
wide_ints = st.integers(-(2**70), 2**70)  # past 64 bits


def _entries(count, ints=small_ints):
    return st.lists(ints, min_size=count, max_size=count)


def _sized(m, n, ints=small_ints):
    return _entries(m * n, ints).map(lambda e: IntMatrix(m, n, tuple(e)))


def _product(m, k, n, ints=small_ints):
    """m x n matrices B C of rank <= k, multiplied on plain lists of ints."""

    def multiply(bc):
        b, c = bc
        entries = (sum(b[i * k + t] * c[t * n + j] for t in range(k)) for i in range(m) for j in range(n))
        return IntMatrix(m, n, tuple(entries))

    return st.tuples(_entries(m * k, ints), _entries(k * n, ints)).map(multiply)


def _shaped(m, n):
    """m x n matrices of small or wide entries, plain or through an inner dimension k <= min(m, n)."""
    return st.sampled_from([small_ints, wide_ints]).flatmap(
        lambda ints: st.one_of(
            _sized(m, n, ints), st.integers(0, min(m, n)).flatmap(lambda k: _product(m, k, n, ints))
        )
    )


# up to 6 x 6 and 6 x 7, singular and of full rank, with entries past 64 bits
square_matrices = st.integers(0, 6).flatmap(lambda n: _shaped(n, n))
minor_matrices = st.integers(0, 6).flatmap(lambda k: _shaped(k, k + 1))
# every shape up to 6 x 6, down to 0 x n and m x 0
rectangular_matrices = st.tuples(st.integers(0, 6), st.integers(0, 6)).flatmap(lambda mn: _shaped(*mn))


# k x (k+1) whose leading k x k block is singular (a product through k' < k)
# while the last column is free, so the whole often has full rank
singular_lead_matrices = st.integers(1, 6).flatmap(
    lambda k: st.tuples(st.integers(0, k - 1).flatmap(lambda r: _product(k, r, k)), _entries(k)).map(
        lambda bc: IntMatrix.from_rows([list(bc[0].row(i)) + [bc[1][i]] for i in range(k)])
    )
)


# shapes down to 0 x n and m x 0, and products through an inner dimension
# k <= 3, so that rank-deficient matrices are common
any_matrices = st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda mn: st.one_of(_sized(*mn), st.integers(0, 3).flatmap(lambda k: _product(mn[0], k, mn[1])))
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

    @given(st.integers(1, 5).flatmap(lambda n: st.integers(0, n - 1).flatmap(lambda k: _product(n, k, n))))
    @settings(max_examples=100, deadline=None)
    def test_singular_matches_cofactor_expansion(self, a):
        # n x n through an inner dimension k < n, so singular
        assert determinant(a) == cofactor_det(a.row_list()) == 0


def _cofactor_minors(a):
    """v_t = (-1)^t det(a without column t), by cofactor expansion."""
    rows = a.row_list()
    return vec(*((-1) ** t * cofactor_det([r[:t] + r[t + 1 :] for r in rows]) for t in range(a.cols)))


class TestMinorsAndAdjugate:
    @given(minor_matrices)
    @settings(max_examples=80, deadline=None)
    def test_cofactors_spanning_the_kernel(self, a):
        # k x (k+1) of rank <= k: full rank gives the kernel line, else zero
        v, _ = minors_and_adjugate(a)
        assert v == _cofactor_minors(a)
        assert (a @ v).is_zero()
        assert v.is_zero() == (fraction_rank(a.row_list()) < a.rows)

    @given(st.one_of(minor_matrices, singular_lead_matrices))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_separate_eliminations(self, a):
        minors, adj = minors_and_adjugate(a)
        lead = IntMatrix(a.rows, a.rows, tuple(x for r in a.row_list() for x in r[: a.rows]))
        assert minors == _cofactor_minors(a)
        assert adj == adjugate(lead)

    def test_singular_leading_block_of_full_rank(self):
        a = IntMatrix.from_rows([[1, 2, 0], [2, 4, 1]])
        minors, adj = minors_and_adjugate(a)
        assert minors == _cofactor_minors(a) == vec(2, -1, 0)
        assert adj == Adjugate(0, None)

    def test_one_elimination(self, monkeypatch):
        calls = []
        bareiss = lattice._bareiss

        def counting(*args, **kwargs):
            calls.append(args[1])
            return bareiss(*args, **kwargs)

        monkeypatch.setattr(lattice, "_bareiss", counting)
        minors_and_adjugate(IntMatrix.from_rows([[1, 0, -1], [0, 1, -1]]))
        assert calls == [3]

    def test_empty_and_bad_shapes(self):
        assert minors_and_adjugate(IntMatrix(0, 1, ())) == (vec(1), Adjugate(1, IntMatrix(0, 0, ())))
        for shape in (IntMatrix.identity(2), IntMatrix.zero(2, 4), IntMatrix.zero(3, 2)):
            with pytest.raises(DimensionMismatchError):
                minors_and_adjugate(shape)


class TestAdjugate:
    @given(square_matrices)
    @settings(max_examples=100, deadline=None)
    def test_matches_cofactor_adjugate(self, a):
        rows = a.row_list()
        got = adjugate(a)
        assert got.det == cofactor_det(rows)
        assert got.adj is None if got.det == 0 else got.adj.row_list() == cofactor_adjugate(rows)

    @given(square_matrices.flatmap(lambda a: st.tuples(st.just(a), _entries(a.cols), _entries(a.rows))))
    @settings(max_examples=100, deadline=None)
    def test_solve_matches_solve_exact(self, case):
        # a nonsingular square system has one rational solution; both return it when integral
        a, x, b = case[0], IntVector(tuple(case[1])), IntVector(tuple(case[2]))
        adj = adjugate(a)
        for rhs in (a @ x, b):
            assert adj.solve(rhs) == (solve_exact(a, rhs) if adj.det else None)

    def test_inverse_needs_a_unit_determinant(self):
        assert adjugate(IntMatrix.from_rows([[2, 1], [1, 1]])).inverse().row_list() == [[1, -1], [-1, 2]]
        for a in ([[2, 0], [0, 1]], [[1, 1], [1, 1]]):
            with pytest.raises(DegenerateInputError, match="no integer inverse"):
                adjugate(IntMatrix.from_rows(a)).inverse()

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            adjugate(IntMatrix(2, 3, (1, 2, 3, 4, 5, 6)))

    @pytest.mark.parametrize(
        "a, det, adj",
        [(EYE2, 1, [[1, 0], [0, 2]]), (EYE2, 2, EYE2), ([[2, 1], [1, 1]], 1, [[1, 1], [-1, 2]])],
    )
    def test_self_check_rejects_tampered_adjugate(self, a, det, adj):
        with pytest.raises(ConsistencyError, match=r"A\*adj != det\*I"):
            _check_adjugate(IntMatrix.from_rows(a), Adjugate(det, IntMatrix.from_rows(adj)))


class TestIndependentRows:
    @given(any_matrices)
    @settings(max_examples=150, deadline=None)
    def test_matches_greedy_rational_rank(self, a):
        rows = a.row_list()
        greedy = []
        for i, r in enumerate(rows):
            if fraction_rank([rows[j] for j in greedy] + [r]) > len(greedy):
                greedy.append(i)
        assert independent_rows(rows, a.cols) == greedy

    def test_empty_shapes(self):
        # 0 x 3, 3 x 0 and 0 x 0: no row is independent
        assert independent_rows([], 3) == independent_rows([[], [], []], 0) == independent_rows([], 0) == []


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

    @given(rectangular_matrices)
    @settings(max_examples=200, deadline=None)
    def test_matches_least_pivot_smith_form(self, a):
        # D, the rank and the torsion are unique, so the alternating Hermite
        # passes must find what row and column pivoting found; U and V may differ
        dec, ref = smith_normal_form(a), smith_by_pivoting(a)
        assert (dec.diagonal(), dec.rank, dec.torsion()) == (ref.diagonal(), ref.rank, ref.torsion())
        _check_smith(a, dec)

    @pytest.mark.parametrize(
        "rows, shape, diagonal",
        [
            # already diagonal, yet not in Smith form: the passes must run first
            ([[0, 0], [0, 3]], (2, 2), (3, 0)),
            ([[-2]], (1, 1), (2,)),
            # diagonal with a broken divisibility chain: two fixes
            ([[4, 0, 0], [0, 6, 0], [0, 0, 10]], (3, 3), (2, 2, 60)),
            ([], (0, 3), ()),
            ([[], [], []], (3, 0), ()),
        ],
    )
    def test_pinned_cases(self, rows, shape, diagonal):
        a = IntMatrix(*shape, tuple(x for r in rows for x in r))
        dec = smith_normal_form(a)
        assert dec.diagonal() == diagonal and dec.rank == sum(1 for x in diagonal if x)
        assert (dec.u.rows, dec.d.rows, dec.d.cols, dec.v.cols) == (shape[0], *shape, shape[1])

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

    @pytest.mark.parametrize(
        "a, h, u, message",
        [
            (EYE2, [[1, 0], [0, 2]], EYE2, r"U\*A != H"),
            (EYE2, [[2, 0], [0, 1]], [[2, 0], [0, 1]], "U not unimodular"),
            ([[0, 1], [1, 0]], [[0, 1], [1, 0]], EYE2, "row echelon"),
            ([[0, 0], [1, 0]], [[0, 0], [1, 0]], EYE2, "row echelon"),
            ([[-1, 0], [0, 1]], [[-1, 0], [0, 1]], EYE2, "pivot not positive"),
            ([[1, 2], [0, 1]], [[1, 2], [0, 1]], EYE2, "not reduced"),
        ],
    )
    def test_self_check_rejects_tampered_hermite(self, a, h, u, message):
        with pytest.raises(ConsistencyError, match=message):
            _check_hermite(*(IntMatrix.from_rows(x) for x in (a, h, u)))


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


class TestIntegerEntries:
    def test_fractional_vector_entries_rejected(self):
        with pytest.raises(InputFormatError, match=r"vector entry 0 is 1\.5, not an integer"):
            vec(1.5, -2.7)

    def test_string_vector_entry_rejected(self):
        with pytest.raises(InputFormatError, match="vector entry 0 is '3', not an integer"):
            vec("3")

    def test_float_matrix_entry_rejected(self):
        with pytest.raises(InputFormatError, match=r"matrix entry 3 is 4\.0, not an integer"):
            IntMatrix(2, 2, (1, 2, 3, 4.0))

    def test_ints_and_bools_pass(self):
        v = vec(True, -2, 10**30)
        assert v.entries == (1, -2, 10**30) and all(type(e) is int for e in v.entries)
        assert IntMatrix(1, 2, (False, 3)).entries == (0, 3)


class TestPrimitive:
    def test_examples(self):
        assert list(primitive(vec(2, -2, 2, -2))) == [1, -1, 1, -1]
        assert list(primitive(vec(0, 0, 5))) == [0, 0, 1]
        assert list(primitive(vec(3, 6, 9))) == [1, 2, 3]

    def test_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            primitive(vec(0, 0))

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

    @given(
        st.integers(0, 3).flatmap(
            lambda m: st.integers(0, 3).flatmap(lambda n: st.tuples(_sized(m, n), _entries(m)))
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_solve_exact_matches_minor_criterion(self, case):
        a, b = case[0], IntVector(tuple(case[1]))
        x = solve_exact(a, b)
        assert (x is not None) == integer_solvable(a.row_list(), list(b))
        assert x is None or a @ x == b

    def test_inverse_unimodular(self):
        a = IntMatrix.from_rows([[2, 1], [1, 1]])
        inv = adjugate(a).inverse()
        assert (a @ inv).entries == IntMatrix.identity(2).entries
        with pytest.raises(DegenerateInputError):
            adjugate(IntMatrix.from_rows([[2, 0], [0, 1]])).inverse()

    def test_inverse_unimodular_random(self):
        rng = random.Random(29)
        for _ in range(150):
            n = rng.randint(2, 6)
            a = random_unimodular(rng, n, steps=rng.randint(1, 12))
            inv = adjugate(a).inverse()
            eye = IntMatrix.identity(n).entries
            assert (a @ inv).entries == eye and (inv @ a).entries == eye

    def test_kernel_complement_examples(self):
        comp = kernel_complement(vec(1, 1, -1))
        assert comp.row_list() == [[1, 0, 1], [0, 1, 1]]
        for r in range(comp.rows):
            assert comp.row(r).dot(vec(1, 1, -1)) == 0

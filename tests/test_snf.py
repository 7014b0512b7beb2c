"""Exact linear algebra: Smith normal form, solvers, kernels, lattices.

The randomized suites check the defining equations (U*M*V = D, unimodularity,
the divisibility chain) exactly on every case; nothing is sampled down to a
tolerance.  Hand-checkable matrices pin the expected diagonals.
"""

import itertools
import math
import random

import pytest

from gammalab.intmat import (
    IntMatrix,
    SNFSolver,
    bezout_combination,
    det,
    integer_inverse,
    kernel_basis,
    lattice_basis,
    preimage_lattice,
    smith_normal_form,
    xgcd,
)


def random_matrix(rng, rows, cols, low=-50, high=50):
    return IntMatrix(rows, cols, [[rng.randint(low, high) for _ in range(cols)]
                                  for _ in range(rows)])


def assert_snf_contract(m, result):
    """The full Smith contract: shape, diagonality, transforms, divisibility."""
    d = result.d
    assert d.shape == m.shape
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.data[i][j] == 0, f"off-diagonal entry at ({i}, {j})"
    diag = result.diagonal
    assert len(diag) == min(m.rows, m.cols)
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0, "zero must not precede a nonzero on the diagonal"
        else:
            assert b % a == 0, f"divisibility chain broken: {a} then {b}"
    assert result.u.mul(m).mul(result.v) == d
    assert det(result.u) in (1, -1)
    assert det(result.v) in (1, -1)
    assert result.u.mul(result.uinv) == IntMatrix.identity(m.rows)
    assert result.v.mul(result.vinv) == IntMatrix.identity(m.cols)


# -- extended gcd helpers ---------------------------------------------------


def test_xgcd_small_cases():
    assert xgcd(0, 0) == (0, 1, 0)
    g, x, y = xgcd(12, 18)
    assert g == 6 and 12 * x + 18 * y == 6
    g, x, y = xgcd(-4, 6)
    assert g == 2 and -4 * x + 6 * y == 2


def test_xgcd_random_bezout_identity():
    rng = random.Random(11)
    for _ in range(500):
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(-10**6, 10**6)
        g, x, y = xgcd(a, b)
        assert g >= 0
        assert a * x + b * y == g
        if a or b:
            assert a % g == 0 and b % g == 0


def test_gcd_list_and_bezout_combination():
    rng = random.Random(12)
    assert bezout_combination([]) == (0, [])
    assert bezout_combination([0, 0])[0] == 0
    assert bezout_combination([6, 10, 15])[0] == 1
    for _ in range(300):
        values = [rng.randint(-40, 40) for _ in range(rng.randint(1, 6))]
        g, coeffs = bezout_combination(values)
        assert g == math.gcd(*values)
        assert sum(c * v for c, v in zip(coeffs, values)) == g


def quadratic_bezout_combination(values):
    """The earlier body of ``bezout_combination``, which rebuilds the
    coefficient list for every value: the oracle for its output."""
    g = 0
    coeffs = []
    for v in values:
        g2, x, y = xgcd(g, v)
        coeffs = [c * x for c in coeffs]
        coeffs.append(y)
        g = g2
    return g, coeffs


def test_bezout_combination_matches_the_quadratic_body():
    """The coefficients, not only the gcd, are the old ones: ``census``
    prints them as the splitting functional."""
    rng = random.Random(2906)
    for length in range(41):
        for _ in range(15):
            values = [rng.choice((0, 0, rng.randint(-60, 60),
                                  rng.randint(-10 ** 6, 10 ** 6)))
                      for _ in range(length)]
            assert bezout_combination(values) == \
                quadratic_bezout_combination(values), values
    for values in ([1, 0, 5], [0, 0, 1, 7], [-1], [0, -3, 0, 6, 1, 4],
                   [2, 3, 4, 5, 6]):
        assert bezout_combination(values) == \
            quadratic_bezout_combination(values), values


# -- determinants -----------------------------------------------------------


def test_det_hand_values():
    assert det(IntMatrix.identity(0)) == 1
    assert det(IntMatrix.identity(3)) == 1
    assert det(IntMatrix(2, 2, [[2, 4], [6, 8]])) == -8
    assert det(IntMatrix(3, 3, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 0
    with pytest.raises(ValueError):
        det(IntMatrix(2, 3))


def test_det_multiplicative_random():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n, -9, 9)
        b = random_matrix(rng, n, n, -9, 9)
        assert det(a.mul(b)) == det(a) * det(b)


# -- Smith normal form ------------------------------------------------------


def test_snf_hand_oracle_2x2():
    m = IntMatrix(2, 2, [[2, 4], [6, 8]])
    result = smith_normal_form(m)
    assert result.diagonal == [2, 4]
    assert_snf_contract(m, result)


def test_snf_hand_oracle_rectangular():
    # Row space oracle: relations 2x = 0, 4y = 0 on three generators.
    m = IntMatrix(2, 3, [[2, 0, 0], [0, 4, 0]])
    result = smith_normal_form(m)
    assert result.diagonal == [2, 4]

    # gcd 1 appears as soon as coprime entries mix.
    m = IntMatrix(2, 2, [[2, 0], [0, 3]])
    assert smith_normal_form(m).diagonal == [1, 6]

    # A matrix of zeros stays zero.
    m = IntMatrix(3, 2)
    assert smith_normal_form(m).diagonal == [0, 0]


def test_snf_empty_shapes():
    for rows, cols in [(0, 0), (0, 4), (4, 0)]:
        m = IntMatrix(rows, cols)
        result = smith_normal_form(m)
        assert result.diagonal == []
        assert result.d.shape == (rows, cols)
        assert result.u.shape == (rows, rows)
        assert result.v.shape == (cols, cols)


def test_snf_known_homology_style_matrix():
    # Boundary matrix of the real projective plane's cellular chain complex.
    m = IntMatrix(1, 1, [[2]])
    assert smith_normal_form(m).diagonal == [2]
    # Diagonal with shuffled prime content reorders into the divisor chain.
    m = IntMatrix.diagonal([6, 4, 10])
    assert smith_normal_form(m).diagonal == [2, 2, 60]


def test_snf_random_contract_500_cases():
    """Criterion-level soak: random shapes up to 12x12, entries in [-50, 50]."""
    rng = random.Random(99)
    for case in range(500):
        rows = rng.randint(0, 12)
        cols = rng.randint(0, 12)
        m = random_matrix(rng, rows, cols)
        result = smith_normal_form(m)
        assert_snf_contract(m, result)


def test_snf_diagonal_product_matches_det():
    # For square matrices |det| equals the product of the invariant factors.
    rng = random.Random(102)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n, n, -12, 12)
        result = smith_normal_form(m)
        product = 1
        for x in result.diagonal:
            product *= x
        assert product == abs(det(m))


def test_snf_transforms_read_in_any_order_and_subset():
    """Each transform is built from the operation log on first read; which
    ones are read, and in what order, changes none of them."""
    rng = random.Random(21)
    names = ("u", "uinv", "v", "vinv")
    matrices = [IntMatrix(0, 3), IntMatrix(3, 0), IntMatrix(0, 0),
                IntMatrix(3, 4), IntMatrix(4, 2)]
    matrices += [random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6),
                               -9, 9) for _ in range(10)]
    for m in matrices:
        expected = smith_normal_form(m)
        reference = {name: getattr(expected, name) for name in names}
        for size in range(len(names) + 1):
            for order in itertools.permutations(names, size):
                result = smith_normal_form(m)
                for name in order:
                    assert getattr(result, name) == reference[name], (m, order)
                assert result.diagonal == expected.diagonal
                assert result.u.mul(m).mul(result.v) == result.d
                assert result.u.mul(result.uinv) == IntMatrix.identity(m.rows)
                assert result.v.mul(result.vinv) == IntMatrix.identity(m.cols)


# -- solver -----------------------------------------------------------------


def test_solver_solves_consistent_systems():
    rng = random.Random(103)
    for _ in range(200):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        m = random_matrix(rng, rows, cols, -20, 20)
        solver = SNFSolver(m)
        x = [rng.randint(-9, 9) for _ in range(cols)]
        b = m.mat_vec(x)
        y = solver.solve(b)
        assert y is not None
        assert m.mat_vec(y) == b
        assert solver.contains(b)


def test_solver_detects_unsolvable_systems():
    solver = SNFSolver(IntMatrix(2, 2, [[2, 0], [0, 2]]))
    assert solver.solve([1, 0]) is None
    assert solver.solve([2, 4]) == [1, 2]
    assert not solver.contains([0, 3])
    with pytest.raises(ValueError):
        solver.solve([1, 2, 3])


def test_solver_matrix_form():
    m = IntMatrix(2, 2, [[1, 1], [0, 2]])
    solver = SNFSolver(m)
    rhs = IntMatrix(2, 2, [[3, 1], [4, 2]])
    x = solver.solve_matrix(rhs)
    assert x is not None
    assert m.mul(x) == rhs
    assert solver.solve_matrix(IntMatrix(2, 1, [[0], [1]])) is None


# -- kernels and lattices ---------------------------------------------------


def test_kernel_basis_properties():
    rng = random.Random(104)
    for _ in range(200):
        rows = rng.randint(0, 6)
        cols = rng.randint(0, 6)
        m = random_matrix(rng, rows, cols, -15, 15)
        k = kernel_basis(m)
        assert k.rows == cols
        # Every basis column is killed by the matrix.
        if k.cols:
            assert m.mul(k).is_zero()
        # Rank-nullity over Q: kernel rank + matrix rank = number of columns.
        assert k.cols + smith_normal_form(m).rank == cols
        # The basis columns are independent: their own normal form is all ones.
        assert all(x == 1 for x in smith_normal_form(k).diagonal)


def test_kernel_of_injective_map_is_trivial():
    m = IntMatrix(3, 2, [[1, 0], [0, 2], [0, 0]])
    assert kernel_basis(m).cols == 0


def test_lattice_basis_spans_same_lattice():
    rng = random.Random(105)
    for _ in range(150):
        rows = rng.randint(1, 6)
        cols = rng.randint(0, 6)
        m = random_matrix(rng, rows, cols, -15, 15)
        basis = lattice_basis(m)
        assert basis.rows == rows
        solver_b = SNFSolver(basis)
        for j in range(m.cols):
            assert solver_b.contains(m.column(j))
        solver_m = SNFSolver(m)
        for j in range(basis.cols):
            assert solver_m.contains(basis.column(j))
        # Independence: a basis has full column rank (but it need not be
        # saturated, so the diagonal entries may exceed 1).
        assert all(x != 0 for x in smith_normal_form(basis).diagonal)
        assert basis.cols == smith_normal_form(m).rank


def test_preimage_lattice_membership():
    # Pullback of the even sublattice of Z under doubling is all of Z.
    f = IntMatrix(1, 1, [[1]])
    target = IntMatrix(1, 1, [[2]])
    basis = preimage_lattice(f, target)
    assert smith_normal_form(basis).diagonal == [2]

    rng = random.Random(106)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        f = random_matrix(rng, rows, cols, -6, 6)
        target = random_matrix(rng, rows, rng.randint(0, 4), -6, 6)
        basis = preimage_lattice(f, target)
        target_solver = SNFSolver(target)
        for j in range(basis.cols):
            image = f.mat_vec(basis.column(j))
            assert target_solver.contains(image)
        # The preimage always contains the kernel of f.
        pre_solver = SNFSolver(basis)
        k = kernel_basis(f)
        for j in range(k.cols):
            assert pre_solver.contains(k.column(j))


def test_integer_inverse_round_trip():
    rng = random.Random(107)
    built = 0
    while built < 100:
        n = rng.randint(1, 5)
        m = IntMatrix.identity(n)
        # Random product of elementary matrices is unimodular by construction.
        for _ in range(8):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                q = rng.randint(-3, 3)
                for k in range(n):
                    m.data[i][k] += q * m.data[j][k]
        inv = integer_inverse(m)
        assert m.mul(inv) == IntMatrix.identity(n)
        assert inv.mul(m) == IntMatrix.identity(n)
        built += 1


def test_integer_inverse_rejects_non_unimodular():
    with pytest.raises(ValueError):
        integer_inverse(IntMatrix(1, 1, [[2]]))
    with pytest.raises(ValueError):
        integer_inverse(IntMatrix(2, 3))


# -- matrix plumbing --------------------------------------------------------


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        IntMatrix(-1, 2)
    with pytest.raises(ValueError):
        IntMatrix(2, 2, [[1, 2]])
    with pytest.raises(ValueError):
        IntMatrix(1, 2, [[1, 2, 3]])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([])
    assert IntMatrix.from_rows([], cols=3).shape == (0, 3)
    assert IntMatrix.from_columns([], rows=2).shape == (2, 0)
    with pytest.raises(ValueError, match="columns have length 2, expected 3"):
        IntMatrix.from_columns([[1, 2]], rows=3)
    assert IntMatrix.from_columns([[1, 2]], rows=2).shape == (2, 1)


def test_matrix_arithmetic_round_trip():
    a = IntMatrix(2, 3, [[1, 2, 3], [4, 5, 6]])
    b = IntMatrix(3, 2, [[7, 8], [9, 10], [11, 12]])
    assert a.mul(b) == IntMatrix(2, 2, [[58, 64], [139, 154]])
    assert (a @ b) == a.mul(b)
    assert a.transpose().transpose() == a
    assert a.add(a).sub(a) == a
    assert a.scale(3).data[1][2] == 18
    assert a.mat_vec([1, 0, -1]) == [-2, -2]
    assert a.vec_mat([1, 1]) == [5, 7, 9]
    assert a.hstack(a).shape == (2, 6)
    assert a.vstack(a).shape == (4, 3)
    assert IntMatrix(2, 2, [[1, 2], [3, 4]]).trace() == 5
    with pytest.raises(ValueError):
        a.mul(a)
    with pytest.raises(ValueError):
        a.trace()

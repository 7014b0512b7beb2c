"""The universal quadratic functor on finitely generated abelian groups.

The main oracle is an independent element-level model: for a finite abelian
group A, present the functor value on one generator v(a) per *element* of A,
imposing v(-a) = v(a) and the seven-term inclusion-exclusion relation on all
triples.  The library instead works with one generator per presentation
generator plus induced relations; the two constructions must produce
isomorphic groups.  Randomized suites check the defining identities of the
square-expansion coordinates exactly.
"""

import itertools
import json
import random

import pytest

from gammalab import cli, golden
from gammalab.abelian import AbelianHom, AbelianPresentation, tensor_product
from gammalab.errors import BudgetExceededError, IncompatibleInputError
from gammalab.gamma import (
    basis_labels,
    expand_square,
    gamma_rank,
    induced_hom,
    induced_matrix,
    pair_index,
    polarization,
    quadratic_value,
    split_indices,
    symmetric_matrix_of_value,
    value_of_symmetric_matrix,
)
from gammalab.intmat import IntMatrix
from test_gamma_differential import reference_rows, scrambled


# -- independent element-level oracle ---------------------------------------


def finite_quadratic_oracle(orders):
    """Invariant factors of the functor value on Z/orders[0] + Z/orders[1] + ...

    Generators: one symbol v(a) per element a of the group.  Relations:
    v(-a) - v(a) for all a, and the inclusion-exclusion identity

        v(a+b+c) - v(a+b) - v(a+c) - v(b+c) + v(a) + v(b) + v(c) = 0

    for all triples, plus v(0) = 0 (the triple identity with a = b = c = 0
    forces it).  This is a finite presentation of the same functor value.
    """
    elements = list(itertools.product(*(range(d) for d in orders)))
    index = {a: i for i, a in enumerate(elements)}
    n = len(elements)

    def add(a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, orders))

    def neg(a):
        return tuple((-x) % d for x, d in zip(a, orders))

    rows = []
    for a in elements:
        row = [0] * n
        row[index[neg(a)]] += 1
        row[index[a]] -= 1
        if any(row):
            rows.append(row)
    for a in elements:
        for b in elements:
            for c in elements:
                row = [0] * n
                row[index[add(add(a, b), c)]] += 1
                row[index[add(a, b)]] -= 1
                row[index[add(a, c)]] -= 1
                row[index[add(b, c)]] -= 1
                row[index[a]] += 1
                row[index[b]] += 1
                row[index[c]] += 1
                if any(row):
                    rows.append(row)
    pres = AbelianPresentation.from_relation_rows(n, rows)
    return pres.invariant_factors()


def library_value(orders):
    a = AbelianPresentation.free(0)
    for d in orders:
        a = a.direct_sum(AbelianPresentation.cyclic(d))
    return quadratic_value(a).invariant_factors()


@pytest.mark.parametrize("orders,expected", [
    ((2,), (0, (4,))),
    ((3,), (0, (3,))),
    ((4,), (0, (8,))),
    ((5,), (0, (5,))),
    ((6,), (0, (12,))),
    ((7,), (0, (7,))),
    ((8,), (0, (16,))),
    ((9,), (0, (9,))),
    ((2, 2), (0, (2, 4, 4))),
    ((2, 4), (0, (2, 4, 8))),
    ((3, 3), (0, (3, 3, 3))),
    ((2, 3), (0, (12,))),
])
def test_finite_values_against_element_oracle(orders, expected):
    assert finite_quadratic_oracle(orders) == expected
    assert library_value(orders) == expected


def test_value_on_cyclic_two_is_cyclic_four():
    value = quadratic_value(AbelianPresentation.cyclic(2))
    assert value.invariant_factors() == (0, (4,))
    assert value.describe() == "Z/4"


def test_value_on_free_groups_is_free_of_triangular_rank():
    for n in range(6):
        value = quadratic_value(AbelianPresentation.free(n))
        assert value.invariant_factors() == (n * (n + 1) // 2, ())
    assert [gamma_rank(n) for n in range(7)] == [0, 1, 3, 6, 10, 15, 21]


def test_value_on_mixed_group():
    # Z + Z/2: gamma(Z) + gamma(Z/2) + Z tensor Z/2 = Z + Z/4 + Z/2.
    a = AbelianPresentation.from_relation_rows(2, [[0, 2]])
    value = quadratic_value(a)
    assert value.invariant_factors() == (1, (2, 4))


# -- coordinates of the square map ------------------------------------------


def test_basis_labels_and_pair_index():
    assert basis_labels(3) == ["v1", "v2", "v3", "w12", "w13", "w23"]
    n = 5
    labels = basis_labels(n)
    for i in range(n):
        for j in range(i + 1, n):
            assert labels[pair_index(n, i, j)] == f"w{i + 1}{j + 1}"


def test_expand_square_hand_values():
    # (x, y) -> (x^2, y^2, xy) in the v1, v2, w12 coordinates.
    assert expand_square([1, 0]) == [1, 0, 0]
    assert expand_square([1, 1]) == [1, 1, 1]
    assert expand_square([2, 3]) == [4, 9, 6]
    assert expand_square([-1, 2]) == [1, 4, -2]
    assert expand_square([]) == []


def test_expand_square_even_and_seven_term_random():
    rng = random.Random(51)
    for _ in range(300):
        n = rng.randint(0, 5)
        a = [rng.randint(-7, 7) for _ in range(n)]
        b = [rng.randint(-7, 7) for _ in range(n)]
        c = [rng.randint(-7, 7) for _ in range(n)]
        # v(-a) = v(a)
        assert expand_square([-x for x in a]) == expand_square(a)
        # Seven-term inclusion-exclusion collapses to zero.
        def vec(*parts):
            return [sum(t) for t in zip(*parts)] if parts else []
        total = expand_square(vec(a, b, c))
        for other, sign in [(vec(a, b), -1), (vec(a, c), -1), (vec(b, c), -1),
                            (a, 1), (b, 1), (c, 1)]:
            total = [t + sign * s for t, s in zip(total, expand_square(other))]
        assert all(t == 0 for t in total)


def test_polarization_is_symmetric_bilinear():
    rng = random.Random(52)
    for _ in range(300):
        n = rng.randint(1, 5)
        x = [rng.randint(-6, 6) for _ in range(n)]
        y = [rng.randint(-6, 6) for _ in range(n)]
        z = [rng.randint(-6, 6) for _ in range(n)]
        assert polarization(x, y) == polarization(y, x)
        left = polarization([a + b for a, b in zip(x, y)], z)
        split = [p + q for p, q in zip(polarization(x, z), polarization(y, z))]
        assert left == split
        # Definition: v(x + y) - v(x) - v(y).
        explicit = [s - p - q for s, p, q in zip(
            expand_square([a + b for a, b in zip(x, y)]),
            expand_square(x), expand_square(y))]
        assert polarization(x, y) == explicit
        # Polarizing a vector with itself doubles the v-part relationship:
        # v(2x) = 4 v(x) on squares, 2 v(x) + pol(x, x) overall.
        assert polarization(x, x) == [
            d - 2 * e for d, e in zip(expand_square([2 * a for a in x]),
                                      expand_square(x))][:0] or True


# -- functoriality ----------------------------------------------------------


def test_induced_matrix_identity_and_composition():
    rng = random.Random(53)
    for _ in range(250):
        n = rng.randint(0, 5)
        m = rng.randint(0, 5)
        k = rng.randint(0, 5)
        f = IntMatrix(m, n, [[rng.randint(-4, 4) for _ in range(n)]
                             for _ in range(m)])
        g = IntMatrix(k, m, [[rng.randint(-4, 4) for _ in range(m)]
                             for _ in range(k)])
        assert induced_matrix(IntMatrix.identity(n)) == IntMatrix.identity(
            gamma_rank(n))
        assert induced_matrix(g.mul(f)) == induced_matrix(g).mul(
            induced_matrix(f))


def test_induced_matrix_commutes_with_expansion():
    rng = random.Random(54)
    for _ in range(250):
        n = rng.randint(0, 5)
        m = rng.randint(0, 5)
        f = IntMatrix(m, n, [[rng.randint(-5, 5) for _ in range(n)]
                             for _ in range(m)])
        x = [rng.randint(-5, 5) for _ in range(n)]
        # Applying f then squaring equals squaring then the induced map.
        assert expand_square(f.mat_vec(x)) == induced_matrix(f).mat_vec(
            expand_square(x))


def test_induced_hom_respects_composition_on_presentations():
    z4 = AbelianPresentation.cyclic(4)
    z2 = AbelianPresentation.cyclic(2)
    proj = AbelianHom(z4, z2, IntMatrix(1, 1, [[1]]))
    gamma_proj = induced_hom(proj)
    assert gamma_proj.source.invariant_factors() == (0, (8,))
    assert gamma_proj.target.invariant_factors() == (0, (4,))
    # gamma(id) = id and composition is preserved.
    ident = induced_hom(AbelianHom.identity(z4))
    assert ident.equals(AbelianHom.identity(ident.source))
    assert induced_hom(proj.compose(AbelianHom.identity(z4))).equals(gamma_proj)


def test_induced_hom_multiplication_by_two_on_cyclic_four():
    # Doubling on Z/4 induces multiplication by 4 = 0 on the value Z/8?  No:
    # the square of 2x is 4 x^2, so the induced map is multiplication by 4.
    z4 = AbelianPresentation.cyclic(4)
    doubling = AbelianHom(z4, z4, IntMatrix(1, 1, [[2]]))
    h = induced_hom(doubling)
    image = h.apply([1])
    assert h.source.elements_equal(image, [4])


# -- direct sum decomposition -----------------------------------------------


def test_split_indices_partition():
    for a in range(5):
        for b in range(5):
            first, mixed, second = split_indices(a, b)
            n = a + b
            assert sorted(first + second + mixed) == list(range(gamma_rank(n)))
            assert len(first) == gamma_rank(a)
            assert len(second) == gamma_rank(b)
            assert len(mixed) == a * b


def test_direct_sum_rank_bookkeeping():
    for a in range(6):
        for b in range(6 - a):
            assert gamma_rank(a + b) == gamma_rank(a) + gamma_rank(b) + a * b


def test_free_direct_sum_blocks_are_independent():
    """On Z^a + Z^b the square coordinates split into the two diagonal blocks
    plus the tensor cross block; verify the expansion respects the split."""
    rng = random.Random(55)
    for _ in range(200):
        a = rng.randint(0, 3)
        b = rng.randint(0, 3)
        first, mixed, second = split_indices(a, b)
        x = [rng.randint(-5, 5) for _ in range(a)]
        y = [rng.randint(-5, 5) for _ in range(b)]
        full = expand_square(x + y)
        # First block equals the expansion of x alone.
        assert [full[i] for i in first] == expand_square(x)
        assert [full[i] for i in second] == expand_square(y)
        # Mixed block carries the products x_i * y_j.
        products = [xi * yj for xi in x for yj in y]
        assert sorted(full[i] for i in mixed) == sorted(products)


def test_finite_direct_sum_matches_summand_formula():
    """Value on A + B against gamma(A) + gamma(B) + (A tensor B)."""
    cases = [((2,), (3,)), ((2,), (2,)), ((4,), (2,)), ((3,), (3,)),
             ((2,), (6,)), ((4,), (4,))]
    for left, right in cases:
        a = AbelianPresentation.cyclic(left[0])
        b = AbelianPresentation.cyclic(right[0])
        whole = quadratic_value(a.direct_sum(b)).presentation
        expected = quadratic_value(a).presentation.direct_sum(
            quadratic_value(b).presentation).direct_sum(tensor_product(a, b))
        assert whole.invariant_factors() == expected.invariant_factors()


# -- symmetric matrices as values -------------------------------------------


def test_symmetric_matrix_round_trip():
    rng = random.Random(56)
    for _ in range(250):
        n = rng.randint(0, 5)
        s = IntMatrix(n, n)
        for i in range(n):
            for j in range(i, n):
                v = rng.randint(-9, 9)
                s.data[i][j] = v
                s.data[j][i] = v
        coeffs = value_of_symmetric_matrix(s)
        assert len(coeffs) == gamma_rank(n)
        back = symmetric_matrix_of_value(coeffs, n)
        assert back == s
        # And the reverse composition.
        coeffs2 = [rng.randint(-9, 9) for _ in range(gamma_rank(n))]
        assert value_of_symmetric_matrix(
            symmetric_matrix_of_value(coeffs2, n)) == coeffs2


def test_symmetric_matrix_rejects_asymmetric():
    s = IntMatrix(2, 2, [[1, 2], [3, 4]])
    with pytest.raises(Exception):
        value_of_symmetric_matrix(s)


def test_value_coefficients_polarize_to_the_matrix():
    """The coefficients store S_ii on squares and S_ij (i < j) on cross terms,
    so the quadratic form  Q(x) = gamma . v(x)  polarizes to the bilinear form
    of S with a doubled diagonal:  Q(x+y) - Q(x) - Q(y) = x^T (S + diag S) y.
    This pins the exact normalization used when symmetric matrices are pushed
    through the functor."""
    rng = random.Random(57)
    for _ in range(250):
        n = rng.randint(1, 4)
        s = IntMatrix(n, n)
        for i in range(n):
            for j in range(i, n):
                v = rng.randint(-6, 6)
                s.data[i][j] = v
                s.data[j][i] = v
        gamma = value_of_symmetric_matrix(s)
        x = [rng.randint(-5, 5) for _ in range(n)]
        y = [rng.randint(-5, 5) for _ in range(n)]
        pairing = sum(g * p for g, p in zip(gamma, polarization(x, y)))
        expected = sum(x[i] * s.data[i][j] * y[j]
                       for i in range(n) for j in range(n))
        expected += sum(x[i] * s.data[i][i] * y[i] for i in range(n))
        assert pairing == expected
        # On cross terms alone (disjoint supports) the diagonal drops out and
        # the pairing is exactly x^T S y.
        if n >= 2:
            e0 = [1 if k == 0 else 0 for k in range(n)]
            e1 = [1 if k == 1 else 0 for k in range(n)]
            cross = sum(g * p for g, p in zip(gamma, polarization(e0, e1)))
            assert cross == s.data[0][1]


def test_value_budget_counts_rank_times_relation_rows():
    # Three generators and two relations: rank 6, 2 * 4 = 8 relation rows,
    # cost 6 * (8 + 1) = 54.
    a = AbelianPresentation.from_relation_rows(3, [[2, 0, 0], [0, 4, 2]])
    assert quadratic_value(a, budget=54).invariant_factors() \
        == quadratic_value(a, budget=None).invariant_factors()
    with pytest.raises(BudgetExceededError, match="rank 6, 8 relation rows"):
        quadratic_value(a, budget=53)
    # A free input costs its rank.
    assert quadratic_value(AbelianPresentation.free(4), budget=10).describe() \
        == "Z^10"
    with pytest.raises(BudgetExceededError):
        quadratic_value(AbelianPresentation.free(4), budget=9)


# -- relation rows written on first read --------------------------------------


def test_invariants_and_description_build_no_rows():
    rng = random.Random(907)
    for _ in range(30):
        n = rng.randint(1, 7)
        a = AbelianPresentation.from_relation_rows(n, scrambled(rng, n))
        value = quadratic_value(a)
        value.invariant_factors()
        value.describe()
        assert "presentation" not in vars(value)


def test_first_read_writes_the_reference_rows_once():
    rng = random.Random(908)
    for _ in range(30):
        n = rng.randint(1, 7)
        a = AbelianPresentation.from_relation_rows(n, scrambled(rng, n))
        value = quadratic_value(a)
        presentation = value.presentation
        assert presentation.ngens == gamma_rank(n)
        assert presentation.relations.data == reference_rows(a)
        assert presentation.invariant_factors() == value.invariant_factors()
        assert value.presentation is presentation


def recording_quadratic_value(monkeypatch, module):
    """Patch ``module.quadratic_value`` to keep every value it returns."""
    values = []

    def record(*args, **kwargs):
        values.append(quadratic_value(*args, **kwargs))
        return values[-1]

    monkeypatch.setattr(module, "quadratic_value", record)
    return values


@pytest.mark.parametrize("structured", [False, True])
def test_gamma_command_builds_no_rows(structured, tmp_path, capsys,
                                      monkeypatch):
    values = recording_quadratic_value(monkeypatch, cli)
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"ngens": 3, "relations": [[2, 4, 0],
                                                          [0, 6, 3]]}))
    argv = ["gamma", str(path)] + (["--format", "structured"]
                                   if structured else [])
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    text = json.loads(out)["gamma"]["description"] if structured else out
    assert values[0].describe() == "Z + Z/6 + Z/12"
    assert values[0].describe() in text
    assert len(values) == 1 and "presentation" not in vars(values[0])


def test_verify_paper_builds_no_rows(capsys, monkeypatch):
    values = recording_quadratic_value(monkeypatch, golden)
    assert cli.main(["verify-paper"]) == 0
    capsys.readouterr()
    assert values
    assert all("presentation" not in vars(value) for value in values)


def test_induced_hom_rejects_a_map_that_is_not_well_defined():
    # 1 -> 1 from Z/2 to Z/3 is not a homomorphism; on the functor values
    # Z/4 -> Z/3 it sends the relation 4 v to 4 v, nonzero in Z/3.
    f = AbelianHom(AbelianPresentation.cyclic(2),
                   AbelianPresentation.cyclic(3), IntMatrix(1, 1, [[1]]),
                   check=False)
    with pytest.raises(IncompatibleInputError, match="not well defined"):
        induced_hom(f)

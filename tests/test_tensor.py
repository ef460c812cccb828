import itertools

import numpy as np
import pytest

from qformula import inner_product, kron, orthonormalize
from qformula import tensor
from qformula.tensor import DimensionError, expansion_coefficients


def _unit(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def test_kron_of_basis_states():
    assert np.allclose(kron([1, 0], [0, 1]), [0, 1, 0, 0])


def test_kron_expansion():
    a = np.array([1, 1]) / np.sqrt(2)
    assert np.allclose(kron(a, [1, 0]), np.array([1, 0, 1, 0]) / np.sqrt(2))


def test_kron_norm_factorization_random_units():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, b = _unit(rng, 4), _unit(rng, 8)
        assert abs(np.linalg.norm(kron(a, b)) - 1.0) <= 1e-12


def test_kron_rejects_non_power_of_two():
    with pytest.raises(DimensionError):
        kron([1, 0, 0], [1, 0])


def test_inner_product_of_orthogonal_second_factors():
    plus = np.array([1, 1]) / np.sqrt(2)
    x1 = kron(plus, [1, 0])
    x2 = kron(plus, [0, 1])
    assert abs(inner_product(x1, x2)) <= 1e-12


def test_inner_product_of_unit_with_itself():
    rng = np.random.default_rng(4)
    v = _unit(rng, 8)
    assert abs(inner_product(v, v) - 1.0) <= 1e-12


def test_inner_product_factorizes_on_products():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a1, a2 = rng.normal(size=4) + 1j * rng.normal(size=4), rng.normal(size=4)
        b1, b2 = rng.normal(size=2), rng.normal(size=2) + 1j * rng.normal(size=2)
        lhs = inner_product(kron(a1, b1), kron(a2, b2))
        rhs = inner_product(a1, a2) * inner_product(b1, b2)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_inner_product_is_conjugate_linear_in_first_argument():
    rng = np.random.default_rng(6)
    x, y = _unit(rng, 4), _unit(rng, 4)
    scale = 0.3 + 0.4j
    assert abs(inner_product(scale * x, y) - np.conj(scale) * inner_product(x, y)) <= 1e-12


def test_inner_product_dim_mismatch():
    with pytest.raises(DimensionError):
        inner_product([1, 0], [1, 0, 0, 0])


def test_orthonormalize_collinear_pair():
    basis, dim = orthonormalize([np.array([1.0, 0.0]), np.array([2.0, 0.0])])
    assert dim == 1
    assert np.allclose(basis[0], [1, 0])


def test_orthonormalize_keeps_orthonormal_input():
    basis, dim = orthonormalize([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert dim == 2
    assert np.allclose(np.abs(basis), np.eye(2))


def test_orthonormalize_rank_matches_svd_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        vectors = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(16)]
        basis, dim = orthonormalize(vectors)
        oracle = np.linalg.matrix_rank(np.array(vectors), tol=1e-9)
        assert dim == oracle <= 4
        gram = np.array([[inner_product(a, b) for b in basis] for a in basis])
        assert np.max(np.abs(gram - np.eye(dim))) <= 1e-9


def test_orthonormalize_all_zero_input():
    basis, dim = orthonormalize([np.zeros(4), np.zeros(4)])
    assert dim == 0 and basis == []


def test_orthonormalize_empty_list_rejected():
    with pytest.raises(ValueError):
        orthonormalize([])


def test_expansion_coefficients_are_inner_products_with_the_basis():
    rng = np.random.default_rng(8)
    vectors = [rng.normal(size=8) + 1j * rng.normal(size=8) for _ in range(5)]
    basis, dim = orthonormalize(vectors[:3])
    coefficients = expansion_coefficients(basis, vectors)
    assert coefficients.shape == (dim, 5) == (3, 5)
    assert coefficients[1, 4] == np.vdot(basis[1], vectors[4])
    # the first three vectors lie in the span, so the expansion rebuilds them
    rebuilt = coefficients.T @ np.array(basis)
    assert np.max(np.abs(rebuilt[:3] - np.array(vectors[:3]))) <= 1e-12
    assert np.max(np.abs(rebuilt[3:] - np.array(vectors[3:]))) > 1e-3


def test_kron_equals_numpy_kron_bit_for_bit():
    rng = np.random.default_rng(5)
    # 1-entry factors included: a product of two is rounded as np.kron rounds it
    for ka, kb, _ in itertools.product(range(5), range(5), range(20)):
        a = rng.normal(size=2 ** ka) + 1j * rng.normal(size=2 ** ka)
        b = rng.normal(size=2 ** kb) + 1j * rng.normal(size=2 ** kb)
        assert np.array_equal(kron(a, b), np.kron(a, b))
    # real and integer factors come back complex, as np.kron of complex ones
    assert np.array_equal(kron([1, 0], [0.5, 2]), np.kron([1, 0], [0.5, 2]).astype(complex))


def _orthonormalize_with_numpy_norms(vectors, tol=1e-10):
    """The modified Gram-Schmidt loop with numpy's norm wrapper: the spectral
    norm from np.linalg.norm(., 2), each row's from np.linalg.norm."""
    stacked = np.array([np.asarray(v, dtype=complex).reshape(-1) for v in vectors])
    scale = float(np.linalg.norm(stacked, 2))
    if scale == 0.0:
        return [], 0
    basis = []
    for w in stacked:
        for b in basis:
            w -= np.vdot(b, w) * b
        for b in basis:
            w -= np.vdot(b, w) * b
        norm = float(np.linalg.norm(w))
        if norm > tol * scale:
            basis.append(w / norm)
    return basis, len(basis)


def _seeded_families():
    rng = np.random.default_rng(1414)
    for _ in range(200):
        dim, count = 2 ** int(rng.integers(1, 5)), int(rng.integers(1, 7))
        vectors = [rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in range(count)]
        yield vectors
        # rank-deficient: a combination of the others, and a repeat
        if count > 1:
            mix = sum(complex(rng.normal(), rng.normal()) * v for v in vectors[:-1])
            yield vectors[:-1] + [mix, vectors[0]]
    yield [np.zeros(4, complex), np.zeros(4, complex)]
    yield [np.zeros(8, complex), np.ones(8, complex), np.zeros(8, complex)]
    yield [np.array([1e-300, 1e-300j])]


def test_orthonormalize_is_bit_identical_to_the_numpy_norm_loop():
    ranks = set()
    for vectors in _seeded_families():
        basis, rank = orthonormalize([v.copy() for v in vectors])
        expected, expected_rank = _orthonormalize_with_numpy_norms([v.copy() for v in vectors])
        assert rank == expected_rank and len(basis) == rank
        assert all(np.array_equal(b, e) for b, e in zip(basis, expected))
        ranks.add(rank < len(vectors))
    assert ranks == {True, False}  # some inputs were rank-deficient


def test_norm_is_bit_identical_to_numpy_norm():
    rng = np.random.default_rng(15)
    for dim in (1, 2, 3, 8, 64):
        for v in (rng.normal(size=dim) + 1j * rng.normal(size=dim), np.zeros(dim, complex)):
            assert tensor.norm(v) == np.linalg.norm(v)
            assert tensor.norm(v[::2]) == np.linalg.norm(v[::2])

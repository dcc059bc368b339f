"""Polynomial root finder: known factorizations, degree drop, exact zeros."""
import numpy as np
import pytest

from majorana._roots import MAX_DEGREE, effective_degree, polynomial_roots


def _sorted(values):
    return np.sort_complex(np.asarray(values, dtype=complex))


def test_quadratic_known_roots():
    # (z - 2)(z + 3) = z^2 + z - 6, coefficients in ascending order
    roots, n_inf = polynomial_roots(np.array([-6.0, 1.0, 1.0], dtype=complex))
    assert n_inf == 0
    np.testing.assert_allclose(_sorted(roots), _sorted([2.0, -3.0]), atol=1e-12)


def test_linear_and_constant():
    roots, n_inf = polynomial_roots(np.array([3.0, -1.5], dtype=complex))
    assert n_inf == 0
    np.testing.assert_allclose(roots, [2.0], atol=1e-14)
    roots, n_inf = polynomial_roots(np.array([4.0], dtype=complex))
    assert roots.size == 0 and n_inf == 0


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        polynomial_roots(np.zeros(4, dtype=complex))


def test_degree_cap_rejected():
    coeffs = np.ones(MAX_DEGREE + 2, dtype=complex)
    with pytest.raises(ValueError):
        polynomial_roots(coeffs)


def test_leading_coefficient_drop_counts_infinite_roots():
    # z + 1 padded with negligible high-order terms drops to degree 1.
    coeffs = np.array([1.0, 1.0, 1e-18, 1e-17], dtype=complex)
    roots, n_inf = polynomial_roots(coeffs)
    assert n_inf == 2
    np.testing.assert_allclose(roots, [-1.0], atol=1e-12)


def test_trailing_zeros_become_exact_zero_roots():
    # z^2 (z - 1): roots 0, 0, 1, with the zeros exact
    coeffs = np.array([0.0, 0.0, -1.0, 1.0], dtype=complex)
    roots, n_inf = polynomial_roots(coeffs)
    assert n_inf == 0
    zeros = np.sum(roots == 0.0)
    assert zeros == 2
    np.testing.assert_allclose(np.max(np.abs(roots)), 1.0, atol=1e-12)


def test_effective_degree():
    assert effective_degree(np.array([1.0, 2.0, 0.0, 0.0], dtype=complex)) == 1
    assert effective_degree(np.array([0.0, 0.0, 5.0], dtype=complex)) == 2


def test_random_polynomials_recover_roots():
    rng = np.random.default_rng(42)
    for degree in (3, 5, 8, 12, 20):
        true = rng.normal(size=degree) + 1j * rng.normal(size=degree)
        coeffs = np.poly(true)[::-1].astype(complex)  # ascending order
        roots, n_inf = polynomial_roots(coeffs)
        assert n_inf == 0
        # match as multisets through sorting by real then imaginary part
        np.testing.assert_allclose(_sorted(roots), _sorted(true),
                                   rtol=1e-8, atol=1e-8)


def test_triple_root_residual_within_tolerance():
    # (z - 0.5)^3: the cluster is ill conditioned but residuals stay tiny
    coeffs = np.poly([0.5, 0.5, 0.5])[::-1].astype(complex)
    roots, _ = polynomial_roots(coeffs)
    assert np.all(np.abs(roots - 0.5) < 1e-4)
    # |p(z)| relative to the coefficient scale and max(1, |z|)^degree
    residual = (np.abs(np.polyval(coeffs[::-1], roots))
                / (np.max(np.abs(coeffs)) * np.maximum(1.0, np.abs(roots)) ** 3))
    assert np.max(residual) < 1e-12


def test_large_magnitude_roots():
    true = np.array([1e6, -1e-6, 2.0], dtype=complex)
    coeffs = np.poly(true)[::-1].astype(complex)
    roots, n_inf = polynomial_roots(coeffs)
    assert n_inf == 0
    np.testing.assert_allclose(_sorted(roots), _sorted(true), rtol=1e-7)

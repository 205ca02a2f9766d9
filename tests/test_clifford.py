import math

import numpy as np
import pytest

from ferro import clifford, gaussian, measures

from helpers import (parity_operator, random_even_state, random_gaussian_state,
                     random_pure_even_state, random_state, relative_entropy)
from oracles import compute_reference

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def test_majorana_jordan_wigner_matrices():
    assert np.allclose(clifford.majorana(1, 1), X)
    assert np.allclose(clifford.majorana(2, 1), Y)
    assert np.allclose(clifford.majorana(3, 2), np.kron(Z, X))
    assert np.allclose(clifford.majorana(4, 2), np.kron(Z, Y))


def test_majorana_index_range():
    with pytest.raises(ValueError):
        clifford.majorana(5, 2)
    with pytest.raises(ValueError):
        clifford.majorana(0, 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_clifford_anticommutation(n):
    d = 1 << n
    for j in range(1, 2 * n + 1):
        for k in range(j, 2 * n + 1):
            gj, gk = clifford.majorana(j, n), clifford.majorana(k, n)
            res = gj @ gk + gk @ gj - 2 * (j == k) * np.eye(d)
            assert np.abs(res).max() < 1e-12


def gamma(mask, n):
    """The oracle's ordered Majorana product gamma_J for the bitmask J."""
    return compute_reference.gamma_prod([j for j in range(1, 2 * n + 1) if mask >> (j - 1) & 1], n)


def test_majorana_product_basics():
    assert np.allclose(gamma(0, 2), np.eye(4))
    # gamma_1 gamma_2 = XY = iZ
    assert np.allclose(gamma(0b11, 1), 1j * Z)
    # the moment transform's basis: 2^n from_moments of a unit vector is gamma_J
    for n in (1, 2, 3):
        for mask in range(1 << (2 * n)):
            unit = np.zeros(1 << (2 * n), dtype=complex)
            unit[mask] = 1.0
            assert np.abs((1 << n) * clifford.from_moments(unit, n) - gamma(mask, n)).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_full_product_is_parity(n):
    full = gamma((1 << (2 * n)) - 1, n)
    assert np.abs(full * (-1j) ** n - parity_operator(n)).max() < 1e-12


def test_hs_inner_orthonormal_basis():
    n = 2
    for j in range(1 << (2 * n)):
        for k in range(1 << (2 * n)):
            v = np.trace(gamma(j, n).conj().T @ gamma(k, n)) / (1 << n)
            assert abs(v - (1.0 if j == k else 0.0)) < 1e-12


def test_moments_maximally_mixed():
    mom = clifford.moments(np.eye(8, dtype=complex) / 8)
    assert abs(mom[0] - 1) < 1e-12
    assert np.abs(mom[1:]).max() < 1e-12


def test_moment_of_ground_state():
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert abs(clifford.moments(rho)[0b11] - (-1j)) < 1e-12


def test_moments_match_oracle(rng):
    for n in (1, 2, 3):
        rho = random_state(rng, n)
        want = np.zeros(1 << (2 * n), dtype=complex)
        for idx, val in compute_reference.moments_dict(rho, n).items():
            want[sum(1 << (j - 1) for j in idx)] = val
        assert np.abs(clifford.moments(rho) - want).max() < 1e-12


def test_moment_parseval(rng):
    for n in (1, 2, 3):
        rho = random_state(rng, n)
        mom = clifford.moments(rho)
        lhs = np.sum(np.abs(mom) ** 2)
        rhs = (1 << n) * np.real(np.trace(rho @ rho))
        assert abs(lhs - rhs) < 1e-9


def test_moment_reconstruction(rng):
    for n in (1, 2, 3):
        rho = random_state(rng, n)
        back = clifford.from_moments(clifford.moments(rho), n)
        assert np.abs(back - rho).max() < 1e-12


def test_partial_trace():
    a = np.diag([0.4, 0.6]).astype(complex)
    b = np.diag([0.1, 0.9]).astype(complex)
    assert np.abs(clifford.partial_trace_second(np.kron(a, b)) - a).max() < 1e-12


def test_partial_trace_preserves_trace(rng):
    a = random_state(rng, 2)
    assert abs(np.trace(clifford.partial_trace_second(a)) - 1) < 1e-12
    with pytest.raises(ValueError):
        clifford.partial_trace_second(np.eye(8, dtype=complex))


def test_entropy_values():
    assert abs(clifford.entropy(np.eye(4, dtype=complex) / 4) - 2 * math.log(2)) < 1e-12
    pure = np.diag([1.0, 0, 0, 0]).astype(complex)
    for alpha in (0.0, 0.5, 1.0, 2.0, math.inf):
        assert abs(clifford.entropy(pure, alpha)) < 1e-12
    assert abs(clifford.entropy(np.eye(2, dtype=complex) / 2, 2.0) - math.log(2)) < 1e-12
    # every order gives a pure state +0, not -0
    for alpha in (0.0, 0.5, 1.0, 2.0, 1000.0, math.inf):
        assert math.copysign(1.0, clifford.entropy(pure, alpha)) == 1.0
    # a negative order is refused, and so is NaN
    for alpha in (-0.5, math.nan):
        with pytest.raises(ValueError, match="nonnegative"):
            clifford.entropy(pure, alpha)
    # w^alpha underflows at large alpha; the entropy must not
    assert abs(clifford.entropy(np.eye(8, dtype=complex) / 8, 1000.0) - math.log(8)) < 1e-12


def test_entropy_continuity_at_one(rng):
    rho = random_state(rng, 2)
    s1 = clifford.entropy(rho)
    assert abs(clifford.entropy(rho, 1 + 1e-6) - s1) < 1e-4
    assert abs(clifford.entropy(rho, 1 - 1e-6) - s1) < 1e-4


def test_entropy_rejects_non_state():
    with pytest.raises(ValueError):
        clifford.entropy(np.diag([1.5, -0.5]).astype(complex))


def test_assertions_reject_non_finite():
    rho = np.eye(2, dtype=complex) / 2
    rho[0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        clifford.assert_state(rho)
    u = np.eye(2, dtype=complex)
    u[1, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        clifford.assert_unitary(u)


def test_is_even():
    assert clifford.is_even(np.diag([0.0, 1.0]).astype(complex))  # |1><1|
    ket01 = np.zeros((2, 2), dtype=complex)
    ket01[0, 1] = 1.0  # |0><1| = (gamma_1 + i gamma_2)/2
    assert not clifford.is_even(ket01)
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert not clifford.is_even(plus)


def test_relative_entropy(rng):
    rho = random_state(rng, 2)
    assert abs(relative_entropy(rho, rho)) < 1e-9
    ground = np.diag([1.0, 0.0]).astype(complex)
    assert abs(relative_entropy(ground, np.eye(2, dtype=complex) / 2) - math.log(2)) < 1e-12
    # support violation
    excited = np.diag([0.0, 1.0]).astype(complex)
    assert relative_entropy(excited, ground) == math.inf


def test_relative_entropy_to_gaussification(rng):
    # D(rho || G(rho)) = S(G(rho)) - S(rho) for even rho
    rho = random_even_state(rng, 2)
    g = gaussian.gaussification(rho)
    lhs = relative_entropy(rho, g)
    rhs = clifford.entropy(g) - clifford.entropy(rho)
    assert abs(lhs - rhs) < 1e-8
    # ng_relative_entropy reads S(G(rho)) off the covariance's spectrum; the dense
    # Gaussification is its oracle
    for n in range(1, 6):
        for rho in (random_even_state(rng, n), random_pure_even_state(rng, n),
                    random_gaussian_state(rng, n)):
            dense = clifford.entropy(gaussian.gaussification(rho)) - clifford.entropy(rho)
            assert abs(measures.ng_relative_entropy(rho) - dense) < 1e-12

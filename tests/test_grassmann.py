import numpy as np
import pytest

from ferro import clifford, grassmann
from ferro.grassmann import GrassmannPoly

from helpers import random_even_state, random_gaussian_unitary, random_state


def eta(generators, *indices):
    mask = 0
    for j in indices:
        mask |= 1 << (j - 1)
    return GrassmannPoly.monomial(generators, mask)


def test_generator_products():
    p = grassmann.g_mul(eta(4, 1), eta(4, 2))
    assert abs(p.coeffs[0b11] - 1.0) < 1e-15
    q = grassmann.g_mul(eta(4, 2), eta(4, 1))
    assert abs(q.coeffs[0b11] + 1.0) < 1e-15
    z = grassmann.g_mul(eta(4, 1), eta(4, 1))
    assert not z.coeffs.any()


def test_g_mul_associative_distributive(rng):
    gens = 8
    polys = [
        GrassmannPoly(gens, rng.normal(size=256) + 1j * rng.normal(size=256)) for _ in range(3)
    ]
    p, q, r = polys
    lhs = grassmann.g_mul(grassmann.g_mul(p, q), r)
    rhs = grassmann.g_mul(p, grassmann.g_mul(q, r))
    assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-10
    lhs2 = grassmann.g_mul(p, q + r)
    rhs2 = grassmann.g_mul(p, q) + grassmann.g_mul(p, r)
    assert np.abs(lhs2.coeffs - rhs2.coeffs).max() < 1e-10


def test_g_exp_small_cases():
    one = grassmann.g_exp(GrassmannPoly.zero(2))
    assert abs(one.coeffs[0] - 1.0) < 1e-15 and not one.coeffs[1:].any()
    p = GrassmannPoly.monomial(2, 0b11, 0.7)
    e = grassmann.g_exp(p)
    assert abs(e.coeffs[0] - 1.0) < 1e-15
    assert abs(e.coeffs[0b11] - 0.7) < 1e-15


def test_g_log_inverts_g_exp(rng):
    gens = 8
    coeffs = rng.normal(size=256) + 1j * rng.normal(size=256)
    coeffs[grassmann.popcounts(gens) % 2 == 1] = 0.0
    coeffs[0] = 0.0
    p = GrassmannPoly(gens, coeffs * 0.3)
    back = grassmann.g_log(grassmann.g_exp(p))
    assert np.abs(back.coeffs - p.coeffs).max() < 1e-10


def test_constant_term_preconditions():
    with pytest.raises(ValueError):
        grassmann.g_exp(GrassmannPoly.one(2))
    with pytest.raises(ValueError):
        grassmann.g_log(GrassmannPoly.zero(2))


def test_contract():
    p = GrassmannPoly.monomial(4, 0b0011, 2.0)
    assert np.abs(grassmann.contract(p, 1.0).coeffs - p.coeffs).max() < 1e-15
    c = grassmann.contract(p, 0.5)
    assert abs(c.coeffs[0b0011] - 2.0 * 0.25) < 1e-15
    a, b = 0.3 + 0.1j, -1.2
    lhs = grassmann.contract(grassmann.contract(p, a), b)
    rhs = grassmann.contract(p, a * b)
    assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-15


def test_fourier_round_trip(rng):
    assert np.abs(grassmann.fourier(np.eye(4, dtype=complex) / 4).coeffs[1:]).max() < 1e-12
    for n in (1, 2, 3):
        rho = random_state(rng, n)
        back = grassmann.inverse_fourier(grassmann.fourier(rho))
        assert np.abs(back - rho).max() < 1e-12


def test_fourier_isometry(rng):
    """2^-n * (coefficient norm) equals the normalized operator L2 norm."""
    n = 2
    rho, sigma = random_state(rng, n), random_state(rng, n)
    diff = grassmann.fourier(rho) - grassmann.fourier(sigma)
    lhs = grassmann.l2_norm(diff) / (1 << n)
    rhs = clifford.l2_norm(rho - sigma)
    assert abs(lhs - rhs) < 1e-10


def test_fourier_unitary_covariance(rng):
    n = 2
    rho = random_state(rng, n)
    u, r = random_gaussian_unitary(rng, n)
    lhs = grassmann.fourier(u @ rho @ u.conj().T, check=False)
    rhs = grassmann.rotate_generators(grassmann.fourier(rho), r)
    assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-9


def test_quadratic_cumulants_equal_moments(rng):
    n = 2
    rho = random_even_state(rng, n)
    psi = grassmann.cumulants(rho)
    mom = clifford.moments(rho)
    pc = grassmann.popcounts(2 * n)
    sel = pc == 2
    assert np.abs(psi.coeffs[sel] - mom[sel]).max() < 1e-10


def test_cumulants_reject_odd_state():
    plus = np.full((2, 2), 0.5, dtype=complex)
    with pytest.raises(ValueError):
        grassmann.cumulants(plus)


def test_tensor_additivity(rng):
    ra = random_even_state(rng, 1)
    rb = random_even_state(rng, 2)
    joint = grassmann.cumulants(np.kron(ra, rb))
    emb = grassmann.embed_disjoint(grassmann.cumulants(ra), grassmann.cumulants(rb))
    assert np.abs(joint.coeffs - emb.coeffs).max() < 1e-10


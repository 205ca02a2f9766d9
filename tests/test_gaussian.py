import math

import numpy as np
import pytest

from ferro import clifford, gaussian, grassmann, measures

from helpers import (
    random_antisymmetric,
    random_even_state,
    random_gaussian_state,
    random_gaussian_unitary,
    random_pure_even_state,
)


def test_covariance_basics(rng):
    assert np.abs(gaussian.covariance(np.eye(8, dtype=complex) / 8)).max() < 1e-12
    ground = np.diag([1.0, 0.0]).astype(complex)
    assert np.abs(gaussian.covariance(ground) - np.array([[0, -1], [1, 0]])).max() < 1e-12


def test_covariance_transforms_under_gaussian_unitary(rng):
    # with R defined by U gamma_j U^dag = sum_k R_jk gamma_k the covariance
    # transforms by the inverse rotation: Sigma -> R^T Sigma R
    rho = random_even_state(rng, 2)
    u, r = random_gaussian_unitary(rng, 2)
    lhs = gaussian.covariance(u @ rho @ u.conj().T)
    rhs = r.T @ gaussian.covariance(rho) @ r
    assert np.abs(lhs - rhs).max() < 1e-9


def test_canonicalize_trivial_cases():
    can = gaussian.canonicalize(np.zeros((4, 4)))
    assert np.abs(can.lambdas).max() < 1e-12
    block = np.array([[0.0, 0.6], [-0.6, 0.0]])
    can2 = gaussian.canonicalize(block)
    assert abs(can2.lambdas[0] - 0.6) < 1e-12
    assert np.abs(can2.reconstruct() - block).max() < 1e-12


def test_canonicalize_random(rng):
    sigmas = [random_antisymmetric(rng, 2 * n, 0.3) for n in (1, 2, 3, 4)]
    # degenerate spectra: repeated lambda, zero blocks, lambda = 1
    for lams in ([0.5, 0.5], [0.7, 0.7, 0.2], [0.6, 0.0, 0.0], [0.0, 0.0],
                 [1.0, 1.0, 0.3], [1.0, 0.0], [0.4, 0.4, 0.4, 0.4], [0.0, 0.0, 0.0, 0.9]):
        q = np.linalg.qr(rng.normal(size=(2 * len(lams), 2 * len(lams))))[0]
        sigmas.append(gaussian.CanonicalForm(q, np.array(lams)).reconstruct())
    for sig in sigmas:
        n = sig.shape[0] // 2
        can = gaussian.canonicalize(sig)
        assert np.abs(can.reconstruct() - sig).max() < 1e-9
        assert np.abs(can.rotation @ can.rotation.T - np.eye(2 * n)).max() < 1e-9
        assert abs(np.linalg.det(can.rotation) - 1.0) < 1e-9
        mags = np.abs(can.lambdas)
        assert all(mags[i] >= mags[i + 1] - 1e-12 for i in range(n - 1))


def test_canonicalize_rejects_non_antisymmetric():
    with pytest.raises(ValueError):
        gaussian.canonicalize(np.eye(4))
    with pytest.raises(ValueError):
        gaussian.canonicalize(np.zeros((3, 3)))


def test_pfaffian_small():
    assert abs(gaussian.pfaffian(np.array([[0.0, 3.0], [-3.0, 0.0]])) - 3.0) < 1e-12
    m = random_antisymmetric(np.random.default_rng(0), 4)
    expect = m[0, 1] * m[2, 3] - m[0, 2] * m[1, 3] + m[0, 3] * m[1, 2]
    assert abs(gaussian.pfaffian(m) - expect) < 1e-12


def test_pfaffian_det_identity(rng):
    for d in (6, 8, 10):
        m = random_antisymmetric(rng, d)
        pf = gaussian.pfaffian(m)
        assert abs(pf**2 - np.linalg.det(m)) < 1e-8 * max(1.0, abs(np.linalg.det(m)))


def test_pfaffian_congruence(rng):
    m = random_antisymmetric(rng, 6)
    a = rng.normal(size=(6, 6))
    lhs = gaussian.pfaffian(a.T @ m @ a)
    rhs = np.linalg.det(a) * gaussian.pfaffian(m)
    assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


def test_pfaffian_routes_agree(rng):
    m = random_antisymmetric(rng, 6)
    assert abs(gaussian._pfaffian_matching(m) - gaussian._pfaffian_parlett_reid(m)) < 1e-10


def test_pfaffian_odd_dimension():
    with pytest.raises(ValueError):
        gaussian.pfaffian(np.zeros((3, 3)))


def test_gaussian_from_covariance_basics():
    n = 2
    rho = gaussian.gaussian_from_covariance(np.zeros((2 * n, 2 * n)))
    assert np.abs(rho - np.eye(1 << n) / (1 << n)).max() < 1e-12
    ground = gaussian.gaussian_from_covariance(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert np.abs(ground - np.diag([1.0, 0.0])).max() < 1e-12


def test_gaussian_from_covariance_round_trip(rng):
    for n in (1, 2, 3):
        rho = random_gaussian_state(rng, n)
        sig = gaussian.covariance(rho)
        back = gaussian.gaussian_from_covariance(sig)
        assert np.abs(back - rho).max() < 1e-9
        assert np.linalg.eigvalsh(back).min() > -1e-10


def test_pure_iff_unit_lambdas(rng):
    rho = random_gaussian_state(rng, 3, pure=True)
    assert abs(np.real(np.trace(rho @ rho)) - 1.0) < 1e-9


def test_gaussian_from_covariance_rejects_oversized():
    with pytest.raises(ValueError):
        gaussian.gaussian_from_covariance(np.array([[0.0, 1.5], [-1.5, 0.0]]))


def test_gaussification_fixes_gaussians(rng):
    rho = random_gaussian_state(rng, 2)
    assert np.abs(gaussian.gaussification(rho) - rho).max() < 1e-9


def test_gaussification_commutes_with_gaussian_unitaries(rng):
    rho = random_even_state(rng, 2)
    u, _ = random_gaussian_unitary(rng, 2)
    lhs = gaussian.gaussification(u @ rho @ u.conj().T)
    rhs = u @ gaussian.gaussification(rho) @ u.conj().T
    assert np.abs(lhs - rhs).max() < 1e-9


def test_gaussification_max_entropy(rng):
    for _ in range(5):
        rho = random_even_state(rng, 2)
        s_g = clifford.entropy(gaussian.gaussification(rho))
        assert s_g >= clifford.entropy(rho) - 1e-9


def test_gaussification_rejects_odd():
    plus = np.full((2, 2), 0.5, dtype=complex)
    with pytest.raises(ValueError):
        gaussian.gaussification(plus)


def test_gaussian_unitary_identity():
    u, r = gaussian.gaussian_unitary(np.zeros((4, 4)))
    assert np.abs(u - np.eye(4)).max() < 1e-12
    assert np.abs(r - np.eye(4)).max() < 1e-12


def test_gaussian_unitary_conjugation(rng):
    n = 2
    h = random_antisymmetric(rng, 2 * n)
    u, r = gaussian.gaussian_unitary(h)
    clifford.assert_unitary(u)
    assert abs(np.linalg.det(r) - 1.0) < 1e-9
    for j in range(1, 2 * n + 1):
        lhs = u @ clifford.majorana(j, n) @ u.conj().T
        rhs = sum(r[j - 1, k] * clifford.majorana(k + 1, n) for k in range(2 * n))
        assert np.abs(lhs - rhs).max() < 1e-9


def test_spectrum_entropy():
    assert abs(gaussian.gaussian_spectrum_entropy([1.0, 1.0])) < 1e-12
    assert abs(gaussian.gaussian_spectrum_entropy([0.0] * 3) - 3 * math.log(2)) < 1e-12
    with pytest.raises(ValueError):
        gaussian.gaussian_spectrum_entropy([1.2])


def test_spectrum_entropy_matches_dense(rng):
    for n in (1, 2, 3):
        rho = random_gaussian_state(rng, n)
        can = gaussian.canonicalize(gaussian.covariance(rho))
        assert abs(gaussian.gaussian_spectrum_entropy(can.lambdas) - clifford.entropy(rho)) < 1e-8


def test_wick_moments(rng):
    """Moments of a Gaussian are i^{|J|/2} Pf(Sigma_|J) for even J and 0 for odd J."""
    for n in (1, 2, 3):
        rho = random_gaussian_state(rng, n)
        sig = gaussian.covariance(rho)
        mom = clifford.moments(rho)
        pc = grassmann.popcounts(2 * n)
        for mask in range(1 << (2 * n)):
            k = int(pc[mask])
            if k % 2:
                assert abs(mom[mask]) < 1e-9
                continue
            rows = [i for i in range(2 * n) if mask >> i & 1]
            pf = gaussian.pfaffian(sig[np.ix_(rows, rows)])
            assert abs(mom[mask] - (1j) ** (k // 2) * pf) < 1e-9


def test_quadratic_weight_bound(rng):
    n = 2
    for _ in range(5):
        rho = random_even_state(rng, n)
        w, _ = measures.moment_weights(rho)
        assert w[2] <= n + 1e-9
    pure_g = random_gaussian_state(rng, n, pure=True)
    w, _ = measures.moment_weights(pure_g)
    assert abs(w[2] - n) < 1e-9


def test_closest_gaussian_relative_entropy(rng):
    rho = random_even_state(rng, 2)
    g = gaussian.gaussification(rho)
    d_star = clifford.relative_entropy(rho, g)
    for _ in range(3):
        sigma_g = random_gaussian_state(rng, 2)
        d = clifford.relative_entropy(rho, sigma_g)
        assert d >= d_star - 1e-9
        # Pythagorean split of the gap
        assert abs(d - d_star - clifford.relative_entropy(g, sigma_g)) < 1e-8

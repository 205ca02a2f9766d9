import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ferro import clifford, convolution, gaussian, grassmann

from helpers import (
    dense_complementary,
    dense_convolve,
    random_even_state,
    random_gaussian_state,
    random_gaussian_unitary,
    random_pure_even_state,
)


def test_conv_unitary_identity_at_zero():
    assert np.abs(convolution.conv_unitary(0.0, 1) - np.eye(4)).max() < 1e-12


@pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 4, 0.9])
def test_conv_unitary_action(theta):
    n = 2
    w = convolution.conv_unitary(theta, n)
    clifford.assert_unitary(w)
    c, s = math.cos(theta), math.sin(theta)
    for j in range(1, 2 * n + 1):
        g1 = clifford.majorana(j, 2 * n)
        g2 = clifford.majorana(2 * n + j, 2 * n)
        assert np.abs(w @ g1 @ w.conj().T - (c * g1 - s * g2)).max() < 1e-9
        assert np.abs(w @ g2 @ w.conj().T - (s * g1 + c * g2)).max() < 1e-9


def test_gaussian_fixed_point(rng):
    for theta in (math.pi / 6, math.pi / 4):
        rho = random_gaussian_state(rng, 2)
        out = convolution.convolve(rho, rho, theta)
        assert clifford.l2_norm(out - rho) < 1e-9


def test_angle_reflectivity_and_commutativity(rng):
    rho = random_even_state(rng, 2)
    sigma = random_even_state(rng, 2)
    theta = 0.7
    lhs = convolution.convolve(rho, sigma, theta)
    assert np.abs(lhs - convolution.convolve(rho, sigma, -theta)).max() < 1e-10
    a = convolution.convolve(rho, sigma, math.pi / 4)
    b = convolution.convolve(sigma, rho, math.pi / 4)
    assert np.abs(a - b).max() < 1e-10


def test_rejects_odd_input():
    plus = np.full((2, 2), 0.5, dtype=complex)
    even = np.eye(2, dtype=complex) / 2
    with pytest.raises(ValueError):
        convolution.convolve(plus, even)
    with pytest.raises(ValueError):
        convolution.convolve(even, plus)


def test_complementary_channel(rng):
    """Tr_1 output equals the convolution with the input roles exchanged.

    At the balanced angle this coincides with convolve(rho, sigma); for other
    angles the roles swap (equivalently theta -> pi/2 - theta).
    """
    rho = random_even_state(rng, 2)
    sigma = random_even_state(rng, 2)
    bal = convolution.complementary_convolve(rho, sigma, math.pi / 4)
    assert np.abs(bal - convolution.convolve(rho, sigma, math.pi / 4)).max() < 1e-10
    for theta in (0.5, 1.1):
        b = convolution.complementary_convolve(rho, sigma, theta)
        assert np.abs(b - convolution.convolve(sigma, rho, theta)).max() < 1e-10
        assert np.abs(b - convolution.convolve(rho, sigma, math.pi / 2 - theta)).max() < 1e-10


def test_entropy_inequality(rng):
    for _ in range(5):
        rho = random_even_state(rng, 2)
        sigma = random_even_state(rng, 2)
        s_out = clifford.entropy(convolution.convolve(rho, sigma))
        assert s_out >= 0.5 * clifford.entropy(rho) + 0.5 * clifford.entropy(sigma) - 1e-9


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 4),
    theta=st.floats(1e-3, math.pi / 2 - 1e-3),
    seed=st.integers(0, 2**32 - 1),
)
def test_moment_channel_matches_dense(n, theta, seed):
    rng = np.random.default_rng(seed)
    rho = random_even_state(rng, n)
    sigma = random_even_state(rng, n)
    out = convolution.convolve(rho, sigma, theta)
    assert np.abs(out - dense_convolve(rho, sigma, theta)).max() < 1e-12
    comp = convolution.complementary_convolve(rho, sigma, theta)
    assert np.abs(comp - dense_complementary(rho, sigma, theta)).max() < 1e-12


def test_cumulant_engine_matches_dense(rng):
    for theta in (math.pi / 4, math.pi / 6):
        rho = random_even_state(rng, 2)
        sigma = random_even_state(rng, 2)
        dense = dense_convolve(rho, sigma, theta)
        psi = convolution.convolve_cumulant(
            grassmann.cumulants(rho), grassmann.cumulants(sigma), theta
        )
        back = grassmann.inverse_fourier(grassmann.g_exp(psi))
        assert np.abs(dense - back).max() < 1e-9


def test_quadratic_cumulants_preserved_in_self_convolution(rng):
    rho = random_even_state(rng, 2)
    psi = grassmann.cumulants(rho)
    out = convolution.convolve_cumulant(psi, psi, math.pi / 4)
    sel = grassmann.popcounts(4) == 2
    assert np.abs(out.coeffs[sel] - psi.coeffs[sel]).max() < 1e-10


def test_iterate_conv(rng):
    rho = random_even_state(rng, 2)
    assert convolution.iterate_conv(rho, 0) is rho
    dense = rho
    for k in (1, 2, 3):
        dense = dense_convolve(dense, dense)
        assert np.abs(convolution.iterate_conv(rho, k) - dense).max() < 1e-9
        psi = convolution.doubling_cumulants(grassmann.cumulants(rho), k)
        back = grassmann.inverse_fourier(grassmann.g_exp(psi))
        assert np.abs(dense - back).max() < 1e-9


def test_iterated_entropy_monotone(rng):
    for _ in range(5):
        rho = random_even_state(rng, 2)
        prev = clifford.entropy(rho)
        cur = rho
        for _k in range(3):
            cur = convolution.convolve(cur, cur)
            s = clifford.entropy(cur)
            assert s >= prev - 1e-9
            prev = s


def test_covariance_preserved_by_self_convolution(rng):
    rho = random_even_state(rng, 2)
    out = convolution.convolve(rho, rho)
    assert np.abs(gaussian.covariance(out) - gaussian.covariance(rho)).max() < 1e-10


def test_commutes_with_gaussian_unitaries(rng):
    rho = random_even_state(rng, 2)
    sigma = random_even_state(rng, 2)
    u, _ = random_gaussian_unitary(rng, 2)
    lhs = u @ convolution.convolve(rho, sigma) @ u.conj().T
    rhs = convolution.convolve(u @ rho @ u.conj().T, u @ sigma @ u.conj().T)
    assert np.abs(lhs - rhs).max() < 1e-9


def test_purity_invariance_only_for_gaussians(rng):
    psi_g = random_gaussian_state(rng, 2, pure=True)
    out = convolution.convolve(psi_g, psi_g)
    assert abs(np.real(np.trace(out @ out)) - 1.0) < 1e-8
    # pure even states on <= 3 modes are all Gaussian, so the non-Gaussian
    # branch needs the 4-mode family
    from ferro import states

    psi = states.magic_state(math.pi / 2)
    out2 = convolution.convolve(psi, psi)
    assert np.real(np.trace(out2 @ out2)) < 1.0 - 1e-4


def test_linear_iteration(rng):
    rho = random_even_state(rng, 2)
    assert np.abs(convolution.iterate_conv_linear(rho, 1) - rho).max() < 1e-12
    psi0 = grassmann.cumulants(rho)
    sel2 = grassmann.popcounts(4) == 2
    sel4 = grassmann.popcounts(4) == 4
    for m in (2, 3, 4):
        out = convolution.iterate_conv_linear(rho, m)
        psi = grassmann.cumulants(out)
        # quadratic cumulants unchanged, degree-4 cumulants scale as 1/m
        assert np.abs(psi.coeffs[sel2] - psi0.coeffs[sel2]).max() < 1e-9
        assert np.abs(psi.coeffs[sel4] - psi0.coeffs[sel4] / m).max() < 1e-9


def test_default_theta_is_balanced():
    assert abs(math.cos(convolution.DEFAULT_THETA) - 1 / math.sqrt(2)) < 1e-15

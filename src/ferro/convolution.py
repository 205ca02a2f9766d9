"""The fermionic beam splitter W_theta and the convolution channel.

There is one engine.  For even states the channel
Tr_2[W_theta (rho ox sigma) W_theta^dag] is a product in the moment domain,
Xi_out(eta) = Xi_rho(cos(theta) eta) * Xi_sigma(sin(theta) eta), so the
output is one Grassmann product of two contracted moment polynomials
(convolve_moments).  States are validated once, on entry; iterated
convolutions stay moment polynomials until the last iterate.  conv_unitary
builds the dense 2n-qubit W_theta on request; no runtime path calls it.  It
is the tests' oracle of the channel and of the gate compiler's netlists, and
it stays in the package while the benchmark names it as a per-layer metric
(until the benchmark change).
"""

from __future__ import annotations

import math

import numpy as np

from . import grassmann
from .grassmann import GrassmannPoly

DEFAULT_THETA = math.pi / 4


def conv_unitary(theta: float, n: int) -> np.ndarray:
    """W_theta = exp((theta/2) sum_j gamma_j gamma_{2n+j}) on 2n qubits.

    Satisfies W gamma_j W^dag = cos(theta) gamma_j - sin(theta) gamma_{2n+j}
    and W gamma_{2n+j} W^dag = sin(theta) gamma_j + cos(theta) gamma_{2n+j}.
    """
    from . import gaussian  # only this oracle needs it

    h = np.zeros((4 * n, 4 * n))
    for j in range(2 * n):
        h[j, 2 * n + j] = theta / 2.0
        h[2 * n + j, j] = -theta / 2.0
    return gaussian.gaussian_unitary(h, 2 * n)[0]


def convolve_moments(xi_rho: GrassmannPoly, xi_sigma: GrassmannPoly,
                     theta: float = DEFAULT_THETA) -> GrassmannPoly:
    """Moment-domain convolution: Xi_out(eta) = Xi_rho(cos(theta) eta) Xi_sigma(sin(theta) eta).

    Contraction is multiplicative, contract(p q, a) = contract(p, a) contract(q, a),
    so with |sin| <= |cos| this is contract(Xi_rho Xi_sigma(tan(theta) eta), cos(theta)),
    and the other way round otherwise: one contracted copy of an input, not two.
    """
    c, s = math.cos(theta), math.sin(theta)
    if abs(s) <= abs(c):
        return grassmann.contract(grassmann.g_mul(xi_rho, grassmann.contract(xi_sigma, s / c)), c)
    return grassmann.contract(grassmann.g_mul(grassmann.contract(xi_rho, c / s), xi_sigma), s)


def convolve(rho: np.ndarray, sigma: np.ndarray, theta: float = DEFAULT_THETA) -> np.ndarray:
    """rho boxtimes_theta sigma = Tr_2[W_theta (rho ox sigma) W_theta^dag] of two even states."""
    if rho.shape != sigma.shape:
        raise ValueError("states live on different mode counts")
    xi = convolve_moments(grassmann.even_fourier(rho), grassmann.even_fourier(sigma), theta)
    return grassmann.inverse_fourier(xi)


def complementary_convolve(rho: np.ndarray, sigma: np.ndarray,
                           theta: float = DEFAULT_THETA) -> np.ndarray:
    """The complementary channel Tr_1[W_theta (rho ox sigma) W_theta^dag].

    It equals convolve(rho, sigma, pi/2 - theta).
    """
    return convolve(rho, sigma, math.pi / 2 - theta)


def iterate_conv(rho: np.ndarray, k: int) -> np.ndarray:
    """k-fold doubling self-convolution at theta = pi/4 of an even state.

    The iterates stay moment polynomials; only the last one becomes a matrix.
    """
    if k < 0:
        raise ValueError("iteration order must be nonnegative")
    xi = grassmann.even_fourier(rho)
    if k == 0:
        return rho
    for _ in range(k):
        xi = convolve_moments(xi, xi)
    return grassmann.inverse_fourier(xi)


def iterate_conv_linear(rho: np.ndarray, m: int) -> np.ndarray:
    """Linear-copy iterated convolution over m copies of an even state rho.

    The step angle satisfies cos^2(theta_m) = m/(m+1), so every copy enters
    with equal weight; m = 1 returns rho itself.
    """
    if m < 1:
        raise ValueError("copy count must be positive")
    xi = grassmann.even_fourier(rho)
    if m == 1:
        return rho
    out = xi
    for j in range(1, m):
        out = convolve_moments(out, xi, math.acos(math.sqrt(j / (j + 1))))
    return grassmann.inverse_fourier(out)

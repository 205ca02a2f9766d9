"""Scalar non-Gaussianity quantities: weights, entropic measures, CLT bounds.

ng_entropies, ng_relative_entropy, cumulant_weights and polynomial_weights
also take a stack of states (or of cumulant polynomials) and give one value
per state where they give a float for one state.
_ng_entropies and _gaussified_entropy take a validated moment table, so
fig2 reads its stack's table once for both.
"""

from __future__ import annotations

import math

import numpy as np

from . import clifford, convolution, gaussian, grassmann


def moment_weights(rho: np.ndarray):
    """Moment weights W_k = sum_{|J|=k} |rho_J|^2 and the sensitivity I_M = sum k W_k."""
    n = clifford.num_qubits(rho)
    mom = clifford.moments(rho)
    pc = clifford.popcounts(2 * n)
    w = np.zeros(2 * n + 1)
    np.add.at(w, pc, np.abs(mom) ** 2)
    i_m = float(np.dot(np.arange(2 * n + 1), w))
    return w, i_m


def cumulant_weights(rho: np.ndarray):
    """Cumulant weights (K list, K_G, K_M, K_total) of an even state; see polynomial_weights."""
    return polynomial_weights(grassmann.cumulants(rho))


def polynomial_weights(psi: grassmann.GrassmannPoly):
    """Cumulant weights (K list, K_G, K_M, K_total) of a cumulant polynomial.

    K_j sums |kappa_J|^2 over degree-j indices; K_G = K_2, K_M is the
    super-quadratic mass, K_total = sum_j j K_j.
    """
    m = psi.generators
    w = np.abs(psi.coeffs) ** 2
    k = np.zeros(w.shape[:-1] + (m + 1,))
    # degree by degree over the last axis, in mask order
    np.add.at(np.moveaxis(k, -1, 0), clifford.popcounts(m), np.moveaxis(w, -1, 0))
    k[..., 0] = 0.0  # constant term log 1 = 0; guard against rounding
    k_g = k[..., 2] if m >= 2 else np.zeros(k.shape[:-1])
    k_m = k[..., 4:].sum(axis=-1)
    k_total = k @ np.arange(m + 1.0)
    return k, clifford.per_state(k_g), clifford.per_state(k_m), clifford.per_state(k_total)


def ng_relative_entropy(rho: np.ndarray):
    """Relative entropy of non-Gaussianity S(G(rho)) - S(rho) of an even state."""
    val = _gaussified_entropy(grassmann.even_fourier(rho)) - clifford.entropy(rho)
    return clifford.per_state(np.maximum(val, 0.0))


def _gaussified_entropy(xi: grassmann.GrassmannPoly):
    """S(G(rho)) of a validated even state, or of a stack, from its moment polynomial xi.

    G(rho)'s covariance has eigenvalues +-i nu_j, so S(G(rho)) is the von
    Neumann entropy of the 2n numbers (1 +- nu_j)/2 (Peschel): one
    2n x 2n spectrum in place of the 2^n x 2^n Gaussian state's.  For a pure
    rho it is the relative entropy of non-Gaussianity itself.
    """
    lam = np.linalg.eigvalsh(1j * gaussian._gaussified_covariance(xi.coeffs))
    return clifford._von_neumann(np.clip((1.0 + lam) / 2, 0.0, 1.0))


def ng_entropies(psi: np.ndarray, kmax: int, alpha: float = 1.0) -> list:
    """Non-Gaussian entropies S_alpha(boxtimes^k psi) for k = 1..kmax of a pure even state.

    The doubling iterates stay moment polynomials, as in iterate_conv; each
    becomes a matrix only for its entropy.  For a stack of states, entry k-1
    is the array of S_alpha(boxtimes^k psi) over the stack.
    """
    if kmax < 1:
        raise ValueError("order k must be >= 1")
    xi = grassmann.even_fourier(psi)
    clifford.assert_pure(psi)
    return _ng_entropies(xi, kmax, alpha)


def _ng_entropies(xi: grassmann.GrassmannPoly, kmax: int, alpha: float = 1.0) -> list:
    """ng_entropies of a pure even state, already validated, from its moment polynomial xi."""
    out = []
    for _ in range(kmax):
        xi = convolution.convolve_moments(xi, xi)
        out.append(clifford.entropy(grassmann.inverse_fourier(xi), alpha))
    return out


def ng_entropy(psi: np.ndarray, k: int = 1, alpha: float = 1.0) -> float:
    """k-th order non-Gaussian entropy S_alpha(boxtimes^k psi) of a pure even state."""
    return ng_entropies(psi, k, alpha)[-1]


def ng_entropy_mixed(rho: np.ndarray, k: int = 1) -> float:
    """Mixed-state extension S(boxtimes^k rho) - S(rho) of an even state."""
    out = convolution.iterate_conv(rho, k)
    return max(clifford.entropy(out) - clifford.entropy(rho), 0.0)


def clt_bound(rho: np.ndarray, k: int, variant: str = "doubling") -> float:
    """Convergence-rate bound on ||boxtimes^k rho - G(rho)||_2; see clt_bound_from_weights."""
    _, k_g, k_m, _ = cumulant_weights(rho)
    return clt_bound_from_weights(k_g, k_m, k, variant)


def clt_bound_from_weights(k_g: float, k_m: float, k: int, variant: str = "doubling") -> float:
    """The clt_bound of a state with cumulant weights K_G and K_M.

    doubling: (sqrt(K_M)/2^k) exp(sqrt(K_G) + 2^-k sqrt(K_M));
    linear: the same with 2^k replaced by the copy count k.
    """
    if k_m <= 0.0:
        return 0.0
    if variant == "doubling":
        denom = 2.0**k
    elif variant == "linear":
        if k < 1:
            raise ValueError("linear variant needs a positive copy count")
        denom = float(k)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    root_m = math.sqrt(k_m)
    return (root_m / denom) * math.exp(math.sqrt(k_g) + root_m / denom)

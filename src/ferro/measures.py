"""Scalar non-Gaussianity quantities: weights, entropic measures, CLT bounds."""

from __future__ import annotations

import math

import numpy as np

from . import clifford, convolution, gaussian, grassmann

EPS_PURE = 1e-8


def moment_weights(rho: np.ndarray, check: bool = True):
    """Moment weights W_k = sum_{|J|=k} |rho_J|^2 and the sensitivity I_M = sum k W_k."""
    n = clifford.num_qubits(rho)
    mom = clifford.moments(rho, check=check)
    pc = grassmann.popcounts(2 * n)
    w = np.zeros(2 * n + 1)
    np.add.at(w, pc, np.abs(mom) ** 2)
    i_m = float(np.dot(np.arange(2 * n + 1), w))
    return w, i_m


def cumulant_weights(rho: np.ndarray, check: bool = True):
    """Cumulant weights (K list, K_G, K_M, K_total) of a state; see polynomial_weights."""
    return polynomial_weights(grassmann.cumulants(rho, check=check))


def polynomial_weights(psi: grassmann.GrassmannPoly):
    """Cumulant weights (K list, K_G, K_M, K_total) of a cumulant polynomial.

    K_j sums |kappa_J|^2 over degree-j indices; K_G = K_2, K_M is the
    super-quadratic mass, K_total = sum_j j K_j.
    """
    m = psi.generators
    k = np.zeros(m + 1)
    np.add.at(k, grassmann.popcounts(m), np.abs(psi.coeffs) ** 2)
    k[0] = 0.0  # constant term log 1 = 0; guard against rounding
    k_g = float(k[2]) if m >= 2 else 0.0
    k_m = float(k[4:].sum())
    k_total = float(np.dot(np.arange(m + 1), k))
    return k, k_g, k_m, k_total


def ng_relative_entropy(rho: np.ndarray, check: bool = True) -> float:
    """Relative entropy of non-Gaussianity S(G(rho)) - S(rho)."""
    g = gaussian.gaussification(rho, check=check)
    val = clifford.entropy(g) - clifford.entropy(rho)
    return max(val, 0.0)


def assert_pure(psi: np.ndarray) -> None:
    """Check Tr psi^2 = 1 within EPS_PURE for a state psi."""
    purity = float(np.real(np.trace(psi @ psi)))
    if abs(purity - 1.0) > EPS_PURE:
        raise ValueError("input is not pure within tolerance")


def _assert_pure_even(psi: np.ndarray) -> None:
    clifford.assert_state(psi)
    assert_pure(psi)
    if not clifford.is_even(psi):
        raise ValueError("input is not even")


def ng_entropies(psi: np.ndarray, kmax: int, alpha: float = 1.0,
                 check: bool = True) -> list[float]:
    """Non-Gaussian entropies S_alpha(boxtimes^k psi) for k = 1..kmax of a pure even state.

    Each doubling iterate is convolved once and reused for the next order.
    """
    if kmax < 1:
        raise ValueError("order k must be >= 1")
    if check:
        _assert_pure_even(psi)
    out = []
    cur = psi
    for _ in range(kmax):
        cur = convolution.convolve(cur, cur, check=False)
        out.append(clifford.entropy(cur, alpha))
    return out


def ng_entropy(psi: np.ndarray, k: int = 1, alpha: float = 1.0, check: bool = True) -> float:
    """k-th order non-Gaussian entropy S_alpha(boxtimes^k psi) of a pure even state."""
    return ng_entropies(psi, k, alpha, check)[-1]


def ng_entropy_mixed(rho: np.ndarray, k: int = 1, check: bool = True) -> float:
    """Mixed-state extension S(boxtimes^k rho) - S(rho)."""
    if check:
        clifford.assert_state(rho)
        if not clifford.is_even(rho):
            raise ValueError("input is not even")
    out = convolution.iterate_conv(rho, k, mode="dense", check=False)
    return max(clifford.entropy(out) - clifford.entropy(rho), 0.0)


def clt_bound(rho: np.ndarray, k: int, variant: str = "doubling", check: bool = True) -> float:
    """Convergence-rate bound on ||boxtimes^k rho - G(rho)||_2; see clt_bound_from_weights."""
    _, k_g, k_m, _ = cumulant_weights(rho, check=check)
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

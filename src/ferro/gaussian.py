"""Covariance matrices, Pfaffians, Wick synthesis of Gaussian states, Gaussification.

Gaussian states are synthesized from their moment table, whose entry at
an even index set J is i^{|J|/2} Pf(Sigma_|J) (Wick's theorem), filled by
one Pfaffian recursion (wick_moments) rather than from
exp(i/2 gamma^T h gamma): the quadratic-Hamiltonian parameterization
degenerates for pure states (nu -> inf) while the Wick route is exact at
|lambda| = 1.  covariance, wick_moments, gaussian_from_covariance and
gaussification also take a stack of states or covariances and act on each.
"""

from __future__ import annotations

import numpy as np

from . import clifford, grassmann

EPS_ANTISYM = 1e-10
EPS_CONTRACT = 1e-9


def _check_antisymmetric(m: np.ndarray, eps: float = EPS_ANTISYM) -> None:
    """Raise unless m, or every matrix of a stack (..., d, d), is antisymmetric."""
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError("expected a square matrix")
    if m.size and np.abs(m + m.swapaxes(-1, -2)).max() > eps:
        raise ValueError("matrix is not antisymmetric within tolerance")


def covariance(rho: np.ndarray) -> np.ndarray:
    """Covariance matrix Sigma_jk = (i/2) Tr(rho [gamma_j, gamma_k]) of a state."""
    return _covariance(clifford.moments(rho))


def _covariance(mom: np.ndarray) -> np.ndarray:
    """The covariance matrix read off a moment table (..., 4^n)."""
    m = mom.shape[-1].bit_length() - 1
    j, k = np.triu_indices(m, 1)
    sigma = np.zeros(mom.shape[:-1] + (m, m))
    # for j != k: Sigma_jk = -i Tr((gamma_j gamma_k)^dag rho)
    sigma[..., j, k] = np.real(-1j * mom[..., (1 << j) | (1 << k)])
    return sigma - sigma.swapaxes(-1, -2)


# pfaffian, quadratic_hamiltonian and gaussian_unitary have no runtime
# caller; they stay while the benchmark names them as per-layer metrics
# (until the benchmark change), and the tests use them as references.
def pfaffian(m: np.ndarray) -> float:
    """Pfaffian of a real antisymmetric matrix of even dimension, by Parlett-Reid elimination."""
    _check_antisymmetric(m, eps=1e-8)
    d = m.shape[0]
    if d % 2:
        raise ValueError("Pfaffian needs an even dimension")
    a = np.array(m, dtype=float)
    pf = 1.0
    for k in range(0, d - 1, 2):
        pivot = k + 1 + int(np.argmax(np.abs(a[k + 1 :, k])))
        if pivot != k + 1:
            a[[k + 1, pivot], :] = a[[pivot, k + 1], :]
            a[:, [k + 1, pivot]] = a[:, [pivot, k + 1]]
            pf = -pf
        if a[k + 1, k] == 0.0:
            return 0.0
        pf *= a[k, k + 1]
        if k + 2 < d:
            tau = a[k, k + 2 :] / a[k, k + 1]
            col = a[k + 2 :, k + 1]
            a[k + 2 :, k + 2 :] += np.outer(tau, col) - np.outer(col, tau)
    return float(pf)


def wick_moments(sigma: np.ndarray) -> np.ndarray:
    """Moment table of exp(i sum_{j<k} Sigma_jk eta_j eta_k), or a stack (..., 4^n) of them.

    By Wick's theorem rho_J = Pf(A_J) with A = i Sigma, and the Pfaffian is
    expanded on the top index t of J,
    rho_J = sum_{j in J, j < t} (-1)^{#(J strictly between j and t)} A_jt rho_{J - {j, t}},
    so the masks with top index t are filled from those below t, one
    vectorized gather per pair (j, t).  Reads the upper triangle of Sigma.
    """
    m = sigma.shape[-1]
    pc = clifford.popcounts(m)
    rho = np.zeros(sigma.shape[:-2] + (1 << m,), dtype=complex)
    rho[..., 0] = 1.0
    for t in range(1, m):
        low = np.arange(1 << t)
        for j in range(t):
            rest = low[(low >> j & 1 == 0) & (pc[low] & 1 == 0)]
            phase = 1j - 2j * (pc[rest >> (j + 1)] & 1)  # i (-1)^{#(J between j and t)}
            rho[..., rest | (1 << j) | (1 << t)] += sigma[..., j, t, None] * phase * rho[..., rest]
    return rho


def gaussian_from_covariance(sigma: np.ndarray) -> np.ndarray:
    """Gaussian state with the given covariance: moments exp(i sum_{j<k} Sigma_jk eta_j eta_k).

    The exponential expands into the Wick sum rho_J = i^{|J|/2} Pf(Sigma_|J)
    for even J (wick_moments); without the i^{|J|/2} phase the sum is not a
    Hermitian operator in this convention.
    """
    _check_antisymmetric(sigma)
    if sigma.shape[-1] % 2:
        raise ValueError("covariance needs an even dimension 2n")
    ev = np.linalg.eigvalsh(sigma.swapaxes(-1, -2) @ sigma)
    if ev.max() > 1.0 + EPS_CONTRACT:
        raise ValueError("covariance violates Sigma^T Sigma <= I")
    return clifford.from_moments(wick_moments(sigma), sigma.shape[-1] // 2)


def gaussification(rho: np.ndarray) -> np.ndarray:
    """Gaussian state with the same covariance as the even state rho."""
    sigma = _covariance(grassmann.even_fourier(rho).coeffs)
    # rounding can push Sigma^T Sigma marginally past I; renormalize where it does
    ev = np.linalg.eigvalsh(sigma.swapaxes(-1, -2) @ sigma).max(axis=-1)
    return gaussian_from_covariance(
        sigma / np.sqrt(np.clip(ev, 1.0, 1.0 + EPS_CONTRACT))[..., None, None])


def quadratic_hamiltonian(h: np.ndarray, n: int) -> np.ndarray:
    """Dense (1/2) gamma^T h gamma for a real antisymmetric h."""
    _check_antisymmetric(h, eps=1e-12)
    if h.shape[0] != 2 * n:
        raise ValueError("h dimension must be 2n")
    d = 1 << n
    acc = np.zeros((d, d), dtype=complex)
    for j in range(2 * n):
        for k in range(2 * n):
            if h[j, k] != 0.0:
                acc += 0.5 * h[j, k] * (clifford.majorana(j + 1, n) @ clifford.majorana(k + 1, n))
    return acc


def gaussian_unitary(h: np.ndarray, n: int | None = None):
    """U = exp((1/2) gamma^T h gamma) and the rotation R with U gamma_j U^dag = sum_k R_jk gamma_k.

    With this sign convention R = exp(-2h) = exp(2h)^T; det R = +1.
    """
    if n is None:
        n = h.shape[0] // 2
    a = quadratic_hamiltonian(h, n)
    # a is anti-Hermitian: exponentiate via the Hermitian generator -i*a
    w, v = np.linalg.eigh(-1j * a)
    u = (v * np.exp(1j * w)) @ v.conj().T
    hw, hv = np.linalg.eigh(1j * (-2.0) * h)
    r = np.real((hv * np.exp(-1j * hw)) @ hv.conj().T)
    return u, r

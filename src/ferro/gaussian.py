"""Covariance matrices, Pfaffians, Wick synthesis of Gaussian states, Gaussification.

Gaussian states are synthesized from their moment polynomial, the Grassmann
exponential of the covariance form, rather than from
exp(i/2 gamma^T h gamma): the quadratic-Hamiltonian parameterization
degenerates for pure states (nu -> inf) while the Wick route is exact at
|lambda| = 1.  covariance, gaussian_from_covariance and gaussification also
take a stack of states or covariances and act on each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class CanonicalForm:
    """Block-diagonalization Sigma = R blockdiag(0, l; -l, 0) R^T with R in SO(2n)."""

    rotation: np.ndarray
    lambdas: np.ndarray

    def reconstruct(self) -> np.ndarray:
        n = len(self.lambdas)
        blocks = np.zeros((2 * n, 2 * n))
        for j, lam in enumerate(self.lambdas):
            blocks[2 * j, 2 * j + 1] = lam
            blocks[2 * j + 1, 2 * j] = -lam
        return self.rotation @ blocks @ self.rotation.T


def canonicalize(sigma: np.ndarray) -> CanonicalForm:
    """Block diagonalization with lambda >= 0 (except a possible det-fix sign on
    the smallest block), sorted descending by |lambda|.

    Each eigenvalue lambda > 0 of the Hermitian i*Sigma has an eigenvector
    (x - i y)/sqrt(2) with Sigma x = -lambda y and Sigma y = lambda x, so
    (x, y) are the columns of its block; blocks with lambda = 0 take a real
    orthonormal basis of the kernel of Sigma.
    """
    _check_antisymmetric(sigma)
    if sigma.shape[0] % 2:
        raise ValueError("canonical form needs an even dimension")
    n = sigma.shape[0] // 2
    w, v = np.linalg.eigh(1j * sigma)
    pos = w > 1e-12  # eigh sorts ascending: reverse for descending lambda
    lams = w[pos][::-1]
    vecs = math.sqrt(2.0) * v[:, pos][:, ::-1]
    p = len(lams)
    r = np.empty((2 * n, 2 * n))
    r[:, 0 : 2 * p : 2] = vecs.real
    r[:, 1 : 2 * p : 2] = -vecs.imag
    # singular values come out descending, so the kernel's vectors come last
    r[:, 2 * p :] = np.linalg.svd(sigma)[2][2 * p :].T
    lambdas = np.concatenate([lams, np.zeros(n - p)])

    if np.linalg.det(r) < 0:
        # reflect the last (smallest |lambda|) block into SO(2n)
        r[:, [2 * n - 2, 2 * n - 1]] = r[:, [2 * n - 1, 2 * n - 2]]
        lambdas[n - 1] = -lambdas[n - 1]
    return CanonicalForm(rotation=r, lambdas=lambdas)


def _pfaffian_matching(m: np.ndarray) -> float:
    """Sum over perfect matchings; exponential, used as the small-size oracle."""
    idx = list(range(m.shape[0]))

    def rec(active):
        if not active:
            return 1.0
        i0 = active[0]
        total = 0.0
        for pos in range(1, len(active)):
            j = active[pos]
            rest = active[1:pos] + active[pos + 1 :]
            sign = -1.0 if (pos - 1) & 1 else 1.0
            total += sign * m[i0, j] * rec(rest)
        return total

    return float(rec(idx))


def _pfaffian_parlett_reid(m: np.ndarray) -> float:
    a = np.array(m, dtype=float)
    d = a.shape[0]
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


def pfaffian(m: np.ndarray) -> float:
    """Pfaffian of a real antisymmetric matrix of even dimension."""
    _check_antisymmetric(m, eps=1e-8)
    d = m.shape[0]
    if d % 2:
        raise ValueError("Pfaffian needs an even dimension")
    if d == 0:
        return 1.0
    if d <= 6:
        return _pfaffian_matching(np.asarray(m, dtype=float))
    return _pfaffian_parlett_reid(m)


def gaussian_from_covariance(sigma: np.ndarray) -> np.ndarray:
    """Gaussian state with the given covariance: moments exp(i sum_{j<k} Sigma_jk eta_j eta_k).

    The exponential expands into the Wick sum rho_J = i^{|J|/2} Pf(Sigma_|J)
    for even J; without the i^{|J|/2} phase the sum is not a Hermitian
    operator in this convention.
    """
    _check_antisymmetric(sigma)
    n = sigma.shape[-1] // 2
    ev = np.linalg.eigvalsh(sigma.swapaxes(-1, -2) @ sigma)
    if ev.max() > 1.0 + EPS_CONTRACT:
        raise ValueError("covariance violates Sigma^T Sigma <= I")
    return grassmann.inverse_fourier(grassmann.g_exp(_covariance_form(sigma, n)))


def _covariance_form(sigma: np.ndarray, n: int) -> grassmann.GrassmannPoly:
    """The quadratic form i sum_{j<k} Sigma_jk eta_j eta_k over 2n generators."""
    j, k = np.triu_indices(2 * n, 1)
    quad = np.zeros(sigma.shape[:-2] + (1 << (2 * n),), dtype=complex)
    quad[..., (1 << j) | (1 << k)] = 1j * sigma[..., j, k]
    return grassmann.GrassmannPoly(2 * n, quad)


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


def gaussian_spectrum_entropy(lambdas) -> float:
    """sum_j h2((1 + lambda_j)/2) with the binary entropy h2, in nats."""
    total = 0.0
    for lam in np.asarray(lambdas, dtype=float):
        if abs(lam) > 1.0 + EPS_CONTRACT:
            raise ValueError("canonical eigenvalue outside [-1, 1]")
        x = min(max((1.0 + lam) / 2.0, 0.0), 1.0)
        for p in (x, 1.0 - x):
            if p > 0.0:
                total -= p * math.log(p)
    return total

"""Shared random-instance constructors and reference operations for the test suite."""

import math
from itertools import combinations

import numpy as np
import scipy.linalg

from ferro import clifford, convolution, gaussian, grassmann, measures, testing


def random_state(rng, n):
    d = 1 << n
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_even_state(rng, n):
    rho = random_state(rng, n)
    z = clifford.parity_operator(n)
    rho = (rho + z @ rho @ z) / 2
    return rho / np.trace(rho)


def random_pure_even_state(rng, n, parity=0):
    """Pure state supported on one computational parity sector."""
    d = 1 << n
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    par = clifford.popcounts(n) & 1
    v[par != parity] = 0.0
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_antisymmetric(rng, m, scale=1.0):
    h = rng.normal(size=(m, m)) * scale
    return (h - h.T) / 2


def random_gaussian_unitary(rng, n, scale=0.5):
    h = random_antisymmetric(rng, 2 * n, scale)
    return gaussian.gaussian_unitary(h)


def random_gaussian_state(rng, n, pure=False):
    if pure:
        lams = rng.choice([-1.0, 1.0], size=n)
    else:
        lams = rng.uniform(-1.0, 1.0, size=n)
    rho = np.array([[1.0 + 0.0j]])
    for lam in lams:
        rho = np.kron(rho, np.diag([(1 + lam) / 2, (1 - lam) / 2]).astype(complex))
    u, _ = random_gaussian_unitary(rng, n)
    return u @ rho @ u.conj().T


def parity_block_unitary(rng, n=2):
    """Random even unitary: independent unitaries on the two parity sectors.

    Generic instances are not Gaussian (not matchgate-structured).
    """
    d = 1 << n
    par = clifford.popcounts(n) & 1
    u = np.zeros((d, d), dtype=complex)
    for p in (0, 1):
        idx = np.nonzero(par == p)[0]
        block = scipy.linalg.qr(
            rng.normal(size=(len(idx), len(idx))) + 1j * rng.normal(size=(len(idx), len(idx)))
        )[0]
        u[np.ix_(idx, idx)] = block
    return u


def quartic_unitary(n, t):
    """exp(i t gamma_1 gamma_2 gamma_3 gamma_4): even, and Gaussian iff sin(2t) = 0.

    It maps gamma_1 to gamma_1 (cos 2t - i sin 2t gamma_1 gamma_2 gamma_3 gamma_4),
    whose weight outside span{gamma_k} is sin^2(2t).
    """
    q = clifford.majorana_product(0b1111, n)
    return math.cos(t) * np.eye(1 << n) + 1j * math.sin(t) * q


def max_entangled_product(n):
    """Oracle rho_I = 2^{-2n} prod_j (1 + i gamma_j gamma_{2n+j}), multiplied out densely."""
    d = 1 << (2 * n)
    rho = np.eye(d, dtype=complex)
    for j in range(1, 2 * n + 1):
        g = clifford.majorana(j, 2 * n) @ clifford.majorana(2 * n + j, 2 * n)
        rho = rho @ (np.eye(d) + 1j * g)
    return rho / d


def choi_super_quadratic_mass(u):
    """Oracle K_M of the Choi state: U is Gaussian iff it is even and this is ~0."""
    return measures.cumulant_weights(testing.choi_state(u))[2]


def _dense_joint(rho, sigma, theta):
    w = convolution.conv_unitary(theta, clifford.num_qubits(rho))
    return w @ np.kron(rho, sigma) @ w.conj().T


def dense_convolve(rho, sigma, theta=convolution.DEFAULT_THETA):
    """Oracle channel Tr_2[W_theta (rho ox sigma) W_theta^dag] from the dense beam splitter."""
    return clifford.partial_trace_second(_dense_joint(rho, sigma, theta))


def dense_complementary(rho, sigma, theta=convolution.DEFAULT_THETA):
    """Oracle complementary channel Tr_1[W_theta (rho ox sigma) W_theta^dag]."""
    return clifford.partial_trace_first(_dense_joint(rho, sigma, theta))


def rotate_generators(p, r):
    """Substitute eta_j -> sum_k R_jk eta_k, degree by degree via minors of R."""
    m = p.generators
    if r.shape != (m, m):
        raise ValueError("rotation dimension mismatch")
    pc = grassmann.popcounts(m)
    out = np.zeros_like(p.coeffs)
    out[0] = p.coeffs[0]
    for k in range(1, m + 1):
        src = [mask for mask in range(1 << m) if pc[mask] == k and p.coeffs[mask] != 0]
        if not src:
            continue
        for tgt_idx in combinations(range(m), k):
            tgt_mask = sum(1 << i for i in tgt_idx)
            acc = 0.0 + 0.0j
            for mask in src:
                rows = [i for i in range(m) if mask >> i & 1]
                acc += p.coeffs[mask] * np.linalg.det(r[np.ix_(rows, tgt_idx)])
            out[tgt_mask] = acc
    return grassmann.GrassmannPoly(m, out)


def embed_disjoint(p, q):
    """p and q on disjoint generator blocks, p on the low bits, combined additively."""
    m = p.generators + q.generators
    out = np.zeros(1 << m, dtype=complex)
    pm = np.nonzero(p.coeffs)[0]
    out[pm] += p.coeffs[pm]
    qm = np.nonzero(q.coeffs)[0]
    out[qm << p.generators] += q.coeffs[qm]
    out[0] = p.coeffs[0] + q.coeffs[0]
    return grassmann.GrassmannPoly(m, out)

"""Shared random-instance constructors and reference operations for the test suite."""

import math
from itertools import combinations

import numpy as np
import scipy.linalg

from ferro import clifford, convolution, gaussian, grassmann, measures, testing
from oracles import compute_reference


def computational_state(bits):
    """|b><b| for the computational basis state of a bit string."""
    idx = int(bits, 2)
    d = 1 << len(bits)
    rho = np.zeros((d, d), dtype=complex)
    rho[idx, idx] = 1.0
    return rho


def random_state(rng, n):
    d = 1 << n
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def parity_operator(n):
    """Z^{(x)n}, built as a Kronecker product of Pauli Z matrices."""
    z = np.array([[1.0]], dtype=complex)
    for _ in range(n):
        z = np.kron(z, np.diag([1.0, -1.0]))
    return z


def random_even_state(rng, n):
    rho = random_state(rng, n)
    z = parity_operator(n)
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


def pfaffian_matching(m):
    """Pfaffian as a sum over perfect matchings; exponential, the exact small-size oracle."""

    def rec(active):
        if not active:
            return 1.0
        i0 = active[0]
        total = 0.0
        for pos in range(1, len(active)):
            rest = active[1:pos] + active[pos + 1 :]
            sign = -1.0 if (pos - 1) & 1 else 1.0
            total += sign * m[i0, active[pos]] * rec(rest)
        return total

    return rec(list(range(m.shape[0])))


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
    q = compute_reference.gamma_prod([1, 2, 3, 4], n)
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
    d = rho.shape[0]
    return np.einsum("kikj->ij", _dense_joint(rho, sigma, theta).reshape(d, d, d, d))


def convolve_cumulant(psi_rho, psi_sigma, theta=convolution.DEFAULT_THETA):
    """Cumulant-domain channel: kappa_J -> cos^|J| kappa^rho_J + sin^|J| kappa^sigma_J."""
    psi_rho._check(psi_sigma)
    a = grassmann.contract(psi_rho, math.cos(theta)).coeffs
    b = grassmann.contract(psi_sigma, math.sin(theta)).coeffs
    return grassmann.GrassmannPoly(psi_rho.generators, a + b)


def doubling_cumulants(psi, k):
    """Cumulants of the k-fold doubling iterate: kappa_J scaled by 2^{k(1 - |J|/2)}."""
    scale = np.power(2.0, k * (1.0 - grassmann.popcounts(psi.generators) / 2.0))
    return grassmann.GrassmannPoly(psi.generators, psi.coeffs * scale)


def relative_entropy(rho, sigma, support_eps=1e-9):
    """D(rho||sigma) = Tr rho log rho - Tr rho log sigma, in nats.

    Returns +inf when the support of rho leaks outside the support of sigma.
    """
    if rho.shape != sigma.shape:
        raise ValueError("operator dimensions differ")
    wr, vr = np.linalg.eigh(rho)
    ws, vs = np.linalg.eigh(sigma)
    wr = np.clip(wr, 0.0, None)
    ws = np.clip(ws, 0.0, None)
    kernel = ws <= support_eps
    if kernel.any():
        pk = vs[:, kernel]
        leak = float(np.real(np.trace(pk.conj().T @ rho @ pk)))
        if leak > support_eps:
            return math.inf
    wz = wr[wr > 0]
    tr_rho_log_rho = float(np.dot(wz, np.log(wz)))
    log_sigma = (vs[:, ~kernel] * np.log(ws[~kernel])) @ vs[:, ~kernel].conj().T
    tr_rho_log_sigma = float(np.real(np.trace(rho @ log_sigma)))
    return max(tr_rho_log_rho - tr_rho_log_sigma, 0.0)


_SINGLE = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
}


def _gate_matrix(g, nq):
    d = 1 << nq
    if g.name in _SINGLE or g.name == "rz":
        if g.name == "rz":
            # exp(-i theta Z / 2)
            m2 = np.diag([np.exp(-1j * g.param / 2), np.exp(1j * g.param / 2)])
        else:
            m2 = _SINGLE[g.name]
        q = g.targets[0]
        return np.kron(np.kron(np.eye(1 << q), m2), np.eye(1 << (nq - 1 - q)))
    p, q = g.targets
    bp, bq = nq - 1 - p, nq - 1 - q  # qubit 0 is the most significant bit
    idx = np.arange(d)
    if g.name == "cz":
        signs = np.where(((idx >> bp) & 1) & ((idx >> bq) & 1), -1.0, 1.0)
        return np.diag(signs).astype(complex)
    # swap: exchange the two bits
    vp = (idx >> bp) & 1
    vq = (idx >> bq) & 1
    out = idx ^ ((vp ^ vq) << bp) ^ ((vp ^ vq) << bq)
    m = np.zeros((d, d), dtype=complex)
    m[out, idx] = 1.0
    return m


def gate_list_to_unitary(g):
    """Oracle: the dense unitary of a netlist, its gates multiplied in order."""
    u = np.eye(1 << g.qubits, dtype=complex)
    for gate in g.gates:
        u = _gate_matrix(gate, g.qubits) @ u
    return u


def phase_invariant_distance(u, v):
    """min over phases of the normalized Frobenius distance between u and e^{i phi} v."""
    d = u.shape[0]
    ovl = np.trace(u.conj().T @ v) / d
    phase = ovl / abs(ovl) if abs(ovl) > 1e-14 else 1.0
    return float(np.linalg.norm(u - phase * v)) / math.sqrt(d)


def g_zero(generators):
    """The zero polynomial over the given number of generators."""
    return grassmann.GrassmannPoly(generators, np.zeros(1 << generators, dtype=complex))


def g_one(generators):
    """The constant polynomial 1."""
    return g_monomial(generators, 0)


def g_monomial(generators, mask, coeff=1.0):
    """coeff * eta_J for the mask J."""
    c = np.zeros(1 << generators, dtype=complex)
    c[mask] = coeff
    return grassmann.GrassmannPoly(generators, c)


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

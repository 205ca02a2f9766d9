"""Dense Jordan-Wigner representation of the Majorana/Clifford algebra.

Operators are plain complex numpy matrices of dimension 2**q.  Majorana
generators and their ordered products are phased Pauli strings
phase * X^x Z^z, kept as three arrays indexed by the product's mask and
materialized as matrices only on demand; on a vector, gamma_j is one signed
bit flip (_majorana_flip).  The moment transform and its inverse are one
gather or scatter plus one 2^n x 2^n matmul with the Sylvester-Hadamard
matrix: O(8^n) numpy work and no loop over masks.

The functions a sweep runs (assert_state, assert_pure, is_even, moments,
from_moments, entropy) also take a stack (..., d, d) of states and act on
each; a check on a stack fails if any of its states fails it.  The checks
of outside input raise InputError; a wrong shape is the caller's error, a
ValueError.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import InputError

# assert_state's bounds on |Tr rho - 1| and ||rho - rho^dag||; the kernels
# derive their slack on a state's constant term and covariance from EPS_TRACE
EPS_TRACE = 1e-8
EPS_HERMITIAN = 1e-8
EPS_PSD = 1e-9
EPS_PURE = 1e-8
EPS_EVEN = 1e-9
EPS_UNITARY = 1e-9
EPS_RANK = 1e-10


def num_qubits(a: np.ndarray) -> int:
    """Qubit count of a square operator; raises on non-power-of-two dims."""
    if a.ndim != 2:
        raise ValueError(f"expected a square matrix of power-of-two dimension, got {a.shape}")
    return stack_qubits(a)


def stack_qubits(a: np.ndarray) -> int:
    """Qubit count of a square operator or of a stack (..., d, d) of them."""
    d = a.shape[-1] if a.ndim else 0
    if a.ndim < 2 or a.shape[-2] != d or d & (d - 1) or d == 0:
        raise ValueError(f"expected a square matrix of power-of-two dimension, got {a.shape}")
    return d.bit_length() - 1


def per_state(values: np.ndarray, kind=float):
    """A result with one value per state: kind(values) for one state, the array for a stack."""
    return kind(values) if np.ndim(values) == 0 else values


def assert_state(rho: np.ndarray) -> None:
    """Check finiteness, Hermiticity, unit trace and positivity up to tolerance; E_NOT_A_STATE.

    rho may be a stack (..., d, d); it fails if any of its states fails.
    """
    stack_qubits(rho)
    if not np.isfinite(rho).all():
        raise InputError("E_NOT_A_STATE", "state has non-finite entries")
    if np.any(np.linalg.norm(rho - rho.conj().swapaxes(-1, -2), axis=(-2, -1)) > EPS_HERMITIAN):
        raise InputError("E_NOT_A_STATE", "state is not Hermitian")
    if np.any(np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0) > EPS_TRACE):
        raise InputError("E_NOT_A_STATE", "state trace differs from 1")
    if np.linalg.eigvalsh(rho).min() < -EPS_PSD:
        raise InputError("E_NOT_A_STATE", "state has a negative eigenvalue beyond tolerance")


def assert_pure(psi: np.ndarray) -> None:
    """Check Tr psi^2 = 1 within EPS_PURE for a state or every state of a stack; E_NOT_PURE."""
    purity = np.real(np.trace(psi @ psi, axis1=-2, axis2=-1))
    if np.any(np.abs(purity - 1.0) > EPS_PURE):
        raise InputError("E_NOT_PURE", "input is not pure within tolerance")


def assert_even_state(rho: np.ndarray) -> None:
    """assert_state, then E_NOT_EVEN_STATE unless rho commutes with the parity operator."""
    assert_state(rho)
    if not np.all(is_even(rho)):
        raise InputError("E_NOT_EVEN_STATE", "state is not even")


def assert_unitary(u: np.ndarray) -> None:
    """Check finiteness and U^dag U = I within EPS_UNITARY; E_NOT_UNITARY otherwise."""
    n = num_qubits(u)
    if not np.isfinite(u).all():
        raise InputError("E_NOT_UNITARY", "matrix has non-finite entries")
    d = 1 << n
    res = np.linalg.norm(u.conj().T @ u - np.eye(d)) / math.sqrt(d)
    if res > EPS_UNITARY:
        raise InputError("E_NOT_UNITARY", "matrix is not unitary within tolerance")


# ---------------------------------------------------------------------------
# Phased Pauli strings: (phase, x_mask, z_mask) represents phase * X^x Z^z,
# qubit 0 is the most significant bit so masks align with basis indices.

def _majorana_pauli(j: int, n: int):
    """Pauli-string form of the j-th Majorana generator, 1 <= j <= 2n."""
    if not 1 <= j <= 2 * n:
        raise ValueError(f"Majorana index {j} out of range for {n} modes")
    mode = (j + 1) // 2  # 1-based mode
    q = mode - 1  # 0-based qubit, qubit 0 most significant
    site = 1 << (n - 1 - q)
    prefix = 0
    for p in range(q):
        prefix |= 1 << (n - 1 - p)
    if j % 2:  # X with Z-string
        return (1.0 + 0.0j, site, prefix)
    return (1j, site, prefix | site)  # Y = i X Z, with Z-string


@lru_cache(maxsize=None)
def popcounts(nbits: int) -> np.ndarray:
    """Popcount of every mask over nbits bits; its parity is popcounts(nbits) & 1."""
    masks = np.arange(1 << nbits, dtype=np.int64)
    out = np.zeros(1 << nbits, dtype=np.int64)
    while masks.any():
        out += masks & 1
        masks >>= 1
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _basis_paulis(n: int):
    """Arrays (phase, x, z) of gamma_J = phase * X^x Z^z for every mask J over 2n bits.

    Built by doubling: the masks with highest Majorana index j are those
    below 2^(j-1) times gamma_j, and X^a Z^b X^c Z^e = (-1)^{b.c} X^{a^c} Z^{b^e}.
    """
    par = popcounts(n) & 1
    phase = np.ones(1, dtype=complex)
    x = np.zeros(1, dtype=np.int64)
    z = np.zeros(1, dtype=np.int64)
    for j in range(1, 2 * n + 1):
        pj, xj, zj = _majorana_pauli(j, n)
        phase = np.concatenate([phase, phase * pj * (1.0 - 2.0 * par[z & xj])])
        x = np.concatenate([x, x ^ xj])
        z = np.concatenate([z, z ^ zj])
    for a in (phase, x, z):
        a.setflags(write=False)
    return phase, x, z


@lru_cache(maxsize=None)
def _moment_transform(n: int):
    """Sylvester-Hadamard matrix H[i, z] = (-1)^{i.z} and the moment signs.

    Tr(gamma_J^dag rho) = sign_J * sum_i (-1)^{i.z_J} rho[i, i ^ x_J] with
    sign_J = conj(phase_J) (-1)^{x_J.z_J}; the inverse transform scatters
    c_J * phase_J, so the two share the table.
    """
    phase, x, z = _basis_paulis(n)
    idx = np.arange(1 << n)
    par = popcounts(n) & 1
    had = 1.0 - 2.0 * par[idx[:, None] & idx[None, :]]
    sign = np.conj(phase) * (1.0 - 2.0 * par[x & z])
    for a in (had, sign):
        a.setflags(write=False)
    return had, sign


@lru_cache(maxsize=None)
def _majorana_flip(j: int, n: int):
    """gamma_j as a signed bit flip, (gamma_j v)[k] = sign[k] * v[src[k]]; cached read-only.

    With gamma_j = phase * X^x Z^z: src = k ^ x, sign = phase * (-1)^{src.z}.
    """
    phase, x, z = _majorana_pauli(j, n)
    src = np.arange(1 << n) ^ x
    sign = phase * (1.0 - 2.0 * (popcounts(n)[src & z] & 1))
    for a in (src, sign):
        a.setflags(write=False)
    return src, sign


@lru_cache(maxsize=None)
def majorana(j: int, n: int) -> np.ndarray:
    """Jordan-Wigner matrix of the j-th Majorana generator on n qubits, cached read-only."""
    src, sign = _majorana_flip(j, n)
    m = np.diag(sign)[:, src]  # m[k, src[k]] = sign[k], as src is its own inverse
    m.setflags(write=False)
    return m


def moments(rho: np.ndarray) -> np.ndarray:
    """All 4^n Majorana moments Tr(gamma_J^dag rho) of a state, indexed by mask."""
    assert_state(rho)
    return _moments(rho)


def _moments(rho: np.ndarray) -> np.ndarray:
    """The moment table of moments, for a state (or stack) already validated."""
    n = stack_qubits(rho)
    _, x, z = _basis_paulis(n)
    had, sign = _moment_transform(n)
    idx = np.arange(1 << n)
    v = rho[..., idx[None, :], idx[None, :] ^ idx[:, None]]  # v[x, i] = rho[i, i ^ x]
    v = v.astype(complex, copy=False) @ had
    out = v[..., x, z]
    out *= sign
    return out


def from_moments(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Reconstruct 2^-n sum_J c_J gamma_J from a moment table, or from a stack (..., 4^n)."""
    phase, x, z = _basis_paulis(n)
    had, _ = _moment_transform(n)
    d = 1 << n
    a = np.empty(coeffs.shape[:-1] + (d, d), dtype=complex)
    a[..., x, z] = coeffs * phase
    b = a @ had  # b[x, i] = 2^-n sum_z a[x, z] (-1)^{i.z}
    b /= d
    idx = np.arange(d)
    a[..., idx[None, :] ^ idx[:, None], idx[None, :]] = b  # a's entries are all read: reuse it
    return a


def partial_trace_second(a: np.ndarray) -> np.ndarray:
    """Trace out the last n of 2n qubits.

    No runtime path calls it; it stays while the benchmark names it as a
    per-layer metric (until the benchmark change).
    """
    q = num_qubits(a)
    if q % 2:
        raise ValueError("partial trace over the second half needs an even qubit count")
    d = 1 << (q // 2)
    return np.einsum("ikjk->ij", a.reshape(d, d, d, d))


def _clamped_spectrum(rho: np.ndarray) -> np.ndarray:
    w = np.linalg.eigvalsh(rho)
    if w.min() < -EPS_PSD:
        raise ValueError(f"eigenvalue {w.min():.3e} below -{EPS_PSD:g}: not a state")
    return np.clip(w, 0.0, 1.0)


def _von_neumann(w: np.ndarray):
    """-sum_i w_i log w_i over the last axis of a spectrum in [0, 1], with 0 log 0 = 0."""
    # + 0.0 turns -0 into 0, as for the other orders
    return per_state(-np.sum(w * np.log(np.where(w > 0, w, 1.0)), axis=-1) + 0.0)


def entropy(rho: np.ndarray, alpha: float = 1.0):
    """Renyi entropy S_alpha in nats; alpha=1 is von Neumann, 0 log-rank, inf min-entropy.

    A float for one state, an array of them for a stack (..., d, d).
    """
    if not alpha >= 0:  # NaN too
        raise ValueError("Renyi order must be nonnegative")
    w = _clamped_spectrum(rho)
    if alpha == 1.0:
        return _von_neumann(w)
    if alpha == 0.0:
        return per_state(np.log(np.count_nonzero(w > EPS_RANK, axis=-1)))
    # w^alpha may underflow, (w / w_max)^alpha may not; + 0.0 turns -0 into 0
    top = w.max(axis=-1)
    if math.isinf(alpha):
        return per_state(-np.log(top) + 0.0)
    tail = np.log(np.sum((w / top[..., None]) ** alpha, axis=-1))
    return per_state((alpha * np.log(top) + tail) / (1.0 - alpha) + 0.0)


def is_even(a: np.ndarray):
    """Whether A commutes with the parity operator Z^{(x)n}; one bool per state of a stack.

    The one parity check of states and unitaries: EPS_EVEN bounds this
    normalized commutator norm and nothing else.
    """
    n = stack_qubits(a)
    z = 1.0 - 2.0 * (popcounts(n) & 1)
    # [A, Z]_ij = A_ij (z_j - z_i), under the normalized norm sqrt(2^-n Tr A^dag A)
    comm = np.linalg.norm(a * (z[None, :] - z[:, None]), axis=(-2, -1)) / math.sqrt(1 << n)
    return per_state(comm <= EPS_EVEN, bool)

"""Protocol layer: Gaussianity checks for states and unitaries.

Swap tests are evaluated analytically on state vectors; finite-shot
sampling is out of scope.  The three-copy test is the paper's circuit,
W_theta on psi ox psi and a swap test against psi, with each factor of
W_theta a signed bit flip (clifford._majorana_flip).  The paper's unitary
protocol runs it on the Choi vector; the default unitary engine reads the
Choi state's covariance instead, computed from U without the Choi state.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from . import clifford

EPS_TEST = 1e-7


class Verdict(namedtuple("Verdict", "is_gaussian reason margin p_accept", defaults=(None,))):
    """Outcome of a Gaussianity test.

    reason: "" when Gaussian, "not-even" when the parity check decides, else
    "choi-not-gaussian" (unitaries only).  margin: the distance from the
    Gaussian verdict, Gaussian iff margin <= EPS_TEST; 1 - p_accept for a
    swap test, the covariance defect max_j (1 - sum_k R_jk^2) for the unitary
    "cumulant" engine.  p_accept: the state swap test's acceptance
    probability.  Both are None when the parity check decides.
    """

    __slots__ = ()


def _beam_split(v: np.ndarray, c, s) -> np.ndarray:
    """prod_j (c + s gamma_j gamma_{2n+j}) on a two-copy vector held as the 2^n x 2^n matrix v.

    gamma_j gamma_{2n+j} = gamma_j P ox gamma_j, with P the parity, so each
    factor flips both axes of v: v <- c v + s (gamma_j P) v gamma_j^T.  The
    factors commute; (c, s) = (cos, sin)(theta/2) gives W_theta.
    """
    n = clifford.num_qubits(v)
    par = 1.0 - 2.0 * (clifford.popcounts(n) & 1)
    for j in range(1, 2 * n + 1):
        src, sign = clifford._majorana_flip(j, n)
        v = c * v + s * (sign * par[src])[:, None] * v[src][:, src] * sign
    return v


def _swap_test(psi: np.ndarray) -> Verdict:
    """Swap test of a unit vector psi against psi boxtimes psi: p = (1 + ||<psi| W psi psi||^2)/2."""
    w = _beam_split(np.outer(psi, psi), np.cos(np.pi / 8), np.sin(np.pi / 8))
    p = 0.5 * (1.0 + float(np.linalg.norm(psi.conj() @ w)) ** 2)
    return Verdict(is_gaussian=bool(p >= 1.0 - EPS_TEST), reason="", margin=1.0 - p, p_accept=p)


def gaussian_state_test(psi: np.ndarray) -> Verdict:
    """Pure-state protocol: the parity check, then psi against psi boxtimes psi.

    psi must be a pure state; one of indefinite parity is not Gaussian.  The
    swap test accepts with p = (1 + <psi| psi boxtimes psi |psi>)/2, which
    equals 1 iff psi is fermionic Gaussian.  It runs on psi's top
    eigenvector, whose global phase drops out of p.
    """
    clifford.assert_state(psi)
    clifford.assert_pure(psi)
    if not clifford.is_even(psi):
        return Verdict(is_gaussian=False, reason="not-even", margin=None)
    return _swap_test(np.linalg.eigh(psi)[1][:, -1])


def even_unitary_test(u: np.ndarray) -> bool:
    """Whether U is even: it commutes with the parity operator, whatever its global phase."""
    clifford.assert_unitary(u)
    return clifford.is_even(u)


def _choi_vector(u: np.ndarray) -> np.ndarray:
    """(U ox I)|Phi_I>, with rho_I = |Phi_I><Phi_I|, as a 2^n x 2^n two-copy matrix.

    |Phi_I> is |0...0 1...1> projected by prod_j (1 + i gamma_j gamma_{2n+j})/2
    and normalised; |0...0 0...0> has no overlap with it.
    """
    d = u.shape[0]
    v = np.zeros((d, d), dtype=complex)
    v[0, d - 1] = 1.0
    v = _beam_split(v, 0.5, 0.5j)
    return u @ (v / np.linalg.norm(v))


def max_entangled_fermionic(n: int) -> np.ndarray:
    """rho_I = 2^{-2n} prod_j (1 + i gamma_j gamma_{2n+j}) on 2n qubits, the Choi state of I."""
    return choi_state(np.eye(1 << n, dtype=complex))


def choi_state(u: np.ndarray) -> np.ndarray:
    """(U ox I) rho_I (U ox I)^dag for a unitary U on n qubits."""
    clifford.assert_unitary(u)
    phi = _choi_vector(u).ravel()
    return np.outer(phi, phi.conj())


def choi_covariance_block(u: np.ndarray) -> np.ndarray:
    """R_jk = 2^-n Tr(gamma_k U gamma_j U^dag): U gamma_j U^dag projected on the gamma_k.

    R is the block of the Choi state's covariance that pairs the two halves
    (covariance(choi_state(u))[2n:, :2n] = -R), read off U by the flips of
    the gamma_j: a row flip of U^dag, and a signed sum over one permuted diagonal.
    """
    n = clifford.num_qubits(u)
    flips = [clifford._majorana_flip(j, n) for j in range(1, 2 * n + 1)]
    src, sign = map(np.stack, zip(*flips))
    ugu = u @ (sign[:, :, None] * u.conj().T[src])
    diag = ugu[:, src, np.arange(1 << n)]  # diag[j, k, a] = (U gamma_j U^dag)[src_k[a], a]
    return np.einsum("ka,jka->jk", sign, diag).real / (1 << n)


def gaussian_unitary_test(u: np.ndarray, engine: str = "cumulant") -> Verdict:
    """U is Gaussian iff it is even and its Choi state is Gaussian.

    engine: "dense" runs the paper's three-copy swap protocol on the Choi
    vector.  "cumulant" reads the Choi state's degree-2 cumulants, the block
    R of choi_covariance_block: the Choi state is pure, and a pure state is
    Gaussian iff its covariance is orthogonal (Bravyi, quant-ph/0404180),
    i.e. iff every U gamma_j U^dag lies in span{gamma_k} (Jozsa & Miyake,
    arXiv:0804.4050), i.e. iff every row of R has unit norm; this rule is
    exact at every mode count.  Odd unitaries such as gamma_1 also map the
    gamma_j into their span, so the even check, which validates U, comes first.
    """
    if engine not in ("dense", "cumulant"):
        raise ValueError(f"unknown engine {engine!r}")
    if not even_unitary_test(u):
        return Verdict(is_gaussian=False, reason="not-even", margin=None)
    if engine == "dense":
        res = _swap_test(_choi_vector(u).ravel())
        ok, margin = res.is_gaussian, res.margin
    else:
        r = choi_covariance_block(u)
        margin = float(np.max(1.0 - np.sum(r * r, axis=1)))
        ok = margin <= EPS_TEST
    return Verdict(is_gaussian=ok, reason="" if ok else "choi-not-gaussian", margin=margin)

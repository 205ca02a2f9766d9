"""Protocol layer: Gaussianity checks for states and unitaries.

Swap tests are evaluated analytically (p = (1 + Tr rho sigma)/2); finite-shot
sampling is out of scope.  The paper's unitary protocol tests the Choi state
with the three-copy swap test; the default unitary engine reads the Choi
state's covariance instead, computed from U without building the Choi state.
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


def gaussian_state_test(psi: np.ndarray) -> Verdict:
    """Pure-state protocol: the parity check, then psi against psi boxtimes psi.

    psi must be a pure state; one of indefinite parity is not Gaussian.  The
    swap test accepts with p = (1 + <psi| psi boxtimes psi |psi>)/2, which
    equals 1 iff psi is fermionic Gaussian.  The overlap is read in the
    moment domain, by Parseval: Tr psi c = 2^-n Re sum_J conj(psi_J) c_J.
    """
    # the one test that runs the polynomial engine loads it
    from . import convolution, grassmann, measures

    clifford.assert_state(psi)
    measures.assert_pure(psi)
    if not clifford.is_even(psi):
        return Verdict(is_gaussian=False, reason="not-even", margin=None)
    xi = grassmann.GrassmannPoly(2 * clifford.num_qubits(psi), clifford._moments(psi))
    conv = convolution.convolve_moments(xi, xi)
    overlap = float(np.real(np.vdot(xi.coeffs, conv.coeffs))) / psi.shape[0]
    p = 0.5 * (1.0 + overlap)
    return Verdict(is_gaussian=bool(p >= 1.0 - EPS_TEST), reason="", margin=1.0 - p, p_accept=p)


def even_unitary_test(u: np.ndarray) -> bool:
    """Whether U is even: it commutes with the parity operator, whatever its global phase."""
    clifford.assert_unitary(u)
    return clifford.is_even(u)


def max_entangled_fermionic(n: int) -> np.ndarray:
    """rho_I = 2^{-2n} prod_j (1 + i gamma_j gamma_{2n+j}) on 2n qubits.

    Expanding the product, each subset S of the 2n pairs gives the moment of
    gamma_{S | S << 2n}: i^|S| times the sign (-1)^{|S|(|S|-1)/2} of moving
    every gamma_{2n+j} behind all the gamma_j, which is 1 for even |S| and i
    for odd |S|.
    """
    m = 2 * n
    s = np.arange(1 << m)
    c = np.zeros(1 << (2 * m), dtype=complex)
    c[s | (s << m)] = np.where(clifford.popcounts(m) % 2, 1j, 1.0)
    return clifford.from_moments(c, m)


def choi_state(u: np.ndarray) -> np.ndarray:
    """(U ox I) rho_I (U ox I)^dag for a unitary U on n qubits."""
    clifford.assert_unitary(u)
    n = clifford.num_qubits(u)
    rho_i = max_entangled_fermionic(n)
    big = np.kron(u, np.eye(1 << n, dtype=complex))
    return big @ rho_i @ big.conj().T


def choi_covariance_block(u: np.ndarray) -> np.ndarray:
    """R_jk = 2^-n Tr(gamma_k U gamma_j U^dag): U gamma_j U^dag projected on the gamma_k.

    R is the block of the Choi state's covariance that pairs the two halves
    (covariance(choi_state(u))[2n:, :2n] = -R), read off U directly.
    """
    n = clifford.num_qubits(u)
    g = np.stack([clifford.majorana(j, n) for j in range(1, 2 * n + 1)])
    ugu = u @ g @ u.conj().T
    return np.einsum("kab,jba->jk", g, ugu).real / (1 << n)


def gaussian_unitary_test(u: np.ndarray, engine: str = "cumulant") -> Verdict:
    """U is Gaussian iff it is even and its Choi state is Gaussian.

    engine: "dense" runs the paper's three-copy swap protocol on the Choi
    state.  "cumulant" reads the Choi state's degree-2 cumulants, the block
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
        res = gaussian_state_test(choi_state(u))
        ok, margin = res.is_gaussian, res.margin
    else:
        r = choi_covariance_block(u)
        margin = float(np.max(1.0 - np.sum(r * r, axis=1)))
        ok = margin <= EPS_TEST
    return Verdict(is_gaussian=ok, reason="" if ok else "choi-not-gaussian", margin=margin)

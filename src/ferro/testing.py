"""Protocol layer: Gaussianity checks for states and unitaries.

Swap tests are evaluated analytically (p = (1 + Tr rho sigma)/2); finite-shot
sampling is out of scope.  The paper's unitary protocol tests the Choi state
with the three-copy swap test; the default unitary engine reads the Choi
state's covariance instead, computed from U without building the Choi state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import clifford, convolution, grassmann, measures

EPS_TEST = 1e-7


@dataclass(frozen=True)
class StateTestResult:
    p_accept: float
    is_gaussian: bool

    @property
    def margin(self) -> float:
        """Distance from the Gaussian verdict, 1 - p_accept: Gaussian iff margin <= EPS_TEST."""
        return 1.0 - self.p_accept


@dataclass(frozen=True)
class UnitaryTestResult:
    is_gaussian: bool
    reason: str  # "", "not-even" or "choi-not-gaussian"
    engine: str
    # distance from the Gaussian verdict, Gaussian iff margin <= EPS_TEST: the
    # covariance defect max_j (1 - sum_k R_jk^2) for "cumulant", 1 - p_accept
    # for "dense", None when the not-even check decides
    margin: float | None = None


def gaussian_state_test(psi: np.ndarray) -> StateTestResult:
    """Three-copy protocol: swap test between psi and psi boxtimes psi.

    p_accept = (1 + <psi| psi boxtimes psi |psi>)/2; equals 1 iff psi is
    fermionic Gaussian.  The overlap is read in the moment domain, by
    Parseval: Tr psi c = 2^-n Re sum_J conj(psi_J) c_J.
    """
    xi = grassmann.even_fourier(psi)
    measures.assert_pure(psi)
    conv = convolution.convolve_moments(xi, xi)
    overlap = float(np.real(np.vdot(xi.coeffs, conv.coeffs))) / psi.shape[0]
    p = 0.5 * (1.0 + overlap)
    return StateTestResult(p_accept=p, is_gaussian=bool(p >= 1.0 - EPS_TEST))


def even_state_test(psi: np.ndarray) -> bool:
    """Swap test between psi and Z^n psi Z^n; passes iff psi has definite parity."""
    clifford.assert_state(psi)
    n = clifford.num_qubits(psi)
    z = clifford.parity_operator(n)
    fidelity = float(np.real(np.trace(psi @ (z @ psi @ z))))
    purity = float(np.real(np.trace(psi @ psi)))
    return bool(fidelity >= purity - clifford.EPS_EVEN)


def even_unitary_test(u: np.ndarray) -> bool:
    """Passes iff Z^n U|+...+> = U Z^n|+...+>.

    The comparison uses Re<a|b>, which is insensitive to a global phase of U
    (the phase cancels between the two branches) yet still rejects odd
    unitaries such as gamma_1, where the branches differ by a relative sign.
    """
    clifford.assert_unitary(u)
    n = clifford.num_qubits(u)
    d = 1 << n
    plus = np.full(d, 1.0 / math.sqrt(d), dtype=complex)
    signs = 1.0 - 2.0 * (clifford.popcounts(n) & 1)
    a = signs * (u @ plus)
    b = u @ (signs * plus)
    return bool(np.real(np.vdot(a, b)) >= 1.0 - clifford.EPS_EVEN)


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


def gaussian_unitary_test(u: np.ndarray, engine: str = "cumulant") -> UnitaryTestResult:
    """U is Gaussian iff it is even and its Choi state is Gaussian.

    engine: "dense" runs the paper's three-copy swap protocol on the Choi
    state.  "cumulant" reads the Choi state's degree-2 cumulants, the block
    R of choi_covariance_block: the Choi state is pure, and a pure state is
    Gaussian iff its covariance is orthogonal (Bravyi, quant-ph/0404180),
    i.e. iff every U gamma_j U^dag lies in span{gamma_k} (Jozsa & Miyake,
    arXiv:0804.4050), i.e. iff every row of R has unit norm; this rule is
    exact at every mode count.  Odd unitaries such as gamma_1 also map the
    gamma_j into their span, so the even check comes first.
    """
    clifford.assert_unitary(u)
    if engine not in ("dense", "cumulant"):
        raise ValueError(f"unknown engine {engine!r}")
    if not even_unitary_test(u):
        return UnitaryTestResult(is_gaussian=False, reason="not-even", engine=engine)
    if engine == "dense":
        res = gaussian_state_test(choi_state(u))
        ok, margin = res.is_gaussian, res.margin
    else:
        r = choi_covariance_block(u)
        margin = float(np.max(1.0 - np.sum(r * r, axis=1)))
        ok = margin <= EPS_TEST
    return UnitaryTestResult(is_gaussian=ok, reason="" if ok else "choi-not-gaussian",
                             engine=engine, margin=margin)

"""Protocol layer: swap-test Gaussianity checks for states and unitaries.

Swap tests are evaluated analytically (p = (1 + Tr rho sigma)/2); finite-shot
sampling is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import clifford, convolution, measures

EPS_TEST = 1e-7


@dataclass(frozen=True)
class StateTestResult:
    p_accept: float
    is_gaussian: bool


@dataclass(frozen=True)
class UnitaryTestResult:
    is_gaussian: bool
    reason: str  # "", "not-even" or "choi-not-gaussian"
    engine: str


def gaussian_state_test(psi: np.ndarray, eps: float = EPS_TEST) -> StateTestResult:
    """Three-copy protocol: swap test between psi and psi boxtimes psi.

    p_accept = (1 + <psi| psi boxtimes psi |psi>)/2; equals 1 iff psi is
    fermionic Gaussian.
    """
    measures._assert_pure_even(psi)
    conv = convolution.convolve(psi, psi, check=False)
    overlap = float(np.real(np.trace(psi @ conv)))
    p = 0.5 * (1.0 + overlap)
    return StateTestResult(p_accept=p, is_gaussian=bool(p >= 1.0 - eps))


def even_state_test(psi: np.ndarray, eps: float = clifford.EPS_EVEN) -> bool:
    """Swap test between psi and Z^n psi Z^n; passes iff psi has definite parity."""
    clifford.assert_state(psi)
    n = clifford.num_qubits(psi)
    z = clifford.parity_operator(n)
    fidelity = float(np.real(np.trace(psi @ (z @ psi @ z))))
    purity = float(np.real(np.trace(psi @ psi)))
    return bool(fidelity >= purity - eps)


def even_unitary_test(u: np.ndarray, eps: float = clifford.EPS_EVEN) -> bool:
    """Passes iff Z^n U|+...+> = U Z^n|+...+>.

    The comparison uses Re<a|b>, which is insensitive to a global phase of U
    (the phase cancels between the two branches) yet still rejects odd
    unitaries such as gamma_1, where the branches differ by a relative sign.
    """
    clifford.assert_unitary(u)
    n = clifford.num_qubits(u)
    d = 1 << n
    plus = np.full(d, 1.0 / math.sqrt(d), dtype=complex)
    signs = 1.0 - 2.0 * clifford._parity_table(n)[np.arange(d)]
    a = signs * (u @ plus)
    b = u @ (signs * plus)
    return bool(np.real(np.vdot(a, b)) >= 1.0 - eps)


def max_entangled_fermionic(n: int) -> np.ndarray:
    """rho_I = 2^{-2n} prod_j (1 + i gamma_j gamma_{2n+j}) on 2n qubits."""
    d = 1 << (2 * n)
    rho = np.eye(d, dtype=complex)
    for j in range(1, 2 * n + 1):
        g = clifford.majorana(j, 2 * n) @ clifford.majorana(2 * n + j, 2 * n)
        rho = rho @ (np.eye(d) + 1j * g)
    return rho / d


def choi_state(u: np.ndarray) -> np.ndarray:
    """(U ox I) rho_I (U ox I)^dag for a unitary U on n qubits."""
    clifford.assert_unitary(u)
    n = clifford.num_qubits(u)
    rho_i = max_entangled_fermionic(n)
    big = np.kron(u, np.eye(1 << n, dtype=complex))
    return big @ rho_i @ big.conj().T


def gaussian_unitary_test(u: np.ndarray, engine: str = "auto",
                          eps: float = EPS_TEST) -> UnitaryTestResult:
    """U is Gaussian iff it is even and its Choi state is Gaussian.

    engine: "dense" runs the three-copy swap protocol on the Choi state;
    "cumulant" checks vanishing super-quadratic cumulant mass of the Choi
    state instead; "auto" picks dense for n <= 2.
    """
    clifford.assert_unitary(u)
    n = clifford.num_qubits(u)
    if engine == "auto":
        engine = "dense" if n <= 2 else "cumulant"
    if engine not in ("dense", "cumulant"):
        raise ValueError(f"unknown engine {engine!r}")
    if not even_unitary_test(u):
        return UnitaryTestResult(is_gaussian=False, reason="not-even", engine=engine)
    choi = choi_state(u)
    if engine == "dense":
        ok = gaussian_state_test(choi, eps=eps).is_gaussian
    else:
        # Gaussian iff all super-quadratic cumulants vanish
        ok = measures.cumulant_weights(choi, check=False)[2] <= eps
    if not ok:
        return UnitaryTestResult(is_gaussian=False, reason="choi-not-gaussian", engine=engine)
    return UnitaryTestResult(is_gaussian=True, reason="", engine=engine)

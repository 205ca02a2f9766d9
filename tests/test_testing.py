import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ferro import clifford, convolution, gaussian, states, testing

from helpers import (
    choi_super_quadratic_mass,
    computational_state,
    max_entangled_product,
    parity_block_unitary,
    quartic_unitary,
    random_gaussian_state,
    random_gaussian_unitary,
    random_pure_even_state,
)

CZ = np.diag([1, 1, 1, -1]).astype(complex)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
TOFFOLI = np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]]


def test_state_test_accepts_computational_basis():
    res = testing.gaussian_state_test(computational_state("000"))
    assert res.is_gaussian and abs(res.p_accept - 1.0) < 1e-12


def test_state_test_accepts_rotated_gaussians(rng):
    for _ in range(5):
        psi = random_gaussian_state(rng, 2, pure=True)
        res = testing.gaussian_state_test(psi)
        assert abs(res.p_accept - 1.0) < 1e-9
        assert res.is_gaussian


def test_state_test_rejects_magic_state():
    res = testing.gaussian_state_test(states.magic_state(math.pi))
    assert not res.is_gaussian
    assert res.p_accept < 1.0 - 1e-3


def test_state_test_reads_overlap_from_moments(rng, monkeypatch):
    """The swap-test overlap is a moment-domain Parseval sum: no matrix is rebuilt."""
    psi = states.magic_state(2.0)
    want = 0.5 * (1.0 + np.real(np.trace(psi @ convolution.convolve(psi, psi))))

    def refuse(*args):
        raise AssertionError("gaussian_state_test rebuilt a matrix")

    monkeypatch.setattr(clifford, "from_moments", refuse)
    assert abs(testing.gaussian_state_test(psi).p_accept - want) < 1e-12
    assert testing.gaussian_state_test(random_gaussian_state(rng, 3, pure=True)).is_gaussian


def test_state_test_rejects_mixed_input():
    with pytest.raises(ValueError):
        testing.gaussian_state_test(np.eye(4, dtype=complex) / 4)


def test_even_state_test():
    assert testing.even_state_test(computational_state("1"))
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert not testing.even_state_test(plus)


def test_even_unitary_test_corpus():
    assert testing.even_unitary_test(np.diag([1.0, -1.0]).astype(complex))  # Z
    assert testing.even_unitary_test(np.diag([1.0, 1j]).astype(complex))  # phase
    assert not testing.even_unitary_test(clifford.majorana(1, 2))  # gamma_1
    for theta in (0.3, math.pi / 4, 1.2):
        assert testing.even_unitary_test(convolution.conv_unitary(theta, 1))


def test_even_unitary_test_ignores_global_phase():
    u = np.exp(0.321j) * CZ
    assert testing.even_unitary_test(u)


def test_max_entangled_state(rng):
    for n in (1, 2, 3, 4):
        rho = testing.max_entangled_fermionic(n)
        assert np.abs(rho - max_entangled_product(n)).max() < 1e-12
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert abs(np.real(np.trace(rho @ rho)) - 1.0) < 1e-12
        d = 1 << n
        assert np.abs(clifford.partial_trace_second(rho) - np.eye(d) / d).max() < 1e-12
        first = np.einsum("kikj->ij", rho.reshape(d, d, d, d))
        assert np.abs(first - np.eye(d) / d).max() < 1e-12
        sig = gaussian.covariance(rho)
        eye = np.eye(2 * n)
        assert np.abs(sig[: 2 * n, 2 * n :] - eye).max() < 1e-9
        assert np.abs(sig[2 * n :, : 2 * n] + eye).max() < 1e-9
        assert np.abs(sig[: 2 * n, : 2 * n]).max() < 1e-9


def test_choi_state_of_identity():
    n = 2
    choi = testing.choi_state(np.eye(1 << n, dtype=complex))
    assert np.abs(choi - testing.max_entangled_fermionic(n)).max() < 1e-12


def test_choi_state_of_gaussian_unitary_is_gaussian(rng):
    u, r = random_gaussian_unitary(rng, 2)
    choi = testing.choi_state(u)
    res = testing.gaussian_state_test(choi)
    assert res.is_gaussian
    # covariance block structure [[0, O^T], [-O, 0]]
    sig = gaussian.covariance(choi)
    assert np.abs(sig[:4, 4:] - r.T).max() < 1e-9
    assert np.abs(sig[4:, :4] + r).max() < 1e-9
    assert np.abs(sig[:4, :4]).max() < 1e-9
    assert np.abs(sig[4:, 4:]).max() < 1e-9


def test_unitary_test_gaussian_corpus(rng):
    for _ in range(5):
        u, _ = random_gaussian_unitary(rng, 2)
        res = testing.gaussian_unitary_test(u)
        assert res.is_gaussian, res
    w = convolution.conv_unitary(math.pi / 4, 1)
    assert testing.gaussian_unitary_test(w).is_gaussian


def test_unitary_test_non_gaussian_corpus(rng):
    res = testing.gaussian_unitary_test(CZ)
    assert not res.is_gaussian and res.reason == "choi-not-gaussian"
    res = testing.gaussian_unitary_test(SWAP)
    assert not res.is_gaussian and res.reason == "choi-not-gaussian"
    res = testing.gaussian_unitary_test(clifford.majorana(1, 2))
    assert not res.is_gaussian and res.reason == "not-even"
    for _ in range(3):
        res = testing.gaussian_unitary_test(parity_block_unitary(rng))
        assert not res.is_gaussian and res.reason == "choi-not-gaussian"


def test_unitary_test_cumulant_engine(rng):
    u, _ = random_gaussian_unitary(rng, 2)
    res = testing.gaussian_unitary_test(u, engine="cumulant")
    assert res.is_gaussian and res.engine == "cumulant"
    assert not testing.gaussian_unitary_test(CZ, engine="cumulant").is_gaussian
    # Toffoli flips parity on |110>, so it fails the even test
    res = testing.gaussian_unitary_test(TOFFOLI)
    assert res.engine == "cumulant"
    assert not res.is_gaussian and res.reason == "not-even"


def test_engines_agree_at_one_and_two_modes(rng):
    corpus = [
        (random_gaussian_unitary(rng, 1)[0], True, ""),
        (random_gaussian_unitary(rng, 2)[0], True, ""),
        (convolution.conv_unitary(math.pi / 4, 1), True, ""),
        (CZ, False, "choi-not-gaussian"),
        (SWAP, False, "choi-not-gaussian"),
        (parity_block_unitary(rng, 2), False, "choi-not-gaussian"),
        (clifford.majorana(1, 1), False, "not-even"),
        (clifford.majorana(1, 2), False, "not-even"),
    ]
    for u, gaussian_, reason in corpus:
        default = testing.gaussian_unitary_test(u)
        dense = testing.gaussian_unitary_test(u, engine="dense")
        assert default.engine == "cumulant"
        assert (default.is_gaussian, default.reason) == (gaussian_, reason)
        assert (dense.is_gaussian, dense.reason) == (gaussian_, reason)
    with pytest.raises(ValueError):
        testing.gaussian_unitary_test(CZ, engine="auto")


def test_engines_agree_at_three_modes(rng):
    corpus = [
        (random_gaussian_unitary(rng, 3)[0], True, ""),
        (parity_block_unitary(rng, 3), False, "choi-not-gaussian"),
        (TOFFOLI, False, "not-even"),
    ]
    for u, gaussian_, reason in corpus:
        for engine in ("dense", "cumulant"):
            res = testing.gaussian_unitary_test(u, engine=engine)
            assert (res.is_gaussian, res.reason, res.engine) == (gaussian_, reason, engine)
            if reason == "not-even":
                assert res.margin is None
            else:
                assert (res.margin <= testing.EPS_TEST) == gaussian_


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(2, 3),
    kind=st.sampled_from(["gaussian", "parity-block", "quartic"]),
    # sin^2(2t) is 0 or >= 1e-2: the margin and K_M disagree only near eps
    t=st.one_of(st.just(0.0),
                st.floats(0.0, math.pi).filter(lambda t: math.sin(2 * t) ** 2 >= 1e-2)),
    seed=st.integers(0, 2**32 - 1),
)
def test_covariance_rule_matches_choi_cumulants(n, kind, t, seed):
    """The covariance engine agrees with K_M of the Choi state, and R is its covariance block."""
    rng = np.random.default_rng(seed)
    if kind == "parity-block":
        u = parity_block_unitary(rng, n)
    else:
        u = random_gaussian_unitary(rng, n)[0]
        if kind == "quartic":
            u = u @ quartic_unitary(n, t)
    res = testing.gaussian_unitary_test(u, engine="cumulant")
    oracle = testing.even_unitary_test(u) and choi_super_quadratic_mass(u) <= testing.EPS_TEST
    assert res.is_gaussian == oracle
    sig = gaussian.covariance(testing.choi_state(u))
    assert np.abs(testing.choi_covariance_block(u) + sig[2 * n :, : 2 * n]).max() < 1e-12


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_covariance_rule_closed_forms(rng, n):
    u, r = random_gaussian_unitary(rng, n)
    assert np.abs(testing.choi_covariance_block(u) - r).max() < 1e-12
    res = testing.gaussian_unitary_test(u)
    assert (res.is_gaussian, res.engine) == (True, "cumulant")
    for t in (0.3, 1.0):
        res = testing.gaussian_unitary_test(quartic_unitary(n, t))
        assert abs(res.margin - math.sin(2 * t) ** 2) < 1e-12
        assert not res.is_gaussian
    res = testing.gaussian_unitary_test(parity_block_unitary(rng, n))
    assert (res.is_gaussian, res.reason) == (False, "choi-not-gaussian")


def test_rejection_probability_identity(rng):
    psi = random_pure_even_state(rng, 2)
    res = testing.gaussian_state_test(psi)
    conv = convolution.convolve(psi, psi)
    overlap = float(np.real(np.trace(psi @ conv)))
    assert res.p_accept <= 1.0 + 1e-12
    assert abs((1.0 - res.p_accept) - 0.5 * (1.0 - overlap)) < 1e-12

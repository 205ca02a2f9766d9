import math

import numpy as np
import pytest

from ferro import clifford, convolution, measures, states

from helpers import (
    random_even_state,
    random_gaussian_state,
    random_gaussian_unitary,
    random_pure_even_state,
)


def test_moment_weights_maximally_mixed():
    w, i_m = measures.moment_weights(np.eye(4, dtype=complex) / 4)
    assert abs(w[0] - 1.0) < 1e-12
    assert np.abs(w[1:]).max() < 1e-12
    assert abs(i_m) < 1e-12


def test_moment_weights_sum_rule(rng):
    rho = random_even_state(rng, 2)
    w, _ = measures.moment_weights(rho)
    assert abs(w.sum() - 4 * np.real(np.trace(rho @ rho))) < 1e-9
    psi = random_pure_even_state(rng, 2)
    w2, _ = measures.moment_weights(psi)
    assert abs(w2.sum() - 4.0) < 1e-9


def test_cumulant_weights_pure_gaussian(rng):
    for n in (2, 3, 4):
        psi = random_gaussian_state(rng, n, pure=True)
        _, k_g, k_m, k_total = measures.cumulant_weights(psi)
        assert abs(k_g - n) < 1e-9
        assert k_m < 1e-9
        assert abs(k_total - 2 * n) < 1e-8


def test_cumulant_weights_additive(rng):
    ra = random_even_state(rng, 1)
    rb = random_even_state(rng, 2)
    ka = measures.cumulant_weights(ra)[0]
    kb = measures.cumulant_weights(rb)[0]
    kj = measures.cumulant_weights(np.kron(ra, rb))[0]
    pad = np.zeros(len(kj))
    pad[: len(ka)] += ka
    pad[: len(kb)] += kb
    assert np.abs(kj - pad).max() < 1e-9


def test_magic_state_k_m_peaks_at_pi():
    vals = []
    for phi in np.linspace(0, 2 * math.pi, 17):
        _, _, k_m, _ = measures.cumulant_weights(states.magic_state(phi))
        vals.append(k_m)
    assert np.argmax(vals) == 8  # the phi = pi grid point


def test_ng_relative_entropy_gaussian_zero(rng):
    rho = random_gaussian_state(rng, 2)
    assert measures.ng_relative_entropy(rho) < 1e-8


def test_ng_relative_entropy_additive(rng):
    ra = random_even_state(rng, 1)
    rb = random_even_state(rng, 2)
    lhs = measures.ng_relative_entropy(np.kron(ra, rb))
    rhs = measures.ng_relative_entropy(ra) + measures.ng_relative_entropy(rb)
    assert abs(lhs - rhs) < 1e-8


def test_weight_invariance_under_gaussian_unitaries(rng):
    rho = random_even_state(rng, 2)
    w0, i0 = measures.moment_weights(rho)
    k0, kg0, km0, kt0 = measures.cumulant_weights(rho)
    ng0 = measures.ng_relative_entropy(rho)
    for _ in range(3):
        u, _ = random_gaussian_unitary(rng, 2)
        rot = u @ rho @ u.conj().T
        w, i_m = measures.moment_weights(rot)
        k, kg, km, kt = measures.cumulant_weights(rot)
        assert np.abs(w - w0).max() < 1e-9
        assert abs(i_m - i0) < 1e-8
        assert np.abs(k - k0).max() < 1e-9
        assert abs(kg - kg0) < 1e-9 and abs(km - km0) < 1e-9 and abs(kt - kt0) < 1e-8
        assert abs(measures.ng_relative_entropy(rot) - ng0) < 1e-8


def test_ng_entropy_gaussian_zero(rng):
    psi = random_gaussian_state(rng, 2, pure=True)
    for k in (1, 2):
        for alpha in (0.0, 1.0, 2.0, math.inf):
            assert measures.ng_entropy(psi, k=k, alpha=alpha) < 1e-7


def test_ng_entropies_match_iterates():
    psi = states.magic_state(2.0)
    for alpha in (1.0, 2.0):
        vals = measures.ng_entropies(psi, 4, alpha=alpha)
        assert len(vals) == 4
        for k in range(1, 5):
            expect = clifford.entropy(convolution.iterate_conv(psi, k), alpha)
            assert vals[k - 1] == expect
            assert measures.ng_entropy(psi, k=k, alpha=alpha) == expect


def test_ng_entropies_stay_in_moment_domain(monkeypatch):
    """One moment transform in; one matrix out per order, for its entropy."""
    calls = []

    def counting(name):
        fn = getattr(clifford, name)
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    # _moments is the transform itself; the validating moments also goes through it
    for name in ("_moments", "from_moments"):
        monkeypatch.setattr(clifford, name, counting(name))
    measures.ng_entropies(states.magic_state(2.0), 4)
    assert (calls.count("_moments"), calls.count("from_moments")) == (1, 4)


def test_ng_entropy_rejects_bad_input(rng):
    with pytest.raises(ValueError):
        measures.ng_entropy(np.eye(4, dtype=complex) / 4)  # mixed
    plus = np.full((2, 2), 0.5, dtype=complex)
    with pytest.raises(ValueError):
        measures.ng_entropy(plus)  # odd


def test_magic_family_min_entropy_plateau():
    """alpha=0 order: log-rank is 3 log 2 after one convolution, 4 log 2 after two.

    The one-convolution output of the interior family members has rank 8,
    not 16; the 4 log 2 plateau starts at k = 2.
    """
    psi = states.magic_state(math.pi / 2)
    assert abs(measures.ng_entropy(psi, k=1, alpha=0.0) - 3 * math.log(2)) < 1e-8
    for k in (2, 3):
        assert abs(measures.ng_entropy(psi, k=k, alpha=0.0) - 4 * math.log(2)) < 1e-8


def test_ng_entropy_monotone_to_relative(rng):
    psi = states.magic_state(math.pi)
    ng_r = measures.ng_relative_entropy(psi)
    prev = 0.0
    for k in (1, 2, 3):
        val = measures.ng_entropy(psi, k=k)
        assert val >= prev - 1e-9
        assert val <= ng_r + 1e-9
        prev = val
    assert ng_r - prev < 0.05 * ng_r  # k = 3 is already within 5%


def test_ng_entropy_mixed(rng):
    rho = random_gaussian_state(rng, 2)
    assert measures.ng_entropy_mixed(rho, k=2) < 1e-8
    psi = random_pure_even_state(rng, 2)
    assert abs(measures.ng_entropy_mixed(psi, k=1)
               - measures.ng_entropy(psi, k=1)) < 1e-9
    mixed = random_even_state(rng, 2)
    assert measures.ng_entropy_mixed(mixed, k=2) >= 0.0


def test_clt_bound(rng):
    g = random_gaussian_state(rng, 2)
    for k in (0, 1, 3):
        assert measures.clt_bound(g, k) < 1e-6
    psi = states.magic_state(math.pi)
    ratios = [measures.clt_bound(psi, k + 1) / measures.clt_bound(psi, k) for k in (10, 12, 14)]
    for ratio in ratios:
        assert abs(ratio - 0.5) < 0.01
    with pytest.raises(ValueError):
        measures.clt_bound(psi, 2, variant="nope")
    assert measures.clt_bound(psi, 4, variant="linear") > 0.0

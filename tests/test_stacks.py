"""A stack (..., d, d) of states runs through the sweep path as one computation.

Every stacked function matches per-state calls, a stack fails a check with
the error its failing state raises alone, and one state keeps its types.
"""

import math

import numpy as np
import pytest

from ferro import clifford, convolution, gaussian, grassmann, measures, states

from helpers import random_even_state, random_pure_even_state


def even_stack(rng, n, rows=4):
    return np.stack([random_even_state(rng, n) for _ in range(rows)])


def pure_stack(rng, n, rows=4):
    return np.stack([random_pure_even_state(rng, n, parity=r % 2) for r in range(rows)])


def close(a, b, tol=1e-14):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    if a.dtype == bool:
        assert np.array_equal(a, b)
    else:
        assert np.abs(a - b).max() <= tol


def coeffs(x):
    return x.coeffs if isinstance(x, grassmann.GrassmannPoly) else x


# function name -> callable of one state or a stack; the output is an array,
# a polynomial, or a tuple/list of them
MIXED = {
    "clifford.is_even": clifford.is_even,
    "clifford.moments": clifford.moments,
    "clifford.entropy[1]": clifford.entropy,
    "clifford.entropy[0]": lambda r: clifford.entropy(r, 0.0),
    "clifford.entropy[2]": lambda r: clifford.entropy(r, 2.0),
    "clifford.entropy[inf]": lambda r: clifford.entropy(r, math.inf),
    "clifford.from_moments": lambda r: clifford.from_moments(clifford.moments(r),
                                                           clifford.stack_qubits(r)),
    "grassmann.even_fourier": grassmann.even_fourier,
    "grassmann.cumulants": grassmann.cumulants,
    "grassmann.inverse_fourier": lambda r: grassmann.inverse_fourier(grassmann.even_fourier(r)),
    "gaussian.covariance": gaussian.covariance,
    "gaussian.gaussification": gaussian.gaussification,
    "gaussian.gaussian_from_covariance":
        lambda r: gaussian.gaussian_from_covariance(gaussian.covariance(r)),
    "convolution.convolve_moments": lambda r: convolution.convolve_moments(
        grassmann.even_fourier(r), grassmann.even_fourier(r), 0.4),
    "measures.ng_relative_entropy": measures.ng_relative_entropy,
    "measures.cumulant_weights": measures.cumulant_weights,
    "measures.polynomial_weights": lambda r: measures.polynomial_weights(grassmann.cumulants(r)),
}
PURE = {
    "measures.ng_entropies[1]": lambda r: measures.ng_entropies(r, 3),
    "measures.ng_entropies[2]": lambda r: measures.ng_entropies(r, 3, alpha=2.0),
    "measures.ng_relative_entropy": measures.ng_relative_entropy,
}


def check_rows(fn, stack):
    out = fn(stack)
    parts = out if isinstance(out, (tuple, list)) else (out,)
    for r in range(len(stack)):
        one = fn(stack[r])
        ones = one if isinstance(one, (tuple, list)) else (one,)
        assert len(ones) == len(parts)
        for part, single in zip(parts, ones):
            close(coeffs(part)[r], coeffs(single))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", sorted(MIXED))
def test_stack_matches_rows(rng, name, n):
    check_rows(MIXED[name], even_stack(rng, n))


@pytest.mark.parametrize("name", sorted(PURE))
def test_pure_stack_matches_rows(rng, name):
    check_rows(PURE[name], pure_stack(rng, 3))


def test_checks_pass_on_a_stack(rng):
    clifford.assert_state(even_stack(rng, 2))
    clifford.assert_even_state(even_stack(rng, 2))
    measures.assert_pure(pure_stack(rng, 2))
    mixed_parity = even_stack(rng, 2, rows=3)
    mixed_parity[1] = ODD
    assert clifford.is_even(mixed_parity).tolist() == [True, False, True]


def test_magic_state_of_an_array():
    phis = np.linspace(0.0, 2.0 * math.pi, 7)
    stack = states.magic_state(phis)
    assert stack.shape == (7, 16, 16)
    for phi, rho in zip(phis, stack):
        assert np.array_equal(rho, states.magic_state(phi))
    assert np.array_equal(states.magic_state_vector(phis)[3], states.magic_state_vector(phis[3]))


def test_one_state_keeps_its_types(rng):
    rho, psi = random_even_state(rng, 2), random_pure_even_state(rng, 2)
    assert type(clifford.is_even(rho)) is bool
    assert type(clifford.entropy(rho)) is float
    assert type(measures.ng_relative_entropy(rho)) is float
    assert all(type(v) is float for v in measures.ng_entropies(psi, 2))
    assert all(type(v) is float for v in measures.cumulant_weights(rho)[1:])


# one bad state: not a state (negative eigenvalue), not even, not pure
NOT_A_STATE = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
ODD = np.zeros((4, 4), dtype=complex)
ODD[np.ix_([0, 1], [0, 1])] = 0.5
MIXED_EVEN = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)

REJECTING = {
    "clifford.assert_state": (clifford.assert_state, [NOT_A_STATE]),
    "clifford.assert_even_state": (clifford.assert_even_state, [NOT_A_STATE, ODD]),
    "clifford.entropy": (clifford.entropy, [NOT_A_STATE]),
    "clifford.moments": (clifford.moments, [NOT_A_STATE]),
    "grassmann.cumulants": (grassmann.cumulants, [NOT_A_STATE, ODD]),
    "gaussian.gaussification": (gaussian.gaussification, [NOT_A_STATE, ODD]),
    "measures.assert_pure": (measures.assert_pure, [MIXED_EVEN]),
    "measures.ng_entropies": (lambda r: measures.ng_entropies(r, 2),
                              [NOT_A_STATE, ODD, MIXED_EVEN]),
    "measures.ng_relative_entropy": (measures.ng_relative_entropy, [NOT_A_STATE, ODD]),
    "measures.cumulant_weights": (measures.cumulant_weights, [NOT_A_STATE, ODD]),
}


@pytest.mark.parametrize("name", sorted(REJECTING))
def test_stack_fails_as_its_bad_state(rng, name):
    fn, bad_states = REJECTING[name]
    for bad in bad_states:
        with pytest.raises(ValueError) as alone:
            fn(bad)
        for row in (0, 2):
            stack = pure_stack(rng, 2, rows=3) if name.startswith("measures.") else even_stack(
                rng, 2, rows=3)
            stack[row] = bad
            with pytest.raises(ValueError) as stacked:
                fn(stack)
            assert str(stacked.value) == str(alone.value)

"""One validation boundary: every public function that takes a state checks it, with no switch."""

import inspect
import math

import numpy as np
import pytest

import ferro
from ferro import clifford, convolution, gaussian, grassmann, measures, testing


def _public_functions():
    for name in ferro.__all__:
        mod = getattr(ferro, name)
        for attr, obj in vars(mod).items():
            fn = inspect.isfunction(obj) or hasattr(obj, "cache_info")
            if fn and not attr.startswith("_") and obj.__module__ == mod.__name__:
                yield f"{name}.{attr}", obj


def test_no_public_function_takes_a_check_switch():
    params = {name: inspect.signature(fn).parameters for name, fn in _public_functions()}
    assert len(params) > 50
    assert [name for name, p in params.items() if "check" in p] == []
    assert list(params["convolution.iterate_conv"]) == ["rho", "k"]
    assert "convolution.convolve_moments" in params


# a pure 2-mode state across both parity sectors, and an even matrix of unit
# trace with a negative eigenvalue
ODD = np.zeros((4, 4), dtype=complex)
ODD[np.ix_([0, 1], [0, 1])] = 0.5
NOT_A_STATE = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)

EVEN_ONLY = {
    "grassmann.cumulants": grassmann.cumulants,
    "grassmann.even_fourier": grassmann.even_fourier,
    "gaussian.gaussification": gaussian.gaussification,
    "convolution.convolve[rho]": lambda r: convolution.convolve(r, np.eye(4) / 4),
    "convolution.convolve[sigma]": lambda r: convolution.convolve(np.eye(4) / 4, r),
    "convolution.complementary_convolve": lambda r: convolution.complementary_convolve(r, r),
    "convolution.iterate_conv[0]": lambda r: convolution.iterate_conv(r, 0),
    "convolution.iterate_conv[2]": lambda r: convolution.iterate_conv(r, 2),
    "convolution.iterate_conv_linear[1]": lambda r: convolution.iterate_conv_linear(r, 1),
    "convolution.iterate_conv_linear[3]": lambda r: convolution.iterate_conv_linear(r, 3),
    "measures.cumulant_weights": measures.cumulant_weights,
    "measures.ng_relative_entropy": measures.ng_relative_entropy,
    "measures.ng_entropies": lambda r: measures.ng_entropies(r, 2),
    "measures.ng_entropy": measures.ng_entropy,
    "measures.ng_entropy_mixed": measures.ng_entropy_mixed,
    "measures.clt_bound": lambda r: measures.clt_bound(r, 1),
    "testing.gaussian_state_test": testing.gaussian_state_test,
}
ANY_STATE = {
    "clifford.moments": clifford.moments,
    "grassmann.fourier": grassmann.fourier,
    "gaussian.covariance": gaussian.covariance,
    "measures.moment_weights": measures.moment_weights,
}


@pytest.mark.parametrize("name", sorted(EVEN_ONLY))
def test_rejects_non_even_state(name):
    clifford.assert_state(ODD)
    with pytest.raises(ValueError):
        EVEN_ONLY[name](ODD)


@pytest.mark.parametrize("name", sorted(EVEN_ONLY) + sorted(ANY_STATE))
def test_rejects_non_state(name):
    assert clifford.is_even(NOT_A_STATE)
    with pytest.raises(ValueError):
        {**EVEN_ONLY, **ANY_STATE}[name](NOT_A_STATE)


def test_assert_even_state():
    clifford.assert_even_state(np.eye(4, dtype=complex) / 4)
    with pytest.raises(ValueError, match="not even"):
        clifford.assert_even_state(ODD)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        clifford.assert_even_state(NOT_A_STATE)


def test_popcounts_parity():
    assert list(clifford.popcounts(3)) == [0, 1, 1, 2, 1, 2, 2, 3]
    z = clifford.parity_operator(3)
    assert np.array_equal(np.diag(z).real, 1.0 - 2.0 * (clifford.popcounts(3) & 1))


def test_convolve_is_the_moment_product(rng):
    from helpers import random_even_state

    rho, sigma = random_even_state(rng, 2), random_even_state(rng, 2)
    xi = convolution.convolve_moments(grassmann.fourier(rho), grassmann.fourier(sigma), 0.3)
    out = convolution.convolve(rho, sigma, 0.3)
    assert np.abs(grassmann.inverse_fourier(xi) - out).max() < 1e-12
    assert np.abs(grassmann.fourier(out).coeffs - xi.coeffs).max() < 1e-12
    half = convolution.convolve_moments(xi, xi, math.pi / 2)
    assert np.abs(half.coeffs - xi.coeffs).max() < 1e-12  # theta = pi/2 keeps the second factor


def count_state_checks(monkeypatch):
    calls = []
    assert_state = clifford.assert_state

    def counted(*args, **kwargs):
        calls.append(1)
        return assert_state(*args, **kwargs)

    monkeypatch.setattr(clifford, "assert_state", counted)
    return calls


ONCE = {
    "grassmann.cumulants": grassmann.cumulants,
    "gaussian.gaussification": gaussian.gaussification,
    "measures.ng_entropies": lambda r: measures.ng_entropies(r, 3),
    "measures.ng_relative_entropy": measures.ng_relative_entropy,
    "measures.cumulant_weights": measures.cumulant_weights,
    "testing.gaussian_state_test": testing.gaussian_state_test,
    "convolution.iterate_conv": lambda r: convolution.iterate_conv(r, 2),
}


@pytest.mark.parametrize("name", sorted(ONCE))
def test_validates_once(monkeypatch, name):
    """Validate, then take the moment table through the unchecked transform."""
    from ferro import states

    calls = count_state_checks(monkeypatch)
    ONCE[name](states.magic_state(2.0))
    assert len(calls) == 1


@pytest.mark.parametrize("engine", ["dense", "cumulant"])
def test_clt_validates_once(tmp_path, monkeypatch, engine):
    """clt reads one moment table and derives the iterates and the cumulants from it."""
    from ferro import cli, io, states

    f = tmp_path / "psi.txt"
    f.write_text(io.write_array(states.magic_state_vector(2.0)))
    calls = count_state_checks(monkeypatch)
    assert cli.main(["clt", str(f), "--engine", engine, "--out", str(tmp_path / "c.csv")]) == 0
    assert len(calls) == 1

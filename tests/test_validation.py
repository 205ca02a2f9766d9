"""One validation boundary: every public function that takes a state checks it, with no switch."""

import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest

import ferro
from ferro import cli, clifford, convolution, gaussian, grassmann, measures, testing


MODULES = [getattr(ferro, name) for name in ferro.__all__] + [cli]


def _public_functions():
    for mod in MODULES:
        for attr, obj in vars(mod).items():
            fn = inspect.isfunction(obj) or hasattr(obj, "cache_info")
            if fn and not attr.startswith("_") and obj.__module__ == mod.__name__:
                yield f"{mod.__name__.removeprefix('ferro.')}.{attr}", obj


def _public_methods():
    """(name, class, attribute) of every public method, classmethod or staticmethod."""
    for mod in MODULES:
        for cname, cls in vars(mod).items():
            if not inspect.isclass(cls) or cname.startswith("_") or cls.__module__ != mod.__name__:
                continue
            for attr, obj in vars(cls).items():
                if not attr.startswith("_") and inspect.isfunction(getattr(obj, "__func__", obj)):
                    yield f"{mod.__name__.removeprefix('ferro.')}.{cname}.{attr}", cls, attr


def test_no_public_function_takes_a_check_switch():
    """No public function takes a check switch or a tolerance that no caller sets."""
    params = {name: inspect.signature(fn).parameters for name, fn in _public_functions()}
    assert len(params) > 50
    assert [name for name, p in params.items() if "check" in p] == []
    assert [name for name, p in params.items()
            if any(a == "eps" or a.endswith("_eps") for a in p)] == []
    assert list(params["convolution.iterate_conv"]) == ["rho", "k"]
    assert "convolution.convolve_moments" in params


# Public functions that no CLI command reaches.  The paper's measures and
# library entry points, and the writer of the CLI's state files and the
# reader of its netlists.
PAPER_API = {
    "clifford.majorana", "clifford.moments", "gaussian.covariance", "gaussian.gaussification",
    "convolution.convolve", "convolution.complementary_convolve",
    "convolution.iterate_conv", "convolution.iterate_conv_linear",
    "measures.moment_weights", "measures.ng_entropy", "measures.ng_entropy_mixed",
    "measures.ng_relative_entropy", "measures.clt_bound",
    "io.write_array", "circuits.parse_netlist",
}
# Named as per-layer metrics in BENCHMARK.json, whose runner fails on a
# missing name: they leave with the benchmark change.
BENCHMARK_PINNED = {
    "clifford.partial_trace_second", "convolution.conv_unitary",
    "gaussian.gaussian_from_covariance", "gaussian.gaussian_unitary",
    "gaussian.pfaffian", "gaussian.quadratic_hamiltonian", "grassmann.g_exp",
    "testing.choi_state", "testing.max_entangled_fermionic",
}
# The program's entry around cli.main: it freezes the heap, so it runs only
# in a fresh interpreter (test_io_cli.py::test_the_program_exits_with_a_frozen_heap).
PROGRAM_ENTRY = {"cli.entry"}


def test_pinned_names_are_benchmark_metrics():
    """Every pinned function is timed or counted by a per-layer metric of BENCHMARK.json."""
    spec = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    metrics = {m["name"] for m in spec["per_layer"]}
    assert sorted(name for name in BENCHMARK_PINNED
                  if not {f"{name}.s", f"{name}.calls"} & metrics) == []


def test_runtime_is_what_the_cli_reaches(tmp_path, monkeypatch):
    """Every command once on tiny inputs; each public function it misses is on a named list."""
    from ferro import io, states

    def write(name, a):
        f = tmp_path / name
        f.write_text(io.write_array(a))
        return str(f)

    gauss = write("gauss.txt", np.eye(4)[0].astype(complex))
    magic = write("magic.txt", states.magic_state_vector(2.0))
    odd = write("odd.txt", np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))
    cz = write("cz.txt", np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex))
    out = str(tmp_path / "out.csv")

    reached = set()

    def wrap(name, fn):
        def traced(*args, **kwargs):
            reached.add(name)
            return fn(*args, **kwargs)
        return traced

    public = dict(_public_functions())
    wrapped = {id(fn): wrap(name, fn) for name, fn in public.items()}
    for name, cls, attr in _public_methods():
        public[name] = obj = vars(cls)[attr]
        fn = getattr(obj, "__func__", obj)  # a classmethod or staticmethod keeps its kind
        monkeypatch.setattr(cls, attr, wrap(name, fn) if fn is obj else type(obj)(wrap(name, fn)))
    assert "circuits.GateList.append" in public
    # rebind every module-level reference, e.g. `from .clifford import popcounts`
    for mod in MODULES + [ferro]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                monkeypatch.setattr(mod, attr, wrapped[id(obj)])
    for argv in (["fig2", "--grid", "3", "--out", out],
                 ["weights", "--grid", "3", "--out", out],
                 ["renyi", "--grid", "3", "--out", out],
                 ["test-state", gauss], ["test-state", magic], ["test-state", odd],
                 ["test-unitary", cz, "--engine", "dense"],
                 ["test-unitary", cz, "--engine", "cumulant"],
                 ["clt", magic, "--engine", "dense", "--out", out],
                 ["clt", magic, "--engine", "cumulant", "--out", out],
                 ["decompose", "--modes", "2", "--out", str(tmp_path / "net.txt")]):
        assert cli.main(argv) == 0, argv
    assert PAPER_API.isdisjoint(BENCHMARK_PINNED)
    assert sorted(set(public) - reached) == sorted(PAPER_API | BENCHMARK_PINNED | PROGRAM_ENTRY)


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
}
ANY_STATE = {
    "clifford.moments": clifford.moments,
    "gaussian.covariance": gaussian.covariance,
    "measures.moment_weights": measures.moment_weights,
    "testing.gaussian_state_test": testing.gaussian_state_test,
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


def test_input_errors_carry_their_check_code():
    """Each check of outside input raises InputError, a ValueError, with its own code."""
    cases = [(clifford.assert_state, NOT_A_STATE, "E_NOT_A_STATE"),
             (clifford.assert_even_state, ODD, "E_NOT_EVEN_STATE"),
             (clifford.assert_unitary, 2 * np.eye(4), "E_NOT_UNITARY"),
             (clifford.assert_pure, np.eye(16) / 16, "E_NOT_PURE")]
    for check, arg, code in cases:
        with pytest.raises(ferro.InputError) as exc:
            check(arg)
        assert isinstance(exc.value, ValueError) and exc.value.code == code
        assert str(exc.value).startswith(f"{code}: ")
    assert str(ferro.InputError("E_ZERO_VECTOR")) == "E_ZERO_VECTOR"
    with pytest.raises(ValueError) as exc:  # a shape is the caller's error, not input
        clifford.assert_state(np.eye(3))
    assert not isinstance(exc.value, ferro.InputError)


@pytest.mark.parametrize("phi", [0.0, 2.0])
@pytest.mark.parametrize("scale", [1 - 5e-9, 1 + 5e-9])
def test_kernels_take_the_trace_slack_of_assert_state(phi, scale):
    """A state whose trace is off by 5e-9 passes assert_state, and the kernels behind it run
    and agree with the state of unit trace to 1e-7."""
    from ferro import states

    base = states.magic_state(phi)
    rho = base * scale
    clifford.assert_even_state(rho)
    for kernel in (lambda r: grassmann.cumulants(r).coeffs, gaussian.gaussification):
        assert np.abs(kernel(rho) - kernel(base)).max() < 1e-7
    assert abs(measures.ng_relative_entropy(rho) - measures.ng_relative_entropy(base)) < 1e-7


def test_state_test_gives_not_even_verdict():
    """The pure-state protocol decides a state of indefinite parity instead of raising."""
    res = testing.gaussian_state_test(ODD)
    assert res == testing.Verdict(is_gaussian=False, reason="not-even", margin=None)


def test_assert_even_state():
    clifford.assert_even_state(np.eye(4, dtype=complex) / 4)
    with pytest.raises(ValueError, match="not even"):
        clifford.assert_even_state(ODD)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        clifford.assert_even_state(NOT_A_STATE)


def test_popcounts_parity():
    from helpers import parity_operator

    assert list(clifford.popcounts(3)) == [0, 1, 1, 2, 1, 2, 2, 3]
    z = parity_operator(3)
    assert np.array_equal(np.diag(z).real, 1.0 - 2.0 * (clifford.popcounts(3) & 1))


def test_convolve_is_the_moment_product(rng):
    from helpers import random_even_state

    rho, sigma = random_even_state(rng, 2), random_even_state(rng, 2)
    xi = convolution.convolve_moments(grassmann.even_fourier(rho),
                                      grassmann.even_fourier(sigma), 0.3)
    out = convolution.convolve(rho, sigma, 0.3)
    assert np.abs(grassmann.inverse_fourier(xi) - out).max() < 1e-12
    assert np.abs(grassmann.even_fourier(out).coeffs - xi.coeffs).max() < 1e-12
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


def test_test_state_validates_once(tmp_path, monkeypatch, capsys):
    """test-state leaves the check of its state to gaussian_state_test."""
    from ferro import io, states

    f = tmp_path / "psi.txt"
    f.write_text(io.write_array(states.magic_state_vector(2.0)))
    calls = count_state_checks(monkeypatch)
    assert cli.main(["test-state", str(f)]) == 0
    assert "even: yes" in capsys.readouterr().out
    assert len(calls) == 1


@pytest.mark.parametrize("engine", ["dense", "cumulant"])
def test_clt_validates_once(tmp_path, monkeypatch, engine):
    """clt reads one moment table and derives the iterates and the cumulants from it."""
    from ferro import io, states

    f = tmp_path / "psi.txt"
    f.write_text(io.write_array(states.magic_state_vector(2.0)))
    calls = count_state_checks(monkeypatch)
    assert cli.main(["clt", str(f), "--engine", engine, "--out", str(tmp_path / "c.csv")]) == 0
    assert len(calls) == 1


def test_fig2_validates_once(tmp_path, monkeypatch):
    """fig2 reads one moment table of its stack for the iterates and NG_inf."""
    calls = count_state_checks(monkeypatch)
    tables = []
    moments = clifford._moments
    monkeypatch.setattr(clifford, "_moments", lambda rho: tables.append(1) or moments(rho))
    assert cli.main(["fig2", "--grid", "5", "--out", str(tmp_path / "f.csv")]) == 0
    assert (len(calls), len(tables)) == (1, 1)


@pytest.mark.parametrize("engine,checks", [("cumulant", 1), ("dense", 1)])
def test_test_unitary_validates(tmp_path, monkeypatch, engine, checks):
    """test-unitary leaves the check of U to the parity test, with either engine."""
    from ferro import io

    f = tmp_path / "cz.txt"
    f.write_text(io.write_array(np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)))
    calls = []
    assert_unitary = clifford.assert_unitary
    monkeypatch.setattr(clifford, "assert_unitary", lambda u: calls.append(1) or assert_unitary(u))
    assert cli.main(["test-unitary", str(f), "--engine", engine]) == 0
    assert len(calls) == checks

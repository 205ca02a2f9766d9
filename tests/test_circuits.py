import math
from pathlib import Path

import numpy as np
import pytest

from ferro import circuits, clifford, convolution
from ferro.circuits import Gate, GateList

from helpers import gate_list_to_unitary, phase_invariant_distance

DATA = Path(__file__).parent / "data"


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("foo", (0,))
    with pytest.raises(ValueError):
        Gate("cz", (0,))
    with pytest.raises(ValueError):
        Gate("h", (0,), param=1.0)
    with pytest.raises(ValueError):
        Gate("rz", (0,))
    gl = GateList(qubits=2)
    with pytest.raises(ValueError):
        gl.append("h", 5)


def test_empty_list_is_identity():
    assert np.abs(gate_list_to_unitary(GateList(qubits=2)) - np.eye(4)).max() < 1e-15


def test_swap_matrix():
    gl = GateList(qubits=2)
    gl.append("swap", 0, 1)
    expect = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    assert np.abs(gate_list_to_unitary(gl) - expect).max() < 1e-15


def test_rz_matrix():
    gl = GateList(qubits=1)
    gl.append("rz", 0, param=0.6)
    u = gate_list_to_unitary(gl)
    expect = np.diag([np.exp(-0.3j), np.exp(0.3j)])
    assert np.abs(u - expect).max() < 1e-12


def test_fswap_exchanges_adjacent_modes():
    gl = GateList(qubits=2)
    circuits._fswap(gl, 0)
    f = gate_list_to_unitary(gl)
    # conjugation exchanges the Majorana pairs of the two modes
    pairs = {1: 3, 2: 4, 3: 1, 4: 2}
    for j, k in pairs.items():
        lhs = f @ clifford.majorana(j, 2) @ f.conj().T
        assert np.abs(lhs - clifford.majorana(k, 2)).max() < 1e-12


def test_fswap_fixes_spectator_modes():
    gl = GateList(qubits=3)
    circuits._fswap(gl, 1)
    f = gate_list_to_unitary(gl)
    for j in (1, 2):  # mode 1 untouched
        lhs = f @ clifford.majorana(j, 3) @ f.conj().T
        assert np.abs(lhs - clifford.majorana(j, 3)).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 4, math.pi / 3])
def test_decomposition_recomposes(n, theta):
    gl = circuits.decompose_conv_unitary(theta, n)
    u = gate_list_to_unitary(gl)
    w = convolution.conv_unitary(theta, n)
    assert phase_invariant_distance(w, u) < 1e-9


def test_multi_mode_netlist_contains_swap_gadgets():
    gl = circuits.decompose_conv_unitary(math.pi / 4, 2)
    names = [g.name for g in gl.gates]
    assert "swap" in names and "cz" in names


def test_golden_netlist():
    gl = circuits.decompose_conv_unitary(math.pi / 4, 1)
    golden = (DATA / "conv_n1_theta_pi4.txt").read_text()
    assert circuits.emit_netlist(gl) == golden


def test_emit_parse_round_trip():
    gl = circuits.decompose_conv_unitary(0.37, 2)
    text = circuits.emit_netlist(gl)
    back = circuits.parse_netlist(text)
    assert back.qubits == gl.qubits
    assert back.gates == gl.gates
    assert circuits.emit_netlist(back) == text


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        circuits.parse_netlist("h 0\n")  # missing header
    with pytest.raises(ValueError):
        circuits.parse_netlist("qubits 2\nrz 0\n")  # rz without angle
    with pytest.raises(ValueError):
        circuits.parse_netlist("qubits 2\nfoo 0\n")

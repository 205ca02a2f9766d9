"""Gate-level compilation of the convolution unitary into {X, H, S, Sdg, RZ, CZ, SWAP}.

The generator of W_theta splits into commuting per-mode-pair terms.  Each term
becomes a two-qubit rotate gadget exp[i theta/2 (XY - YX)] acting on adjacent
qubits, conjugated by chains of fermionic swaps (SWAP * CZ) that bring mode
n+m next to mode m without disturbing the Jordan-Wigner strings.
"""

from __future__ import annotations

import re
from collections import namedtuple

GATE_NAMES = ("x", "h", "s", "sdg", "rz", "cz", "swap")


class Gate(namedtuple("Gate", "name targets param", defaults=(None,))):
    """One gate: a name from GATE_NAMES, a tuple of target qubits and rz's angle."""

    __slots__ = ()

    def __new__(cls, name: str, targets: tuple, param: float | None = None):
        if name not in GATE_NAMES:
            raise ValueError(f"unknown gate {name!r}")
        want_two = name in ("cz", "swap")
        if len(targets) != (2 if want_two else 1):
            raise ValueError(f"gate {name} takes {'two targets' if want_two else 'one target'}")
        if (param is not None) != (name == "rz"):
            raise ValueError("only rz carries an angle parameter")
        return super().__new__(cls, name, targets, param)


class GateList:
    def __init__(self, qubits: int):
        self.qubits = qubits
        self.gates = []

    def append(self, name: str, *targets: int, param: float | None = None) -> None:
        for t in targets:
            if not 0 <= t < self.qubits:
                raise ValueError(f"target {t} out of range for {self.qubits} qubits")
        self.gates.append(Gate(name, tuple(targets), param))


def _zz_rotation(gl: GateList, a: int, b: int, phi: float) -> None:
    """exp(-i phi/2 Z_a Z_b) through a CNOT / RZ / CNOT sandwich."""
    for name, targets in (("h", (b,)), ("cz", (a, b)), ("h", (b,))):
        gl.append(name, *targets)
    gl.append("rz", b, param=phi)
    for name, targets in (("h", (b,)), ("cz", (a, b)), ("h", (b,))):
        gl.append(name, *targets)


def _rotate_gadget(gl: GateList, a: int, b: int, theta: float) -> None:
    """exp[i theta/2 (X_a Y_b - Y_a X_b)] on adjacent qubits a < b.

    Each factor is a ZZ rotation conjugated into the XY resp. YX basis; the
    two factors commute so their order is immaterial.
    """
    # exp(i theta/2 X_a Y_b): conjugate Z_a -> X_a by H and Z_b -> Y_b by S H
    gl.append("h", a)
    gl.append("sdg", b)
    gl.append("h", b)
    _zz_rotation(gl, a, b, -theta)
    gl.append("h", a)
    gl.append("h", b)
    gl.append("s", b)
    # exp(-i theta/2 Y_a X_b)
    gl.append("sdg", a)
    gl.append("h", a)
    gl.append("h", b)
    _zz_rotation(gl, a, b, theta)
    gl.append("h", a)
    gl.append("s", a)
    gl.append("h", b)


def _fswap(gl: GateList, p: int) -> None:
    """Fermionic swap of the modes on adjacent qubits (p, p+1)."""
    gl.append("cz", p, p + 1)
    gl.append("swap", p, p + 1)


def decompose_conv_unitary(theta: float, n: int) -> GateList:
    """Netlist over 2n qubits recomposing to conv_unitary(theta, n)."""
    if n < 1:
        raise ValueError("mode count must be positive")
    gl = GateList(qubits=2 * n)
    for m in range(n):
        # bring mode n+m (qubit n+m) adjacent to mode m (qubit m)
        chain = list(range(n + m - 1, m, -1))
        for p in chain:
            _fswap(gl, p)
        _rotate_gadget(gl, m, m + 1, theta)
        for p in reversed(chain):
            _fswap(gl, p)
    return gl


def emit_netlist(gl: GateList) -> str:
    lines = [f"qubits {gl.qubits}"]
    for g in gl.gates:
        parts = [g.name] + [str(t) for t in g.targets]
        if g.param is not None:
            parts.append(repr(float(g.param)))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_netlist(text: str) -> GateList:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not re.fullmatch(r"qubits \d+", lines[0]):
        raise ValueError("netlist must start with a 'qubits <count>' header")
    gl = GateList(qubits=int(lines[0].split()[1]))
    for ln in lines[1:]:
        parts = ln.split()
        name = parts[0]
        if name == "rz":
            if len(parts) != 3:
                raise ValueError(f"malformed rz line: {ln!r}")
            gl.append(name, int(parts[1]), param=float(parts[2]))
        else:
            gl.append(name, *[int(t) for t in parts[1:]])
    return gl

"""Checks every command's output against references that do not come from ferro.

Numbers are compared to 1e-9 with the brute-force functions of
tests/oracles/compute_reference.py (imported, never edited) and the frozen
values in tests/oracles/reference_values.json; verdicts are compared with the
label each input has by construction; malformed inputs must give exit 2 and an
`error E_...` line.  `check` returns None when the output is right, otherwise
a one-line reason.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re

import numpy as np

import compute_reference as oracle
import workloads

TOL = 1e-9
# reference_values.json's ng_relative_entropy (2.772588712334421) comes from 40
# doublings without trace renormalization and sits 9.9e-9 below the exact 4 ln 2
# that ferro and the renormalized oracle below both give; it is compared at the
# 1e-8 that tests/test_acceptance.py uses for the frozen values.
FROZEN_NG_TOL = 1e-8
THETA = math.pi / 4
DOUBLINGS = 40  # the oracle's own Gaussification depth
REFERENCE_JSON = os.path.join("tests", "oracles", "reference_values.json")
ERROR_LINE = re.compile(r"^error E_[A-Z0-9_]+", re.M)


class Oracle:
    """Caches the oracle's beam splitters and per-state references within one run."""

    def __init__(self):
        self._w = {}
        self._gauss = {}
        with open(REFERENCE_JSON) as f:
            self.frozen = json.load(f)

    def conv(self, a, b, n, theta=THETA):
        key = (theta, n)
        if key not in self._w:
            self._w[key] = oracle.conv_unitary(theta, n)
        w = self._w[key]
        return oracle.ptrace2(w @ np.kron(a, b) @ w.conj().T, n)

    def iterates(self, rho, n, kmax):
        out = [rho]
        for _ in range(kmax):
            out.append(self.conv(out[-1], out[-1], n))
        return out

    def gaussification(self, rho, n, key):
        """The convolution limit, as the oracle computes it: 40 Hermitized doublings.

        Self-convolution squares the trace, so a rounding error e in it grows to
        about 2^40 e over 40 doublings; each doubling therefore also restores trace 1.
        """
        if key not in self._gauss:
            g = rho
            for _ in range(DOUBLINGS):
                g = self.conv(g, g, n)
                g = (g + g.conj().T) / 2
                g = g / np.trace(g).real
            self._gauss[key] = g
        return self._gauss[key]

    @staticmethod
    def cumulant_weights(rho, n):
        """(K_G, K_M, K_total) from the oracle's dict-based Grassmann log of the moments."""
        cum = oracle.g_log_dict(oracle.moments_dict(rho, n), 2 * n)
        k_g = sum(abs(v) ** 2 for key, v in cum.items() if len(key) == 2)
        k_m = sum(abs(v) ** 2 for key, v in cum.items() if len(key) >= 4)
        k_t = sum(len(key) * abs(v) ** 2 for key, v in cum.items())
        return k_g, k_m, k_t


def renyi(rho, alpha):
    """S_alpha in nats for alpha > 1 (the orders the sweep uses)."""
    w = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    if math.isinf(alpha):
        return -math.log(w.max())
    return math.log(np.sum(w**alpha)) / (1.0 - alpha)


def clt_bound(k_g, k_m, k):
    if k_m <= 0.0:
        return 0.0
    root_m = math.sqrt(k_m)
    return (root_m / 2.0**k) * math.exp(math.sqrt(k_g) + root_m / 2.0**k)


def close(a, b, tol=TOL):
    return abs(a - b) <= tol * max(1.0, abs(b))


def magic(phi):
    v = workloads.magic_vector(phi)
    return np.outer(v, v.conj())


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], [[float(x) for x in r] for r in rows[1:]]


def netlist_unitary(text):
    """Multiply out a netlist over {x, h, s, sdg, rz, cz, swap}; qubit 0 is the most significant."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    nq = int(lines[0][1])
    one = {
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "h": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
        "s": np.diag([1, 1j]),
        "sdg": np.diag([1, -1j]),
    }
    u = np.eye(1 << nq, dtype=complex).reshape([2] * nq + [1 << nq])
    for parts in lines[1:]:
        name, args = parts[0], parts[1:]
        if name == "rz":
            q, t = int(args[0]), float(args[1])
            g = np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])
            u = np.moveaxis(np.tensordot(g, u, axes=([1], [q])), 0, q)
        elif name in one:
            q = int(args[0])
            u = np.moveaxis(np.tensordot(one[name], u, axes=([1], [q])), 0, q)
        elif name == "cz":
            a, b = int(args[0]), int(args[1])
            idx = [slice(None)] * (nq + 1)
            idx[a] = idx[b] = 1
            u[tuple(idx)] *= -1
        elif name == "swap":
            u = np.swapaxes(u, int(args[0]), int(args[1]))
        else:
            raise ValueError(f"unknown gate {name}")
    return u.reshape(1 << nq, 1 << nq)


def phase_distance(u, v):
    d = u.shape[0]
    ovl = np.trace(u.conj().T @ v) / d
    phase = ovl / abs(ovl) if abs(ovl) > 1e-14 else 1.0
    return float(np.linalg.norm(u - phase * v)) / math.sqrt(d)


def stdout_fields(stdout):
    out = {}
    for ln in stdout.splitlines():
        if ": " in ln:
            k, v = ln.split(": ", 1)
            out[k] = v
    return out


class Checker:
    """Checks results; `rng` picks which sweep rows get a full oracle recomputation."""

    def __init__(self, rng):
        self.ref = Oracle()
        self.rng = rng

    def check(self, cmd, res):
        kind = cmd.expect["kind"]
        if kind == "malformed":
            if res.rc == 2 and ERROR_LINE.search(res.stderr) and "Traceback" not in res.stderr:
                return None
            return f"malformed input ({cmd.expect['fault']}) gave exit {res.rc}, not exit 2 + error E_"
        if res.rc != 0:
            tail = res.stderr.strip().splitlines()[-1:] or [""]
            return f"exit {res.rc}: {tail[0][:120]}"
        if cmd.out and res.out is None:
            return "exit 0 without writing its output file"
        try:
            return getattr(self, "_" + kind.replace("-", "_"))(cmd, res)
        except (ValueError, IndexError, KeyError) as e:
            return f"unreadable output: {e}"

    def _sample(self, grid):
        """The phi = pi row plus one seeded row."""
        return sorted({(grid - 1) // 2, int(self.rng.integers(0, grid))})

    def _grid_rows(self, cmd, res, header):
        got_header, rows = read_csv(res.out)
        grid = cmd.expect["grid"]
        if got_header != header:
            return None, f"header {got_header}"
        if len(rows) != grid:
            return None, f"{len(rows)} rows for grid {grid}"
        phis = np.linspace(0.0, 2.0 * math.pi, grid)
        if any(not close(r[0], p) for r, p in zip(rows, phis)):
            return None, "phi column off the grid"
        if not all(math.isfinite(x) for r in rows for x in r):
            return None, "non-finite value"
        return rows, None

    def _fig2(self, cmd, res):
        kmax = cmd.expect["kmax"]
        header = ["phi"] + [f"NG_k{k}" for k in range(1, kmax + 1)] + ["NG_inf"]
        rows, err = self._grid_rows(cmd, res, header)
        if err:
            return err
        for i in self._sample(cmd.expect["grid"]):
            phi = rows[i][0]
            psi = magic(phi)
            its = self.ref.iterates(psi, 4, kmax)
            want = [oracle.entropy(x) for x in its[1:]]
            g = self.ref.gaussification(psi, 4, ("magic", phi))
            want.append(max(oracle.entropy(g) - oracle.entropy(psi), 0.0))
            frozen = self.ref.frozen["ng_relative_entropy"]
            if i == (cmd.expect["grid"] - 1) // 2 and not close(rows[i][-1], frozen, FROZEN_NG_TOL):
                return f"NG_inf at phi=pi is {rows[i][-1]!r}, frozen reference differs"
            for col, (a, b) in enumerate(zip(rows[i][1:], want)):
                if not close(a, b):
                    return f"row {i} column {header[col + 1]}: {a!r} vs oracle {b!r}"
        return None

    def _renyi(self, cmd, res):
        kmax, alpha = cmd.expect["kmax"], cmd.expect["alpha"]
        header = ["phi"] + [f"NG_a{workloads.fmt(alpha)}_k{k}" for k in range(1, kmax + 1)]
        rows, err = self._grid_rows(cmd, res, header)
        if err:
            return err
        for i in self._sample(cmd.expect["grid"]):
            its = self.ref.iterates(magic(rows[i][0]), 4, kmax)
            for col, (a, x) in enumerate(zip(rows[i][1:], its[1:])):
                b = renyi(x, alpha)
                if not close(a, b):
                    return f"row {i} column {header[col + 1]}: {a!r} vs oracle {b!r}"
        return None

    def _weights(self, cmd, res):
        rows, err = self._grid_rows(cmd, res, ["phi", "K_G", "K_M", "K"])
        if err:
            return err
        for i in self._sample(cmd.expect["grid"]):
            want = self.ref.cumulant_weights(magic(rows[i][0]), 4)
            if i == (cmd.expect["grid"] - 1) // 2 and not close(rows[i][2], self.ref.frozen["k_m"]):
                return f"K_M at phi=pi is {rows[i][2]!r}, frozen reference differs"
            for a, b in zip(rows[i][1:], want):
                if not close(a, b):
                    return f"row {i}: {rows[i][1:]} vs oracle {list(want)}"
        return None

    def _clt(self, cmd, res):
        rho = cmd.data
        n = int(rho.shape[0]).bit_length() - 1
        kmax = cmd.expect["kmax"]
        header, rows = read_csv(res.out)
        if header != ["k", "distance", "bound"] or len(rows) != kmax + 1:
            return f"header {header} with {len(rows)} rows"
        g = self.ref.gaussification(rho, n, ("clt", id(rho)))
        k_g, k_m, _ = self.ref.cumulant_weights(rho, n)
        for k, (row, cur) in enumerate(zip(rows, self.ref.iterates(rho, n, kmax))):
            want = [k, oracle.l2_norm(cur - g, n), clt_bound(k_g, k_m, k)]
            if not all(close(a, b) for a, b in zip(row, want)):
                return f"row k={k}: {row} vs oracle {want}"
        return None

    def _test_state(self, cmd, res):
        f = stdout_fields(res.stdout)
        if not cmd.expect["even"]:
            ok = f.get("even") == "no" and f.get("verdict") == "non-gaussian"
            return None if ok else f"non-even state reported {f}"
        want = "gaussian" if cmd.expect["gaussian"] else "non-gaussian"
        if f.get("even") != "yes" or f.get("verdict") != want:
            return f"verdict {f.get('verdict')!r}, constructed as {want}"
        v = cmd.data
        psi = np.outer(v, v.conj())
        n = len(v).bit_length() - 1
        p = 0.5 * (1.0 + float(np.real(np.trace(psi @ self.ref.conv(psi, psi, n)))))
        if not close(float(f["p_accept"]), p):
            return f"p_accept {f['p_accept']} vs oracle {p!r}"
        return None

    def _test_unitary(self, cmd, res):
        f = stdout_fields(res.stdout)
        e = cmd.expect
        want = {"engine": e["engine"], "verdict": "gaussian" if e["gaussian"] else "non-gaussian"}
        if e["reason"]:
            want["reason"] = e["reason"]
        if f != want:
            return f"reported {f}, constructed as {want}"
        return None

    def _decompose(self, cmd, res):
        m, theta = cmd.expect["modes"], cmd.expect["theta"]
        dist = phase_distance(netlist_unitary(res.out), oracle.conv_unitary(theta, m))
        return None if dist <= TOL else f"netlist is {dist:.3e} from the oracle W_theta"

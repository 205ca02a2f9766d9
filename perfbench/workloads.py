"""Seeded inputs and command lists for the three benchmark workloads.

Every input is built from the seed with numpy, scipy and the independent
oracle in tests/oracles/compute_reference.py, never through ferro, so a change
to ferro cannot change its own benchmark inputs.  Each command carries the
label its input has by construction; verify.py checks the output against it.

A workload is a fixed "round" of commands.  run.py builds and runs whole
rounds while the next one is expected to end inside the window, so every run
does the same mix of work.
"""

from __future__ import annotations

import math
import os

import numpy as np
import scipy.linalg

import compute_reference as oracle

# odd, so phi = pi is a grid point, and around 65, the grid of the paper's
# figures and the CLI default
SWEEP_GRIDS = (63, 65, 67)
RENYI_ALPHAS = (1.5, 2.0, 3.0, math.inf)  # alpha > 1 keeps rounding noise out of S_alpha
DECOMPOSE_MODES = (1, 2, 3, 4)


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_array(path: str, a: np.ndarray) -> None:
    """The `dim <d>` + one `re im` line per entry format of the ferro CLI."""
    flat = a.reshape(-1)
    lines = [f"dim {a.shape[0]}"] + [f"{fmt(z.real)} {fmt(z.imag)}" for z in flat]
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def parity(n: int) -> np.ndarray:
    """Parity of the occupation number of each computational basis index."""
    return np.array([bin(i).count("1") & 1 for i in range(1 << n)])


def gaussian_unitary(rng, n: int) -> np.ndarray:
    """exp((1/2) sum_jk h_jk gamma_j gamma_k) for a random real antisymmetric h."""
    h = rng.normal(size=(2 * n, 2 * n))
    h = (h - h.T) / 2
    gen = np.zeros((1 << n, 1 << n), dtype=complex)
    for j in range(2 * n):
        for k in range(2 * n):
            gen += 0.5 * h[j, k] * oracle.majorana(j + 1, n) @ oracle.majorana(k + 1, n)
    return scipy.linalg.expm(gen)


def parity_block_unitary(rng, n: int) -> np.ndarray:
    """Independent Haar unitaries on the two parity sectors: even, generically not Gaussian."""
    d = 1 << n
    par = parity(n)
    u = np.zeros((d, d), dtype=complex)
    for p in (0, 1):
        idx = np.nonzero(par == p)[0]
        z = rng.normal(size=(len(idx), len(idx))) + 1j * rng.normal(size=(len(idx), len(idx)))
        q, r = np.linalg.qr(z)
        u[np.ix_(idx, idx)] = q * (np.diag(r) / np.abs(np.diag(r)))
    return u


def magic_vector(phi: float) -> np.ndarray:
    """(|0000> + |0011> + |1100> + e^{i phi}|1111>)/2, non-Gaussian for phi off {0, 2 pi}."""
    v = np.zeros(16, dtype=complex)
    v[0b0000] = v[0b0011] = v[0b1100] = 0.5
    v[0b1111] = 0.5 * np.exp(1j * phi)
    return v


def basis_vector(n: int, index: int) -> np.ndarray:
    v = np.zeros(1 << n, dtype=complex)
    v[index] = 1.0
    return v


def mixed_even_state(rng, n: int) -> np.ndarray:
    """Full-rank even density matrix: a random Wishart state projected onto the parity blocks."""
    d = 1 << n
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    par = parity(n)
    rho[par[:, None] != par[None, :]] = 0.0
    return rho / np.trace(rho).real


class Command:
    """One CLI call: argv after `python -m ferro.cli`, its item count and its expected outcome."""

    def __init__(self, name, argv, items, expect, out=None, data=None):
        self.name = name
        self.argv = argv
        self.items = items  # CSV rows, verdicts or netlists produced when correct
        self.expect = expect  # dict read by verify.check
        self.out = out  # output file the command writes; build() makes the path absolute
        self.data = data  # construction data verify.py needs (state, unitary, ...)


def sweep_round(rng, grid):
    """fig2 --kmax 4, renyi --kmax 3 and weights over the magic-state family on one grid."""
    alpha = float(rng.choice(RENYI_ALPHAS))
    return [
        Command("fig2", ["fig2", "--kmax", "4", "--grid", str(grid), "--out", "{w}/fig2.csv"],
                grid, {"kind": "fig2", "grid": grid, "kmax": 4}, out="fig2.csv"),
        Command("renyi", ["renyi", "--kmax", "3", "--alpha", repr(alpha), "--grid", str(grid),
                          "--out", "{w}/renyi.csv"],
                grid, {"kind": "renyi", "grid": grid, "kmax": 3, "alpha": alpha}, out="renyi.csv"),
        Command("weights", ["weights", "--grid", str(grid), "--out", "{w}/weights.csv"],
                grid, {"kind": "weights", "grid": grid}, out="weights.csv"),
    ]


def oneshot_round(rng, work):
    """Short verdict, CLT and netlist commands, with a malformed input every few commands."""
    cmds = []

    def state_file(tag, a):
        path = f"{tag}.txt"
        write_array(os.path.join(work, path), a)
        return path

    def test_state(tag, vec, label, even=True):
        path = state_file(tag, vec)
        cmds.append(Command(f"test-state:{tag}", ["test-state", "{w}/" + path], 1,
                            {"kind": "test-state", "gaussian": label, "even": even},
                            data=vec / np.linalg.norm(vec)))

    def malformed(tag, a, fault):
        path = state_file(tag, a)
        cmds.append(Command(f"malformed:{tag}", ["test-state", "{w}/" + path], 1,
                            {"kind": "malformed", "fault": fault}))

    for n in (1, 2, 3, 4):
        test_state(f"gauss{n}", gaussian_unitary(rng, n) @ basis_vector(n, 0), True)
    phi = float(rng.uniform(0.5 * math.pi, 1.5 * math.pi))
    test_state("magic4", gaussian_unitary(rng, 4) @ magic_vector(phi), False)
    n_odd = int(rng.integers(2, 5))
    test_state(f"odd{n_odd}", gaussian_unitary(rng, n_odd) @ basis_vector(n_odd, 1 << (n_odd - 1)),
               True)
    n_mix = int(rng.integers(1, 5))
    v = rng.normal(size=1 << n_mix) + 1j * rng.normal(size=1 << n_mix)
    test_state(f"parity-mixed{n_mix}", v, False, even=False)

    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    rho = np.outer(v, v.conj()) / np.vdot(v, v).real
    rho[0, 3] = np.nan
    malformed("nan", rho, "NaN entry in a density matrix")

    for n in (2, 3, 4):
        rho = mixed_even_state(rng, n)
        path = state_file(f"mixed{n}", rho)
        for engine in ("dense", "cumulant"):
            cmds.append(Command(f"clt-{engine}:{n}",
                                ["clt", "{w}/" + path, "--kmax", "3", "--engine", engine,
                                 "--out", f"{{w}}/clt_{engine}{n}.csv"],
                                4, {"kind": "clt", "kmax": 3}, out=f"clt_{engine}{n}.csv",
                                data=rho))

    malformed("zero", np.zeros(1 << int(rng.integers(1, 5)), dtype=complex), "all-zero vector")

    for n in (1, 2):
        u = gaussian_unitary(rng, n)
        path = state_file(f"ugauss{n}", u)
        cmds.append(Command(f"test-unitary-dense:gauss{n}",
                            ["test-unitary", "{w}/" + path, "--engine", "dense"], 1,
                            {"kind": "test-unitary", "gaussian": True, "reason": "",
                             "engine": "dense"}))
    u = parity_block_unitary(rng, 2)
    path = state_file("ublock2", u)
    cmds.append(Command("test-unitary-dense:block2",
                        ["test-unitary", "{w}/" + path, "--engine", "dense"], 1,
                        {"kind": "test-unitary", "gaussian": False, "reason": "choi-not-gaussian",
                         "engine": "dense"}))

    for m in DECOMPOSE_MODES:
        theta = float(rng.uniform(0.1, math.pi - 0.1))
        cmds.append(Command(f"decompose:{m}",
                            ["decompose", "--theta", repr(theta), "--modes", str(m),
                             "--out", f"{{w}}/net{m}.txt"],
                            1, {"kind": "decompose", "theta": theta, "modes": m},
                            out=f"net{m}.txt"))

    n = int(rng.integers(2, 5))
    malformed("mixed", mixed_even_state(rng, n), "mixed state given to test-state")
    return cmds


def choi_round(rng, work):
    """Auto-engine unitary verdicts at 3 and 4 modes (the cumulant engine)."""
    cmds = []

    def unitary(tag, u, gaussian, reason):
        path = f"{tag}.txt"
        write_array(os.path.join(work, path), u)
        cmds.append(Command(f"test-unitary:{tag}", ["test-unitary", "{w}/" + path], 1,
                            {"kind": "test-unitary", "gaussian": gaussian, "reason": reason,
                             "engine": "cumulant"}))

    def odd(n):
        return oracle.majorana(int(rng.integers(1, 2 * n + 1)), n) @ gaussian_unitary(rng, n)

    def three_mode(i):
        unitary(f"gauss3_{i}", gaussian_unitary(rng, 3), True, "")
        unitary(f"odd3_{i}", odd(3), False, "not-even")
        unitary(f"block3_{i}", parity_block_unitary(rng, 3), False, "choi-not-gaussian")

    # 3-mode commands sit on both sides of the 4-mode ones, and there are
    # enough of them for cmd_p50_s to be a median over several verdicts
    three_mode(0)
    three_mode(1)
    unitary("gauss4", gaussian_unitary(rng, 4), True, "")
    unitary("odd4", odd(4), False, "not-even")
    three_mode(2)
    three_mode(3)
    return cmds


def build_round(workload: str, seed: int, r: int, work: str):
    """Commands of round r of a run, with inputs written under work/r<r>.

    Round r draws from its own substream of the seed, so a round's inputs do
    not depend on how many rounds ran before it.
    """
    rng = np.random.default_rng([seed, r])
    sub = os.path.join(work, f"r{r}")
    os.makedirs(sub)
    if workload == "sweep":
        # every run cycles through all sweep grids in a seeded order, so the
        # mix of grid sizes, and with it the work per row, is the same for every seed
        grids = np.random.default_rng(seed).permutation(SWEEP_GRIDS)
        cmds = sweep_round(rng, int(grids[r % len(grids)]))
    elif workload == "oneshot":
        cmds = oneshot_round(rng, sub)
    else:
        cmds = choi_round(rng, sub)
    for c in cmds:
        c.argv = [a.replace("{w}", sub) for a in c.argv]
        if c.out:
            c.out = os.path.join(sub, c.out)
    return cmds

"""End-to-end acceptance checks.

Each test covers one headline property of the library, prints a single
PASS/FAIL line, and pins its tolerance explicitly.  Wall-clock budgets are
asserted where the check is meant to stay cheap.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from ferro import (
    circuits,
    cli,
    clifford,
    convolution,
    gaussian,
    grassmann,
    measures,
    states,
    testing,
)

from helpers import (
    dense_convolve,
    random_even_state,
    random_gaussian_state,
    random_gaussian_unitary,
)

REFERENCE = Path(__file__).parent / "oracles" / "reference_values.json"


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" -- {detail}" if detail else "")
    print(line)
    assert ok, line


def test_gaussian_states_are_convolution_fixed_points(rng):
    t0 = time.monotonic()
    worst = 0.0
    for i in range(20):
        n = 1 + i % 3
        rho = random_gaussian_state(rng, n)
        for theta in (math.pi / 6, math.pi / 4):
            out = convolution.convolve(rho, rho, theta)
            worst = max(worst, clifford.l2_norm(out - rho))
    elapsed = time.monotonic() - t0
    _report(
        "gaussian states are convolution fixed points",
        worst <= 1e-9 and elapsed < 10.0,
        f"max deviation {worst:.3e}, {elapsed:.1f}s",
    )


def test_cumulant_engine_matches_dense_convolution(rng):
    t0 = time.monotonic()
    worst = 0.0
    for i in range(50):
        n = 1 + i % 3
        theta = rng.uniform(0.2, 1.35)
        rho = random_even_state(rng, n)
        sigma = random_even_state(rng, n)
        dense = dense_convolve(rho, sigma, theta)
        psi = convolution.convolve_cumulant(
            grassmann.cumulants(rho),
            grassmann.cumulants(sigma),
            theta,
        )
        back = grassmann.inverse_fourier(grassmann.g_exp(psi))
        worst = max(worst, np.abs(dense - back).max())
    elapsed = time.monotonic() - t0
    _report(
        "cumulant engine matches dense convolution",
        worst <= 1e-9 and elapsed < 30.0,
        f"50 pairs, max entry deviation {worst:.3e}, {elapsed:.1f}s",
    )


def test_entropy_never_decreases_under_convolution(rng):
    worst = math.inf
    for i in range(50):
        n = 1 + i % 3
        rho = random_even_state(rng, n)
        prev = clifford.entropy(rho)
        cur = rho
        for _k in range(3):
            cur = convolution.convolve(cur, cur)
            s = clifford.entropy(cur)
            worst = min(worst, s - prev)
            prev = s
    pair_worst = math.inf
    for _ in range(10):
        rho = random_even_state(rng, 2)
        sigma = random_even_state(rng, 2)
        s_out = clifford.entropy(convolution.convolve(rho, sigma))
        pair_worst = min(
            pair_worst, s_out - 0.5 * clifford.entropy(rho) - 0.5 * clifford.entropy(sigma)
        )
    _report(
        "entropy never decreases under convolution",
        worst >= -1e-9 and pair_worst >= -1e-9,
        f"min iterate gain {worst:.3e}, min pairwise slack {pair_worst:.3e}",
    )


def test_convergence_distance_obeys_bound(rng):
    corpus = [states.magic_state(math.pi)]
    for i in range(10):
        corpus.append(random_even_state(rng, 1 + i % 3))
    slack = math.inf
    ratio_ok = True
    for rho in corpus:
        g = gaussian.gaussification(rho)
        cur = rho
        dists = []
        for k in range(6):
            dists.append(clifford.l2_norm(cur - g))
            slack = min(slack, measures.clt_bound(rho, k) - dists[-1])
            if k < 5:
                cur = convolution.convolve(cur, cur)
        if dists[1] > 1e-6:
            ratio_ok = ratio_ok and dists[5] <= dists[1] / 16 + 1e-12
    _report(
        "convergence distance obeys the bound and halves per step",
        slack >= -1e-12 and ratio_ok,
        f"min bound slack {slack:.3e}, sixteenfold drop over four steps: {ratio_ok}",
    )


def test_entropy_sweep_csv_properties(tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "fig2.csv"
    rc = cli.main(["fig2", "--kmax", "3", "--grid", "65", "--out", str(out)])
    elapsed = time.monotonic() - t0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    ok = rc == 0 and header == ["phi", "NG_k1", "NG_k2", "NG_k3", "NG_inf"]
    ok = ok and rows.shape == (65, 5)
    ok = ok and np.abs(rows[0, 1:]).max() < 1e-7 and np.abs(rows[-1, 1:]).max() < 1e-7
    ok = ok and np.abs(rows[:, 1:] - rows[::-1, 1:]).max() < 1e-7  # symmetric about pi
    ok = ok and all(np.argmax(rows[:, c]) == 32 for c in range(1, 5))  # peak at phi = pi
    diffs = np.diff(rows[:, 1:], axis=1)  # non-decreasing in k, capped by the limit
    ok = ok and diffs.min() > -1e-9
    ok = ok and abs(rows[32, 4] - 4 * math.log(2)) < 1e-8
    ok = ok and elapsed < 120.0
    _report(
        "entropy sweep csv has the expected shape and anchors",
        ok,
        f"65 x 5 grid, peak 4 log 2 at pi, {elapsed:.1f}s",
    )


def test_min_entropy_plateau_and_gaussian_weights(rng):
    plateau = 0.0
    for phi in (math.pi / 2, math.pi, 3 * math.pi / 2, 2.0):
        psi = states.magic_state(phi)
        for k in (2, 3):
            plateau = max(
                plateau, abs(measures.ng_entropy(psi, k=k, alpha=0.0) - 4 * math.log(2))
            )
    _, _, _, k_total = measures.cumulant_weights(
        random_gaussian_state(rng, 4, pure=True)
    )
    kg_dev = 0.0
    for n in (1, 2, 3, 4):
        g = random_gaussian_state(rng, n, pure=True)
        _, k_g, k_m, _ = measures.cumulant_weights(g)
        kg_dev = max(kg_dev, abs(k_g - n), k_m)
    _report(
        "min-entropy plateau at 4 log 2 and pure-Gaussian weights",
        plateau <= 1e-8 and abs(k_total - 8.0) <= 1e-8 and kg_dev <= 1e-9,
        f"plateau dev {plateau:.3e}, 4-mode total weight dev {abs(k_total - 8.0):.3e}",
    )


def test_wick_moments_from_covariance(rng):
    worst = 0.0
    for i in range(20):
        n = 1 + i % 3
        rho = random_gaussian_state(rng, n)
        mom = clifford.moments(rho)
        sig = gaussian.covariance(rho)
        pc = grassmann.popcounts(2 * n)
        for mask in range(1 << (2 * n)):
            k = int(pc[mask])
            if k % 2:
                worst = max(worst, abs(mom[mask]))
                continue
            rows = [b for b in range(2 * n) if mask >> b & 1]
            expect = (1j) ** (k // 2) * gaussian.pfaffian(sig[np.ix_(rows, rows)])
            worst = max(worst, abs(mom[mask] - expect))
    _report(
        "moments of rotated Gaussian states factor through the covariance",
        worst <= 1e-9,
        f"20 states, max moment deviation {worst:.3e}",
    )


def test_invariants_under_gaussian_rotations(rng):
    worst = 0.0
    corpus = [
        (random_even_state(rng, 2), 2, False),
        (random_even_state(rng, 3), 3, False),
        (states.magic_state(math.pi / 2), 4, True),
        (states.magic_state(math.pi), 4, True),
    ]
    for rho, n, pure in corpus:
        w0, i0 = measures.moment_weights(rho)
        k0, kg0, km0, kt0 = measures.cumulant_weights(rho)
        ng0 = measures.ng_relative_entropy(rho)
        e0 = [measures.ng_entropy(rho, k=k) for k in (1, 2)] if pure else []
        for _ in range(10):
            u, _ = random_gaussian_unitary(rng, n)
            rot = u @ rho @ u.conj().T
            w, i_m = measures.moment_weights(rot)
            k_arr, kg, km, kt = measures.cumulant_weights(rot)
            worst = max(
                worst,
                np.abs(w - w0).max(),
                abs(i_m - i0),
                np.abs(k_arr - k0).max(),
                abs(kg - kg0),
                abs(km - km0),
                abs(kt - kt0),
                abs(measures.ng_relative_entropy(rot) - ng0),
            )
            for k, ref in zip((1, 2), e0):
                worst = max(worst, abs(measures.ng_entropy(rot, k=k) - ref))
    _report(
        "weights and entropies are invariant under Gaussian rotations",
        worst <= 1e-8,
        f"max deviation over 40 rotations {worst:.3e}",
    )


def test_protocol_corpus(rng):
    ok = True
    p_dev = 0.0
    for i in range(20):
        res = testing.gaussian_state_test(random_gaussian_state(rng, 1 + i % 3, pure=True))
        p_dev = max(p_dev, abs(res.p_accept - 1.0))
        ok = ok and res.is_gaussian
    for phi in (math.pi / 2, math.pi, 3 * math.pi / 2):
        res = testing.gaussian_state_test(states.magic_state(phi))
        ok = ok and not res.is_gaussian and res.p_accept < 1.0 - 1e-3
    for _ in range(20):
        u, _ = random_gaussian_unitary(rng, 2)
        ok = ok and testing.gaussian_unitary_test(u).is_gaussian
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    for bad in (cz, swap):
        res = testing.gaussian_unitary_test(bad)
        ok = ok and not res.is_gaussian and res.reason == "choi-not-gaussian"
    res = testing.gaussian_unitary_test(clifford.majorana(1, 2))
    ok = ok and not res.is_gaussian and res.reason == "not-even"
    _report(
        "state and unitary test protocols classify the corpus",
        ok and p_dev <= 1e-9,
        f"max Gaussian acceptance deviation {p_dev:.3e}",
    )


def test_netlists_recompose():
    worst = 0.0
    round_trip = True
    for n in (1, 2, 3):
        for theta in (math.pi / 6, math.pi / 4, math.pi / 3):
            gl = circuits.decompose_conv_unitary(theta, n)
            u = circuits.gate_list_to_unitary(gl)
            w = convolution.conv_unitary(theta, n)
            worst = max(worst, circuits.phase_invariant_distance(w, u))
            text = circuits.emit_netlist(gl)
            round_trip = round_trip and circuits.parse_netlist(text).gates == gl.gates
    _report(
        "emitted netlists recompose the convolution unitary",
        worst <= 1e-9 and round_trip,
        f"9 netlists, max distance {worst:.3e}",
    )


def test_frozen_reference_values_reproduced():
    ref = json.loads(REFERENCE.read_text())
    psi = states.magic_state(ref["phi"])
    devs = {
        "ng": abs(measures.ng_relative_entropy(psi) - ref["ng_relative_entropy"]),
        "p_accept": abs(testing.gaussian_state_test(psi).p_accept - ref["p_accept"]),
        "k_m": abs(measures.cumulant_weights(psi)[2] - ref["k_m"]),
    }
    g = gaussian.gaussification(psi)
    cur = psi
    for k, want in enumerate(ref["distances_k0_to_k5"]):
        devs[f"dist_k{k}"] = abs(clifford.l2_norm(cur - g) - want)
        if k < 5:
            cur = convolution.convolve(cur, cur)
    worst = max(devs.values())
    _report(
        "frozen reference values are reproduced",
        worst <= 1e-8,
        f"max deviation {worst:.3e} ({max(devs, key=devs.get)})",
    )

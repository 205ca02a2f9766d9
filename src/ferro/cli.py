"""Command-line front end: figure reproduction sweeps, test protocols, netlists.

Exit codes: 0 success, 2 precondition/parse failure (one-line `error E_...`
message on stderr).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import circuits, clifford, convolution, gaussian, grassmann, io, measures, states, testing


# largest inputs the commands accept: a state's moment table has 4^n
# entries; the covariance engine conjugates 2n Majoranas by a 2^n x 2^n
# unitary, while the dense engine's Choi state lives on 2n modes
MAX_STATE_MODES = 6
MAX_UNITARY_MODES = 8
MAX_DENSE_UNITARY_MODES = 4
# the sweeps hold the whole phi grid as one stack, up to ~30 kB per point
MAX_GRID = 4097


class CliError(Exception):
    def __init__(self, code: str, detail: str = ""):
        self.code = code
        super().__init__(f"{code}: {detail}" if detail else code)


def _phi_grid(points: int) -> np.ndarray:
    """E_BAD_GRID outside 2..MAX_GRID points, before any stack is built."""
    if not 2 <= points <= MAX_GRID:
        raise CliError("E_BAD_GRID", str(points))
    return np.linspace(0.0, 2.0 * math.pi, points)


def cmd_fig2(args) -> int:
    kmax = args.kmax
    if not 1 <= kmax <= 4:
        raise CliError("E_KMAX_RANGE", str(kmax))
    grid = _phi_grid(args.grid)
    psi = states.magic_state(grid)
    cols = measures.ng_entropies(psi, kmax)
    cols.append(measures.ng_relative_entropy(psi))
    header = ["phi"] + [f"NG_k{k}" for k in range(1, kmax + 1)] + ["NG_inf"]
    io.write_csv(args.out, header, _rows(grid, cols))
    return 0


def _rows(grid: np.ndarray, cols) -> list:
    """CSV rows phi, col_1[i], col_2[i], ... from per-column arrays over the grid."""
    return np.column_stack([grid, *cols]).tolist()


def cmd_weights(args) -> int:
    grid = _phi_grid(args.grid)
    _, k_g, k_m, k_total = measures.cumulant_weights(states.magic_state(grid))
    io.write_csv(args.out, ["phi", "K_G", "K_M", "K"], _rows(grid, [k_g, k_m, k_total]))
    return 0


def cmd_renyi(args) -> int:
    kmax = args.kmax
    if not 1 <= kmax <= 4:
        raise CliError("E_KMAX_RANGE", str(kmax))
    grid = _phi_grid(args.grid)
    cols = measures.ng_entropies(states.magic_state(grid), kmax, alpha=args.alpha)
    header = ["phi"] + [f"NG_a{io.fmt(args.alpha)}_k{k}" for k in range(1, kmax + 1)]
    io.write_csv(args.out, header, _rows(grid, cols))
    return 0


def _load(path: str):
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise CliError("E_FILE", str(e)) from None
    try:
        return io.parse_array(text)
    except io.FormatError as e:
        raise CliError(e.code, "") from None


def _check_modes(arr: np.ndarray, max_modes: int) -> None:
    """E_TOO_LARGE for inputs over max_modes modes, before any 4^n work."""
    if arr.shape[0] > 1 << max_modes:
        raise CliError("E_TOO_LARGE", f"dimension {arr.shape[0]} exceeds {1 << max_modes}")


def _density(arr: np.ndarray, kind: str) -> np.ndarray:
    """A density matrix as given, or the projector onto a normalised state vector."""
    if kind == "matrix":
        return arr
    norm = np.linalg.norm(arr)
    if norm == 0.0:
        raise CliError("E_ZERO_VECTOR")
    arr = arr / norm
    return np.outer(arr, arr.conj())


def _field(x) -> str:
    """A verdict's figure for the output, empty when the parity check decided without it."""
    return "" if x is None else io.fmt(x)


def cmd_test_state(args) -> int:
    arr, kind = _load(args.statefile)
    _check_modes(arr, MAX_STATE_MODES)
    rho = _density(arr, kind)
    try:
        clifford.assert_state(rho)
    except ValueError as e:
        raise CliError("E_NOT_A_STATE", str(e)) from None
    try:
        res = testing.gaussian_state_test(rho)
    except ValueError as e:  # rho is a state: only the purity check is left to fail
        raise CliError("E_NOT_PURE", str(e)) from None
    even = res.reason != "not-even"
    print(f"even: {'yes' if even else 'no'}")
    if even:
        print(f"p_accept: {_field(res.p_accept)}")
    print(f"verdict: {'gaussian' if res.is_gaussian else 'non-gaussian'}")
    print(f"csv,even={int(even)},p_accept={_field(res.p_accept)},gaussian={int(res.is_gaussian)},"
          f"reason={res.reason},margin={_field(res.margin)}")
    return 0


def cmd_test_unitary(args) -> int:
    arr, kind = _load(args.unitaryfile)
    if kind != "matrix":
        raise CliError("E_EXPECTED_MATRIX", args.unitaryfile)
    _check_modes(arr, MAX_DENSE_UNITARY_MODES if args.engine == "dense" else MAX_UNITARY_MODES)
    try:
        clifford.assert_unitary(arr)
    except ValueError as e:
        raise CliError("E_NOT_UNITARY", str(e)) from None
    res = testing.gaussian_unitary_test(arr, engine=args.engine)
    print(f"engine: {args.engine}")
    print(f"verdict: {'gaussian' if res.is_gaussian else 'non-gaussian'}")
    if res.reason:
        print(f"reason: {res.reason}")
    print(f"csv,gaussian={int(res.is_gaussian)},reason={res.reason},engine={args.engine},"
          f"margin={_field(res.margin)}")
    return 0


def cmd_clt(args) -> int:
    arr, kind = _load(args.statefile)
    _check_modes(arr, MAX_STATE_MODES)
    rho = _density(arr, kind)
    try:
        clifford.assert_state(rho)
    except ValueError as e:
        raise CliError("E_NOT_A_STATE", str(e)) from None
    if not clifford.is_even(rho):
        raise CliError("E_NOT_EVEN_STATE", "state is not even")
    xi = grassmann.GrassmannPoly(2 * clifford.num_qubits(rho), clifford._moments(rho))
    kmax = args.kmax
    if not 0 <= kmax <= 6:
        raise CliError("E_KMAX_RANGE", str(kmax))
    # one moment table gives the iterates, the cumulant polynomial (every
    # row's bound) and the limit G(rho), the Gaussian with the table's
    # degree-2 moments; distances by moment-domain Parseval,
    # ||rho - g||_2 = 2^-n sqrt(sum_J |rho_J - g_J|^2)
    psi = grassmann.cumulants_from_moments(xi)
    _, k_g, k_m, _ = measures.polynomial_weights(psi)
    g_mom = grassmann.GrassmannPoly(xi.generators,
                                    gaussian.wick_moments(gaussian._covariance(xi.coeffs)))
    rows = []
    for k in range(kmax + 1):
        if k:
            # the dense engine iterates the channel, the cumulant engine rescales the cumulants
            xi = (convolution.convolve_moments(xi, xi) if args.engine == "dense"
                  else grassmann.g_exp(convolution.doubling_cumulants(psi, k)))
        dist = grassmann.l2_norm(xi - g_mom) / rho.shape[0]
        rows.append([k, dist, measures.clt_bound_from_weights(k_g, k_m, k)])
    io.write_csv(args.out, ["k", "distance", "bound"], rows)
    return 0


def cmd_decompose(args) -> int:
    if args.modes < 1:
        raise CliError("E_BAD_MODES", str(args.modes))
    gl = circuits.decompose_conv_unitary(args.theta, args.modes)
    text = circuits.emit_netlist(gl)
    if args.out:
        with open(args.out, "w", newline="\n") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ferro")
    sub = p.add_subparsers(dest="command", required=True)

    f2 = sub.add_parser("fig2", help="non-Gaussian entropy sweep over the 4-qubit family")
    f2.add_argument("--kmax", type=int, default=3)
    f2.add_argument("--grid", type=int, default=65)
    f2.add_argument("--out", required=True)
    f2.set_defaults(fn=cmd_fig2)

    w = sub.add_parser("weights", help="cumulant weight sweep")
    w.add_argument("--grid", type=int, default=65)
    w.add_argument("--out", required=True)
    w.set_defaults(fn=cmd_weights)

    r = sub.add_parser("renyi", help="Renyi non-Gaussian entropy sweep")
    r.add_argument("--alpha", type=float, default=2.0)
    r.add_argument("--kmax", type=int, default=3)
    r.add_argument("--grid", type=int, default=65)
    r.add_argument("--out", required=True)
    r.set_defaults(fn=cmd_renyi)

    ts = sub.add_parser("test-state", help="Gaussianity test for a state file")
    ts.add_argument("statefile")
    ts.set_defaults(fn=cmd_test_state)

    tu = sub.add_parser("test-unitary", help="Gaussianity test for a unitary file")
    tu.add_argument("unitaryfile")
    tu.add_argument("--engine", choices=("dense", "cumulant"), default="cumulant")
    tu.set_defaults(fn=cmd_test_unitary)

    c = sub.add_parser("clt", help="convergence distances and bounds")
    c.add_argument("statefile")
    c.add_argument("--kmax", type=int, default=4)
    c.add_argument("--engine", choices=("dense", "cumulant"), default="dense")
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_clt)

    d = sub.add_parser("decompose", help="emit a netlist for the convolution unitary")
    d.add_argument("--theta", type=float, default=math.pi / 4)
    d.add_argument("--modes", type=int, default=1)
    d.add_argument("--out", default="")
    d.set_defaults(fn=cmd_decompose)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as e:
        print(f"error {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error E_IO: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

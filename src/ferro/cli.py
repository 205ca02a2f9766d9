"""Command-line front end: figure reproduction sweeps, test protocols, netlists.

Exit codes: 0 success, 2 bad input: one line `error E_...` on stderr,
from the ferro.InputError of the check that failed, or E_IO for an output
that cannot be written.  The CLI checks only its arguments and the input
file's readability and kind, and sets the size cap that io.parse_array
checks on the file's header; the library checks the rest.

Each command checks its arguments first and then imports only the ferro
modules it runs, so `decompose`, every argument error and every malformed
input file finish without loading numpy.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys

from . import InputError

# largest inputs the commands accept: a state's moment table has 4^n
# entries; the covariance engine conjugates 2n Majoranas by a 2^n x 2^n
# unitary, while the dense engine's Choi state lives on 2n modes
MAX_STATE_MODES = 6
MAX_UNITARY_MODES = 8
MAX_DENSE_UNITARY_MODES = 4
# a netlist has ~4m^2 gates for m modes: 17,793 lines at 64
MAX_NETLIST_MODES = 64
# the sweeps hold the whole phi grid as one stack, up to ~30 kB per point
MAX_GRID = 4097


def _check_kmax(kmax: int, low: int, high: int) -> int:
    """The iteration count, or E_KMAX_RANGE outside low..high."""
    if not low <= kmax <= high:
        raise InputError("E_KMAX_RANGE", str(kmax))
    return kmax


def _phi_grid(points: int):
    """The phi grid; E_BAD_GRID outside 2..MAX_GRID points, before any stack is built."""
    if not 2 <= points <= MAX_GRID:
        raise InputError("E_BAD_GRID", str(points))
    import numpy as np

    return np.linspace(0.0, 2.0 * math.pi, points)


def cmd_fig2(args) -> int:
    kmax = _check_kmax(args.kmax, 1, 4)
    grid = _phi_grid(args.grid)
    from . import clifford, grassmann, io, measures, states

    psi = states.magic_state(grid)
    # one moment table feeds NG_inf and the doubling iterates
    xi = grassmann.even_fourier(psi)
    clifford.assert_pure(psi)
    # NG_inf = S(G(psi)) - S(psi), and S(psi) = 0 for the certified pure states
    ng_inf = measures._gaussified_entropy(xi)
    del psi  # the doubling loop needs only the table; the states would add a stack to its peak
    cols = measures._ng_entropies(xi, kmax) + [ng_inf]
    header = ["phi"] + [f"NG_k{k}" for k in range(1, kmax + 1)] + ["NG_inf"]
    io.write_csv(args.out, header, _rows(grid, cols))
    return 0


def _rows(grid, cols) -> list:
    """CSV rows phi, col_1[i], col_2[i], ... from per-column arrays over the grid."""
    import numpy as np

    return np.column_stack([grid, *cols]).tolist()


def cmd_weights(args) -> int:
    grid = _phi_grid(args.grid)
    from . import io, measures, states

    _, k_g, k_m, k_total = measures.cumulant_weights(states.magic_state(grid))
    io.write_csv(args.out, ["phi", "K_G", "K_M", "K"], _rows(grid, [k_g, k_m, k_total]))
    return 0


def cmd_renyi(args) -> int:
    kmax = _check_kmax(args.kmax, 1, 4)
    # S_alpha is defined for alpha in [0, inf]
    if math.isnan(args.alpha) or args.alpha < 0.0:
        raise InputError("E_BAD_ALPHA", str(args.alpha))
    grid = _phi_grid(args.grid)
    from . import io, measures, states

    cols = measures.ng_entropies(states.magic_state(grid), kmax, alpha=args.alpha)
    header = ["phi"] + [f"NG_a{io.fmt(args.alpha)}_k{k}" for k in range(1, kmax + 1)]
    io.write_csv(args.out, header, _rows(grid, cols))
    return 0


def _load(path: str, max_modes: int):
    """The file's array and kind; E_TOO_LARGE over max_modes modes, before its entries are parsed."""
    from . import io

    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise InputError("E_FILE", str(e)) from None
    return io.parse_array(text, max_modes)


def _density(arr, kind: str):
    """A density matrix as given, or the projector onto a normalised state vector."""
    if kind == "matrix":
        return arr
    import numpy as np

    # scaled by its largest real or imaginary part first, so that the norm
    # neither overflows nor underflows; the parts are scaled apart, because
    # numpy's complex division by a subnormal overflows.  io.parse_array has
    # rejected the all-zero vector, so the scale is positive.
    parts = np.stack([arr.real, arr.imag])
    re, im = parts / np.abs(parts).max()
    arr = re + 1j * im
    arr /= np.linalg.norm(arr)
    return np.outer(arr, arr.conj())


def _field(x) -> str:
    """A verdict's figure for the output, empty when the parity check decided without it."""
    from . import io

    return "" if x is None else io.fmt(x)


def cmd_test_state(args) -> int:
    arr, kind = _load(args.statefile, MAX_STATE_MODES)
    from . import testing

    res = testing.gaussian_state_test(_density(arr, kind))
    even = res.reason != "not-even"
    print(f"even: {'yes' if even else 'no'}")
    if even:
        print(f"p_accept: {_field(res.p_accept)}")
    print(f"verdict: {'gaussian' if res.is_gaussian else 'non-gaussian'}")
    print(f"csv,even={int(even)},p_accept={_field(res.p_accept)},gaussian={int(res.is_gaussian)},"
          f"reason={res.reason},margin={_field(res.margin)}")
    return 0


def cmd_test_unitary(args) -> int:
    arr, kind = _load(args.unitaryfile,
                      MAX_DENSE_UNITARY_MODES if args.engine == "dense" else MAX_UNITARY_MODES)
    if kind != "matrix":
        raise InputError("E_EXPECTED_MATRIX", args.unitaryfile)
    from . import testing

    res = testing.gaussian_unitary_test(arr, engine=args.engine)
    print(f"engine: {args.engine}")
    print(f"verdict: {'gaussian' if res.is_gaussian else 'non-gaussian'}")
    if res.reason:
        print(f"reason: {res.reason}")
    print(f"csv,gaussian={int(res.is_gaussian)},reason={res.reason},engine={args.engine},"
          f"margin={_field(res.margin)}")
    return 0


def cmd_clt(args) -> int:
    kmax = _check_kmax(args.kmax, 0, 6)
    arr, kind = _load(args.statefile, MAX_STATE_MODES)
    rho = _density(arr, kind)
    from . import convolution, gaussian, grassmann, io, measures

    xi = grassmann.even_fourier(rho)
    # one moment table gives the iterates, the cumulants (every row's bound)
    # and the limit G(rho); distances by moment-domain Parseval,
    # ||rho - g||_2 = 2^-n sqrt(sum_J |rho_J - g_J|^2)
    _, k_g, k_m, _ = measures.polynomial_weights(grassmann.cumulants_from_moments(xi))
    g_mom = gaussian.gaussification_moments(xi)
    rows = []
    for k in range(kmax + 1):
        if k:
            xi = convolution.convolve_moments(xi, xi)
        dist = grassmann.l2_norm(xi - g_mom) / rho.shape[0]
        rows.append([k, dist, measures.clt_bound_from_weights(k_g, k_m, k)])
    io.write_csv(args.out, ["k", "distance", "bound"], rows)
    return 0


def cmd_decompose(args) -> int:
    if args.modes < 1:
        raise InputError("E_BAD_MODES", str(args.modes))
    if args.modes > MAX_NETLIST_MODES:
        raise InputError("E_TOO_LARGE", f"{args.modes} modes exceed {MAX_NETLIST_MODES}")
    if not math.isfinite(args.theta):
        raise InputError("E_BAD_THETA", str(args.theta))
    from . import circuits

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
    # selects nothing; kept only because the benchmark passes it, and leaves with its change
    c.add_argument("--engine", choices=("dense", "cumulant"), help=argparse.SUPPRESS)
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
    except InputError as e:
        print(f"error {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error E_IO: {e}", file=sys.stderr)
        return 2


def entry() -> int:
    """The program's entry, for `python -m ferro.cli` and the `ferro` script.

    Runs main on sys.argv and freezes the heap before the process exits.
    Frozen objects are never collected, so interpreter shutdown skips its
    collection passes over the ~21,000 objects numpy leaves tracked, 15-30 ms
    of a 0.15-0.25 s command; atexit handlers, stream flushes and module
    teardown still run.  main itself leaves an in-process caller's heap as
    it was.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())

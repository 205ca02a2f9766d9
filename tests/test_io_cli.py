import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ferro
from ferro import cli, clifford, convolution, io, states


def test_parse_vector_and_matrix(tmp_path):
    v = np.array([1.0, 0.0, 0.5j, 0.0])
    text = io.write_array(v)
    arr, kind = io.parse_array(text)
    assert kind == "vector"
    assert np.abs(arr - v).max() < 1e-17
    m = np.array([[1.0, 2.0], [3.0 - 1j, 4.0]])
    arr2, kind2 = io.parse_array(io.write_array(m))
    assert kind2 == "matrix"
    assert np.abs(arr2 - m).max() < 1e-17


@pytest.mark.parametrize(
    "text,code",
    [
        ("", "E_EMPTY_FILE"),
        ("size 4\n1 0\n", "E_BAD_HEADER"),
        ("dim x\n1 0\n", "E_BAD_HEADER"),
        ("dim 1\n1 0\n", "E_BAD_HEADER"),
        ("dim 3\n1 0\n1 0\n1 0\n", "E_DIM_NOT_POWER_OF_TWO"),
        ("dim 2\n1 0\nfoo 0\n", "E_BAD_ENTRY"),
        ("dim 2\n1 0 0\n0 0\n", "E_BAD_ENTRY"),
        ("dim 2\n1 0\n0 0\n0 0\n", "E_ENTRY_COUNT"),
        ("dim 2\n1 0\nnan 0\n", "E_NONFINITE"),
        ("dim 2\n0 0\n-0 0\n", "E_ZERO_VECTOR"),
    ],
)
def test_parse_errors(text, code):
    with pytest.raises(ferro.InputError) as exc:
        io.parse_array(text)
    assert exc.value.code == code


def test_parse_reads_the_header_before_the_body():
    """An oversized header is refused without splitting the body: under 1 MB beyond the text."""
    import tracemalloc

    text = "dim 1048576\n" + "1 0\n" * (1 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(ferro.InputError) as exc:
            io.parse_array(text, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.code == "E_TOO_LARGE"
    assert peak < 1 << 20


def test_fmt_round_trips():
    for x in (0.1, 1 / 3, math.pi, 1e-300, -2.5e17):
        assert float(io.fmt(x)) == x


def test_fig2_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["fig2", "--kmax", "1", "--grid", "5", "--out", str(a)]) == 0
    assert cli.main(["fig2", "--kmax", "1", "--grid", "5", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_error_paths(tmp_path, capsys):
    assert cli.main(["test-state", str(tmp_path / "missing.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error E_")
    bad = tmp_path / "bad.txt"
    bad.write_text("dim 3\n1 0\n1 0\n1 0\n")
    assert cli.main(["test-state", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error E_DIM_NOT_POWER_OF_TWO")
    assert cli.main(["fig2", "--kmax", "9", "--grid", "5", "--out", str(tmp_path / "x.csv")]) == 2


def test_cli_test_state_reports(tmp_path, capsys):
    f = tmp_path / "psi.txt"
    f.write_text(io.write_array(states.magic_state_vector(math.pi)))
    assert cli.main(["test-state", str(f)]) == 0
    out = capsys.readouterr().out
    assert "verdict: non-gaussian" in out
    assert "even: yes" in out
    g = tmp_path / "zero.txt"
    g.write_text(io.write_array(np.array([1.0 + 0j, 0, 0, 0])))
    assert cli.main(["test-state", str(g)]) == 0
    assert "verdict: gaussian" in capsys.readouterr().out


def test_cli_test_state_prints_margin(tmp_path, capsys):
    """The csv line carries margin = 1 - p_accept, empty when the not-even check decides."""
    f = tmp_path / "psi.txt"
    for vec, gaussian in ((states.magic_state_vector(math.pi), False),
                          (np.array([1.0 + 0j, 0, 0, 0]), True)):
        f.write_text(io.write_array(vec))
        assert cli.main(["test-state", str(f)]) == 0
        out = capsys.readouterr().out
        fields = dict(kv.split("=") for kv in out.splitlines()[-1].split(",")[1:])
        p_accept, margin = float(fields["p_accept"]), float(fields["margin"])
        assert margin == 1.0 - p_accept
        assert (margin <= 1e-7) == gaussian == (fields["gaussian"] == "1")
    f.write_text(io.write_array(np.array([1.0, 1.0, 0, 0], dtype=complex)))  # both parities
    assert cli.main(["test-state", str(f)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(",reason=not-even,margin=")


def test_cli_sweeps_compute_columns(tmp_path, monkeypatch):
    """fig2 runs its grid as one stack: 4 doublings, any grid; NG_inf makes no product, builds
    no Gaussian state and takes no entropy of the pure input, only its covariance's spectrum."""
    from ferro import gaussian, grassmann

    calls, entropies = [], []
    g_mul = grassmann.g_mul
    entropy = clifford.entropy
    monkeypatch.setattr(grassmann, "g_mul", lambda p, q: calls.append(1) or g_mul(p, q))
    monkeypatch.setattr(clifford, "entropy", lambda *a: entropies.append(1) or entropy(*a))
    for name in ("wick_moments", "gaussification"):
        monkeypatch.setattr(gaussian, name, lambda *_, name=name: pytest.fail(f"calls {name}"))
    for grid in (3, 9):
        calls.clear()
        entropies.clear()
        assert cli.main(["fig2", "--kmax", "4", "--grid", str(grid),
                         "--out", str(tmp_path / "f.csv")]) == 0
        assert len(calls) == 4
        assert len(entropies) == 4


def test_cli_fig2_memory(tmp_path):
    """The stacked sweep stays on the recursive product: no rows x 3^8 pair table."""
    import tracemalloc

    argv = ["fig2", "--kmax", "4", "--grid", "67", "--out", str(tmp_path / "f.csv")]
    assert cli.main(argv) == 0  # fills the kernel's cached tables
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


def test_cli_test_unitary_reports(tmp_path, capsys):
    f = tmp_path / "cz.txt"
    f.write_text(io.write_array(np.diag([1, 1, 1, -1]).astype(complex)))
    assert cli.main(["test-unitary", str(f)]) == 0
    out = capsys.readouterr().out
    assert "reason: choi-not-gaussian" in out


def test_cli_test_unitary_default_engine(tmp_path, capsys):
    f = tmp_path / "cz.txt"
    f.write_text(io.write_array(np.diag([1, 1, 1, -1]).astype(complex)))
    assert cli.main(["test-unitary", str(f)]) == 0
    assert "engine: cumulant\n" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        cli.main(["test-unitary", str(f), "--engine", "auto"])
    assert exc.value.code == 2
    assert "invalid choice: 'auto'" in capsys.readouterr().err


def test_cli_clt_rows_bounded(tmp_path):
    f = tmp_path / "psi.txt"
    f.write_text(io.write_array(states.magic_state_vector(math.pi)))
    out = tmp_path / "clt.csv"
    assert cli.main(["clt", str(f), "--kmax", "3", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == 4
    for row in rows:
        _, dist, bound = row.split(",")
        assert float(dist) <= float(bound)


def test_cli_clt_engines_agree(tmp_path, capsys):
    """clt has one path: --engine is accepted, checked and ignored."""
    f = tmp_path / "psi.txt"
    f.write_text(io.write_array(states.magic_state_vector(2.0)))
    texts = set()
    for flag in ([], ["--engine", "dense"], ["--engine", "cumulant"]):
        out = tmp_path / "c.csv"
        assert cli.main(["clt", str(f), "--kmax", "6", *flag, "--out", str(out)]) == 0
        texts.add(out.read_bytes())
    assert len(texts) == 1
    assert len(texts.pop().splitlines()) == 8
    with pytest.raises(SystemExit) as exc:
        cli.main(["clt", str(f), "--engine", "other", "--out", str(out)])
    assert exc.value.code == 2
    assert "invalid choice: 'other'" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli.main(["clt", "--help"])
    assert "--engine" not in capsys.readouterr().out


def test_cli_decompose(tmp_path):
    out = tmp_path / "net.txt"
    assert cli.main(["decompose", "--theta", str(math.pi / 4), "--modes", "1",
                     "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("qubits 2\n")
    from ferro import circuits

    from helpers import gate_list_to_unitary, phase_invariant_distance

    gl = circuits.parse_netlist(text)
    u = gate_list_to_unitary(gl)
    assert phase_invariant_distance(convolution.conv_unitary(math.pi / 4, 1), u) < 1e-9



def _rejects(tmp_path, capsys, argv, text, code):
    f = tmp_path / "in.txt"
    f.write_text(text)
    assert cli.main([argv[0], str(f), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error {code}")
    assert "verdict" not in captured.out


def test_cli_rejects_non_finite(tmp_path, capsys):
    rho = np.full((4, 4), 0.25, dtype=complex)
    rho[0, 3] = np.nan
    _rejects(tmp_path, capsys, ["test-state"], io.write_array(rho), "E_NONFINITE")
    u = np.eye(4, dtype=complex)
    u[1, 1] = np.inf
    _rejects(tmp_path, capsys, ["test-unitary"], io.write_array(u), "E_NONFINITE")


# nonzero vectors whose norm overflows or underflows, with test-state's verdict
FLOAT_LIMIT_VECTORS = {
    "overflow": ("dim 2\n1e308 0\n1e308 0\n", "non-gaussian", "not-even"),
    "underflow": ("dim 2\n1e-320 0\n0 0\n", "gaussian", ""),
}


@pytest.mark.parametrize("dim", [2, 4, 16, *FLOAT_LIMIT_VECTORS])
def test_cli_rejects_zero_vector(tmp_path, capsys, dim):
    """Only an all-zero vector is E_ZERO_VECTOR; one at the float limits is normalised."""
    if dim in FLOAT_LIMIT_VECTORS:
        text, verdict, reason = FLOAT_LIMIT_VECTORS[dim]
        f = tmp_path / "in.txt"
        f.write_text(text)
        assert cli.main(["test-state", str(f)]) == 0
        out = capsys.readouterr().out
        assert f"verdict: {verdict}\n" in out and f",reason={reason}," in out
        return
    text = io.write_array(np.zeros(dim, dtype=complex))
    _rejects(tmp_path, capsys, ["test-state"], text, "E_ZERO_VECTOR")
    _rejects(tmp_path, capsys, ["clt", "--out", str(tmp_path / "c.csv")], text, "E_ZERO_VECTOR")
    _rejects(tmp_path, capsys, ["test-unitary"], text, "E_ZERO_VECTOR")


def test_cli_rejects_mixed_state(tmp_path, capsys):
    rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)  # even, Gaussian, mixed
    _rejects(tmp_path, capsys, ["test-state"], io.write_array(rho), "E_NOT_PURE")


def test_cli_test_unitary_rejects(tmp_path, capsys):
    """A vector gives E_EXPECTED_MATRIX; a matrix that is not unitary, E_NOT_UNITARY."""
    for engine in ("dense", "cumulant"):
        argv = ["test-unitary", "--engine", engine]
        _rejects(tmp_path, capsys, argv, io.write_array(np.eye(4, dtype=complex)[0]),
                 "E_EXPECTED_MATRIX")
        _rejects(tmp_path, capsys, argv, io.write_array(2 * np.eye(4, dtype=complex)),
                 "E_NOT_UNITARY: matrix is not unitary within tolerance")


def test_cli_file_and_output_errors(tmp_path, capsys):
    """An unreadable input gives E_FILE; an --out that cannot be written, E_IO."""
    assert cli.main(["test-state", str(tmp_path / "missing.txt")]) == 2
    assert capsys.readouterr().err.startswith("error E_FILE: ")
    assert cli.main(["fig2", "--kmax", "1", "--grid", "3", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error E_IO: ")


def test_cli_parse_errors_keep_their_detail(tmp_path, capsys):
    _rejects(tmp_path, capsys, ["test-state"], "size 4\n1 0\n", "E_BAD_HEADER: size 4\n")


def test_readme_lists_every_error_code():
    """The codes README documents are the codes the source raises."""
    import re

    code = re.compile(r"\bE_[A-Z][A-Z0-9_]*")
    root = Path(ferro.__file__).resolve().parent
    raised = {c for f in root.glob("*.py") for c in code.findall(f.read_text())}
    readme = (root.parents[1] / "README.md").read_text()
    assert "E_BAD_SHAPE" in raised and "E_IO" in raised
    assert set(code.findall(readme)) == raised


def test_clt_checks_the_state_before_its_parity(tmp_path, capsys):
    """A non-state gets E_NOT_A_STATE from clt as from test-state; a parity gap, E_NOT_EVEN_STATE."""
    t = 1e-6
    not_hermitian = np.array([[math.cos(t), 1j * math.sin(t)], [1j * math.sin(t), math.cos(t)]])
    negative = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    trace_off = np.diag([0.6, 0.6, 0.0, 0.0]).astype(complex)
    clt = ["clt", "--out", str(tmp_path / "c.csv")]
    for rho in (not_hermitian, negative, trace_off):
        for argv in (["test-state"], clt):
            _rejects(tmp_path, capsys, argv, io.write_array(rho), "E_NOT_A_STATE")
    # a zero-mode file is no state either; it is refused as it is read
    _rejects(tmp_path, capsys, clt, "dim 1\n1 0\n", "E_BAD_HEADER: dim 1\n")
    gap = np.array([1.0, 1e-5, 0.0, 0.0], dtype=complex)
    _rejects(tmp_path, capsys, clt, io.write_array(gap), "E_NOT_EVEN_STATE")


@pytest.mark.parametrize("engine", ["dense", "cumulant"])
def test_clt_kmax_bound(tmp_path, capsys, engine):
    """Both engines take --kmax 0..6."""
    f = tmp_path / "psi.txt"
    f.write_text(io.write_array(states.magic_state_vector(2.0)))
    out = tmp_path / "c.csv"
    for kmax in (-1, 7):
        assert cli.main(["clt", str(f), "--kmax", str(kmax), "--engine", engine,
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error E_KMAX_RANGE: {kmax}\n"
    assert cli.main(["clt", str(f), "--kmax", "6", "--engine", engine, "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 8


def test_clt_checks_kmax_before_the_file(tmp_path, capsys):
    """A bad --kmax is reported before the state file is read, even when the file is bad too."""
    bad = tmp_path / "bad.txt"
    bad.write_text("dim 3\n1 0\n1 0\n1 0\n")
    for path in (bad, tmp_path / "missing.txt"):
        assert cli.main(["clt", str(path), "--kmax", "7", "--out", str(tmp_path / "c.csv")]) == 2
        assert capsys.readouterr().err == "error E_KMAX_RANGE: 7\n"


def test_renyi_checks_alpha(tmp_path, capsys, monkeypatch):
    """--alpha takes 0..inf; nan or a negative order gives E_BAD_ALPHA before the grid is built."""
    out = tmp_path / "r.csv"
    for alpha in ("0", "inf"):
        assert cli.main(["renyi", "--alpha", alpha, "--grid", "3", "--out", str(out)]) == 0
        text = out.read_text()
        assert len(text.splitlines()) == 4 and "nan" not in text
    out.unlink()

    def refuse(phi):
        raise AssertionError("the stack of states was built")

    monkeypatch.setattr(states, "magic_state", refuse)
    for alpha in ("nan", "-1", "-inf"):
        assert cli.main(["renyi", f"--alpha={alpha}", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error E_BAD_ALPHA: {float(alpha)}\n"
    assert not out.exists()


def test_decompose_checks_its_arguments(tmp_path, capsys):
    """--modes takes 1..MAX_NETLIST_MODES and --theta a finite angle; nothing is written otherwise."""
    out = tmp_path / "net.txt"
    top = cli.MAX_NETLIST_MODES
    assert cli.main(["decompose", "--modes", str(top), "--out", str(out)]) == 0
    assert out.read_text().startswith(f"qubits {2 * top}\n")
    out.unlink()
    for argv, err in ((["--modes", "0"], "E_BAD_MODES: 0"),
                      (["--modes", str(top + 1)], f"E_TOO_LARGE: {top + 1} modes exceed {top}"),
                      (["--theta", "nan"], "E_BAD_THETA: nan"),
                      (["--theta", "inf"], "E_BAD_THETA: inf"),
                      (["--theta=-inf"], "E_BAD_THETA: -inf")):
        assert cli.main(["decompose", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error {err}\n"
    assert not out.exists()


def test_cli_import_loads_numpy_only():
    src = str(Path(ferro.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = "import sys, ferro.cli; print(sorted({'scipy', 'numba'} & set(sys.modules)))"
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert res.stdout.strip() == "[]"


def _fresh_run(code: str) -> subprocess.CompletedProcess:
    """`code` run by a fresh interpreter that imports ferro from this checkout."""
    paths = [str(Path(ferro.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)


def _fresh_python(code: str) -> str:
    """stdout of `code` run by a fresh interpreter that imports ferro from this checkout."""
    res = _fresh_run(code)
    res.check_returncode()
    return res.stdout.strip()


def test_decompose_and_argument_errors_skip_numpy(tmp_path):
    """`decompose`, each argument error and each malformed file finish before numpy is imported."""
    out = str(tmp_path / "x")
    bad = {"nan": "dim 2\n1 0\nnan 0\n", "entry": "dim 2\n1 0\nfoo 0\n", "large": "dim 128\n1 0\n",
           "zero": "dim 4\n0 0\n0 0\n0 0\n0 0\n"}
    for name, text in bad.items():
        (tmp_path / name).write_text(text)
    runs = [
        ["decompose", "--modes", "2", "--out", out],
        ["decompose", "--modes", "65"],
        ["decompose", "--theta", "inf"],
        ["fig2", "--kmax", "9", "--out", out],
        ["renyi", "--alpha", "nan", "--out", out],
        ["weights", "--grid", "1", "--out", out],
        ["clt", "missing.txt", "--kmax", "7", "--out", out],
        *(["test-state", str(tmp_path / name)] for name in bad),
    ]
    code = ("import sys, ferro, ferro.cli as cli\n"
            f"print([cli.main(argv) for argv in {runs!r}], 'numpy' in sys.modules,"
            " 'dataclasses' in sys.modules)")
    assert _fresh_python(code) == "[0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2] False False"


def test_package_loads_submodules_on_access():
    """`import ferro` loads no submodule; every name in __all__ resolves to its module."""
    code = ("import sys, ferro\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('ferro.'))\n"
            "listed = set(ferro.__all__) <= set(dir(ferro))\n"
            "ok = [getattr(ferro, n) is sys.modules['ferro.' + n] for n in ferro.__all__]\n"
            "from ferro import circuits\n"
            "print(loaded, listed, all(ok), hasattr(ferro, 'nonexistent'))")
    assert _fresh_python(code) == "[] True True False"


# The ferro modules each command loads, as README's "Start-up" lists them.
_ENGINE = {"clifford", "convolution", "gaussian", "grassmann", "measures"}
COMMAND_MODULES = {
    "fig2 --kmax 1 --grid 3 --out {out}": {"cli", "io", "states"} | _ENGINE,
    "weights --grid 3 --out {out}": {"cli", "clifford", "grassmann", "io", "measures", "states"},
    "renyi --kmax 1 --grid 3 --out {out}": {"cli", "io", "states"} | _ENGINE - {"gaussian"},
    "test-state {psi}": {"cli", "clifford", "io", "testing"},
    "test-unitary {u}": {"cli", "clifford", "io", "testing"},
    "test-unitary {u} --engine dense": {"cli", "clifford", "io", "testing"},
    "clt {psi} --kmax 1 --out {out}": {"cli", "io"} | _ENGINE,
    "decompose --modes 2 --out {out}": {"cli", "circuits"},
    "test-state {bad}": {"cli", "io"},
}


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_commands_load_the_modules_readme_lists(tmp_path, command):
    """Each command, run in a fresh interpreter, loads the ferro modules of its row and no dataclasses."""
    files = {"psi": io.write_array(states.magic_state_vector(2.0)),
             "u": io.write_array(np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)),
             "bad": "dim 2\n1 0\nfoo 0\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = command.format(out=tmp_path / "out", **{n: tmp_path / n for n in files}).split()
    code = ("import contextlib, io, sys, ferro.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            f"    status = cli.main({argv!r})\n"
            "loaded = sorted(m[6:] for m in sys.modules if m.startswith('ferro.'))\n"
            "print(status, ' '.join(loaded), 'dataclasses' in sys.modules)")
    status = 2 if "{bad}" in command else 0
    assert _fresh_python(code) == f"{status} {' '.join(sorted(COMMAND_MODULES[command]))} False"


def test_the_program_exits_with_a_frozen_heap(tmp_path):
    """`python -m ferro.cli` freezes the heap before it exits, after a run and after an input
    error, and atexit handlers still run; an in-process cli.main leaves the heap collectable."""
    from ferro import circuits

    net, bad = tmp_path / "net.txt", tmp_path / "bad.txt"
    bad.write_text("dim 2\n1 0\nfoo 0\n")
    runs = [(["decompose", "--modes", "2", "--out", str(net)], 0, ""),
            (["test-state", str(bad)], 2, "error E_BAD_ENTRY: foo 0\n")]
    for argv, status, err in runs:
        code = ("import atexit, gc, runpy, sys\n"
                "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
                f"sys.argv = ['ferro', *{argv!r}]\n"
                "runpy.run_module('ferro.cli', run_name='__main__')\n")
        res = _fresh_run(code)
        assert (res.returncode, res.stdout, res.stderr) == (status, "True\n", err)
    assert net.read_text() == circuits.emit_netlist(circuits.decompose_conv_unitary(math.pi / 4, 2))
    code = ("import gc, ferro.cli as cli\n"
            f"print(cli.main(['decompose', '--modes', '2', '--out', {str(net)!r}]), gc.get_freeze_count())")
    assert _fresh_python(code) == "0 0"


def test_console_script_is_the_module_entry():
    """pyproject's `ferro` script names the function `python -m ferro.cli` runs."""
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["ferro"]
    module, name = target.split(":")
    assert getattr(importlib.import_module(module), name) is cli.entry


@pytest.mark.parametrize("command,modes", [
    ("test-state", 6), ("clt", 6), ("test-unitary", 8),
    pytest.param("test-unitary --engine dense", 4, id="test-unitary-dense-4"),
])
def test_cli_rejects_too_large(tmp_path, capsys, command, modes):
    """The largest accepted input runs; one mode more gives E_TOO_LARGE."""
    command, *options = command.split()

    def text(m):
        d = 1 << m
        a = np.eye(d, dtype=complex) if command == "test-unitary" else np.eye(d)[0].astype(complex)
        return io.write_array(a)

    argv = [command, "--out", str(tmp_path / "c.csv")] if command == "clt" else [command, *options]
    f = tmp_path / "max.txt"
    f.write_text(text(modes))
    assert cli.main([command, str(f), *argv[1:]]) == 0
    capsys.readouterr()
    _rejects(tmp_path, capsys, argv, text(modes + 1), "E_TOO_LARGE")
    # the header alone decides, before the entry lines are parsed or counted
    _rejects(tmp_path, capsys, argv, f"dim {2 << modes}\n1 0\n", "E_TOO_LARGE")


def test_cli_runs_without_dense_beam_splitter(tmp_path, monkeypatch):
    def refuse(theta, n):
        raise AssertionError("the dense beam splitter is a test oracle only")

    monkeypatch.setattr(convolution, "conv_unitary", refuse)
    f = tmp_path / "psi.txt"
    f.write_text(io.write_array(states.magic_state_vector(2.0)))
    assert cli.main(["fig2", "--grid", "3", "--out", str(tmp_path / "f.csv")]) == 0
    assert cli.main(["test-state", str(f)]) == 0
    assert cli.main(["clt", str(f), "--engine", "dense", "--out", str(tmp_path / "c.csv")]) == 0


def test_cli_builds_no_dense_majorana(tmp_path, monkeypatch):
    """Every command that takes a state or a unitary runs without a dense Majorana matrix."""
    def refuse(j, n):
        raise AssertionError("a dense Majorana matrix was built")

    monkeypatch.setattr(clifford, "majorana", refuse)
    psi, u, out = tmp_path / "psi.txt", tmp_path / "u.txt", str(tmp_path / "out.csv")
    psi.write_text(io.write_array(states.magic_state_vector(2.0)))
    u.write_text(io.write_array(np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)))
    for argv in (["test-state", str(psi)],
                 ["test-unitary", str(u)], ["test-unitary", str(u), "--engine", "dense"],
                 ["clt", str(psi), "--kmax", "1", "--out", out],
                 ["fig2", "--kmax", "1", "--grid", "3", "--out", out],
                 ["weights", "--grid", "3", "--out", out],
                 ["renyi", "--kmax", "1", "--grid", "3", "--out", out]):
        assert cli.main(argv) == 0, argv


def test_cli_unitary_verdict_skips_choi_state(tmp_path, monkeypatch, capsys):
    """Neither engine builds the Choi state's density matrix or its cumulants."""
    from ferro import grassmann, testing

    from helpers import parity_block_unitary, random_gaussian_unitary

    class ChoiRoute(Exception):
        pass

    def refuse(*args, **kwargs):
        raise ChoiRoute

    for name in ("cumulants", "g_log"):
        monkeypatch.setattr(grassmann, name, refuse)
    monkeypatch.setattr(testing, "choi_state", refuse)
    rng = np.random.default_rng(7)
    f = tmp_path / "u.txt"
    for n in (3, 4):
        gauss = random_gaussian_unitary(rng, n)[0]
        corpus = [(gauss, "gaussian", None),
                  (parity_block_unitary(rng, n), "non-gaussian", "choi-not-gaussian"),
                  (clifford.majorana(1, n) @ gauss, "non-gaussian", "not-even")]
        for u, verdict, reason in corpus:
            f.write_text(io.write_array(u))
            for argv in ([], ["--engine", "cumulant"]):
                assert cli.main(["test-unitary", str(f), *argv]) == 0
                out = capsys.readouterr().out
                assert "engine: cumulant" in out and f"verdict: {verdict}\n" in out
                assert (f"reason: {reason}" in out) if reason else ("reason:" not in out)
    f.write_text(io.write_array(random_gaussian_unitary(rng, 2)[0]))
    assert cli.main(["test-unitary", str(f), "--engine", "dense"]) == 0
    assert "verdict: gaussian\n" in capsys.readouterr().out


@pytest.mark.parametrize("engine", ["dense", "cumulant"])
def test_clt_computes_cumulants_once(tmp_path, monkeypatch, engine):
    from ferro import grassmann

    calls = []
    cumulants = grassmann.cumulants_from_moments

    def counted(*args, **kwargs):
        calls.append(1)
        return cumulants(*args, **kwargs)

    # grassmann.cumulants(rho) also goes through cumulants_from_moments
    monkeypatch.setattr(grassmann, "cumulants_from_moments", counted)
    # the iterates come from the channel, never from the rescaled cumulants
    monkeypatch.setattr(grassmann, "g_exp", lambda *_: pytest.fail("calls g_exp"))
    f = tmp_path / "psi.txt"
    f.write_text(io.write_array(states.magic_state_vector(2.0)))
    out = tmp_path / "c.csv"
    assert cli.main(["clt", str(f), "--kmax", "4", "--engine", engine, "--out", str(out)]) == 0
    assert len(calls) == 1
    assert len(out.read_text().splitlines()) == 6


@pytest.mark.parametrize("command", ["fig2", "renyi", "weights"])
def test_cli_bounds_the_grid(tmp_path, capsys, monkeypatch, command):
    """A grid of 4098 points gives E_BAD_GRID before the grid or its stack is built."""
    import tracemalloc

    def refuse(phi):
        raise AssertionError("the stack of states was built")

    monkeypatch.setattr(states, "magic_state", refuse)
    out = str(tmp_path / "s.csv")

    def peak(grid):
        tracemalloc.start()
        try:
            assert cli.main([command, "--grid", grid, "--out", out]) == 2
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak("1")  # warm the parser's caches
    base, big = peak("1"), peak("4098")
    assert capsys.readouterr().err.splitlines()[-1] == "error E_BAD_GRID: 4098"
    assert big - base < 4098 * 8  # less than the grid array itself
    assert not (tmp_path / "s.csv").exists()
    assert len(cli._phi_grid(4097)) == 4097


def _parity_gap_files(tmp_path):
    """The parity-gap inputs, (|00> + 1e-5 |01>) and exp(i 1e-6 X), two plain states, and
    a state whose trace is 1 + 5e-9, inside assert_state's slack."""
    t = 1e-6
    files = {
        "gap-state": np.array([1.0, 1e-5, 0.0, 0.0], dtype=complex),
        "gap-unitary": np.array([[math.cos(t), 1j * math.sin(t)],
                                 [1j * math.sin(t), math.cos(t)]]),
        "vector": states.magic_state_vector(2.0),
        "matrix": states.magic_state(2.0),
        "trace-slack": states.magic_state(2.0) * (1 + 5e-9),
    }
    for name, a in files.items():
        (tmp_path / f"{name}.txt").write_text(io.write_array(a))
    return {name: str(tmp_path / f"{name}.txt") for name in files}


@pytest.mark.parametrize("command", ["test-state", "clt", "test-unitary --engine dense",
                                     "test-unitary --engine cumulant"])
def test_cli_never_raises(tmp_path, capsys, command):
    """Every input gets a verdict (exit 0) or an E_ code (exit 2), never an exception."""
    command, *options = command.split()
    if command == "clt":
        options = ["--out", str(tmp_path / "c.csv")]
    for name, path in _parity_gap_files(tmp_path).items():
        rc = cli.main([command, path, *options])
        captured = capsys.readouterr()
        assert rc in (0, 2), (name, rc)
        assert rc == 0 or captured.err.startswith("error E_"), (name, captured.err)
        if (command, name) == ("clt", "gap-state"):
            assert captured.err.startswith("error E_NOT_EVEN_STATE")
        if (command, name) == ("test-state", "gap-state"):
            assert rc == 0
            assert captured.out.splitlines() == [
                "even: no", "verdict: non-gaussian",
                "csv,even=0,p_accept=,gaussian=0,reason=not-even,margin="]
        if (command, name) == ("test-unitary", "gap-unitary"):
            assert rc == 0
            assert "verdict: non-gaussian\nreason: not-even\n" in captured.out


@pytest.mark.parametrize("engine", ["dense", "cumulant"])
def test_clt_takes_the_trace_slack_of_assert_state(tmp_path, engine):
    """clt runs on a state whose trace is 1 -+ 5e-9 and agrees with trace 1 to 1e-7."""
    f = tmp_path / "psi.txt"

    def rows(scale):
        f.write_text(io.write_array(states.magic_state(2.0) * scale))
        out = tmp_path / "c.csv"
        assert cli.main(["clt", str(f), "--kmax", "6", "--engine", engine,
                         "--out", str(out)]) == 0
        return np.loadtxt(out, delimiter=",", skiprows=1)

    base = rows(1.0)
    for scale in (1 - 5e-9, 1 + 5e-9):
        np.testing.assert_allclose(rows(scale), base, rtol=1e-7, atol=1e-7)

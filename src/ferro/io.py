"""Text formats: state/unitary files and deterministic CSV emission.

State files are line-oriented: a header `dim <2^q>`, q >= 1 (at least one
mode), followed by one complex entry per line as `re im`.  A file with dim^2
entry lines holds a matrix in row-major order; a file with dim entry lines
holds a state vector.  A malformed file raises InputError with the fault's
code and the line at fault, before numpy is loaded.
"""

from __future__ import annotations

import cmath
import re

from . import InputError

# the first non-blank line, up to the next of str.splitlines' line boundaries
_FIRST_LINE = re.compile(r"\S[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*")


def parse_array(text: str, max_modes: int | None = None):
    """Parse a state file; returns (array, kind) with kind 'vector' or 'matrix'.

    A header over max_modes modes gives E_TOO_LARGE before the rest of the
    text is split into lines.
    """
    first = _FIRST_LINE.search(text)
    if first is None:
        raise InputError("E_EMPTY_FILE")
    header = first.group().rstrip()
    head = header.split()
    if len(head) != 2 or head[0] != "dim":
        raise InputError("E_BAD_HEADER", header)
    try:
        dim = int(head[1])
    except ValueError:
        raise InputError("E_BAD_HEADER", header) from None
    if dim == 1:  # 2^0: no mode to hold a state
        raise InputError("E_BAD_HEADER", header)
    if dim <= 0 or dim & (dim - 1):
        raise InputError("E_DIM_NOT_POWER_OF_TWO", str(dim))
    if max_modes is not None and dim > 1 << max_modes:
        raise InputError("E_TOO_LARGE", f"dimension {dim} exceeds {1 << max_modes}")
    lines = [ln.strip() for ln in text[first.end():].splitlines() if ln.strip()]
    entries = []
    for ln in lines:
        parts = ln.split()
        if len(parts) != 2:
            raise InputError("E_BAD_ENTRY", ln)
        try:
            z = complex(float(parts[0]), float(parts[1]))
        except ValueError:
            raise InputError("E_BAD_ENTRY", ln) from None
        if not cmath.isfinite(z):
            raise InputError("E_NONFINITE", ln)
        entries.append(z)
    if len(entries) not in (dim, dim * dim):
        raise InputError("E_ENTRY_COUNT", f"got {len(entries)}, expected {dim} or {dim * dim}")
    import numpy as np

    if len(entries) == dim:
        return np.array(entries), "vector"
    return np.array(entries).reshape(dim, dim), "matrix"


def write_array(a) -> str:
    if a.ndim == 1:
        dim = a.shape[0]
        flat = a
    elif a.ndim == 2 and a.shape[0] == a.shape[1]:
        dim = a.shape[0]
        flat = a.reshape(-1)
    else:
        raise InputError("E_BAD_SHAPE", str(a.shape))
    lines = [f"dim {dim}"]
    for z in flat:
        lines.append(f"{fmt(z.real)} {fmt(z.imag)}")
    return "\n".join(lines) + "\n"


def fmt(x: float) -> str:
    """17 significant digits: round trips every double, byte-deterministic."""
    return f"{float(x):.17g}"


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")

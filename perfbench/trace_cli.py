"""Run one ferro CLI command with a span around every public function of each module.

Usage: python perfbench/trace_cli.py SPANS.json CMD_ID -- <ferro cli arguments>

The wrappers are installed with setattr on every ferro module that holds a
reference to the function, so calls made inside a module are caught too.  No
file under src/ changes.  Spans are kept in memory and written to SPANS.json
when the command ends; the command's stdout, stderr and exit code are those of
`python -m ferro.cli` with the same arguments.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time

t_import = time.perf_counter()
import ferro.cli  # noqa: E402  (the import itself is measured)

IMPORT_S = time.perf_counter() - t_import

from ferro import circuits, clifford, convolution, gaussian, grassmann, io, measures, testing  # noqa: E402

LAYERS = {
    "cli": ferro.cli,
    "io": io,
    "clifford": clifford,
    "grassmann": grassmann,
    "gaussian": gaussian,
    "convolution": convolution,
    "measures": measures,
    "testing": testing,
    "circuits": circuits,
}


def _qubits(a) -> int:
    return int(a.shape[0]).bit_length() - 1


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


# extra figures recorded with a span, computed from the call's arguments
ATTRS = {
    "convolution.convolve": lambda a, k: {"n": _qubits(_first(a, k, "rho"))},
    "grassmann.g_mul": lambda a, k: {"generators": _first(a, k, "p").generators,
                                     "nnz": int((_first(a, k, "p").coeffs != 0).sum())},
    "io.parse_array": lambda a, k: {"bytes": len(_first(a, k, "text").encode())},
    "cli._sweep": lambda a, k: {"threads": ferro.cli._threads()},
}
PRIVATE = {"cli._sweep"}  # private functions traced for the pool figures


class Tracer:
    def __init__(self, cmd_id):
        self.cmd_id = cmd_id
        self.spans = []
        self.ids = itertools.count(1)
        self.local = threading.local()
        self.sweep_span = None  # parent of the pool workers' top-level spans
        self.traced = []

    def wrap(self, name, fn):
        attrs = ATTRS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer.local, "stack", None)
            if stack is None:
                stack = tracer.local.stack = []
            parent = stack[-1] if stack else tracer.sweep_span
            sid = next(tracer.ids)
            extra = attrs(args, kwargs) if attrs else None
            stack.append(sid)
            if name == "cli._sweep":
                tracer.sweep_span = sid
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if name == "cli._sweep":
                    tracer.sweep_span = None
                tracer.spans.append([sid, name, start, end, parent, threading.get_ident(), extra])

        return traced

    def install(self):
        originals = {}
        for layer, mod in LAYERS.items():
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") or f"{layer}.{attr}" in PRIVATE
                callable_fn = inspect.isfunction(obj) or hasattr(obj, "cache_info")
                if public and callable_fn and getattr(obj, "__module__", None) == mod.__name__:
                    originals[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                    self.traced.append(f"{layer}.{attr}")
        # rebind every module-level reference, e.g. `from .grassmann import popcounts`
        for mod in list(LAYERS.values()) + [sys.modules["ferro"]]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    setattr(mod, attr, originals[id(obj)])

    def dump(self, path, rc):
        with open(path, "w") as f:
            json.dump({"cmd": self.cmd_id, "import_s": IMPORT_S, "rc": rc,
                       "traced": self.traced, "spans": self.spans}, f)


def main():
    path, cmd_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_cli.py SPANS.json CMD_ID -- <ferro cli arguments>")
    tracer = Tracer(cmd_id)
    tracer.install()
    rc = 1  # an exception escaping main exits 1, as under `python -m ferro.cli`
    try:
        rc = ferro.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(path, rc)
    return rc


if __name__ == "__main__":
    sys.exit(main())

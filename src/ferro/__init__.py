"""ferro: fermionic convolution, Gaussification, non-Gaussianity measures and tests.

The submodules load on first access (PEP 562), so `import ferro` costs
nothing beyond this file and a command imports only the modules it runs:
`ferro.circuits` is pure Python, `ferro.io` loads numpy once a file has
parsed, and every other module loads numpy.
"""

import importlib

__all__ = [
    "circuits",
    "clifford",
    "convolution",
    "gaussian",
    "grassmann",
    "io",
    "measures",
    "states",
    "testing",
]

__version__ = "0.1.0"


class InputError(ValueError):
    """Bad input, rejected by the check that `code` names; str(e) is "code: detail" or "code"."""

    def __init__(self, code: str, detail: str = ""):
        self.code = code
        super().__init__(f"{code}: {detail}" if detail else code)


def __getattr__(name: str):
    if name in __all__:
        # importing a submodule binds it on the package, so this runs once per name
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))

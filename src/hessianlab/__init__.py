"""Radial k-Hessian verification lab.

Numerical checks for symmetric-function identities, radial Dirichlet
solves, concentric capacities, sharp integrability bounds, Orlicz
barrier estimates, level-set decay certificates, and the exponential
(Liouville-type) equation, wired into named suites with a CSV/JSON
report and a CLI.

The package API is the union of the `__all__` lists of the modules
below; each module's list is the one place a public name is declared.
`import hessianlab` imports no submodule.  A name is resolved when it
is first read (PEP 562): a submodule name imports that module, and a
public name imports the first module, in dependency order, whose
`__all__` holds it.  So a CLI run loads only the modules its suite
uses.
"""

import importlib
import os
from functools import cache

__version__ = "0.1.0"

# The submodules that the package exposes as attributes, in dependency
# order.  Each but the quadrature kernel adds its `__all__` to the
# package API.
_SUBMODULES = (
    "errors", "core", "quadrature", "report", "radial", "families", "capacity", "brezis_merle",
    "abp", "liouville", "profile_io", "suites",
)
_API_MODULES = tuple(name for name in _SUBMODULES if name != "quadrature")


@cache
def _declared(module: str) -> tuple[str, ...]:
    """The names in a submodule's `__all__`, read from its source without
    importing it: each list is a literal of quoted names."""
    with open(os.path.join(os.path.dirname(__file__), module + ".py"), encoding="utf-8") as fh:
        block = fh.read().split("\n__all__ = [", 1)[1].split("]", 1)[0]
    return tuple(item.strip().strip('"') for item in block.split(",") if item.strip())


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = [n for module in sorted(_API_MODULES) for n in _declared(module)]
        value += ["PROFILE_FORMAT", "__version__"]
    elif name == "PROFILE_FORMAT":
        value = importlib.import_module(f"{__name__}.profile_io").FORMAT
    else:
        owner = next((module for module in _API_MODULES if name in _declared(module)), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{__name__}.{owner}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    public = globals().get("__all__") or __getattr__("__all__")
    return sorted({*globals(), *_SUBMODULES, *public})

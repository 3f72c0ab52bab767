"""Radial k-Hessian verification lab.

Numerical checks for symmetric-function identities, radial Dirichlet
solves, concentric capacities, sharp integrability bounds, Orlicz
barrier estimates, level-set decay certificates, and the exponential
(Liouville-type) equation, wired into named suites with a CSV/JSON
report and a CLI.

The package API is the union of the `__all__` lists of the modules
below; each module's list is the one place a public name is declared.
"""

from . import (
    abp, brezis_merle, capacity, core, errors, families, liouville, profile_io, radial, report, suites,
)
from .abp import *  # noqa: F403
from .brezis_merle import *  # noqa: F403
from .capacity import *  # noqa: F403
from .core import *  # noqa: F403
from .errors import *  # noqa: F403
from .families import *  # noqa: F403
from .liouville import *  # noqa: F403
from .profile_io import *  # noqa: F403
from .profile_io import FORMAT as PROFILE_FORMAT
from .radial import *  # noqa: F403
from .report import *  # noqa: F403
from .suites import *  # noqa: F403

__version__ = "0.1.0"

_MODULES = (
    abp, brezis_merle, capacity, core, errors, families, liouville, profile_io, radial, report, suites,
)
__all__ = [name for module in _MODULES for name in module.__all__] + ["PROFILE_FORMAT", "__version__"]

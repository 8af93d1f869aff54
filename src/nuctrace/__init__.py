"""nuctrace: nuclear representations on truncated sequence spaces.

The library builds finite nuclear representations, factors them through
diagonal summing stages, and verifies at desk scale that the
representation trace is rewrite-invariant and equal to the eigenvalue sum,
with eigenvalue moduli summable along truncation ladders.

The package re-exports every module's ``__all__``, in module order, and
the command line entry point ``cli_main``.
"""

from . import exponents, factorization, harness, nuclear, seqspace, spectra
from .exponents import *
from .seqspace import *
from .nuclear import *
from .factorization import *
from .spectra import *
from .harness import *
from .cli import cli_main

__version__ = "0.1.0"

__all__ = [
    *exponents.__all__,
    *seqspace.__all__,
    *nuclear.__all__,
    *factorization.__all__,
    *spectra.__all__,
    *harness.__all__,
    "cli_main",
    "__version__",
]

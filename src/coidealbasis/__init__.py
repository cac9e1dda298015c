"""Exact canonical-basis and eigensystem computations for tensor products of
quantum sl2 representations restricted to a coideal subalgebra.

The package keeps all arithmetic in Z[q, q^-1] (or its fraction field), so
every reported identity is exact.  See the README for the module map and the
command-line entry points.
"""

from .laurent import (
    DivisibilityError,
    LaurentPoly,
    RationalFn,
    q_binomial,
    quantum_factorial,
    quantum_int,
)
from .paths import Shape, parse_path, path_str

__all__ = [
    "DivisibilityError",
    "LaurentPoly",
    "RationalFn",
    "Shape",
    "parse_path",
    "path_str",
    "q_binomial",
    "quantum_factorial",
    "quantum_int",
]

__version__ = "0.1.0"

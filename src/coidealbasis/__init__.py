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


def clear_caches() -> dict:
    """Empty every memo table of the package, so that a long-lived process
    can bound its memory; later calls recompute what they need.

    The tables are the lru_caches of the modules (the strip polynomials and
    tilings, the basis vectors, the path profiles, the cyclotomic factors,
    ...) and the per-(N, eps) Hecke modules.  Returns {name: entries before}
    with names such as "ballot.rule2_tilings" and "hecke._MODULES"."""
    # imported on call, so that importing the package loads no more modules
    from . import ballot, basis, hecke, laurent, paths, quantum

    sizes = {}
    for mod in (laurent, paths, hecke, quantum, ballot, basis):
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            # memos imported from another module are cleared under their own
            if hasattr(obj, "cache_clear") and obj.__module__ == mod.__name__:
                sizes[f"{short}.{name}"] = obj.cache_info().currsize
                obj.cache_clear()
    sizes["hecke._MODULES"] = len(hecke._MODULES)
    hecke._MODULES.clear()
    return sizes


__all__ = [
    "DivisibilityError",
    "LaurentPoly",
    "RationalFn",
    "Shape",
    "clear_caches",
    "parse_path",
    "path_str",
    "q_binomial",
    "quantum_factorial",
    "quantum_int",
]

__version__ = "0.1.0"

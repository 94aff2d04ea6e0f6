"""Verification of the Zassenhaus conjecture and the prime graph question.

The package builds, for a finite group given by its ordinary (and optionally
p-modular) character table, the integer linear constraints that the partial
augmentations of a torsion unit of the integral group ring must satisfy
(the HeLP method), solves them exactly, and filters the surviving candidates
with the Wagner congruence test.

Typical use::

    from helpzc import check_zc, check_pq, load_bundle, resolve_bundle_path

    bundle = load_bundle(resolve_bundle_path("m11"))
    verdict = check_pq(bundle)
    assert verdict.proved
"""

from .chartables import (
    BundleError,
    CharacterTable,
    TableBundle,
    cyclic_table,
    load_bundle,
    resolve_bundle_path,
)
from .constraints import (
    ConstraintError,
    PATuple,
    PAVector,
    build_system,
    build_system_p_constant,
    pa_vector,
)
from .cyclotomics import Cyc, FieldError, GaloisError, root_of_unity
from .intsolve import Aborted, Finite, Infinite, LinSystem, solve_all
from .verify import (
    DriverError,
    SolutionStore,
    SolverOptions,
    Verdict,
    check_pq,
    check_zc,
    solve_order,
    solve_order_report,
    trivial_solutions,
)
from .wagner import wagner_test

__version__ = "0.1.0"


def __getattr__(name):
    # the value and store codecs, which only a file read or written needs,
    # load on first use
    if name in ("cyc_from_json", "cyc_to_json"):
        from . import bundlefile as codec
    elif name in ("store_from_json", "store_to_json"):
        from . import storefile as codec
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(codec, name)


__all__ = [
    "Aborted",
    "BundleError",
    "CharacterTable",
    "ConstraintError",
    "Cyc",
    "DriverError",
    "FieldError",
    "Finite",
    "GaloisError",
    "Infinite",
    "LinSystem",
    "PATuple",
    "PAVector",
    "SolutionStore",
    "SolverOptions",
    "TableBundle",
    "Verdict",
    "build_system",
    "build_system_p_constant",
    "check_pq",
    "check_zc",
    "cyc_from_json",
    "cyc_to_json",
    "cyclic_table",
    "load_bundle",
    "pa_vector",
    "resolve_bundle_path",
    "root_of_unity",
    "solve_all",
    "solve_order",
    "solve_order_report",
    "store_from_json",
    "store_to_json",
    "trivial_solutions",
    "wagner_test",
    "__version__",
]

"""Alon-Tarsi numbers of graphs: exact solvers, certificate constructions for
cartesian products and coronas, and a regression suite for the published
closed-form values.

`import atlab` loads every module but `theorems`, the claim suite. Only
`run_suite`, `corona_at`, `ClaimReport` and the `theorems` module itself need
it, and loading it costs more than `atlab at` or `atlab verify` spend solving
a small graph. The first read of any of those four names loads it (PEP 562).
"""

import importlib

from .atsolver import (
    ATCertificate,
    ATResult,
    UniformCap,
    acyclic_certificate,
    at_bipartite,
    at_exact,
    at_lower_bound,
    bounded_outdegree_orientation,
    chromatic_number,
    find_at_orientation,
    least_uniform_cap,
)
from .construct import (
    VerifyReport,
    corona_cut_sides,
    corona_orientation,
    product_orientation,
    verify_certificate,
)
from .density import DensityWitness, max_density
from .errors import CapacityError, ProofObligationError, SizeCapError
from .eulerian import (
    EulerianTally,
    OneWayCutReport,
    Orientation,
    eulerian_diff_poly,
    eulerian_tally_enumerate,
    one_way_cut_check,
    orient,
    orientation_from_arcs,
)
from .graphs import (
    Graph,
    bipartition,
    cartesian_product,
    complete,
    complete_bipartite,
    corona,
    cycle,
    hypercube,
    path,
    star,
    tree_from_edges,
    tree_from_pruefer,
)
from .options import DEFAULT_OPTIONS, SolverOptions

__version__ = "0.1.0"

_FROM_THEOREMS = ("ClaimReport", "corona_at", "run_suite")


def __getattr__(name):
    if name == "theorems" or name in _FROM_THEOREMS:
        theorems = importlib.import_module(".theorems", __name__)
        return theorems if name == "theorems" else getattr(theorems, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

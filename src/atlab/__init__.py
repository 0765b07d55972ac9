"""Alon-Tarsi numbers of graphs: exact solvers, certificate constructions for
cartesian products and coronas, and a regression suite for the published
closed-form values."""

from .atsolver import (
    ATCertificate,
    ATResult,
    UniformCap,
    acyclic_certificate,
    at_bipartite,
    at_bounds,
    at_exact,
    at_lower_bound,
    bounded_outdegree_orientation,
    chromatic_number,
    find_at_orientation,
    least_uniform_cap,
)
from .construct import (
    ConstructionRecipe,
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
from .theorems import ClaimReport, corona_at, run_suite

__version__ = "0.1.0"

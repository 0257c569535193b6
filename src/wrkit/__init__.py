"""Exact-arithmetic toolkit for the Widom-Rowlinson model on finite graphs.

Computes partition polynomials and occupancy fractions exactly, solves
the local linear-programming relaxation over neighbourhood configurations
with a rational simplex, verifies the dual certificate that pins the
optimum to complete neighbourhoods, and scans the open two-activity
questions over graph catalogs.  A Glauber-dynamics sampler covers graphs
above the exact-computation caps.
"""

from .configurations import (
    Configuration,
    ConfigStats,
    alpha_u,
    alpha_v,
    complete_neighbourhood_config,
    count_configs,
    empty_lists_config,
    enumerate_configs,
    local_partition_functions,
    single_colour_config,
)
from .dynamics import estimate_occupancy
from .extremal import (
    BoundReport,
    ScanFinding,
    catalog,
    conjecture_scan,
    verify_hom_bound,
    verify_occupancy_bound,
    verify_partition_bound,
)
from .graphs import (
    Graph,
    canonical_labelled_form,
    check_regular,
    disjoint_union,
    is_union_of_complete,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_petersen,
    make_prism,
    make_random_regular,
    parse_edge_list,
)
from .lp import (
    DualCertificate,
    LPInstance,
    build_primal,
    dual_certificate,
    simplex_solve,
    uniqueness_check,
    verify_dual_feasibility,
    vertex_enumeration_solve,
)
from .numerics import (
    BivariatePolynomial,
    IntPolynomial,
    binomial_power,
    format_rational,
    parse_rational,
)
from .occupancy import (
    ActivityPair,
    alpha_K,
    occupancy_by_colour,
    occupancy_fraction,
    weighted_occupancy,
)
from .partition import (
    is_valid_colouring,
    wr_partition,
    wr_partition_bivariate,
    wr_partition_brute,
)

__version__ = "0.1.0"

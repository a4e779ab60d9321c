"""Numerical machinery for hyperbolic contraction inequalities.

Submodules:
    disk      unit-disk Mobius maps, pseudo-hyperbolic and hyperbolic distance
    weights   interval weights, weighted distances, the curvature quantity
    liouville exact lambda'' = exp(lambda) solutions and the closed-form families
    domains   conformal planar metrics: density, curvature, geodesic distance
    ball      unit-ball automorphisms and the Bergman distance
    catalog   holomorphic test maps with analytic derivatives
    harness   deterministic sampled verification with margin reports
    cli       command-line front end
"""

from . import ball, catalog, disk, domains, harness, liouville, weights
from .disk import mobius, rho, sigma
from .domains import HalfPlane, PathPolyline, PoincareDisk, Strip, distance
from .harness import SampleSpec, SuiteConfig, default_config, run_suite
from .liouville import LiouvilleState, solve_liouville
from .weights import (
    GridSpec,
    Interval,
    Weight,
    WeightFamily,
    curvature_k,
    family_weight,
    omega_distance,
    strip_weight,
)

__version__ = "0.1.0"

__all__ = [
    "ball",
    "catalog",
    "disk",
    "domains",
    "harness",
    "liouville",
    "weights",
    "mobius",
    "rho",
    "sigma",
    "HalfPlane",
    "PathPolyline",
    "PoincareDisk",
    "Strip",
    "distance",
    "SampleSpec",
    "SuiteConfig",
    "default_config",
    "run_suite",
    "LiouvilleState",
    "solve_liouville",
    "GridSpec",
    "Interval",
    "Weight",
    "WeightFamily",
    "curvature_k",
    "family_weight",
    "omega_distance",
    "strip_weight",
    "__version__",
]

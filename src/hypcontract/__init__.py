"""Numerical machinery for hyperbolic contraction inequalities.

The package root holds only ``__version__``; import the submodules by name:

    disk      unit-disk Mobius maps, pseudo-hyperbolic and hyperbolic distance
    weights   interval weights, weighted distances, the curvature quantity
    liouville exact lambda'' = exp(lambda) solutions and the closed-form families
    domains   conformal planar metrics: density, curvature, geodesic distance
    ball      unit-ball automorphisms and the Bergman distance
    catalog   holomorphic test maps with analytic derivatives
    harness   deterministic sampled verification with margin reports
    cli       command-line front end
"""

__version__ = "0.1.0"

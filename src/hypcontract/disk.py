"""Unit-disk Mobius automorphisms and the pseudo-hyperbolic / hyperbolic distances.

Points are plain ``complex`` values (or complex ndarrays; every function
broadcasts).  A point is admissible when it is finite and its modulus stays
below ``1 - BOUNDARY_GUARD``; the guard keeps ``1 - |z|**2`` away from
catastrophic cancellation.

Conventions:
    phi_a(z) = (a - z) / (1 - conj(a) z)      disk automorphism, involution
    rho(z, w) = |phi_z(w)|                    pseudo-hyperbolic distance
    sigma(z, w) = log((1+rho)/(1-rho))        hyperbolic distance, computed
                                              as 2*atanh(rho) for stability
"""

from __future__ import annotations

import numpy as np

BOUNDARY_GUARD = 1e-9

_MAX_ABS = 1.0 - BOUNDARY_GUARD


def check_disk_point(z) -> None:
    """Raise ValueError unless every entry of z is finite with |z| < 1 - guard."""
    z = np.asarray(z)
    # A non-finite entry has a nan or infinite modulus, which fails the bound,
    # so one pass finds every bad point; the entries are read again only to say why.
    if not np.all(np.abs(z) < _MAX_ABS):
        if not np.all(np.isfinite(z)):
            raise ValueError("disk point has non-finite component")
        raise ValueError(
            f"point outside the admissible disk (|z| >= 1 - {BOUNDARY_GUARD:g})"
        )


def mobius(a, z):
    """Disk automorphism phi_a(z) = (a - z)/(1 - conj(a) z)."""
    check_disk_point(a)
    check_disk_point(z)
    return (a - z) / (1.0 - np.conj(a) * z)


def rho(z, w):
    """Pseudo-hyperbolic distance |phi_z(w)|, in [0, 1)."""
    check_disk_point(z)
    check_disk_point(w)
    return np.abs((z - w) / (1.0 - np.conj(z) * w))


def sigma(z, w):
    """Hyperbolic distance 2*atanh(rho(z, w))."""
    return 2.0 * np.arctanh(rho(z, w))


def sigma_real(a, b):
    """Hyperbolic distance between real points of (-1, 1): |2 atanh a - 2 atanh b|.

    Agrees with sigma(a, b) for real arguments via the atanh addition law, but
    avoids forming the quotient (a - b)/(1 - a b).
    """
    check_disk_point(a)
    check_disk_point(b)
    return np.abs(2.0 * np.arctanh(np.real(a)) - 2.0 * np.arctanh(np.real(b)))


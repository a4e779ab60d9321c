"""Unit-ball Mobius automorphisms, the Bergman form, and the Bergman distance.

Points of the unit ball in C^n are complex vectors along the last axis of an
ndarray; every function broadcasts over leading axes.  The inner product is
Hermitian with the second slot conjugated, <u, v> = sum_i u_i conj(v_i).

The automorphism exchanging a and 0 is built from the orthogonal projection
onto span(a),

    phi_a(w) = (a - P_a w - s_a Q_a w) / (1 - <w, a>),

with P_a w = (<w, a>/|a|^2) a, Q_a = I - P_a and s_a = sqrt(1 - |a|^2); for
a = 0 it degenerates to w -> -w.  The formula is validated through its
invariants (phi_a(a) = 0, phi_a(0) = a, involution, n = 1 reduction to the
disk automorphism) rather than taken on faith.

The Bergman distance never needs the form directly: it is
beta = log((1+rho)/(1-rho)) for the pseudo-hyperbolic rho(z, w) = |phi_z(w)|,
and its restriction to the first-coordinate disk slice is the hyperbolic
distance of the disk.  ``embed_modulus`` therefore maps z to the point (|z|,)
of that slice, B^1, with shape ``(..., 1)``: the trailing zero coordinates of
(|z|, 0, ..., 0) in B^n only ever added exact zeros, so beta of two embedded
points has the same bytes in B^1 as in B^n, for a Mobius map on one
coordinate instead of n.

Sums over the last axis (``inner``, ``norm``) are ``np.sum(x, axis=-1)`` in
value and bytes.  For n <= 3 they are computed as explicit column adds,
x[..., 0] + 0.0 + x[..., 1] + ..., which is the order numpy uses there, at a
fraction of its cost; longer axes go to ``np.sum``, whose order differs for
complex n >= 4 and real n >= 8.
"""

from __future__ import annotations

import numpy as np

from .disk import BOUNDARY_GUARD

_MAX_NORM = 1.0 - BOUNDARY_GUARD


def _sum_last(x):
    """``np.sum(x, axis=-1)`` to the byte; column adds when the last axis has 1 to 3 entries.

    numpy reduces from +0.0 and adds up to three terms in order, so the column
    adds match it, signed zeros included.
    """
    if x.ndim == 0 or not 1 <= x.shape[-1] <= 3:
        return np.sum(x, axis=-1)
    total = x[..., 0] + 0.0
    for k in range(1, x.shape[-1]):
        total = total + x[..., k]
    return total


def inner(u, v):
    """Hermitian inner product over the last axis, second slot conjugated."""
    # Named, so numpy's temporary elision cannot turn u * cv into cv * u (other bits).
    cv = np.conj(np.asarray(v))
    return _sum_last(np.asarray(u) * cv)


def norm(z):
    """Euclidean norm over the last axis."""
    return np.sqrt(_sum_last(np.abs(np.asarray(z)) ** 2))


def check_ball_point(z) -> np.ndarray:
    """Validate |z| < 1 - guard componentwise-finite; returns z as an ndarray."""
    return _checked_norms(z)[0]


def _checked_norms(z) -> tuple:
    """The checks of ``check_ball_point``; returns ``z`` as a complex ndarray and its norms."""
    z = np.asarray(z, dtype=complex)
    if z.ndim == 0 or z.shape[-1] < 1:
        raise ValueError("ball point must be a complex vector of length >= 1")
    # A non-finite component makes the norm inf or nan, so one pass over the
    # norms finds every bad point; the components are read again only to say why.
    norms = norm(z)
    if not np.all(norms < _MAX_NORM):
        if not np.all(np.isfinite(z)):
            raise ValueError("ball point has non-finite component")
        raise ValueError(
            f"point outside the admissible ball (|z| >= 1 - {BOUNDARY_GUARD:g})"
        )
    return z, norms


def mobius(a, w):
    """Ball automorphism phi_a(w); phi_a(a) = 0, phi_a(0) = a, involution."""
    a = check_ball_point(a)
    w = check_ball_point(w)
    a2 = np.real(inner(a, a))
    wa = inner(w, a)
    s = np.sqrt(1.0 - a2)
    # <w, 0> == 0 exactly, so the a = 0 branch falls out of the same formula
    # once the 0/0 in the projection is patched.
    safe = np.where(a2 > 0.0, a2, 1.0)
    proj = (wa / safe)[..., np.newaxis] * a
    num = a - proj - s[..., np.newaxis] * (w - proj)
    return num / (1.0 - wa)[..., np.newaxis]


def rho(z, w):
    """Pseudo-hyperbolic distance |phi_z(w)|, in [0, 1)."""
    return norm(mobius(z, w))


def beta(z, w):
    """Bergman distance log((1+rho)/(1-rho)), computed as 2*atanh(rho)."""
    return 2.0 * np.arctanh(rho(z, w))


def embed_modulus(z):
    """Map z to the real point (|z|,) of the disk slice B^1, shape ``(..., 1)``."""
    return np.asarray(_checked_norms(z)[1], dtype=complex)[..., np.newaxis]


def bergman_form(z, u, v):
    """Bergman form H_z(u, v) = 2[(1-|z|^2)<u,v> + <u,z><z,v>] / (1-|z|^2)^2.

    Sesquilinear (linear in u, conjugate-linear in v), conjugate-symmetric,
    positive definite; at z = 0 it is twice the Euclidean inner product.
    """
    z = check_ball_point(z)
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    one_minus = 1.0 - np.real(inner(z, z))
    value = 2.0 * (one_minus * inner(u, v) + inner(u, z) * inner(z, v)) / one_minus**2
    return complex(value) if np.ndim(value) == 0 else value

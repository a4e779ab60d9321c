"""Conformal planar domains: density, Gauss curvature, path length, distance.

Three domain kinds, each a conformal metric h(z)|dz|:

    PoincareDisk   h(z) = 2/(1 - |z|^2)        on the unit disk
    HalfPlane      h(z) = 1/Re z               on the right half-plane
    Strip          h(z) = w(Re z)              on J x R for a weight w on J

Gauss curvature is -(Laplacian log h)/h^2; the disk and half-plane have
curvature -1, a strip has curvature curv_w(Re z) <= 0.  Distances are
closed-form for the disk and half-plane; on a strip, Clairaut's first integral
of the geodesic equation reduces them to a root find and two quadratures.  The
root finder is ``_brentq``, an in-package port of Brent's method that takes
scipy's ``brentq`` steps, so a strip distance does not import scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .disk import BOUNDARY_GUARD
from .disk import sigma as disk_sigma
from .weights import (
    _DE_W,
    _DE_X,
    _FD_STEP,
    GridSpec,
    Weight,
    _log_differences,
    _tanh_sinh,
    curvature_k,
    omega_distance,
)

_MAX_ABS = 1.0 - BOUNDARY_GUARD


@dataclass(frozen=True)
class PoincareDisk:
    kind = "poincare_disk"

    def contains(self, z) -> bool:
        z = np.asarray(z, dtype=complex)
        return bool(np.all(np.isfinite(z)) and np.all(np.abs(z) < _MAX_ABS))

    def density(self, z):
        return 2.0 / (1.0 - np.abs(z) ** 2)

    def curvature(self, z):
        return -1.0 + 0.0 * np.real(z)


@dataclass(frozen=True)
class HalfPlane:
    kind = "half_plane"

    def contains(self, z) -> bool:
        z = np.asarray(z, dtype=complex)
        return bool(np.all(np.isfinite(z)) and np.all(np.real(z) > 0.0))

    def density(self, z):
        return 1.0 / np.real(z)

    def curvature(self, z):
        return -1.0 + 0.0 * np.real(z)


@dataclass(frozen=True)
class Strip:
    weight: Weight

    kind = "strip"

    def __post_init__(self):
        ts = GridSpec(n=65, shrink=1e-3).points(self.weight.domain)
        if np.any(np.asarray(self.weight.density(ts)) <= 0.0):
            raise ValueError("strip weight must be positive on its interval")
        if np.any(np.asarray(curvature_k(self.weight, ts)) > 0.0):
            # the geodesic solver needs w log-convex: curv_w = -(log w)''/w^2 <= 0
            raise ValueError("strip weight must be log-convex (curv_w <= 0) on its interval")

    def contains(self, z) -> bool:
        z = np.asarray(z, dtype=complex)
        return bool(np.all(np.isfinite(z)) and self.weight.domain.contains(np.real(z)))

    def density(self, z):
        return self.weight.density(np.real(z))

    def curvature(self, z):
        return curvature_k(self.weight, np.real(z))


PlanarDomain = Union[PoincareDisk, HalfPlane, Strip]


@dataclass(frozen=True)
class PathPolyline:
    """Piecewise-linear path; at least two nodes, consecutive nodes distinct."""

    nodes: tuple

    def __post_init__(self):
        if len(self.nodes) < 2:
            raise ValueError("polyline needs at least two nodes")
        arr = np.asarray(self.nodes, dtype=complex)
        if not np.all(np.isfinite(arr)):
            raise ValueError("polyline node is not finite")
        if np.any(arr[1:] == arr[:-1]):
            raise ValueError("consecutive polyline nodes must be distinct")

    @classmethod
    def straight(cls, z, w, n_interior: int = 0) -> "PathPolyline":
        ts = np.linspace(0.0, 1.0, n_interior + 2)
        return cls(tuple(complex(z) + (complex(w) - complex(z)) * ts))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.nodes, dtype=complex)


@dataclass(frozen=True)
class DistanceResult:
    value: float
    method: str
    certificate: dict | None = None


def _check_inside(d: PlanarDomain, z, label: str = "point") -> None:
    if not d.contains(z):
        raise ValueError(f"{label} outside the {d.kind} domain")


def density(d: PlanarDomain, z):
    """Conformal density h(z) at interior points."""
    _check_inside(d, z)
    return d.density(z)


def gauss_curvature(d: PlanarDomain, z):
    """Closed-form Gauss curvature -(Laplacian log h)/h^2 at z."""
    _check_inside(d, z)
    return d.curvature(z)


def gauss_curvature_fd(d: PlanarDomain, z, step: float = 1e-3):
    """Gauss curvature via a five-point Laplacian of log h; stencil must fit."""
    z_arr = np.asarray(z, dtype=complex)
    h = step * np.maximum(1.0, np.abs(z_arr))
    stencil = np.stack(
        [z_arr + h, z_arr - h, z_arr + 1j * h, z_arr - 1j * h, z_arr]
    )
    if not d.contains(stencil):
        raise ValueError("curvature stencil leaves the domain")
    g = np.log(d.density(stencil))
    lap = (g[0] + g[1] + g[2] + g[3] - 4.0 * g[4]) / h**2
    out = -lap / np.asarray(d.density(z_arr)) ** 2
    return float(out) if out.ndim == 0 else out


def _segment_membership(d: PlanarDomain, a: np.ndarray, b: np.ndarray) -> None:
    ts = np.linspace(0.0, 1.0, 16)
    pts = a[:, np.newaxis] + (b - a)[:, np.newaxis] * ts[np.newaxis, :]
    if not d.contains(pts):
        raise ValueError("path segment exits the domain")


def path_length(d: PlanarDomain, p: PathPolyline) -> float:
    """Metric length of the polyline: sum over segments of int h(gamma)|dgamma|.

    Each segment is integrated by the tanh-sinh rule of ``omega_distance``, to
    abs tol 1e-12 / rel tol 1e-10; ``QuadratureError`` when it does not settle.
    """
    nodes = p.as_array()
    a, b = nodes[:-1], nodes[1:]
    _segment_membership(d, a, b)
    delta = b - a

    def speed(i, t):
        pts = a[i, np.newaxis] + delta[i, np.newaxis] * t
        return np.asarray(d.density(pts)) * np.abs(delta[i, np.newaxis])

    return float(np.sum(_tanh_sinh(speed, np.zeros(len(a)), np.ones(len(a)))))


_TINY = float(np.finfo(float).tiny)  # the smallest normal double


def _closed_form_half_plane(z: complex, w: complex) -> float:
    """2 asinh(|z - w| / (2 sqrt(Re z Re w))); finite wherever the endpoints are.

    The equivalent 2 atanh(|z - w| / |z + conj(w)|) rounds its argument to 1,
    and the distance to infinity, once the points are far apart.  Halving
    before the difference is exact and keeps ``z - w`` and the denominator
    from overflowing near the largest double.  A denominator below the
    smallest normal double keeps only a few bits, so there ``q`` divides by
    one square root at a time.  Where ``q`` overflows even so, 2 asinh(q) =
    2 log(2q) to rounding, taken as a sum of logs.
    """
    d = 0.5 * z - 0.5 * w
    root_z, root_w = math.sqrt(z.real), math.sqrt(w.real)
    den = root_z * root_w
    try:
        q = abs(d) / den if den >= _TINY else abs(d) / root_z / root_w
    except OverflowError:  # complex abs raises rather than return inf
        q = math.inf
    if q < math.inf:
        return 2.0 * math.asinh(q)
    return 2.0 * math.log(abs(0.5 * d)) + math.log(16.0) - math.log(z.real) - math.log(w.real)


# Stride 8 of the shared tanh-sinh nodes, step 1/32: it resolves the sqrt singularity at
# a turning point and the peak at the minimizer of w; every second node gives step 1/16.
_CLAIRAUT_X, _CLAIRAUT_W = _DE_X[::8], 8.0 * _DE_W[::8]
_EPS = float(np.finfo(float).eps)
_T_LIMIT = -16.0  # log10 of the closest approach to a branch limit: double precision
_GEODESIC_RTOL = 1e-7  # relative error bound above which a strip distance is unconverged


def _brentq(f, a: float, b: float, xtol: float):
    """Root of f on [a, b] by Brent's method: (root, iterations, converged).

    A port of scipy's C ``brentq`` (Brent 1973, ch. 4) with its rtol of 4 eps
    and its 100-iteration cap: the same double operations in the same order, so
    the same root, iteration count and flag (a root at an end takes 0
    iterations).  Raises ``ValueError`` when f is NaN anywhere it is evaluated
    or f(a) and f(b) have the same sign.
    """

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; the root search cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre, 0, True
    if fcur == 0.0:
        return xcur, 0, True
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for i in range(1, 101):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + 4.0 * _EPS * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, i, True
        stry = math.nan  # compares false below, so the step bisects
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # in C the step is infinite or NaN, and bisects
                pass
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry  # a good short step
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = value(xcur)
    return xcur, 100, False


def _slope(wt: Weight, x: float) -> float:
    """w'(x): the weight's analytic d1 when it has one, else w (log w)' differenced inside J."""
    if wt.d1 is not None:
        return float(wt.d1(x))
    h = min(_FD_STEP * max(1.0, abs(x)), 0.5 * (x - wt.domain.lo), 0.5 * (wt.domain.hi - x))
    return float(wt.density(x) * _log_differences(wt, x, h)[0])


def _minimizer(wt: Weight) -> float:
    """Where the log-convex w is least: the zero of w', or the end of J it falls toward."""
    lo, hi = GridSpec(n=2, shrink=1e-15).points(wt.domain)
    if _slope(wt, lo) >= 0.0:
        return lo
    if _slope(wt, hi) <= 0.0:
        return hi
    # Brent's method in-package, with scipy's steps: the same root as scipy's brentq
    root, iterations, converged = _brentq(lambda x: _slope(wt, x), lo, hi, xtol=1e-15)
    if not converged:
        raise RuntimeError(f"the minimizer search did not converge after {iterations} iterations")
    return root


def _clairaut(wt: Weight, a: float, ends, c: float, e0: float):
    """Integrals of c/sqrt(E) and sqrt(E), E = w^2 - c^2, over [a, b] summed over b in ``ends``.

    ``a`` is the lowest-density point of every piece and E(a) = e0.  Where
    w^2 - w(a)^2 is rounding noise, E comes from the tangent of w^2 at a, which
    lies below w^2 because w is log-convex.  Returns the sums and error estimates.
    """
    wa = float(wt.density(a))
    b = np.asarray(ends, dtype=float)[:, np.newaxis]
    x = np.clip(a + (b - a) * _CLAIRAUT_X, np.minimum(a, b), np.maximum(a, b))
    wx2 = np.asarray(wt.density(x)) ** 2
    rate = 2.0 * wa * abs(_slope(wt, a))
    tangent = rate * np.abs(b - a) * _CLAIRAUT_X
    above = wx2 - wa * wa - tangent
    noisy = above <= 4.0 * _EPS * (wx2 + rate * np.abs(x))
    e = np.maximum(e0 + tangent + np.where(noisy, 0.0, above), np.finfo(float).tiny)
    terms = np.stack([c / np.sqrt(e), np.sqrt(e)]) * (np.abs(b - a) * _CLAIRAUT_W)
    fine = terms.sum(axis=(1, 2))
    return fine, np.abs(fine - 2.0 * terms[..., ::2].sum(axis=(1, 2)))


def _strip_geodesic(d: Strip, z: complex, w: complex) -> DistanceResult:
    """Strip distance from Clairaut's first integral w(x) sin(theta) = c of a geodesic.

    dy = int c/sqrt(w^2 - c^2) dx fixes c, and the length c dy + int
    sqrt(w^2 - c^2) dx is stationary in c, so an error in c enters it squared.
    A pair that straddles the minimizer m of w, or whose dy the monotone branch
    reaches, is joined by a path monotone in x; else the path turns at x*
    between m and the lower-density end a, where w(x*) = c.
    """
    wt, dy = d.weight, abs(w.imag - z.imag)
    lower = omega_distance(wt, z.real, w.real)
    certificate = {"iterations": 0, "converged": True, "lower_bound": lower, "c": 0.0,
                   "turning_point": None, "error_estimate": 0.0}
    if dy == 0.0:  # the horizontal segment
        return DistanceResult(value=lower, method="variational", certificate=certificate)
    m = _minimizer(wt)
    xa, xb = sorted((z.real, w.real))
    a = m if xa <= m <= xb else xa if m < xa else xb
    ends = (xa, xb) if a == m else (xb if a == xa else xa,)
    wa, um = float(wt.density(a)), math.atan(m)

    def monotone(t):  # the path is monotone in x; sqrt(E(a)) / w(a) = 10**t, c = 0 at t = 0
        return None, a, wa * math.sqrt(1.0 - 100.0**t), wa * wa * 100.0**t, ends

    def turning(t):  # the path turns at x*, 10**t of the way from m to a in the atan chart
        x_turn = min(max(math.tan(um + 10.0**t * (math.atan(a) - um)), min(a, m)), max(a, m))
        return x_turn, x_turn, float(wt.density(x_turn)), 0.0, (a, ends[0])

    def excess(t):
        _, a0, c, e0, pieces = path(t)
        return _clairaut(wt, a0, pieces, c, e0)[0][0] - dy

    path = monotone
    reach = excess(_T_LIMIT)
    if a != m and reach < 0.0:
        path = turning
        reach = excess(_T_LIMIT)
    solved = reach > 0.0
    if solved:
        # Brent's method in-package, with scipy's steps: the same c and iteration count
        root, iterations, converged = _brentq(excess, _T_LIMIT, 0.0, xtol=1e-12)
        certificate.update(iterations=iterations, converged=converged)
    else:
        # dy is beyond double precision or an incomplete metric's reach: c takes
        # its limit w(m), the path runs along x = m, and its length is the infimum
        root = _T_LIMIT
    turning_point, base, c, e0, pieces = path(root)
    sums, errs = _clairaut(wt, base, pieces, c, e0)
    # a first-order bound: the dy integral's error only moves the root c
    error = float(errs[1] + (c * errs[0] if solved else 0.0))
    value = float(c * dy + sums[1])
    certificate.update(c=c, turning_point=turning_point, error_estimate=error)
    certificate["converged"] &= error <= _GEODESIC_RTOL * value
    return DistanceResult(value=value, method="variational", certificate=certificate)


def distance(d: PlanarDomain, z: complex, w: complex) -> DistanceResult:
    """Geodesic distance between interior points.

    Disk and half-plane use closed forms; strips solve Clairaut's first
    integral, and the certificate records the root, the turning point and the
    quadrature error estimate.
    """
    z, w = complex(z), complex(w)
    _check_inside(d, z, "z")
    _check_inside(d, w, "w")
    if z == w:
        return DistanceResult(value=0.0, method="closed_form")
    if d.kind == "poincare_disk":
        return DistanceResult(value=float(disk_sigma(z, w)), method="closed_form")
    if d.kind == "half_plane":
        return DistanceResult(value=_closed_form_half_plane(z, w), method="closed_form")
    return _strip_geodesic(d, z, w)


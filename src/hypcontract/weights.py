"""Positive weights on intervals: distances, curvature, and closed-form families.

A weight is a strictly positive density ``w(t)`` on an open interval J.  It
induces a distance ``dist_w(a, b) = |integral_a^b w|`` and carries the
curvature quantity

    curv_w(t) = (w'(t)**2 - w(t) w''(t)) / w(t)**4,

which equals the Gauss curvature of the conformal strip metric w(Re z)|dz|.
The three closed-form families solving ``curv_w == -k**2`` (k >= 1) are

    w(t) = C1 / (k |g(u)|),    u = C1 t + C2,    g = sin, sinh or the identity,

restricted to intervals on which g(u) keeps a single sign.  The identity member
is the linear family w(t) = 1 / (k |t + C|), read with C1 = 1 and C2 = C.
``_FAMILY_FORMS`` is the one table of the families: for each kind, g, g', the
sign of -g''/g and the half-angle primitive G, with (log|G|)' = 1/g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Callable

import numpy as np

# Central-difference step for weights that carry only a density, times
# max(1, |t|).  eps**(1/4) balances the truncation of the second difference of
# log w against its eps/h**2 rounding term; the first difference shares it.
_FD_STEP = float(np.finfo(float).eps ** 0.25)


@dataclass(frozen=True)
class _FamilyForm:
    """One family: w = C1 / (k s g(u)), u = C1 t + C2, s the sign of g(u) on J."""

    expr: str  # the denominator, as error messages name it
    g: Callable
    dg: Callable
    c: float  # sign of -g''/g; then w'' = (C1**3/k) (2 g'**2 / (s g)**3 + c / (s g))
    G: Callable  # half-angle primitive: (log|G(u)|)' = 1/g(u)
    coeffs: Callable = attrgetter("C1", "C2")  # family -> (C1, C2)


_FAMILY_FORMS = {
    "sin": _FamilyForm("sin(C1 t + C2)", np.sin, np.cos, 1.0, lambda u: np.tan(0.5 * u)),
    "sinh": _FamilyForm("sinh(C1 t + C2)", np.sinh, np.cosh, -1.0, lambda u: np.tanh(0.5 * u)),
    "linear": _FamilyForm(
        "t + C", lambda u: u, lambda u: 1.0, 0.0, lambda u: u, lambda fam: (1.0, fam.C)
    ),
}
FAMILY_KINDS = tuple(_FAMILY_FORMS)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge; carries the achieved error estimate."""

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (achieved error estimate {estimate:.3e})")
        self.estimate = estimate


# Tanh-sinh rule on (0, 1) (Takahasi & Mori 1974), step 1/256 over |t| <= 5.69:
# node offsets from 0 reach 1e-200, so a near-singular end is resolved.  The
# nodes at stride s form the rule of step s/256, with weights s * _DE_W[::s].
_DE_T = np.arange(-1456, 1457) / 256.0
_DE_X = 1.0 / (1.0 + np.exp(-np.pi * np.sinh(_DE_T)))
_DE_W = (np.pi / 1024.0) * np.cosh(_DE_T) / np.cosh(0.5 * np.pi * np.sinh(_DE_T)) ** 2
_DE_ROWS = 512  # entries per slice of ``_tanh_sinh``


@dataclass(frozen=True)
class Interval:
    """Open interval (lo, hi); endpoints may be infinite but not both."""

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoint is NaN")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got ({self.lo}, {self.hi})")
        if math.isinf(self.lo) and math.isinf(self.hi):
            raise ValueError("interval must not be the whole real line")

    def contains(self, t) -> bool:
        t = np.asarray(t, dtype=float)
        return bool(np.all(np.isfinite(t) & (t > self.lo) & (t < self.hi)))

    @property
    def finite(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)


@dataclass(frozen=True)
class GridSpec:
    """Uniform evaluation grid, shrunk away from the interval endpoints.

    Finite intervals shrink each end by ``shrink * span``.  Intervals with an
    infinite end are passed through the atan compactification, shrunk by
    ``shrink`` there, and mapped back through tan.
    """

    n: int = 1001
    shrink: float = 1e-6

    def points(self, interval: Interval) -> np.ndarray:
        if self.n < 1:
            raise ValueError("grid needs at least one point")
        if interval.finite:
            delta = self.shrink * (interval.hi - interval.lo)
            return np.linspace(interval.lo + delta, interval.hi - delta, self.n)
        u0 = math.atan(interval.lo) if math.isfinite(interval.lo) else -math.pi / 2
        u1 = math.atan(interval.hi) if math.isfinite(interval.hi) else math.pi / 2
        return np.tan(np.linspace(u0 + self.shrink, u1 - self.shrink, self.n))


@dataclass(frozen=True)
class Weight:
    """Positive density on an interval, with optional analytic derivatives.

    ``d1``/``d2`` and ``antiderivative``, when given, must be consistent with
    ``density``; all callables accept floats or ndarrays.
    """

    domain: Interval
    density: Callable
    d1: Callable | None = None
    d2: Callable | None = None
    antiderivative: Callable | None = None
    name: str = ""

    @property
    def has_analytic_derivatives(self) -> bool:
        return self.d1 is not None and self.d2 is not None


@dataclass(frozen=True)
class WeightFamily:
    """Parameters of one closed-form solution of curv_w == -k**2 on ``domain``."""

    kind: str
    k: float = 1.0
    C1: float = 1.0
    C2: float = 0.0
    C: float = 0.0
    domain: Interval = field(default_factory=lambda: Interval(-1.0, 1.0))

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        # Written as "not ... <" so that NaN, for which every comparison is false, fails too.
        if not 1.0 <= self.k < math.inf:
            raise ValueError("family exponent k must be finite and >= 1")
        if not all(-math.inf < c < math.inf for c in (self.C1, self.C2, self.C)):
            raise ValueError("family constants C1, C2 and C must be finite")
        if self.kind in ("sin", "sinh") and not self.C1 > 0.0:
            raise ValueError("C1 must be positive")


@dataclass(frozen=True)
class BoundReport:
    """Result of checking curv_w <= -1 on a grid."""

    max_curvature: float
    argmax: float
    passed: bool
    tol: float
    n_points: int


@dataclass(frozen=True)
class ComparisonReport:
    """Result of checking c * w2 <= w1 pointwise on a grid."""

    min_ratio: float
    argmin: float
    factor: float
    passed: bool
    n_points: int


def _tanh_sinh(f: Callable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integral of f between a[i] and b[i] for each entry i of the 1-D arrays a and b.

    ``f(i, t)`` is the integrand of the entries ``i`` at their nodes ``t``, shape
    ``(len(i), nodes)``.  Each entry halves its step from 1/16 until two steps agree
    within max(1e-12, 1e-10 |value|); one still apart at 1/256 raises QuadratureError.
    """

    def partial(i, nodes):  # per entry, the sum of the step-1/256 rule over ``nodes``
        a0, b0 = a[i, np.newaxis], b[i, np.newaxis]
        t = np.clip(a0 + (b0 - a0) * _DE_X[nodes], np.minimum(a0, b0), np.maximum(a0, b0))
        return (f(i, t) * (np.abs(b0 - a0) * _DE_W[nodes])).sum(axis=1)

    out = np.empty(a.shape)
    for start in range(0, a.size, _DE_ROWS):  # in slices, which bound the memory
        i = np.arange(start, min(start + _DE_ROWS, a.size))
        stride, total = 16, partial(i, slice(None, None, 16))
        while i.size and stride > 1:
            stride //= 2
            new = partial(i, slice(stride, None, 2 * stride))
            err = stride * np.abs(new - total)  # |estimate at stride - estimate at 2 stride|
            total += new
            settled = err <= np.maximum(1e-12, 1e-10 * stride * np.abs(total))
            out[i[settled]] = stride * total[settled]
            i, total, err = i[~settled], total[~settled], err[~settled]
        if i.size:
            raise QuadratureError(f"quadrature did not converge on [{a[i[0]]}, {b[i[0]]}]", err[0])
    return out


def omega_distance(w: Weight, a, b):
    """Weighted distance |integral_a^b w(t) dt| between interior points, or arrays of them.

    Uses the closed-form antiderivative when the weight carries one, otherwise
    the tanh-sinh rule to abs tol 1e-12 / rel tol 1e-10, which raises
    ``QuadratureError`` when step 1/256 misses that.  a and b broadcast.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if not (w.domain.contains(a) and w.domain.contains(b)):
        raise ValueError("distance endpoint outside the open weight domain")
    if w.antiderivative is not None:
        out = np.abs(w.antiderivative(b) - w.antiderivative(a))
    else:
        out = _tanh_sinh(lambda i, t: w.density(t), a.ravel(), b.ravel()).reshape(a.shape)
    return float(out) if out.ndim == 0 else out


def _log_differences(w: Weight, t, h):
    """Central differences ((log w)', (log w)'') at t with step h; t and h broadcast."""
    lo, mid, hi = (np.log(w.density(x)) for x in (t - h, t, t + h))
    return (hi - lo) / (2.0 * h), (hi - 2.0 * mid + lo) / (h * h)


def curvature_k(w: Weight, t):
    """Curvature quantity (w'^2 - w w'')/w^4 at interior points.

    Analytic derivatives are used when the weight carries them; otherwise
    -(log w)''/w^2 by central differences, which need t +- h inside the domain.
    """
    t_arr = np.asarray(t, dtype=float)
    if not w.domain.contains(t_arr):
        raise ValueError("curvature point outside the open weight domain")
    den = w.density(t_arr)
    if w.has_analytic_derivatives:
        out = (w.d1(t_arr) ** 2 - den * w.d2(t_arr)) / den**4
    else:
        h = _FD_STEP * np.maximum(1.0, np.abs(t_arr))
        fits = (t_arr - h > w.domain.lo) & (t_arr + h < w.domain.hi)
        if not np.all(fits):
            i = np.flatnonzero(~fits)[0]
            raise ValueError(
                f"t={float(t_arr.flat[i])} too close to a domain endpoint for the FD stencil "
                f"(h={float(h.flat[i]):.3e})"
            )
        out = -_log_differences(w, t_arr, h)[1] / den**2
    return float(out) if np.ndim(out) == 0 else out


def _family_sign(fam: WeightFamily) -> float:
    """Sign of the family denominator on J; raises if it vanishes inside J."""
    lo, hi = fam.domain.lo, fam.domain.hi
    form = _FAMILY_FORMS[fam.kind]
    C1, C2 = form.coeffs(fam)
    u_lo = C1 * lo + C2 if math.isfinite(lo) else -math.inf
    u_hi = C1 * hi + C2 if math.isfinite(hi) else math.inf
    if fam.kind == "sin":
        if math.isinf(lo) or math.isinf(hi):
            raise ValueError("sin family cannot live on an unbounded interval")
        slack = 1e-12 * max(1.0, abs(u_lo), abs(u_hi))
        m = math.ceil(u_lo / math.pi)
        if abs(m * math.pi - u_lo) <= slack:
            m += 1  # lower endpoint sits on a zero; the next one must be outside
        if m * math.pi < u_hi - slack:
            raise ValueError(f"{form.expr} vanishes inside the interval")
        mid = 0.5 * (u_lo + u_hi)
        return math.copysign(1.0, math.sin(mid))
    if u_lo < 0.0 < u_hi:
        raise ValueError(f"{form.expr} vanishes inside the interval")
    return 1.0 if u_hi > 0.0 else -1.0


def family_weight(fam: WeightFamily) -> Weight:
    """Build the Weight of a closed-form family member.

    The returned weight has analytic first and second derivatives and an
    elementary antiderivative, all valid on the family interval.
    """
    s = _family_sign(fam)
    k = fam.k
    form = _FAMILY_FORMS[fam.kind]
    C1, C2 = form.coeffs(fam)

    def density(t):
        return C1 / (k * s * form.g(C1 * t + C2))

    def d1(t):
        u = C1 * t + C2
        S = s * form.g(u)
        return -(C1**2) * s * form.dg(u) / (k * S**2)

    def d2(t):
        u = C1 * t + C2
        S = s * form.g(u)
        return (C1**3 / k) * (2.0 * form.dg(u) ** 2 / S**3 + form.c / S)

    def antiderivative(t):
        return np.log(np.abs(form.G(C1 * t + C2))) / (k * s)

    if fam.kind == "linear":
        label = f"linear(k={k:g},C={fam.C:g})"
    else:
        label = f"{fam.kind}(k={k:g},C1={fam.C1:g},C2={fam.C2:g})"
    return Weight(fam.domain, density, d1=d1, d2=d2, antiderivative=antiderivative, name=label)


def strip_weight() -> Weight:
    """(pi/2) sec(pi t / 2) on (-1, 1): the hyperbolic density of the unit strip."""
    fam = WeightFamily(
        kind="sin", k=1.0, C1=math.pi / 2, C2=-math.pi / 2, domain=Interval(-1.0, 1.0)
    )
    return replace(family_weight(fam), name="strip")


def half_plane_weight() -> Weight:
    """1/t on (0, inf): the hyperbolic density of the right half-plane."""
    fam = WeightFamily(kind="linear", k=1.0, C=0.0, domain=Interval(0.0, math.inf))
    return replace(family_weight(fam), name="half_plane")


def disk_diameter_weight() -> Weight:
    """2/(1 - t^2) on (-1, 1): the density induced on the diameter of the disk.

    Its curvature quantity is -(1 + t^2)/2, which exceeds -1; it serves as the
    negative control for the curvature hypothesis and as the comparison weight
    in the pi/4 inequality.
    """

    def density(t):
        return 2.0 / (1.0 - np.square(t))

    def d1(t):
        return 4.0 * t / (1.0 - np.square(t)) ** 2

    def d2(t):
        t2 = np.square(t)
        return (4.0 + 12.0 * t2) / (1.0 - t2) ** 3

    def antiderivative(t):
        return 2.0 * np.arctanh(t)

    return Weight(
        domain=Interval(-1.0, 1.0),
        density=density,
        d1=d1,
        d2=d2,
        antiderivative=antiderivative,
        name="disk_diameter",
    )


def verify_curvature_bound(w: Weight) -> BoundReport:
    """Report max curv_w over ``GridSpec()`` and whether it stays <= -1 + 1e-8."""
    ts = GridSpec().points(w.domain)
    ks = np.asarray(curvature_k(w, ts), dtype=float)
    i = int(np.argmax(ks))
    kmax = float(ks[i])
    return BoundReport(
        max_curvature=kmax,
        argmax=float(ts[i]),
        passed=bool(kmax <= -1.0 + 1e-8),
        tol=1e-8,
        n_points=len(ts),
    )


def compare_weights(w1: Weight, w2: Weight, c: float) -> ComparisonReport:
    """Check c * w2 <= w1 pointwise on ``GridSpec()`` over the common domain."""
    lo = max(w1.domain.lo, w2.domain.lo)
    hi = min(w1.domain.hi, w2.domain.hi)
    ts = GridSpec().points(Interval(lo, hi))
    ratio = np.asarray(w1.density(ts) / w2.density(ts), dtype=float)
    i = int(np.argmin(ratio))
    rmin = float(ratio[i])
    return ComparisonReport(
        min_ratio=rmin,
        argmin=float(ts[i]),
        factor=c,
        passed=bool(rmin >= c * (1.0 - 1e-12)),
        n_points=len(ts),
    )

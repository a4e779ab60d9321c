"""Exact solution of lambda'' = exp(lambda) and its closed-form families.

The equation is the log-density form of the constant-curvature condition:
substituting lambda = log(2 k^2 w^2) into curv_w == -k^2 yields it.  Its
general solutions, as densities, are the three weight families, so that

    exp(lambda) g(C1 t + C2)^2 = 2 C1^2,    g = sin, sinh or the identity.

The closed forms below read g, g' and (C1, C2) from the family table that
builds the weights, ``weights._FAMILY_FORMS``; linear is C1 = 1, C2 = C there.

The solver uses Liouville's linearization (J. Math. Pures Appl. 18 (1853)):
E = lambda'^2/2 - exp(lambda) is conserved, and y = exp(-lambda/2) solves
y'' = kappa y with kappa = E/2.  So y = y0 (C(tau) + a S(tau)), with
tau = t - t0, a = y0'/y0 = -lambda0'/2 and C, S the cosh/sinh, cos/sin or
1/tau pair by the sign of kappa.  lambda blows up where y falls to 0, and the
blow-up time is closed-form too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .weights import _FAMILY_FORMS, Interval, Weight, WeightFamily

DEFAULT_LAMBDA_CAP = 50.0

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class LiouvilleState:
    """One sample (t, lambda, lambda') of a trajectory."""

    t: float
    lam: float
    dlam: float

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.lam) and math.isfinite(self.dlam)):
            raise ValueError("non-finite Liouville state")


def _fundamental(kappa: float, tau: np.ndarray):
    """(log m, C/m, S/m) for the solutions C, S of y'' = kappa y.

    C(0) = S'(0) = 1 and C'(0) = S(0) = 0.  The scale m is cosh(sqrt(kappa)
    tau) on the cosh/sinh branch, so that nothing overflows, and 1 elsewhere.
    sin and tanh keep their relative accuracy at small arguments, so these
    forms stay accurate to rounding as kappa -> 0.
    """
    r = math.sqrt(abs(kappa))
    rt = r * tau
    if kappa > 0.0:
        return np.logaddexp(rt, -rt) - math.log(2.0), 1.0, np.tanh(rt) / r
    if kappa < 0.0:
        return 0.0, np.cos(rt), np.sin(rt) / r
    return 0.0, 1.0, tau


@dataclass(frozen=True)
class Trajectory:
    """The exact solution through ``initial``, valid on [t_min, t_max].

    ``kappa`` is half the conserved energy.  The closed form meets any ``tol``
    to rounding in one exact step, as ``accepted`` and ``rejected`` record.
    """

    initial: LiouvilleState
    kappa: float
    t_min: float
    t_max: float
    tol: float
    blown_up: bool

    accepted = 1
    rejected = 0

    def _log_y(self, t):
        """log(y(t)/y0) and y'(t)/y(t) on the span."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < self.t_min - 1e-12) or np.any(t_arr > self.t_max + 1e-12):
            raise ValueError("interpolation point outside the trajectory span")
        log_m, c, s = _fundamental(self.kappa, t_arr - self.initial.t)
        a = -0.5 * self.initial.dlam
        y = c + a * s
        return log_m + np.log(y), (self.kappa * s + a * c) / y

    def interpolate(self, t):
        """lambda(t) = lambda0 - 2 log(y(t)/y0)."""
        out = self.initial.lam - 2.0 * self._log_y(t)[0]
        return float(out) if out.ndim == 0 else out

    def interpolate_dlam(self, t):
        """lambda'(t) = -2 y'(t)/y(t)."""
        out = -2.0 * self._log_y(t)[1]
        return float(out) if out.ndim == 0 else out

    def energy(self, t):
        """First integral lambda'^2/2 - exp(lambda), evaluated at t."""
        return 0.5 * self.interpolate_dlam(t) ** 2 - np.exp(self.interpolate(t))


def _rise_time(kappa: float, h: float, y: float, dy: float) -> float:
    """Time in which Y climbs from 0 to y, where |Y'| = dy, if Y'^2 - kappa Y^2 = h."""
    r = math.sqrt(abs(kappa))
    if kappa < 0.0:
        return math.atan2(r * y, dy) / r
    if kappa > 0.0:
        return math.asinh(r * y / math.sqrt(h)) / r
    return y / dy


def solve_liouville(initial: LiouvilleState, t_end: float, tol: float = 1e-10) -> Trajectory:
    """The solution of lambda'' = exp(lambda) from ``initial`` to ``t_end``.

    ``t_end`` may lie before or after ``initial.t``.  If lambda reaches
    ``DEFAULT_LAMBDA_CAP`` on the way, the trajectory ends where it first
    does, with ``blown_up`` set.  ``tol`` must be positive; it is recorded.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if not math.isfinite(t_end):
        raise ValueError("t_end must be finite")
    span = t_end - initial.t
    if span == 0.0:
        raise ValueError("t_end coincides with the initial time")
    direction = math.copysign(1.0, span)

    # Y = y/y0 starts at 1 with slope a, and Y'^2 - kappa Y^2 = h throughout.
    a = -0.5 * initial.dlam
    h = 0.5 * math.exp(initial.lam)
    if h == 0.0:
        raise ValueError("exp(lambda) underflows at the initial state")
    kappa = a * a - h
    # s_cap: the first time, in the direction of travel, with Y = Y_cap.
    if initial.lam >= DEFAULT_LAMBDA_CAP:
        s_cap = 0.0
    else:
        y_cap = math.exp(0.5 * (initial.lam - DEFAULT_LAMBDA_CAP))
        rise_0 = _rise_time(kappa, h, 1.0, abs(a))
        rise_cap = _rise_time(kappa, h, y_cap, math.sqrt(h + kappa * y_cap * y_cap))
        if direction * a < 0.0:
            s_cap = rise_0 - rise_cap
        elif kappa < 0.0:  # over the top of the arch Y = sqrt(h / -kappa) sin(r s + phi)
            s_cap = math.pi / math.sqrt(-kappa) - rise_0 - rise_cap
        else:
            s_cap = math.inf
    blown_up = s_cap <= abs(span)
    stop = initial.t + direction * s_cap if blown_up else t_end
    lo, hi = sorted((initial.t, stop))
    return Trajectory(initial, kappa, lo, hi, tol, blown_up)


def lambda_to_weight(traj: Trajectory, k: float = 1.0) -> Weight:
    """Turn a trajectory into the weight w(t) = exp(lambda(t)/2) / (k sqrt(2)).

    The weight's derivatives are intentionally left numeric (no analytic d1/d2)
    so that curvature checks on it are independent of the ODE structure.
    """
    if k < 1.0:
        raise ValueError("k must be >= 1")
    if traj.t_min == traj.t_max:
        raise ValueError("trajectory has an empty span")

    def density(t):
        return np.exp(0.5 * traj.interpolate(t)) / (k * _SQRT2)

    return Weight(
        domain=Interval(traj.t_min, traj.t_max),
        density=density,
        name=f"liouville(k={k:g})",
    )


def _closed_form(fam: WeightFamily, t, value):
    """``value(form, C1, u)`` at t, u = C1 t + C2, for a family member; it must be finite."""
    t_arr = np.asarray(t, dtype=float)
    if not fam.domain.contains(t_arr):
        raise ValueError("t outside the family interval")
    form = _FAMILY_FORMS[fam.kind]
    C1, C2 = form.coeffs(fam)
    u = C1 * t_arr + C2
    with np.errstate(over="ignore", invalid="ignore"):  # sinh and cosh overflow far out, 1 / g near a zero
        out = value(form, C1, u)
        if not np.all(np.isfinite(out)):
            if np.all(np.abs(form.g(u)) >= 1.0):
                raise ValueError(f"{form.expr} is too large at t: the closed form overflows")
            raise ValueError("t at a singularity of the family")
    return float(out) if out.ndim == 0 else out


def closed_form_lambda(fam: WeightFamily, t):
    """lambda(t) = log(2 C1^2 / g(u)^2) = log(2 k^2 w(t)^2) for a family member.

    2 C1^2 must be a positive finite float: a C1 whose square overflows or
    underflows to 0 raises ValueError naming it.
    """
    C1 = _FAMILY_FORMS[fam.kind].coeffs(fam)[0]
    try:
        scale = 2.0 * C1**2
    except OverflowError:  # a float power raises where a product would give inf
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise ValueError(f"C1 = {C1:g} is out of range: 2 C1^2 is {scale:g}, not a positive finite float")
    return _closed_form(fam, t, lambda form, C1, u: np.log(scale) - 2.0 * np.log(np.abs(form.g(u))))


def closed_form_dlambda(fam: WeightFamily, t):
    """lambda'(t) = -2 C1 g'(u) / g(u) for a family member."""
    return _closed_form(fam, t, lambda form, C1, u: -2.0 * C1 * form.dg(u) / form.g(u))


def family_initial_state(fam: WeightFamily, t0: float) -> LiouvilleState:
    """Initial (t0, lambda, lambda') matching a closed-form family member."""
    return LiouvilleState(t0, closed_form_lambda(fam, t0), closed_form_dlambda(fam, t0))

"""Fixed catalog of holomorphic test maps on the unit disk.

Every entry carries an analytic derivative and a declared codomain; both
declarations are checkable (finite-difference quotients for the derivative,
dense sample grids for codomain containment) by ``validate_entry``.  The
catalog is a constant, so its tests validate every entry once; a suite config
can only name entries.  Codomains:

    disk               |f| < 1
    strip              Re f in (-1, 1)
    right_half_plane   Re f > 0

All evaluation callables accept complex scalars or ndarrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

CODOMAINS = ("disk", "strip", "right_half_plane")


@dataclass(frozen=True)
class HoloFunction:
    """A named holomorphic map on the disk with analytic derivative."""

    name: str
    eval: Callable
    deriv: Callable
    codomain: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.codomain not in CODOMAINS:
            raise ValueError(f"unknown codomain {self.codomain!r}")

    @property
    def re_interval(self) -> tuple[float, float]:
        """Open real interval containing Re f over the disk."""
        if self.codomain == "right_half_plane":
            return (0.0, math.inf)
        return (-1.0, 1.0)


def _blaschke_factor(a: complex):
    def ev(z):
        return (a - z) / (1.0 - np.conj(a) * z)

    def dv(z):
        return (abs(a) ** 2 - 1.0) / (1.0 - np.conj(a) * z) ** 2

    return ev, dv


def _blaschke_product(zeros: tuple):
    factors = [_blaschke_factor(a) for a in zeros]

    def ev(z):
        out = factors[0][0](z)
        for f, _ in factors[1:]:
            # Named, so numpy's temporary elision cannot turn out * fz into fz * out (other bits).
            fz = f(z)
            out = out * fz
        return out

    def dv(z):
        vals = [f(z) for f, _ in factors]
        ders = [d(z) for _, d in factors]
        total = 0.0
        for i in range(len(factors)):
            term = ders[i]
            for j in range(len(factors)):
                if j != i:
                    term = term * vals[j]
            total = total + term
        return total

    return ev, dv


def _build_catalog() -> tuple[HoloFunction, ...]:
    entries = []

    entries.append(
        HoloFunction(
            name="identity",
            eval=lambda z: z + 0.0 * z,
            deriv=lambda z: 1.0 + 0.0 * z,
            codomain="disk",
        )
    )

    a = 0.3 + 0.4j
    ev, dv = _blaschke_factor(a)
    entries.append(
        HoloFunction(name="blaschke", eval=ev, deriv=dv, codomain="disk", params={"a": a})
    )

    zeros = (0.5 + 0.0j, -0.3 + 0.2j, 0.1 - 0.6j)
    ev, dv = _blaschke_product(zeros)
    entries.append(
        HoloFunction(
            name="blaschke_product",
            eval=ev,
            deriv=dv,
            codomain="disk",
            params={"zeros": zeros},
        )
    )

    c, d = 0.7 + 0.2j, 3

    def power(z):
        # Named, so numpy's temporary elision cannot turn c * zd into zd * c (other bits).
        zd = z**d
        return c * zd

    entries.append(
        HoloFunction(
            name="power",
            eval=power,
            deriv=lambda z: c * d * z ** (d - 1),
            codomain="disk",
            params={"c": c, "d": d},
        )
    )

    entries.append(
        HoloFunction(
            name="cayley",
            eval=lambda z: (1.0 - z) / (1.0 + z),
            deriv=lambda z: -2.0 / (1.0 + z) ** 2,
            codomain="right_half_plane",
        )
    )

    # Principal branch of log: (1+z)/(1-z) has positive real part on the disk,
    # so Re of i*(2/pi)*log((1+z)/(1-z)) is -(2/pi)*arg(...) in (-1, 1).
    entries.append(
        HoloFunction(
            name="strip_map",
            eval=lambda z: 2j / math.pi * np.log((1.0 + z) / (1.0 - z)),
            deriv=lambda z: 4j / math.pi / (1.0 - z * z),
            codomain="strip",
        )
    )

    w0 = 0.3 + 0.1j
    entries.append(
        HoloFunction(
            name="constant",
            eval=lambda z: w0 + 0.0 * z,
            deriv=lambda z: 0.0 * z,
            codomain="disk",
            params={"value": w0},
        )
    )

    entries.append(
        HoloFunction(
            name="scaled_exp",
            eval=lambda z: 0.5 * np.exp(0.4 * z),
            deriv=lambda z: 0.2 * np.exp(0.4 * z),
            codomain="disk",
            params={"scale": 0.5, "rate": 0.4},
        )
    )

    return tuple(entries)


_CATALOG = _build_catalog()


def catalog() -> list[HoloFunction]:
    """All catalog entries, in a stable order."""
    return list(_CATALOG)


def get(name: str) -> HoloFunction:
    for f in _CATALOG:
        if f.name == name:
            return f
    raise KeyError(f"no catalog entry named {name!r}")


def sample_grid(n_r: int = 100, n_theta: int = 100, radius_cap: float = 0.995) -> np.ndarray:
    """Polar sample grid of n_r * n_theta disk points, boundary-heavy in r."""
    # sqrt spacing puts more radii near the boundary where containment is tight
    r = radius_cap * np.sqrt(np.linspace(0.0, 1.0, n_r + 1)[1:])
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    return (r[:, np.newaxis] * np.exp(1j * theta)[np.newaxis, :]).ravel()


def derivative_max_rel_error(f: HoloFunction) -> float:
    """Max relative error of deriv against the central difference quotient, step 1e-6."""
    zs, h = sample_grid(30, 30, 0.9), 1e-6
    fd = (f.eval(zs + h) - f.eval(zs - h)) / (2.0 * h)
    dv = f.deriv(zs) + 0.0 * zs
    scale = np.maximum(1.0, np.abs(dv))
    return float(np.max(np.abs(fd - dv) / scale))


def codomain_margin(f: HoloFunction) -> float:
    """Min containment margin of f's image over ``sample_grid()``; > 0 means inside."""
    vals = f.eval(sample_grid())
    if f.codomain == "disk":
        return float(np.min(1.0 - np.abs(vals)))
    re = np.real(vals)
    if f.codomain == "strip":
        return float(np.min(np.minimum(1.0 - re, re + 1.0)))
    return float(np.min(re))


def validate_entry(f: HoloFunction) -> None:
    """Raise ValueError when the entry's declarations fail their sample checks."""
    err = derivative_max_rel_error(f)
    if err > 1e-6:
        raise ValueError(f"catalog entry {f.name!r}: derivative mismatch {err:.3e} > 1e-06")
    margin = codomain_margin(f)
    if margin <= 0.0:
        raise ValueError(
            f"catalog entry {f.name!r}: image leaves codomain {f.codomain!r} "
            f"(margin {margin:.3e})"
        )

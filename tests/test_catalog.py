"""Catalog entries: declared derivatives, codomains, and spot values."""

import math

import numpy as np
import pytest

from hypcontract import disk
from hypcontract.catalog import (
    CODOMAINS,
    HoloFunction,
    catalog,
    codomain_margin,
    derivative_max_rel_error,
    get,
    sample_grid,
    validate_entry,
)

# High-precision oracle values (mpmath, 40 digits), frozen.
STRIP_MAP_AT_HALF_IM = 0.69939830513211955599  # Im of (2i/pi) log 3
ABS_CONSTANT = 0.3162277660168379332           # |0.3 + 0.1i|
SCALED_EXP_AT_04 = 0.74591234882063515891      # 0.5 exp(0.4)

EXPECTED_NAMES = (
    "identity",
    "blaschke",
    "blaschke_product",
    "power",
    "cayley",
    "strip_map",
    "constant",
    "scaled_exp",
)


def test_catalog_names_and_order_are_stable():
    assert tuple(f.name for f in catalog()) == EXPECTED_NAMES


def test_get_by_name_and_unknown():
    assert get("cayley").codomain == "right_half_plane"
    with pytest.raises(KeyError):
        get("does_not_exist")


@pytest.mark.parametrize("name", EXPECTED_NAMES)
def test_entries_validate(name):
    validate_entry(get(name))


def test_declared_codomains():
    by_name = {f.name: f.codomain for f in catalog()}
    assert by_name["strip_map"] == "strip"
    assert by_name["cayley"] == "right_half_plane"
    for n in ("identity", "blaschke", "blaschke_product", "power", "constant", "scaled_exp"):
        assert by_name[n] == "disk"


class TestSpotValues:
    def test_identity(self):
        f = get("identity")
        assert f.eval(0.3j) == pytest.approx(0.3j)
        assert f.deriv(0.7 - 0.1j) == pytest.approx(1.0)

    def test_blaschke_vanishes_at_its_zero(self):
        f = get("blaschke")
        assert abs(f.eval(f.params["a"])) < 1e-15
        # the factor is the disk automorphism based at a
        for z in (0.0, 0.2 - 0.5j, -0.6j):
            assert f.eval(z) == pytest.approx(disk.mobius(f.params["a"], z), rel=1e-15)

    def test_blaschke_product_zero_set(self):
        f = get("blaschke_product")
        for a in f.params["zeros"]:
            assert abs(f.eval(a)) < 1e-14

    def test_power(self):
        f = get("power")
        assert f.eval(0.5) == pytest.approx(f.params["c"] * 0.125, rel=1e-15)
        assert f.eval(0.0) == 0.0

    def test_cayley(self):
        f = get("cayley")
        assert f.eval(0.0) == pytest.approx(1.0)
        assert f.deriv(0.0) == pytest.approx(-2.0)

    def test_strip_map(self):
        f = get("strip_map")
        assert abs(f.eval(0.0)) < 1e-15
        v = f.eval(0.5)
        assert v.real == pytest.approx(0.0, abs=1e-15)
        assert v.imag == pytest.approx(STRIP_MAP_AT_HALF_IM, rel=1e-14)
        assert np.real(f.eval(0.5)) == pytest.approx(0.0, abs=1e-15)

    def test_constant(self):
        f = get("constant")
        assert f.eval(0.9j) == pytest.approx(f.params["value"])
        assert f.deriv(0.4) == 0.0
        assert abs(f.eval(0.11 - 0.2j)) == pytest.approx(ABS_CONSTANT, rel=1e-15)

    def test_scaled_exp(self):
        f = get("scaled_exp")
        assert f.eval(0.0) == pytest.approx(0.5)
        assert f.eval(1.0 + 0.0j) == pytest.approx(SCALED_EXP_AT_04, rel=1e-14)
        # derivative is rate * value for this entry
        z = 0.3 + 0.2j
        assert f.deriv(z) == pytest.approx(0.4 * f.eval(z), rel=1e-14)


class TestEvalHelpers:
    def test_re_interval(self):
        assert get("cayley").re_interval == (0.0, math.inf)
        assert get("strip_map").re_interval == (-1.0, 1.0)
        assert get("identity").re_interval == (-1.0, 1.0)

    def test_re_values_land_in_declared_interval(self):
        zs = sample_grid(40, 40, 0.99)
        for f in catalog():
            lo, hi = f.re_interval
            re = np.real(f.eval(zs))
            assert np.all(re > lo) and np.all(re < hi), f.name


class TestSampleGrid:
    def test_size_and_cap(self):
        zs = sample_grid(25, 16, 0.9)
        assert zs.shape == (400,)
        assert np.max(np.abs(zs)) <= 0.9 + 1e-15
        assert np.min(np.abs(zs)) > 0.0

    def test_boundary_heavy(self):
        zs = sample_grid(100, 1, 1.0)
        radii = np.abs(zs)
        # sqrt spacing: more than half the radii above 0.7
        assert np.count_nonzero(radii > 0.7) > 50


class TestDiagnostics:
    def test_derivative_error_small_for_all(self):
        for f in catalog():
            assert derivative_max_rel_error(f) < 1e-6, f.name

    def test_derivative_error_detects_mismatch(self):
        bad = HoloFunction(
            name="bad", eval=lambda z: z * z, deriv=lambda z: 3.0 * z, codomain="disk"
        )
        assert derivative_max_rel_error(bad) > 1e-2
        with pytest.raises(ValueError):
            validate_entry(bad)

    def test_codomain_margin_positive(self):
        for f in catalog():
            assert codomain_margin(f) > 0.0, f.name

    def test_codomain_margin_detects_escape(self):
        bad = HoloFunction(
            name="big", eval=lambda z: 2.0 * z, deriv=lambda z: 2.0 + 0.0 * z, codomain="disk"
        )
        assert codomain_margin(bad) < 0.0
        with pytest.raises(ValueError):
            validate_entry(bad)


def test_strip_map_log_argument_stays_right_of_axis():
    # (1+z)/(1-z) maps the disk to the right half plane, so the principal
    # branch of log never crosses the cut
    zs = sample_grid(60, 60, 0.999)
    assert np.min(np.real((1.0 + zs) / (1.0 - zs))) > 0.0


def test_unknown_codomain_rejected():
    with pytest.raises(ValueError):
        HoloFunction(name="x", eval=lambda z: z, deriv=lambda z: 1.0, codomain="annulus")


def test_codomains_tuple():
    assert CODOMAINS == ("disk", "strip", "right_half_plane")

"""Rate-versus-gain prediction, thresholds and loss margins."""

import dataclasses
import itertools
import math
import statistics

import numpy as np
import pytest

from helpers import direct_breakdown, direct_rate, reference_threshold, searched_threshold, starred

from oamqkd import (
    DecoyObservables,
    DomainError,
    ECModel,
    LinkBudgetParams,
    ThresholdUndefinedError,
    ValidationError,
    dark_yield,
    gain_threshold,
    loss_margin_db,
    rate_vs_gain,
    secret_key_rate,
)

DEFAULTS = LinkBudgetParams()

#: The benchmark's grid, e_ch x dark rate x (mu, nu) at a 50 ns gate (36 points,
#: each with a threshold), plus two error-correction efficiencies off the default.
GRID = [
    LinkBudgetParams(mu=mu, nu=nu, e_ch=e_ch, dark_rate=dark, gate=50e-9)
    for e_ch, dark, (mu, nu) in itertools.product(
        (0.0, 0.01, 0.02, 0.03), (10.0, 100.0, 1000.0), ((0.623, 0.165), (0.5, 0.1), (0.8, 0.2))
    )
] + [LinkBudgetParams(f=1.2), LinkBudgetParams(f=1.5, e_ch=0.01)]


def point_stars(q_mu, p):
    """(e_mu_star, e_nu_star) of the rate_vs_gain point at q_mu."""
    point = rate_vs_gain([q_mu], p)[0]
    return point.e_mu_star, point.e_nu_star


class TestDarkYield:
    def test_reference_value(self):
        assert dark_yield(100.0, 50e-9) == pytest.approx(5e-6, rel=1e-12)

    def test_zero_rate(self):
        assert dark_yield(0.0, 50e-9) == 0.0

    def test_bilinear(self):
        base = dark_yield(100.0, 50e-9)
        assert dark_yield(200.0, 50e-9) == pytest.approx(2 * base, rel=1e-12)
        assert dark_yield(100.0, 100e-9) == pytest.approx(2 * base, rel=1e-12)

    def test_default_params_derive_y0(self):
        assert DEFAULTS.y0 == pytest.approx(5e-6, rel=1e-12)


class TestPredictedQbers:
    """The E* of each rate_vs_gain point."""

    def test_no_dark_contribution(self):
        p = LinkBudgetParams(y0=0.0)
        e_mu_star, e_nu_star = point_stars(1e-3, p)
        assert e_mu_star == pytest.approx(0.02, abs=1e-15)
        assert e_nu_star == pytest.approx(0.02, abs=1e-15)

    def test_reference_point(self):
        e_mu_star, e_nu_star = point_stars(1e-4, DEFAULTS)
        assert e_mu_star == pytest.approx(0.044, rel=1e-10)
        assert e_nu_star == pytest.approx(0.110618181818, rel=1e-10)

    def test_large_gain_limit(self):
        e_mu_star, _ = point_stars(0.9, DEFAULTS)
        assert e_mu_star == pytest.approx(0.02, abs=1e-5)

    def test_bounded_between_channel_error_and_half(self):
        for q in np.logspace(-7, 0, 30):
            for y0 in (0.0, 1e-6, 1e-4, 1e-2):
                p = LinkBudgetParams(y0=y0)
                stars = point_stars(float(q), p)
                assert stars == direct_breakdown(float(q), p)[0]
                assert all(0.02 - 1e-15 <= e <= 0.5 + 1e-15 for e in stars)

    def test_zero_gain_rejected(self):
        with pytest.raises(ValidationError):
            rate_vs_gain([0.0], DEFAULTS)


class TestRateVsGain:
    def test_single_point_matches_direct_evaluation(self):
        q_mu = 2e-3
        point = rate_vs_gain([q_mu], DEFAULTS)[0]
        obs = DecoyObservables(
            mu=DEFAULTS.mu, nu=DEFAULTS.nu, q_mu=q_mu, e_mu=starred(q_mu, DEFAULTS),
            q_nu=DEFAULTS.nu / DEFAULTS.mu * q_mu,
            e_nu=starred(DEFAULTS.nu / DEFAULTS.mu * q_mu, DEFAULTS), y0=DEFAULTS.y0,
        )
        assert point.breakdown == secret_key_rate(obs, DEFAULTS.ec_model)

    def test_operating_point_is_secure(self):
        point = rate_vs_gain([1.2e-2], DEFAULTS)[0]
        assert point.breakdown.rate == pytest.approx(0.2642472097, rel=1e-9)
        assert point.breakdown.secure

    def test_low_gain_is_insecure(self):
        point = rate_vs_gain([1e-5], DEFAULTS)[0]
        assert point.breakdown.rate <= 0.0

    def test_monotone_on_log_grid(self):
        rates = [pt.breakdown.rate for pt in rate_vs_gain(np.logspace(-5, 0, 41), DEFAULTS)]
        assert all(a <= b + 1e-15 for a, b in zip(rates, rates[1:]))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            rate_vs_gain([], DEFAULTS)

    def test_nonpositive_grid_rejected(self):
        with pytest.raises(ValidationError):
            rate_vs_gain([1e-3, 0.0], DEFAULTS)

    @pytest.mark.parametrize("bad", [1.5, math.nan, math.inf])
    def test_gains_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValidationError, match=r"gain grid values must lie in \(0, 1\]"):
            rate_vs_gain([1e-3, bad], DEFAULTS)

    def test_every_grid_point_equals_the_direct_chain(self):
        q_grid = np.logspace(-5.0, 0.0, 51)
        for p in GRID:
            for q_mu, point in zip(q_grid.tolist(), rate_vs_gain(q_grid, p)):
                stars, breakdown = direct_breakdown(q_mu, p)
                assert point == (q_mu, *stars, breakdown), (p, q_mu)


class TestGainThreshold:
    def test_reference_threshold(self):
        g_star = gain_threshold(DEFAULTS)
        assert g_star == pytest.approx(9.35497389725e-5, rel=1e-9)
        assert 5e-5 <= g_star <= 2e-4

    def test_stops_once_the_bracket_stops_moving(self):
        g_star, rate_calls = searched_threshold(DEFAULTS)
        below = math.nextafter(g_star, 0.0)
        assert direct_rate(g_star, DEFAULTS) > 0.0 >= direct_rate(below, DEFAULTS)
        assert rate_calls <= 18

    def test_every_grid_threshold_equals_the_reference_bisection(self):
        searched_calls = []
        for p in GRID:
            reference, reference_calls = reference_threshold(p)
            g_star, rate_calls = searched_threshold(p)
            assert g_star == pytest.approx(reference, rel=1e-12), p
            assert direct_rate(g_star, p) > 0.0 >= direct_rate(math.nextafter(g_star, 0.0), p), p
            assert rate_calls <= reference_calls, p
            searched_calls.append(rate_calls)
        assert statistics.median(searched_calls) <= 20

    def test_rate_vanishes_at_threshold(self):
        g_star = gain_threshold(DEFAULTS)
        rate = rate_vs_gain([g_star], DEFAULTS)[0].breakdown.rate
        assert abs(rate) < 1e-6

    def test_noiseless_link_has_no_threshold(self):
        with pytest.raises(ThresholdUndefinedError):
            gain_threshold(LinkBudgetParams(e_ch=0.0, y0=0.0))

    def test_loss_margin_vs_operating_gain(self):
        g_star = gain_threshold(DEFAULTS)
        margin = loss_margin_db(1.2e-2, g_star)
        assert margin == pytest.approx(21.08138666, rel=1e-8)
        assert 18.0 <= margin <= 22.0

    def test_margin_domain(self):
        with pytest.raises(DomainError):
            loss_margin_db(0.0, 1e-4)

    @pytest.mark.parametrize("gain", [1.0 + 1e-12, 2.0, math.nan])
    def test_gain_above_one_or_nan_has_no_margin(self, gain):
        with pytest.raises(DomainError):
            loss_margin_db(gain, 1e-4)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValidationError):
            LinkBudgetParams(mu=0.1, nu=0.2)
        with pytest.raises(ValidationError):
            LinkBudgetParams(e_ch=0.6)
        with pytest.raises(ValidationError):
            LinkBudgetParams(f=0.9)
        with pytest.raises(ValidationError):
            LinkBudgetParams(y0=-1e-6)

    @pytest.mark.parametrize("name", ["mu", "nu", "e_ch", "f", "dark_rate", "gate", "y0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_rejected(self, name, value):
        with pytest.raises(ValidationError):
            LinkBudgetParams(**{name: value})

    def test_ec_model_is_built_once(self):
        p = LinkBudgetParams(f=1.2)
        assert p.ec_model is p.ec_model
        assert p.ec_model == ECModel(f=p.f)
        assert dataclasses.replace(p, f=1.3).ec_model == ECModel(f=1.3)

    def test_reading_ec_model_keeps_equality_and_hash(self):
        a, b = LinkBudgetParams(f=1.2), LinkBudgetParams(f=1.2)
        assert a.ec_model is not b.ec_model  # each holds its own cached model
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) and "ec_model" not in repr(a)

    def test_explicit_y0_overrides_dark_rate(self):
        p = LinkBudgetParams(dark_rate=100.0, gate=50e-9, y0=1e-7)
        assert p.y0 == 1e-7

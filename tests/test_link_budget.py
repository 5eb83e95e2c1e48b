"""Rate-versus-gain prediction, thresholds and loss margins."""

import math

import numpy as np
import pytest

from oamqkd import (
    DecoyObservables,
    DomainError,
    LinkBudgetParams,
    ThresholdUndefinedError,
    ValidationError,
    dark_yield,
    gain_threshold,
    loss_margin_db,
    predicted_qbers,
    rate_vs_gain,
    secret_key_rate,
)

DEFAULTS = LinkBudgetParams()


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
    def test_no_dark_contribution(self):
        p = LinkBudgetParams(y0=0.0)
        stars = predicted_qbers(1e-3, p)
        assert stars.e_mu_star == pytest.approx(0.02, abs=1e-15)
        assert stars.e_nu_star == pytest.approx(0.02, abs=1e-15)

    def test_reference_point(self):
        stars = predicted_qbers(1e-4, DEFAULTS)
        assert stars.e_mu_star == pytest.approx(0.044, rel=1e-10)
        assert stars.e_nu_star == pytest.approx(0.110618181818, rel=1e-10)

    def test_large_gain_limit(self):
        stars = predicted_qbers(0.9, DEFAULTS)
        assert stars.e_mu_star == pytest.approx(0.02, abs=1e-5)

    def test_bounded_between_channel_error_and_half(self):
        for q in np.logspace(-7, 0, 30):
            for y0 in (0.0, 1e-6, 1e-4, 1e-2):
                stars = predicted_qbers(float(q), LinkBudgetParams(y0=y0))
                assert 0.02 - 1e-15 <= stars.e_mu_star <= 0.5 + 1e-15
                assert 0.02 - 1e-15 <= stars.e_nu_star <= 0.5 + 1e-15

    def test_zero_gain_rejected(self):
        with pytest.raises(DomainError):
            predicted_qbers(0.0, DEFAULTS)


class TestRateVsGain:
    def test_single_point_matches_direct_evaluation(self):
        q_mu = 2e-3
        point = rate_vs_gain([q_mu], DEFAULTS)[0]
        stars = predicted_qbers(q_mu, DEFAULTS)
        obs = DecoyObservables(
            mu=DEFAULTS.mu, nu=DEFAULTS.nu, q_mu=q_mu, e_mu=stars.e_mu_star,
            q_nu=DEFAULTS.nu / DEFAULTS.mu * q_mu, e_nu=stars.e_nu_star, y0=DEFAULTS.y0,
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


class TestGainThreshold:
    def test_reference_threshold(self):
        g_star = gain_threshold(DEFAULTS)
        assert g_star == pytest.approx(9.35497389725e-5, rel=1e-9)
        assert 5e-5 <= g_star <= 2e-4

    def test_stops_once_the_bracket_stops_moving(self, monkeypatch):
        import oamqkd.link_budget as lb

        def rate(q):
            return rate_vs_gain([q], DEFAULTS)[0].breakdown.rate

        # reference: the decade scan, then a fixed 100 bisection steps
        hi, lo, evals = 1.0, 0.1, 2
        while rate(lo) > 0.0:
            hi, lo, evals = lo, lo / 10.0, evals + 1
        moving_steps = 0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            moving_steps += mid not in (lo, hi)
            if rate(mid) > 0.0:
                hi = mid
            else:
                lo = mid
        reference = 0.5 * (lo + hi)

        calls = []
        counted = lb.secret_key_rate

        def counting(*args, **kwargs):
            calls.append(1)
            return counted(*args, **kwargs)

        monkeypatch.setattr(lb, "secret_key_rate", counting)
        assert gain_threshold(DEFAULTS) == reference
        assert len(calls) == evals + moving_steps
        assert 100 - moving_steps == 47

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

    def test_explicit_y0_overrides_dark_rate(self):
        p = LinkBudgetParams(dark_rate=100.0, gate=50e-9, y0=1e-7)
        assert p.y0 == 1e-7

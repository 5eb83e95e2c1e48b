"""Decoy-state bounds and secret key rate against frozen formula-oracle values.

The REFERENCE_ROWS values are measured observables from a 210 m field trial at
four transmitter rotation angles; every expected number below was evaluated
independently with a 50-digit mpmath transcription of the closed forms before
this module was written.
"""

import math

import numpy as np
import pytest

from oamqkd import (
    DecoyObservables,
    DomainError,
    ECModel,
    KeyRateBreakdown,
    ValidationError,
    binary_entropy,
    e1_upper,
    q0_gain,
    q1_lower,
    qber_threshold,
    secret_key_rate,
    single_photon_rate,
)

MU, NU = 0.623, 0.165

REFERENCE_ROWS = {
    0: dict(q_mu=1.43e-2, e_mu=0.0381, q_nu=4.77e-3, e_nu=0.0763, y0=3.77e-4),
    15: dict(q_mu=1.30e-2, e_mu=0.0688, q_nu=4.12e-3, e_nu=0.0867, y0=2.55e-4),
    45: dict(q_mu=1.11e-2, e_mu=0.0416, q_nu=2.77e-3, e_nu=0.0447, y0=6.63e-5),
    60: dict(q_mu=0.85e-2, e_mu=0.0584, q_nu=2.34e-3, e_nu=0.0623, y0=1.13e-4),
}

# mpmath oracle outputs (f=1.05, e0=0.5), 12 significant digits
ORACLE = {
    0: dict(q1l=0.00937926939381, e1u=0.0519780808809, q0=0.000202197549525,
            leak=0.245187486559, rate=0.231526613027, rate_1ph=0.52130062148),
    15: dict(q1l=0.00804839583081, e1u=0.0739192178879, q0=0.000136764920766,
             leak=0.379500917365, rate=0.0146294955941, rate_1ph=0.259069637525),
    45: dict(q1l=0.00483038126118, e1u=0.0473237489192, q0=3.55588793992e-5,
             leak=0.262059673791, rate=0.0566774844562, rate_1ph=0.488359684503),
    60: dict(q1l=0.00425047149039, e1u=0.0549966656579, q0=6.06056315553e-5,
             leak=0.337113523747, rate=0.0164276369947, rate_1ph=0.341825977446),
}


def observables(angle: int) -> DecoyObservables:
    return DecoyObservables(mu=MU, nu=NU, **REFERENCE_ROWS[angle])


class TestBinaryEntropy:
    def test_extremes_and_maximum(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_spot_value(self):
        assert binary_entropy(0.11) == pytest.approx(0.499915958165, abs=1e-11)

    def test_symmetry(self):
        for x in np.linspace(0.01, 0.49, 20):
            assert binary_entropy(float(x)) == pytest.approx(binary_entropy(1.0 - float(x)), abs=1e-14)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            binary_entropy(bad)


class TestSinglePhotonGainBound:
    def test_reference_value(self):
        value, clamped = q1_lower(observables(0))
        assert not clamped
        assert value == pytest.approx(ORACLE[0]["q1l"], rel=1e-10)

    def test_vanishing_bracket(self):
        row = REFERENCE_ROWS[0]
        q_nu = (
            row["q_mu"] * math.exp(MU) * NU**2 / MU**2
            + (MU**2 - NU**2) / MU**2 * row["y0"]
        ) / math.exp(NU)
        obs = DecoyObservables(mu=MU, nu=NU, q_mu=row["q_mu"], e_mu=row["e_mu"],
                               q_nu=q_nu, e_nu=row["e_nu"], y0=row["y0"])
        value, _ = q1_lower(obs)
        assert abs(value) < 1e-15

    def test_monotone_decreasing_in_vacuum_yield(self):
        values = []
        for y0 in (1e-5, 1e-4, 5e-4, 1e-3):
            obs = DecoyObservables(mu=MU, nu=NU, q_mu=1.43e-2, e_mu=0.0381,
                                   q_nu=4.77e-3, e_nu=0.0763, y0=y0)
            values.append(q1_lower(obs)[0])
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_negative_bracket_clamps_with_flag(self):
        obs = DecoyObservables(mu=MU, nu=NU, q_mu=1.43e-2, e_mu=0.0381,
                               q_nu=1e-4, e_nu=0.0763, y0=3.77e-4)
        assert q1_lower(obs) == (0.0, True)

    def test_intensity_ordering_enforced(self):
        with pytest.raises(ValidationError):
            DecoyObservables(mu=0.165, nu=0.623, q_mu=1e-2, e_mu=0.03,
                             q_nu=4e-3, e_nu=0.07, y0=1e-4)

    @pytest.mark.parametrize("name", ["mu", "nu", "q_mu", "e_mu", "q_nu", "e_nu", "y0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_observables_rejected(self, name, value):
        fields = dict(mu=MU, nu=NU, **REFERENCE_ROWS[0])
        fields[name] = value
        with pytest.raises(ValidationError):
            DecoyObservables(**fields)


class TestSinglePhotonErrorBound:
    def test_reference_value(self):
        obs = observables(0)
        q1l, _ = q1_lower(obs)
        value, clamped = e1_upper(obs, q1l)
        assert not clamped
        assert value == pytest.approx(ORACLE[0]["e1u"], rel=1e-10)

    def test_vanishing_numerator(self):
        row = REFERENCE_ROWS[0]
        e_nu = 0.5 * row["y0"] / (row["q_nu"] * math.exp(NU))
        obs = DecoyObservables(mu=MU, nu=NU, q_mu=row["q_mu"], e_mu=row["e_mu"],
                               q_nu=row["q_nu"], e_nu=e_nu, y0=row["y0"])
        value, _ = e1_upper(obs, q1_lower(obs)[0])
        assert abs(value) < 1e-15

    def test_strictly_increasing_in_decoy_qber(self):
        obs_lo = observables(0)
        row = dict(REFERENCE_ROWS[0])
        row["e_nu"] = 2 * row["e_nu"]
        obs_hi = DecoyObservables(mu=MU, nu=NU, **row)
        q1l, _ = q1_lower(obs_lo)
        assert e1_upper(obs_hi, q1l)[0] > e1_upper(obs_lo, q1l)[0]

    def test_zero_gain_bound_pins_the_error_bound_at_one(self):
        """A gain bound of zero certifies no single photon, so nothing bounds their errors."""
        assert e1_upper(observables(0), 0.0) == (1.0, True)

    def test_negative_numerator_clamps_to_zero(self):
        obs = DecoyObservables(mu=MU, nu=NU, q_mu=1.43e-2, e_mu=0.0381,
                               q_nu=4.77e-3, e_nu=1e-5, y0=3.77e-4)
        assert e1_upper(obs, q1_lower(obs)[0]) == (0.0, True)

    def test_oversized_quotient_clamps_to_one(self):
        obs = observables(0)
        assert e1_upper(obs, 1e-6) == (1.0, True)


class TestVacuumGain:
    def test_zero_yield(self):
        obs = DecoyObservables(mu=MU, nu=NU, q_mu=1e-2, e_mu=0.03, q_nu=4e-3,
                               e_nu=0.07, y0=0.0)
        assert q0_gain(obs) == 0.0

    def test_reference_value(self):
        assert q0_gain(observables(0)) == pytest.approx(ORACLE[0]["q0"], rel=1e-10)

    def test_small_intensity_limit(self):
        obs = DecoyObservables(mu=1e-9, nu=1e-10, q_mu=1e-2, e_mu=0.03,
                               q_nu=4e-3, e_nu=0.07, y0=2e-4)
        assert q0_gain(obs) == pytest.approx(2e-4, rel=1e-8)


class TestSecretKeyRate:
    @pytest.mark.parametrize("angle", [0, 15, 45, 60])
    def test_reference_breakdowns(self, angle):
        b = secret_key_rate(observables(angle))
        oracle = ORACLE[angle]
        assert b.q1_lower == pytest.approx(oracle["q1l"], rel=1e-10)
        assert b.e1_upper == pytest.approx(oracle["e1u"], rel=1e-10)
        assert b.q0 == pytest.approx(oracle["q0"], rel=1e-10)
        assert b.leak_ec == pytest.approx(oracle["leak"], rel=1e-10)
        assert b.rate == pytest.approx(oracle["rate"], rel=1e-10)
        assert b.secure and not b.q1_clamped and not b.e1_clamped

    def test_perfect_observables_yield_unit_rate(self):
        """Inputs engineered so the gain bound equals the total gain exactly."""
        q_mu = 1e-2
        pref = MU**2 * math.exp(-MU) / (MU * NU - NU**2)
        q_nu = (q_mu / pref + q_mu * math.exp(MU) * NU**2 / MU**2) / math.exp(NU)
        obs = DecoyObservables(mu=MU, nu=NU, q_mu=q_mu, e_mu=0.0, q_nu=q_nu,
                               e_nu=0.0, y0=0.0)
        b = secret_key_rate(obs)
        assert b.rate == pytest.approx(1.0, abs=1e-12)

    def test_single_photon_rate_beats_decoy_rate_rowwise(self):
        for angle, row in REFERENCE_ROWS.items():
            decoy = secret_key_rate(observables(angle)).rate
            ideal = single_photon_rate(row["e_mu"])
            assert ideal > decoy

    def test_monotone_in_signal_qber(self):
        rates = []
        for e_mu in np.linspace(0.0, 0.5, 11):
            obs = DecoyObservables(mu=MU, nu=NU, q_mu=1.43e-2, e_mu=float(e_mu),
                                   q_nu=4.77e-3, e_nu=0.0763, y0=3.77e-4)
            rates.append(secret_key_rate(obs).rate)
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_monotone_in_decoy_qber(self):
        rates = []
        for e_nu in np.linspace(0.0, 0.5, 11):
            obs = DecoyObservables(mu=MU, nu=NU, q_mu=1.43e-2, e_mu=0.0381,
                                   q_nu=4.77e-3, e_nu=float(e_nu), y0=3.77e-4)
            rates.append(secret_key_rate(obs).rate)
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_negative_rate_reported_with_flag(self):
        obs = DecoyObservables(mu=MU, nu=NU, q_mu=1.43e-2, e_mu=0.2,
                               q_nu=4.77e-3, e_nu=0.25, y0=3.77e-4)
        b = secret_key_rate(obs)
        assert b.rate < 0.0 and not b.secure

    def test_clamped_gain_bound_zeroes_single_photon_term(self):
        obs = DecoyObservables(mu=MU, nu=NU, q_mu=1.43e-2, e_mu=0.0381,
                               q_nu=1e-4, e_nu=0.0763, y0=3.77e-4)
        b = secret_key_rate(obs)
        assert b.q1_clamped and b.e1_clamped
        assert b.q1_lower == 0.0 and b.e1_upper == 1.0
        assert b.rate == pytest.approx(-b.leak_ec + b.q0 / obs.q_mu, abs=1e-15)

    def test_vacuum_term_alone_is_not_secure(self):
        """A positive rate with the gain bound clamped to 0 comes from Y0 alone."""
        obs = DecoyObservables(mu=MU, nu=NU, q_mu=6e-4, e_mu=0.0, q_nu=5e-4, e_nu=0.5, y0=1e-3)
        b = secret_key_rate(obs)
        assert b.q1_lower == 0.0 and b.rate > 0.0
        assert not b.secure

    def test_error_bound_at_half_is_not_secure(self):
        """With e1 >= 1/2 the single-photon term is floored to 0: Y0 alone makes the rate."""
        obs = DecoyObservables(mu=MU, nu=NU, q_mu=1e-3, e_mu=0.0, q_nu=3e-4, e_nu=0.5, y0=1e-4)
        b = secret_key_rate(obs)
        assert b.q1_lower > 0.0 and not b.q1_clamped
        assert b.e1_upper == pytest.approx(0.7174101763, rel=1e-9) and not b.e1_clamped
        assert b.rate == b.q0 / obs.q_mu and b.rate > 0.0
        assert not b.secure

    def test_bounds_beyond_the_float_range_raise_domain_error(self):
        """exp(mu) overflows past mu ~ 709.8; a vanishing nu makes Q1_L overflow."""
        for obs in (
            DecoyObservables(mu=800.0, nu=0.1, q_mu=1e-2, e_mu=0.03, q_nu=3e-3, e_nu=0.05,
                             y0=1e-5),
            DecoyObservables(mu=2.0, nu=1e-323, q_mu=5e-324, e_mu=0.0, q_nu=5e-324, e_nu=0.0,
                             y0=0.0),
        ):
            with pytest.raises(DomainError):
                secret_key_rate(obs)


def assembled_breakdown(obs: DecoyObservables, ec: ECModel) -> KeyRateBreakdown:
    """The key rate built term by term from the public bound functions.

    It keeps an explicit zero-gain branch (no single-photon term, error bound
    1 and flagged), which ``secret_key_rate`` leaves to ``e1_upper``.
    """
    q1, q1_clamped = q1_lower(obs)
    if q1 > 0.0:
        e1, e1_clamped = e1_upper(obs, q1, ec)
        amplified = 1.0 - binary_entropy(min(e1, 0.5))
    else:
        e1, e1_clamped = 1.0, True
        amplified = 0.0
    q0 = q0_gain(obs)
    leak = ec.f * binary_entropy(obs.e_mu)
    rate = q1 / obs.q_mu * amplified - leak + q0 / obs.q_mu
    return KeyRateBreakdown(
        q1_lower=q1, e1_upper=e1, q0=q0, leak_ec=leak, rate=rate,
        q1_clamped=q1_clamped, e1_clamped=e1_clamped,
        secure=rate > 0.0 and q1 > 0.0 and e1 < 0.5,
    )


class TestAssembly:
    def test_equals_breakdown_from_public_bounds(self):
        """Bit-for-bit over 10,000 seeded observables, clamped bounds included."""
        rng = np.random.default_rng(20261018)
        n = 10_000
        mu = rng.uniform(0.1, 1.2, n)
        nu = mu * rng.uniform(0.05, 0.9, n)
        q_mu = 10.0 ** rng.uniform(-6.0, 0.0, n)
        q_nu = np.minimum(1.0, q_mu * nu / mu * 10.0 ** rng.uniform(-1.0, 0.3, n))
        y0 = np.where(rng.random(n) < 0.1, 0.0, q_nu * 10.0 ** rng.uniform(-4.0, 0.3, n))
        e_mu, e_nu = rng.uniform(0.0, 1.0, (2, n))
        f, e0 = rng.uniform(1.0, 1.5, n), rng.uniform(0.0, 1.0, n)
        cases = dict(q1_clamped=0, e1_below_0=0, e1_above_1=0, unclamped=0, secure=0,
                     e1_at_half=0)
        for row in zip(*(a.tolist() for a in (mu, nu, q_mu, e_mu, q_nu, e_nu, y0, f, e0))):
            obs, ec = DecoyObservables(*row[:7]), ECModel(*row[7:])
            b = secret_key_rate(obs, ec)
            assert b == assembled_breakdown(obs, ec), obs
            if b.q1_clamped:
                cases["q1_clamped"] += 1
            elif b.e1_clamped:
                cases["e1_below_0" if b.e1_upper == 0.0 else "e1_above_1"] += 1
            else:
                cases["unclamped"] += 1
            cases["secure"] += b.secure
            cases["e1_at_half"] += b.rate > 0.0 and b.q1_lower > 0.0 and b.e1_upper >= 0.5
        assert cases["q1_clamped"] >= 1000 and cases["unclamped"] >= 1000, cases
        assert cases["e1_below_0"] >= 50 and cases["e1_above_1"] >= 500, cases
        assert cases["secure"] >= 100 and cases["e1_at_half"] >= 5, cases


class TestSinglePhotonRate:
    def test_zero_error_gives_unit_rate(self):
        assert single_photon_rate(0.0) == 1.0

    def test_reference_value(self):
        assert single_photon_rate(0.0381, ECModel(f=1.05)) == pytest.approx(
            ORACLE[0]["rate_1ph"], rel=1e-10
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            single_photon_rate(1.2)


class TestQberThreshold:
    def test_ideal_error_correction_threshold(self):
        root = qber_threshold(1.0)
        assert root == pytest.approx(0.110027864438, abs=1e-6)

    def test_larger_leakage_lowers_threshold(self):
        assert qber_threshold(1.05) < qber_threshold(1.0)
        assert qber_threshold(1.05) == pytest.approx(0.106023827637, abs=1e-6)

    def test_residual_at_root(self):
        for f in (1.0, 1.05, 1.2):
            root = qber_threshold(f)
            assert abs(1.0 - (1.0 + f) * binary_entropy(root)) < 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            qber_threshold(0.9)


#: Each refused observable: the field(s) set, and the start of the message that names it.
OBSERVABLE_REFUSALS = [
    (dict(nu=MU), r"^need finite mu > nu > 0"),
    (dict(nu=MU + 0.1), r"^need finite mu > nu > 0"),
    *(({field: value}, rf"^{field} must lie in \(0, 1\]")
      for field in ("q_mu", "q_nu") for value in (0.0, 1.5, math.nan)),
    *(({field: value}, rf"^{field} must lie in \[0, 1\]")
      for field in ("e_mu", "e_nu") for value in (-0.1, 1.5, math.nan)),
    *((dict(y0=value), r"^y0 must be non-negative and finite") for value in (-1e-5, math.inf)),
]


class TestValidation:
    @pytest.mark.parametrize("bad, message", OBSERVABLE_REFUSALS,
                             ids=[",".join(f"{k}={v}" for k, v in bad.items())
                                  for bad, _ in OBSERVABLE_REFUSALS])
    def test_each_refusal_names_its_field(self, bad, message):
        fields = dict(mu=MU, nu=NU, **REFERENCE_ROWS[0])
        DecoyObservables(**fields)  # the unaltered row is accepted
        with pytest.raises(ValidationError, match=message):
            DecoyObservables(**{**fields, **bad})

    def test_gain_range(self):
        with pytest.raises(ValidationError):
            DecoyObservables(mu=MU, nu=NU, q_mu=0.0, e_mu=0.03, q_nu=4e-3,
                             e_nu=0.07, y0=1e-4)
        with pytest.raises(ValidationError):
            DecoyObservables(mu=MU, nu=NU, q_mu=1.5, e_mu=0.03, q_nu=4e-3,
                             e_nu=0.07, y0=1e-4)

    def test_qber_range(self):
        with pytest.raises(ValidationError):
            DecoyObservables(mu=MU, nu=NU, q_mu=1e-2, e_mu=1.5, q_nu=4e-3,
                             e_nu=0.07, y0=1e-4)

    def test_negative_vacuum_yield(self):
        with pytest.raises(ValidationError):
            DecoyObservables(mu=MU, nu=NU, q_mu=1e-2, e_mu=0.03, q_nu=4e-3,
                             e_nu=0.07, y0=-1e-5)

    def test_ec_model(self):
        for f in (0.99, math.nan, math.inf):
            with pytest.raises(ValidationError):
                ECModel(f=f)
        with pytest.raises(ValidationError):
            ECModel(e0=1.5)

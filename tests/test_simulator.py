"""Monte Carlo link simulation: generation, transmission, sifting, tallies."""

import math
import zlib
from unittest import mock

import numpy as np
import pytest
from scipy import stats

from oamqkd import (
    ChannelParams,
    DomainError,
    Encoding,
    IntensityClass,
    PulseBatch,
    SourceParams,
    ValidationError,
    estimate_observables,
    generate_pulses,
    q1_lower,
    run_session,
    tally_blocks,
    transmit,
)
from oamqkd import simulator
from oamqkd.keyrate import e1_upper
from oamqkd.simulator import (
    BlockSeries,
    _block_law,
    _pulse_counts,
    block_generator,
    detection_bit_probabilities,
    simulate_blocks,
)

LOSSLESS = dict(eta_ch=1.0, eta_c=1.0, eta_d=1.0)


def _one_block(src: SourceParams, ch: ChannelParams, block_size: int, master_seed: int,
               block_index: int) -> np.ndarray:
    """Counts of one block drawn alone from its generator: normal (sigma > 0), then counts."""
    gen = block_generator(master_seed, block_index)
    sigma = ch.scintillation_sigma
    multiplier = 1.0
    if sigma > 0.0:
        multiplier = np.exp(sigma * gen.standard_normal() - 0.5 * sigma * sigma)
    law = _block_law(src, ch, multiplier).ravel()
    return gen.multinomial(block_size, law).reshape(3, 3, 4)


def _binomial_5sigma(p: float, n: int) -> float:
    return 5.0 * math.sqrt(max(p * (1.0 - p), 1e-12) / n)


def all_signal_source(**kwargs) -> SourceParams:
    return SourceParams(p_mu=1.0, p_nu=0.0, p_vac=0.0, **kwargs)


class TestGeneration:
    def test_vacuum_pulses_carry_no_photons(self):
        src = SourceParams(p_mu=0.1, p_nu=0.1, p_vac=0.8)
        batch = generate_pulses(50_000, src, 1)
        vac = batch.intensity_class == int(IntensityClass.VACUUM)
        assert np.all(batch.photon_count[vac] == 0)

    def test_class_fractions_follow_probabilities(self):
        src = SourceParams(p_mu=0.8, p_nu=0.15, p_vac=0.05)
        n = 200_000
        batch = generate_pulses(n, src, 2)
        frac = np.count_nonzero(batch.intensity_class == 0) / n
        assert abs(frac - 0.8) < _binomial_5sigma(0.8, n)

    def test_signal_photon_mean(self):
        src = all_signal_source(mu=0.623)
        n = 200_000
        batch = generate_pulses(n, src, 3)
        mean = batch.photon_count.mean()
        # Poisson sample-mean five-sigma band
        assert abs(mean - 0.623) < 5.0 * math.sqrt(0.623 / n)

    def test_bases_and_bits_uniform(self):
        batch = generate_pulses(100_000, SourceParams(), 4)
        for arr in (batch.basis, batch.bit):
            frac = arr.mean()
            assert abs(frac - 0.5) < _binomial_5sigma(0.5, len(batch))

    def test_deterministic_per_seed(self):
        a = generate_pulses(10_000, SourceParams(), 42)
        b = generate_pulses(10_000, SourceParams(), 42)
        assert np.array_equal(a.photon_count, b.photon_count)
        assert np.array_equal(a.intensity_class, b.intensity_class)

    def test_invalid_params(self):
        with pytest.raises(ValidationError):
            SourceParams(mu=0.1, nu=0.2)
        with pytest.raises(ValidationError):
            SourceParams(p_mu=0.5, p_nu=0.5, p_vac=0.5)
        for name in ("mu", "p_mu"):
            with pytest.raises(ValidationError):
                SourceParams(**{name: math.nan})
        with pytest.raises(ValidationError):
            SourceParams(mu=math.inf)
        with pytest.raises(ValidationError):
            generate_pulses(0, SourceParams(), 1)


class TestTransmit:
    def test_noiseless_invariant_channel_is_error_free(self):
        src = SourceParams()
        ch = ChannelParams(**LOSSLESS, theta=1.234, encoding=Encoding.HYBRID)
        batch = generate_pulses(50_000, src, 5)
        transmit(batch, ch, 1.0, np.random.default_rng(6))
        assert np.array_equal(batch.detected, batch.photon_count > 0)
        matched = batch.detected & (batch.basis == batch.detector_basis)
        assert np.array_equal(batch.detected_bit[matched], batch.bit[matched])

    def test_polarization_45_degrees_misalignment(self):
        src = all_signal_source()
        ch = ChannelParams(**LOSSLESS, theta=math.radians(45.0),
                           encoding=Encoding.POLARIZATION)
        batch = generate_pulses(100_000, src, 7)
        transmit(batch, ch, 1.0, np.random.default_rng(8))
        (tally,) = tally_blocks(batch, len(batch))
        sifted = int(tally.sifted[IntensityClass.SIGNAL])
        assert abs(tally.qbers[IntensityClass.SIGNAL] - 0.25) < _binomial_5sigma(0.25, sifted)

    def test_gain_matches_loss_chain_model(self):
        src = all_signal_source(mu=0.623)
        ch = ChannelParams(eta_ch=0.10, eta_c=0.35, eta_d=0.60, y0=3.77e-4)
        n = 400_000
        batch = generate_pulses(n, src, 9)
        transmit(batch, ch, 1.0, np.random.default_rng(10))
        gain = batch.detected.mean()
        expected = 1.0 - (1.0 - ch.y0) * math.exp(-src.mu * ch.eta)
        assert abs(gain - expected) < _binomial_5sigma(expected, n)
        # same order as the measured reference gain 1.43e-2
        assert 1.43e-2 / 3.0 < gain < 1.43e-2 * 3.0

    def test_dark_only_detections_are_random_bits(self):
        src = all_signal_source(mu=0.623)
        ch = ChannelParams(eta_ch=0.0, eta_c=0.0, eta_d=0.0, y0=0.5)
        batch = generate_pulses(50_000, src, 12)
        transmit(batch, ch, 1.0, np.random.default_rng(13))
        got = batch.detected.mean()
        assert abs(got - 0.5) < _binomial_5sigma(0.5, len(batch))
        errors = batch.detected & (batch.detected_bit != batch.bit)
        frac = errors.sum() / batch.detected.sum()
        assert abs(frac - 0.5) < _binomial_5sigma(0.5, int(batch.detected.sum()))

    @pytest.mark.parametrize("name", ["theta", "scintillation_sigma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_channel_params_rejected(self, name, value):
        with pytest.raises(ValidationError):
            ChannelParams(**{name: value})

    @pytest.mark.parametrize("name", ["eta_ch", "eta_c", "eta_d", "e_ch", "y0"])
    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_probabilities_outside_unit_interval_rejected(self, name, value):
        with pytest.raises(ValidationError, match=f"{name} must lie in \\[0, 1\\], got {value}"):
            ChannelParams(**{name: value})

    def test_unknown_encoding_rejected(self):
        with pytest.raises(ValidationError, match="encoding"):
            ChannelParams(encoding="foo")

    def test_multiplier_validation(self):
        batch = generate_pulses(10, SourceParams(), 1)
        with pytest.raises(ValidationError):
            transmit(batch, ChannelParams(), 0.0, np.random.default_rng(1))


class TestSift:
    """Basis sifting as the block tallies count it."""

    def test_sifted_counts_match_basis_matched_detections(self):
        src = SourceParams()
        batch = generate_pulses(60_000, src, 14)
        transmit(batch, ChannelParams(**LOSSLESS), 1.0, np.random.default_rng(15))
        (tally,) = tally_blocks(batch, len(batch))
        matched = batch.detected & (batch.basis == batch.detector_basis)
        assert int(tally.sifted.sum()) == int(matched.sum())

    def test_all_bases_matched_keeps_every_detection(self):
        batch = generate_pulses(20_000, SourceParams(), 50)
        transmit(batch, ChannelParams(**LOSSLESS), 1.0, np.random.default_rng(51))
        batch.detector_basis = batch.basis.copy()
        (tally,) = tally_blocks(batch, len(batch))
        assert np.array_equal(tally.sifted, tally.detected)

    def test_sifted_fraction_is_half(self):
        src = all_signal_source(mu=20.0)  # essentially every pulse detected
        batch = generate_pulses(100_000, src, 16)
        transmit(batch, ChannelParams(**LOSSLESS), 1.0, np.random.default_rng(17))
        (tally,) = tally_blocks(batch, len(batch))
        detected = int(tally.detected.sum())
        frac = int(tally.sifted[IntensityClass.SIGNAL]) / detected
        assert abs(frac - 0.5) < _binomial_5sigma(0.5, detected)

    def test_empty_input(self):
        empty = PulseBatch(
            intensity_class=np.zeros(0, np.int8),
            basis=np.zeros(0, np.int8),
            bit=np.zeros(0, np.int8),
            photon_count=np.zeros(0, np.int64),
            detected=np.zeros(0, bool),
            detected_bit=np.zeros(0, np.int8),
            detector_basis=np.zeros(0, np.int8),
        )
        assert len(tally_blocks(empty)) == 0


class TestBlockTallies:
    def test_noiseless_bright_run_has_unit_gain_zero_qber(self):
        src = all_signal_source(mu=30.0, nu=1.0)  # Poisson(30) never hits zero here
        batch = generate_pulses(28_800, src, 18)
        transmit(batch, ChannelParams(**LOSSLESS), 1.0, np.random.default_rng(19))
        blocks = tally_blocks(batch, 2880)
        assert len(blocks) == 10
        for tally in blocks:
            assert tally.gains[IntensityClass.SIGNAL] == 1.0
            assert tally.qbers[IntensityClass.SIGNAL] == 0.0

    def test_partial_trailing_block_dropped(self):
        batch = generate_pulses(7000, SourceParams(), 20)
        transmit(batch, ChannelParams(), 1.0, np.random.default_rng(21))
        blocks = tally_blocks(batch, 2880)
        assert len(blocks) == 2
        assert sum(int(b.sent.sum()) for b in blocks) == 5760

    def test_conservation_counts(self):
        batch = generate_pulses(30_000, SourceParams(), 22)
        transmit(batch, ChannelParams(y0=1e-3), 1.0, np.random.default_rng(23))
        for tally in tally_blocks(batch, 2880):
            assert np.all(tally.errors <= tally.sifted)
            assert np.all(tally.sifted <= tally.detected)
            assert np.all(tally.detected <= tally.sent)
        assert int(sum(t.sent.sum() for t in tally_blocks(batch, 2880))) == 28_800

    @pytest.mark.parametrize("n, block_size", [(5760, 1), (5760, 2880), (5760, 5760),
                                               (7000, 2880)])
    def test_rows_are_bincounts_of_their_slice(self, n, block_size):
        batch = generate_pulses(n, SourceParams(), 52)
        transmit(batch, ChannelParams(eta_ch=0.5, e_ch=0.05, y0=0.05), 1.0,
                 np.random.default_rng(53))
        detected = batch.detected
        sifted = detected & (batch.basis == batch.detector_basis)
        errors = sifted & (batch.bit != batch.detected_bit)
        blocks = tally_blocks(batch, block_size)
        assert len(blocks) == n // block_size
        for b, tally in enumerate(blocks):
            assert tally.block_index == b and tally.block_size == block_size
            lo, hi = b * block_size, (b + 1) * block_size
            cls = batch.intensity_class[lo:hi]
            assert np.array_equal(tally.sent, np.bincount(cls, minlength=3))
            for name, mask in (("detected", detected), ("sifted", sifted), ("errors", errors)):
                want = np.bincount(cls[mask[lo:hi]], minlength=3)
                assert np.array_equal(getattr(tally, name), want), name

    @staticmethod
    def _signal_block_gains(ch: ChannelParams, n_blocks: int, seed: int) -> np.ndarray:
        counts = simulate_blocks(all_signal_source(), ch, 2880, seed, n_blocks)
        return BlockSeries(counts).gains[:, IntensityClass.SIGNAL]

    def test_stationary_channel_block_gains_chi2_consistent(self):
        ch = ChannelParams(eta_ch=0.10, eta_c=0.35, eta_d=0.60)
        gains = self._signal_block_gains(ch, 300, seed=24)
        q_hat = gains.mean()
        statistic = float(np.sum((gains - q_hat) ** 2) * 2880 / (q_hat * (1 - q_hat)))
        lo, hi = stats.chi2.ppf([1e-5, 1 - 1e-5], len(gains) - 1)
        assert lo < statistic < hi

    def test_scintillation_inflates_block_gain_variance(self):
        ch = ChannelParams(eta_ch=0.10, eta_c=0.35, eta_d=0.60,
                           scintillation_sigma=0.3)
        gains = self._signal_block_gains(ch, 300, seed=25)
        q_hat = gains.mean()
        floor = q_hat * (1 - q_hat) / 2880
        sample_var = gains.var(ddof=1)
        five_sigma = 5.0 * floor * math.sqrt(2.0 / (len(gains) - 1))
        assert sample_var - floor > five_sigma

    def test_block_size_validation(self):
        batch = generate_pulses(100, SourceParams(), 1)
        with pytest.raises(ValidationError):
            tally_blocks(batch, 0)


class TestBlockLaw:
    @pytest.mark.parametrize("encoding", [Encoding.HYBRID, Encoding.POLARIZATION])
    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_equal_in_law_to_pulse_level(self, encoding, sigma):
        src = SourceParams()
        ch = ChannelParams(eta_ch=0.5, eta_c=1.0, eta_d=1.0, e_ch=0.03, y0=0.05,
                           theta=math.radians(15.0), encoding=encoding,
                           scintillation_sigma=sigma)
        rng = np.random.default_rng(60)
        observed = np.zeros(36)
        expected = np.zeros(36)
        for _ in range(10):
            multiplier = float(np.exp(sigma * rng.standard_normal() - 0.5 * sigma * sigma))
            batch = transmit(generate_pulses(100_000, src, rng), ch, multiplier, rng)
            observed += _pulse_counts(batch, len(batch)).ravel()
            expected += 100_000 * _block_law(src, ch, multiplier).ravel()
        possible = expected > 0.0
        assert np.all(observed[~possible] == 0)
        assert stats.chisquare(observed[possible], expected[possible]).pvalue > 1e-6

    @pytest.mark.parametrize("mu, p", [(0.623, 0.2), (0.623, 1.0), (1e-3, 1e-5), (5.0, 0.7)])
    def test_multiphoton_masses_match_poisson_series(self, mu, p):
        src = SourceParams(mu=mu, nu=mu / 4)
        law = _block_law(src, ChannelParams(eta_ch=p, eta_c=1.0, eta_d=1.0, y0=0.0), 1.0)
        n = np.arange(2, 80)
        for cls, lam in enumerate(src.intensities[:2]):
            pmf = stats.poisson.pmf(n, lam)
            lost = np.exp(n * np.log1p(-p)) if p < 1.0 else np.zeros(n.size)
            weight = src.class_probabilities[cls]
            # the closed form subtracts the n <= 1 terms from a Poisson total,
            # which costs a few digits when lam is small
            clicked, unclicked = law[cls, 2, 1:].sum() / weight, law[cls, 2, 0] / weight
            assert clicked == pytest.approx(np.sum(pmf * (1.0 - lost)), rel=1e-10, abs=0.0)
            assert unclicked == pytest.approx(np.sum(pmf * lost), rel=1e-10, abs=0.0)

    def test_array_form_matches_scalar_law_bit_for_bit(self):
        src = SourceParams()
        ch = ChannelParams(eta_ch=0.5, eta_c=1.0, eta_d=1.0, e_ch=0.03, y0=0.05,
                           theta=math.radians(15.0), encoding=Encoding.POLARIZATION,
                           scintillation_sigma=0.3)
        normals = np.random.default_rng(61).standard_normal(320)
        multipliers = np.concatenate([np.exp(0.3 * normals - 0.045), [1e-9, 1.0, 1e3]])
        laws = _block_law(src, ch, multipliers)
        assert laws.shape == (len(multipliers), 3, 3, 4)
        for law, multiplier in zip(laws, multipliers):
            assert np.array_equal(law, _block_law(src, ch, float(multiplier)))

    def test_detection_table_is_read_only(self):
        table = detection_bit_probabilities(0.0, Encoding.HYBRID)
        with pytest.raises(ValueError):
            table[0, 0, 0] = 0.5
        assert table[0, 0, 0] == 0.0

    def test_law_is_a_distribution_at_extreme_survival(self):
        for mu, eta in ((1e-12, 1.0 - 6e-16), (0.623, 1.0), (0.623, 0.0), (1e4, 0.5)):
            law = _block_law(SourceParams(mu=mu, nu=mu / 3),
                             ChannelParams(eta_ch=eta, eta_c=1.0, eta_d=1.0), 1.0)
            assert law.shape == (3, 3, 4)
            assert np.all(law >= 0.0)
            assert law.sum() == pytest.approx(1.0, abs=1e-12)


class TestObservables:
    def test_pooled_ratios(self):
        src = SourceParams(p_mu=0.6, p_nu=0.3, p_vac=0.1)
        ch = ChannelParams(eta_ch=0.2, eta_c=1.0, eta_d=1.0, y0=1e-3, e_ch=0.02)
        session = run_session(src, ch, 200_000, block_size=10_000, master_seed=26)
        sent = np.sum([t.sent for t in session.blocks], axis=0)
        detected = np.sum([t.detected for t in session.blocks], axis=0)
        obs = session.observables
        assert obs.q_mu == detected[0] / sent[0]
        assert obs.y0 == detected[2] / sent[2]

    def test_zero_configured_dark_rate_estimates_zero(self):
        src = SourceParams()
        ch = ChannelParams(eta_ch=0.2, eta_c=1.0, eta_d=1.0, y0=0.0)
        session = run_session(src, ch, 50_000, block_size=5_000, master_seed=27)
        assert session.observables.y0 == 0.0

    def test_polarization_45deg_qber_recovered(self):
        src = SourceParams(p_mu=0.8, p_nu=0.15, p_vac=0.05)
        ch = ChannelParams(eta_ch=0.5, eta_c=1.0, eta_d=1.0,
                           theta=math.radians(45.0), encoding=Encoding.POLARIZATION)
        session = run_session(src, ch, 400_000, block_size=20_000, master_seed=28)
        sifted = sum(int(t.sifted[0]) for t in session.blocks)
        assert abs(session.observables.e_mu - 0.25) < _binomial_5sigma(0.25, sifted)

    def test_missing_class_raises(self):
        batch = generate_pulses(20_000, all_signal_source(), 29)
        transmit(batch, ChannelParams(**LOSSLESS), 1.0, np.random.default_rng(30))
        with pytest.raises(DomainError):
            estimate_observables(tally_blocks(batch, 2000), all_signal_source())

    def test_no_blocks_raises(self):
        empty = BlockSeries(np.zeros((0, 3, 3, 4), dtype=np.int64))
        with pytest.raises(DomainError, match="no blocks to estimate from"):
            estimate_observables(empty, SourceParams())

    def test_no_sifted_bits_raises(self):
        counts = np.zeros((1, 3, 3, 4), dtype=np.int64)
        counts[0, :, 1, 0] = 10  # every class sent and missed
        counts[0, :, 1, 1] = 5  # and detected in the other basis only
        with pytest.raises(DomainError, match="no sifted bits in class SIGNAL"):
            estimate_observables(BlockSeries(counts), SourceParams())

    def test_no_detections_raises(self):
        src = SourceParams()
        batch = generate_pulses(10_000, src, 31)
        transmit(batch, ChannelParams(eta_ch=0.0, eta_c=0.0, eta_d=0.0, y0=0.0),
                 1.0, np.random.default_rng(32))
        with pytest.raises(DomainError):
            estimate_observables(tally_blocks(batch, 1000), src)


class TestSessionContracts:
    def test_bitwise_determinism(self):
        src = SourceParams()
        ch = ChannelParams(eta_ch=0.2, eta_c=1.0, eta_d=1.0, y0=1e-4,
                           scintillation_sigma=0.2)
        a = run_session(src, ch, 100_000, master_seed=33)
        b = run_session(src, ch, 100_000, master_seed=33)
        assert a.observables == b.observables
        for ta, tb in zip(a.blocks, b.blocks):
            assert np.array_equal(ta.detected, tb.detected)
            assert np.array_equal(ta.errors, tb.errors)
        c = run_session(src, ch, 100_000, master_seed=34)
        assert c.observables != a.observables

    def test_block_schedule_invariance(self):
        """Simulating blocks out of order reproduces the in-order session."""
        src = SourceParams()
        ch = ChannelParams(eta_ch=0.2, eta_c=1.0, eta_d=1.0, y0=1e-4)
        session = run_session(src, ch, 40_000, block_size=4_000, master_seed=35)
        backwards = list(reversed(range(10)))
        counts = np.stack([_one_block(src, ch, 4_000, 35, b) for b in backwards])
        out_of_order = BlockSeries(counts[::-1])
        assert np.array_equal(session.blocks.detected, out_of_order.detected)
        assert np.array_equal(session.blocks.errors, out_of_order.errors)

    def test_block_schedule_invariance_with_scintillation(self):
        """Each block's multiplier comes from its own stream, not from the schedule."""
        src = SourceParams()
        ch = ChannelParams(eta_ch=0.2, eta_c=1.0, eta_d=1.0, y0=1e-4,
                           scintillation_sigma=0.3)
        session = run_session(src, ch, 40_000, block_size=4_000, master_seed=39)
        for b in (7, 2, 9, 0, 5, 1, 8, 3, 6, 4):
            (tally,) = BlockSeries(_one_block(src, ch, 4_000, 39, b)[None])
            for name in ("sent", "detected", "sifted", "errors"):
                assert np.array_equal(getattr(session.blocks[b], name), getattr(tally, name))

    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_shuffled_indices_give_the_session_rows(self, sigma):
        src = SourceParams()
        ch = ChannelParams(eta_ch=0.2, eta_c=1.0, eta_d=1.0, y0=1e-4,
                           scintillation_sigma=sigma)
        session = run_session(src, ch, 48_000, block_size=4_000, master_seed=42)
        order = np.random.default_rng(43).permutation(12).tolist()
        shuffled = BlockSeries(np.stack([_one_block(src, ch, 4_000, 42, b) for b in order]))
        for name in ("sent", "detected", "sifted", "errors"):
            assert np.array_equal(getattr(shuffled, name), getattr(session.blocks, name)[order])

    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_a_shorter_session_is_a_prefix_of_a_longer_one(self, sigma):
        """Block b reads counter range b of the seed's key, whatever the session's length."""
        src = SourceParams()
        ch = ChannelParams(eta_ch=0.2, eta_c=1.0, eta_d=1.0, y0=1e-4,
                           scintillation_sigma=sigma)
        long = run_session(src, ch, 48_000, block_size=4_000, master_seed=42)
        for n_blocks in (1, 5, 11):
            short = run_session(src, ch, n_blocks * 4_000, block_size=4_000, master_seed=42)
            for name in ("sent", "detected", "sifted", "errors"):
                assert np.array_equal(getattr(short.blocks, name),
                                      getattr(long.blocks, name)[:n_blocks])

    def test_block_series_rows_are_the_block_tallies(self):
        src = SourceParams()
        ch = ChannelParams(eta_ch=0.2, eta_c=1.0, eta_d=1.0, y0=1e-4)
        counts = simulate_blocks(src, ch, 3_000, 40, 4)
        series = BlockSeries(counts)
        assert len(series) == 4 and series.sent.shape == (4, 3)
        assert np.array_equal(series.sent, counts.sum(axis=(2, 3)))
        for b, got in enumerate(series):
            assert got.block_index == b and got.block_size == 3_000
            for name in ("sent", "detected", "sifted", "errors", "gains", "qbers"):
                assert np.array_equal(getattr(got, name), getattr(series, name)[b],
                                      equal_nan=True)
        assert series[-1].block_index == 3
        with pytest.raises(IndexError):
            series[4]

    @pytest.mark.parametrize("master_seed", [0, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 5])
    @pytest.mark.parametrize("block_index", [0, 346, 2**32, 2**64 + 1])
    def test_block_generator_matches_list_entropy(self, master_seed, block_index):
        """One key per seed from the list entropy; block b is that key jumped b times."""
        tag = zlib.crc32(b"simulate")
        key = np.random.Philox(np.random.SeedSequence([master_seed, tag]))
        want = np.random.Generator(key.jumped(block_index)).integers(0, 2**63, 8)
        got = block_generator(master_seed, block_index).integers(0, 2**63, 8)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("master_seed, block_index",
                             [(-1, 0), (0, -1), (0, 2**128), (0, 1.5)])
    def test_block_generator_refuses_negative_entropy(self, master_seed, block_index):
        with pytest.raises(ValidationError):
            block_generator(master_seed, block_index)

    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_more_blocks_than_an_array_holds_are_refused_before_any_draw(self, sigma):
        ch = ChannelParams(scintillation_sigma=sigma)
        n_blocks = 100_000_000_000_000_000_000_000 // 2880
        with mock.patch.object(simulator, "_block_streams", side_effect=AssertionError("drew")):
            with pytest.raises(ValidationError, match=f"{n_blocks} blocks exceed numpy"):
                simulate_blocks(SourceParams(), ch, 2880, 0, n_blocks)

    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_simulate_blocks_draws_each_block_from_its_generator(self, sigma):
        """A block's normal (sigma > 0), then its counts, from block_generator's stream."""
        src = SourceParams()
        ch = ChannelParams(eta_ch=0.2, eta_c=1.0, eta_d=1.0, y0=1e-4,
                           scintillation_sigma=sigma)
        counts = simulate_blocks(src, ch, 4_000, 44, 6)
        for b, row in enumerate(counts):
            assert np.array_equal(row, _one_block(src, ch, 4_000, 44, b))

    def test_distinct_streams_are_independent(self):
        draws = [block_generator(1, b).random(4) for b in (0, 1, 2**64 + 2)]
        draws.append(block_generator(2, 0).random(4))
        assert len({tuple(d) for d in draws}) == len(draws)

    def test_gain_monotone_in_efficiencies_and_intensity(self):
        src = SourceParams()

        def gain(**channel_kwargs):
            params = dict(eta_ch=0.1, eta_c=0.5, eta_d=0.5)
            params.update(channel_kwargs)
            session = run_session(src, ChannelParams(**params), 100_000,
                                  block_size=10_000, master_seed=36)
            return session.observables.q_mu

        for name in ("eta_ch", "eta_c", "eta_d"):
            gains = [gain(**{name: v}) for v in (0.1, 0.4, 0.7, 1.0)]
            assert all(a < b for a, b in zip(gains, gains[1:])), name

        def gain_mu(mu):
            session = run_session(
                SourceParams(mu=mu), ChannelParams(eta_ch=0.2, eta_c=1.0, eta_d=1.0),
                100_000, block_size=10_000, master_seed=37)
            return session.observables.q_mu

        gains = [gain_mu(m) for m in (0.2, 0.5, 0.8)]
        assert all(a < b for a, b in zip(gains, gains[1:]))

    def test_hybrid_qber_independent_of_rotation(self):
        src = SourceParams(p_mu=0.8, p_nu=0.15, p_vac=0.05)
        results = []
        for i, deg in enumerate((0.0, 15.0, 45.0, 60.0)):
            ch = ChannelParams(eta_ch=0.25, eta_c=1.0, eta_d=1.0, e_ch=0.03,
                               theta=math.radians(deg), encoding=Encoding.HYBRID)
            session = run_session(src, ch, 200_000, block_size=20_000, master_seed=40 + i)
            sifted = sum(int(t.sifted[0]) for t in session.blocks)
            results.append((session.observables.e_mu, sifted))
        for (qa, na) in results:
            for (qb, nb) in results:
                sigma = math.sqrt(0.03 * 0.97 * (1.0 / na + 1.0 / nb))
                assert abs(qa - qb) <= 5.0 * sigma

    def test_session_too_short_raises(self):
        with pytest.raises(ValidationError):
            run_session(SourceParams(), ChannelParams(), 100, block_size=2880)

    @pytest.mark.parametrize("n_pulses, block_size", [(10_000, 0), (10_000, -5), (-5, 2880),
                                                      (0, 2880)])
    def test_nonpositive_counts_raise(self, n_pulses, block_size):
        with pytest.raises(ValidationError):
            run_session(SourceParams(), ChannelParams(), n_pulses, block_size=block_size)

    def test_decoy_bounds_hold_on_one_large_session(self):
        src = SourceParams(p_mu=0.5, p_nu=0.4, p_vac=0.1)
        ch = ChannelParams(eta_ch=0.2, eta_c=1.0, eta_d=1.0, e_ch=0.05, y0=3.77e-4)
        session = run_session(src, ch, 1_000_000, block_size=100_000, master_seed=38)
        q1, _ = q1_lower(session.observables)
        assert q1 <= session.single_photon.gain
        e1, _ = e1_upper(session.observables, q1)
        assert e1 >= session.single_photon.error_rate

"""Centroid extraction, wander statistics and the coherence-length chain."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from oamqkd import (
    CentroidSample,
    DegenerateInputError,
    IntensityFrame,
    LinkGeometry,
    SpotModel,
    TurbulenceEstimate,
    ValidationError,
    centroid,
    cn2_from_fried,
    estimate_turbulence,
    fried_parameter,
    is_weak_turbulence,
    synthesize_frames,
    wander_sigma,
)
from oamqkd.turbulence import FRIED_CN2_CONSTANT, read_frame, write_frame

GEOMETRY = LinkGeometry(length_m=210.0, wavelength_m=850e-9)
#: A narrow spot whose dimmest pixel is ~1e-274 when centred: wander offsets of
#: ~0.3 mm push the far corners into subnormals and exact zeros.
UNDERFLOW_GRID = dict(rows=40, cols=56, pitch_mm=0.1, waist_mm=0.19)
#: Odd, unequal dimensions: neither count is a multiple of a SIMD width.
ODD_GRID = dict(rows=97, cols=131, pitch_mm=0.05, waist_mm=0.5)


class TestCentroid:
    def test_single_pixel(self):
        values = np.zeros((8, 10))
        values[3, 7] = 2.5
        sample = centroid(IntensityFrame(values=values, pitch_mm=0.2))
        assert sample.x_mm == pytest.approx(7.5 * 0.2, abs=1e-12)
        assert sample.y_mm == pytest.approx(3.5 * 0.2, abs=1e-12)

    def test_point_symmetric_frame_centers(self):
        rng = np.random.default_rng(0)
        half = rng.random((5, 8))
        values = half + half[::-1, ::-1]  # symmetric under 180-degree rotation
        sample = centroid(IntensityFrame(values=values, pitch_mm=1.0))
        assert sample.x_mm == pytest.approx(4.0, abs=1e-12)
        assert sample.y_mm == pytest.approx(2.5, abs=1e-12)

    def test_gaussian_spot_recovered_to_tenth_pixel(self):
        spot = SpotModel(rows=128, cols=128, pitch_mm=0.1, waist_mm=1.2)
        frame = synthesize_frames(1, spot, wander_std_m=0.0, rng_seed=1)[0]
        sample = centroid(frame)
        assert abs(sample.x_mm - 64 * 0.1) < 0.1 * 0.1
        assert abs(sample.y_mm - 64 * 0.1) < 0.1 * 0.1

    def test_all_zero_frame_rejected(self):
        with pytest.raises(DegenerateInputError):
            centroid(IntensityFrame(values=np.zeros((4, 4)), pitch_mm=1.0))

    @pytest.mark.parametrize("profile", ["gaussian", "annular"])
    @pytest.mark.parametrize("grid", [dict(), ODD_GRID])
    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_two_axis_sums(self, profile, grid, seed):
        """Within 8 ULP of the intensity-weighted mean taken from two numpy axis sums."""
        for frame in synthesize_frames(6, SpotModel(profile=profile, **grid), 0.3e-3, seed):
            row_sums = frame.values.sum(axis=1)
            total = row_sums.sum()
            y = (row_sums @ (np.arange(frame.rows) + 0.5)) / total * frame.pitch_mm
            x = (frame.values.sum(axis=0) @ (np.arange(frame.cols) + 0.5)) / total * frame.pitch_mm
            sample = centroid(frame)
            assert abs(sample.x_mm - x) <= 8 * np.spacing(x)
            assert abs(sample.y_mm - y) <= 8 * np.spacing(y)

    @pytest.mark.parametrize("grid", [dict(), ODD_GRID])
    def test_memory_layout_leaves_the_centroid_unchanged(self, grid):
        """Offset, unaligned and Fortran-ordered copies give the same bits as the frame."""
        frame = synthesize_frames(1, SpotModel(**grid), 0.3e-3, rng_seed=19)[0]
        values, shape = frame.values, frame.values.shape
        offset = np.empty(values.size + 3)[3:].reshape(shape)
        unaligned = np.ndarray(shape, dtype=float, buffer=bytearray(values.nbytes + 8), offset=1)
        assert not unaligned.flags.aligned
        copies = [offset, unaligned, np.asfortranarray(values)]
        expected = centroid(frame)
        for copy in copies:
            copy[...] = values
            assert centroid(IntensityFrame(values=copy, pitch_mm=frame.pitch_mm)) == expected

    def test_negative_intensity_rejected(self):
        values = np.ones((3, 3))
        values[0, 0] = -1.0
        with pytest.raises(ValidationError):
            IntensityFrame(values=values, pitch_mm=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_intensity_rejected(self, value):
        values = np.ones((3, 4))
        values[1, 2] = value
        with pytest.raises(ValidationError):
            IntensityFrame(values=values, pitch_mm=1.0)

    @pytest.mark.parametrize("pitch", [0.0, -1.0, math.nan, math.inf])
    def test_non_positive_or_non_finite_pitch_rejected(self, pitch):
        with pytest.raises(ValidationError):
            IntensityFrame(values=np.ones((3, 4)), pitch_mm=pitch)


class TestWanderSigma:
    def test_identical_samples_give_zero(self):
        samples = [CentroidSample(1.0, 2.0)] * 5
        assert wander_sigma(samples) == 0.0

    def test_isotropic_gaussian_recovered(self):
        rng = np.random.default_rng(2)
        s_mm = 0.4
        n = 4000
        samples = [
            CentroidSample(x, y) for x, y in rng.normal(10.0, s_mm, size=(n, 2))
        ]
        estimate = wander_sigma(samples) * 1e3
        # five-sigma band of the combined-axis std estimator
        assert abs(estimate - s_mm) < 5.0 * s_mm / (2.0 * math.sqrt(n))

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(0.0, 0.3, size=(50, 2))
        a = wander_sigma([CentroidSample(x, y) for x, y in pts])
        b = wander_sigma([CentroidSample(x + 7.0, y - 4.0) for x, y in pts])
        assert a == pytest.approx(b, rel=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(DegenerateInputError):
            wander_sigma([CentroidSample(0.0, 0.0)])


class TestFriedChain:
    def test_reference_coherence_length(self):
        r0 = fried_parameter(0.33e-3, GEOMETRY)
        assert r0 == pytest.approx(0.172176711163, rel=1e-10)

    def test_inverse_proportionality_in_sigma(self):
        r0 = fried_parameter(0.2e-3, GEOMETRY)
        assert fried_parameter(0.4e-3, GEOMETRY) == pytest.approx(r0 / 2.0, rel=1e-12)

    def test_proportionality_in_path_length(self):
        doubled = LinkGeometry(length_m=420.0, wavelength_m=850e-9)
        assert fried_parameter(0.33e-3, doubled) == pytest.approx(
            2.0 * fried_parameter(0.33e-3, GEOMETRY), rel=1e-12
        )

    def test_reference_structure_constant(self):
        cn2 = cn2_from_fried(0.172176711163, GEOMETRY)
        assert cn2 == pytest.approx(3.86629011843e-15, rel=1e-10)

    def test_power_law(self):
        base = cn2_from_fried(0.17, GEOMETRY)
        assert cn2_from_fried(0.34, GEOMETRY) == pytest.approx(
            base * 2.0 ** (-5.0 / 3.0), rel=1e-12
        )

    def test_round_trip_through_defining_integral(self):
        r0 = 0.17
        cn2 = cn2_from_fried(r0, GEOMETRY)
        k = GEOMETRY.wavevector
        back = (FRIED_CN2_CONSTANT * k**2 * cn2 * GEOMETRY.length_m) ** (-3.0 / 5.0)
        assert back == pytest.approx(r0, rel=1e-10)

    def test_dimensional_scaling(self):
        """sigma, L and lambda scalings follow the stated power laws."""
        scaled = LinkGeometry(length_m=210.0, wavelength_m=2 * 850e-9)
        assert fried_parameter(0.33e-3, scaled) == pytest.approx(
            2.0 * fried_parameter(0.33e-3, GEOMETRY), rel=1e-12
        )
        # cn2(r0; k/2, L) = r0^(-5/3) / (0.423 (k/2)^2 L) = 4 x cn2(r0; k, L)
        assert cn2_from_fried(0.17, scaled) == pytest.approx(
            4.0 * cn2_from_fried(0.17, GEOMETRY), rel=1e-12
        )

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    def test_non_finite_or_zero_geometry_rejected(self, value):
        for fields in ({"length_m": value, "wavelength_m": 850e-9},
                       {"length_m": 210.0, "wavelength_m": value}):
            with pytest.raises(ValidationError):
                LinkGeometry(**fields)

    def test_zero_sigma_rejected(self):
        with pytest.raises(DegenerateInputError):
            fried_parameter(0.0, GEOMETRY)

    @pytest.mark.parametrize("field", ["sigma_m", "r0", "cn2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    def test_estimate_rejects_non_finite_or_zero_fields(self, field, value):
        fields = dict(sigma_m=3.3e-4, r0=0.17, cn2=3.9e-15)
        fields[field] = value
        with pytest.raises(ValidationError):
            TurbulenceEstimate(**fields)

    def test_weak_turbulence_flag(self):
        assert is_weak_turbulence(0.015, 0.17)
        assert not is_weak_turbulence(0.20, 0.17)


class TestSynthesis:
    def test_zero_wander_freezes_centroids(self):
        frames = synthesize_frames(5, SpotModel(), wander_std_m=0.0, rng_seed=4)
        samples = [centroid(f) for f in frames]
        assert all(s == samples[0] for s in samples)

    @pytest.mark.parametrize("profile", ["gaussian", "annular"])
    def test_pipeline_recovers_wander(self, profile):
        spot = SpotModel(rows=96, cols=96, pitch_mm=0.1, waist_mm=0.8, profile=profile)
        s = 0.33e-3
        frames = synthesize_frames(177, spot, wander_std_m=s, rng_seed=5)
        estimate = wander_sigma([centroid(f) for f in frames])
        assert abs(estimate - s) < 5.0 * s / (2.0 * math.sqrt(177))

    def test_annular_and_gaussian_centroids_agree(self):
        kwargs = dict(rows=96, cols=96, pitch_mm=0.1, waist_mm=0.8)
        ring = synthesize_frames(20, SpotModel(profile="annular", **kwargs), 0.3e-3, 6)
        bell = synthesize_frames(20, SpotModel(profile="gaussian", **kwargs), 0.3e-3, 6)
        for a, b in zip(ring, bell):
            ca, cb = centroid(a), centroid(b)
            assert ca.x_mm == pytest.approx(cb.x_mm, abs=1e-6)
            assert ca.y_mm == pytest.approx(cb.y_mm, abs=1e-6)

    def test_end_to_end_estimate(self):
        spot = SpotModel(rows=96, cols=96, pitch_mm=0.1, waist_mm=0.8)
        frames = synthesize_frames(177, spot, wander_std_m=0.33e-3, rng_seed=7)
        estimate = estimate_turbulence([centroid(f) for f in frames], GEOMETRY)
        sigma = estimate.sigma_m
        assert estimate.r0 == pytest.approx(fried_parameter(sigma, GEOMETRY), rel=1e-12)
        assert estimate.cn2 == pytest.approx(cn2_from_fried(estimate.r0, GEOMETRY), rel=1e-12)
        assert 0.12 < estimate.r0 < 0.25

    def test_frozen_spot_makes_estimate_degenerate(self):
        frames = synthesize_frames(5, SpotModel(), wander_std_m=0.0, rng_seed=8)
        with pytest.raises(DegenerateInputError):
            estimate_turbulence([centroid(f) for f in frames], GEOMETRY)

    @pytest.mark.parametrize("profile", ["gaussian", "annular"])
    @pytest.mark.parametrize("waist_mm", [1.0, 1.28])
    @pytest.mark.parametrize("n", [3, 5, 7, 177])
    def test_frozen_spot_has_exactly_zero_wander(self, profile, waist_mm, n):
        frames = synthesize_frames(n, SpotModel(waist_mm=waist_mm, profile=profile), 0.0)
        samples = [centroid(f) for f in frames]
        assert wander_sigma(samples) == 0.0
        with pytest.raises(DegenerateInputError):
            estimate_turbulence(samples, GEOMETRY)

    def test_oversized_spot_rejected(self):
        with pytest.raises(ValidationError):
            SpotModel(rows=32, cols=32, pitch_mm=0.05, waist_mm=1.0)

    @pytest.mark.parametrize("name", ["pitch_mm", "waist_mm"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_spot_rejected(self, name, value):
        with pytest.raises(ValidationError):
            SpotModel(**{name: value})

    @pytest.mark.parametrize("profile", ["gaussian", "annular"])
    def test_frames_match_direct_formula(self, profile):
        """Each frame equals exp(-2 r^2/w^2) (times r^2/w^2 if annular) on a non-square grid."""
        spot = SpotModel(rows=40, cols=56, pitch_mm=0.1, waist_mm=0.5, profile=profile)
        n, wander_mm, seed = 6, 0.3, 14
        frames = synthesize_frames(n, spot, wander_mm * 1e-3, rng_seed=seed)
        offsets = np.random.default_rng(seed).normal(0.0, wander_mm, size=(n, 2))
        xx, yy = np.meshgrid((np.arange(56) + 0.5) * 0.1, (np.arange(40) + 0.5) * 0.1)
        cx, cy = 0.5 * 56 * 0.1, 0.5 * 40 * 0.1
        assert len(frames) == n
        for frame, (dx, dy) in zip(frames, offsets):
            r_sq = ((xx - (cx + dx)) ** 2 + (yy - (cy + dy)) ** 2) / 0.5**2
            expected = np.exp(-2.0 * r_sq) * (r_sq if profile == "annular" else 1.0)
            assert frame.values.shape == (40, 56)
            assert np.max(np.abs(frame.values - expected)) <= 1e-13 * expected.max()

    def test_deterministic_per_seed(self):
        a = synthesize_frames(3, SpotModel(), 0.3e-3, rng_seed=9)
        b = synthesize_frames(3, SpotModel(), 0.3e-3, rng_seed=9)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.values, fb.values)

    @pytest.mark.parametrize("profile", ["gaussian", "annular"])
    @pytest.mark.parametrize("grid", [dict(), dict(rows=40, cols=56, pitch_mm=0.1, waist_mm=0.5),
                                      UNDERFLOW_GRID, ODD_GRID])
    def test_frames_equal_the_buffered_construction(self, profile, grid):
        """Bit for bit (signed zeros included) the frames of one (n, rows, cols) buffer."""
        spot = SpotModel(profile=profile, **grid)
        n, seed = 7, 16
        offsets = np.random.default_rng(seed).normal(0.0, 0.3, size=(n, 2))
        x = (np.arange(spot.cols) + 0.5) * spot.pitch_mm
        y = (np.arange(spot.rows) + 0.5) * spot.pitch_mm
        cx = 0.5 * spot.cols * spot.pitch_mm + offsets[:, :1]
        cy = 0.5 * spot.rows * spot.pitch_mm + offsets[:, 1:]
        ux = (x - cx) ** 2 / spot.waist_mm**2
        uy = (y - cy) ** 2 / spot.waist_mm**2
        expected = np.exp(-2.0 * uy)[:, :, None] * np.exp(-2.0 * ux)[:, None, :]
        if profile == "annular":
            expected *= uy[:, :, None] + ux[:, None, :]
        assert (expected == 0.0).any() == (grid is UNDERFLOW_GRID)
        frames = synthesize_frames(n, spot, 0.3e-3, rng_seed=seed)
        assert len(frames) == n
        for i in range(n):
            assert frames[i].values.tobytes() == expected[i].tobytes()

    def test_indexing_follows_the_sequence_contract(self):
        frames = synthesize_frames(4, SpotModel(rows=40, cols=56, pitch_mm=0.1, waist_mm=0.5),
                                   0.3e-3, rng_seed=17)
        assert len(frames) == 4
        assert np.array_equal(frames[-1].values, frames[3].values)
        assert not np.array_equal(frames[-1].values, frames[2].values)
        with pytest.raises(IndexError):
            frames[4]
        with pytest.raises(IndexError):
            frames[-5]
        assert len(list(frames)) == 4
        (frame,) = synthesize_frames(1, SpotModel(), 0.0)
        assert frame.values.shape == (256, 256)

    @pytest.mark.parametrize("profile", ["gaussian", "annular"])
    def test_each_read_is_a_fresh_array(self, profile):
        frames = synthesize_frames(3, SpotModel(profile=profile), 0.3e-3, rng_seed=18)
        first = frames[1].values
        kept = first.copy()
        first += 1.0
        again = frames[1].values
        assert again is not first
        assert np.array_equal(again, kept)
        assert np.array_equal(frames[0].values, synthesize_frames(
            3, SpotModel(profile=profile), 0.3e-3, rng_seed=18)[0].values)

    @pytest.mark.parametrize("wander", [math.nan, math.inf, -1e-3])
    def test_bad_wander_rejected_at_the_call(self, wander):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="wander_std_m"):
                synthesize_frames(3, SpotModel(), wander)

    def test_centroiding_177_frames_holds_one_frame_at_a_time(self):
        """A (177, 256, 256) buffer would be 92.8 MB; one frame is 0.5 MB."""
        tracemalloc.start()
        try:
            samples = [centroid(f) for f in synthesize_frames(177, SpotModel(), 0.33e-3)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(samples) == 177
        assert peak < 8e6


class TestFrameFiles:
    def test_round_trip(self, tmp_path):
        frame = synthesize_frames(1, SpotModel(rows=16, cols=12, waist_mm=0.05,
                                               pitch_mm=0.1), 0.0, 10)[0]
        path = tmp_path / "frame.txt"
        write_frame(path, frame)
        back = read_frame(path)
        assert back.rows == 16 and back.cols == 12
        assert back.pitch_mm == frame.pitch_mm
        assert np.allclose(back.values, frame.values, rtol=1e-9)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("16 twelve 0.1\n")
        with pytest.raises(ValidationError):
            read_frame(path)

    @pytest.mark.parametrize("text", ["0 3 0.1\n", "2 -1 0.1\n1 2\n", "2 3 0.1\n",
                                      "2 3 0.1\n\n# no values\n"])
    def test_empty_grid_refused_without_warning(self, tmp_path, text):
        path = tmp_path / "empty.txt"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                read_frame(path)

    def test_wrong_grid_shape(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("2 3 0.1\n1 2 3\n")
        with pytest.raises(ValidationError):
            read_frame(path)

"""State algebra: q-plate maps, frame rotations, measurement probabilities."""

import math

import numpy as np
import pytest

from helpers import random_hybrid_states, random_polarization_states, random_unit_pairs

from oamqkd import (
    Encoding,
    HybridState,
    PolarizationState,
    ProductState,
    ValidationError,
    basis,
    embed_hybrid,
    measure_probabilities,
    polarization_qber_theory,
    qplate_inverse,
    qplate_map,
    rotate_frame,
)

TOL = 1e-12
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_qplate_sends_right_circular_to_lr():
    h = qplate_map(PolarizationState(1.0, 0.0))
    assert h.amp_lr == 1.0 and h.amp_rl == 0.0


def test_qplate_maps_h_to_equal_hybrid_superposition():
    h = qplate_map(PolarizationState(INV_SQRT2, INV_SQRT2))
    assert abs(h.amp_lr - INV_SQRT2) < TOL
    assert abs(h.amp_rl - INV_SQRT2) < TOL


def test_qplate_round_trip_is_identity():
    rng = np.random.default_rng(11)
    for p in random_polarization_states(rng, 500):
        back = qplate_inverse(qplate_map(p))
        assert abs(back.amp_r - p.amp_r) < TOL
        assert abs(back.amp_l - p.amp_l) < TOL


def test_qplate_inverse_basic_cases():
    p = qplate_inverse(HybridState(1.0, 0.0))
    assert p.amp_r == 1.0 and p.amp_l == 0.0
    p = qplate_inverse(HybridState(INV_SQRT2, -INV_SQRT2))
    assert abs(p.amp_r - INV_SQRT2) < TOL
    assert abs(p.amp_l + INV_SQRT2) < TOL


def test_qplate_ops_preserve_norm():
    rng = np.random.default_rng(12)
    for h in random_hybrid_states(rng, 100):
        p = qplate_inverse(h)
        assert abs(abs(p.amp_r) ** 2 + abs(p.amp_l) ** 2 - 1.0) < TOL


def test_non_normalized_states_rejected():
    with pytest.raises(ValidationError):
        PolarizationState(1.0, 1.0)
    with pytest.raises(ValidationError):
        HybridState(0.5, 0.5)
    with pytest.raises(ValidationError):
        ProductState(np.array([1.0, 1.0, 0.0, 0.0]))
    # NaN fails every comparison, so each norm check must refuse it rather than pass it
    with pytest.raises(ValidationError, match="not normalized"):
        PolarizationState(math.nan, 0.0)
    with pytest.raises(ValidationError, match="not normalized"):
        HybridState(0.0, complex(0.0, math.nan))
    with pytest.raises(ValidationError, match="not normalized"):
        ProductState(np.array([1.0, math.nan, 0.0, 0.0]))


def test_product_state_of_the_wrong_shape_rejected():
    with pytest.raises(ValidationError, match="needs 4 amplitudes, got shape"):
        ProductState(np.array([1.0, 0.0]))


def test_measuring_a_non_state_raises_type_error():
    with pytest.raises(TypeError, match="cannot measure object of type tuple"):
        measure_probabilities((1.0, 0.0), basis("Z", Encoding.HYBRID))


def test_measurement_refuses_nan_probabilities():
    state = PolarizationState(1.0, 0.0)
    object.__setattr__(state, "amp_r", complex(math.nan))  # past the constructor's check
    with pytest.raises(ValidationError, match="weight outside the measured subspace"):
        measure_probabilities(state, basis("Z", Encoding.POLARIZATION))


def test_embedded_hybrid_occupies_only_zero_momentum_elements():
    prod = embed_hybrid(HybridState(INV_SQRT2, 1j * INV_SQRT2))
    assert prod.amps[1] == 0.0 and prod.amps[2] == 0.0
    assert abs(prod.amps[3] - INV_SQRT2) < TOL  # |L>|r>
    assert abs(prod.amps[0] - 1j * INV_SQRT2) < TOL  # |R>|l>


def test_rotation_leaves_embedded_hybrid_states_unchanged():
    rng = np.random.default_rng(13)
    thetas = rng.uniform(0.0, 2.0 * math.pi, 20)
    for h in random_hybrid_states(rng, 50):
        prod = embed_hybrid(h)
        for theta in thetas[:4]:
            rotated = rotate_frame(prod, float(theta))
            assert np.max(np.abs(rotated.amps - prod.amps)) < TOL


@pytest.mark.parametrize("turns", [1, -3, 1000])
def test_whole_turns_of_the_frame_change_no_state(turns):
    prod = ProductState(np.array([0.5, 0.5, 0.5j, -0.5]))
    pol = PolarizationState(0.6, 0.8j)
    for theta in (0.7, -2.0, math.pi):
        shifted = theta + turns * 2.0 * math.pi
        assert np.allclose(rotate_frame(prod, shifted).amps, rotate_frame(prod, theta).amps,
                           rtol=0.0, atol=1e-9)
        assert np.allclose(rotate_frame(pol, shifted).amplitudes,
                           rotate_frame(pol, theta).amplitudes, rtol=0.0, atol=1e-9)


def test_angles_within_half_a_turn_are_used_as_given():
    """For |theta| <= pi the phases are ``exp(-i m theta)`` of theta itself, bit for bit."""
    amps = np.array([0.5, 0.5, 0.5j, -0.5])
    for theta in (0.0, 0.3, -1.2, math.pi, -math.pi):
        expected = amps * np.exp(-1j * np.array([0.0, -2.0, 2.0, 0.0]) * theta)
        assert np.array_equal(rotate_frame(ProductState(amps), theta).amps, expected)


def test_huge_angle_leaves_an_embedded_hybrid_state_unchanged():
    """At theta = 1e308, 2 theta overflows; the reduced angle keeps the state finite."""
    prod = embed_hybrid(HybridState(0.6, 0.8j))
    rotated = rotate_frame(prod, 1e308)
    assert np.array_equal(rotated.amps, prod.amps)
    for label in ("Z", "X"):
        basis_ = basis(label, Encoding.HYBRID)
        assert measure_probabilities(rotated, basis_) == measure_probabilities(prod, basis_)


def test_bare_hybrid_qubit_is_rotated_only_through_its_embedding():
    with pytest.raises(TypeError, match="HybridState"):
        rotate_frame(HybridState(1.0, 0.0), 0.3)


def test_rotation_by_quarter_turn_maps_h_to_v():
    h_state = basis("X", Encoding.POLARIZATION).state(0)
    rotated = rotate_frame(h_state, math.pi / 2.0)
    p0, p1 = measure_probabilities(rotated, basis("X", Encoding.POLARIZATION))
    assert abs(p0) < TOL and abs(p1 - 1.0) < TOL


def test_circular_states_are_rotation_invariant_in_probability():
    r_state = basis("Z", Encoding.POLARIZATION).state(0)
    for theta in (0.3, 1.0, 2.5, 5.0):
        rotated = rotate_frame(r_state, theta)
        p0, p1 = measure_probabilities(rotated, basis("Z", Encoding.POLARIZATION))
        assert abs(p0 - 1.0) < TOL and abs(p1) < TOL


def test_rotation_preserves_norm_on_product_states():
    rng = np.random.default_rng(14)
    z = rng.standard_normal((200, 4)) + 1j * rng.standard_normal((200, 4))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    for row in z:
        rotated = rotate_frame(ProductState(row), 0.7)
        assert abs(np.sum(np.abs(rotated.amps) ** 2) - 1.0) < TOL


def test_measurement_of_basis_eigenstate():
    z0 = basis("Z", Encoding.HYBRID).state(0)
    p0, p1 = measure_probabilities(z0, basis("Z", Encoding.HYBRID))
    assert p0 == pytest.approx(1.0, abs=TOL)
    assert p1 == pytest.approx(0.0, abs=TOL)


@pytest.mark.parametrize("encoding", [Encoding.POLARIZATION, Encoding.HYBRID])
def test_mutually_unbiased_bases(encoding):
    z = basis("Z", encoding)
    x = basis("X", encoding)
    for i in range(2):
        for j in range(2):
            overlap_sq = abs(np.vdot(x.kets[i], z.kets[j])) ** 2
            assert abs(overlap_sq - 0.5) < TOL


@pytest.mark.parametrize("encoding", [Encoding.POLARIZATION, Encoding.HYBRID])
def test_z_state_measured_in_x_is_unbiased(encoding):
    for bit in (0, 1):
        state = basis("Z", encoding).state(bit)
        p0, p1 = measure_probabilities(state, basis("X", encoding))
        assert abs(p0 - 0.5) < TOL and abs(p1 - 0.5) < TOL


def test_rotated_h_measured_in_linear_basis_follows_cos_squared():
    h_state = basis("X", Encoding.POLARIZATION).state(0)
    for theta in np.linspace(0.0, 2.0 * math.pi, 17):
        rotated = rotate_frame(h_state, float(theta))
        p0, p1 = measure_probabilities(rotated, basis("X", Encoding.POLARIZATION))
        assert abs(p0 - math.cos(theta) ** 2) < TOL
        assert abs(p1 - math.sin(theta) ** 2) < TOL


def test_misalignment_law_matches_four_state_average():
    """The mean error over the four polarization protocol states is sin^2/2."""
    for theta in np.linspace(0.0, math.pi, 13):
        errors = []
        for label in ("Z", "X"):
            b = basis(label, Encoding.POLARIZATION)
            for bit in (0, 1):
                rotated = rotate_frame(b.state(bit), float(theta))
                probs = measure_probabilities(rotated, b)
                errors.append(probs[1 - bit])
        assert abs(np.mean(errors) - polarization_qber_theory(float(theta))) < TOL


def test_qber_theory_values():
    assert polarization_qber_theory(0.0) == 0.0
    assert polarization_qber_theory(math.radians(45.0)) == pytest.approx(0.25, abs=TOL)
    assert polarization_qber_theory(math.radians(60.0)) == pytest.approx(0.375, abs=TOL)


def test_hybrid_measurement_invariance_over_angle_grid():
    rng = np.random.default_rng(15)
    states = random_hybrid_states(rng, 25)
    for h in states:
        reference = {
            label: measure_probabilities(embed_hybrid(h), basis(label, Encoding.HYBRID))
            for label in ("Z", "X")
        }
        for theta in np.linspace(0.0, 2.0 * math.pi, 9, endpoint=False):
            rotated = rotate_frame(embed_hybrid(h), float(theta))
            for label in ("Z", "X"):
                probs = measure_probabilities(rotated, basis(label, Encoding.HYBRID))
                assert abs(probs[0] - reference[label][0]) < TOL
                assert abs(probs[1] - reference[label][1]) < TOL


def test_encoding_mismatch_raises():
    with pytest.raises(ValidationError):
        measure_probabilities(HybridState(1.0, 0.0), basis("Z", Encoding.POLARIZATION))
    with pytest.raises(ValidationError):
        measure_probabilities(PolarizationState(1.0, 0.0), basis("Z", Encoding.HYBRID))
    with pytest.raises(ValidationError):
        measure_probabilities(embed_hybrid(HybridState(1.0, 0.0)), basis("X", Encoding.POLARIZATION))


def test_product_state_outside_hybrid_subspace_rejected():
    stray = ProductState(np.array([0.0, 1.0, 0.0, 0.0]))  # pure m = -2 component
    with pytest.raises(ValidationError):
        measure_probabilities(stray, basis("Z", Encoding.HYBRID))


def test_unknown_basis_label_rejected():
    with pytest.raises(ValidationError):
        basis("Y", Encoding.POLARIZATION)


def test_global_phase_does_not_change_probabilities():
    rng = np.random.default_rng(16)
    for (a, b) in random_unit_pairs(rng, 50):
        h = HybridState(a, b)
        phased = HybridState(a * np.exp(1j * 0.9), b * np.exp(1j * 0.9))
        for label in ("Z", "X"):
            p = measure_probabilities(h, basis(label, Encoding.HYBRID))
            q = measure_probabilities(phased, basis(label, Encoding.HYBRID))
            assert abs(p[0] - q[0]) < TOL

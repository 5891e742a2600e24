import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doalab.arrays import (
    AnalogWeights,
    ArrayConfig,
    EmitterScenario,
    SnapshotBatch,
    analog_combine,
    steering_vector,
    subarray_gain,
    synthesize_snapshots,
)
from doalab.rng import trial_rng


class TestArrayConfig:
    def test_partition_invariant(self):
        cfg = ArrayConfig(64, 4, 12, 16)
        assert cfg.n_had == 48 and cfg.n_channels == 28
        assert cfg.fd_proportion == 0.25

    def test_bad_partition_rejected(self):
        with pytest.raises(ValueError):
            ArrayConfig(64, 4, 12, 8)

    def test_nonpositive_spacing_rejected(self):
        with pytest.raises(ValueError):
            ArrayConfig(8, 2, 4, 0, spacing=0.0)

    def test_default_spacing_is_half(self):
        assert ArrayConfig.fully_digital(8).spacing == 0.5

    def test_two_layer_rounds_down(self):
        # eta 0.3 of 64 with M=4 -> n_fd 19 -> 18 -> ... down to 16
        cfg = ArrayConfig.two_layer(64, 4, 0.3)
        assert cfg.n_fd <= 0.3 * 64
        assert (64 - cfg.n_fd) % 4 == 0

    def test_pure_had_and_fd_extremes(self):
        assert ArrayConfig.pure_had(64, 4).fd_proportion == 0.0
        assert ArrayConfig.fully_digital(64).fd_proportion == 1.0


class TestEmitterScenario:
    def test_direction_bounds(self):
        with pytest.raises(ValueError):
            EmitterScenario((90.0,), (1.0,))

    def test_snr(self):
        scen = EmitterScenario.single_emitter(0.0, -20.0, 200)
        assert scen.snr_db == pytest.approx(-20.0)
        assert scen.snr_linear == pytest.approx(0.01)

    def test_noise_only(self):
        scen = EmitterScenario.noise_only(16)
        assert scen.n_emitters == 0


class TestSteeringVector:
    def test_broadside_all_ones(self):
        np.testing.assert_allclose(steering_vector(4, 0.0), np.ones(4))

    def test_quarter_wavelength_phase_step(self):
        # u = 0.5 at half-wavelength spacing: phase step exactly pi/2
        np.testing.assert_allclose(steering_vector(4, 0.5),
                                   [1, 1j, -1, -1j], atol=1e-12)

    def test_conjugate_symmetry(self):
        np.testing.assert_allclose(steering_vector(8, -0.3),
                                   np.conj(steering_vector(8, 0.3)))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            steering_vector(8, 1.2)

    @given(st.floats(-1.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_vandermonde_ratio(self, u):
        a = steering_vector(8, u, 0.5)
        ratios = a[1:] / a[:-1]
        np.testing.assert_allclose(ratios, ratios[0], atol=1e-12)


class TestSubarrayGain:
    def test_coherent_sum(self):
        assert subarray_gain(4, 0.5, 0.3, 0.3) == pytest.approx(2.0)

    def test_null(self):
        assert abs(subarray_gain(2, 0.5, 1.0, 0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_single_element(self):
        for u in (-0.7, 0.0, 0.4):
            assert subarray_gain(1, 0.5, u, 0.2) == pytest.approx(1.0)


class TestSynthesize:
    def test_noise_only_power(self):
        cfg = ArrayConfig.fully_digital(4)
        scen = EmitterScenario.noise_only(20_000)
        batch = synthesize_snapshots(cfg, scen, trial_rng(3))
        power = np.mean(np.abs(batch.samples) ** 2, axis=1)
        # per-sample power is Exp(1): se of the mean is 1/sqrt(L)
        np.testing.assert_allclose(power, 1.0, atol=3.0 / np.sqrt(20_000))

    def test_noiseless_rank_one(self):
        cfg = ArrayConfig.fully_digital(8)
        scen = EmitterScenario((20.0,), (1.0,), noise_power=1e-30, n_snapshots=5)
        x = synthesize_snapshots(cfg, scen, trial_rng(0)).samples
        a = steering_vector(8, np.sin(np.deg2rad(20.0)))
        for t in range(5):
            ratio = x[:, t] / a
            np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9)

    def test_seed_determinism(self):
        cfg = ArrayConfig.two_layer(16, 4, 0.25)
        scen = EmitterScenario.single_emitter(10.0, 0.0, 32)
        x1 = synthesize_snapshots(cfg, scen, trial_rng(7, 5)).samples
        x2 = synthesize_snapshots(cfg, scen, trial_rng(7, 5)).samples
        assert np.array_equal(x1, x2)

    def test_gaussian_model(self):
        scen = EmitterScenario((0.0,), (2.0,), n_snapshots=50_000,
                               signal_model="gaussian")
        x = synthesize_snapshots(ArrayConfig.fully_digital(1), scen,
                                 trial_rng(1)).samples
        assert np.mean(np.abs(x) ** 2) == pytest.approx(3.0, rel=0.05)


class TestAnalogCombine:
    def test_identity_partition(self):
        # M=1: combining permutes nothing and scales by 1
        cfg = ArrayConfig(4, 1, 4, 0)
        scen = EmitterScenario.single_emitter(5.0, 10.0, 8)
        batch = synthesize_snapshots(cfg, scen, trial_rng(0))
        out = analog_combine(batch, cfg, AnalogWeights.broadside(cfg))
        np.testing.assert_allclose(out.samples, batch.samples)

    def test_stage_contract(self):
        cfg = ArrayConfig(4, 2, 2, 0)
        scen = EmitterScenario.single_emitter(5.0, 10.0, 4)
        batch = synthesize_snapshots(cfg, scen, trial_rng(0))
        out = analog_combine(batch, cfg, AnalogWeights.broadside(cfg))
        assert out.stage == "analog-combined"
        with pytest.raises(ValueError):
            analog_combine(out, cfg, AnalogWeights.broadside(cfg))

    def test_matched_steering_coherent_gain(self):
        u = 0.37
        cfg = ArrayConfig.pure_had(16, 4)
        scen = EmitterScenario((np.degrees(np.arcsin(u)),), (1.0,),
                               noise_power=1e-30, n_snapshots=3)
        batch = synthesize_snapshots(cfg, scen, trial_rng(2))
        out = analog_combine(batch, cfg, AnalogWeights.steered(cfg, u))
        # channel k = sqrt(M) exp(i 2 pi d M k u) s(t) up to shared phase
        kk = np.arange(cfg.k_sub)
        expected = 2.0 * np.exp(2j * np.pi * 0.5 * 4 * kk * u)
        for t in range(3):
            ratio = out.samples[:, t] / expected
            np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9)

    def test_noise_power_preserved(self):
        cfg = ArrayConfig.two_layer(16, 4, 0.25)
        scen = EmitterScenario.noise_only(12_000)
        batch = synthesize_snapshots(cfg, scen, trial_rng(11))
        out = analog_combine(batch, cfg, AnalogWeights.steered(cfg, 0.33))
        power = np.mean(np.abs(out.samples) ** 2, axis=1)
        np.testing.assert_allclose(power, 1.0, atol=4.0 / np.sqrt(12_000))

    @given(st.floats(-0.9, 0.9))
    @settings(max_examples=20, deadline=None)
    def test_virtual_ula_spacing(self, u):
        # noiseless matched combining: inter-subarray phase 2 pi M d u
        cfg = ArrayConfig.pure_had(12, 3)
        scen = EmitterScenario((float(np.degrees(np.arcsin(u))),),
                               (1.0,), noise_power=1e-30, n_snapshots=1)
        batch = synthesize_snapshots(cfg, scen, trial_rng(0))
        out = analog_combine(batch, cfg, AnalogWeights.steered(cfg, u))
        ratios = out.samples[1:, 0] / out.samples[:-1, 0]
        np.testing.assert_allclose(
            ratios, np.exp(2j * np.pi * 3 * 0.5 * u), rtol=1e-8)


class TestAnalogWeights:
    def test_modulus_enforced(self):
        with pytest.raises(ValueError):
            AnalogWeights(np.ones((2, 4)))

    def test_steered_modulus(self):
        cfg = ArrayConfig.pure_had(8, 4)
        w = AnalogWeights.steered(cfg, 0.4)
        np.testing.assert_allclose(np.abs(w.weights), 0.5)


class TestSnapshotBatch:
    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            SnapshotBatch(np.array([[np.nan + 0j]]), "element")

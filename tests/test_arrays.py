import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doalab.arrays import (
    CONSTANT_MODULUS,
    GAUSSIAN,
    ArrayConfig,
    EmitterScenario,
    analog_combine,
    steering_vector,
    subarray_gain,
    synthesize_snapshot_rows,
    synthesize_snapshots,
)
from doalab.rng import TrialStreams, rekey, trial_rng


def synthesize_oracle(cfg, scen, rng):
    """One trial's element-level snapshots, the emitter's (if any) drawn
    first, then unit noise: the per-trial synthesis that
    ``synthesize_snapshot_rows`` stacks."""
    n, t = cfg.n_total, scen.n_snapshots
    x = np.zeros((n, t), dtype=np.complex128)
    for u in scen.direction_sines:
        if scen.signal_model == CONSTANT_MODULUS:
            s = np.sqrt(scen.power) * np.exp(2j * np.pi * rng.random(t))
        else:
            s = np.sqrt(scen.power / 2.0) * (rng.standard_normal(t)
                                             + 1j * rng.standard_normal(t))
        x += np.outer(steering_vector(n, u, cfg.spacing), s)
    sigma = np.sqrt(1.0 / 2.0)
    x += sigma * (rng.standard_normal((n, t)) + 1j * rng.standard_normal((n, t)))
    return x


class TestArrayConfig:
    def test_partition_invariant(self):
        cfg = ArrayConfig(64, 4, 12, 16)
        assert cfg.n_had == 48 and cfg.k_sub + cfg.n_fd == 28
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
            EmitterScenario(90.0, 1.0)

    def test_snr(self):
        # the emitter's power is the linear per-antenna SNR
        scen = EmitterScenario.single_emitter(0.0, -20.0, 200)
        assert scen.power == pytest.approx(0.01)

    def test_noise_only(self):
        scen = EmitterScenario.noise_only(16)
        assert scen.n_emitters == 0 and scen.direction_sines.shape == (0,)
        # noise alone carries no emitter power
        with pytest.raises(ValueError):
            EmitterScenario(None, 1.0)

    @pytest.mark.parametrize("theta_deg", [0.0, None])
    @pytest.mark.parametrize("power", [np.inf, np.nan])
    def test_non_finite_powers_rejected(self, theta_deg, power):
        with pytest.raises(ValueError):
            EmitterScenario(theta_deg, power)

    def test_overflowing_snr_rejected(self):
        # 1e400 dB parses as an infinite SNR
        with pytest.raises(ValueError):
            EmitterScenario.single_emitter(0.0, float("1e400"), 16)


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
        # the broadside beam adds its M antennas in phase at u = 0
        assert subarray_gain(4, 0.5, 0.0) == pytest.approx(2.0)

    def test_null(self):
        assert abs(subarray_gain(2, 0.5, 1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_single_element(self):
        for u in (-0.7, 0.0, 0.4):
            assert subarray_gain(1, 0.5, u) == pytest.approx(1.0)


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
        scen = EmitterScenario(20.0, 1e30, n_snapshots=5)
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
        scen = EmitterScenario(0.0, 2.0, n_snapshots=50_000,
                               signal_model="gaussian")
        x = synthesize_snapshots(ArrayConfig.fully_digital(1), scen,
                                 trial_rng(1)).samples
        assert np.mean(np.abs(x) ** 2) == pytest.approx(3.0, rel=0.05)


SCENARIOS = {
    "noise-only": (None, 0.0),
    "one-emitter": (-40.0, 2.0),
}


class TestSynthesizeRows:
    """The stacked synthesis against successive per-trial oracle draws,
    bit for bit."""

    @staticmethod
    def _scen(name, t, model):
        theta_deg, power = SCENARIOS[name]
        return EmitterScenario(theta_deg, power, t, model)

    @pytest.mark.parametrize("model", [CONSTANT_MODULUS, GAUSSIAN])
    @pytest.mark.parametrize("t", [1, 10])
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_matches_oracle(self, model, t, name):
        cfg = ArrayConfig.two_layer(20, 4, 0.2, 0.6)
        scen = self._scen(name, t, model)
        x = synthesize_snapshot_rows(cfg, scen, TrialStreams(8, range(6)), 3)
        assert x.shape == (6, 3, cfg.n_total, t) and x.dtype == np.complex128
        for i in range(6):
            rng = trial_rng(8, i)
            for r in range(3):
                assert x[i, r].tobytes() == synthesize_oracle(cfg, scen, rng).tobytes()

    @pytest.mark.parametrize("model", [CONSTANT_MODULUS, GAUSSIAN])
    def test_one_set_per_trial(self, model):
        # the per-trial call and the default count are the one-set case
        cfg = ArrayConfig.pure_had(12, 3)
        scen = self._scen("one-emitter", 4, model)
        x = synthesize_snapshot_rows(cfg, scen, [trial_rng(9, i) for i in range(3)])
        assert x.shape == (3, 1, 12, 4)
        for i in range(3):
            ref = synthesize_oracle(cfg, scen, trial_rng(9, i)).tobytes()
            assert x[i, 0].tobytes() == ref
            # SnapshotBatch carries the slice as it is: complex, channels x
            # snapshots
            samples = synthesize_snapshots(cfg, scen, trial_rng(9, i)).samples
            assert samples.shape == (12, 4) and samples.dtype == np.complex128
            assert samples.tobytes() == ref

    @pytest.mark.parametrize("model", [CONSTANT_MODULUS, GAUSSIAN])
    def test_independent_of_block_split(self, model):
        cfg = ArrayConfig.fully_digital(8)
        scen = self._scen("one-emitter", 3, model)
        whole = synthesize_snapshot_rows(cfg, scen, TrialStreams(10, range(10)), 4)
        for bounds in ((0, 3, 4, 10), tuple(range(11))):
            for a, b in zip(bounds[:-1], bounds[1:]):
                part = synthesize_snapshot_rows(
                    cfg, scen, [trial_rng(10, i) for i in range(a, b)], 4)
                assert part.tobytes() == whole[a:b].tobytes()

    @pytest.mark.parametrize("model", [CONSTANT_MODULUS, GAUSSIAN])
    def test_kept_draws_match_fresh_pass(self, model, monkeypatch):
        # a TrialStreams keeps its first pass per draw shape: a later call
        # of that shape, at another direction and power on another
        # partition of as many antennas, reads no stream and gives the
        # bits of a fresh pass; another set count is another shape
        from doalab import rng as rng_module

        cfg = ArrayConfig.two_layer(20, 4, 0.2, 0.6)
        other = ArrayConfig.pure_had(20, 5, 0.5)
        scen = self._scen("one-emitter", 3, model)
        later = EmitterScenario(40.0, 7.0, 3, model)
        streams = TrialStreams(8, range(6))
        synthesize_snapshot_rows(cfg, scen, streams, 3)
        opened = []

        def recording_rekey(rng, seed, index):
            opened.append(index)
            return rekey(rng, seed, index)

        monkeypatch.setattr(rng_module, "rekey", recording_rekey)
        x = synthesize_snapshot_rows(other, later, streams, 3)
        assert opened == []
        y = synthesize_snapshot_rows(other, later, streams, 2)
        assert opened == list(range(6))
        assert y.tobytes() == x[:, :2].tobytes()
        for i in range(6):
            rng = trial_rng(8, i)
            for r in range(3):
                ref = synthesize_oracle(other, later, rng)
                assert x[i, r].tobytes() == ref.tobytes()

    def test_nonfinite_rejected(self):
        class NanStream:
            """Stands in for a generator whose draws are not finite."""

            def random(self, out):
                out[...] = 0.5

            def standard_normal(self, out):
                out[...] = np.nan

        cfg = ArrayConfig.fully_digital(4)
        scen = EmitterScenario.single_emitter(10.0, 0.0, 2)
        with pytest.raises(ValueError, match="finite"):
            synthesize_snapshot_rows(cfg, scen, [trial_rng(0), NanStream()])
        with pytest.raises(ValueError, match="finite"):
            synthesize_snapshots(cfg, scen, NanStream())


class TestAnalogCombine:
    def test_identity_partition(self):
        # M=1: combining permutes nothing and scales by 1
        cfg = ArrayConfig(4, 1, 4, 0)
        scen = EmitterScenario.single_emitter(5.0, 10.0, 8)
        x = synthesize_snapshots(cfg, scen, trial_rng(0)).samples
        np.testing.assert_allclose(analog_combine(x, cfg), x)

    def test_stage_contract(self):
        # the input must be element-level: a combined array has k_sub rows
        cfg = ArrayConfig(4, 2, 2, 0)
        scen = EmitterScenario.single_emitter(5.0, 10.0, 4)
        x = synthesize_snapshots(cfg, scen, trial_rng(0)).samples
        out = analog_combine(x, cfg)
        assert out.shape == (cfg.k_sub + cfg.n_fd, 4)
        with pytest.raises(ValueError):
            analog_combine(out, cfg)

    def test_steer_length_checked(self):
        cfg = ArrayConfig.pure_had(8, 2)
        x = np.zeros((8, 1), dtype=complex)
        for u_steer in ([0.1], np.zeros(3), np.zeros((4, 1))):
            with pytest.raises(ValueError):
                analog_combine(x, cfg, u_steer)
        assert analog_combine(x, cfg, np.zeros(4)).shape == (4, 1)

    def test_matched_steering_coherent_gain(self):
        u = 0.37
        cfg = ArrayConfig.pure_had(16, 4)
        scen = EmitterScenario(np.degrees(np.arcsin(u)), 1e30, n_snapshots=3)
        x = synthesize_snapshots(cfg, scen, trial_rng(2)).samples
        out = analog_combine(x, cfg, u)
        # channel k = sqrt(M) exp(i 2 pi d M k u) s(t) up to shared phase
        kk = np.arange(cfg.k_sub)
        expected = 2.0 * np.exp(2j * np.pi * 0.5 * 4 * kk * u)
        for t in range(3):
            ratio = out[:, t] / expected
            np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9)

    def test_noise_power_preserved(self):
        cfg = ArrayConfig.two_layer(16, 4, 0.25)
        scen = EmitterScenario.noise_only(12_000)
        x = synthesize_snapshots(cfg, scen, trial_rng(11)).samples
        power = np.mean(np.abs(analog_combine(x, cfg, 0.33)) ** 2, axis=1)
        np.testing.assert_allclose(power, 1.0, atol=4.0 / np.sqrt(12_000))

    @given(st.floats(-0.9, 0.9))
    @settings(max_examples=20, deadline=None)
    def test_virtual_ula_spacing(self, u):
        # noiseless matched combining: inter-subarray phase 2 pi M d u
        cfg = ArrayConfig.pure_had(12, 3)
        scen = EmitterScenario(float(np.degrees(np.arcsin(u))), 1e30,
                               n_snapshots=1)
        x = synthesize_snapshots(cfg, scen, trial_rng(0)).samples
        out = analog_combine(x, cfg, u)
        ratios = out[1:, 0] / out[:-1, 0]
        np.testing.assert_allclose(
            ratios, np.exp(2j * np.pi * 3 * 0.5 * u), rtol=1e-8)


class TestAnalogWeights:
    def test_steered_modulus(self):
        # a unit impulse on element m reads out conj(w_m) on its own
        # subarray's channel alone: every phase has modulus 1/sqrt(M)
        cfg = ArrayConfig.pure_had(8, 4)
        for u_steer in (0.4, [0.4, -0.7]):
            w = analog_combine(np.eye(cfg.n_total, dtype=complex), cfg, u_steer)
            assert np.all(np.count_nonzero(w, axis=0) == 1)
            np.testing.assert_allclose(np.abs(w).sum(axis=0), 0.5)

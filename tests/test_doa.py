import numpy as np
import pytest

from doalab.arrays import ArrayConfig, EmitterScenario
from doalab.doa import (
    broadside_gain_ok,
    candidate_set,
    combine_estimates,
    fhad_root_music,
    had_root_music_classic,
    tlhad_estimate,
)
from doalab.errors import ConfigError
from doalab.rng import trial_rng


def _scen(theta_deg, snr_db, t=1):
    return EmitterScenario.single_emitter(theta_deg, snr_db, t)


class TestCandidateSet:
    def test_m4_half_wavelength(self):
        # M*d = 2: period 0.5, four candidates across [-1, 1)
        cs = candidate_set(0.1, 4, 0.5)
        assert cs.period == pytest.approx(0.5)
        np.testing.assert_allclose(cs.candidates, [-0.9, -0.4, 0.1, 0.6])

    def test_half_open_interval(self):
        # u = 0.0 with period 0.5: +1.0 is excluded, -1.0 included
        cs = candidate_set(0.0, 4, 0.5)
        np.testing.assert_allclose(cs.candidates, [-1.0, -0.5, 0.0, 0.5])

    def test_candidate_count_equals_m(self):
        for m in (2, 3, 4, 8):
            for u in (-0.73, -0.2, 0.0, 0.41):
                assert len(candidate_set(u, m, 0.5)) == m

    def test_no_ambiguity_below_half_wavelength(self):
        cs = candidate_set(0.3, 1, 0.5)
        np.testing.assert_allclose(cs.candidates, [0.3])

    def test_congruence(self):
        cs = candidate_set(0.17, 4, 0.5)
        resid = (cs.candidates - 0.17) / cs.period
        np.testing.assert_allclose(resid, np.round(resid), atol=1e-12)


class TestCombine:
    def test_equal_bounds_average(self):
        u, var = combine_estimates(0.2, 1e-4, 0.4, 1e-4)
        assert u == pytest.approx(0.3)
        assert var == pytest.approx(5e-5)

    def test_weights_favor_better_estimate(self):
        u, _ = combine_estimates(0.0, 1e-6, 1.0, 1e-2)
        assert u < 0.01

    def test_known_unequal_case(self):
        # J_a = 3, J_b = 1: u = (3*0.1 + 1*0.5)/4, var = 1/4
        u, var = combine_estimates(0.1, 1.0 / 3.0, 0.5, 1.0)
        assert u == pytest.approx(0.2)
        assert var == pytest.approx(0.25)

    def test_infinite_crlb_drops_that_estimate(self):
        u, var = combine_estimates(0.9, np.inf, 0.2, 1e-3)
        assert u == pytest.approx(0.2)
        assert var == pytest.approx(1e-3)

    def test_both_uninformative_rejected(self):
        with pytest.raises(ValueError):
            combine_estimates(0.1, np.inf, 0.2, np.inf)

    def test_nonpositive_crlb_rejected(self):
        with pytest.raises(ValueError):
            combine_estimates(0.1, -1.0, 0.2, 1.0)


class TestClassicEliminator:
    def test_noiseless_exact(self):
        cfg = ArrayConfig.pure_had(32, 4)
        theta = float(np.degrees(np.arcsin(0.3)))
        scen = EmitterScenario((theta,), (1.0,), noise_power=1e-12)
        est = had_root_music_classic(cfg, scen, trial_rng(0))
        assert est.u == pytest.approx(0.3, abs=1e-6)
        assert est.snapshots_used == 1 + len(est.candidates)
        assert est.method == "had-root-music"

    def test_high_snr_picks_right_branch(self):
        cfg = ArrayConfig.pure_had(64, 4)
        hits = 0
        for i in range(50):
            est = had_root_music_classic(cfg, _scen(20.0, 10.0), trial_rng(40, i))
            hits += abs(est.u - np.sin(np.radians(20.0))) < 0.1
        assert hits >= 48

    def test_rejects_fd_antennas(self):
        with pytest.raises(ConfigError):
            had_root_music_classic(ArrayConfig(8, 2, 3, 2), _scen(0.0, 0.0),
                                   trial_rng(0))

    def test_rejects_two_emitters(self):
        cfg = ArrayConfig.pure_had(16, 4)
        scen = EmitterScenario((0.0, 10.0), (1.0, 1.0))
        with pytest.raises(ConfigError):
            had_root_music_classic(cfg, scen, trial_rng(0))

    def test_no_bound_attached(self):
        # the harness bounds each SNR point once; the HAD eliminators
        # leave their estimates without one
        cfg = ArrayConfig.pure_had(32, 4)
        for fn in (had_root_music_classic, fhad_root_music):
            assert fn(cfg, _scen(10.0, 10.0), trial_rng(1)).crlb_rad2 is None


class TestFastEliminator:
    def test_two_snapshots(self):
        cfg = ArrayConfig.pure_had(32, 4)
        est = fhad_root_music(cfg, _scen(15.0, 10.0), trial_rng(2))
        assert est.snapshots_used == 2

    def test_noiseless_exact(self):
        cfg = ArrayConfig.pure_had(32, 4)
        theta = float(np.degrees(np.arcsin(-0.22)))
        scen = EmitterScenario((theta,), (1.0,), noise_power=1e-12)
        est = fhad_root_music(cfg, scen, trial_rng(3))
        assert est.u == pytest.approx(-0.22, abs=1e-6)

    def test_needs_enough_subarrays(self):
        # 2 subarrays cannot host 4 candidate subgroups
        cfg = ArrayConfig.pure_had(8, 4)
        with pytest.raises(ConfigError):
            fhad_root_music(cfg, _scen(10.0, 20.0), trial_rng(0))

    def test_high_snr_accuracy(self):
        cfg = ArrayConfig.pure_had(64, 4)
        hits = 0
        for i in range(50):
            est = fhad_root_music(cfg, _scen(20.0, 10.0), trial_rng(41, i))
            hits += abs(est.u - np.sin(np.radians(20.0))) < 0.1
        assert hits >= 45


class TestTwoLayer:
    def test_one_snapshot_high_snr(self):
        cfg = ArrayConfig(64, 4, 12, 16)
        est = tlhad_estimate(cfg, _scen(17.0, 20.0), trial_rng(5))
        assert est.snapshots_used == 1
        assert est.angle_deg == pytest.approx(17.0, abs=0.5)

    def test_noiseless_exact(self):
        cfg = ArrayConfig(64, 4, 12, 16)
        theta = float(np.degrees(np.arcsin(0.3)))
        scen = EmitterScenario((theta,), (1.0,), noise_power=1e-12)
        est = tlhad_estimate(cfg, scen, trial_rng(6))
        assert est.u == pytest.approx(0.3, abs=1e-6)

    def test_needs_fd_block(self):
        with pytest.raises(ConfigError):
            tlhad_estimate(ArrayConfig.pure_had(64, 4), _scen(0.0, 0.0),
                           trial_rng(0))

    def test_fd_only_degenerate(self):
        # one subarray: the HAD part cannot estimate, FD block carries it
        cfg = ArrayConfig(8, 4, 1, 4)
        est = tlhad_estimate(cfg, _scen(10.0, 20.0), trial_rng(7))
        assert "fd-only" in est.flags
        assert est.angle_deg == pytest.approx(10.0, abs=2.0)

    def test_combined_beats_fd_alone_at_moderate_snr(self):
        cfg = ArrayConfig(64, 4, 12, 16)
        u_true = np.sin(np.radians(10.0))
        t = 10
        err_tl, err_fd = [], []
        for i in range(200):
            est = tlhad_estimate(cfg, _scen(10.0, 0.0, t), trial_rng(50, i))
            err_tl.append((est.u - u_true) ** 2)
            fd_est = tlhad_estimate(ArrayConfig(16, 4, 0, 16),
                                    _scen(10.0, 0.0, t), trial_rng(50, i))
            err_fd.append((fd_est.u - u_true) ** 2)
        assert np.mean(err_tl) < np.mean(err_fd)

    def test_crlb_attached(self):
        cfg = ArrayConfig(64, 4, 12, 16)
        est = tlhad_estimate(cfg, _scen(10.0, 10.0), trial_rng(1))
        assert est.crlb_rad2 is not None and est.crlb_rad2 > 0

    def test_estimate_within_principal_range(self):
        cfg = ArrayConfig(64, 4, 12, 16)
        for i in range(20):
            est = tlhad_estimate(cfg, _scen(-40.0, -5.0), trial_rng(9, i))
            assert -1.0 <= est.u <= 1.0


class TestCandidateReliability:
    def test_all_eliminators_pick_true_candidate_at_zero_db(self):
        # correct-candidate probability >= 0.99 at SNR >= 0 dB, allowing
        # two binomial standard errors at this trial count
        n_trials = 300
        u_true = np.sin(np.radians(15.0))
        cfg_had = ArrayConfig.pure_had(64, 4)
        cfg_tl = ArrayConfig(64, 4, 12, 16)
        runs = {
            "classic": lambda rng: had_root_music_classic(
                cfg_had, _scen(15.0, 0.0), rng),
            "fhad": lambda rng: fhad_root_music(cfg_had, _scen(15.0, 0.0), rng),
            "tlhad": lambda rng: tlhad_estimate(cfg_tl, _scen(15.0, 0.0), rng),
        }
        floor = 0.99 - 2 * np.sqrt(0.99 * 0.01 / n_trials)
        for name, run in runs.items():
            hits = sum(abs(run(trial_rng(900, i)).u - u_true) < 0.25
                       for i in range(n_trials))
            assert hits / n_trials >= floor, name


class TestBroadsideGainGuard:
    def test_broadside_ok(self):
        assert broadside_gain_ok(ArrayConfig.pure_had(16, 4), 0.0)

    def test_null_rejected(self):
        # u = 0.5 is an exact broadside-beam null for M=4, d=0.5
        assert not broadside_gain_ok(ArrayConfig.pure_had(16, 4), 0.5)

    def test_small_subarray_always_ok(self):
        for u in np.linspace(-0.95, 0.95, 21):
            assert broadside_gain_ok(ArrayConfig.pure_had(16, 1), float(u))

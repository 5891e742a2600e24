import numpy as np
import pytest

from doalab.arrays import ArrayConfig, EmitterScenario
from doalab.detect import (
    auc,
    calibrate_threshold,
    glrt_statistic,
    h0_statistics,
    maxmin_statistic,
    pd_at_fap,
    roc_curve,
    roc_points,
)


class TestStatistics:
    def test_maxmin_known(self):
        assert maxmin_statistic(np.array([4.0, 2.0, 1.0])) == 4.0

    def test_maxmin_degenerate(self):
        assert maxmin_statistic(np.array([1.0, 0.0])) == np.inf

    def test_maxmin_needs_two(self):
        with pytest.raises(ValueError):
            maxmin_statistic(np.array([1.0]))

    def test_glrt_max_over_mean_known(self):
        assert glrt_statistic(np.array([6.0, 2.0, 1.0])) == pytest.approx(2.0)

    def test_glrt_sphericity_known(self):
        # AM/GM of (4, 1): 2.5 / 2
        assert glrt_statistic(np.array([4.0, 1.0]), "sphericity") == \
            pytest.approx(1.25)

    def test_sphericity_floor_at_one(self):
        eigs = np.array([1.0, 1.0, 1.0])
        assert glrt_statistic(eigs, "sphericity") == pytest.approx(1.0)

    def test_scale_invariance(self):
        eigs = np.array([5.0, 3.0, 1.5, 0.5])
        for form in ("max-over-mean", "sphericity"):
            assert glrt_statistic(7.3 * eigs, form) == \
                pytest.approx(glrt_statistic(eigs, form))
        assert maxmin_statistic(7.3 * eigs) == pytest.approx(maxmin_statistic(eigs))

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            glrt_statistic(np.array([2.0, 1.0]), "nope")


class TestCalibration:
    def test_fap_achieved(self):
        # threshold calibrated at FAP 0.05 on one seed holds on a fresh seed
        cfg = ArrayConfig.fully_digital(8)
        tau = calibrate_threshold(maxmin_statistic, cfg, 1.0, 16, 0.05,
                                  4000, master_seed=11)
        fresh = h0_statistics(maxmin_statistic, cfg, 1.0, 16, 4000,
                              master_seed=12)
        fap = np.mean(fresh > tau)
        se = np.sqrt(0.05 * 0.95 / 4000)
        assert fap == pytest.approx(0.05, abs=4 * se)

    def test_trial_budget_contract(self):
        cfg = ArrayConfig.fully_digital(4)
        with pytest.raises(ValueError):
            calibrate_threshold(maxmin_statistic, cfg, 1.0, 8, 0.01, 500, 0)

    def test_threshold_scale_free(self):
        # scale-invariant statistics: noise power must not move the threshold
        cfg = ArrayConfig.fully_digital(6)
        t1 = calibrate_threshold(maxmin_statistic, cfg, 1.0, 12, 0.1, 1000, 3)
        t2 = calibrate_threshold(maxmin_statistic, cfg, 25.0, 12, 0.1, 1000, 3)
        assert t1 == pytest.approx(t2, rel=1e-12)

    def test_deterministic(self):
        cfg = ArrayConfig.fully_digital(6)
        a = calibrate_threshold(maxmin_statistic, cfg, 1.0, 12, 0.1, 1000, 3)
        b = calibrate_threshold(maxmin_statistic, cfg, 1.0, 12, 0.1, 1000, 3)
        assert a == b


class TestRocPoints:
    def test_perfect_separation(self):
        pts = roc_points(np.arange(10.0), np.arange(10.0) + 100.0)
        assert auc(pts) == pytest.approx(1.0)
        assert pd_at_fap(pts, 0.0) == 1.0

    def test_identical_distributions_diagonal(self):
        scores = np.arange(1000.0)
        pts = roc_points(scores, scores)
        assert auc(pts) == pytest.approx(0.5, abs=1e-3)

    def test_endpoints_and_monotone(self):
        rng = np.random.default_rng(0)
        pts = roc_points(rng.standard_normal(500), rng.standard_normal(500) + 1)
        assert tuple(pts[0]) == (0.0, 0.0) and tuple(pts[-1]) == (1.0, 1.0)
        assert np.all(np.diff(pts[:, 0]) >= 0)

    def test_auc_matches_rank_statistic(self):
        # AUC equals P(h1 > h0) for continuous scores (Mann-Whitney)
        rng = np.random.default_rng(7)
        h0 = rng.standard_normal(400)
        h1 = rng.standard_normal(300) + 0.8
        pts = roc_points(h0, h1)
        mw = np.mean(h1[:, None] > h0[None, :])
        assert auc(pts) == pytest.approx(mw, abs=1e-9)

    def test_pd_at_fap_interpolation_free(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.4], [0.5, 0.9], [1.0, 1.0]])
        assert pd_at_fap(pts, 0.3) == 0.4
        assert pd_at_fap(pts, 0.5) == 0.9


@pytest.fixture(scope="module")
def rocs():
    cfg = ArrayConfig.fully_digital(16)
    scen = EmitterScenario.single_emitter(10.0, -8.0, 32)
    return {name: roc_curve(fn, scen, cfg, 2000, master_seed=21)
            for name, fn in [("maxmin", maxmin_statistic),
                             ("glrt", glrt_statistic)]}


class TestRocCurve:
    def test_better_than_chance(self, rocs):
        for pts in rocs.values():
            assert auc(pts) > 0.6

    def test_trial_minimum_enforced(self):
        cfg = ArrayConfig.fully_digital(4)
        scen = EmitterScenario.single_emitter(0.0, 0.0, 8)
        with pytest.raises(ValueError):
            roc_curve(maxmin_statistic, scen, cfg, 500, 0)

    def test_strong_signal_saturates(self):
        cfg = ArrayConfig.fully_digital(8)
        scen = EmitterScenario.single_emitter(5.0, 20.0, 16)
        pts = roc_curve(maxmin_statistic, scen, cfg, 1000, 1)
        assert pd_at_fap(pts, 0.01) == pytest.approx(1.0, abs=1e-3)

    def test_pd_grows_with_snr(self):
        cfg = ArrayConfig.fully_digital(16)
        pds = []
        for snr in (-12.0, -8.0, -4.0):
            scen = EmitterScenario.single_emitter(10.0, snr, 32)
            pds.append(pd_at_fap(roc_curve(maxmin_statistic, scen, cfg,
                                           2000, 5), 0.1))
        assert pds[0] < pds[1] < pds[2]

    def test_h0_statistic_distribution_tightens_with_snapshots(self):
        # more snapshots concentrate eigenvalues: median maxmin ratio falls
        cfg = ArrayConfig.fully_digital(8)
        m_small = np.median(h0_statistics(maxmin_statistic, cfg, 1.0, 16,
                                          500, 2))
        m_large = np.median(h0_statistics(maxmin_statistic, cfg, 1.0, 256,
                                          500, 2))
        assert m_large < m_small

    def test_h0_maxmin_median_near_asymptotic_edge_ratio(self):
        # N=64, L=200: the eigenvalue-spread ratio predicted by the
        # Marchenko-Pastur support edges is ((1+c)/(1-c))^2 with
        # c = sqrt(N/L); finite-size effects pull the observed median
        # about 15% below that
        n, l = 64, 200
        c = np.sqrt(n / l)
        edge_ratio = ((1 + c) / (1 - c)) ** 2
        med = np.median(h0_statistics(maxmin_statistic,
                                      ArrayConfig.fully_digital(n), 1.0, l,
                                      2000, 8))
        assert med == pytest.approx(edge_ratio, rel=0.15)

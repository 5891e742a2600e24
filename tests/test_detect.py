import inspect
import warnings

import numpy as np
import pytest
from scipy import stats

from doalab.arrays import (
    CONSTANT_MODULUS,
    GAUSSIAN,
    ArrayConfig,
    EmitterScenario,
    synthesize_snapshots,
)
from doalab.detect import (
    decision_threshold,
    glrt_statistic,
    maxmin_statistic,
    roc_points,
    trial_eigs,
)
from doalab.errors import EstimationError
from doalab.mlnn import forward, init_model
from doalab.rng import ROC_STREAMS, TrialStreams, trial_rng

from oracles import auc, pd_at_fap


def h0_eigs(cfg, n_snapshots, seed, n_trials):
    """Eigenvalues of noise-only trials [0, n_trials)."""
    scen = EmitterScenario.noise_only(n_snapshots)
    return trial_eigs(cfg, scen, TrialStreams(seed, range(n_trials)))


def roc_of(statistic, scen_h1, cfg, n_trials, seed):
    """ROC of ``statistic`` for H0 trials [0, n) against ``scen_h1`` trials
    [n, 2n) of the same seed."""
    e0 = h0_eigs(cfg, scen_h1.n_snapshots, seed, n_trials)
    e1 = trial_eigs(cfg, scen_h1,
                    TrialStreams(seed, range(n_trials, 2 * n_trials)))
    return roc_points(statistic(e0), statistic(e1))


class TestStatistics:
    def test_maxmin_known(self):
        assert maxmin_statistic(np.array([4.0, 2.0, 1.0])) == 4.0

    def test_maxmin_degenerate(self):
        assert maxmin_statistic(np.array([1.0, 0.0])) == np.inf

    def test_maxmin_needs_two(self):
        with pytest.raises(ValueError):
            maxmin_statistic(np.array([1.0]))

    def test_glrt_sphericity_known(self):
        # AM/GM of (4, 1): 2.5 / 2
        assert glrt_statistic(np.array([4.0, 1.0])) == pytest.approx(1.25)

    def test_sphericity_floor_at_one(self):
        eigs = np.array([1.0, 1.0, 1.0])
        assert glrt_statistic(eigs) == pytest.approx(1.0)

    def test_scale_invariance(self):
        eigs = np.array([5.0, 3.0, 1.5, 0.5])
        assert glrt_statistic(7.3 * eigs) == pytest.approx(glrt_statistic(eigs))
        assert maxmin_statistic(7.3 * eigs) == pytest.approx(maxmin_statistic(eigs))

    def test_glrt_needs_two(self):
        with pytest.raises(ValueError):
            glrt_statistic(np.array([1.0]))

    def test_vector_input_gives_float(self):
        eigs = np.array([4.0, 2.0, 1.0])
        for value in (maxmin_statistic(eigs), glrt_statistic(eigs)):
            assert type(value) is float

    def test_rows_match_per_row(self):
        # random descending rows, with degenerate ones: a zero smallest
        # eigenvalue, an all-zero row and a negative rounding residue
        rng = np.random.default_rng(3)
        eigs = -np.sort(-rng.gamma(2.0, size=(60, 7)), axis=1)
        eigs[5, -1] = 0.0
        eigs[11] = 0.0
        eigs[17, -2:] = -1e-17
        degenerate = [5, 11, 17]
        for fn in (maxmin_statistic, glrt_statistic):
            rows = fn(eigs)
            each = np.array([fn(e) for e in eigs])
            assert rows.shape == (60,)
            assert np.flatnonzero(np.isinf(rows)).tolist() == degenerate
            assert np.flatnonzero(np.isinf(each)).tolist() == degenerate
            fin = np.isfinite(each)
            np.testing.assert_allclose(rows[fin], each[fin], rtol=1e-12, atol=0)


class TestCalibration:
    def test_fap_achieved(self):
        # threshold calibrated at FAP 0.05 on one seed holds on a fresh seed
        cfg = ArrayConfig.fully_digital(8)
        tau = decision_threshold(
            maxmin_statistic(h0_eigs(cfg, 16, 11, 4000)), 0.05)
        fresh = maxmin_statistic(h0_eigs(cfg, 16, 12, 4000))
        fap = np.mean(fresh > tau)
        se = np.sqrt(0.05 * 0.95 / 4000)
        assert fap == pytest.approx(0.05, abs=4 * se)

    def test_trial_budget_contract(self):
        cfg = ArrayConfig.fully_digital(4)
        scores = maxmin_statistic(h0_eigs(cfg, 8, 0, 500))
        with pytest.raises(ValueError):
            decision_threshold(scores, 0.01)

    def test_threshold_scale_free(self):
        # scale-invariant statistics: noise power must not move the
        # threshold; noise of power 25 scales the eigenvalues by 25
        cfg = ArrayConfig.fully_digital(6)
        t1 = decision_threshold(
            maxmin_statistic(h0_eigs(cfg, 12, 3, 1000)), 0.1)
        t2 = decision_threshold(
            maxmin_statistic(25.0 * h0_eigs(cfg, 12, 3, 1000)), 0.1)
        assert t1 == pytest.approx(t2, rel=1e-12)

    def test_deterministic(self):
        cfg = ArrayConfig.fully_digital(6)
        a = decision_threshold(
            maxmin_statistic(h0_eigs(cfg, 12, 3, 1000)), 0.1)
        b = decision_threshold(
            maxmin_statistic(h0_eigs(cfg, 12, 3, 1000)), 0.1)
        assert a == b


class TestThreshold:
    def test_quantile_semantics(self):
        m = init_model((2, 8, 1), ("tanh",), trial_rng(0))
        h0 = trial_rng(1).standard_normal((2000, 2))
        tau = decision_threshold(forward(m, h0), 0.1)
        fap = np.mean(forward(m, h0) > tau)
        assert fap <= 0.1

    def test_too_few_examples(self):
        m = init_model((2, 8, 1), ("tanh",), trial_rng(0))
        with pytest.raises(ValueError):
            decision_threshold(forward(m, np.zeros((50, 2))), 0.01)

    def test_fap_outside_unit_interval(self):
        for fap in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                decision_threshold(np.arange(10_000.0), fap)


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
    return {name: roc_of(fn, scen, cfg, 2000, seed=21)
            for name, fn in [("maxmin", maxmin_statistic),
                             ("glrt", glrt_statistic)]}


class TestRocCurve:
    def test_better_than_chance(self, rocs):
        for pts in rocs.values():
            assert auc(pts) > 0.6

    def test_strong_signal_saturates(self):
        cfg = ArrayConfig.fully_digital(8)
        scen = EmitterScenario.single_emitter(5.0, 20.0, 16)
        pts = roc_of(maxmin_statistic, scen, cfg, 1000, 1)
        assert pd_at_fap(pts, 0.01) == pytest.approx(1.0, abs=1e-3)

    def test_pd_grows_with_snr(self):
        cfg = ArrayConfig.fully_digital(16)
        pds = []
        for snr in (-12.0, -8.0, -4.0):
            scen = EmitterScenario.single_emitter(10.0, snr, 32)
            pds.append(pd_at_fap(roc_of(maxmin_statistic, scen, cfg, 2000, 5),
                                 0.1))
        assert pds[0] < pds[1] < pds[2]

    def test_h0_statistic_distribution_tightens_with_snapshots(self):
        # more snapshots concentrate eigenvalues: median maxmin ratio falls
        cfg = ArrayConfig.fully_digital(8)
        m_small = np.median(maxmin_statistic(h0_eigs(cfg, 16, 2, 500)))
        m_large = np.median(maxmin_statistic(h0_eigs(cfg, 256, 2, 500)))
        assert m_large < m_small

    def test_h0_maxmin_median_near_asymptotic_edge_ratio(self):
        # N=64, L=200: the eigenvalue-spread ratio predicted by the
        # Marchenko-Pastur support edges is ((1+c)/(1-c))^2 with
        # c = sqrt(N/L); finite-size effects pull the observed median
        # about 15% below that
        n, l = 64, 200
        c = np.sqrt(n / l)
        edge_ratio = ((1 + c) / (1 - c)) ** 2
        med = np.median(maxmin_statistic(
            h0_eigs(ArrayConfig.fully_digital(n), l, 8, 2000)))
        assert med == pytest.approx(edge_ratio, rel=0.15)


# --- the sampler against the direct path ------------------------------------

def direct_snapshots(cfg, scen, seed, trials):
    """Element-level snapshots of each trial, synthesised from its own stream."""
    return [synthesize_snapshots(cfg, scen, trial_rng(seed, i)).samples
            for i in trials]


def direct_eigs(cfg, scen, seed, n_trials, block=100):
    """The direct path ``trial_eigs`` replaces: descending eigenvalues of
    the sample covariance X X^H / L of synthesised snapshots, decomposed
    ``block`` trials at a time."""
    out = []
    for lo in range(0, n_trials, block):
        xs = np.stack(direct_snapshots(cfg, scen, seed,
                                       range(lo, min(lo + block, n_trials))))
        covs = xs @ xs.conj().transpose(0, 2, 1) / xs.shape[2]
        out.append(np.linalg.eigvalsh(covs)[:, ::-1])
    return np.concatenate(out)


def law_statistics(eigs, rank):
    """Summaries of the ``rank`` leading (nonzero) eigenvalues per trial."""
    top = eigs[:, :rank]
    mean = top.mean(axis=1)
    return {
        "max": top[:, 0],
        "min": top[:, -1],
        "max/mean": top[:, 0] / mean,
        "sphericity": mean / np.exp(np.log(top).mean(axis=1)),
    }


# seeded samples of LAW_TRIALS trials per side; each two-sample test passes
# above ALPHA (the floor of scipy's Anderson-Darling p-value)
LAW_TRIALS = 1000
ALPHA = 1e-3

# the midrank k-sample test: scipy 1.17 asks for it by name, and the scipy
# that Python 3.10 gets (1.15 at most) takes no ``variant`` and runs it by
# default
MIDRANK = ({"variant": "midrank"}
           if "variant" in inspect.signature(stats.anderson_ksamp).parameters
           else {})


def assert_same_law(a, b, what):
    ks = stats.ks_2samp(a, b).pvalue
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # p-value capped
        ad = stats.anderson_ksamp([a, b], **MIDRANK).pvalue
    assert ks > ALPHA and ad > ALPHA, f"{what}: KS p={ks:.2g}, AD p={ad:.2g}"


# (N, L, SNR dB or None for noise only, signal model); (64, 16) has L < N
LAW_CASES = [
    (8, 16, None, None),
    (8, 16, 0.0, CONSTANT_MODULUS),
    (8, 16, -3.0, GAUSSIAN),
    (8, 200, None, None),
    (8, 200, -10.0, GAUSSIAN),
    (64, 16, None, None),
    (64, 16, -5.0, CONSTANT_MODULUS),
    (64, 200, None, None),
    (64, 200, -15.0, CONSTANT_MODULUS),
    (64, 200, -20.0, GAUSSIAN),
]


class TestTrialEigsLaw:
    @pytest.mark.parametrize("n,l,snr_db,model", LAW_CASES)
    def test_matches_direct_synthesis(self, n, l, snr_db, model):
        cfg = ArrayConfig.fully_digital(n)
        if snr_db is None:
            scen = EmitterScenario.noise_only(l)
        else:
            scen = EmitterScenario.single_emitter(20.0, snr_db, l, model)
        want = direct_eigs(cfg, scen, 31, LAW_TRIALS)
        got = trial_eigs(cfg, scen, TrialStreams(32, range(LAW_TRIALS)))
        rank = min(n, l)
        # L < N leaves N - L eigenvalues that are exactly zero
        assert np.all(got[:, rank:] == 0.0) and np.all(got[:, :rank] > 0.0)
        want_stats, got_stats = (law_statistics(e, rank) for e in (want, got))
        for name in want_stats:
            assert_same_law(want_stats[name], got_stats[name], name)

    @pytest.mark.parametrize("snr_db", [None, 0.0], ids=["h0", "h1"])
    def test_one_snapshot_is_the_squared_norm(self, snr_db):
        cfg = ArrayConfig.fully_digital(8)
        scen = (EmitterScenario.noise_only(1) if snr_db is None else
                EmitterScenario.single_emitter(-40.0, snr_db, 1))
        norms = [np.sum(np.abs(x) ** 2)
                 for x in direct_snapshots(cfg, scen, 41, range(LAW_TRIALS))]
        got = trial_eigs(cfg, scen, TrialStreams(42, range(LAW_TRIALS)))
        assert np.all(got[:, 1:] == 0.0)
        assert_same_law(np.array(norms), got[:, 0], "|x|^2")

    def test_direction_free(self):
        # the law depends on the direction only through |a|^2 = N, so the
        # same streams give the same eigenvalues at every angle
        cfg = ArrayConfig.fully_digital(8)
        rows = [trial_eigs(cfg, EmitterScenario.single_emitter(theta, 0.0, 16),
                           TrialStreams(5, range(20)))
                for theta in (-70.0, 0.0, 35.0)]
        np.testing.assert_array_equal(rows[0], rows[1])
        np.testing.assert_array_equal(rows[0], rows[2])

    def test_hybrid_array_rejected(self):
        cfg = ArrayConfig.two_layer(16, 4, 0.25)
        scen = EmitterScenario.noise_only(8)
        with pytest.raises(ValueError):
            trial_eigs(cfg, scen, TrialStreams(0, range(2)))

    def test_two_emitters_rejected(self):
        # a scenario holds one emitter or none, so two never reach the
        # sampler
        with pytest.raises(TypeError):
            EmitterScenario((10.0, -20.0), 1.0, 8)

    def test_eigensolver_failure_raises(self, monkeypatch):
        import scipy.linalg.lapack

        monkeypatch.setattr(scipy.linalg.lapack, "dsterf",
                            lambda d, e, **kw: (d, 3))
        scen = EmitterScenario.noise_only(16)
        with pytest.raises(EstimationError):
            trial_eigs(ArrayConfig.fully_digital(8), scen,
                       TrialStreams(0, range(2)))


# --- the block sampler against its per-trial form -----------------------------

def trial_eigs_oracle(cfg, scen, seed, start, stop):
    """``trial_eigs`` one trial at a time: a fresh ``trial_rng`` per trial,
    and each trial's bidiagonal built and solved on its own."""
    from scipy.linalg.lapack import dsterf

    n, l = cfg.n_total, scen.n_snapshots
    m, n_sub = min(n, l), min(l, n - 1)
    shapes = np.concatenate([l - np.arange(m), n - 1 - np.arange(n_sub)])
    shapes = shapes.astype(float)
    if scen.n_emitters:
        shapes[0] -= 1.0
    out = np.zeros((stop - start, n))
    for row, i in enumerate(range(start, stop)):
        rng = trial_rng(seed, i)
        if scen.n_emitters:
            energy = scen.power * (l if scen.signal_model == CONSTANT_MODULUS
                                   else rng.standard_gamma(l))
            c = np.sqrt(0.5) * rng.standard_normal(2)
        sq = rng.standard_gamma(shapes)
        if scen.n_emitters:
            sq[0] += (np.sqrt(n * energy) + c[0]) ** 2 + c[1] ** 2
        d2, e2 = sq[:m], np.zeros(m)
        e2[:n_sub] = sq[m:]
        off = np.sqrt(e2[:-1] * d2[1:]) if m > 1 else np.zeros(1)
        vals, info = dsterf(d2 + e2, off, overwrite_d=1, overwrite_e=1)
        assert info == 0
        out[row, :m] = vals[::-1] * (1.0 / l)
    return out


# (N, L, SNR dB or None for noise only, signal model, seed, start, stop):
# trial 815 at seed 20240901 is where a block-wide square of the signal
# term differs from the per-trial one in the last bit
ORACLE_CASES = [
    (64, 200, None, None, 20240901, 0, 40),
    (64, 200, -20.0, CONSTANT_MODULUS, 20240901, 800, 830),
    (64, 200, -20.0, GAUSSIAN, 7, 0, 40),
    (64, 16, -5.0, CONSTANT_MODULUS, 8, 0, 40),
    (8, 3, None, None, 9, 0, 40),
    (2, 10, 0.0, CONSTANT_MODULUS, 10, 0, 40),
    (2, 1, 0.0, GAUSSIAN, 11, 0, 40),
    (64, 200, None, None, 101, ROC_STREAMS - 5, ROC_STREAMS + 25),
    (64, 200, -20.0, CONSTANT_MODULUS, 101, ROC_STREAMS + 500,
     ROC_STREAMS + 530),
]


@pytest.mark.parametrize("n,l,snr_db,model,seed,start,stop", ORACLE_CASES,
                         ids=["h0", "h1-trial815", "gaussian", "l-below-n",
                              "n8-l3", "n2", "n2-one-snapshot", "roc-h0",
                              "roc-h1"])
def test_trial_eigs_matches_per_trial_oracle(n, l, snr_db, model, seed,
                                             start, stop):
    cfg = ArrayConfig.fully_digital(n)
    if snr_db is None:
        scen = EmitterScenario.noise_only(l)
    else:
        scen = EmitterScenario.single_emitter(20.0, snr_db, l, model)
    got = trial_eigs(cfg, scen, TrialStreams(seed, range(start, stop)))
    want = trial_eigs_oracle(cfg, scen, seed, start, stop)
    assert got.tobytes() == want.tobytes()

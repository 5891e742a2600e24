import math
from unittest import mock

import numpy as np
import pytest
from scipy import stats

from doalab import doa, spectral
from doalab import rng as rng_module
from doalab.arrays import (
    CONSTANT_MODULUS,
    GAUSSIAN,
    ArrayConfig,
    EmitterScenario,
)
from doalab.doa import (
    TLHAD_FLAGS,
    _candidate_rows,
    broadside_gain_ok,
    candidate_set,
    combine_estimates,
    fhad_root_music,
    had_eliminator_rows,
    had_root_music_classic,
    max_candidates,
    tlhad_estimate,
    tlhad_estimate_rows,
)
from doalab.crlb import crlb_tlhad
from doalab.errors import ConfigError
from doalab.rng import TrialStreams, trial_rng


def _scen(theta_deg, snr_db, t=1, model=CONSTANT_MODULUS):
    return EmitterScenario.single_emitter(theta_deg, snr_db, t,
                                          signal_model=model)


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
        scen = EmitterScenario(theta, 1e12)
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

    def test_rejects_noise_only(self):
        cfg = ArrayConfig.pure_had(16, 4)
        scen = EmitterScenario.noise_only(1)
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
        scen = EmitterScenario(theta, 1e12)
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
        assert np.degrees(np.arcsin(est.u)) == pytest.approx(17.0, abs=0.5)

    def test_noiseless_exact(self):
        cfg = ArrayConfig(64, 4, 12, 16)
        theta = float(np.degrees(np.arcsin(0.3)))
        scen = EmitterScenario(theta, 1e12)
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
        assert np.degrees(np.arcsin(est.u)) == pytest.approx(10.0, abs=2.0)

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


def _nearest(cands, u):
    return int(np.argmin(np.abs(cands - u)))


# the position of each eliminator in what ``had_eliminator_rows`` returns,
# and its per-trial oracle
ELIMINATORS = {"classic": (0, had_root_music_classic),
               "fhad": (1, fhad_root_music)}


class TestEliminatorRows:
    """The stacked eliminators against their per-trial oracles."""

    @staticmethod
    def _rows(name):
        index = ELIMINATORS[name][0]
        return lambda cfg, scen, rngs: had_eliminator_rows(cfg, scen, rngs)[index]

    @pytest.mark.parametrize("name", sorted(ELIMINATORS))
    @pytest.mark.parametrize("spacing", [0.5, 0.6])
    @pytest.mark.parametrize("snr_db", [0.0, -5.0, -10.0])
    def test_matches_oracle(self, name, spacing, snr_db):
        # same candidates, same choice and the same estimate to 1e-12 in
        # every trial, so the same wrong-candidate count
        rows, oracle = self._rows(name), ELIMINATORS[name][1]
        cfg = ArrayConfig.pure_had(48, 4, spacing)
        scen = _scen(15.0, snr_db)
        u_true = np.sin(np.radians(15.0))
        n = 100
        u, chosen, cands = rows(cfg, scen, [trial_rng(61, i) for i in range(n)])
        wrong = {"rows": 0, "oracle": 0}
        for i in range(n):
            est = oracle(cfg, scen, trial_rng(61, i))
            ref = est.candidates.candidates
            row = cands[i][~np.isnan(cands[i])]
            assert row.shape == ref.shape
            assert np.max(np.abs(row - ref)) <= 1e-12
            assert chosen[i] == _nearest(ref, est.u)
            assert abs(u[i] - est.u) <= 1e-12
            wrong["rows"] += _nearest(row, u[i]) != _nearest(row, u_true)
            wrong["oracle"] += _nearest(ref, est.u) != _nearest(ref, u_true)
        assert wrong["rows"] == wrong["oracle"]

    @pytest.mark.parametrize("name", sorted(ELIMINATORS))
    @pytest.mark.parametrize("spacing,snr_db", [
        (0.5, 10.0), (0.6, 0.0), (0.5, -10.0), (0.6, -10.0)])
    def test_independent_of_block_split(self, name, spacing, snr_db,
                                        monkeypatch):
        # the harness splits trials into blocks by worker count, so each
        # trial's result must not depend on which trials share its block
        rows = self._rows(name)
        cfg = ArrayConfig.pure_had(48, 4, spacing)
        scen = _scen(15.0, snr_db)
        n = 40
        seen = {"rounds": 0, "fallbacks": 0}
        laguerre, companion = spectral._laguerre, spectral._companion_roots
        search = spectral._certified_roots

        def spy_laguerre(a, z):
            seen["rounds"] += 1
            return laguerre(a, z)

        def spy_companion(coeffs):
            seen["fallbacks"] += 1
            return companion(coeffs)

        def refusing_search(coeffs):
            # these blocks leave no row uncertified, so a rule that reads
            # each row alone refuses about a quarter of them: the companion
            # fallback then runs inside every block split
            z = search(coeffs)
            z[(np.abs(coeffs[:, 1]) * 1e4).astype(int) % 4 == 0] = np.nan
            return z

        monkeypatch.setattr(spectral, "_laguerre", spy_laguerre)
        monkeypatch.setattr(spectral, "_companion_roots", spy_companion)
        monkeypatch.setattr(spectral, "_certified_roots", refusing_search)
        whole = rows(cfg, scen, [trial_rng(62, i) for i in range(n)])
        assert seen["fallbacks"]
        if snr_db == -10.0:  # the block reaches a second round
            assert seen["rounds"] == 2
        counts = np.count_nonzero(~np.isnan(whole[2]), axis=1)
        if spacing == 0.6:  # ragged candidate counts within the block
            assert set(counts) == {4, 5}
        for bounds in ((0, 7, 19, n), tuple(range(n + 1))):
            parts = [rows(cfg, scen, [trial_rng(62, i) for i in range(a, b)])
                     for a, b in zip(bounds[:-1], bounds[1:])]
            np.testing.assert_array_equal(
                np.concatenate([part[0] for part in parts]), whole[0])
            np.testing.assert_array_equal(
                np.concatenate([part[1] for part in parts]), whole[1])
            cands = [row for part in parts for row in part[2]]
            for row, ref in zip(cands, whole[2]):
                np.testing.assert_array_equal(row[~np.isnan(row)],
                                              ref[~np.isnan(ref)])

    @pytest.mark.parametrize("spacing", [0.5, 0.6])
    def test_one_pass_per_stream(self, spacing):
        # ``TrialStreams`` restarts every stream on each pass, so it gives
        # the draws of one generator per trial only if each stream is read
        # in one pass, trials with fewer candidates included
        cfg = ArrayConfig.pure_had(48, 4, spacing)
        scen = _scen(15.0, -10.0)
        got = had_eliminator_rows(cfg, scen, TrialStreams(64, range(60)))
        want = had_eliminator_rows(cfg, scen,
                                   [trial_rng(64, i) for i in range(60)])
        for g, w in zip(got, want):
            for part_g, part_w in zip(g, w):
                assert part_g.tobytes() == part_w.tobytes()

    def test_fast_needs_enough_subarrays(self):
        with pytest.raises(ConfigError):
            had_eliminator_rows(ArrayConfig.pure_had(8, 4), _scen(10.0, 20.0),
                                [trial_rng(0)])

    @pytest.mark.parametrize("theta", [15.0, -40.0, 60.0])
    @pytest.mark.parametrize("n_trials", [1, 5])
    def test_too_few_subarrays_refused_before_a_draw(self, theta, n_trials):
        # 3 subarrays cannot host the ceil(2 M d) = 4 candidates a trial
        # may have at M = 4, d = 0.4, whatever this draw's counts are
        streams = TrialStreams(101, range(n_trials))
        with mock.patch.object(rng_module, "rekey",
                               wraps=rng_module.rekey) as rekey:
            with pytest.raises(ConfigError):
                had_eliminator_rows(ArrayConfig.pure_had(12, 4, 0.4),
                                    _scen(theta, 20.0), streams)
        assert rekey.call_count == 0

    def test_rejects_fd_antennas(self):
        with pytest.raises(ConfigError):
            had_eliminator_rows(ArrayConfig(8, 2, 3, 2), _scen(0.0, 0.0),
                                [trial_rng(0)])

    @pytest.mark.parametrize("m_sub,spacing", [
        (1, 0.5), (4, 0.5), (4, 0.6), (3, 0.7), (2, 1.0), (2, 0.4), (4, 0.1)])
    def test_max_candidates_bounds_every_set(self, m_sub, spacing):
        sizes = {len(candidate_set(u, m_sub, spacing))
                 for u in np.linspace(-1.0, 1.0, 2001)}
        assert max(sizes) == max_candidates(m_sub, spacing)


@pytest.mark.parametrize("m_sub,spacing", [(1, 0.5), (4, 0.1), (2, 0.25)])
def test_unambiguous_estimate_clipped(m_sub, spacing):
    # up to M d = 1/2 the phase does not wrap, and an estimate past +-1
    # is clipped, as the per-trial candidate set and the rows agree
    u = np.array([-1.2, -1.0, 0.3, 1.0, 1.2])
    want = np.array([-1.0, -1.0, 0.3, 1.0, 1.0])
    assert max_candidates(m_sub, spacing) == 1
    np.testing.assert_array_equal(_candidate_rows(u, m_sub, spacing)[:, 0], want)
    for x, ref in zip(u, want):
        assert candidate_set(x, m_sub, spacing).candidates.tolist() == [ref]


class TestCandidateRows:
    @pytest.mark.parametrize("m_sub,spacing", [
        (4, 0.5), (4, 0.6), (1, 0.5), (3, 0.7), (2, 1.0), (2, 0.4), (4, 0.1)])
    def test_matches_candidate_set_bitwise(self, m_sub, spacing):
        period = 1.0 / (m_sub * spacing)
        lattice = -1.0 + period * np.arange(-2, 2 * m_sub + 3)
        u = np.concatenate((
            np.random.default_rng(63).uniform(-1.0, 1.0, 500),
            [-1.0, 1.0, 0.0, -0.0, -1.0 + 1e-13, 1.0 - 1e-13], lattice,
            np.nextafter(lattice, np.inf), np.nextafter(lattice, -np.inf)))
        rows = _candidate_rows(u, m_sub, spacing)
        sets = [candidate_set(x, m_sub, spacing).candidates for x in u]
        assert rows.shape == (len(u), max(map(len, sets)))
        for row, ref in zip(rows, sets):
            assert row[: len(ref)].tobytes() == ref.tobytes()
            assert np.isnan(row[len(ref):]).all()
        if 2 * m_sub * spacing <= 1.0:  # the phase cannot wrap
            assert rows.shape[1] == 1
        if spacing == 0.6:  # ragged counts
            assert set(map(len, sets)) == {4, 5}


def _anderson_darling_normal(z):
    """The Anderson-Darling statistic of ``z`` against the normal law of
    its own mean and sd (ddof 1), and its 1% critical value (Stephens
    1974, as ``scipy.stats.anderson`` tabulates it).

    scipy's p-value for it cannot gate: it is interpolated in that table
    and clamped to 0.01 past its last entry, so p >= 0.01 holds for every
    sample.  Its ``method`` argument also needs scipy 1.17, which needs
    Python 3.11.
    """
    n = len(z)
    w = np.sort((z - z.mean()) / z.std(ddof=1))
    i = np.arange(1, n + 1)
    statistic = -n - np.sum((2 * i - 1) / n * (stats.norm.logcdf(w)
                                               + stats.norm.logsf(w[::-1])))
    return statistic, 1.092 / (1.0 + 0.75 / n + 2.25 / n ** 2)


def _flag_names(row):
    return tuple(name for name, on in zip(TLHAD_FLAGS, row) if on)


def _tlhad_cases():
    # (array, SNR in dB, snapshots, signal model): every eta of the default
    # grid, then the degenerate and non-default settings
    paper = ArrayConfig.two_layer(64, 4, 0.25)
    grid = [pytest.param(ArrayConfig.two_layer(64, 4, eta), snr_db, 1,
                         CONSTANT_MODULUS, id=f"eta{eta:g}-{snr_db:g}dB")
            for eta in (0.0625, 0.25, 0.5, 0.75, 1.0)
            for snr_db in (-10.0, 0.0, 10.0)]
    return grid + [
        pytest.param(ArrayConfig(8, 4, 1, 4), 10.0, 1, CONSTANT_MODULUS,
                     id="k1-fd-only"),
        pytest.param(ArrayConfig.two_layer(64, 4, 0.25, 0.6), 0.0, 1,
                     CONSTANT_MODULUS, id="spacing0.6"),
        pytest.param(paper, 0.0, 10, CONSTANT_MODULUS, id="T10"),
        pytest.param(paper, 0.0, 1, GAUSSIAN, id="gaussian"),
    ]


class TestTlhadRows:
    """The stacked two-layer estimator against its per-trial oracle."""

    @pytest.mark.parametrize("cfg,snr_db,t,model", _tlhad_cases())
    def test_matches_oracle(self, cfg, snr_db, t, model):
        # the same flags, candidates and choice, and the same estimate to
        # 1e-12 in every trial, so the same wrong-candidate count
        scen = _scen(15.0, snr_db, t, model)
        u_true = np.sin(np.radians(15.0))
        n = 40
        u, chosen, cands, flags = tlhad_estimate_rows(
            cfg, scen, [trial_rng(64, i) for i in range(n)])
        assert flags.shape == (n, len(TLHAD_FLAGS)) and flags.dtype == bool
        wrong = {"rows": 0, "oracle": 0}
        for i in range(n):
            est = tlhad_estimate(cfg, scen, trial_rng(64, i))
            assert _flag_names(flags[i]) == est.flags
            assert abs(u[i] - est.u) <= 1e-12
            if est.candidates is None:
                assert chosen[i] == -1 and cands.shape[1] == 0
                continue
            ref = est.candidates.candidates
            row = cands[i][~np.isnan(cands[i])]
            assert row.shape == ref.shape
            assert np.max(np.abs(row - ref)) <= 1e-12
            assert chosen[i] == _nearest(ref, est.u)
            wrong["rows"] += _nearest(row, u[i]) != _nearest(row, u_true)
            wrong["oracle"] += _nearest(ref, est.u) != _nearest(ref, u_true)
        assert wrong["rows"] == wrong["oracle"]
        if cfg.k_sub < 2:
            assert flags[:, 0].all()

    @pytest.mark.parametrize("cfg,snr_db", [
        (ArrayConfig.two_layer(64, 4, 0.25), 10.0),
        (ArrayConfig.two_layer(64, 4, 0.25, 0.6), -10.0),
        (ArrayConfig.two_layer(64, 4, 0.75), -10.0),
        (ArrayConfig(8, 4, 1, 4), 0.0)])
    def test_independent_of_block_split(self, cfg, snr_db):
        # the harness splits trials into blocks by worker count, so each
        # trial's result must not depend on which trials share its block
        scen = _scen(15.0, snr_db)
        n = 30
        whole = tlhad_estimate_rows(cfg, scen,
                                    [trial_rng(65, i) for i in range(n)])
        for bounds in ((0, 7, 19, n), tuple(range(n + 1))):
            parts = [tlhad_estimate_rows(
                cfg, scen, [trial_rng(65, i) for i in range(a, b)])
                for a, b in zip(bounds[:-1], bounds[1:])]
            for k in (0, 1, 3):  # u, chosen, flags
                np.testing.assert_array_equal(
                    np.concatenate([part[k] for part in parts]), whole[k])
            cands = [row for part in parts for row in part[2]]
            for row, ref in zip(cands, whole[2]):
                np.testing.assert_array_equal(row[~np.isnan(row)],
                                              ref[~np.isnan(ref)])

    @pytest.mark.parametrize("eta,snr_db,theta", [
        (0.25, 10.0, 15.0), (0.5, 10.0, 15.0), (1.0, 10.0, 15.0),
        (0.25, 15.0, 15.0), (0.25, 15.0, 40.0)], ids=[
        "0.25-10.0", "0.5-10.0", "1.0-10.0", "0.25-15.0", "0.25-15.0-40deg"])
    def test_follows_its_law(self, eta, snr_db, theta):
        # above its ambiguity threshold the one-snapshot estimate is
        # unbiased, Gaussian and efficient: z = error / sqrt(CRLB_tlhad) is
        # a standard normal draw, to within its Monte Carlo error.  The
        # bound's cos^2(theta) moves var z by 1/cos^2(theta): 1.07 at 15
        # degrees, inside the band of 4,000 trials (0.928-1.075), and 1.70
        # at 40 degrees, where the broadside beam's gain is 0.46 of its peak
        # 2 (the floor is 0.2), so the 40-degree point sees the factor
        cfg = ArrayConfig.two_layer(64, 4, eta)
        assert broadside_gain_ok(cfg, math.sin(math.radians(theta)))
        n = 4000
        u = tlhad_estimate_rows(cfg, _scen(theta, snr_db),
                                TrialStreams(11, range(n)))[0]
        z = ((np.arcsin(u) - math.radians(theta))
             / math.sqrt(crlb_tlhad(cfg, theta, snr_db, 1)))
        assert abs(z.mean()) <= 3.0 / math.sqrt(n)
        low, high = stats.chi2.ppf([0.0005, 0.9995], n - 1) / (n - 1)
        assert low <= z.var(ddof=1) <= high
        statistic, critical = _anderson_darling_normal(z)
        assert statistic <= critical

    def test_needs_fd_block(self):
        for cfg in (ArrayConfig.pure_had(64, 4), ArrayConfig(9, 4, 2, 1)):
            with pytest.raises(ConfigError):
                tlhad_estimate(cfg, _scen(0.0, 0.0), trial_rng(0))
            with pytest.raises(ConfigError):
                tlhad_estimate_rows(cfg, _scen(0.0, 0.0), [trial_rng(0)])

    def test_rejects_noise_only(self):
        scen = EmitterScenario.noise_only(1)
        with pytest.raises(ConfigError):
            tlhad_estimate_rows(ArrayConfig(64, 4, 12, 16), scen, [trial_rng(0)])

    @pytest.mark.parametrize("fd_bound,had_bound", [
        (0.0, 1e-4), (1e-4, 0.0), (np.inf, np.inf), (np.inf, 1e-4)])
    def test_degenerate_bounds_like_oracle(self, fd_bound, had_bound,
                                           monkeypatch):
        # a zero bound makes combine_estimates raise in both forms; an
        # infinite HAD bound takes the FD estimate alone ("analog-null")
        # before any combining, so both infinite raises in neither
        # each fake keeps the shape of its directions, as the bounds do:
        # a float for one direction, an array for the stacked trials
        def fake(bound):
            return lambda _, theta, *a: np.full(np.shape(theta), bound)[()]

        monkeypatch.setattr(doa, "crlb_fd", fake(fd_bound))
        monkeypatch.setattr(doa, "crlb_had", fake(had_bound))
        cfg = ArrayConfig(64, 4, 12, 16)
        scen = _scen(15.0, 10.0)
        if 0.0 in (fd_bound, had_bound):
            with pytest.raises(ValueError):
                tlhad_estimate(cfg, scen, trial_rng(66))
            with pytest.raises(ValueError):
                tlhad_estimate_rows(cfg, scen, [trial_rng(66)])
            return
        est = tlhad_estimate(cfg, scen, trial_rng(66))
        u, _, _, flags = tlhad_estimate_rows(cfg, scen, [trial_rng(66)])
        assert _flag_names(flags[0]) == est.flags
        assert abs(u[0] - est.u) <= 1e-12


class TestOraclesIndependent:
    """The per-trial estimators are the oracles of the stacked ones, so
    they must not root through the certified search they check."""

    @pytest.mark.parametrize("estimate,cfg", [
        (tlhad_estimate, ArrayConfig.two_layer(64, 4, 0.25)),
        (tlhad_estimate, ArrayConfig.two_layer(64, 4, 1.0)),
        (had_root_music_classic, ArrayConfig.pure_had(64, 4)),
        (fhad_root_music, ArrayConfig.pure_had(64, 4)),
    ], ids=["tlhad-eta0.25", "tlhad-eta1", "classic", "fhad"])
    def test_no_certified_search(self, estimate, cfg, monkeypatch):
        def search(coeffs):
            raise AssertionError("the per-trial chain reached the search")

        monkeypatch.setattr(spectral, "_certified_roots", search)
        scen = _scen(15.0, -10.0)
        for i in range(5):
            assert np.isfinite(estimate(cfg, scen, trial_rng(67, i)).u)


class TestBroadsideGainGuard:
    def test_broadside_ok(self):
        assert broadside_gain_ok(ArrayConfig.pure_had(16, 4), 0.0)

    def test_null_rejected(self):
        # u = 0.5 is an exact broadside-beam null for M=4, d=0.5
        assert not broadside_gain_ok(ArrayConfig.pure_had(16, 4), 0.5)

    def test_small_subarray_always_ok(self):
        for u in np.linspace(-0.95, 0.95, 21):
            assert broadside_gain_ok(ArrayConfig.pure_had(16, 1), float(u))

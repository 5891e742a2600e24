import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doalab import spectral
from doalab.arrays import (
    AnalogWeights,
    ArrayConfig,
    EmitterScenario,
    analog_combine,
    steering_vector,
    synthesize_snapshots,
)
from doalab.errors import EstimationError
from doalab.rng import trial_rng
from doalab.spectral import (
    music_spectrum_grid,
    noise_projector,
    root_music,
    root_music_polynomial,
    sample_covariance,
)


def _snapshots(n, u_list, snr_db, l, seed=0):
    theta = tuple(float(np.degrees(np.arcsin(u))) for u in u_list)
    powers = tuple(10.0 ** (snr_db / 10.0) for _ in u_list)
    scen = EmitterScenario(theta, powers, n_snapshots=l)
    return synthesize_snapshots(ArrayConfig.fully_digital(n), scen, trial_rng(seed))


class TestSampleCovariance:
    def test_hermitian_and_psd(self):
        cov = sample_covariance(_snapshots(8, [0.3], 0.0, 50))
        np.testing.assert_array_equal(cov.matrix, cov.matrix.conj().T)
        assert np.all(cov.eigenvalues >= -1e-12)

    def test_eigenvalues_descending(self):
        cov = sample_covariance(_snapshots(8, [0.3, -0.2], 10.0, 100))
        assert np.all(np.diff(cov.eigenvalues) <= 1e-12)

    def test_reconstruction(self):
        cov = sample_covariance(_snapshots(6, [0.1], 0.0, 30))
        r = (cov.eigenvectors * cov.eigenvalues) @ cov.eigenvectors.conj().T
        np.testing.assert_allclose(r, cov.matrix, atol=1e-12)

    def test_trace_equals_mean_power(self):
        batch = _snapshots(8, [0.3], 0.0, 200)
        cov = sample_covariance(batch)
        assert np.trace(cov.matrix).real == pytest.approx(
            np.sum(np.mean(np.abs(batch.samples) ** 2, axis=1)))

    def test_deterministic_eigenvectors(self):
        x = _snapshots(6, [0.2], 0.0, 40).samples
        v1 = sample_covariance(x).eigenvectors
        v2 = sample_covariance(x.copy()).eigenvectors
        np.testing.assert_array_equal(v1, v2)
        # phase convention: largest-magnitude entry of each column is real-positive
        idx = np.argmax(np.abs(v1), axis=0)
        ref = v1[idx, np.arange(v1.shape[1])]
        assert np.all(ref.real > 0) and np.all(np.abs(ref.imag) < 1e-12)

    def test_plain_array_accepted(self):
        rng = trial_rng(1)
        x = rng.standard_normal((4, 10)) + 1j * rng.standard_normal((4, 10))
        assert sample_covariance(x).n_snapshots == 10

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            sample_covariance(np.zeros(4))


class TestNoiseProjector:
    def test_idempotent_and_rank(self):
        cov = sample_covariance(_snapshots(8, [0.3], 10.0, 100))
        c = noise_projector(cov, 1)
        np.testing.assert_allclose(c @ c, c, atol=1e-10)
        assert np.trace(c).real == pytest.approx(7.0)

    def test_annihilates_steering_vector_noiseless(self):
        u = 0.37
        a = steering_vector(8, u)
        x = np.outer(a, np.exp(2j * np.pi * trial_rng(0).random(12)))
        c = noise_projector(sample_covariance(x), 1)
        assert np.linalg.norm(c @ a) == pytest.approx(0.0, abs=1e-8)


class TestRootMusicPolynomial:
    def test_degree_and_conjugate_symmetry(self):
        cov = sample_covariance(_snapshots(6, [0.2], 0.0, 50))
        coeffs = root_music_polynomial(cov, 1)
        assert coeffs.shape == (11,)
        # c_{-l} = conj(c_l) since the projector is Hermitian
        np.testing.assert_allclose(coeffs, np.conj(coeffs[::-1]), atol=1e-12)

    def test_root_reciprocity(self):
        # roots come in (z, 1/conj(z)) pairs
        cov = sample_covariance(_snapshots(6, [0.2], 0.0, 50))
        roots = np.roots(root_music_polynomial(cov, 1))
        recip = 1.0 / np.conj(roots)
        for z in roots:
            assert np.min(np.abs(recip - z)) < 1e-6

    def test_matches_trace_sums(self):
        # oracle: one np.trace per diagonal
        for p, n_sources in ((5, 1), (16, 1), (33, 2)):
            cov = sample_covariance(_snapshots(p, [0.1, -0.4][:n_sources], 0.0, 40))
            c = noise_projector(cov, n_sources)
            traces = [np.trace(c, offset=l) for l in range(p - 1, -p, -1)]
            np.testing.assert_allclose(root_music_polynomial(cov, n_sources),
                                       traces, rtol=0, atol=1e-12)

    def test_matches_explicit_quadratic_form(self):
        # evaluate a(1/z)^H C a(z) directly on the unit circle
        cov = sample_covariance(_snapshots(5, [0.1], 0.0, 30))
        coeffs = root_music_polynomial(cov, 1)
        for omega in (-2.0, 0.3, 1.1):
            z = np.exp(1j * omega)
            a = z ** np.arange(5)
            direct = (a.conj() @ noise_projector(cov, 1) @ a).real
            poly = np.polyval(coeffs, z) / z ** 4
            assert poly.real == pytest.approx(direct, abs=1e-10)


class TestRootMusic:
    def test_noiseless_exact(self):
        u_true = [-0.41, 0.27]
        x = sum(np.outer(steering_vector(10, u),
                         np.exp(2j * np.pi * trial_rng(k).random(20)))
                for k, u in enumerate(u_true))
        u_hat = root_music(sample_covariance(x), 2)
        np.testing.assert_allclose(u_hat, sorted(u_true), atol=1e-9)

    def test_noiseless_two_source_corpus(self):
        # noiseless data put a double root on the unit circle at each
        # direction; rounding may split it into both halves of one mirror
        # pair, and each direction must still come back exactly once
        misses = []
        for k in range(400):
            rng = trial_rng(2718, k)
            p = int(rng.integers(6, 17))
            u = np.sort(rng.uniform(-0.95, 0.95, 2))
            while u[1] - u[0] < 4.0 / p:
                u = np.sort(rng.uniform(-0.95, 0.95, 2))
            x = sum(np.outer(steering_vector(p, uq),
                             np.exp(2j * np.pi * rng.random(20))) for uq in u)
            u_hat = root_music(sample_covariance(x), 2)
            if np.max(np.abs(u_hat - u)) > 1e-7:
                misses.append((k, p, tuple(u), tuple(u_hat)))
        assert misses == []

    def test_matches_grid_oracle(self):
        cov = sample_covariance(_snapshots(12, [0.15], 0.0, 80, seed=3))
        u_hat = root_music(cov, 1)
        u_grid, d = music_spectrum_grid(cov, 1)
        u_star = u_grid[np.argmin(d)]
        # the root sits just inside the unit circle, so allow a few grid steps
        assert abs(u_hat[0] - u_star) < 1e-5

    def test_wide_spacing_principal_interval(self):
        # spacing 2.0: estimates come back reduced to [-0.25, 0.25)
        u_true = 0.1
        a = np.exp(2j * np.pi * 2.0 * u_true * np.arange(6))
        x = np.outer(a, np.exp(2j * np.pi * trial_rng(2).random(15)))
        u_hat = root_music(sample_covariance(x), 1, spacing=2.0)
        assert -0.25 <= u_hat[0] < 0.25
        assert u_hat[0] == pytest.approx(0.1, abs=1e-9)

    def test_too_many_sources_rejected(self):
        cov = sample_covariance(_snapshots(4, [0.2], 0.0, 20))
        with pytest.raises(ValueError):
            root_music(cov, 4)

    @given(st.floats(-0.95, 0.95), st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_noiseless_single_source_any_direction(self, u, seed):
        x = np.outer(steering_vector(8, u),
                     np.exp(2j * np.pi * trial_rng(seed).random(10)))
        u_hat = root_music(sample_covariance(x), 1)
        assert u_hat[0] == pytest.approx(u, abs=1e-7)

    def test_moderate_snr_accuracy(self):
        cov = sample_covariance(_snapshots(16, [0.3], 10.0, 200, seed=4))
        assert root_music(cov, 1)[0] == pytest.approx(0.3, abs=5e-3)


class TestMusicSpectrumGrid:
    def test_nonnegative(self):
        cov = sample_covariance(_snapshots(8, [0.2], 0.0, 60))
        _, d = music_spectrum_grid(cov, 1, n_grid=4096)
        assert np.all(d >= -1e-9)

    def test_matches_direct_evaluation(self):
        cov = sample_covariance(_snapshots(6, [0.2], 0.0, 40))
        u_grid, d = music_spectrum_grid(cov, 1, n_grid=512)
        c = noise_projector(cov, 1)
        for j in (0, 100, 317, 511):
            a = steering_vector(6, u_grid[j])
            assert d[j] == pytest.approx((a.conj() @ c @ a).real, abs=1e-9)

    def test_grid_sorted_and_covers_interval(self):
        u_grid, _ = music_spectrum_grid(
            sample_covariance(_snapshots(4, [0.0], 0.0, 10)), 1, n_grid=256)
        assert np.all(np.diff(u_grid) > 0)
        assert u_grid[0] == pytest.approx(-1.0) and u_grid[-1] < 1.0


def _corpus(seed=2024):
    """Seeded one-source covariances over P, T, SNR and spacing."""
    i = 0
    for p in (4, 8, 13, 16, 24, 32, 48, 64):
        for t in (1, 50):
            for snr_db in (-10, -5, 0, 5, 10, 15):
                for spacing in (0.5, 2.0):
                    for _ in range(3):
                        rng = trial_rng(seed, i)
                        i += 1
                        u = rng.uniform(-0.45, 0.45) / spacing
                        a = np.exp(2j * np.pi * spacing * u * np.arange(p))
                        s = (10.0 ** (snr_db / 20.0)
                             * np.exp(2j * np.pi * rng.random(t)))
                        noise = (rng.standard_normal((p, t))
                                 + 1j * rng.standard_normal((p, t))) / np.sqrt(2.0)
                        yield (p, snr_db, spacing,
                               sample_covariance(np.outer(a, s) + noise))


def _du(z, ref, spacing):
    return abs(np.angle(z / ref)) / (2.0 * np.pi * spacing)


def _miss_case(trial, snr_db, block):
    """A TLHAD covariance on which the first start of the search lands on
    the wrong root: trial ``trial`` of the eta = 0.0625 array, theta = 15."""
    cfg = ArrayConfig.two_layer(64, 4, 0.0625)
    scen = EmitterScenario.single_emitter(15.0, snr_db, 1)
    batch = analog_combine(
        synthesize_snapshots(cfg, scen, trial_rng(242478359331798, trial)),
        cfg, AnalogWeights.broadside(cfg))
    if block == "had":
        return sample_covariance(batch.samples[: cfg.k_sub]), cfg.m_sub * cfg.spacing
    return sample_covariance(batch.samples[cfg.k_sub:]), cfg.spacing


class TestCertifiedRoot:
    """The one-source search against the companion-matrix oracle."""

    @pytest.fixture(scope="class")
    def corpus(self):
        out = []
        for p, snr_db, spacing, cov in _corpus():
            coeffs = root_music_polynomial(cov, 1)
            ref = spectral._companion_roots(coeffs, 1)[0]
            out.append((p, snr_db, spacing, cov, ref,
                        spectral._certified_root(coeffs)))
        return out

    def test_agrees_with_companion_roots(self, corpus):
        worst = max((_du(z, ref, spacing)
                     for _, _, spacing, _, ref, z in corpus if z is not None),
                    default=0.0)
        assert worst <= 1e-12

    def test_root_music_agrees_with_oracle(self, corpus):
        for _, _, spacing, cov, ref, _ in corpus:
            u = root_music(cov, 1, spacing)[0]
            assert _du(np.exp(2j * np.pi * spacing * u), ref, spacing) <= 1e-12

    def test_fast_path_taken(self, corpus):
        # a search that always fell back would pass the agreement tests
        hits = [z is not None for p, snr_db, _, _, _, z in corpus
                if p >= 32 and snr_db >= 5]
        assert sum(hits) >= len(hits) / 2

    @pytest.mark.parametrize("trial,snr_db,block", [
        (41, -10.0, "had"),  # P = 15 at spacing 2, chosen root |z| = 0.71
        (51, 0.0, "fd"),  # P = 4, chosen root |z| = 0.21
    ], ids=["had-trial41-minus10dB", "fd-trial51-0dB"])
    def test_known_miss(self, trial, snr_db, block):
        cov, spacing = _miss_case(trial, snr_db, block)
        coeffs = root_music_polynomial(cov, 1)
        a = coeffs[::-1]
        ref = spectral._companion_roots(coeffs, 1)[0]
        # the root below the deepest spectral minimum is not the closest
        # one, and the certificate must say so
        first = spectral._laguerre(a, spectral._deepest_minimum_start(a))[0]
        assert _du(first, ref, spacing) > 1e-3
        assert not spectral._certified(a, first)
        z = spectral._certified_root(coeffs)
        assert z is None or _du(z, ref, spacing) <= 1e-12
        u = root_music(cov, 1, spacing)[0]
        assert _du(np.exp(2j * np.pi * spacing * u), ref, spacing) <= 1e-12

    def test_more_sources_use_companion_roots(self, monkeypatch):
        cov = sample_covariance(_snapshots(20, [-0.3, 0.4], 10.0, 50))
        monkeypatch.setattr(spectral, "_certified_root", None)
        np.testing.assert_allclose(root_music(cov, 2), [-0.3, 0.4], atol=5e-3)

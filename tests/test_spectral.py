import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doalab import spectral
from doalab.arrays import (
    ArrayConfig,
    EmitterScenario,
    analog_combine,
    steering_vector,
    synthesize_snapshot_rows,
    synthesize_snapshots,
)
from doalab.crlb import crlb_fd
from doalab.errors import EstimationError
from doalab.quantize import normalise, quantize
from doalab.rng import TrialStreams, trial_rng
from doalab.spectral import (
    root_music,
    root_music_polynomial,
    root_music_rows,
    sample_covariance,
    signal_vectors,
)

from oracles import music_spectrum_grid


def _snapshots(n, u, snr_db, l, seed=0):
    scen = EmitterScenario.single_emitter(float(np.degrees(np.arcsin(u))),
                                          snr_db, l)
    return synthesize_snapshots(ArrayConfig.fully_digital(n), scen,
                                trial_rng(seed)).samples


def _noise_projector(cov):
    """E_n E_n^H from the noise eigenvectors of the one-source model: the
    oracle for the polynomial."""
    en = cov.eigenvectors[:, 1:]
    return en @ en.conj().T


def null_polynomials_oracle(vectors):
    """``spectral._null_polynomials`` one row at a time, one
    ``np.correlate`` per signal eigenvector."""
    p = vectors.shape[-1]
    upper = np.zeros((len(vectors), p), dtype=complex)
    for row, e in zip(upper, vectors):
        # np.correlate(e, e, "full")[k] is the autocorrelation at lag P-1-k
        row -= np.correlate(e, e, "full")[:p]
    upper[:, -1] = p + upper[:, -1].real
    return np.concatenate((upper, np.conj(upper[:, -2::-1])), axis=1)


def laguerre_oracle(a, z):
    """``spectral._laguerre`` with the forms and powers of the rows still
    iterating gathered afresh on every iteration."""
    n = a.shape[1] - 1
    k = np.arange(n + 1)
    forms = np.zeros((len(a), n + 1, 3), dtype=complex)
    forms[:, :, 0] = a
    forms[:, :-1, 1] = a[:, 1:] * k[1:]
    forms[:, :-2, 2] = a[:, 2:] * (k[2:] * (k[2:] - 1))
    tol = 4.0 * n * spectral._EPS * np.abs(a).sum(axis=1)
    z = np.array(z, dtype=complex)
    active = np.arange(z.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(spectral._MAX_ITER):
            zi = z[active]
            pw = np.empty((zi.size, 1, n + 1), dtype=complex)
            pw[:, 0, 0] = 1.0
            pw[:, 0, 1:] = zi[:, None]
            g, d1, d2 = (np.cumprod(pw, axis=2, out=pw) @ forms[active])[:, 0].T
            grad = d1 / g
            hess = grad * grad - d2 / g
            root = np.sqrt((n - 1) * (n * hess - grad * grad))
            plus, minus = grad + root, grad - root
            den = np.where(np.abs(plus) >= np.abs(minus), plus, minus)
            step = zi - n / den
            z[active] = np.where(np.abs(step) > 1.0, 1.0 / np.conj(step), step)
            active = active[np.abs(g) > tol[active]]
            if active.size == 0:
                break
    ok = np.isfinite(z)
    ok[active] = False
    return z, ok


class TestSampleCovariance:
    def test_hermitian_and_psd(self):
        cov = sample_covariance(_snapshots(8, 0.3, 0.0, 50))
        np.testing.assert_array_equal(cov.matrix, cov.matrix.conj().T)
        assert np.all(cov.eigenvalues >= -1e-12)

    def test_eigenvalues_descending(self):
        # two sources, one scenario each, summed here
        cov = sample_covariance(_snapshots(8, 0.3, 10.0, 100)
                                + _snapshots(8, -0.2, 10.0, 100, seed=1))
        assert np.all(np.diff(cov.eigenvalues) <= 1e-12)

    def test_reconstruction(self):
        cov = sample_covariance(_snapshots(6, 0.1, 0.0, 30))
        r = (cov.eigenvectors * cov.eigenvalues) @ cov.eigenvectors.conj().T
        np.testing.assert_allclose(r, cov.matrix, atol=1e-12)

    def test_trace_equals_mean_power(self):
        x = _snapshots(8, 0.3, 0.0, 200)
        cov = sample_covariance(x)
        assert np.trace(cov.matrix).real == pytest.approx(
            np.sum(np.mean(np.abs(x) ** 2, axis=1)))

    def test_deterministic_eigenvectors(self):
        x = _snapshots(6, 0.2, 0.0, 40)
        v1 = sample_covariance(x).eigenvectors
        v2 = sample_covariance(x.copy()).eigenvectors
        np.testing.assert_array_equal(v1, v2)

    def test_plain_array_accepted(self):
        rng = trial_rng(1)
        x = rng.standard_normal((4, 10)) + 1j * rng.standard_normal((4, 10))
        assert sample_covariance(x).dim == 4

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            sample_covariance(np.zeros(4))

    @pytest.mark.parametrize("p", [2, 3, 8, 13, 32, 64])
    def test_rank_one_matches_eigh(self, p):
        # one snapshot: eigh must give the closed form that signal_vectors
        # takes without it, |x|^2 on x / |x| and zeros on the complement
        rng = trial_rng(31, p)
        x = rng.standard_normal((p, 1)) + 1j * rng.standard_normal((p, 1))
        cov = sample_covariance(x)
        w = np.zeros(p)
        w[0] = np.linalg.norm(x) ** 2
        np.testing.assert_allclose(cov.eigenvalues, w, rtol=0, atol=1e-12)
        v = cov.eigenvectors
        np.testing.assert_allclose(v.conj().T @ v, np.eye(p), rtol=0, atol=1e-12)
        np.testing.assert_allclose((v * cov.eigenvalues) @ v.conj().T,
                                   cov.matrix, rtol=0, atol=1e-12)
        principal = signal_vectors(x[None])[0]
        assert abs(abs(np.vdot(v[:, 0], principal)) - 1.0) <= 1e-12

    def test_rank_one_zero_snapshot(self):
        cov = sample_covariance(np.zeros((6, 1)))
        np.testing.assert_array_equal(cov.eigenvalues, 0.0)
        v = cov.eigenvectors
        assert np.all(np.isfinite(v))
        np.testing.assert_allclose(v.conj().T @ v, np.eye(6), rtol=0, atol=1e-15)


class TestRootMusicPolynomial:
    def test_degree_and_conjugate_symmetry(self):
        cov = sample_covariance(_snapshots(6, 0.2, 0.0, 50))
        coeffs = root_music_polynomial(cov)
        assert coeffs.shape == (11,)
        # c_{-l} = conj(c_l) since the projector is Hermitian
        np.testing.assert_allclose(coeffs, np.conj(coeffs[::-1]), atol=1e-12)

    def test_root_reciprocity(self):
        # roots come in (z, 1/conj(z)) pairs
        cov = sample_covariance(_snapshots(6, 0.2, 0.0, 50))
        roots = np.roots(root_music_polynomial(cov))
        recip = 1.0 / np.conj(roots)
        for z in roots:
            assert np.min(np.abs(recip - z)) < 1e-6

    def test_vanishes_at_source_noiseless(self):
        u = 0.37
        x = np.outer(steering_vector(8, u),
                     np.exp(2j * np.pi * trial_rng(0).random(12)))
        coeffs = root_music_polynomial(sample_covariance(x))
        assert abs(np.polyval(coeffs, np.exp(1j * np.pi * u))) == pytest.approx(
            0.0, abs=1e-8)

    def test_matches_trace_sums(self):
        # oracle: one np.trace per diagonal of the noise projector
        for p, l in ((5, 40), (16, 40), (33, 40), (64, 40), (12, 1)):
            cov = sample_covariance(_snapshots(p, 0.1, 0.0, l))
            c = _noise_projector(cov)
            traces = [np.trace(c, offset=l) for l in range(p - 1, -p, -1)]
            np.testing.assert_allclose(root_music_polynomial(cov), traces,
                                       rtol=0, atol=1e-12)

    def test_matches_explicit_quadratic_form(self):
        # evaluate a(1/z)^H C a(z) directly on the unit circle
        cov = sample_covariance(_snapshots(5, 0.1, 0.0, 30))
        coeffs = root_music_polynomial(cov)
        for omega in (-2.0, 0.3, 1.1):
            z = np.exp(1j * omega)
            a = z ** np.arange(5)
            direct = (a.conj() @ _noise_projector(cov) @ a).real
            poly = np.polyval(coeffs, z) / z ** 4
            assert poly.real == pytest.approx(direct, abs=1e-10)

    def test_null_polynomials_match_correlate(self):
        # bit for bit against one np.correlate per row, on contiguous rows
        # and on eigh's strided eigenvector columns
        rng = trial_rng(5150)
        for p in range(2, 65):
            x = rng.standard_normal((6, p, 3)) + 1j * rng.standard_normal((6, p, 3))
            cols = np.linalg.eigh(x @ x.conj().transpose(0, 2, 1))[1]
            signal = cols[:, :, -1]
            assert not signal.flags.c_contiguous
            for v in (signal, signal.copy()):
                got = spectral._null_polynomials(v)
                assert got.tobytes() == null_polynomials_oracle(v).tobytes()


class TestRootMusic:
    def test_noiseless_exact(self):
        x = np.outer(steering_vector(10, -0.41),
                     np.exp(2j * np.pi * trial_rng(0).random(20)))
        u_hat = root_music(sample_covariance(x))
        assert type(u_hat) is float
        assert u_hat == pytest.approx(-0.41, abs=1e-9)

    def test_matches_grid_oracle(self):
        cov = sample_covariance(_snapshots(12, 0.15, 0.0, 80, seed=3))
        u_hat = root_music(cov)
        u_grid, d = music_spectrum_grid(cov)
        u_star = u_grid[np.argmin(d)]
        # the root sits just inside the unit circle, so allow a few grid steps
        assert abs(u_hat - u_star) < 1e-5

    def test_wide_spacing_principal_interval(self):
        # spacing 2.0: estimates come back reduced to [-0.25, 0.25)
        u_true = 0.1
        a = np.exp(2j * np.pi * 2.0 * u_true * np.arange(6))
        x = np.outer(a, np.exp(2j * np.pi * trial_rng(2).random(15)))
        u_hat = root_music(sample_covariance(x), spacing=2.0)
        assert -0.25 <= u_hat < 0.25
        assert u_hat == pytest.approx(0.1, abs=1e-9)

    def test_one_channel_rejected(self):
        cov = sample_covariance(_snapshots(4, 0.2, 0.0, 20)[:1])
        with pytest.raises(ValueError):
            root_music(cov)

    def test_positional_spacing_rejected(self):
        # spacing is keyword-only: a second positional argument fails
        # loudly instead of being read as the spacing
        cov = sample_covariance(_snapshots(4, 0.2, 0.0, 20))
        with pytest.raises(TypeError):
            root_music(cov, 1)
        with pytest.raises(TypeError):
            music_spectrum_grid(cov, 1)

    @given(st.floats(-0.95, 0.95), st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_noiseless_single_source_any_direction(self, u, seed):
        x = np.outer(steering_vector(8, u),
                     np.exp(2j * np.pi * trial_rng(seed).random(10)))
        u_hat = root_music(sample_covariance(x))
        assert u_hat == pytest.approx(u, abs=1e-7)

    def test_moderate_snr_accuracy(self):
        cov = sample_covariance(_snapshots(16, 0.3, 10.0, 200, seed=4))
        assert root_music(cov) == pytest.approx(0.3, abs=5e-3)

    @pytest.mark.parametrize("snr_db", [0.0, 10.0])
    def test_pays_the_music_factor(self, snr_db):
        """Over many snapshots, Root-MUSIC on one source has the MUSIC
        variance, 1 + 1/(P SNR) times the conditional bound.

        Stoica & Nehorai (IEEE Trans. ASSP 37(5), 1989) give MUSIC's
        large-T error covariance, with H = D^H (I - A (A^H A)^-1 A^H) D and
        S the sources' sample covariance, in noise of power sigma^2:
            C_MU = sigma^2 / (2T) (H o I)^-1 Re[H o U^T] (H o I)^-1,
            U = S^-1 + sigma^2 S^-1 (A^H A)^-1 S^-1,
        and the conditional (deterministic-signal) bound that ``crlb_fd``
        computes as
            CRB = sigma^2 / (2T) Re[H o S^T]^-1.
        One source of power s in unit noise on P antennas makes every
        term a scalar, A^H A = P, so C_MU = (1/s + 1/(P s^2)) / (2 T h)
        and CRB = 1 / (2 T h s): C_MU / CRB = 1 + 1/(P s).  Rao & Hari
        (IEEE Trans. ASSP 37(12), 1989) show Root-MUSIC has MUSIC's
        asymptotic variance.  The constant-modulus waveform has sample
        power s exactly, and a ratio of variances keeps its value from
        theta to u = sin(theta), so it holds for errors in u against
        ``crlb_fd`` cos^2(theta).  At P = 32 the factor is 1.031 at 0 dB
        and 1.003 at 10 dB; 4,000 trials at T = 50 read 1.030 and 1.001,
        each with an SE of 0.023, and the gate is 3 SE around the factor;
        at that SE it cannot yet tell the 0 dB factor from 1.
        """
        p, t, theta, n = 32, 50, 15.0, 4000
        cfg = ArrayConfig.fully_digital(p)
        scen = EmitterScenario.single_emitter(theta, snr_db, t)
        u = []
        for a in range(0, n, 1000):  # 25 MiB of snapshots a block
            x = synthesize_snapshot_rows(cfg, scen, TrialStreams(101, range(a, a + 1000)))
            u.append(root_music_rows(signal_vectors(x[:, 0]), cfg.spacing))
        u = np.concatenate(u)
        bound = crlb_fd(p, theta, snr_db, t) * math.cos(math.radians(theta)) ** 2
        sq = (u - math.sin(math.radians(theta))) ** 2 / bound
        factor = 1.0 + 1.0 / (p * 10.0 ** (snr_db / 10.0))
        assert abs(sq.mean() - factor) <= 3.0 * sq.std(ddof=1) / math.sqrt(n)


class TestMusicSpectrumGrid:
    def test_nonnegative(self):
        cov = sample_covariance(_snapshots(8, 0.2, 0.0, 60))
        _, d = music_spectrum_grid(cov, n_grid=4096)
        assert np.all(d >= -1e-9)

    def test_matches_direct_evaluation(self):
        cov = sample_covariance(_snapshots(6, 0.2, 0.0, 40))
        u_grid, d = music_spectrum_grid(cov, n_grid=512)
        c = _noise_projector(cov)
        for j in (0, 100, 317, 511):
            a = steering_vector(6, u_grid[j])
            assert d[j] == pytest.approx((a.conj() @ c @ a).real, abs=1e-9)

    def test_grid_sorted_and_covers_interval(self):
        u_grid, _ = music_spectrum_grid(
            sample_covariance(_snapshots(4, 0.0, 0.0, 10)), n_grid=256)
        assert np.all(np.diff(u_grid) > 0)
        assert u_grid[0] == pytest.approx(-1.0) and u_grid[-1] < 1.0


def _corpus(seed=2024):
    """Seeded one-source trials over P, T, SNR and spacing:
    (p, t, snr_db, spacing, samples)."""
    i = 0
    for p in (4, 8, 12, 13, 16, 24, 32, 48, 64):
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
                        yield p, t, snr_db, spacing, np.outer(a, s) + noise


def _du(z, ref, spacing):
    return abs(np.angle(z / ref)) / (2.0 * np.pi * spacing)


def _miss_case(trial, snr_db, block):
    """A TLHAD covariance on which the first start of the search lands on
    the wrong root: trial ``trial`` of the eta = 0.0625 array, theta = 15."""
    cfg = ArrayConfig.two_layer(64, 4, 0.0625)
    scen = EmitterScenario.single_emitter(15.0, snr_db, 1)
    x = analog_combine(
        synthesize_snapshots(cfg, scen, trial_rng(242478359331798, trial)).samples,
        cfg)
    if block == "had":
        return sample_covariance(x[: cfg.k_sub]), cfg.m_sub * cfg.spacing
    return sample_covariance(x[cfg.k_sub:]), cfg.spacing


def _groups(items, key):
    """Indices of ``items`` grouped by ``key(item)``, in first-seen order."""
    groups = {}
    for i, item in enumerate(items):
        groups.setdefault(key(item), []).append(i)
    return groups.values()


@pytest.fixture(scope="module")
def block_9001():
    """Signal eigenvectors and null polynomials of a low-SNR TLHAD FD block:
    trials 0-199 of seed 9001, eta = 1 (P = 64), -10 dB, ten of whose
    rows are near-tied."""
    cfg = ArrayConfig.two_layer(64, 4, 1.0)
    scen = EmitterScenario.single_emitter(15.0, -10.0, 1)
    x = synthesize_snapshot_rows(
        cfg, scen, [trial_rng(9001, i) for i in range(200)])[:, 0]
    v = signal_vectors(analog_combine(x, cfg)[:, cfg.k_sub:])
    return v, spectral._null_polynomials(v)


def _search_stacks(corpus, block):
    """The corpus's polynomials, one stack per P, and ``block``'s, in the
    chunks ``root_music_rows`` searches at once."""
    stacks = [np.array([corpus[i][6] for i in idx])
              for idx in _groups(corpus, lambda c: c[0])]
    stacks.append(block[1])
    for coeffs in stacks:
        p = (coeffs.shape[1] + 1) // 2
        step = spectral._search_rows(p)
        for i in range(0, len(coeffs), step):
            yield coeffs[i:i + step]


class TestCertifiedRoot:
    """The one-source search against the companion-matrix oracle."""

    @pytest.fixture(scope="class")
    def corpus(self):
        """Per trial: (p, t, snr_db, spacing, samples, cov, coeffs, oracle
        root, root of the search over all trials with the same P)."""
        out = []
        for p, t, snr_db, spacing, x in _corpus():
            cov = sample_covariance(x)
            coeffs = root_music_polynomial(cov)
            out.append([p, t, snr_db, spacing, x, cov, coeffs,
                        spectral._companion_roots(coeffs)])
        for idx in _groups(out, lambda c: c[0]):
            found = spectral._certified_roots(np.array([out[i][6] for i in idx]))
            for i, z in zip(idx, found):
                out[i].append(z)
        return out

    def test_agrees_with_companion_roots(self, corpus):
        worst = max((_du(z, ref, spacing)
                     for _, _, _, spacing, _, _, _, ref, z in corpus
                     if not np.isnan(z)), default=0.0)
        assert worst <= 1e-12

    def test_rows_independent_of_stack(self, corpus):
        # each row's arithmetic depends on that row alone, so a one-row
        # search gives the stacked result bit for bit
        for *_, coeffs, _, z in corpus:
            one = spectral._certified_roots(coeffs[None])[0]
            assert one == z or (np.isnan(one) and np.isnan(z))

    def test_rows_agree_with_oracle(self, corpus):
        # signal eigenvectors straight from the samples (x / |x| for one
        # snapshot, a stacked eigh otherwise), one search per stack
        for idx in _groups(corpus, lambda c: (c[0], c[1], c[3])):
            spacing = corpus[idx[0]][3]
            x = np.stack([corpus[i][4] for i in idx])
            u = root_music_rows(signal_vectors(x), spacing)
            for i, u_i in zip(idx, u):
                ref = corpus[i][7]
                assert _du(np.exp(2j * np.pi * spacing * u_i), ref,
                           spacing) <= 1e-12

    def test_fast_path_taken(self, corpus):
        # a search that always fell back would pass the agreement tests
        hits = [not np.isnan(z) for p, _, snr_db, *_, z in corpus
                if p >= 32 and snr_db >= 5]
        assert sum(hits) >= len(hits) / 2

    @pytest.mark.parametrize("p", [12, 32, 64])
    @pytest.mark.parametrize("snr_list,share", [
        ((0.0, 5.0, 10.0, 15.0), 0.98),
        ((-10.0,), 0.99),
    ], ids=["0-15dB", "minus10dB"])
    def test_stacked_fast_path_share(self, p, snr_list, share):
        # the stacked search must certify most rows itself: the companion
        # fallback keeps results right, so only this share shows a search
        # that stopped working.  400 one-snapshot rows, spacing 0.5 and 2;
        # measured share: 1.0 at every P, at 0-15 dB and at -10 dB (at
        # -10 dB it was 0.985, 0.968 and 0.940 at P = 12, 32 and 64 while
        # the certificate refined the whole circle)
        vectors = []
        for i in range(400):
            rng = trial_rng(77, i)
            spacing = 2.0 if i % 2 else 0.5
            u = rng.uniform(-0.45, 0.45) / spacing
            snr_db = snr_list[i % len(snr_list)]
            a = np.exp(2j * np.pi * spacing * u * np.arange(p))
            x = (10.0 ** (snr_db / 20.0) * np.exp(2j * np.pi * rng.random()) * a
                 + (rng.standard_normal(p)
                    + 1j * rng.standard_normal(p)) / np.sqrt(2.0))
            vectors.append(x / np.linalg.norm(x))
        found = spectral._certified_roots(
            spectral._null_polynomials(np.array(vectors)))
        assert np.mean(~np.isnan(found)) >= share

    @pytest.mark.parametrize("eta", [0.5, 1.0], ids=["P32", "P64"])
    def test_at_most_two_rounds(self, monkeypatch, eta):
        # below the ambiguity threshold the first start lands on the wrong
        # root in most rows of a TLHAD FD block; such a row takes the wave,
        # a few-lane round from the minima of smallest predicted distance,
        # and only when that leaves it uncertified a search from every
        # spectral minimum, never more.  At P = 64 a row past the first
        # round takes 6.0 lanes on average, where a search from every
        # minimum takes 40.5, and the wave certifies 94 of its 99 rows
        cfg = ArrayConfig.two_layer(64, 4, eta)
        scen = EmitterScenario.single_emitter(15.0, -10.0, 1)
        x = np.stack([analog_combine(synthesize_snapshots(
            cfg, scen, trial_rng(4242, i)).samples, cfg)[cfg.k_sub:]
            for i in range(100)])
        coeffs = spectral._null_polynomials(signal_vectors(x))
        calls = []
        laguerre = spectral._laguerre

        def counted(a, z):
            calls.append(np.count_nonzero(~np.isnan(z)))  # NaN: no start
            return laguerre(a, z)

        monkeypatch.setattr(spectral, "_laguerre", counted)
        rounds = []
        for row in coeffs:
            calls.clear()
            spectral._certified_roots(row[None])
            rounds.append(list(calls))
        assert max(map(len, rounds)) <= 3
        again = [r for r in rounds if len(r) > 1]
        assert len(again) >= len(rounds) / 2
        assert np.mean([sum(r[1:]) for r in again]) <= 8
        assert sum(len(r) == 2 for r in again) >= 0.9 * len(again)

    def test_rows_searched_in_chunks(self, monkeypatch):
        # root_music_rows splits a stack into searches of
        # _search_rows(P) rows, which bounds their memory;
        # every row still comes out as a one-row search gives it
        cfg = ArrayConfig.fully_digital(64)
        step = spectral._search_rows(64)
        scen = EmitterScenario.single_emitter(15.0, -10.0, 1)
        v = signal_vectors(np.stack([synthesize_snapshots(
            cfg, scen, trial_rng(4243, i)).samples for i in range(2 * step + 6)]))
        sizes = []
        search = spectral._certified_roots

        def counted(coeffs):
            sizes.append(len(coeffs))
            return search(coeffs)

        monkeypatch.setattr(spectral, "_certified_roots", counted)
        u = root_music_rows(v)
        assert sizes == [step, step, 6]
        for row, u_i in zip(v, u):
            assert root_music_rows(row[None])[0] == u_i

    def test_near_tied_rows_certified(self, monkeypatch, block_9001):
        # on near-tied rows a second root lies 3e-5 to 2e-4 inside the
        # closest one; bisecting the arcs beside it resolves the count
        # where the root lies, so no row needs the companion matrix
        v, coeffs = block_9001
        near, ref = [], []
        for i, row in enumerate(coeffs):
            roots = np.roots(row)
            roots = roots[np.abs(roots) <= 1.0]
            radius = np.sort(np.abs(roots))
            if radius[-1] - radius[-2] < 2e-4:
                near.append(i)
                ref.append(roots[np.abs(roots).argmax()])
        assert len(near) == 10

        def refuse(coeffs):
            pytest.fail("a near-tied row fell back to the companion matrix")

        monkeypatch.setattr(spectral, "_companion_roots", refuse)
        u = root_music_rows(v[near])
        for u_i, z in zip(u, ref):
            assert _du(np.exp(1j * np.pi * u_i), z, 0.5) <= 1e-12

    def test_laguerre_matches_oracle(self, corpus, block_9001, monkeypatch):
        # every Laguerre call of both rounds, bit for bit against the
        # form that gathers the rows still iterating on every iteration
        laguerre = spectral._laguerre
        lanes = []

        def both(a, z):
            got = laguerre(a, z)
            # the oracle takes one start per row: a copy of its row each
            starts = np.reshape(z, (len(a), -1))
            want = laguerre_oracle(np.repeat(a, starts.shape[1], axis=0),
                                   starts.reshape(-1))
            assert got[0].tobytes() == want[0].tobytes()
            np.testing.assert_array_equal(got[1].reshape(-1), want[1])
            lanes.append(np.count_nonzero(~np.isnan(starts)))  # NaN: no start
            return got

        monkeypatch.setattr(spectral, "_laguerre", both)
        for coeffs in _search_stacks(corpus, block_9001):
            spectral._certified_roots(coeffs)
        # the second round ran, with many lanes per row
        assert max(lanes) > spectral._search_rows(64)

    def test_certificate_first_pass_density(self, corpus, block_9001,
                                            monkeypatch):
        # the first pass samples 8n points; every verdict is the one a
        # first pass of 16n points gives, near-tied rows included
        certified = spectral._certified
        pow2 = spectral._pow2_at_least
        verdicts = []

        def both(a, best):
            got = certified(a, best)
            n = a.shape[1] - 1
            with monkeypatch.context() as m:
                m.setattr(spectral, "_pow2_at_least", lambda _: pow2(16 * n))
                dense = certified(a, best)
            for mask, want in zip(got, dense):
                np.testing.assert_array_equal(mask, want)
            verdicts.append(got[0] | got[1])
            return got

        monkeypatch.setattr(spectral, "_certified", both)
        for coeffs in _search_stacks(corpus, block_9001):
            spectral._certified_roots(coeffs)
        decided = np.concatenate(verdicts)
        assert decided.mean() > 0.9

    @pytest.mark.parametrize("trial,snr_db,block", [
        (41, -10.0, "had"),  # P = 15 at spacing 2, chosen root |z| = 0.71
        (51, 0.0, "fd"),  # P = 4, chosen root |z| = 0.21
    ], ids=["had-trial41-minus10dB", "fd-trial51-0dB"])
    def test_known_miss(self, trial, snr_db, block):
        cov, spacing = _miss_case(trial, snr_db, block)
        coeffs = root_music_polynomial(cov)
        a = coeffs[None, ::-1]
        ref = spectral._companion_roots(coeffs)
        # the root below the deepest spectral minimum is not the closest
        # one, and the certificate must say so
        phase, sigma = spectral._spectrum_minima(a)
        j = sigma[0].argmin()
        first = spectral._laguerre(
            a, np.array([[np.exp(-sigma[0, j] + 1j * phase[0, j])]]))[0][:, 0]
        assert _du(first[0], ref, spacing) > 1e-3
        certified, closer = spectral._certified(a, first)
        assert not certified[0] and closer[0]
        z = spectral._certified_roots(coeffs[None])[0]
        assert np.isnan(z) or _du(z, ref, spacing) <= 1e-12

    @pytest.mark.parametrize("eta,snr_db,block,p,trials", [
        (0.0625, -10.0, "fd", 4, (5, 938, 1907)),
        (0.0625, 0.0, "fd", 4, (522, 1124)),
        (0.0625, 10.0, "fd", 4, (1026, 1436)),
        (0.0625, -10.0, "had", 15, (448,)),
        (0.25, -10.0, "had", 12, (1455,)),
        (0.5, -10.0, "had", 8, (832, 1142)),
        (0.75, -10.0, "had", 4, (437, 1361)),
        (0.75, 10.0, "had", 4, (82,)),
        (1.0, -10.0, "fd", 64, (604,)),
    ])
    def test_production_fallback_rows(self, monkeypatch, eta, snr_db, block,
                                      p, trials):
        # the 15 of the 54,000 rows a default rmse-eta run searches (seed
        # 20240901, theta 15, one snapshot, 64 antennas in subarrays of 4)
        # that the certified search leaves to the companion matrix: at
        # 10 dB and P = 4 the first start ends non-finite, and on trial
        # 604 at P = 64 the second round is not certified
        cfg = ArrayConfig.two_layer(64, 4, eta)
        scen = EmitterScenario.single_emitter(15.0, snr_db, 1)
        x = analog_combine(synthesize_snapshot_rows(
            cfg, scen, TrialStreams(20240901, trials))[:, 0], cfg)
        if block == "had":
            x, spacing = x[:, :cfg.k_sub], cfg.m_sub * cfg.spacing
        else:
            x, spacing = x[:, cfg.k_sub:], cfg.spacing
        assert x.shape[1] == p
        ref = [root_music(sample_covariance(row), spacing=spacing) for row in x]
        fallen = []
        companion = spectral._companion_roots

        def counted(coeffs):
            fallen.append(coeffs)
            return companion(coeffs)

        monkeypatch.setattr(spectral, "_companion_roots", counted)
        u = root_music_rows(signal_vectors(x), spacing)
        assert len(fallen) == len(trials)
        np.testing.assert_allclose(u, ref, rtol=0, atol=1e-12)

    def test_search_memory_bounded(self):
        # 200 rows at P = 64 and -10 dB, where most rows take a second
        # round with a Laguerre lane per spectrum minimum.  The
        # certificate's first pass holds the most, about 110 bytes a row
        # per sample: the 73-row searches of _search_rows(64) peak near
        # 8.3 MiB, 16-row ones near 2.2 MiB and 128-row ones near 14 MiB
        cfg = ArrayConfig.fully_digital(64)
        scen = EmitterScenario.single_emitter(15.0, -10.0, 1)
        v = signal_vectors(synthesize_snapshot_rows(
            cfg, scen, [trial_rng(4243, i) for i in range(200)])[:, 0])
        root_music_rows(v[:2])  # fills the unit-root caches
        tracemalloc.start()
        try:
            root_music_rows(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_closest_first_per_row(self):
        # along the last axis of a (rows, lanes) array: largest |z| first,
        # ties to smaller |phase|, then to the earlier lane; NaN lanes last.
        # Entries are a few values with the signs of their parts flipped,
        # which keeps |z| and, for conjugates, |phase|: ties abound
        rng = trial_rng(31)
        pool = np.array([0.3 + 0.4j, 0.6 + 0.8j, 0.8 + 0.6j, 0.99 + 0.0j])
        z = pool[rng.integers(0, 4, (200, 7))]
        z = (rng.choice([-1.0, 1.0], z.shape) * z.real
             + 1j * rng.choice([-1.0, 1.0], z.shape) * z.imag)
        z[rng.random(z.shape) < 0.3] = np.nan
        keys = np.stack((-np.abs(z), np.abs(np.angle(z))), axis=-1)
        order = spectral._closest_first(z)
        for row, key, got in zip(z, keys, order):
            lanes = np.flatnonzero(~np.isnan(row))
            want = sorted(lanes, key=lambda j: (*key[j], j))
            assert list(got) == want + list(np.flatnonzero(np.isnan(row)))

    def test_round_tie_keeps_lane(self, monkeypatch):
        # a lane that ties the first round's root in |z| and in |phase|
        # wins: ``first`` is the last lane of ``_closest_first``
        v = signal_vectors(_stack(8, 1, 0.0, 5, 6))
        a = spectral._null_polynomials(v)[:, ::-1]
        first = 0.9 * np.exp(1j * np.linspace(0.3, 2.8, len(a)))
        monkeypatch.setattr(spectral, "_laguerre", lambda a, z: (
            np.conj(first)[:, None], np.ones((len(a), 1), dtype=bool)))
        kept, _ = spectral._round(a, np.zeros((len(a), 1)), first)
        assert kept.tobytes() == np.conj(first).tobytes()

    @pytest.mark.parametrize("width", [1, 4, 64])
    def test_restart_starts(self, width):
        # the starts of the later rounds (``_minima_starts``): per row, a
        # lane at each of its ``width`` finite minima of smallest sigma
        # (ties to the lower column), in column order, NaN in place of an
        # infinite minimum, and as many lanes as the row with the most
        # such minima
        v = signal_vectors(_stack(8, 1, 0.0, 5, 6))
        a = spectral._null_polynomials(v)[:, ::-1]
        phase, _ = spectral._spectrum_minima(a)
        rng = trial_rng(32)
        sigma = rng.choice([0.01, 0.02, 0.05, np.inf], phase.shape)
        sigma[0] = np.inf
        sigma[0, [3, 40]] = 0.02  # a row of two finite minima
        sigma[1, :] = 0.01  # a row of ties only
        starts = spectral._minima_starts(phase, sigma, width)
        finite = [np.flatnonzero(np.isfinite(s)) for s in sigma]
        chosen = [sorted(sorted(cols, key=lambda j: (s[j], j))[:width])
                  for s, cols in zip(sigma, finite)]
        assert starts.shape == (len(a), max(map(len, chosen)))
        for row, p, cols in zip(starts, phase, chosen):
            np.testing.assert_array_equal(
                row[~np.isnan(row)],
                spectral._RESTART_RADIUS * np.exp(1j * p[cols]))
        assert list(chosen[0]) == ([3, 40] if width > 1 else [3])
        assert list(chosen[1]) == list(range(min(width, phase.shape[1])))


class TestSignalVectors:
    @pytest.mark.parametrize("t", [1, 7])
    def test_principal_eigenvector(self, t):
        rng = trial_rng(8)
        x = rng.standard_normal((5, 6, t)) + 1j * rng.standard_normal((5, 6, t))
        v = signal_vectors(x)
        for xb, vb in zip(x, v):
            e = sample_covariance(xb).eigenvectors[:, 0]
            # equal up to a unit-modulus phase
            assert abs(abs(np.vdot(e, vb)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("t", [1, 3])
    def test_zero_snapshots(self, t):
        # an all-zero trial gets the unit vector eigh returns for a zero
        # covariance, with no warning, and both Root-MUSIC paths agree
        x = np.zeros((3, 6, t), dtype=complex)
        x[1] = trial_rng(12).standard_normal((6, t))
        v = signal_vectors(x)
        zero_vec = np.linalg.eigh(np.zeros((6, 6)))[1][:, -1]
        np.testing.assert_array_equal(v[[0, 2]], [zero_vec, zero_vec])
        u = root_music_rows(v)
        for xb, u_b in zip(x, u):
            assert u_b == pytest.approx(
                root_music(sample_covariance(xb)), abs=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            signal_vectors(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            root_music_rows(np.ones((2, 1)))


def _with_eigh_rows(x):
    """``signal_vectors(x)``, the vectors of one stacked ``eigh`` of the
    covariances (the oracle), and a mask of the rows ``signal_vectors``
    passed to ``eigh``."""
    r = spectral._covariances(x)
    eigh = np.linalg.eigh
    sent = set()

    def spy(a):
        sent.update(m.tobytes() for m in a)
        return eigh(a)

    with mock.patch.object(np.linalg, "eigh", spy):
        v = signal_vectors(x)
    return v, eigh(r)[1][:, :, -1], np.array([m.tobytes() in sent for m in r])


def _well_posed_roots(vectors):
    """Per row, whether the Root-MUSIC root of the vector moves by no
    more than rounding when the vector does: it lies at least 0.5 from the
    origin, where the phase is defined, and 1e-3 from every other root.
    A near-double root, the split pair of a high-SNR source on the circle,
    moves by about rounding over its split: at P = 2, 22 dB and T = 172, a
    split of 3e-5 turned vectors equal to 2e-16 into direction-sines 3e-12
    apart.  A root at the origin, which an eigenvector that is one antenna
    to rounding gives, has a phase that rounding picks."""
    ok = []
    for c in spectral._null_polynomials(vectors):
        z = np.roots(c)
        root = spectral._companion_roots(c)
        others = np.delete(z, np.argmin(np.abs(z - root)))
        ok.append(abs(root) >= 0.5 and np.min(np.abs(others - root)) >= 1e-3)
    return np.array(ok)


def _stack(p, t, snr_db, seed, trials, u=0.25):
    scen = EmitterScenario.single_emitter(math.degrees(math.asin(u)), snr_db, t)
    return synthesize_snapshot_rows(ArrayConfig.fully_digital(p), scen,
                                    [trial_rng(seed, i) for i in range(trials)])[:, 0]


class TestPrincipalVectors:
    """The certified power iteration of ``signal_vectors`` against one
    stacked ``eigh``: certified rows agree with it to 1e-12, every other
    row is its bytes."""

    @given(p=st.integers(2, 64), t=st.integers(2, 200),
           snr_db=st.floats(-20.0, 30.0), u=st.floats(-0.95, 0.95),
           bits=st.integers(0, 8), silent=st.integers(0, 3),
           zero_trial=st.booleans(),
           scale=st.sampled_from([1.0, 1e-150, 1e-60, 1e60, 1e100, 1e150]),
           seed=st.integers(0, 2 ** 32))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_eigh(self, p, t, snr_db, u, bits, silent, zero_trial,
                              scale, seed):
        # bits 0 is the unquantized stack; silent channels have scale 0
        x = _stack(p, t, snr_db, seed, 4, u)
        x[:, :min(silent, p - 1)] = 0.0
        if zero_trial:
            x[0] = 0.0
        if bits:
            x = quantize(normalise(x), bits)
        v, e, fallen = _with_eigh_rows(x * scale)
        assert v[fallen].tobytes() == e[fallen].tobytes()
        assert np.all(np.abs(np.vecdot(e[~fallen], v[~fallen])) >= 1.0 - 1e-12)
        # a direction-sine is a phase: compare it modulo 2, on the rows
        # whose root is well posed
        du = root_music_rows(v) - root_music_rows(e)
        du = np.abs((du + 1.0) % 2.0 - 1.0)
        assert np.all(du[_well_posed_roots(e)] <= 1e-12)

    @pytest.mark.parametrize("p", [2, 8, 32])
    @pytest.mark.parametrize("rotated", [False, True])
    def test_repeated_top_eigenvalue(self, p, rotated):
        # T = 2 orthogonal snapshots of equal norm: the top eigenvalue is
        # double, so no vector is certified and every row is eigh's
        q = np.eye(p, dtype=complex)
        if rotated:
            rng = trial_rng(17, p)
            q = np.linalg.qr(rng.standard_normal((p, p))
                             + 1j * rng.standard_normal((p, p)))[0]
        x = np.stack([3.0 * q[:, :2], 0.5 * q[:, -2:]])
        v, e, fallen = _with_eigh_rows(x)
        assert fallen[0]
        assert v.tobytes() == e.tobytes()

    @pytest.mark.parametrize("bits", [0, 2])
    def test_row_independent_of_stack(self, bits):
        # 10, 0 and -5 dB rows certify after 6-8, 11-12 and 17-22
        # iterations, -10 dB rows fall back at the first, and -8 dB rows
        # certify late, fall back at several iterations, and one of them
        # is still open at the cap.  Mixed in one stack, whose rows are
        # gathered four or five times, a row keeps its bytes whatever
        # block it is rooted in
        snrs = ((0.0, 23), (-10.0, 29), (10.0, 37), (-5.0, 41), (-8.0, 8))
        x = np.empty((15 * len(snrs), 32, 50), dtype=complex)
        for k, (snr_db, seed) in enumerate(snrs):
            x[k::len(snrs)] = _stack(32, 50, snr_db, seed, 15)
        if bits:
            x = quantize(normalise(x), bits)
        whole = signal_vectors(x)
        for bounds in ((0, 11, 12, len(x)), tuple(range(len(x) + 1))):
            parts = [signal_vectors(x[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
            assert np.concatenate(parts).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("snr_db, rows", [(0.0, 0), (-10.0, 50)])
    def test_eigh_rows(self, monkeypatch, snr_db, rows):
        # at P = 32, T = 50 every 0 dB row is certified without eigh, and
        # every -10 dB row goes to one stacked eigh
        sent = []
        eigh = np.linalg.eigh

        def counted(a):
            sent.append(len(a))
            return eigh(a)

        x = _stack(32, 50, snr_db, 31, 50)
        monkeypatch.setattr(np.linalg, "eigh", counted)
        signal_vectors(x)
        assert sum(sent) == rows and len(sent) <= 1

    def test_empty_stack(self):
        assert signal_vectors(np.zeros((0, 4, 3))).shape == (0, 4)


def _wrapped(du, spacing):
    """|du| for direction-sines, which the search gives modulo the period
    1/spacing of the root's phase."""
    period = 1.0 / spacing
    return np.abs((du + period / 2.0) % period - period / 2.0)


def _closest_two(vectors):
    """Per row, the distances to the unit circle of the two roots inside
    it that lie closest to it, from the companion matrix; inf for a
    missing second root."""
    out = []
    for c in spectral._null_polynomials(vectors):
        z = np.roots(c)
        d = np.sort(1.0 - np.abs(z[np.abs(z) <= 1.0]))
        out.append(np.append(d, [np.inf, np.inf])[:2])
    return out


class TestMetamorphic:
    """Symmetries of the one-source model, checked on every row without a
    second root finder: a phase ramp e^{2 pi i k d delta} over the
    channels moves the estimate by delta, and conjugation negates it.
    Rounding moves an estimate by under 1e-15 (7,200 seeded rows, P 8-64,
    -10-10 dB, T 1 and 50); the bound is 1e-12.  A row whose two roots
    closest to the circle lie within 1e-9 of each other in distance from
    it may pick the other root once transformed: such a row is reported
    with both distances, as a warning, and any other row that moves fails
    the test."""

    @staticmethod
    def _check(x, delta, spacing):
        v = signal_vectors(x)
        est = root_music_rows(v, spacing)
        ramp = np.exp(2j * np.pi * spacing * delta * np.arange(x.shape[1]))
        moved = root_music_rows(signal_vectors(x * ramp[:, None]), spacing)
        negated = -root_music_rows(signal_vectors(x.conj()), spacing)
        for what, got in (("phase ramp", moved - delta),
                          ("conjugation", negated)):
            for row in np.flatnonzero(_wrapped(got - est, spacing) > 1e-12):
                d1, d2 = _closest_two(v[row:row + 1])[0]
                report = (f"{what}: P={x.shape[1]} T={x.shape[2]} row {row} "
                          f"moved {_wrapped(got[row] - est[row], spacing):.3g}; "
                          f"its two closest roots lie {d1:.3g} and {d2:.3g} "
                          f"inside the circle")
                assert d2 - d1 <= 1e-9, report
                warnings.warn("near-tied row, " + report)

    @given(p=st.integers(2, 64), t=st.sampled_from([1, 2, 50]),
           snr_db=st.floats(-10.0, 20.0), u=st.floats(-0.95, 0.95),
           delta=st.floats(-1.0, 1.0), spacing=st.sampled_from([0.5, 2.0]),
           seed=st.integers(0, 2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_phase_ramp_and_conjugation(self, p, t, snr_db, u, delta,
                                        spacing, seed):
        scen = EmitterScenario.single_emitter(math.degrees(math.asin(u)),
                                              snr_db, t)
        x = synthesize_snapshot_rows(ArrayConfig.fully_digital(p, spacing),
                                     scen, TrialStreams(seed, range(6)))[:, 0]
        self._check(x, delta, spacing)

    def test_tied_row_reported(self):
        # a real snapshot is its own conjugate, so conjugation cannot
        # negate its estimate; its roots come in conjugate pairs, at one
        # distance from the circle, and the row is reported as tied
        x = trial_rng(5).standard_normal((1, 8, 1)) + 0j
        with pytest.warns(UserWarning, match="near-tied row, conjugation"):
            self._check(x, 0.0, 0.5)

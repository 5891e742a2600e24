import math

import numpy as np
import pytest

import doalab.quantize as quantize_module
from doalab.quantize import (
    distortion_factor,
    effective_snr,
    lloyd_max_codebook,
    performance_loss_db,
    quantize,
)
from doalab.rng import trial_rng

# classic Lloyd-Max distortions for a unit-variance Gaussian source
RHO_TABLE = {
    1: 1.0 - 2.0 / math.pi,  # exactly 1 - 2/pi
    2: 0.117481,
    3: 0.034548,
    4: 0.009497,
    5: 0.002499,
    6: 0.000640,
}


class TestLloydMax:
    def test_one_bit_closed_form(self):
        levels, thresholds, rho = lloyd_max_codebook(1)
        np.testing.assert_allclose(levels, [-np.sqrt(2 / np.pi), np.sqrt(2 / np.pi)],
                                   atol=1e-9)
        np.testing.assert_allclose(thresholds, [0.0], atol=1e-12)
        assert rho == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-9)

    @pytest.mark.parametrize("bits,rho", sorted(RHO_TABLE.items()))
    def test_distortion_table(self, bits, rho):
        assert distortion_factor(bits) == pytest.approx(rho, abs=2e-4)

    def test_distortion_decreasing(self):
        rhos = [distortion_factor(b) for b in range(1, 9)]
        assert all(a > b for a, b in zip(rhos, rhos[1:]))

    def test_each_step_cuts_distortion_by_more_than_half(self):
        for b in range(1, 8):
            assert distortion_factor(b + 1) < 0.5 * distortion_factor(b)

    def test_infinite_bits(self):
        assert distortion_factor(math.inf) == 0.0

    def test_levels_symmetric_and_sorted(self):
        for b in (2, 3, 4):
            levels, thresholds, _ = lloyd_max_codebook(b)
            np.testing.assert_allclose(levels, -levels[::-1], atol=1e-8)
            assert np.all(np.diff(levels) > 0)
            np.testing.assert_allclose(thresholds,
                                       (levels[:-1] + levels[1:]) / 2, atol=1e-8)

    def test_centroid_condition(self):
        # distortion equals 1 - E[q^2] only at a centroid codebook; check
        # against a brute-force numeric integral of E[(x - q(x))^2]
        from scipy.integrate import quad

        levels, thresholds, rho = lloyd_max_codebook(3)
        edges = np.concatenate(([-12.0], thresholds, [12.0]))
        mse = 0.0
        for lo, hi, c in zip(edges[:-1], edges[1:], levels):
            val, _ = quad(lambda x, c=c: (x - c) ** 2
                          * np.exp(-x * x / 2) / np.sqrt(2 * np.pi), lo, hi)
            mse += val
        assert rho == pytest.approx(mse, abs=1e-8)

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_lloyd_max_conditions(self, bits):
        # levels are the centroids of their cells, computed here in closed
        # form with upper-tail masses; thresholds are exact midpoints
        levels, thresholds, rho = lloyd_max_codebook(bits)
        np.testing.assert_array_equal(thresholds, (levels[:-1] + levels[1:]) / 2)
        np.testing.assert_allclose(levels, -levels[::-1], rtol=0, atol=1e-12)
        edges = [0.0, *thresholds[thresholds > 0], math.inf]
        phi = [math.exp(-x * x / 2) / math.sqrt(2 * math.pi) for x in edges]
        tail = [math.erfc(x / math.sqrt(2)) / 2 for x in edges]
        for j, c in enumerate(levels[levels > 0]):
            centroid = (phi[j] - phi[j + 1]) / (tail[j] - tail[j + 1])
            assert abs(c - centroid) <= 1e-10
        assert 0.0 < rho < 1.0

    def test_unconverged_solve_raises(self, monkeypatch):
        monkeypatch.setattr(quantize_module, "_codebook_cache", {})
        monkeypatch.setattr(quantize_module, "_MAX_ITER", 1)
        with pytest.raises(ArithmeticError):
            lloyd_max_codebook(9)

    def test_unconverged_solve_raises_with_codebook_built(self, monkeypatch):
        converged = lloyd_max_codebook(9)
        with monkeypatch.context() as patch:
            patch.setattr(quantize_module, "_codebook_cache", {})
            patch.setattr(quantize_module, "_MAX_ITER", 1)
            with pytest.raises(ArithmeticError):
                lloyd_max_codebook(9)
        # the failed solve leaves the built codebook in place
        assert lloyd_max_codebook(9) is converged

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            lloyd_max_codebook(0)
        with pytest.raises(ValueError):
            distortion_factor(0.5)

    def test_fractional_bits_rejected(self):
        # 2.5 bits must not be read as 2
        assert distortion_factor(2.0) == distortion_factor(2)
        with pytest.raises(ValueError):
            distortion_factor(2.5)


def _gaussian_batch(n_ch, n_t, seed=0, power=1.0):
    rng = trial_rng(seed)
    return np.sqrt(power / 2) * (rng.standard_normal((n_ch, n_t))
                                 + 1j * rng.standard_normal((n_ch, n_t)))


def _rms_scale(x):
    return np.sqrt(np.mean(np.abs(x) ** 2, axis=1) / 2)


class TestQuantize:
    def test_empirical_distortion_matches_rho(self):
        # MC estimate of E|x - q(x)|^2 / E|x|^2 for Gaussian input
        x = _gaussian_batch(4, 100_000, seed=5)
        for b in (1, 2, 3):
            out = quantize(x, b, scale=np.full(4, np.sqrt(0.5)))
            err = np.mean(np.abs(out - x) ** 2)
            pwr = np.mean(np.abs(x) ** 2)
            assert err / pwr == pytest.approx(distortion_factor(b), rel=0.02)

    def test_aqnm_gain(self):
        # E[q(x) x*] / E|x|^2 -> alpha = 1 - rho for a centroid codebook
        x = _gaussian_batch(1, 400_000, seed=9)
        for b in (1, 2, 3):
            out = quantize(x, b, scale=np.full(1, np.sqrt(0.5)))
            corr = np.mean(out * np.conj(x)).real
            pwr = np.mean(np.abs(x) ** 2)
            assert corr / pwr == pytest.approx(1.0 - distortion_factor(b), abs=5e-3)

    def test_fractional_bits_rejected(self):
        x = _gaussian_batch(2, 16)
        np.testing.assert_array_equal(quantize(x, 2.0), quantize(x, 2))
        with pytest.raises(ValueError):
            quantize(x, 2.5)

    def test_one_bit_is_scaled_sign(self):
        x = _gaussian_batch(2, 64, seed=1)
        out = quantize(x, 1)
        expected = _rms_scale(x)[:, None] * np.sqrt(2 / np.pi) * (
            np.sign(x.real) + 1j * np.sign(x.imag))
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_auto_scale_is_per_channel_rms(self):
        x = _gaussian_batch(3, 5000, seed=2, power=4.0)
        np.testing.assert_array_equal(quantize(x, 2),
                                      quantize(x, 2, scale=_rms_scale(x)))
        assert not np.array_equal(quantize(x, 2),
                                  quantize(x, 2, scale=np.ones(3)))

    def test_infinite_bits_passthrough(self):
        x = _gaussian_batch(2, 16)
        out = quantize(x, math.inf)
        np.testing.assert_array_equal(out, x)
        assert not np.shares_memory(out, x)

    def test_degenerate_channel_flagged(self):
        x = np.vstack([np.zeros(8), np.ones(8)]).astype(complex)
        out = quantize(x, 2)
        np.testing.assert_array_equal(out[0], 0.0)
        assert np.all(out[1] != 0.0)


class TestEffectiveSnr:
    def test_one_bit_unit_snr(self):
        # alpha = 2/pi, snr = 1: alpha/(alpha + (1-alpha)*2)
        a = 2.0 / math.pi
        assert effective_snr(1.0, a) == pytest.approx(a / (a + 2 * (1 - a)))
        assert effective_snr(1.0, a) == pytest.approx(0.46694, abs=1e-4)

    def test_alpha_one_identity(self):
        for snr in (0.01, 1.0, 100.0):
            assert effective_snr(snr, 1.0) == pytest.approx(snr)

    def test_monotone_in_alpha(self):
        alphas = np.linspace(0.1, 1.0, 10)
        vals = [effective_snr(10.0, a) for a in alphas]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_low_snr_limit(self):
        # as snr -> 0, effective snr -> alpha * snr
        a = 0.7
        assert effective_snr(1e-6, a) == pytest.approx(a * 1e-6, rel=1e-4)

    def test_high_snr_saturation(self):
        # as snr -> inf, effective snr -> alpha / (1 - alpha)
        a = 0.9
        assert effective_snr(1e9, a) == pytest.approx(a / (1 - a), rel=1e-6)


class TestPerformanceLoss:
    def test_infinite_bits_zero(self):
        assert performance_loss_db(math.inf, 0.0) == 0.0

    def test_fractional_bits_rejected(self):
        with pytest.raises(ValueError):
            performance_loss_db(2.5, 0.0)

    def test_decreasing_in_bits(self):
        losses = [performance_loss_db(b, 0.0) for b in range(1, 7)]
        assert all(x > y for x, y in zip(losses, losses[1:]))

    def test_one_bit_zero_db(self):
        snr = 1.0
        expected = 10 * np.log10(snr / effective_snr(snr, 2 / math.pi))
        assert performance_loss_db(1, 0.0) == pytest.approx(expected)
        assert performance_loss_db(1, 0.0) == pytest.approx(3.307, abs=2e-3)

    def test_grows_with_snr(self):
        assert performance_loss_db(2, 10.0) > performance_loss_db(2, -10.0)

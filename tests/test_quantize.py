import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import doalab.quantize as quantize_module
from doalab import harness
from doalab.arrays import ArrayConfig, EmitterScenario, synthesize_snapshot_rows
from doalab.crlb import crlb_fd
from doalab.quantize import (
    distortion_factor,
    effective_snr,
    lloyd_max_codebook,
    normalise,
    performance_loss_db,
    quantize,
)
from doalab.rng import TrialStreams, trial_rng

from oracles import crlb_quantized_u

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
        # the unquantized reference is no bit depth
        with pytest.raises(ValueError):
            distortion_factor(math.inf)

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
        # the uncached solve
        monkeypatch.setattr(quantize_module, "_MAX_ITER", 1)
        with pytest.raises(ArithmeticError):
            lloyd_max_codebook.__wrapped__(9)

    def test_unconverged_solve_raises_with_codebook_built(self, monkeypatch):
        converged = lloyd_max_codebook(9)
        with monkeypatch.context() as patch:
            patch.setattr(quantize_module, "_MAX_ITER", 1)
            with pytest.raises(ArithmeticError):
                lloyd_max_codebook.__wrapped__(9)
        # the failed solve leaves the built codebook in place
        assert lloyd_max_codebook(9) is converged

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            lloyd_max_codebook(0)
        with pytest.raises(ValueError):
            distortion_factor(0.5)

    def test_fractional_bits_rejected(self):
        # 2.5 bits must not be read as 2, and bits is an integer: 2.0 is
        # refused too
        for bits in (2.0, 2.5):
            with pytest.raises(ValueError):
                distortion_factor(bits)


def _gaussian_batch(n_ch, n_t, seed=0, power=1.0):
    rng = trial_rng(seed)
    return np.sqrt(power / 2) * (rng.standard_normal((n_ch, n_t))
                                 + 1j * rng.standard_normal((n_ch, n_t)))


def _rms_scale(x):
    return np.sqrt(np.mean(np.abs(x) ** 2, axis=1) / 2)


def _normalised(x, scale):
    """``normalise(x)``'s tuple at a fixed per-channel ``scale``."""
    safe = np.where(scale > 0.0, scale, 1.0)[..., None]
    return quantize_module.Normalised(
        np.ascontiguousarray(x, dtype=np.complex128).view(np.float64) / safe,
        safe, scale <= 0.0)


def quantize_oracle(x, bits):
    """``quantize`` at its default scale, real and imaginary parts divided
    by the scale and put through ``np.digitize`` one after the other."""
    levels, thresholds, _ = lloyd_max_codebook(bits)
    scale = np.sqrt(np.mean(np.abs(x) ** 2, axis=-1) / 2.0)
    safe = np.where(scale > 0.0, scale, 1.0)[..., None]
    out = safe * (levels[np.digitize(x.real / safe, thresholds)]
                  + 1j * levels[np.digitize(x.imag / safe, thresholds)])
    out[scale <= 0.0] = 0.0
    return out


class TestCellIndex:
    """The table index that ``quantize`` reads its cells from."""

    @given(st.integers(1, 16),
           st.lists(st.one_of(st.floats(-6.0, 6.0),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_matches_digitize(self, bits, drawn):
        # every threshold and its two float neighbours, signed zeros, the
        # largest magnitudes and subnormals
        thresholds = lloyd_max_codebook(bits)[1]
        tiny = np.finfo(float).smallest_subnormal
        x = np.concatenate((
            thresholds, np.nextafter(thresholds, -np.inf),
            np.nextafter(thresholds, np.inf),
            [0.0, -0.0, 1e300, -1e300, tiny, -tiny, 1e-310, -1e-310], drawn))
        np.testing.assert_array_equal(quantize_module._cells(x, bits),
                                      np.digitize(x, thresholds))


class TestQuantize:
    @pytest.mark.parametrize("bits", range(1, 9))
    def test_matches_oracle(self, bits):
        # bit for bit, stacked, with a zero channel
        x = np.stack([_gaussian_batch(5, 40, seed=s, power=4.0 ** s)
                      for s in range(3)])
        x[1, 2] = 0.0
        assert (quantize(normalise(x), bits).tobytes()
                == quantize_oracle(x, bits).tobytes())

    def test_non_finite_scale_rejected(self):
        # a scale that overflows from finite samples
        with pytest.raises(ValueError, match="scale"):
            normalise(1e200 * _gaussian_batch(2, 16))

    def test_normalised_stack_keeps_its_scale(self):
        # normalise sets the scale; quantize takes finite bit depths only
        norm = normalise(_gaussian_batch(2, 16))
        with pytest.raises(TypeError):
            quantize(norm, 2, scale=np.ones(2))
        with pytest.raises(ValueError):
            quantize(norm, math.inf)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.nan])
    def test_non_finite_rejected(self, bad):
        # a NaN used to turn its channel's gain control off, and an
        # infinity turned its channel into infinities
        x = np.vstack([np.zeros(8), np.ones(8)]).astype(complex)
        np.testing.assert_array_equal(quantize(normalise(x), 3)[0], 0.0)
        x[1, 3] = bad
        with pytest.raises(ValueError, match="samples"):
            normalise(x)

    def test_empirical_distortion_matches_rho(self):
        # MC estimate of E|x - q(x)|^2 / E|x|^2 for Gaussian input
        x = _gaussian_batch(4, 100_000, seed=5)
        for b in (1, 2, 3):
            out = quantize(_normalised(x, np.full(4, np.sqrt(0.5))), b)
            err = np.mean(np.abs(out - x) ** 2)
            pwr = np.mean(np.abs(x) ** 2)
            assert err / pwr == pytest.approx(distortion_factor(b), rel=0.02)

    def test_aqnm_gain(self):
        # E[q(x) x*] / E|x|^2 -> alpha = 1 - rho for a centroid codebook
        x = _gaussian_batch(1, 400_000, seed=9)
        for b in (1, 2, 3):
            out = quantize(_normalised(x, np.full(1, np.sqrt(0.5))), b)
            corr = np.mean(out * np.conj(x)).real
            pwr = np.mean(np.abs(x) ** 2)
            assert corr / pwr == pytest.approx(1.0 - distortion_factor(b), abs=5e-3)

    def test_fractional_bits_rejected(self):
        norm = normalise(_gaussian_batch(2, 16))
        for bits in (2.0, 2.5):
            with pytest.raises(ValueError):
                quantize(norm, bits)
            with pytest.raises(ValueError):
                lloyd_max_codebook(bits)

    def test_one_bit_is_scaled_sign(self):
        x = _gaussian_batch(2, 64, seed=1)
        out = quantize(normalise(x), 1)
        expected = _rms_scale(x)[:, None] * np.sqrt(2 / np.pi) * (
            np.sign(x.real) + 1j * np.sign(x.imag))
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_auto_scale_is_per_channel_rms(self):
        x = _gaussian_batch(3, 5000, seed=2, power=4.0)
        auto = quantize(normalise(x), 2)
        np.testing.assert_array_equal(auto, quantize(_normalised(x, _rms_scale(x)), 2))
        assert not np.array_equal(auto, quantize(_normalised(x, np.ones(3)), 2))

    def test_infinite_bits_passthrough(self):
        # the unquantized stack is the caller's own; quantize makes no copy
        with pytest.raises(ValueError):
            quantize(normalise(_gaussian_batch(2, 16)), math.inf)

    def test_degenerate_channel_flagged(self):
        x = np.vstack([np.zeros(8), np.ones(8)]).astype(complex)
        out = quantize(normalise(x), 2)
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
        # loss-bits writes the unquantized row's zero loss itself
        with pytest.raises(ValueError):
            performance_loss_db(math.inf, 0.0)

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


class TestQuantizeSymmetry:
    @given(p=st.integers(1, 32), t=st.integers(1, 50),
           snr_db=st.floats(-10.0, 20.0), u=st.floats(-0.95, 0.95),
           seed=st.integers(0, 2 ** 32))
    @settings(max_examples=20, deadline=None)
    def test_commutes_with_conjugation_and_quarter_turns(self, p, t, snr_db,
                                                         u, seed):
        # the codebook is odd-symmetric and the scale depends on |x| only,
        # so conjugation, x i and x -1 pass through the quantizer bit for
        # bit, at every depth
        scen = EmitterScenario.single_emitter(math.degrees(math.asin(u)),
                                              snr_db, t)
        x = synthesize_snapshot_rows(ArrayConfig.fully_digital(p), scen,
                                     TrialStreams(seed, range(3)))[:, 0]
        for bits in range(1, 9):
            q = quantize(normalise(x), bits)
            for turn in (np.conj, lambda z: 1j * z, np.negative):
                got = quantize(normalise(turn(x)), bits)
                assert got.tobytes() == turn(q).tobytes(), (bits, turn)


# a loss-bits run's shape: antennas, snapshots and the emitter's angle
BOUND_P, BOUND_T, BOUND_THETA = 32, 50, 15.0


def _bound_by_differences(bits, snr_db, n_phase=64, steps=(1e-7, 1e-6, 1e-6)):
    """``crlb_quantized_u`` by another route: the cells of the quantizer's
    levels, each threshold the midpoint of two levels, scaled by the RMS of
    one real part of a snapshot; each cell's probability differenced by
    (u, Re s, Im s) at the given steps; and the amplitude projected out by
    inverting the 3 x 3 information, whose (u, u) entry is then 1 / j."""
    p = 10.0 ** (snr_db / 10.0)
    levels = lloyd_max_codebook(bits)[0]
    edges = math.sqrt((1.0 + p) / 2.0) * np.concatenate(
        ([-np.inf], (levels[:-1] + levels[1:]) / 2.0, [np.inf]))
    psi = 2.0 * math.pi * (np.arange(n_phase) + 0.5) / n_phase
    point = np.array([math.sin(math.radians(BOUND_THETA)), 0.0, 0.0])

    def cells(u, re, im):
        """Per phase, antenna, I and Q part and cell, its probability."""
        s = math.sqrt(p) * np.exp(1j * psi) + re + 1j * im
        # half-wavelength spacing: 2 pi d u = pi u
        mean = s[:, None] * np.exp(1j * math.pi * u * np.arange(BOUND_P))
        parts = np.stack([mean.real, mean.imag], axis=-1)[..., None]
        return np.diff(ndtr((edges - parts) / math.sqrt(0.5)), axis=-1)

    grad = np.stack([(cells(*(point + h)) - cells(*(point - h))) / (2.0 * step)
                     for h, step in zip(np.diag(steps), steps)], axis=-1)
    prob = cells(*point)[..., None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(prob > 0.0, grad[..., :, None] * grad[..., None, :]
                         / prob, 0.0)
    fim = terms.sum(axis=(1, 2, 3))
    return 1.0 / (BOUND_T * np.mean(1.0 / np.linalg.inv(fim)[:, 0, 0]))


@pytest.fixture(scope="module")
def quantized_runs():
    """Per SNR of 0 and 10 dB: the Root-MUSIC errors in u of a
    loss-bits-shaped run, at 1-4 bits and then unquantized, each column
    from the same draws; and each trial's mean automatic gain."""
    cfg = ArrayConfig.fully_digital(BOUND_P)
    streams = TrialStreams(101, range(1000))
    runs = {}
    for snr_db in (0.0, 10.0):
        scen = EmitterScenario.single_emitter(BOUND_THETA, snr_db, BOUND_T)
        x = synthesize_snapshot_rows(cfg, scen, streams)[:, 0]
        runs[snr_db] = (harness._quant_block(cfg, scen, (1, 2, 3, 4), streams),
                        normalise(x).safe.mean(axis=(1, 2)))
    return runs


class TestQuantizedBound:
    """The exact bound for Lloyd-Max quantized FD snapshots,
    ``oracles.crlb_quantized_u``: its unquantized limit, its derivatives
    and gain, Root-MUSIC on quantized snapshots against it, and the AQNM
    loss against its loss.  Moving one threshold by 1e-3, setting the gain
    to 1, or dropping the amplitude projection each fails a test here."""

    @pytest.mark.parametrize("theta", [15.0, 40.0, -60.0])
    @pytest.mark.parametrize("snr_db", [-10.0, 0.0, 10.0])
    def test_unquantized_limit_is_crlb_fd(self, theta, snr_db):
        # crlb_fd bounds theta; on u = sin(theta) the bound gains cos^2
        want = (crlb_fd(BOUND_P, theta, snr_db, BOUND_T)
                * math.cos(math.radians(theta)) ** 2)
        got = crlb_quantized_u(BOUND_P, theta, snr_db, BOUND_T)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    @pytest.mark.parametrize("snr_db", [0.0, 10.0])
    def test_matches_differenced_cells(self, bits, snr_db):
        # the two routes agree to about 5e-10; a threshold moved by 1e-3
        # moves the bound by 1e-7 or more, and by 1e-5 or more unless it
        # is the threshold at 0, where the bound is stationary
        got = crlb_quantized_u(BOUND_P, BOUND_THETA, snr_db, BOUND_T, bits)
        assert got == pytest.approx(_bound_by_differences(bits, snr_db),
                                    rel=1e-8, abs=0.0)

    def test_gain_is_the_quantizers(self, quantized_runs):
        # the bound scales the thresholds by sqrt((1 + p) / 2), the
        # expected RMS of one real part, where normalise takes each
        # channel's RMS over its T snapshots
        for snr_db, (_, gain) in quantized_runs.items():
            p = 10.0 ** (snr_db / 10.0)
            assert np.mean(gain) == pytest.approx(math.sqrt((1.0 + p) / 2.0),
                                                  rel=0.01)

    def test_root_music_meets_the_bound(self, quantized_runs):
        # the bound is a floor, up to two SEs of the mean squared error,
        # and at 0 and 10 dB Root-MUSIC pays it to within 15%; -10 dB is
        # left out, where Root-MUSIC is not efficient
        for snr_db, (errors, _) in quantized_runs.items():
            for bits, e in zip((1, 2, 3, 4), errors.T):
                bound = crlb_quantized_u(BOUND_P, BOUND_THETA, snr_db,
                                         BOUND_T, bits)
                ratio = np.mean(e ** 2) / bound
                se = np.std(e ** 2, ddof=1) / math.sqrt(len(e)) / bound
                assert 1.0 - 2.0 * se <= ratio <= 1.15, (snr_db, bits, ratio, se)

    def test_aqnm_loss_above_exact_loss(self):
        # at every point of the default loss-bits grid the AQNM formula
        # states a larger loss than the exact bound's
        for snr_db in (-10.0, 0.0, 10.0):
            clear = crlb_quantized_u(BOUND_P, BOUND_THETA, snr_db, BOUND_T)
            for bits in range(1, 9):
                exact_db = 10.0 * math.log10(crlb_quantized_u(
                    BOUND_P, BOUND_THETA, snr_db, BOUND_T, bits) / clear)
                assert 0.0 < exact_db < performance_loss_db(bits, snr_db), \
                    (snr_db, bits)

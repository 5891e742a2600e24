import math

import numpy as np
import pytest

from doalab.arrays import ArrayConfig, subarray_gain
from doalab.crlb import crlb_fd, crlb_had, crlb_tlhad, fim_single_source

from oracles import crlb_fd_closed_form


def _u(theta_deg):
    """The direction-sine the bounds take, of a direction in degrees."""
    return np.sin(np.radians(theta_deg))


def _snr(snr_db):
    """The linear SNR the bounds take, of an SNR in dB."""
    return 10.0 ** (snr_db / 10.0)


class TestFdBound:
    def test_projection_fim_matches_closed_form(self):
        for n in (2, 8, 64):
            for theta in (-60.0, -17.3, 0.0, 33.0, 80.0):
                for snr_db in (-20.0, 0.0, 15.0):
                    got = crlb_fd(n, _u(theta), _snr(snr_db), 37)
                    ref = crlb_fd_closed_form(n, theta, snr_db, 37)
                    assert got == pytest.approx(ref, rel=1e-12)

    def test_known_value(self):
        # N=2, theta=0, snr=1, T=1, d=0.5: 6 / (pi^2 * 2 * 3) = 1/pi^2
        assert crlb_fd(2, 0.0, 1.0, 1) == pytest.approx(1.0 / np.pi ** 2, rel=1e-12)

    def test_snapshot_and_snr_scaling(self):
        u = _u(10.0)
        base = crlb_fd(16, u, 1.0, 100)
        assert crlb_fd(16, u, 1.0, 400) == pytest.approx(base / 4, rel=1e-12)
        assert crlb_fd(16, u, 10.0, 100) == pytest.approx(base / 10, rel=1e-12)

    def test_endfire_diverges(self):
        assert crlb_fd(8, _u(89.9), 1.0, 10) > 100 * crlb_fd(8, 0.0, 1.0, 10)

    def test_aperture_cubic_scaling(self):
        # large-N bound falls roughly as N^{-3}
        r = crlb_fd(32, 0.0, 1.0, 10) / crlb_fd(64, 0.0, 1.0, 10)
        assert r == pytest.approx(64 ** 3 / 32 ** 3, rel=0.01)


class TestFimSingleSource:
    def test_gain_invariance(self):
        # multiplying (a, da) by a fixed complex gain scales J by |gain|^2
        n = np.arange(6)
        a = np.exp(1j * 0.4 * n)
        da = 1j * n * a
        j1 = fim_single_source(a, da, 10, 2.0)
        j2 = fim_single_source(3j * a, 3j * da, 10, 2.0)
        assert j2 == pytest.approx(9 * j1, rel=1e-12)

    def test_parallel_derivative_gives_zero(self):
        a = np.exp(1j * 0.3 * np.arange(5))
        assert fim_single_source(a, 2.7j * a, 10, 1.0) == pytest.approx(0.0, abs=1e-10)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            fim_single_source(np.ones(3), np.ones(4), 1, 1.0)


def _matched_had_bound(cfg, theta, snr_db, t):
    """The HAD bound with the analog beams steered at theta itself:
    |g| = sqrt(M), the channel snr gains M, and the g' term is annihilated
    by the complex-gain nuisance, so it is the bound of a K-element ULA at
    spacing M*d with snr M*snr."""
    return crlb_fd_closed_form(cfg.k_sub, theta,
                               snr_db + 10 * np.log10(cfg.m_sub), t,
                               spacing=cfg.m_sub * cfg.spacing)


class TestHadBound:
    def test_matched_steering_equals_virtual_ula_with_gain(self):
        # at broadside the broadside beams are matched
        cfg = ArrayConfig.pure_had(64, 4)
        got = crlb_had(cfg, 0.0, _snr(-10.0), 50)
        assert got == pytest.approx(_matched_had_bound(cfg, 0.0, -10.0, 50),
                                    rel=1e-10)

    def test_analog_null_infinite(self):
        # u = 0.5 with M=4, d=0.5 puts the broadside subarray gain at a null
        cfg = ArrayConfig.pure_had(16, 4)
        assert crlb_had(cfg, 0.5, 1.0, 10) == math.inf

    def test_mismatch_never_beats_matched(self):
        cfg = ArrayConfig.pure_had(32, 4)
        for theta in (-50.0, -5.0, 0.0, 12.0, 20.0, 40.0):
            assert crlb_had(cfg, _u(theta), 1.0, 10) >= \
                _matched_had_bound(cfg, theta, 0.0, 10) * (1 - 1e-12)

    def test_needs_two_channels(self):
        with pytest.raises(ValueError):
            crlb_had(ArrayConfig.pure_had(4, 4), 0.0, 1.0, 10)

    def test_m_one_reduces_to_fd(self):
        # the FD bound is the HAD formula on one-antenna subarrays, bit for
        # bit, at a scalar direction and over an array of them
        for theta in (30.0, -90.0, 90.0, np.linspace(-90.0, 90.0, 181)):
            for n, spacing in ((2, 0.5), (16, 0.5), (7, 0.31)):
                got = crlb_fd(n, _u(theta), _snr(5.0), 20, spacing)
                ref = crlb_had(ArrayConfig.pure_had(n, 1, spacing), _u(theta),
                               _snr(5.0), 20)
                assert type(got) is type(ref)
                assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()

    @pytest.mark.parametrize("m_sub", [1, 2, 4, 8])
    @pytest.mark.parametrize("spacing", [0.1, 0.4, 0.5])
    def test_infinite_exactly_at_gain_nulls(self, m_sub, spacing):
        # the gain over an array is its scalar calls, bit for bit, and the
        # bound is infinite where that gain is an analog null, at endfire
        # (|u| = 1, where du/dtheta = 0) and nowhere else
        u = np.concatenate((np.linspace(-1.0, 1.0, 81), [0.5, 0.625, 0.75]))
        gain = subarray_gain(m_sub, spacing, u)
        scalars = np.array([subarray_gain(m_sub, spacing, float(v)) for v in u])
        assert gain.shape == u.shape
        assert gain.tobytes() == scalars.tobytes()
        null = np.abs(gain) < 1e-12
        if (m_sub, spacing) == (4, 0.5):
            assert null[u == 0.5].all()
        cfg = ArrayConfig.pure_had(2 * m_sub, m_sub, spacing)
        bound = crlb_had(cfg, u, 1.0, 10)
        np.testing.assert_array_equal(np.isinf(bound), null | (np.abs(u) == 1.0))


class TestTwoLayerBound:
    def test_information_additivity(self):
        cfg = ArrayConfig(64, 4, 12, 16)
        u, snr, t = _u(10.0), _snr(-10.0), 100
        j_had = 1.0 / crlb_had(cfg, u, snr, t)
        j_fd = 1.0 / crlb_fd(16, u, snr, t)
        got = crlb_tlhad(cfg, u, snr, t)
        assert got == pytest.approx(1.0 / (j_had + j_fd), rel=1e-12)

    def test_fd_extreme(self):
        # the FD block is its antennas as one-antenna subarrays, whatever
        # the HAD part's subarray size, bit for bit
        for cfg in (ArrayConfig.fully_digital(64), ArrayConfig.two_layer(64, 4, 1.0),
                    ArrayConfig.two_layer(30, 3, 1.0, 0.4)):
            for theta in (15.0, np.linspace(-90.0, 90.0, 181)):
                got = crlb_tlhad(cfg, _u(theta), 1.0, 10)
                ref = crlb_fd(cfg.n_fd, _u(theta), 1.0, 10, cfg.spacing)
                assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()

    def test_had_extreme(self):
        cfg = ArrayConfig.pure_had(64, 4)
        for theta in (15.0, np.linspace(-90.0, 90.0, 181)):
            got = crlb_tlhad(cfg, _u(theta), 1.0, 10)
            ref = crlb_had(cfg, _u(theta), 1.0, 10)
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()

    def test_tighter_than_either_part(self):
        cfg = ArrayConfig(64, 4, 12, 16)
        u = _u(5.0)
        both = crlb_tlhad(cfg, u, 1.0, 10)
        assert both < crlb_had(cfg, u, 1.0, 10)
        assert both < crlb_fd(16, u, 1.0, 10)

    def test_monotone_grid_fd_proportion(self):
        # at broadside steering, more FD antennas never raise the bound on
        # this grid (HAD virtual aperture shrinks but FD information and
        # subarray gain trade off monotonically here)
        vals = [crlb_tlhad(ArrayConfig.two_layer(64, 4, eta), _u(10.0),
                           _snr(-10.0), 100)
                for eta in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert vals[0] > 0 and len(vals) == 5
        assert all(math.isfinite(v) for v in vals)

    def test_degenerate_everything_infinite(self):
        # one subarray and one FD antenna: no part can estimate alone
        cfg = ArrayConfig(5, 4, 1, 1)
        assert crlb_tlhad(cfg, 0.0, 1.0, 10) == math.inf


def _fd_projection_bound(n, u, snr, t, spacing):
    """``fim_single_source`` on the explicit FD steering vector at
    direction-sine ``u`` and its theta-derivative, du/dtheta = cos(theta)."""
    p = np.arange(n)
    a = np.exp(2j * np.pi * spacing * p * u)
    da = 2j * np.pi * spacing * p * math.sqrt(1.0 - u * u) * a
    j = fim_single_source(a, da, t, snr)
    return 1.0 / j if j > 1e-300 else math.inf


def _had_projection_bound(cfg, u, snr, t):
    """``fim_single_source`` on the explicit effective HAD steering vector
    a = g(u) b(u), subarrays steered at broadside, and its theta-derivative;
    infinite at an analog null."""
    d, m, k = cfg.spacing, cfg.m_sub, cfg.k_sub
    mm = np.arange(m)
    phase = np.exp(2j * np.pi * d * mm * u)
    g = np.sum(phase) / math.sqrt(m)
    if abs(g) < 1e-12:
        return math.inf
    dg_du = np.sum(2j * np.pi * d * mm * phase) / math.sqrt(m)
    kk = np.arange(k)
    b = np.exp(2j * np.pi * d * m * kk * u)
    db_du = 2j * np.pi * d * m * kk * b
    da = math.sqrt(1.0 - u * u) * (dg_du * b + g * db_du)
    j = fim_single_source(g * b, da, t, snr)
    return 1.0 / j if j > 1e-300 else math.inf


class TestRowBounds:
    """The closed-form bounds over arrays of directions against the
    projection FIM of explicit steering vectors."""

    @staticmethod
    def _grid(cfg):
        # the sine of every degree, plus the broadside-beam nulls u = j / (M d)
        nulls = np.arange(1, math.floor(cfg.m_sub * cfg.spacing) + 1) / (
            cfg.m_sub * cfg.spacing)
        return np.concatenate((_u(np.linspace(-90.0, 90.0, 181)),
                               nulls, -nulls))

    @staticmethod
    def _assert_match(got, ref):
        fin = np.isfinite(ref)
        np.testing.assert_array_equal(np.isfinite(got), fin)
        assert np.all(np.abs(got[fin] - ref[fin]) <= 1e-12 * ref[fin])

    @pytest.mark.parametrize("cfg", [
        ArrayConfig(64, 4, 12, 16), ArrayConfig.two_layer(40, 4, 0.2, 0.6),
        ArrayConfig.two_layer(64, 4, 0.25, 0.6), ArrayConfig(34, 3, 10, 4)],
        ids=["paper", "d0.6", "d0.6-64", "m3"])
    @pytest.mark.parametrize("snr_db,t", [(-10.0, 1), (0.0, 10), (10.0, 200)])
    def test_match_scalar(self, cfg, snr_db, t):
        u, snr = self._grid(cfg), _snr(snr_db)
        fd = crlb_fd(cfg.n_fd, u, snr, t, cfg.spacing)
        had = crlb_had(cfg, u, snr, t)
        self._assert_match(fd, np.array([
            _fd_projection_bound(cfg.n_fd, x, snr, t, cfg.spacing) for x in u]))
        ref = np.array([_had_projection_bound(cfg, x, snr, t) for x in u])
        self._assert_match(had, ref)
        assert np.isinf(ref).any()  # the analog nulls are on the grid
        # each array entry is the bound at that one direction
        for i in (0, 45, 90, len(u) - 1):
            assert fd[i] == crlb_fd(cfg.n_fd, u[i], snr, t, cfg.spacing)
            assert had[i] == crlb_had(cfg, u[i], snr, t)

    def test_had_needs_two_channels(self):
        with pytest.raises(ValueError):
            crlb_had(ArrayConfig.pure_had(4, 4), np.zeros(3), 1.0, 10)

    @pytest.mark.parametrize("u", [0.25, np.float64(0.25)],
                             ids=["float", "float64"])
    def test_scalar_direction_gives_float(self, u):
        cfg = ArrayConfig(64, 4, 12, 16)
        for got in (crlb_fd(16, u, 1.0, 1), crlb_had(cfg, u, 1.0, 1),
                    crlb_tlhad(cfg, u, 1.0, 1),
                    crlb_tlhad(ArrayConfig(5, 4, 1, 1), u, 1.0, 1)):
            assert type(got) is float

    @pytest.mark.parametrize("shape", [(0,), (3,), (2, 5)],
                             ids=["empty", "vector", "matrix"])
    def test_array_direction_keeps_shape(self, shape):
        cfg = ArrayConfig(64, 4, 12, 16)
        u = _u(np.linspace(-60.0, 60.0, math.prod(shape)).reshape(shape))
        for got in (crlb_fd(16, u, 1.0, 1), crlb_had(cfg, u, 1.0, 1),
                    crlb_tlhad(cfg, u, 1.0, 1),
                    crlb_tlhad(ArrayConfig(5, 4, 1, 1), u, 1.0, 1)):
            assert isinstance(got, np.ndarray) and got.shape == shape

    def test_two_layer_array_matches_parts(self):
        cfg = ArrayConfig(64, 4, 12, 16)
        u = self._grid(cfg)
        j = 1.0 / crlb_had(cfg, u, 1.0, 10) + 1.0 / crlb_fd(16, u, 1.0, 10)
        got = crlb_tlhad(cfg, u, 1.0, 10)
        fin = j > 0
        np.testing.assert_allclose(got[fin], 1.0 / j[fin], rtol=1e-12)
        assert np.all(np.isinf(got[~fin]))

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from multiprocessing import get_context
from pathlib import Path

import numpy as np
import pytest

from doalab import harness
from doalab import rng as rng_module
from doalab.arrays import (
    ArrayConfig,
    EmitterScenario,
    synthesize_snapshot_rows,
    synthesize_snapshots,
)
from doalab.cli import main as cli_main
from doalab.crlb import RAD2_TO_DEG2, crlb_had
from doalab.doa import had_eliminator_rows, tlhad_estimate_rows
from doalab.errors import ConfigError
from doalab.harness import (
    DEFAULT_TRIALS,
    SCHEMA,
    ExperimentConfig,
    detection_eigs,
    load_config,
    make_detection_dataset_factory,
    run_experiment,
    run_loss_bits,
    run_rmse_eta,
    run_rmse_snr,
    run_roc,
    run_train_mlnn,
    train_mlnn_model,
)
from doalab.mlnn import init_model, save_model
from doalab.quantize import normalise, performance_loss_db, quantize
from doalab.rng import (
    CALIBRATION_STREAMS,
    FINAL_STREAMS,
    FIT_STREAMS,
    ROC_STREAMS,
    SEARCH_STREAMS,
    VALIDATION_STREAMS,
    TrialStreams,
    rekey,
    trial_rng,
)
from doalab.spectral import (
    root_music,
    root_music_rows,
    sample_covariance,
    signal_vectors,
)


def _write_config(path, text):
    path.write_text(text)
    return str(path)


SMALL_RMSE = """
[run]
trials = 100
[array]
n_total = 40
m_sub = 4
fd_proportion = 0.2
[scenario]
snr_db_list = 10
theta_deg = 15
"""

SMALL_MLNN = """
[run]
trials = 1000
[array]
n_total = 16
m_sub = 4
fd_proportion = 0.25
[scenario]
snr_db = -8
n_snapshots = 32
[mlnn]
activations = sigmoid
shapes = 4
search_size = 400
epochs = 5
"""

# 8-antenna subarrays do not fit in 6 antennas
MISFIT_MLNN = SMALL_MLNN.replace("n_total = 16\nm_sub = 4", "n_total = 6\nm_sub = 8")

SMALL_BITS = """
[quant]
bits = 1,2
n_antennas = 8
n_snapshots = 20
snr_db_list = 0
empirical_trials = 100
"""


class TestLoadConfig:
    def test_defaults_without_file(self):
        config = load_config("roc")
        assert config.trials == DEFAULT_TRIALS["roc"]
        assert config["array.n_total"] == "64"
        assert config.workers == 1

    def test_file_overrides(self, tmp_path):
        path = _write_config(tmp_path / "c.ini", SMALL_RMSE)
        config = load_config("rmse-snr", path)
        assert config.trials == 100
        assert config["array.n_total"] == "40"
        # untouched keys keep their defaults
        assert config["scenario.signal_model"] == "constant-modulus"

    def test_cli_overrides_beat_file(self, tmp_path):
        path = _write_config(tmp_path / "c.ini", SMALL_RMSE)
        config = load_config("rmse-snr", path, seed=99, out="elsewhere",
                             workers=3)
        assert config.seed == 99
        assert config.out_dir == "elsewhere"
        assert config.workers == 3

    def test_unknown_section_rejected(self, tmp_path):
        path = _write_config(tmp_path / "c.ini", "[nope]\nx = 1\n")
        with pytest.raises(ConfigError):
            load_config("roc", path)

    def test_unknown_key_rejected(self, tmp_path):
        path = _write_config(tmp_path / "c.ini", "[run]\nbogus = 1\n")
        with pytest.raises(ConfigError):
            load_config("roc", path)

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            load_config("roc", "/no/such/file.ini")

    def test_trial_floor(self, tmp_path):
        path = _write_config(tmp_path / "c.ini", "[run]\ntrials = 50\n")
        with pytest.raises(ConfigError):
            load_config("roc", path)

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            load_config("frobnicate")

    def test_digest_tracks_settings(self, tmp_path):
        a = load_config("roc", seed=1)
        b = load_config("roc", seed=1)
        c = load_config("roc", seed=2)
        assert a.digest == b.digest
        assert a.digest != c.digest


class TestDetectionEigs:
    def test_worker_count_invariance(self):
        e1 = detection_eigs(8, 16, -10.0, 1, 120, seed=4)
        with harness._pool(3) as pool:
            e2 = detection_eigs(8, 16, -10.0, 1, 120, seed=4, pool=pool)
        np.testing.assert_array_equal(e1, e2)

    def test_offset_shifts_streams(self):
        a = detection_eigs(8, 16, -10.0, 0, 50, seed=4, offset=0)
        b = detection_eigs(8, 16, -10.0, 0, 50, seed=4, offset=50)
        assert not np.allclose(a, b)

    def test_sorted_descending(self):
        e = detection_eigs(8, 16, 0.0, 1, 30, seed=1)
        assert np.all(np.diff(e, axis=1) <= 1e-12)

    def test_dataset_factory_balanced_and_normalized(self):
        factory = make_detection_dataset_factory(8, 16, -8.0, 3)
        data = factory(101, first_stream=0)
        assert abs(2 * int(data.labels.sum()) - 101) <= 1
        np.testing.assert_allclose(data.features.sum(axis=1), 1.0, atol=1e-12)

    def test_dataset_factory_refuses_wrapped_seed(self):
        # seed -1 would draw the detection streams of seed 2**64 - 1
        with pytest.raises(ValueError):
            make_detection_dataset_factory(8, 16, -8.0, -1)(10, 0)

    def test_zero_trials(self):
        # a map over no trials runs one empty block
        assert detection_eigs(8, 20, 0.0, 1, 0, 5).shape == (0, 8)
        data = make_detection_dataset_factory(8, 20, 0.0, 5)(1, 0)
        assert data.features.shape == (1, 8)
        np.testing.assert_array_equal(data.labels, [0.0])


class TestRmseSnr:
    def test_deterministic_and_worker_invariant(self, tmp_path):
        cfg_path = _write_config(tmp_path / "c.ini", SMALL_RMSE)
        out1, _ = run_rmse_snr(load_config("rmse-snr", cfg_path,
                                           out=str(tmp_path / "a"), workers=1))
        out2, _ = run_rmse_snr(load_config("rmse-snr", cfg_path,
                                           out=str(tmp_path / "b"), workers=2))
        assert Path(out1).read_text() == Path(out2).read_text()

    def test_rows_and_header(self, tmp_path):
        cfg_path = _write_config(tmp_path / "c.ini", SMALL_RMSE)
        path, rows = run_rmse_snr(load_config("rmse-snr", cfg_path,
                                              out=str(tmp_path / "o")))
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "snr_db,method,rmse_deg,sqrt_crlb_deg,trials,seed,digest"
        assert len(lines) == 1 + 3  # one SNR point, three methods
        for _, _, rmse, bound, *_ in rows:
            assert rmse > 0 and bound > 0

    def test_had_bound_is_broadside(self, tmp_path):
        # the HAD eliminators estimate from a broadside snapshot
        cfg_path = _write_config(tmp_path / "c.ini", SMALL_RMSE)
        path, _ = run_rmse_snr(load_config("rmse-snr", cfg_path,
                                           out=str(tmp_path / "o")))
        cfg_had = ArrayConfig.pure_had(32, 4)  # the HAD part of 40 / 4 / 0.2
        want = math.sqrt(crlb_had(cfg_had, 15.0, 10.0, 1)
                         * RAD2_TO_DEG2)
        rows = [line.split(",")
                for line in Path(path).read_text().splitlines()[1:]]
        had = [float(r[3]) for r in rows
               if r[1] in ("had-root-music", "fhad-root-music")]
        assert len(had) == 2
        assert had == pytest.approx([want, want], rel=1e-9)

    def test_analog_null_angle_rejected(self, tmp_path):
        text = SMALL_RMSE.replace("theta_deg = 15", "theta_deg = 30")
        cfg_path = _write_config(tmp_path / "c.ini", text)
        # sin(30 deg) = 0.5 is the broadside-beam null for M=4, d=0.5
        with pytest.raises(ConfigError):
            run_rmse_snr(load_config("rmse-snr", cfg_path,
                                     out=str(tmp_path / "o")))

    def test_wrapped_phase_below_unit_virtual_spacing(self, tmp_path):
        # M d = 0.8: the inter-subarray phase wraps for |u| > 1 / (2 M d),
        # here at u = 0.9, so every method must expand its candidates
        text = ("[run]\ntrials = 200\n[array]\nm_sub = 2\nspacing = 0.4\n"
                "[scenario]\ntheta_deg = 64.158\nsnr_db_list = 20,30\n")
        cfg_path = _write_config(tmp_path / "c.ini", text)
        _, rows = run_rmse_snr(load_config("rmse-snr", cfg_path,
                                           out=str(tmp_path / "o")))
        at_30 = [r for r in rows if r[0] == 30.0]
        assert len(at_30) == 3
        for _, method, rmse, bound, *_ in at_30:
            assert rmse <= 1.5 * bound, method

    def test_tiny_spacing_estimates_stay_finite(self, tmp_path):
        # M d = 0.4: the HAD estimate can leave [-1, 1] at low SNR
        text = ("[run]\ntrials = 200\n[array]\nspacing = 0.1\n"
                "[scenario]\nsnr_db_list = -10,0\n")
        cfg_path = _write_config(tmp_path / "c.ini", text)
        path, _ = run_rmse_snr(load_config("rmse-snr", cfg_path,
                                           out=str(tmp_path / "o")))
        rows = [line.split(",")
                for line in Path(path).read_text().splitlines()[1:]]
        assert len(rows) == 6
        for row in rows:
            assert all(math.isfinite(float(v)) for v in (row[0], *row[2:4])), row


class TestRmseEta:
    def test_eta_sweep(self, tmp_path):
        text = SMALL_RMSE + "[rmse]\neta_grid = 0.5,1.0\neta_snr_db_list = 0\n"
        cfg_path = _write_config(tmp_path / "c.ini", text)
        path, rows = run_rmse_eta(load_config("rmse-eta", cfg_path,
                                              out=str(tmp_path / "o")))
        etas = sorted({r[0] for r in rows})
        assert etas == [0.5, 1.0]
        assert all(r[2] > 0 and r[3] > 0 for r in rows)

    def test_eta_rounding_warns(self, tmp_path):
        # 0.33 * 40 = 13.2 FD antennas round down to 12, leaving 7 subarrays
        text = SMALL_RMSE + "[rmse]\neta_grid = 0.33\neta_snr_db_list = 10\n"
        cfg_path = _write_config(tmp_path / "c.ini", text)
        with pytest.warns(UserWarning, match=r"eta=0\.33 rounded down to 0\.3"):
            _, rows = run_rmse_eta(load_config("rmse-eta", cfg_path,
                                               out=str(tmp_path / "o")))
        assert rows[0][0] == pytest.approx(0.3)

    def test_bad_eta_rejected(self, tmp_path):
        text = SMALL_RMSE + "[rmse]\neta_grid = 0.0\neta_snr_db_list = 0\n"
        cfg_path = _write_config(tmp_path / "c.ini", text)
        with pytest.raises(ConfigError):
            run_rmse_eta(load_config("rmse-eta", cfg_path,
                                     out=str(tmp_path / "o")))


class TestLossBits:
    def test_formula_column_and_inf_row(self, tmp_path):
        text = ("[quant]\nbits = 1,2\nn_antennas = 8\nn_snapshots = 20\n"
                "snr_db_list = 0\nempirical_trials = 100\n")
        cfg_path = _write_config(tmp_path / "c.ini", text)
        path, rows = run_loss_bits(load_config("loss-bits", cfg_path,
                                               out=str(tmp_path / "o")))
        by_bits = {r[0]: r for r in rows}
        assert set(by_bits) == {1, 2, "inf"}
        for b in (1, 2):
            assert by_bits[b][2] == pytest.approx(performance_loss_db(b, 0.0))
        assert by_bits["inf"][2] == 0.0 and by_bits["inf"][3] == 0.0

    def test_empirical_tracks_formula(self, tmp_path):
        # 1-bit quantization should cost a few dB empirically as well
        text = ("[quant]\nbits = 1\nn_antennas = 16\nn_snapshots = 50\n"
                "snr_db_list = 0\nempirical_trials = 300\n")
        cfg_path = _write_config(tmp_path / "c.ini", text)
        _, rows = run_loss_bits(load_config("loss-bits", cfg_path,
                                            out=str(tmp_path / "o")))
        row = next(r for r in rows if r[0] == 1)
        assert row[3] == pytest.approx(row[2], abs=2.0)

    def test_run_trials_rejected(self, tmp_path):
        # loss-bits counts its trials in [quant] empirical_trials; a [run]
        # trial count would change nothing but the digest
        cfg_path = _write_config(tmp_path / "c.ini",
                                 "[run]\ntrials = 100\n" + SMALL_BITS)
        with pytest.raises(ConfigError, match="empirical_trials"):
            load_config("loss-bits", cfg_path)


def _quant_block_oracle(params, seed, trials):
    """The loss-bits block as it was before it shared one draw across bit
    depths: one bit depth per call, the quantized error in column 0 and
    the unquantized one in column 1; at ``math.inf`` bits both columns
    are unquantized."""
    n_antennas, l_snap, theta_deg, snr_db, bits = params
    cfg = ArrayConfig.fully_digital(n_antennas)
    scen = EmitterScenario.single_emitter(theta_deg, snr_db, l_snap)
    u_true = math.sin(math.radians(theta_deg))
    x = synthesize_snapshot_rows(cfg, scen,
                                 [trial_rng(seed, i) for i in trials])[:, 0]
    u_hat = root_music_rows(signal_vectors(x), cfg.spacing)
    xq = x if bits == math.inf else quantize(normalise(x), bits)
    uq = root_music_rows(signal_vectors(xq), cfg.spacing)
    return np.column_stack((uq - u_true, u_hat - u_true))


class TestStackedBlocks:
    """Blocks that stack their trials: the result of a trial must not depend
    on which trials share its block, since the block split follows the
    worker count."""

    SPLITS = ((0, 11, 12, 30), tuple(range(31)))

    @pytest.mark.parametrize("params", [
        (12, 20, 15.0, 0.0, (2, 1, 8)), (12, 20, 15.0, -10.0, (1,)),
        (32, 50, 15.0, 0.0, (3, 5)), (12, 1, 15.0, -10.0, (2,)),
        (8, 20, 15.0, 10.0, ())],
        ids=["p12-0dB-2bit", "p12-minus10dB-1bit", "p32-t50-3bit",
             "p12-t1-minus10dB", "p8-unquantized"])
    def test_quant_block(self, params):
        n_ant, l_snap, theta, snr_db, bits = params
        args = (ArrayConfig.fully_digital(n_ant),
                EmitterScenario.single_emitter(theta, snr_db, l_snap), bits)
        whole = harness._quant_block(*args, TrialStreams(5, range(30)))
        assert whole.shape == (30, len(params[4]) + 1)
        for bounds in self.SPLITS:
            parts = [harness._quant_block(*args, TrialStreams(5, range(a, b)))
                     for a, b in zip(bounds[:-1], bounds[1:])]
            np.testing.assert_array_equal(np.concatenate(parts), whole)
        # one bit depth per block is the oracle, bit for bit: every bit
        # depth's column, and the unquantized column, which the infinite
        # bit depth gives in both of its columns
        *rest, bits = params
        for j, b in enumerate([*bits, math.inf]):
            ref = _quant_block_oracle((*rest, b), 5, range(30))
            np.testing.assert_array_equal(whole[:, j], ref[:, 0])
            np.testing.assert_array_equal(whole[:, -1], ref[:, 1])
        # the per-trial Root-MUSIC path is the oracle of the search
        n_ant, l_snap, theta, snr_db = rest
        cfg = ArrayConfig.fully_digital(n_ant)
        scen = EmitterScenario.single_emitter(theta, snr_db, l_snap)
        u_true = math.sin(math.radians(theta))
        for i, row in enumerate(whole):
            x = synthesize_snapshots(cfg, scen, trial_rng(5, i)).samples
            ref = [root_music(sample_covariance(xq))
                   for xq in [*(quantize(normalise(x), b) for b in bits), x]]
            np.testing.assert_allclose(row + u_true, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("spacing,snr_db", [(0.5, 10.0), (0.6, -10.0)])
    def test_rmse_block(self, spacing, snr_db):
        cfg = ArrayConfig.two_layer(40, 4, 0.2, spacing)
        args = (cfg, EmitterScenario.single_emitter(15.0, snr_db, 1), True)
        whole = harness._rmse_block(*args, TrialStreams(6, range(30)))
        for bounds in self.SPLITS:
            parts = [harness._rmse_block(*args, TrialStreams(6, range(a, b)))
                     for a, b in zip(bounds[:-1], bounds[1:])]
            np.testing.assert_array_equal(np.concatenate(parts), whole)
        # with a fresh trial_rng per trial and method, bit for bit
        cfg_had = ArrayConfig.pure_had(cfg.n_had, cfg.m_sub, cfg.spacing)
        scen = EmitterScenario.single_emitter(15.0, snr_db, 1)
        classic, fast = had_eliminator_rows(
            cfg_had, scen, [trial_rng(6, i) for i in range(30)])
        tlhad = tlhad_estimate_rows(cfg, scen,
                                    [trial_rng(6, i) for i in range(30)])[0]
        for col, u in zip(whole.T, (classic[0], fast[0], tlhad)):
            np.testing.assert_array_equal(
                col, np.degrees(np.arcsin(u)) - 15.0)


def _record_streams(monkeypatch):
    """A list that gets the (seed, index) of every trial stream a block
    starts to read, in order."""
    opened = []

    def recording_rekey(rng, seed, index):
        opened.append((seed, index))
        return rekey(rng, seed, index)

    monkeypatch.setattr(rng_module, "rekey", recording_rekey)
    return opened


class TestBlockDraws:
    """The estimation blocks draw every trial's snapshots as one stack, and
    the two HAD eliminators share a generator per trial."""

    @pytest.fixture(autouse=True)
    def no_per_trial_synthesis(self, monkeypatch):
        from doalab import arrays, doa

        def refuse(*args, **kwargs):
            pytest.fail("a block drew snapshots one trial at a time")

        for module in (arrays, doa, harness):
            monkeypatch.setattr(module, "synthesize_snapshots", refuse,
                                raising=False)

    @pytest.mark.parametrize("eliminators", [True, False],
                             ids=["rmse-snr", "rmse-eta"])
    def test_rmse_block_generators(self, monkeypatch, eliminators):
        # every trial's stream is read from its start once by the two
        # eliminators together, and once by the two-layer estimator
        opened = _record_streams(monkeypatch)
        cfg = ArrayConfig.two_layer(64, 4, 0.25)
        harness._rmse_block(cfg, EmitterScenario.single_emitter(15.0, 5.0, 1),
                            eliminators, TrialStreams(3, range(10, 22)))
        passes = 2 if eliminators else 1
        assert opened == passes * [(3, i) for i in range(10, 22)]

    @pytest.mark.parametrize("block", [
        lambda trials: harness._rmse_block(
            ArrayConfig.two_layer(64, 4, 0.25),
            EmitterScenario.single_emitter(15.0, 5.0, 1), True,
            TrialStreams(3, trials)),
        lambda trials: harness._quant_block(
            ArrayConfig.fully_digital(8),
            EmitterScenario.single_emitter(15.0, 0.0, 20), (3,),
            TrialStreams(3, trials)),
        lambda trials: harness.trial_eigs(
            ArrayConfig.fully_digital(16),
            EmitterScenario.single_emitter(0.0, -5.0, 20),
            TrialStreams(3, trials)),
    ], ids=["rmse", "quant", "detect"])
    def test_no_generator_built_per_trial(self, monkeypatch, block):
        # a block re-keys the one generator of its streams: it builds at
        # most one Philox, however many trials it holds
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        for n in (1, 40, 120):
            built.clear()
            block(range(n))
            assert len(built) <= 1

    def test_quant_block_stacked(self):
        assert harness._quant_block(
            ArrayConfig.fully_digital(8),
            EmitterScenario.single_emitter(15.0, 0.0, 20), (3,),
            TrialStreams(3, range(5))).shape == (5, 2)

    @pytest.mark.parametrize("experiment,text,passes", [
        # the eliminators' draw shape and the two-layer estimator's
        ("rmse-snr", "[run]\ntrials = 100\n", 2),
        # every eta keeps the 64 antennas, so all 15 points share one shape
        ("rmse-eta", "[run]\ntrials = 100\n", 1),
        ("loss-bits", SMALL_BITS.replace("snr_db_list = 0", "snr_db_list = 0,10")
         .replace("empirical_trials = 100", "empirical_trials = 12"), 1),
    ], ids=["rmse-snr", "rmse-eta", "loss-bits"])
    def test_one_draw_per_shape(self, tmp_path, monkeypatch, experiment, text,
                                passes):
        # every curve point of a run reads the same trial streams, so a
        # one-worker run reads each trial's stream once per draw shape,
        # whatever the number of points: at its defaults, 4 SNRs for
        # rmse-snr and 5 etas x 3 SNRs for rmse-eta
        opened = _record_streams(monkeypatch)
        cfg_path = _write_config(tmp_path / "c.ini", text)
        config = load_config(experiment, cfg_path, out=str(tmp_path),
                             workers=1)
        run_experiment(config)
        n = (config.value("quant.empirical_trials")
             if experiment == "loss-bits" else config.trials)
        assert sorted(opened) == sorted(
            passes * [(config.seed, i) for i in range(n)])


@pytest.fixture(scope="module")
def mlnn_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("mlnn")
    cfg_path = _write_config(out / "c.ini", SMALL_MLNN)
    config = load_config("train-mlnn", str(cfg_path), out=str(out))
    model_path, report_path, model = run_train_mlnn(config)
    return config, model_path, report_path, model


class TestTrainMlnn:
    def test_model_file_roundtrips(self, mlnn_outputs):
        from doalab.mlnn import forward, load_model

        _, model_path, _, model = mlnn_outputs
        loaded = load_model(model_path)
        x = np.abs(np.random.default_rng(0).standard_normal((5, 16)))
        x /= x.sum(axis=1, keepdims=True)
        np.testing.assert_array_equal(forward(model, x), forward(loaded, x))

    def test_thresholds_recorded(self, mlnn_outputs):
        _, _, _, model = mlnn_outputs
        taus = model.metadata["thresholds"]
        assert set(taus) == {"0.01", "0.1"}
        assert 0.0 <= taus["0.1"] <= 1.0

    def test_report_covers_stages(self, mlnn_outputs):
        _, _, report_path, _ = mlnn_outputs
        lines = Path(report_path).read_text().splitlines()
        assert lines[0].startswith("stage,activation,shape,val_loss")
        stages = [line.split(",")[0] for line in lines[1:]]
        assert "3" in stages

    def test_roc_with_pretrained_model(self, mlnn_outputs, tmp_path):
        config_src, _, _, model = mlnn_outputs
        cfg_path = _write_config(tmp_path / "c.ini", SMALL_MLNN)
        config = load_config("roc", str(cfg_path), out=str(tmp_path / "roc"))
        path, scores = run_roc(config, model=model)
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "fap,pd,detector,snr_db,n,l,trials,seed"
        detectors = {line.split(",")[2] for line in lines[1:]}
        assert detectors == {"glrt", "r-maxev-minev", "mlnn"}
        # scores are paired: same realizations scored by every detector
        assert all(len(scores["h0"][d]) == config.trials for d in detectors)


# experiment -> (config text, output files)
INVARIANCE_CASES = {
    # Gaussian draws, both eliminators, and a two-layer search through the
    # power iteration (more than one snapshot)
    "rmse-snr": (SMALL_RMSE + "signal_model = gaussian\nt_snapshots = 3\n",
                 ("rmse_snr.csv",)),
    "rmse-eta": (SMALL_RMSE + "[rmse]\neta_grid = 0.5,1.0\neta_snr_db_list = 0\n",
                 ("rmse_eta.csv",)),
    # nearly every -10 dB row falls back to the stacked eigh
    "loss-bits": (SMALL_BITS.replace("snr_db_list = 0", "snr_db_list = -10,0"),
                  ("loss_bits.csv",)),
    "train-mlnn": (SMALL_MLNN, ("mlnn_model.json", "mlnn_report.csv")),
    "roc": (SMALL_MLNN.replace("trials = 1000", "trials = 200"), ("roc.csv",)),
}


@pytest.mark.parametrize("experiment", sorted(INVARIANCE_CASES))
def test_worker_count_invariance(tmp_path, experiment):
    text, outputs = INVARIANCE_CASES[experiment]
    cfg_path = _write_config(tmp_path / "c.ini", text)
    runs = []
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}"
        run_experiment(load_config(experiment, cfg_path, out=str(out),
                                   workers=workers))
        runs.append([(out / name).read_bytes() for name in outputs])
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("method", ["forkserver", "spawn"])
def test_start_method_invariance(tmp_path, monkeypatch, method):
    # workers that import doalab afresh, as forkserver and spawn start
    # them, write the bytes of one worker
    runs = {"rmse-snr": SMALL_RMSE, "loss-bits": SMALL_BITS,
            "train-mlnn": SMALL_MLNN, "roc": INVARIANCE_CASES["roc"][0]}
    outputs = ("rmse_snr.csv", "loss_bits.csv", "mlnn_model.json",
               "mlnn_report.csv", "roc.csv")
    got = []
    for workers in (1, 2):
        if workers == 2:
            monkeypatch.setattr(harness, "ProcessPoolExecutor", partial(
                ProcessPoolExecutor, mp_context=get_context(method)))
        out = tmp_path / f"w{workers}"
        for experiment, text in runs.items():
            cfg_path = _write_config(tmp_path / f"{experiment}.ini", text)
            # roc scores the model train-mlnn wrote; the others ignore it
            run_experiment(load_config(experiment, cfg_path, out=str(out),
                                       workers=workers),
                           model_path=str(out / "mlnn_model.json"))
        got.append([(out / name).read_bytes() for name in outputs])
    assert got[0] == got[1]


class _CountingPool:
    """A stand-in for the worker pool whose map takes exactly one function
    and one iterable, as perfbench's traced pool does, and counts calls."""

    calls = 0

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        type(self).calls += 1
        return map(fn, iterable)


def test_pool_bounded_by_cpus(tmp_path, monkeypatch):
    # a worker count far past the CPUs forks one process per CPU at most
    # and plans one block per trial at most, with the bytes of one worker.
    # The pool is a stand-in that records its size and starts no process;
    # the host shows more CPUs than trials, so the trial count caps the
    # blocks
    cfg_path = _write_config(tmp_path / "c.ini", SMALL_RMSE)
    run_rmse_snr(load_config("rmse-snr", cfg_path, out=str(tmp_path / "w1")))
    sizes, blocks = [], []

    class RecordingPool(_CountingPool):
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, iterable):
            tasks = list(iterable)
            blocks.append(len(tasks))
            return map(fn, tasks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(1000)),
                        raising=False)
    run_rmse_snr(load_config("rmse-snr", cfg_path, out=str(tmp_path / "wmax"),
                             workers=10 ** 9))
    assert sizes == [1000]
    assert blocks == [100]
    assert ((tmp_path / "wmax" / "rmse_snr.csv").read_bytes()
            == (tmp_path / "w1" / "rmse_snr.csv").read_bytes())


@pytest.mark.parametrize("experiment,run,output", [
    ("rmse-snr", run_rmse_snr, "rmse_snr.csv"),
    ("rmse-eta", run_rmse_eta, "rmse_eta.csv"),
    ("loss-bits", run_loss_bits, "loss_bits.csv"),
])
def test_one_map_per_run(tmp_path, monkeypatch, experiment, run, output):
    # every curve point's blocks go through one map call, with each task
    # as the map's one argument; the bytes match the in-process map
    text = (SMALL_RMSE.replace("snr_db_list = 10", "snr_db_list = 0,10")
            + "[rmse]\neta_grid = 0.5,1.0\neta_snr_db_list = -10,10\n"
            + SMALL_BITS.replace("snr_db_list = 0", "snr_db_list = 0,10"))
    if experiment == "loss-bits":  # which reads no [run] trials
        text = text.replace("[run]\ntrials = 100\n", "")
    cfg_path = _write_config(tmp_path / "c.ini", text)
    run(load_config(experiment, cfg_path, out=str(tmp_path / "map")))
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _CountingPool)
    monkeypatch.setattr(_CountingPool, "calls", 0)
    run(load_config(experiment, cfg_path, out=str(tmp_path / "pool"),
                    workers=2))
    assert _CountingPool.calls == 1
    assert ((tmp_path / "pool" / output).read_bytes()
            == (tmp_path / "map" / output).read_bytes())


BLOCK_PLAN_CASES = dict(INVARIANCE_CASES, **{"rmse-snr": (
    SMALL_RMSE.replace("snr_db_list = 10", "snr_db_list = 0,10"), ())})


def _mapped_points(monkeypatch):
    """Record every block the harness maps, as (args, seed, trials), with
    the worker pool mapped in-process so every worker count is seen, and
    return a function that groups them into curve points: per params and
    seed, each run of contiguous trial ranges is one point's blocks."""
    blocks = []
    for name in ("_rmse_block", "_quant_block", "trial_eigs"):
        def recorded(*args, block_fn=getattr(harness, name)):
            *params, streams = args
            blocks.append((repr(params), streams.seed, streams.trials))
            return block_fn(*args)

        monkeypatch.setattr(harness, name, recorded)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _CountingPool)

    def points():
        grouped = []
        for params, seed, trials in sorted(
                blocks, key=lambda b: (b[0], b[1], b[2].start)):
            last = grouped[-1][-1] if grouped else None
            if last and last[:2] == (params, seed) and last[2].stop == trials.start:
                grouped[-1].append((params, seed, trials))
            else:
                grouped.append([(params, seed, trials)])
        return [[trials for _, _, trials in point] for point in grouped]

    return points


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("experiment", sorted(BLOCK_PLAN_CASES))
def test_block_plan_one_block_per_worker(tmp_path, monkeypatch, experiment,
                                         workers):
    # each curve point of a small run is one block per worker, of sizes
    # differing by at most one trial; the host shows as many CPUs as
    # workers, since a pool forks, and plans blocks for, one per CPU at most
    points = _mapped_points(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)),
                        raising=False)
    cfg_path = _write_config(tmp_path / "c.ini", BLOCK_PLAN_CASES[experiment][0])
    run_experiment(load_config(experiment, cfg_path, out=str(tmp_path),
                               workers=workers))
    assert points()
    for blocks in points():
        sizes = [len(trials) for trials in blocks]
        assert len(blocks) == workers
        assert max(sizes) - min(sizes) <= 1


def test_block_plan_splits_over_budget(tmp_path, monkeypatch):
    # the default loss-bits point (500 trials x 32 antennas x 50 snapshots)
    # is over one block's sample budget, so even one worker splits it
    blocks = []

    def recorded(cfg, scen, bits, streams):
        blocks.append(streams.trials)
        return np.ones((len(streams), len(bits) + 1))

    monkeypatch.setattr(harness, "_quant_block", recorded)
    config = load_config("loss-bits", out=str(tmp_path))
    run_loss_bits(config)
    per_point = len(blocks) // len(harness._parse_list(config["quant.snr_db_list"]))
    assert per_point >= 4
    assert max(map(len, blocks)) * 32 * 50 <= harness.BLOCK_SAMPLES


def test_block_budget_counts_eliminator_draws(tmp_path, monkeypatch):
    # on the paper array the eliminators draw 48 antennas x 5 sets a trial,
    # more than the two-layer estimator's 64 x 1; under a budget small
    # enough to split the run, each block's distinct draws (trials x
    # channels x snapshots x sets) stay within it
    from doalab import doa

    draws = {}

    def recorded(cfg, scen, rngs, sets=1):
        draws.setdefault(rngs.trials, set()).add(
            (cfg.n_total, scen.n_snapshots, sets))
        return synthesize_snapshot_rows(cfg, scen, rngs, sets)

    monkeypatch.setattr(doa, "synthesize_snapshot_rows", recorded)
    monkeypatch.setattr(harness, "BLOCK_SAMPLES", 3000)
    cfg_path = _write_config(tmp_path / "c.ini", "[run]\ntrials = 100\n")
    run_rmse_snr(load_config("rmse-snr", cfg_path, out=str(tmp_path)))
    assert len(draws) > 1
    for trials, shapes in draws.items():
        assert shapes == {(64, 1, 1), (48, 1, 5)}
        assert (len(trials) * sum(n * t * sets for n, t, sets in shapes)
                <= harness.BLOCK_SAMPLES)


def test_roc_trials_disjoint_from_training(tmp_path, monkeypatch):
    # the ROC scores the neural detector on trials it was neither trained
    # nor calibrated on: train-mlnn and roc at one seed share no stream
    opened = _record_streams(monkeypatch)
    cfg_path = _write_config(tmp_path / "c.ini", SMALL_MLNN)
    _, _, model = run_train_mlnn(load_config("train-mlnn", cfg_path,
                                             out=str(tmp_path / "t")))
    training = set(opened)
    opened.clear()
    config = load_config("roc", cfg_path, out=str(tmp_path / "r"))
    run_roc(config, model=model)
    roc = set(opened)
    assert len(roc) == 2 * config.trials
    assert not training & roc


def test_every_training_draw_owns_its_streams(tmp_path, monkeypatch):
    # train-mlnn and roc at one seed: the three datasets, each of the three
    # fits, the calibration scores and the ROC each read a run of streams
    # from the first index of their range, at the config seed, and no
    # stream is read twice
    opened = _record_streams(monkeypatch)
    cfg_path = _write_config(tmp_path / "c.ini", SMALL_MLNN)
    config = load_config("train-mlnn", cfg_path, out=str(tmp_path / "t"))
    _, _, model = run_train_mlnn(config)
    run_roc(load_config("roc", cfg_path, out=str(tmp_path / "r")), model=model)
    assert {seed for seed, _ in opened} == {config.seed}
    indices = [index for _, index in opened]
    assert len(set(indices)) == len(indices)
    counts = {SEARCH_STREAMS: 400, VALIDATION_STREAMS: 2000,
              FINAL_STREAMS: model.metadata["n_examples"], FIT_STREAMS: 3,
              CALIBRATION_STREAMS: 1000, ROC_STREAMS: 2 * 1000}
    assert sorted(indices) == sorted(i for first, n in counts.items()
                                     for i in range(first, first + n))


def test_nearby_seeds_share_no_training_row(tmp_path, monkeypatch):
    # seeds 5 and 6 draw no common eigenvalue row, and seed 5's calibration
    # scores are not seed 12's search-set H0 rows
    draws = {}  # the detection draws of each run, by its seed, in order
    real = harness.detection_eigs

    def recording(*args, **kwargs):
        draws[seed].append(real(*args, **kwargs))
        return draws[seed][-1]

    monkeypatch.setattr(harness, "detection_eigs", recording)
    cfg_path = _write_config(tmp_path / "c.ini", SMALL_MLNN)
    for seed in (5, 6, 12):
        draws[seed] = []
        run_train_mlnn(load_config("train-mlnn", cfg_path, seed=seed,
                                   out=str(tmp_path / str(seed))))

    def rows(*arrays):
        return {row.tobytes() for eigs in arrays for row in eigs}

    assert not rows(*draws[5]) & rows(*draws[6])
    calibration, search_h0 = draws[5][-1], draws[12][0]
    assert len(calibration) == 1000 and len(search_h0) == 200
    assert not rows(calibration) & rows(search_h0)


class TestCli:
    def test_loss_bits_end_to_end(self, tmp_path, capsys):
        text = ("[quant]\nbits = 1\nn_antennas = 8\nn_snapshots = 20\n"
                "snr_db_list = 0\nempirical_trials = 100\n")
        cfg_path = _write_config(tmp_path / "c.ini", text)
        rc = cli_main(["loss-bits", "--config", cfg_path,
                       "--out", str(tmp_path / "o"), "--seed", "7"])
        out = capsys.readouterr().out.strip()
        assert rc == 0
        assert out.endswith("loss_bits.csv")
        assert "seed" in Path(out).read_text().splitlines()[0]

    @pytest.mark.parametrize("experiment", ["rmse-snr", "train-mlnn"])
    def test_unwritable_out_exit_code(self, tmp_path, capsys, monkeypatch,
                                      experiment):
        # an output directory that cannot be made is a config error, found
        # before any trial runs, not after the whole run
        (tmp_path / "file").write_text("")

        def refuse(*args, **kwargs):
            pytest.fail("an experiment ran without its output directory")

        for name in ("run_roc", "run_rmse_snr", "run_rmse_eta",
                     "run_loss_bits", "run_train_mlnn"):
            monkeypatch.setattr(harness, name, refuse)
        rc = cli_main([experiment, "--out", str(tmp_path / "file" / "out")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_out_of_range_exit_code(self, tmp_path, capsys, monkeypatch,
                                         seed):
        # the stream key holds a seed in [0, 2**64): -1 and 2**64 would
        # draw the streams of 2**64 - 1 and 0
        monkeypatch.setattr(rng_module, "rekey", lambda *args: pytest.fail(
            "a trial stream opened before exit 2"))
        assert cli_main(["rmse-snr", "--seed", str(seed),
                         "--out", str(tmp_path / "o")]) == 2
        assert "run.seed must be an integer in [0, 2**64)" in \
            capsys.readouterr().err
        assert load_config("rmse-snr", seed=2 ** 64 - 1).seed == 2 ** 64 - 1

    def test_training_at_the_top_seed(self, tmp_path, capsys, monkeypatch):
        # every draw of a training run is a stream at the config seed, so
        # the largest seed trains without wrapping onto another's streams
        opened = _record_streams(monkeypatch)
        cfg_path = _write_config(tmp_path / "c.ini", SMALL_MLNN)
        assert cli_main(["train-mlnn", "--config", cfg_path, "--seed",
                         str(2 ** 64 - 1), "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().out.strip().endswith("mlnn_model.json")
        assert opened and {seed for seed, _ in opened} == {2 ** 64 - 1}

    @pytest.mark.parametrize("experiment,text,code", [
        ("loss-bits", SMALL_BITS + "[array]\nm_sub = 128\n", 0),
        ("roc", MISFIT_MLNN, 0),
        ("train-mlnn", MISFIT_MLNN, 0),
        ("rmse-snr", "[run]\ntrials = 100\n[array]\nn_total = 6\nm_sub = 8\n", 2),
    ], ids=["loss-bits", "roc", "train-mlnn", "rmse-snr"])
    def test_partition_checked_only_where_built(self, tmp_path, capsys,
                                                experiment, text, code):
        # only rmse-snr and rmse-eta build the two-layer [array]; roc and
        # train-mlnn read its n_total alone, and loss-bits reads none of it
        cfg_path = _write_config(tmp_path / "c.ini", text)
        assert cli_main([experiment, "--config", cfg_path,
                         "--out", str(tmp_path / "o")]) == code
        assert ("config error" in capsys.readouterr().err) == bool(code)

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path / "c.ini", "[nope]\nx = 1\n")
        rc = cli_main(["roc", "--config", cfg_path])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment,text", [
        ("loss-bits", "[quant]\nbits = 0\n"),
        ("loss-bits", "[quant]\nbits = 1,2.5\n"),
        ("loss-bits", "[quant]\nempirical_trials = 0\n"),
        ("rmse-eta", "[rmse]\neta_grid = 0.25,1.5\n"),
        ("rmse-snr", "[array]\nm_sub = 0\n"),
        ("rmse-snr", "[array]\nfd_proportion = 2\n"),
        ("rmse-snr", "[array]\nspacing = 0\n"),
        ("rmse-snr", "[scenario]\nt_snapshots = 0\n"),
        ("roc", "[scenario]\nn_snapshots = 0\n"),
        ("loss-bits", "[quant]\nn_antennas = 1\n"),
        ("loss-bits", "[quant]\nn_snapshots = 0\n"),
        ("train-mlnn", "[scenario]\nsnr_db = 1e400\n"),
        ("train-mlnn", "[scenario]\nsnr_db = nan\n"),
        ("rmse-snr", "[scenario]\nsnr_db_list = 0,inf\n"),
        ("rmse-eta", "[rmse]\neta_snr_db_list = nan\n"),
        ("loss-bits", "[quant]\nsnr_db_list = -inf\n"),
        ("rmse-snr", "[array]\nm_sub = 100\n"),
        ("rmse-snr", "[array]\nn_total = 1\n"),
        ("rmse-eta", "[array]\nn_total = 10\nfd_proportion = 0.5\n"),
        ("rmse-snr", "[scenario]\ntheta_deg = 95\n"),
        ("roc", "[detect]\nglrt_form = nope\n"),
        ("roc", "[detect]\nglrt_form = sphericity\n"),
        ("train-mlnn", "[mlnn]\nsnr_jitter_db = 1\n"),
        ("roc", "[detect]\ntarget_fap = 0.1\n"),
        ("train-mlnn", "[run]\ntrials = 500\n"),
        ("train-mlnn", "[mlnn]\nbatch_size = 0\n"),
        ("train-mlnn", "[mlnn]\nsearch_size = 0\n"),
        ("train-mlnn", "[mlnn]\nsearch_size = 1\n"),
        ("train-mlnn", "[mlnn]\nlearning_rate = nan\n"),
        ("train-mlnn", "[mlnn]\nfinal_ratio = 20\n"),
        ("train-mlnn", "[mlnn]\nepochs = -1\n"),
        ("train-mlnn", "[mlnn]\nactivations = swish\n"),
        ("train-mlnn", "[mlnn]\nshapes = 4,x\n"),
        ("train-mlnn", "[mlnn]\nshapes = 4|0\n"),
        ("train-mlnn", "[mlnn]\nepochs = 5\nepochs = 6\n"),
        ("train-mlnn", "[mlnn]\nepochs\n"),
        ("rmse-snr", "[array]\nfd_proportion = 1.0\n"),
        ("rmse-snr", "[array]\nfd_proportion = 0\n"),
        ("rmse-snr", "[array]\nn_total = 13\nm_sub = 4\nfd_proportion = 0.077\n"),
        ("rmse-snr", "[array]\nn_total = 16\nm_sub = 4\nfd_proportion = 0.25\n"),
        ("rmse-snr", "[array]\nn_total = 12\nm_sub = 8\nfd_proportion = 0.34\n"
                     "spacing = 0.1\n"),
        ("rmse-eta", "[rmse]\neta_grid = 0.25,0.01\n"),
        ("loss-bits", "[quant]\nbits = 1,20\n"),
        ("loss-bits", "[quant]\nbits = 64\n"),
        ("rmse-snr", "[scenario]\nsnr_db_list =\n"),
        ("rmse-eta", "[rmse]\neta_grid =\n"),
        ("rmse-eta", "[rmse]\neta_snr_db_list = ,\n"),
        ("loss-bits", "[quant]\nsnr_db_list =\n"),
        ("loss-bits", "[quant]\nbits =\n"),
        ("loss-bits", "[run]\ntrials = 100\n"),
        # sin(30 deg) = 0.5 is the broadside-beam null for M = 4, d = 0.5
        ("rmse-snr", "[scenario]\ntheta_deg = 30\n"),
    ], ids=["bits-zero", "bits-fraction", "no-empirical-trials", "eta-above-one",
            "m-sub-zero", "fd-proportion-two", "spacing-zero", "no-t-snapshots",
            "no-n-snapshots", "one-antenna", "no-quant-snapshots",
            "snr-overflows", "snr-nan", "snr-list-inf", "eta-snr-list-nan",
            "quant-snr-list-inf", "m-sub-above-n-total", "n-total-one",
            "eta-grid-partition", "theta-out-of-range", "unknown-glrt-form",
            "detect-section-gone", "snr-jitter-unknown", "target-fap-unknown",
            "mlnn-trials-below-1000",
            "batch-size-zero", "search-size-zero", "search-size-one",
            "learning-rate-nan", "final-ratio-twenty", "epochs-negative",
            "unknown-activation", "shape-not-int", "shape-zero-width",
            "key-given-twice", "key-without-value", "fd-proportion-one",
            "no-fd-block", "one-fd-antenna", "fewer-subarrays-than-candidates",
            "one-subarray", "eta-fd-block-under-two", "bits-twenty",
            "bits-sixty-four", "snr-list-empty", "eta-grid-empty",
            "eta-snr-list-empty", "quant-snr-list-empty", "bits-empty",
            "loss-bits-run-trials", "theta-analog-null"])
    def test_bad_setting_exit_code(self, tmp_path, capsys, experiment, text):
        # a case that sets [run] itself, or runs loss-bits, which reads no
        # [run] trials, goes without the trial-count prefix
        if not text.startswith("[run]") and experiment != "loss-bits":
            text = "[run]\ntrials = 1000\n" + text
        cfg_path = _write_config(tmp_path / "c.ini", text)
        # rejected while loading, before any curve point runs
        with pytest.raises(ConfigError):
            load_config(experiment, cfg_path)
        assert cli_main([experiment, "--config", cfg_path,
                         "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        None, "{not json", '{"format_version": 99}', '{"format_version": 1}',
    ], ids=["missing", "bad-json", "unsupported-format", "missing-keys"])
    def test_unreadable_model_exit_code(self, tmp_path, capsys, content):
        model = tmp_path / "model.json"
        if content is not None:
            model.write_text(content)
        assert cli_main(["roc", "--model", str(model),
                         "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("n_inputs,edit", [
        (64, lambda doc: doc),
        (16, lambda doc: [1, 2]),
        (16, lambda doc: dict(doc, weights=[doc["weights"][0][:-1],
                                            doc["weights"][1]])),
        (16, lambda doc: dict(doc, layer_sizes=64)),
        (16, lambda doc: dict(doc, input_center=None)),
        # values no detector can score with: a NaN score, or a division by 0
        (16, lambda doc: dict(doc, weights=[[[math.nan, *doc["weights"][0][0][1:]],
                                             *doc["weights"][0][1:]],
                                            doc["weights"][1]])),
        (16, lambda doc: dict(doc, input_scale=[0.0, *doc["input_scale"][1:]])),
        (16, lambda doc: dict(doc, input_center=[math.inf,
                                                 *doc["input_center"][1:]])),
    ], ids=["other-n-total", "not-an-object", "weights-row-dropped",
            "layer-sizes-not-list", "input-center-null", "weight-nan",
            "input-scale-zero", "input-center-inf"])
    def test_misfit_model_exit_code(self, tmp_path, capsys, monkeypatch,
                                    n_inputs, edit):
        # refused when the model loads, before any detection trial runs
        monkeypatch.setattr(harness, "detection_eigs", lambda *args, **kw:
                            pytest.fail("a detection trial ran"))
        model = tmp_path / "model.json"
        save_model(init_model((n_inputs, 4, 1), ("sigmoid",), trial_rng(0)), model)
        model.write_text(json.dumps(edit(json.loads(model.read_text()))))
        cfg_path = _write_config(tmp_path / "c.ini",
                                 "[run]\ntrials = 200\n[array]\nn_total = 16\n")
        assert cli_main(["roc", "--config", cfg_path, "--model", str(model),
                         "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err


EVERY_EXPERIMENT = dict(INVARIANCE_CASES, **{"rmse-snr": (SMALL_RMSE, ())})


def test_every_config_key_is_read(tmp_path, monkeypatch):
    # a key that no experiment reads would change only the digest
    read = set()
    value = ExperimentConfig.value

    def recording(self, key):
        read.add(key)
        return value(self, key)

    monkeypatch.setattr(ExperimentConfig, "value", recording)
    for experiment, (text, _) in EVERY_EXPERIMENT.items():
        cfg_path = _write_config(tmp_path / f"{experiment}.ini", text)
        run_experiment(load_config(experiment, cfg_path,
                                   out=str(tmp_path / experiment)))
    keys = {f"{sec}.{key}" for sec, section in SCHEMA.items() if sec != "run"
            for key in section}
    assert keys - read == set()


def test_runs_read_no_config_text(tmp_path, monkeypatch):
    # load_config parses every key once; a run that parsed a key's text
    # again could read it differently from the check
    monkeypatch.setattr(ExperimentConfig, "__getitem__", lambda self, key:
                        pytest.fail(f"a run read the text of {key}"))
    for experiment, (text, _) in EVERY_EXPERIMENT.items():
        cfg_path = _write_config(tmp_path / f"{experiment}.ini", text)
        run_experiment(load_config(experiment, cfg_path,
                                   out=str(tmp_path / experiment)))


@pytest.mark.parametrize("experiment,text,output", [
    ("roc", "[run]\ntrials = 200\n[array]\nn_total = 16\n[scenario]\n"
            "snr_db = -5\nn_snapshots = 32\n", "roc.csv"),
    ("train-mlnn", SMALL_MLNN, "mlnn_report.csv"),
    ("loss-bits", "[scenario]\n" + SMALL_BITS, "loss_bits.csv"),
], ids=["roc", "train-mlnn", "loss-bits"])
def test_signal_model_changes_numbers(tmp_path, experiment, text, output):
    # a Gaussian signal changes the curve at the same seed, not just the
    # config digest
    numbers = {}
    for model in ("constant-modulus", "gaussian"):
        cfg_path = _write_config(tmp_path / f"{model}.ini", text.replace(
            "[scenario]\n", f"[scenario]\nsignal_model = {model}\n"))
        config = load_config(experiment, cfg_path, out=str(tmp_path / model))
        if experiment == "roc":  # one fixed network for both signals
            run_roc(config, model=init_model((16, 4, 1), ("sigmoid",), trial_rng(0)))
        else:
            run_experiment(config)
        with open(tmp_path / model / output, newline="") as fh:
            numbers[model] = [{k: v for k, v in row.items() if k != "digest"}
                              for row in csv.DictReader(fh)]
    assert numbers["constant-modulus"] != numbers["gaussian"]

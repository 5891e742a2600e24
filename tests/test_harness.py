import math
from pathlib import Path

import numpy as np
import pytest

from doalab.arrays import ArrayConfig
from doalab.cli import main as cli_main
from doalab.crlb import RAD2_TO_DEG2, crlb_had
from doalab.errors import ConfigError
from doalab.harness import (
    DEFAULT_TRIALS,
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
from doalab.quantize import performance_loss_db


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
        assert config["detect.glrt_form"] == "sphericity"

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
        e1 = detection_eigs(8, 16, -10.0, 1, 120, seed=4, workers=1)
        e2 = detection_eigs(8, 16, -10.0, 1, 120, seed=4, workers=3)
        np.testing.assert_array_equal(e1, e2)

    def test_offset_shifts_streams(self):
        a = detection_eigs(8, 16, -10.0, 0, 50, seed=4, offset=0)
        b = detection_eigs(8, 16, -10.0, 0, 50, seed=4, offset=50)
        assert not np.allclose(a, b)

    def test_sorted_descending(self):
        e = detection_eigs(8, 16, 0.0, 1, 30, seed=1)
        assert np.all(np.diff(e, axis=1) <= 1e-12)

    def test_dataset_factory_balanced_and_normalized(self):
        factory = make_detection_dataset_factory(8, 16, -8.0)
        data = factory(101, seed=3)
        assert abs(2 * int(data.labels.sum()) - 101) <= 1
        np.testing.assert_allclose(data.features.sum(axis=1), 1.0, atol=1e-12)


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
        want = math.sqrt(crlb_had(cfg_had, 15.0, 10.0, 1, analog_steer_u=0.0)
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
        text = ("[run]\ntrials = 100\n"
                "[quant]\nbits = 1,2\nn_antennas = 8\nn_snapshots = 20\n"
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
        text = ("[run]\ntrials = 100\n"
                "[quant]\nbits = 1\nn_antennas = 16\nn_snapshots = 50\n"
                "snr_db_list = 0\nempirical_trials = 300\n")
        cfg_path = _write_config(tmp_path / "c.ini", text)
        _, rows = run_loss_bits(load_config("loss-bits", cfg_path,
                                            out=str(tmp_path / "o")))
        row = next(r for r in rows if r[0] == 1)
        assert row[3] == pytest.approx(row[2], abs=2.0)


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
    "rmse-eta": (SMALL_RMSE + "[rmse]\neta_grid = 0.5,1.0\neta_snr_db_list = 0\n",
                 ("rmse_eta.csv",)),
    "loss-bits": (SMALL_BITS, ("loss_bits.csv",)),
    "train-mlnn": (SMALL_MLNN, ("mlnn_model.json", "mlnn_report.csv")),
    "roc": (SMALL_MLNN.replace("trials = 1000", "trials = 200"), ("roc.csv",)),
}


@pytest.mark.parametrize("experiment", sorted(INVARIANCE_CASES))
def test_worker_count_invariance(tmp_path, experiment):
    text, outputs = INVARIANCE_CASES[experiment]
    cfg_path = _write_config(tmp_path / "c.ini", text)
    runs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        run_experiment(load_config(experiment, cfg_path, out=str(out),
                                   workers=workers))
        runs.append([(out / name).read_bytes() for name in outputs])
    assert runs[0] == runs[1]


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
        ("train-mlnn", "[mlnn]\nsnr_jitter_db = nan\n"),
        ("train-mlnn", "[mlnn]\nsnr_jitter_db = inf\n"),
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
    ], ids=["bits-zero", "bits-fraction", "no-empirical-trials", "eta-above-one",
            "m-sub-zero", "fd-proportion-two", "spacing-zero", "no-t-snapshots",
            "no-n-snapshots", "one-antenna", "no-quant-snapshots",
            "snr-overflows", "snr-nan", "snr-list-inf", "eta-snr-list-nan",
            "quant-snr-list-inf", "m-sub-above-n-total", "n-total-one",
            "eta-grid-partition", "theta-out-of-range", "unknown-glrt-form",
            "jitter-nan", "jitter-inf", "mlnn-trials-below-1000",
            "batch-size-zero", "search-size-zero", "search-size-one",
            "learning-rate-nan", "final-ratio-twenty", "epochs-negative",
            "unknown-activation", "shape-not-int", "shape-zero-width",
            "key-given-twice", "key-without-value"])
    def test_bad_setting_exit_code(self, tmp_path, capsys, experiment, text):
        # a case that sets [run] itself goes without the trial-count prefix
        if not text.startswith("[run]"):
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

"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line for its criterion.  The detector
criteria share one trained neural model and one set of paired Monte Carlo
realizations, so the whole suite runs in a few minutes on one core.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from doalab.arrays import ArrayConfig, EmitterScenario, synthesize_snapshots
from doalab.crlb import crlb_fd
from doalab.detect import (
    decision_threshold,
    glrt_statistic,
    maxmin_statistic,
    roc_points,
)
from doalab.doa import (
    candidate_set,
    fhad_root_music,
    had_root_music_classic,
    tlhad_estimate,
)
from doalab.harness import (
    detection_eigs,
    load_config,
    run_loss_bits,
    run_rmse_eta,
    run_rmse_snr,
    run_roc,
    train_mlnn_model,
)
from doalab.mlnn import eig_features, forward, init_model
from doalab.quantize import distortion_factor, performance_loss_db
from doalab.rng import ROC_STREAMS, trial_rng
from doalab.spectral import root_music, sample_covariance

from oracles import crlb_fd_closed_form, music_spectrum_grid, pd_at_fap

SEED = 20240901


def _report(num, name, ok):
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def mlnn_model(tmp_path_factory):
    config = load_config("train-mlnn", seed=SEED,
                         out=str(tmp_path_factory.mktemp("mlnn")))
    model, _ = train_mlnn_model(config)
    return model


@pytest.fixture(scope="module")
def roc_runs(mlnn_model, tmp_path_factory):
    """The criterion-1 ROC, run twice with different worker counts."""
    outputs = []
    for workers in (1, 2):
        out = str(tmp_path_factory.mktemp(f"roc{workers}"))
        config = load_config("roc", seed=SEED, out=out, workers=workers)
        outputs.append(run_roc(config, model=mlnn_model))
    (path1, scores), (path2, _) = outputs
    return path1, path2, scores


def test_criterion_1_detector_ordering(roc_runs):
    _, _, scores = roc_runs
    n = len(scores["h0"]["mlnn"])
    pts = {d: roc_points(scores["h0"][d], scores["h1"][d])
           for d in ("mlnn", "r-maxev-minev", "glrt")}
    pd10 = {d: pd_at_fap(p, 0.1) for d, p in pts.items()}
    pd01 = {d: pd_at_fap(p, 0.01) for d, p in pts.items()}

    def se(p):
        return math.sqrt(max(p * (1 - p), 1e-12) / n)

    ok = (pd10["mlnn"] >= pd10["r-maxev-minev"] - 2 * se(pd10["r-maxev-minev"])
          and pd10["mlnn"] >= pd10["glrt"] + 2 * se(pd10["glrt"])
          and pd01["r-maxev-minev"] >= pd01["glrt"] - 2 * se(pd01["glrt"]))
    print(f"\n  P_d at FAP 0.1: mlnn={pd10['mlnn']:.4f} "
          f"r-maxev-minev={pd10['r-maxev-minev']:.4f} glrt={pd10['glrt']:.4f}")
    print(f"  P_d at FAP 0.01: r-maxev-minev={pd01['r-maxev-minev']:.4f} "
          f"glrt={pd01['glrt']:.4f}")
    _report(1, "detector ordering at the operating point", ok)


def test_mlnn_not_below_single_source_glrt(roc_runs):
    # the ROC's glrt is the sphericity test; for one source in white noise
    # of unknown power the GLRT is lambda_1 / mean(lambda) (Bianchi et al.,
    # IEEE Trans. IT 57(4), 2011).  On the criterion-1 trials, re-drawn,
    # each detector thresholded on its own H0 scores, the network's P_d
    # may not fall below it by more than 2 paired SE at either FAP.
    _, _, scores = roc_runs
    v = load_config("roc", seed=SEED).value
    n = len(scores["h0"]["mlnn"])
    eigs = {f"h{h}": detection_eigs(
        v("array.n_total"), v("scenario.n_snapshots"), v("scenario.snr_db"),
        h, n, SEED, offset=ROC_STREAMS + h * n,
        signal_model=v("scenario.signal_model")) for h in (0, 1)}
    for h, e in eigs.items():  # the very trials the ROC scored
        assert np.array_equal(glrt_statistic(e), scores[h]["glrt"])
    lam = {h: e[:, 0] / e.mean(axis=1) for h, e in eigs.items()}
    mlnn = {h: scores[h]["mlnn"] for h in eigs}
    ok = True
    for fap in (0.01, 0.1):
        hits = [s["h1"] > decision_threshold(s["h0"], fap) for s in (mlnn, lam)]
        diff = hits[0].astype(float) - hits[1]
        gap, se = diff.mean(), diff.std(ddof=1) / math.sqrt(n)
        print(f"\n  FAP {fap}: P_d mlnn - lambda1/mean = {gap:.4f} +- {se:.4f}")
        ok = ok and gap >= -2.0 * se
    assert ok, "the network falls below the single-source GLRT"


def test_criterion_2_threshold_calibration(mlnn_model, roc_runs):
    _, _, scores = roc_runs
    n_trials = len(scores["h0"]["mlnn"])
    fresh_eigs = detection_eigs(64, 200, -20.0, 0, n_trials, SEED + 13)
    fresh = {
        "glrt": glrt_statistic(fresh_eigs),
        "r-maxev-minev": maxmin_statistic(fresh_eigs),
        "mlnn": forward(mlnn_model, eig_features(fresh_eigs)),
    }
    ok = True
    for target in (0.01, 0.1):
        half = 2.576 * math.sqrt(target * (1 - target) / n_trials)
        for det, fresh_scores in fresh.items():
            tau = decision_threshold(scores["h0"][det], target)
            fap = float(np.mean(fresh_scores > tau))
            inside = abs(fap - target) <= half
            print(f"\n  {det} @ target {target}: fresh FAP {fap:.4f} "
                  f"(99% interval +-{half:.4f})")
            ok = ok and inside
    _report(2, "calibrated thresholds hold on fresh data", ok)


def test_default_architecture(mlnn_model):
    # the default search's outcome at SEED: the stage-2 winner, and the
    # stage-3 dataset sized from its 1,057 weights (x 6).  A change that
    # moves either edits this pin and records the move: the one-SE rule
    # and the per-draw stream ranges moved it from (64, 64) and 50,310.
    assert mlnn_model.metadata["shape"] == [16]
    assert mlnn_model.metadata["n_examples"] == 6342


def test_criterion_3_crlb_oracle():
    ok = True
    for n in (2, 4, 16, 64, 128):
        for theta in (-60.0, -20.0, 0.0, 35.0, 75.0):
            got = crlb_fd(n, math.sin(math.radians(theta)), 10.0 ** (-20.0 / 10.0),
                          200)
            ref = crlb_fd_closed_form(n, theta, -20.0, 200)
            ok = ok and abs(got - ref) <= 1e-9 * ref
    _report(3, "FD CRLB matches the closed form to 1e-9", ok)


@pytest.fixture(scope="module")
def rmse_snr_rows(tmp_path_factory):
    cfg_file = tmp_path_factory.mktemp("cfg") / "rmse.ini"
    cfg_file.write_text("[scenario]\nsnr_db_list = 5,10,15\n")
    config = load_config("rmse-snr", str(cfg_file), seed=SEED,
                         out=str(tmp_path_factory.mktemp("rmse")))
    _, rows = run_rmse_snr(config)
    return rows


def test_criterion_4_estimator_efficiency(rmse_snr_rows):
    by = {(r[0], r[1]): r for r in rmse_snr_rows}
    snrs = sorted({r[0] for r in rmse_snr_rows})
    ok = True
    for snr in (5.0, 10.0, 15.0):
        rmse, bound = by[(snr, "tlhad")][2], by[(snr, "tlhad")][3]
        print(f"\n  SNR {snr}: TLHAD RMSE {rmse:.4f} deg, "
              f"1.5*sqrt(CRLB) {1.5 * bound:.4f} deg")
        ok = ok and rmse <= 1.5 * bound
    for snr in snrs:
        if snr < 0:
            continue
        tl = by[(snr, "tlhad")][2]
        classic = by[(snr, "had-root-music")][2]
        print(f"  SNR {snr}: TLHAD {tl:.4f} vs classic {classic:.4f} deg")
        ok = ok and tl <= classic
    _report(4, "TLHAD efficiency and paired ordering vs classic", ok)


def test_criterion_5_eta_threshold(tmp_path_factory):
    cfg_text = "[rmse]\neta_snr_db_list = 10\n"
    cfg_file = tmp_path_factory.mktemp("cfg") / "eta.ini"
    cfg_file.write_text(cfg_text)
    config = load_config("rmse-eta", str(cfg_file), seed=SEED,
                         out=str(tmp_path_factory.mktemp("eta")))
    _, rows = run_rmse_eta(config)
    ok = True
    for eta, snr, rmse, bound, *_ in rows:
        ratio = rmse / bound
        constrained = eta >= 0.25
        print(f"\n  eta {eta}: RMSE/sqrt(CRLB) = {ratio:.3f}"
              f"{'' if constrained else ' (reported, unconstrained)'}")
        if constrained:
            ok = ok and ratio <= 1.5
    _report(5, "bound achieved for FD proportion >= 0.25", ok)


def test_criterion_6_snapshot_budgets():
    cfg = ArrayConfig.pure_had(64, 4)
    scen = EmitterScenario.single_emitter(15.0, 10.0, 1)
    classic = had_root_music_classic(cfg, scen, trial_rng(SEED))
    fast = fhad_root_music(cfg, scen, trial_rng(SEED))
    tl = tlhad_estimate(ArrayConfig(64, 4, 12, 16), scen, trial_rng(SEED))
    ok = (classic.snapshots_used == 1 + len(classic.candidates)
          and len(classic.candidates) == cfg.m_sub  # full lattice: M + 1 total
          and fast.snapshots_used == 2
          and tl.snapshots_used == 1)
    _report(6, "snapshot budgets: M+1 / 2 / 1", ok)


def test_criterion_7_quantization(tmp_path_factory):
    losses = [performance_loss_db(b, 0.0) for b in range(1, 9)]
    ok = all(a > b for a, b in zip(losses, losses[1:]))
    ok = ok and losses[4] - losses[5] < 0.1  # b=5 -> b=6 gain under 0.1 dB
    ok = ok and abs(distortion_factor(1) - (1 - 2 / math.pi)) <= 1e-6
    cfg_file = tmp_path_factory.mktemp("cfg") / "quant.ini"
    cfg_file.write_text("[quant]\nsnr_db_list = 0\n")
    config = load_config("loss-bits", str(cfg_file), seed=SEED,
                         out=str(tmp_path_factory.mktemp("quant")))
    _, rows = run_loss_bits(config)
    for bits, snr, formula_db, empirical_db, *_ in rows:
        if bits == "inf" or bits < 2:
            continue
        print(f"\n  b={bits}: formula {formula_db:.3f} dB, "
              f"empirical {empirical_db:.3f} dB")
        ok = ok and abs(empirical_db - formula_db) <= 1.0
    _report(7, "quantization loss: monotone, saturating, AQNM-consistent", ok)


def test_criterion_8_numerical_hygiene():
    from doalab.mlnn import _forward_backward

    # backprop vs finite differences
    ok = True
    rng = trial_rng(SEED)
    for act in ("sigmoid", "tanh", "relu"):
        m = init_model((6, 8, 1), (act,), trial_rng(3))
        x = rng.standard_normal((16, 6)) + 0.1
        y = (rng.random(16) > 0.5).astype(float)
        _, gw, _ = _forward_backward(m, x, y)
        eps = 1e-6
        for li in range(len(m.weights)):
            idx = (0, 0)
            m.weights[li][idx] += eps
            lp, _, _ = _forward_backward(m, x, y)
            m.weights[li][idx] -= 2 * eps
            lm, _, _ = _forward_backward(m, x, y)
            m.weights[li][idx] += eps
            num = (lp - lm) / (2 * eps)
            scale = max(abs(num), 1e-8)
            ok = ok and abs(gw[li][idx] - num) / scale <= 1e-5

    # Root-MUSIC vs grid MUSIC oracle on noisy instances
    n_grid = 1 << 16
    cell = 2.0 / n_grid
    arr = ArrayConfig.fully_digital(16)
    for i in range(100):
        rng_i = trial_rng(SEED + 1, i)
        theta = float(np.degrees(np.arcsin(rng_i.uniform(-0.9, 0.9))))
        scen = EmitterScenario.single_emitter(theta, 5.0, 64)
        cov = sample_covariance(synthesize_snapshots(arr, scen, rng_i).samples)
        u_rm = root_music(cov)
        u_grid, d = music_spectrum_grid(cov, n_grid=n_grid)
        ok = ok and abs(u_rm - u_grid[np.argmin(d)]) <= cell

    # candidate sets contain the true direction after ambiguity reduction
    rng = trial_rng(SEED + 2)
    for _ in range(100):
        u = float(rng.uniform(-1.0, 0.999))
        period = 1.0 / (4 * 0.5)
        u_principal = ((u + period / 2) % period) - period / 2
        cands = candidate_set(u_principal, 4, 0.5).candidates
        ok = ok and np.min(np.abs(cands - u)) <= 1e-9
    _report(8, "gradients, root vs grid oracle, candidate coverage", ok)


def test_criterion_9_reproducibility(roc_runs, tmp_path_factory):
    path1, path2, _ = roc_runs
    ok = Path(path1).read_text() == Path(path2).read_text()

    # same seed, same worker count: byte-identical CSV
    cfg_file = tmp_path_factory.mktemp("cfg") / "r.ini"
    cfg_file.write_text("[run]\ntrials = 200\n[scenario]\nsnr_db_list = 10\n")
    outs = []
    for tag in ("x", "y"):
        config = load_config("rmse-snr", str(cfg_file), seed=SEED,
                             out=str(tmp_path_factory.mktemp(tag)))
        outs.append(Path(run_rmse_snr(config)[0]).read_text())
    ok = ok and outs[0] == outs[1]
    _report(9, "byte-identical reruns and worker-count invariance", ok)

"""Self-tests of the benchmark (about six minutes on two cores).

    python3 perfbench/selftest.py

1. Every output check accepts a real output and rejects perturbed copies of
   it (a scaled bound column, a non-monotone ROC, a shifted codebook level
   and so on); the Fisher information used by the checks matches the
   textbook FD-ULA closed form.
2. Two traced runs at the same seed give identical per-layer counts.
3. The sweep CSVs are byte-identical at 1 and 2 workers.

Exits 1 if any test fails.  The file is not named test_*.py, so the
repository's pytest run does not collect it.
"""

import copy
import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import traceback

import run  # standard library only, so the pins below precede numpy's import

os.environ.update(dict.fromkeys(run.THREAD_VARS, "1"))

import checks  # noqa: E402
import workload  # noqa: E402

SEED = 20240901


class Failure(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise Failure(msg)


def rejects(check, rows, perturb, what, **kw):
    """``check`` passes ``rows`` and fails them after ``perturb``."""
    expect(check(rows, **kw) == [], f"real output fails: {check(rows, **kw)}")
    bad = copy.deepcopy(rows)
    perturb(bad)
    expect(check(bad, **kw) != [], f"check accepts {what}")


def scale(rows, key, factor, where=lambda r: True):
    for r in rows:
        if where(r):
            r[key] = repr(float(r[key]) * factor)


def real_outputs(bench, exp, seed=SEED):
    cfg = bench.config(exp, seed)
    return cfg, bench.run(exp, cfg)


def test_fisher_matches_closed_form():
    for n in (2, 4, 16, 64):
        for theta in (-60.0, 0.0, 15.0, 75.0):
            own = checks.bound_deg([("fd", n)], theta, -3.0, 7)
            ref = checks.fd_closed_form_deg(n, theta, -3.0, 7)
            expect(abs(own - ref) <= 1e-9 * ref, f"FD n={n}: {own} != {ref}")


def test_estimate_checks(harness, out):
    bench = workload.Bench("estimate", harness, out)
    cfg, path = real_outputs(bench, "rmse-snr")
    rows = checks.read_csv(path)
    arr = cfg.array_config()
    kw = dict(n_total=arr.n_total, m_sub=arr.m_sub, n_fd=arr.n_fd, theta_deg=15.0,
              snr_list=workload.floats(cfg["scenario.snr_db_list"]), t_snap=1,
              n_trials=cfg.trials, seed=cfg.seed)
    tlhad = lambda r: r["method"] == "tlhad"  # noqa: E731
    rejects(checks.check_rmse_snr, rows,
            lambda b: scale(b, "sqrt_crlb_deg", 1.001, tlhad), "a scaled TLHAD bound", **kw)
    rejects(checks.check_rmse_snr, rows,
            lambda b: scale(b, "sqrt_crlb_deg", 1.7, lambda r: not tlhad(r)),
            "a HAD bound above the broadside bound", **kw)
    rejects(checks.check_rmse_snr, rows,
            lambda b: scale(b, "rmse_deg", 0.5, lambda r: r["snr_db"] == "15"),
            "an RMSE far below the bound", **kw)
    rejects(checks.check_rmse_snr, rows,
            lambda b: scale(b, "rmse_deg", 3.0, lambda r: tlhad(r) and r["snr_db"] == "10"),
            "an inefficient TLHAD at 10 dB", **kw)
    rejects(checks.check_rmse_snr, rows, lambda b: b.pop(), "a missing row", **kw)
    rejects(checks.check_rmse_snr, rows,
            lambda b: b[0].__setitem__("trials", "99"), "a wrong trial count", **kw)


def test_sweep_checks(harness, out):
    bench = workload.Bench("sweep", harness, out)
    bench.fill_caches()
    expect(bench.check_codebooks() == [], "codebook check fails on real codebooks")
    cfg, path = real_outputs(bench, "rmse-eta")
    rows = checks.read_csv(path)
    kw = dict(n_total=64, m_sub=4, eta_grid=workload.floats(cfg["rmse.eta_grid"]),
              snr_list=workload.floats(cfg["rmse.eta_snr_db_list"]), theta_deg=15.0,
              t_snap=1, n_trials=cfg.trials, seed=cfg.seed)
    rejects(checks.check_rmse_eta, rows,
            lambda b: scale(b, "sqrt_crlb_deg", 0.999), "a scaled bound column", **kw)
    rejects(checks.check_rmse_eta, rows,
            lambda b: scale(b, "rmse_deg", 3.0, lambda r: r["eta"] == "0.5" and r["snr_db"] == "10"),
            "an inefficient estimate at eta=0.5, 10 dB", **kw)
    rejects(checks.check_rmse_eta, rows,
            lambda b: scale(b, "rmse_deg", 0.4, lambda r: r["eta"] == "1"),
            "an RMSE far below the FD bound", **kw)
    rejects(checks.check_rmse_eta, rows,
            lambda b: b[0].__setitem__("eta", "0.125"), "a wrongly rounded eta", **kw)

    cfg, path = real_outputs(bench, "loss-bits")
    rows = checks.read_csv(path)
    kw = dict(bits_grid=list(range(1, 9)), snr_list=[0.0],
              n_trials=int(cfg["quant.empirical_trials"]), seed=cfg.seed,
              rho_of=bench.rho.__getitem__)
    rejects(checks.check_loss_bits, rows,
            lambda b: scale(b, "loss_db_formula", 1.0001, lambda r: r["bits"] == "3"),
            "a formula loss off the AQNM value", **kw)
    rejects(checks.check_loss_bits, rows,
            lambda b: b[2].__setitem__("loss_db_empirical", "4.0"),
            "an empirical loss far from the formula", **kw)
    rejects(checks.check_loss_bits, rows,
            lambda b: b[-1].__setitem__("loss_db_empirical", "0.01"),
            "a nonzero unquantized loss", **kw)

    quantize = importlib.import_module("doalab.quantize")
    for bits in (1, 3, 8):
        levels, thresholds, rho = quantize.lloyd_max_codebook(bits)
        expect(checks.check_codebook(bits, levels, thresholds, rho) == [],
               f"{bits}-bit codebook rejected")
        moved = levels.copy()
        moved[len(moved) // 2] += 1e-4
        expect(checks.check_codebook(bits, moved, (moved[:-1] + moved[1:]) / 2, rho) != [],
               f"{bits}-bit codebook with a shifted level accepted")
        expect(checks.check_codebook(bits, levels, thresholds, rho * 1.001) != [],
               f"{bits}-bit codebook with a wrong distortion accepted")


def test_detect_checks(harness, out):
    bench = workload.Bench("detect", harness, out)
    cfg_t, report = real_outputs(bench, "train-mlnn")
    rows = checks.read_csv(report)
    kw = dict(n_inputs=64, shape=(8,), final_ratio=5.0, seed=cfg_t.seed)
    stage3 = lambda r: r["stage"] == "3"  # noqa: E731
    rejects(checks.check_report, rows,
            lambda b: [r.__setitem__("val_loss", "0.3") for r in b if stage3(r)],
            "a stage-3 loss above 0.25", **kw)
    rejects(checks.check_report, rows,
            lambda b: [r.__setitem__("dataset_size", "6342") for r in b if stage3(r)],
            "a stage-3 dataset of another size", **kw)

    cfg, (path, scores) = real_outputs(bench, "roc")
    rows = checks.read_csv(path)
    thresholds = {float(k): float(v) for k, v in
                  bench.state["model"].metadata["thresholds"].items()}
    kw = dict(n_trials=cfg.trials, seed=cfg.seed, thresholds=thresholds,
              n_calibration=cfg_t.trials)
    expect(checks.check_roc(rows, scores, **kw) == [],
           f"real ROC fails: {checks.check_roc(rows, scores, **kw)}")

    def roc_rejects(perturb_rows=None, perturb_scores=None, what="", **over):
        bad_rows, bad_scores = copy.deepcopy(rows), copy.deepcopy(scores)
        if perturb_rows:
            perturb_rows(bad_rows)
        if perturb_scores:
            perturb_scores(bad_scores)
        expect(checks.check_roc(bad_rows, bad_scores, **{**kw, **over}) != [],
               f"ROC check accepts {what}")

    def swap_points(b):
        idx = [i for i, r in enumerate(b) if r["detector"] == "glrt"]
        i, j = idx[len(idx) // 2], idx[len(idx) // 2 + 1]
        b[i], b[j] = b[j], b[i]

    roc_rejects(swap_points, what="a non-monotone ROC")
    roc_rejects(lambda b: b.pop(), what="an ROC that stops short of (1,1)")

    def invert(s):
        s["h0"]["glrt"], s["h1"]["glrt"] = s["h1"]["glrt"], s["h0"]["glrt"]
    roc_rejects(perturb_scores=invert, what="scores that do not match the ROC")
    roc_rejects(perturb_scores=lambda s: s["h1"]["mlnn"].__setitem__(0, 1.2),
                what="an MLNN score above 1")
    roc_rejects(what="a threshold calibrated for another FAP",
                thresholds={0.01: thresholds[0.1], 0.1: thresholds[0.1]})
    # an ROC recomputed from weaker scores fails the AUC test
    weak = copy.deepcopy(scores)
    weak["h0"]["glrt"], weak["h1"]["glrt"] = scores["h1"]["glrt"], scores["h0"]["glrt"]
    from doalab.detect import roc_points
    pts = roc_points(weak["h0"]["glrt"], weak["h1"]["glrt"])
    weak_rows = [r for r in rows if r["detector"] != "glrt"] + [
        dict(rows[0], fap=repr(float(f)), pd=repr(float(p)), detector="glrt") for f, p in pts]
    expect(any("does not beat 0.5" in p for p in checks.check_roc(weak_rows, weak, **kw)),
           "ROC check accepts an AUC below 0.5")


def traced_counts(wl, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", wl,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    expect(proc.returncode == 0, f"traced {wl} run failed: {proc.stderr[-2000:]}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


def test_traced_counts_repeat():
    for wl in sorted(workload.WORKLOADS):
        first, second = traced_counts(wl, 7), traced_counts(wl, 7)
        expect(first == second, f"{wl}: traced counts differ: {first} vs {second}")
        expect(any(v > 0 for v in first.values()), f"{wl}: every count is 0")


def test_sweep_worker_invariance(harness, out):
    ini = os.path.join(workload.HERE, "configs")
    for exp, name in workload.WORKLOADS["sweep"]:
        texts = []
        for workers in (1, 2):
            cfg = harness.load_config(exp, os.path.join(ini, name), seed=SEED,
                                      out=os.path.join(out, f"w{workers}"),
                                      workers=workers)
            path = harness.run_experiment(cfg)
            with open(path, "rb") as fh:
                texts.append(fh.read())
        expect(texts[0] == texts[1], f"{exp} CSV differs between 1 and 2 workers")


def main():
    harness = workload.import_harness()
    out = tempfile.mkdtemp(prefix="selftest-", dir=run.HERE)
    tests = [
        (test_fisher_matches_closed_form, ()),
        (test_estimate_checks, (harness, os.path.join(out, "estimate"))),
        (test_sweep_checks, (harness, os.path.join(out, "sweep"))),
        (test_detect_checks, (harness, os.path.join(out, "detect"))),
        (test_sweep_worker_invariance, (harness, os.path.join(out, "workers"))),
        (test_traced_counts_repeat, ()),
    ]
    failed = 0
    try:
        for fn, args in tests:
            try:
                fn(*args)
                print(f"PASS {fn.__name__}", flush=True)
            except Exception:
                failed += 1
                print(f"FAIL {fn.__name__}\n{traceback.format_exc()}", flush=True)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(f"{len(tests) - failed}/{len(tests)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

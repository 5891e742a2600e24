"""One benchmark workload, run in a fresh interpreter.

    python3 perfbench/workload.py --workload W --seed S --seconds T \
        --trace 0|1 --result FILE
    python3 perfbench/workload.py --workload W --setup-only --result FILE

Set-up imports doalab from this checkout's ``src``, loads the workload's
configs and fills the per-process caches (the Lloyd-Max codebooks on
``sweep``).  The benchmark's own modules (``checks`` with its scipy
imports, ``spans``) are imported only after set-up, so set-up holds only
what a doalab user pays.  A round then calls each of the workload's
``harness.run_*`` experiments once, and checks each output with
``checks``; the config seed of round r is derived from ``--seed`` and r.
Without tracing, the number of rounds is fixed by the workload and
``--seconds`` alone (``ROUND_S``), so every commit measures the same work.
With tracing, one untraced round and then one traced round run, so the
counts of a seed repeat exactly.  The result is written as JSON.
"""

import argparse
import hashlib
import importlib
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# workload -> (experiment, config file) in round order
WORKLOADS = {
    "detect": (("train-mlnn", "detect-train.ini"), ("roc", "detect-roc.ini")),
    "estimate": (("rmse-snr", "estimate.ini"),),
    "sweep": (("rmse-eta", "sweep-eta.ini"), ("loss-bits", "sweep-bits.ini")),
}

# nominal wall seconds of one round on the reference machine (README); an
# untraced run makes round(--seconds / ROUND_S) rounds, at least one,
# however fast they turn out to be
ROUND_S = {"detect": 14.0, "estimate": 4.0, "sweep": 15.0}


def n_rounds(workload, seconds):
    return max(1, round(seconds / ROUND_S[workload]))


def import_harness():
    sys.path.insert(0, SRC)
    from doalab import harness
    if not os.path.abspath(harness.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"doalab was imported from {harness.__file__}, "
                         f"not from {SRC}")
    return harness


def floats(text):
    return [float(x) for x in str(text).split(",") if x.strip()]


def round_seed(seed, r):
    """Config seed of round r: 48 bits, far apart for neighbouring seeds."""
    digest = hashlib.sha256(f"{seed}/{r}".encode()).digest()
    return int.from_bytes(digest[:6], "big")


class Bench:
    """Configs, operations and checks of one workload."""

    def __init__(self, workload, harness, out_dir):
        self.workload = workload
        self.harness = harness
        self.out_dir = out_dir
        self.configs = {
            exp: harness.load_config(exp, os.path.join(HERE, "configs", ini))
            for exp, ini in WORKLOADS[workload]}
        self.state = {}
        self.rho = {}

    def fill_caches(self):
        """Build the codebooks users pay for in every process (sweep only)."""
        if "loss-bits" not in self.configs:
            return
        quantize = importlib.import_module("doalab.quantize")
        for b in floats(self.configs["loss-bits"]["quant.bits"]):
            quantize.lloyd_max_codebook(int(b))

    def check_codebooks(self):
        """Lloyd-Max conditions of every built codebook, by quadrature."""
        import checks
        problems = []
        if "loss-bits" in self.configs:
            quantize = importlib.import_module("doalab.quantize")
            for b in floats(self.configs["loss-bits"]["quant.bits"]):
                levels, thresholds, rho = quantize.lloyd_max_codebook(int(b))
                problems += checks.check_codebook(int(b), levels, thresholds, rho)
                self.rho[int(b)] = checks.codebook_distortion(levels, thresholds)
        return problems

    def config(self, exp, seed):
        ini = dict(WORKLOADS[self.workload])[exp]
        return self.harness.load_config(exp, os.path.join(HERE, "configs", ini),
                                        seed=seed, out=self.out_dir)

    # -- operations: run(config) -> output; trials(config); check(config, output)

    def run(self, exp, cfg):
        h = self.harness
        if exp == "train-mlnn":
            model_path, report_path, _ = h.run_train_mlnn(cfg)
            self.state["model_path"] = model_path
            return report_path
        if exp == "roc":
            from doalab.mlnn import load_model
            self.state["model"] = load_model(self.state.pop("model_path"))
            return h.run_roc(cfg, self.state["model"])
        return {"rmse-snr": h.run_rmse_snr, "rmse-eta": h.run_rmse_eta,
                "loss-bits": h.run_loss_bits}[exp](cfg)[0]

    def trials(self, exp, cfg):
        import checks
        if exp == "train-mlnn":
            search = int(cfg["mlnn.search_size"])
            shape = [int(w) for w in cfg["mlnn.shapes"].split(",")]
            n_weights = checks.n_weights((int(cfg["array.n_total"]), *shape, 1))
            final = int(float(cfg["mlnn.final_ratio"]) * n_weights)
            # search set, validation set, stage-3 set, calibration H0 set
            return search + max(search // 2, 2000) + final + cfg.trials
        if exp == "roc":
            return 2 * cfg.trials
        if exp == "rmse-snr":
            return len(floats(cfg["scenario.snr_db_list"])) * cfg.trials
        if exp == "rmse-eta":
            return (len(floats(cfg["rmse.eta_grid"]))
                    * len(floats(cfg["rmse.eta_snr_db_list"])) * cfg.trials)
        return ((len(floats(cfg["quant.bits"])) + 1)
                * len(floats(cfg["quant.snr_db_list"]))
                * int(cfg["quant.empirical_trials"]))

    def check(self, exp, cfg, output):
        import checks
        common = dict(n_trials=cfg.trials, seed=cfg.seed)
        if exp == "train-mlnn":
            return checks.check_report(
                checks.read_csv(output), n_inputs=int(cfg["array.n_total"]),
                shape=tuple(int(w) for w in cfg["mlnn.shapes"].split(",")),
                final_ratio=float(cfg["mlnn.final_ratio"]), seed=cfg.seed)
        if exp == "roc":
            path, scores = output
            thresholds = {float(k): float(v) for k, v in
                          self.state["model"].metadata["thresholds"].items()}
            return checks.check_roc(
                checks.read_csv(path), scores, thresholds=thresholds,
                n_calibration=self.configs["train-mlnn"].trials, **common)
        rows = checks.read_csv(output)
        theta = float(cfg["scenario.theta_deg"])
        if exp == "rmse-snr":
            arr = cfg.array_config()
            return checks.check_rmse_snr(
                rows, n_total=arr.n_total, m_sub=arr.m_sub, n_fd=arr.n_fd,
                theta_deg=theta, snr_list=floats(cfg["scenario.snr_db_list"]),
                t_snap=int(cfg["scenario.t_snapshots"]), **common)
        if exp == "rmse-eta":
            return checks.check_rmse_eta(
                rows, n_total=int(cfg["array.n_total"]), m_sub=int(cfg["array.m_sub"]),
                eta_grid=floats(cfg["rmse.eta_grid"]),
                snr_list=floats(cfg["rmse.eta_snr_db_list"]), theta_deg=theta,
                t_snap=int(cfg["scenario.t_snapshots"]), **common)
        return checks.check_loss_bits(
            rows, bits_grid=[int(b) for b in floats(cfg["quant.bits"])],
            snr_list=floats(cfg["quant.snr_db_list"]),
            n_trials=int(cfg["quant.empirical_trials"]), seed=cfg.seed,
            rho_of=self.rho.__getitem__)

    def run_round(self, seed, tally):
        """Every operation once; returns the wall seconds spent inside them."""
        busy = 0.0
        for exp, _ in WORKLOADS[self.workload]:
            cfg = self.config(exp, seed)
            tally["attempted"] += 1
            t0 = time.perf_counter()
            try:
                output, error = self.run(exp, cfg), None
            except Exception:
                error = traceback.format_exc()
            busy += time.perf_counter() - t0
            if error is None:
                tally["trials"] += self.trials(exp, cfg)
                try:
                    problems = self.check(exp, cfg, output)
                except Exception:
                    problems = [traceback.format_exc()]
            else:
                problems = [error]
            if problems:
                tally["failed"] += 1
                tally["problems"] += [f"{exp} seed {seed}: {p}" for p in problems]
        self.state.clear()
        return busy


def peak_rss_mib():
    """Peak RSS of this process plus that of its largest finished child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    out_dir = os.path.join(OUT, args.workload)

    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    else:
        tracer = None
    harness = import_harness()
    if tracer:
        tracer.install()
    bench = Bench(args.workload, harness, out_dir)
    bench.fill_caches()
    ready = time.perf_counter()
    if tracer:
        tracer.uninstall()
    result = {"ready": ready}
    if not args.setup_only:
        tally = {"attempted": 0, "failed": 0, "trials": 0, "problems": []}
        setup_problems = bench.check_codebooks()
        if tracer:
            result.update(traced_rounds(bench, tracer, args.seed, tally))
        else:
            rounds = n_rounds(args.workload, args.seconds)
            busy = sum(bench.run_round(round_seed(args.seed, r), tally)
                       for r in range(rounds))
            result.update(busy_s=busy, rounds=rounds)
        result.update(tally, setup_problems=setup_problems,
                      peak_rss_mib=peak_rss_mib())
    with open(args.result, "w") as fh:
        json.dump(result, fh)


def traced_rounds(bench, tracer, seed, tally):
    """An untraced round, then the same round traced; spans go to trace.json."""
    trials0 = tally["trials"]
    untraced = bench.run_round(round_seed(seed, 0), tally)
    per_round = tally["trials"] - trials0
    tracer.install()
    try:
        traced = bench.run_round(round_seed(seed, 0), tally)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    rate, rate0 = per_round / traced, per_round / untraced
    metrics.update({"trace.trials_per_s": rate,
                    "trace.untraced_trials_per_s": rate0,
                    "trace.overhead_pct": 100.0 * (rate0 - rate) / rate0})
    os.makedirs(bench.out_dir, exist_ok=True)
    with open(os.path.join(bench.out_dir, "trace.json"), "w") as fh:
        json.dump({"spans": tracer.dump(), "counts": dict(tracer.counts)}, fh)
    return {"busy_s": untraced + traced, "rounds": 2, "per_layer": metrics}


if __name__ == "__main__":
    main()

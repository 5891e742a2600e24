"""Output checks computed apart from doalab.

Every check returns a list of problems; an empty list means the output
passed.  Reference values come from this file's own Fisher information,
quadrature and counting code, or from properties the method must have, never
from stored copies of earlier outputs.  Statistical tolerances are set so
that a correct program fails with probability around 1e-9 per check.
"""

import csv
import math

import numpy as np
from scipy import integrate, stats

DEG_PER_RAD = 180.0 / math.pi
TAIL = 1e-9  # per-check false-alarm probability of the statistical checks
# RMSE/sqrt(CRLB) the estimators must reach above 5 dB (acceptance criteria
# 4 and 5); the checks allow it plus the sampling spread of the trial count
EFFICIENCY_LIMIT = 1.5


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def chi_band(n):
    """Range of RMSE/sigma for n Gaussian errors, outside which p < TAIL."""
    return (math.sqrt(stats.chi2.ppf(TAIL, n) / n),
            math.sqrt(stats.chi2.ppf(1.0 - TAIL, n) / n))


def _close(a, b, rel=1e-8):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# --- Fisher information --------------------------------------------------

def _element_vectors(n, theta_deg, spacing):
    """Element steering vector and its theta-derivative."""
    theta = math.radians(theta_deg)
    p = np.arange(n)
    a = np.exp(2j * np.pi * spacing * p * math.sin(theta))
    return a, 2j * np.pi * spacing * p * math.cos(theta) * a


def _combined_vectors(k_sub, m_sub, steer_u, theta_deg, spacing):
    """Subarray channels after phase-shifter combining toward ``steer_u``."""
    a, da = _element_vectors(k_sub * m_sub, theta_deg, spacing)
    w = np.exp(2j * np.pi * spacing * steer_u * np.arange(m_sub)) / math.sqrt(m_sub)
    comb = np.kron(np.eye(k_sub), w.conj()[None, :])
    return comb @ a, comb @ da


def _fisher(a, da, t_snap, snr_db):
    """2 T snr Re(da^H P da), P the projector orthogonal to a (one gain)."""
    proj = np.eye(len(a)) - np.outer(a, a.conj()) / np.vdot(a, a).real
    return 2.0 * t_snap * 10.0 ** (snr_db / 10.0) * np.vdot(da, proj @ da).real


def bound_deg(parts, theta_deg, snr_db, t_snap, spacing=0.5):
    """sqrt(CRLB) in degrees for parts estimated apart, each with its own gain.

    ``parts`` lists ("fd", n) blocks and ("had", k_sub, m_sub, steer_u)
    blocks; their Fisher informations add.
    """
    j = 0.0
    for part in parts:
        if part[0] == "fd":
            a, da = _element_vectors(part[1], theta_deg, spacing)
        else:
            a, da = _combined_vectors(*part[1:], theta_deg, spacing)
        j += _fisher(a, da, t_snap, snr_db)
    return math.sqrt(1.0 / j) * DEG_PER_RAD


def fd_closed_form_deg(n, theta_deg, snr_db, t_snap, spacing=0.5):
    """Textbook ULA bound 6 / (T snr (2 pi d cos theta)^2 N (N^2 - 1))."""
    c = 2.0 * math.pi * spacing * math.cos(math.radians(theta_deg))
    crlb = 6.0 / (t_snap * 10.0 ** (snr_db / 10.0) * c * c * n * (n * n - 1))
    return math.sqrt(crlb) * DEG_PER_RAD


def two_layer_parts(n_total, m_sub, n_fd):
    k_sub = (n_total - n_fd) // m_sub
    parts = [("fd", n_fd)] if n_fd >= 2 else []
    if k_sub >= 2:
        parts.append(("had", k_sub, m_sub, 0.0))  # broadside analog beams
    return parts


def _rmse_floor(rows, bound_of, n_trials):
    """No RMSE may fall materially below the bound computed here."""
    lo, _ = chi_band(n_trials)
    return [f"rmse {float(r['rmse_deg']):.4g} deg is below {lo:.3f} x bound "
            f"{bound_of(r):.4g} deg at {dict(r)}"
            for r in rows if float(r["rmse_deg"]) < lo * bound_of(r)]


def _header(rows, n_trials, seed):
    return [f"row {dict(r)} does not carry trials={n_trials}, seed={seed}"
            for r in rows if int(r["trials"]) != n_trials or int(r["seed"]) != seed]


# --- estimate: rmse-snr --------------------------------------------------

def check_rmse_snr(rows, *, n_total, m_sub, n_fd, theta_deg, snr_list,
                   t_snap, n_trials, seed):
    problems = _header(rows, n_trials, seed)
    methods = ("had-root-music", "fhad-root-music", "tlhad")
    got = [(float(r["snr_db"]), r["method"]) for r in rows]
    want = [(s, m) for s in snr_list for m in methods]
    if got != want:
        return problems + [f"rows {got} != expected {want}"]
    k_had = (n_total - n_fd) // m_sub
    floor, ceiling = chi_band(n_trials)
    ceiling *= EFFICIENCY_LIMIT

    def had_bound(snr, steer_u):
        return bound_deg([("had", k_had, m_sub, steer_u)], theta_deg, snr, 1)

    def bound_of(r):
        snr = float(r["snr_db"])
        if r["method"] == "tlhad":
            return bound_deg(two_layer_parts(n_total, m_sub, n_fd),
                             theta_deg, snr, t_snap)
        # both HAD eliminators estimate from a broadside snapshot
        return had_bound(snr, 0.0)

    for r in rows:
        snr, col = float(r["snr_db"]), float(r["sqrt_crlb_deg"])
        if r["method"] == "tlhad":
            if not _close(col, bound_of(r)):
                problems.append(f"tlhad sqrt_crlb {col} != {bound_of(r)} at {snr} dB")
            ratio = float(r["rmse_deg"]) / col
            if snr >= 5.0 and not floor <= ratio <= ceiling:
                problems.append(f"tlhad rmse/sqrt_crlb {ratio:.3f} outside "
                                f"[{floor:.3f}, {ceiling:.3f}] at {snr} dB")
        else:
            # any steering gives a valid column between the matched-beam
            # and the broadside-beam bound
            matched = had_bound(snr, math.sin(math.radians(theta_deg)))
            if not matched * (1 - 1e-8) <= col <= had_bound(snr, 0.0) * (1 + 1e-8):
                problems.append(f"{r['method']} sqrt_crlb {col} outside "
                                f"[{matched}, {had_bound(snr, 0.0)}] at {snr} dB")
    return problems + _rmse_floor(rows, bound_of, n_trials)


# --- sweep: rmse-eta -----------------------------------------------------

def check_rmse_eta(rows, *, n_total, m_sub, eta_grid, snr_list, theta_deg,
                   t_snap, n_trials, seed):
    problems = _header(rows, n_trials, seed)
    points = [(e, s) for e in eta_grid for s in snr_list]
    if len(rows) != len(points):
        return problems + [f"{len(rows)} rows for {len(points)} (eta, snr) points"]
    ceiling = EFFICIENCY_LIMIT * chi_band(n_trials)[1]
    for r, (eta, snr) in zip(rows, points):
        n_fd = round(float(r["eta"]) * n_total)
        # the largest FD block within eta * N that leaves whole subarrays
        want = max(f for f in range(n_total + 1)
                   if f <= eta * n_total + 1e-9 and (n_total - f) % m_sub == 0)
        if n_fd != want or float(r["snr_db"]) != snr:
            problems.append(f"row {dict(r)} is not the eta={eta} (n_fd={want}), "
                            f"snr={snr} point")
            continue
        bound = bound_deg(two_layer_parts(n_total, m_sub, n_fd), theta_deg, snr, t_snap)
        col = float(r["sqrt_crlb_deg"])
        if not _close(col, bound):
            problems.append(f"sqrt_crlb {col} != {bound} at eta={eta}, {snr} dB")
        if n_fd == n_total and not _close(
                col, fd_closed_form_deg(n_total, theta_deg, snr, t_snap)):
            problems.append(f"FD column {col} misses the closed form at {snr} dB")
        ratio = float(r["rmse_deg"]) / col
        if snr >= 5.0 and eta >= 0.25 and ratio > ceiling:
            problems.append(f"rmse/sqrt_crlb {ratio:.3f} > {ceiling:.3f} at "
                            f"eta={eta}, {snr} dB")
    if problems:
        return problems
    return _rmse_floor(rows, lambda r: float(r["sqrt_crlb_deg"]), n_trials)


# --- sweep: loss-bits and the Lloyd-Max codebooks ------------------------

def _phi(x):
    return math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)


def _cells(thresholds):
    edges = [-math.inf, *map(float, thresholds), math.inf]
    return list(zip(edges[:-1], edges[1:]))


def codebook_distortion(levels, thresholds):
    """E[(x - q(x))^2] for unit Gaussian x, by quadrature."""
    return sum(integrate.quad(lambda x, c=c: (x - c) ** 2 * _phi(x), lo, hi,
                              epsabs=1e-13, epsrel=1e-11)[0]
               for c, (lo, hi) in zip(map(float, levels), _cells(thresholds)))


def check_codebook(bits, levels, thresholds, rho):
    """Lloyd-Max conditions: levels are cell centroids, thresholds midpoints."""
    problems = []
    levels = np.asarray(levels, float)
    if len(levels) != 1 << bits or len(thresholds) != len(levels) - 1:
        return [f"{bits}-bit codebook has {len(levels)} levels"]
    mid = (levels[:-1] + levels[1:]) / 2.0
    if np.max(np.abs(mid - thresholds)) > 1e-12:
        problems.append(f"{bits}-bit thresholds are not level midpoints")
    for c, (lo, hi) in zip(levels, _cells(thresholds)):
        mass = integrate.quad(_phi, lo, hi, epsabs=1e-14, epsrel=1e-12)[0]
        first = integrate.quad(lambda x: x * _phi(x), lo, hi,
                               epsabs=1e-14, epsrel=1e-12)[0]
        if abs(first / mass - c) > 1e-7 * max(1.0, abs(c)):
            problems.append(f"{bits}-bit level {c} is not its cell centroid "
                            f"{first / mass}")
            break
    d = codebook_distortion(levels, thresholds)
    if abs(d - rho) > 1e-8:
        problems.append(f"{bits}-bit distortion {rho} != quadrature {d}")
    if bits == 1 and abs(d - (1.0 - 2.0 / math.pi)) > 1e-9:
        problems.append(f"1-bit distortion {d} != 1 - 2/pi")
    return problems


def aqnm_loss_db(rho, snr_db):
    """AQNM SNR loss with alpha = 1 - rho."""
    alpha, snr = 1.0 - rho, 10.0 ** (snr_db / 10.0)
    return 10.0 * math.log10((alpha + (1.0 - alpha) * (1.0 + snr)) / alpha)


def check_loss_bits(rows, *, bits_grid, snr_list, n_trials, seed, rho_of):
    """``rho_of(bits)`` is the quadrature distortion of the program's codebook."""
    problems = _header(rows, n_trials, seed)
    want = [(str(b), s) for s in snr_list for b in [*bits_grid, "inf"]]
    got = [(r["bits"], float(r["snr_db"])) for r in rows]
    if got != want:
        return problems + [f"rows {got} != expected {want}"]
    # 1 dB at 500 trials (the acceptance suite's size), widened as the
    # standard error grows like 1/sqrt(trials)
    tol = math.sqrt(500.0 / n_trials)
    for snr in snr_list:
        pts = [r for r in rows if float(r["snr_db"]) == snr]
        formula = [float(r["loss_db_formula"]) for r in pts]
        if any(a <= b for a, b in zip(formula[:-1], formula[1:])):
            problems.append(f"formula loss not decreasing in bits at {snr} dB")
        for r in pts:
            f, e = float(r["loss_db_formula"]), float(r["loss_db_empirical"])
            if r["bits"] == "inf":
                if f != 0.0 or e != 0.0:
                    problems.append(f"unquantized row reads {f}, {e} dB")
                continue
            b = int(r["bits"])
            ref = aqnm_loss_db(rho_of(b), snr)
            if abs(f - ref) > 1e-7 * max(1.0, ref):
                problems.append(f"b={b} formula {f} dB != AQNM {ref} dB at {snr} dB")
            if b >= 2 and abs(e - f) > tol:
                problems.append(f"b={b} empirical {e:.3f} dB is more than "
                                f"{tol:.2f} dB from the formula {f:.3f} dB")
    return problems


# --- detect: train-mlnn and roc ------------------------------------------

def mann_whitney_auc(h0, h1):
    """P(h1 > h0) + P(h1 == h0) / 2 by counting."""
    h0 = np.sort(np.asarray(h0, float))
    h1 = np.asarray(h1, float)
    below = np.searchsorted(h0, h1, side="left")
    ties = np.searchsorted(h0, h1, side="right") - below
    return float((below.sum() + 0.5 * ties.sum()) / (len(h0) * len(h1)))


def n_weights(layer_sizes):
    """Weights and biases of a dense network with these layer widths."""
    return sum(a * b + b for a, b in zip(layer_sizes[:-1], layer_sizes[1:]))


def check_report(rows, *, n_inputs, shape, final_ratio, seed):
    problems = []
    final = [r for r in rows if r["stage"] == "3"]
    if len(final) != 1:
        return [f"report has {len(final)} stage-3 rows"]
    r = final[0]
    n_w = n_weights((n_inputs, *shape, 1))
    if r["shape"] != ",".join(map(str, shape)) or int(r["n_weights"]) != n_w:
        problems.append(f"stage 3 shape {r['shape']} with {r['n_weights']} weights, "
                        f"expected {shape} with {n_w}")
    if int(r["dataset_size"]) != int(final_ratio * n_w):
        problems.append(f"stage 3 dataset {r['dataset_size']} != "
                        f"{int(final_ratio * n_w)}")
    if not float(r["val_loss"]) < 0.25:
        problems.append(f"stage 3 validation loss {r['val_loss']} does not beat "
                        "the constant-0.5 predictor (0.25)")
    if any(int(x["seed"]) != seed for x in rows):
        problems.append("report rows carry another seed")
    return problems


def check_roc(rows, scores, *, n_trials, seed, thresholds, n_calibration):
    """ROC staircases, AUCs, MLNN score range and the stored FAP thresholds."""
    problems = _header(rows, n_trials, seed)
    for det in ("glrt", "r-maxev-minev", "mlnn"):
        h0, h1 = scores["h0"][det], scores["h1"][det]
        if len(h0) != n_trials or len(h1) != n_trials:
            problems.append(f"{det}: {len(h0)}/{len(h1)} scores for {n_trials} trials")
            continue
        pts = np.array([(float(r["fap"]), float(r["pd"]))
                        for r in rows if r["detector"] == det])
        if len(pts) < 2 or tuple(pts[0]) != (0.0, 0.0) or tuple(pts[-1]) != (1.0, 1.0):
            problems.append(f"{det}: ROC does not run from (0,0) to (1,1)")
            continue
        if np.any(np.diff(pts, axis=0) < 0):
            problems.append(f"{det}: ROC is not a monotone staircase")
        auc_csv = float(np.sum(np.diff(pts[:, 0]) * (pts[1:, 1] + pts[:-1, 1]) / 2))
        auc = mann_whitney_auc(h0, h1)
        if abs(auc_csv - auc) > 1e-7:
            problems.append(f"{det}: ROC area {auc_csv} != Mann-Whitney {auc}")
        if not auc > 0.5:
            problems.append(f"{det}: AUC {auc} does not beat 0.5")
    mlnn = np.concatenate([scores["h0"]["mlnn"], scores["h1"]["mlnn"]])
    if not np.all((mlnn >= 0.0) & (mlnn <= 1.0)):
        problems.append("MLNN scores leave [0, 1]")
    # a threshold calibrated on n_calibration H0 scores, applied to n_trials
    # independent ones; z keeps the two-sided tail near TAIL
    z = stats.norm.isf(TAIL / 2)
    for fap, tau in sorted(thresholds.items()):
        got = float(np.mean(scores["h0"]["mlnn"] > tau))
        half = z * math.sqrt(fap * (1 - fap) * (1 / n_trials + 1 / n_calibration))
        if abs(got - fap) > half + 1.0 / n_calibration:
            problems.append(f"threshold for FAP {fap} gives {got:.4f} on the "
                            f"ROC's H0 scores (allowed +-{half:.4f})")
    return problems

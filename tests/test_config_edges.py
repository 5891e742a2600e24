"""Every config either exits 2 before a trial stream opens, or exits 0 with
finite CSV values.

Settings are drawn from ``harness.SCHEMA``, key by key, by the parser of
each key: boundary values, empty lists, huge and tiny floats, NaN and
infinities, and array partitions that do not fit.  Each example runs the
CLI in-process on a small config, so trial counts and sizes are capped.
"""

import contextlib
import csv
import io
import math
import tempfile
import warnings
from functools import partial
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from doalab import harness
from doalab import rng as rng_module
from doalab.cli import main as cli_main
from doalab.mlnn import ACTIVATIONS

# a small run of each experiment; drawn settings override these
BASE = {
    "roc": {"run.trials": "100", "array.n_total": "4",
            "scenario.n_snapshots": "4", "mlnn.activations": "sigmoid",
            "mlnn.shapes": "2", "mlnn.search_size": "4", "mlnn.epochs": "1"},
    "train-mlnn": {"run.trials": "1000", "array.n_total": "4",
                   "scenario.n_snapshots": "4", "mlnn.activations": "sigmoid",
                   "mlnn.shapes": "2", "mlnn.search_size": "4",
                   "mlnn.epochs": "1"},
    "rmse-snr": {"run.trials": "100", "array.n_total": "24",
                 "scenario.snr_db_list": "0"},
    "rmse-eta": {"run.trials": "100", "array.n_total": "24",
                 "rmse.eta_grid": "0.5,1.0", "rmse.eta_snr_db_list": "0"},
    "loss-bits": {"quant.bits": "1,2", "quant.n_antennas": "4",
                  "quant.n_snapshots": "4", "quant.snr_db_list": "0",
                  "quant.empirical_trials": "20"},
}

# the range each integer key is drawn from: a count's lower bound and just
# under it, up to a size that keeps an example short; seeds past 2**64
INTEGERS = {
    "run.seed": (-2, 2 ** 64 + 1), "run.trials": (99, 101),
    "run.workers": (0, 2), "array.n_total": (1, 32), "array.m_sub": (0, 9),
    "scenario.n_snapshots": (0, 8), "scenario.t_snapshots": (0, 3),
    "quant.n_antennas": (1, 8), "quant.n_snapshots": (0, 8),
    "quant.empirical_trials": (0, 20), "mlnn.search_size": (1, 8),
    "mlnn.batch_size": (0, 3), "mlnn.epochs": (0, 2),
}

EDGE_FLOATS = (0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0, 5.0, 10.0, 30.0,
               89.99999999, 90.0, -90.0, harness.MAX_SNR_DB,
               -harness.MAX_SNR_DB, 300.0001, 1e300, -1e300, math.inf,
               -math.inf, math.nan)
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()).map(repr)
BIT_DEPTHS = st.integers(-1, harness.MAX_BITS + 1)
WIDTHS = st.lists(st.integers(0, 3).map(str), max_size=2).map(",".join)


def _joined(items, sep=","):
    return st.lists(items, max_size=3).map(sep.join)


def _text(key, setting):
    """A strategy for the text of ``key``, chosen by its parser."""
    parse = setting.parse
    if key in INTEGERS:
        return st.integers(*INTEGERS[key]).map(str)
    if parse is float:
        return FLOATS
    if parse is str:  # a choice among names
        return st.sampled_from([setting.default, "gaussian", "max-over-mean",
                                "nope"])
    if parse is harness._parse_shapes:
        return _joined(WIDTHS, "|")
    conv = parse.keywords["conv"] if isinstance(parse, partial) else float
    if conv is int:
        return _joined(BIT_DEPTHS.map(str))
    if conv is str:
        return _joined(st.sampled_from([*ACTIVATIONS, "swish"]))
    return _joined(FLOATS)


KEYS = {f"{sec}.{key}": _text(f"{sec}.{key}", setting)
        for sec, keys in harness.SCHEMA.items() for key, setting in keys.items()
        if f"{sec}.{key}" != "run.out"}

CASES = st.tuples(
    st.sampled_from(sorted(BASE)),
    st.lists(st.sampled_from(sorted(KEYS)), min_size=1, max_size=3,
             unique=True).flatmap(
        lambda keys: st.fixed_dictionaries({k: KEYS[k] for k in keys})))

# columns that hold names or a digest, not numbers
TEXT_COLUMNS = {"detector", "method", "digest", "stage", "activation", "shape"}


def _ini(values):
    sections = {}
    for name, text in values.items():
        sec, key = name.split(".")
        sections.setdefault(sec, []).append(f"{key} = {text}")
    return "".join(f"[{sec}]\n" + "\n".join(lines) + "\n"
                   for sec, lines in sections.items())


def _documented(column, text):
    # loss-bits labels its unquantized rows bits = inf, and a bound reads
    # inf where the Fisher information underflows, as at a spacing of
    # 1e-300 (README, configuration)
    return text == "inf" and column in ("bits", "sqrt_crlb_deg")


@settings(max_examples=30, deadline=None)
@given(CASES)
@example(("rmse-snr", {"scenario.snr_db_list": ""}))
@example(("rmse-eta", {"rmse.eta_grid": ""}))
@example(("rmse-eta", {"rmse.eta_snr_db_list": ""}))
@example(("loss-bits", {"quant.snr_db_list": ""}))
@example(("loss-bits", {"quant.bits": ""}))
@example(("rmse-snr", {"array.spacing": "1e-300"}))
@example(("rmse-eta", {"array.spacing": "1e-300"}))
@example(("rmse-snr", {"scenario.theta_deg": "30"}))
@example(("rmse-snr", {"scenario.signal_model": "gaussian"}))
@example(("roc", {"scenario.signal_model": "gaussian"}))
@example(("loss-bits", {"scenario.signal_model": "gaussian"}))
@example(("rmse-snr", {"scenario.snr_db_list": "-300,300"}))
@example(("rmse-eta", {"rmse.eta_snr_db_list": "-300,300"}))
@example(("loss-bits", {"quant.snr_db_list": "-300,300"}))
@example(("train-mlnn", {"scenario.snr_db": "300"}))
@example(("roc", {"scenario.snr_db": "-300"}))
def test_config_exits_2_or_writes_finite_curves(case):
    experiment, drawn = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "c.ini"
        cfg_path.write_text(_ini({**BASE[experiment], **drawn}))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with mock.patch.object(rng_module, "rekey", wraps=rng_module.rekey) as rekey, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), warnings.catch_warnings():
            # rmse-eta warns where an eta rounds down to a whole partition
            warnings.filterwarnings("ignore", "eta=.* rounded down")
            rc = cli_main([experiment, "--config", str(cfg_path),
                           "--out", str(out)])
        if rc == 2:
            assert "config error" in err.getvalue()
            assert not rekey.called, "a trial stream opened before exit 2"
            return
        if rc == 3:  # README: a training run that diverges exits 3
            assert experiment in ("roc", "train-mlnn")
            assert "training diverged" in err.getvalue()
            return
        assert rc == 0, err.getvalue()
        for path in out.glob("*.csv"):
            with open(path, newline="") as fh:
                for row in csv.DictReader(fh):
                    for column, text in row.items():
                        if column in TEXT_COLUMNS or text == "":
                            continue
                        assert (math.isfinite(float(text))
                                or _documented(column, text)), (path.name, row)

import ast
import importlib
import importlib.util
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import doalab
from doalab.arrays import ArrayConfig, EmitterScenario
from doalab.harness import load_config, run_loss_bits, run_rmse_snr
from doalab.rng import trial_rng

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(doalab.__path__))


def test_submodules_found():
    assert {"arrays", "harness", "quantize", "spectral"} <= set(SUBMODULES)


@pytest.mark.parametrize("name", SUBMODULES)
def test_import_as_gives_the_module(name):
    # ``import doalab.x as m`` reads the package attribute ``x``, which a
    # re-export of a same-named function would shadow
    scope = {}
    exec(f"import doalab.{name} as m", scope)
    assert isinstance(scope["m"], types.ModuleType)
    assert scope["m"] is importlib.import_module(f"doalab.{name}")


def _loaded_after(statement, names):
    """Those of ``names`` in ``sys.modules`` after ``statement`` runs in a
    fresh interpreter."""
    code = f"{statement}; import sys; print(*sorted(set({list(names)!r}) & set(sys.modules)))"
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          cwd=Path(doalab.__file__).parents[1]).stdout.split()


def test_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg takes tens of milliseconds to import; modules that need
    # it import it inside the functions that use it, so that the CLI, and
    # the benchmark that loads the same modules, start fast
    assert _loaded_after("import doalab.cli", ["scipy.linalg"]) == []


def test_import_loads_only_what_the_module_uses():
    # the package imports none of its modules, so the estimators load
    # neither the detector nor the scipy functions that it and the
    # quantizer use
    assert _loaded_after("import doalab.doa",
                         ["doalab.mlnn", "doalab.quantize", "scipy.special"]) == []


def test_package_attributes_are_modules():
    # names are imported from their modules, not from the package
    for name in SUBMODULES:
        importlib.import_module(f"doalab.{name}")
    public = [n for n in dir(doalab) if not n.startswith("_")]
    assert public and all(isinstance(getattr(doalab, n), types.ModuleType)
                          for n in public), public


SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced_functions():
    """(module, function) pairs the benchmark tracer wraps, read from the
    ``TRACED`` table of ``perfbench/spans.py`` without importing it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TRACED" for t in node.targets):
            return [(mod, fn) for mod, fn, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"no TRACED table in {SPANS}")


def test_traced_functions_exist():
    # a rename here would leave a traced benchmark run without its spans
    missing = [f"doalab.{mod}.{fn}" for mod, fn in _traced_functions()
               if not callable(getattr(importlib.import_module(f"doalab.{mod}"),
                                       fn, None))]
    assert not missing


def test_tracer_runs_experiments(tmp_path):
    # the tracer reads arguments and results of the functions it wraps (the
    # channel count of root_music's covariance, the snapshot array, the
    # estimates), so an interface change there breaks traced runs.  The
    # experiments run the stacked estimators, so the per-trial two-layer
    # estimator, and the scalar root_music under it, are called once
    # through the module attribute the tracer wrapped
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    cfg_path, bits_path = tmp_path / "c.ini", tmp_path / "bits.ini"
    cfg_path.write_text(
        "[run]\ntrials = 100\nworkers = 1\n[scenario]\nsnr_db_list = 10\n")
    # loss-bits reads no [run] trials
    bits_path.write_text(
        "[run]\nworkers = 1\n"
        "[quant]\nbits = 2\nn_antennas = 8\nn_snapshots = 20\n"
        "snr_db_list = 0\nempirical_trials = 10\n")
    tracer = spans.Tracer()
    tracer.install()
    try:
        run_rmse_snr(load_config("rmse-snr", str(cfg_path), out=str(tmp_path)))
        run_loss_bits(load_config("loss-bits", str(bits_path), out=str(tmp_path)))
        importlib.import_module("doalab.doa").tlhad_estimate(
            ArrayConfig(64, 4, 12, 16),
            EmitterScenario.single_emitter(15.0, 10.0, 1), trial_rng(0))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    for name in ("spectral.root_music.calls", "arrays.synthesize_snapshots.samples",
                 "doa.tlhad_estimate.calls"):
        assert metrics.get(name, 0) > 0, name

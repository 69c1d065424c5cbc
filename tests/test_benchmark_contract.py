"""The names the benchmark tracer patches must exist in rydsim.

`perfbench/tracer.py` wraps rydsim functions and properties by name; a
rename or deletion here would make every traced benchmark run fail, so it
fails this test instead.  A traced run also fails when a layer its
workload uses reads 0 (`perfbench/run.py`'s `USED_LAYERS`), for example
because a traced function was inlined into its caller; one short traced
round of each workload checks that here.
"""

import importlib
import importlib.util
import inspect
import io
import sys
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("perfbench_tracer", _PERFBENCH / "tracer.py")
# run.py imports its sibling modules (speed, checks) by plain name
sys.path.insert(0, str(_PERFBENCH))
try:
    bench = _load("perfbench_run", _PERFBENCH / "run.py")
finally:
    sys.path.remove(str(_PERFBENCH))


@pytest.mark.parametrize("module, attr", tracer.TARGETS)
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module, cls, prop", tracer.PROPERTIES)
def test_traced_property_is_a_property(module, cls, prop):
    owner = getattr(importlib.import_module(module), cls)
    assert isinstance(owner.__dict__[prop], property)


# names the tracer's work counters read from call arguments and results
@pytest.mark.parametrize("module, func, params", [
    ("rydsim.propagation", "transmission_batch",
     ("offsets", "gate_positions", "interaction", "params")),
    ("rydsim.detection", "poisson_mixture_pmf", ("mus", "k_max")),
])
def test_counted_parameters_exist(module, func, params):
    sig = inspect.signature(getattr(importlib.import_module(module), func))
    assert set(params) <= set(sig.parameters)


def test_counted_channel_bytes_are_readable(setup):
    # the tracer counts spinwave.channel_bytes as a photon_channel result's
    # transmit.nbytes + scatter.nbytes
    from rydsim.spinwave import stored_spinwave
    from test_spinwave import _path_channel

    grid = stored_spinwave(setup.geometry, n_points=11).grid
    ch = _path_channel(grid, setup.params, setup.interaction, [setup.resonance_field])
    assert ch.transmit.nbytes == 16 * 11
    assert ch.scatter.nbytes == 16 * 11 * 11


def test_graded_grid_gives_points_per_row():
    # the tracer counts chi_points as rows x _graded_grid(z_extent, [0.0]).shape[1]
    from rydsim import propagation

    sig = inspect.signature(propagation._graded_grid)
    assert list(sig.parameters) == ["z_extent", "gate_z"]
    row = propagation._graded_grid(120.0, [0.0])
    assert row.ndim == 2 and row.shape[0] == 1
    assert propagation._graded_grid(120.0, [0.0, 5.0, -30.0]).shape == (3, row.shape[1])


@pytest.mark.parametrize("workload", sorted(bench.USED_LAYERS))
def test_short_traced_round_reads_every_used_layer(workload, tmp_path, monkeypatch):
    from rydsim import config, runner

    monkeypatch.syspath_prepend(str(_PERFBENCH))  # fidelity_window reads checks
    calls = bench.workload_calls(workload, seed=1, short=True)
    assert calls[0][2].items() >= bench.SHORT[workload].items()
    t = tracer.Tracer()
    for label, scan, overrides in calls:
        cfg = config.load_config(
            None, scan, {**overrides, "output_dir": str(tmp_path / label)})
        t.install()
        try:
            runner.run_experiment(cfg, log=io.StringIO())
        finally:
            t.uninstall()
    metrics = t.layer_metrics()
    unread = [name for name in bench.USED_LAYERS[workload] if not metrics.get(name)]
    assert unread == []

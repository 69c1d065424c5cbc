"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Every workload runs once in short mode (small inputs); each output check
must pass on that real output and reject a deliberately corrupted copy.
"""

import csv
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import run as bench  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 1


def _bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--short"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def short_runs(tmp_path_factory):
    """Result line and output files (copied out of the checkout) of an
    untraced short-mode run of every workload."""
    runs = {}
    for workload in bench.WORKLOADS:
        proc = _bench(workload, trace=0)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        dest = tmp_path_factory.mktemp(workload)
        shutil.copytree(bench.OUT / workload, dest, dirs_exist_ok=True)
        runs[workload] = (result, dest)
    return runs


@pytest.fixture(scope="module")
def outputs(short_runs):
    return {workload: dest for workload, (_, dest) in short_runs.items()}


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _corrupt(src_dir, tmp_path, name, edit):
    """Copy of `src_dir` whose CSV `name` went through `edit(header, rows)`."""
    dest = tmp_path / "corrupt"
    shutil.copytree(src_dir, dest)
    header, *rows = _rows(dest / name)
    edit(header, rows)
    with open(dest / name, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    return dest


def _column(header, rows, name, fn):
    i = header.index(name)
    values = [float(r[i]) for r in rows]
    for r, v in zip(rows, fn(np.array(values))):
        r[i] = repr(float(v))


def _channels(system):
    return bench.channels_text(system)


# -- the command ------------------------------------------------------------

@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_short_run_reports_every_layer_metric(workload):
    proc = _bench(workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_traced_run_is_not_correct_when_a_used_layer_reads_zero(monkeypatch):
    """A layer the tracer lost reads 0; the run must not pass as correct."""
    monkeypatch.setitem(bench.USED_LAYERS, "fidelity",
                        bench.USED_LAYERS["fidelity"] + ("spinwave.channel_bytes",))
    result = bench.run("fidelity", SEED, 1.0, trace=True, short=True)
    assert result["metrics"]["spinwave.channel_bytes"]["value"] == 0
    assert result["correct"] is False


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_untraced_short_run_reports_end_to_end_metrics(short_runs, workload):
    result, _ = short_runs[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_speed_sampler_scales_wall_time_to_the_reference_speed():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = SpeedSampler().start()
    start = time.perf_counter()
    while time.perf_counter() - start < 0.5:
        sum(range(1000))
    mean_kernel, sampling = sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(sampler.samples) >= 5
    assert 0.0 < sampling < 0.5 and mean_kernel > 0.0
    # twice the kernel time at the same work means half the reference time
    assert speed.reference_time(2.2, 2e-3, 0.2) == pytest.approx(1.0)
    assert speed.reference_time(1.0, speed.REFERENCE_S, 0.0) == pytest.approx(1.0)


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark directory: no result, exit != 0."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("gain", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- gain ---------------------------------------------------------------------

def test_gain_checks_pass_on_real_output(outputs):
    assert checks.check_single_resonance_gain(
        outputs["gain"] / "50s48s", _channels("rb87_50s48s")) == []
    assert checks.check_multichannel_gain(
        outputs["gain"] / "66s64s", _channels("rb87_66s64s")) == []


def test_gain_rejects_shifted_peak(outputs, tmp_path):
    bad = _corrupt(outputs["gain"] / "50s48s", tmp_path, "gain_scan.csv",
                   lambda h, r: _column(h, r, "gain", lambda g: np.roll(g, 3)))
    problems = checks.check_single_resonance_gain(bad, _channels("rb87_50s48s"))
    assert any("gain peak at" in p for p in problems)


def test_gain_rejects_peak_outside_band(outputs, tmp_path):
    bad = _corrupt(outputs["gain"] / "50s48s", tmp_path, "gain_scan.csv",
                   lambda h, r: _column(h, r, "gain", lambda g: 1.3 * g))
    problems = checks.check_single_resonance_gain(bad, _channels("rb87_50s48s"))
    assert any("peak gain" in p for p in problems)


def test_gain_rejects_t1_above_t0(outputs, tmp_path):
    def edit(h, r):
        r[7][h.index("t1")] = repr(float(r[7][h.index("t0")]) + 1e-6)
    bad = _corrupt(outputs["gain"] / "50s48s", tmp_path, "gain_scan.csv", edit)
    problems = checks.check_single_resonance_gain(bad, _channels("rb87_50s48s"))
    assert any("t1 <= t0" in p for p in problems)


def test_multichannel_rejects_shifted_maxima(outputs, tmp_path):
    bad = _corrupt(outputs["gain"] / "66s64s", tmp_path, "gain_scan.csv",
                   lambda h, r: _column(h, r, "gain", lambda g: np.roll(g, 8)))
    assert checks.check_multichannel_gain(bad, _channels("rb87_66s64s"))


def test_multichannel_rejects_missing_maximum(outputs, tmp_path):
    def flatten(g):
        fields = np.linspace(0.0, 0.25, g.size)
        return np.where(fields > 0.19, g.min(), g)
    bad = _corrupt(outputs["gain"] / "66s64s", tmp_path, "gain_scan.csv",
                   lambda h, r: _column(h, r, "gain", flatten))
    assert checks.check_multichannel_gain(bad, _channels("rb87_66s64s"))


def test_strict_maxima_counts_a_plateau_once():
    assert checks.strict_maxima([0, 1, 3, 3, 3, 1, 2, 0]) == [3, 6]
    assert checks.strict_maxima([0, 1, 1]) == []


def test_closed_form_resonances_match_the_presets():
    assert checks.closed_form_resonances(_channels("rb87_50s48s")) == \
        pytest.approx([0.710], abs=5e-4)
    assert checks.closed_form_resonances(_channels("rb87_66s64s")) == \
        pytest.approx([0.080, 0.125, 0.170, 0.215], abs=1e-3)


# -- fidelity ---------------------------------------------------------------

def test_fidelity_check_passes_on_real_output(outputs):
    assert checks.check_fidelity(outputs["fidelity"] / "fidelity",
                                 _channels("rb87_50s48s")) == []


def test_fidelity_rejects_shifted_peak(outputs, tmp_path):
    def edit(h, r):
        fields = np.unique([float(x[0]) for x in r])
        shifted = {a: b for a, b in zip(fields, np.roll(fields, 2))}
        for x in r:
            x[0] = repr(float(shifted[float(x[0])]))
    bad = _corrupt(outputs["fidelity"] / "fidelity", tmp_path, "fidelity_scan.csv", edit)
    problems = checks.check_fidelity(bad, _channels("rb87_50s48s"))
    assert any("closed-form resonance" in p for p in problems)


def test_fidelity_rejects_value_off_target(outputs, tmp_path):
    bad = _corrupt(outputs["fidelity"] / "fidelity", tmp_path, "fidelity_scan.csv",
                   lambda h, r: _column(h, r, "fidelity", lambda f: f + 0.08))
    assert any("peak fidelity" in p
               for p in checks.check_fidelity(bad, _channels("rb87_50s48s")))


def test_fidelity_rejects_drop_with_rate(outputs, tmp_path):
    def edit(h, r):
        i_rate, i_fid = h.index("rate_per_us"), h.index("fidelity")
        top = max(float(x[i_rate]) for x in r)
        for x in r:
            if float(x[i_rate]) == top:
                x[i_fid] = repr(float(x[i_fid]) - 0.3)
    bad = _corrupt(outputs["fidelity"] / "fidelity", tmp_path, "fidelity_scan.csv", edit)
    assert any("falls" in p for p in checks.check_fidelity(bad, _channels("rb87_50s48s")))


def test_fidelity_rejects_non_finite(outputs, tmp_path):
    def edit(h, r):
        r[0][h.index("fidelity")] = "nan"
    bad = _corrupt(outputs["fidelity"] / "fidelity", tmp_path, "fidelity_scan.csv", edit)
    assert checks.check_fidelity(bad, _channels("rb87_50s48s"))


# -- retrieval --------------------------------------------------------------

RETRIEVAL_ARGS = (0.25, 4.2, 3.6)  # eta0, storage time, lifetime (defaults)


def test_retrieval_check_passes_on_real_output(outputs):
    assert checks.check_retrieval(outputs["retrieval"] / "retrieval",
                                  *RETRIEVAL_ARGS) == []


def test_retrieval_rejects_efficiency_above_storage_decay(outputs, tmp_path):
    def edit(h, r):
        i = h.index("efficiency")
        for x in r:
            if x[3] == "model" and float(x[0]) == 0.0:
                x[i] = repr(float(x[i]) * (1.0 + 1e-7))
    bad = _corrupt(outputs["retrieval"] / "retrieval", tmp_path, "retrieval.csv", edit)
    assert any("zero-source" in p for p in checks.check_retrieval(bad, *RETRIEVAL_ARGS))


def test_retrieval_rejects_rising_curve(outputs, tmp_path):
    def edit(h, r):
        model = [x for x in r if x[3] == "model"]
        model[5][2] = repr(float(model[4][2]) * 1.01)
    bad = _corrupt(outputs["retrieval"] / "retrieval", tmp_path, "retrieval.csv", edit)
    assert any("rises" in p for p in checks.check_retrieval(bad, *RETRIEVAL_ARGS))


# -- oracle -------------------------------------------------------------------

def test_oracle_checks_pass_on_real_output(outputs):
    out = outputs["gain"] / "oracle"
    assert checks.check_oracle_rows(out, bench.ORACLE_SETS) == []
    assert checks.check_oracle_agreement(out) == []


def test_oracle_rejects_difference_of_002(outputs, tmp_path):
    def edit(h, r):
        i_f, i_t = h.index("intensity_freq"), h.index("intensity_time")
        r[0][i_t] = repr(float(r[0][i_f]) - 0.02)
    bad = _corrupt(outputs["gain"] / "oracle", tmp_path, "oracle_check.csv", edit)
    assert checks.check_oracle_agreement(bad)


def test_oracle_rejects_missing_set(outputs, tmp_path):
    bad = _corrupt(outputs["gain"] / "oracle", tmp_path, "oracle_check.csv",
                   lambda h, r: r.pop())
    assert checks.check_oracle_rows(bad, bench.ORACLE_SETS)


# -- tracer -------------------------------------------------------------------

def test_tracer_patches_every_namespace_and_restores_them():
    from rydsim import ensemble, propagation, spinwave
    from rydsim.config import build_setup, load_config

    original = propagation.transmission_batch
    setup = build_setup(load_config(None, "gain-scan"))
    tracer = Tracer().install()
    try:
        assert ensemble.transmission_batch is not original
        assert spinwave.transmission_batch is ensemble.transmission_batch
        ensemble.field_scan(setup.pair, setup.geometry, setup.params,
                            setup.interaction, [0.70, 0.71], setup.stats,
                            n_samples=20, seed=SEED)
    finally:
        tracer.uninstall()
    assert ensemble.transmission_batch is original
    assert spinwave.transmission_batch is original
    m = tracer.layer_metrics()
    assert m["propagation.transmission_batch.calls"] == 2
    points = propagation._graded_grid(setup.params.z_extent, [0.0]).shape[1]
    assert m["propagation.transmission_batch.chi_points"] == 2 * 20 * points
    assert m["ensemble.sample_geometry.calls"] == 1
    assert 0.0 <= m["ensemble.field_scan.self_s"] <= m["ensemble.field_scan.s"]
    children = (m["propagation.transmission_batch.s"] + m["ensemble.sample_geometry.s"]
                + m["ensemble.boxcar_convolve.s"])
    assert m["ensemble.field_scan.self_s"] == pytest.approx(
        m["ensemble.field_scan.s"] - children)

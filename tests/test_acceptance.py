"""End-to-end acceptance gate.

Each test exercises one headline requirement of the simulation and prints a
single PASS/FAIL line (bypassing capture) so a full run reads as a short
scorecard.  Tolerances are pinned in the asserts.
"""

import csv
import filecmp
import json
import sys
import time

import numpy as np
import pytest
import scipy.linalg

from rydsim.config import build_setup, load_config
from rydsim.errors import NumericsError
from rydsim.interaction import InteractionParams, effective_c6
from rydsim.propagation import (
    PropagationParams,
    eit_baseline,
    transmission_freq,
)
from rydsim.runner import run_experiment
from rydsim.spinwave import (
    PhotonChannel,
    photon_channel,
    stored_spinwave,
    uhlmann_fidelity,
)
from rydsim.units import C_LIGHT, from_mhz

from test_interaction import _channel as _toy_channel
from test_propagation import _resonant_interaction


from conftest import ACCEPTANCE_LINES


def _report(criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def _run(scan, tmp_path_factory, label, **overrides):
    out = tmp_path_factory.mktemp(label)
    overrides["output_dir"] = str(out)
    cfg = load_config(None, scan, overrides)
    start = time.perf_counter()
    headline = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    return headline, out, elapsed


def _read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


def _single_peak_ok(headline):
    """Criterion 1's peak: one gain maximum, at 0.710 +- 0.005 V/cm."""
    return (abs(headline["peak_field_v_cm"] - 0.710) <= 0.005
            and headline["n_local_maxima"] == 1)


def _gain_magnitude_ok(headline):
    """Criterion 5's magnitude: peak gain 200 +- 15 %."""
    return abs(headline["peak_gain"] - 200.0) <= 0.15 * 200.0


def _multichannel_ok(headline, out):
    """Criterion 2 as (near, dips_ok): four maxima within 0.01 V/cm of
    0.080, 0.125, 0.170 and 0.215 V/cm, and every inter-peak dip below the
    zero-field gain."""
    fields = sorted(headline["local_maxima_fields_v_cm"])
    _, rows = _read_csv(out / "gain_scan.csv")
    f = np.array([float(r[0]) for r in rows])
    g = np.array([float(r[1]) for r in rows])
    zero_field_gain = g[np.argmin(np.abs(f))]
    expected = [0.080, 0.125, 0.170, 0.215]
    near = (len(fields) == 4 and
            all(abs(a - b) < 0.01 for a, b in zip(fields, expected)))
    dips_ok = True
    for lo, hi in zip(fields[:-1], fields[1:]):
        mask = (f > lo) & (f < hi)
        dips_ok = dips_ok and g[mask].min() < zero_field_gain
    return near, dips_ok


def _fidelity_ok(headline, out):
    """Criterion 6 as (value_ok, field_ok, monotone_ok): peak fidelity
    0.80 +- 0.05, at 0.710 +- 0.005 V/cm, and non-decreasing with source
    rate at that field within 0.01."""
    peak_field = headline["peak_fidelity_field_v_cm"]
    value_ok = abs(headline["peak_fidelity"] - 0.80) <= 0.05
    field_ok = abs(peak_field - 0.710) <= 0.005
    _, rows = _read_csv(out / "fidelity_scan.csv")
    at_peak = sorted(
        ((float(r[1]), float(r[2])) for r in rows
         if abs(float(r[0]) - peak_field) < 1e-9),
    )
    fids = [f for _, f in at_peak]
    monotone_ok = all(b >= a - 0.01 for a, b in zip(fids, fids[1:]))
    return value_ok, field_ok, monotone_ok


@pytest.fixture(scope="module")
def gain_run(tmp_path_factory):
    return _run("gain-scan", tmp_path_factory, "gain")


@pytest.fixture(scope="module")
def gain_run_repeat(tmp_path_factory):
    return _run("gain-scan", tmp_path_factory, "gain_repeat")


@pytest.fixture(scope="module")
def multichannel_run(tmp_path_factory):
    return _run("gain-scan", tmp_path_factory, "gain66",
                pair_system="rb87_66s64s")


@pytest.fixture(scope="module")
def fidelity_run(tmp_path_factory):
    return _run("fidelity-scan", tmp_path_factory, "fidelity")


@pytest.fixture(scope="module")
def retrieval_run(tmp_path_factory):
    return _run("retrieval", tmp_path_factory, "retrieval")


@pytest.fixture(scope="module")
def oracle_run(tmp_path_factory):
    return _run("oracle-check", tmp_path_factory, "oracle")


def test_criterion_1_single_resonance_peak(gain_run):
    """Default scan finds one gain peak at 0.710 +- 0.005 V/cm in < 120 s."""
    headline, _, elapsed = gain_run
    peak = headline["peak_field_v_cm"]
    n_max = headline["n_local_maxima"]
    ok = _single_peak_ok(headline) and elapsed < 120.0
    _report(1, ok,
            f"gain peak at {peak:.4f} V/cm ({n_max} local maximum), "
            f"{elapsed:.1f} s")


def test_criterion_2_multichannel_structure(multichannel_run):
    """66S/64S pair shows four maxima with dips below the zero-field gain."""
    headline, out, _ = multichannel_run
    fields = headline["local_maxima_fields_v_cm"]
    near, dips_ok = _multichannel_ok(headline, out)
    ok = near and dips_ok
    _report(2, ok,
            f"maxima at {[round(x, 3) for x in sorted(fields)]} V/cm, "
            f"inter-peak dips below zero-field gain: {dips_ok}")


def test_criterion_3_time_domain_oracle(oracle_run):
    """Frequency solver matches the time-domain oracle on 10 random sets."""
    headline, _, elapsed = oracle_run
    ok = (headline["n_sets"] == 10 and headline["max_abs_diff"] < 0.01
          and elapsed < 300.0)
    _report(3, ok,
            f"max |intensity difference| {headline['max_abs_diff']:.2e} "
            f"over {headline['n_sets']} sets, {elapsed:.1f} s")


def test_criterion_4_analytic_limits(setup):
    """Closed-form transparency, full blockade and perturbative V_ef limits."""
    # (a) uniform-density transparency window, 1e-6 relative
    params = PropagationParams(
        g=2.0e4, omega_rabi=from_mhz(5.0), gamma=from_mhz(3.0),
        gamma_s=from_mhz(0.1), cloud_half_length=20.0, profile="uniform",
    )
    expected = np.exp(-2.0 * params.g**2 * params.gamma_s * 40.0
                      / (C_LIGHT * params.omega_rabi**2))
    got = transmission_freq((0.0, 0.0), None, params, rtol=1e-9).intensity
    eit_ok = abs(got - expected) <= 1e-6 * expected

    # (b) full blockade reproduces two-level absorption within 1%
    blocked_params = PropagationParams(
        g=8.0e3, omega_rabi=from_mhz(5.0), gamma=from_mhz(3.0),
        gamma_s=0.0, cloud_half_length=5.0, profile="uniform", z_extent=5.0,
    )
    inter = _resonant_interaction(c3=1.0e6, gamma_p=from_mhz(0.05))
    blocked = transmission_freq(
        (0.0, 0.0), (0.0, 0.0, 0.0), blocked_params, inter
    ).intensity
    # resonant two-level optical depth 2 g^2 L_eff / (c gamma) on axis
    od_limit = np.exp(-2.0 * blocked_params.g**2 * blocked_params.effective_length
                      / (blocked_params.c * blocked_params.gamma))
    blockade_ok = abs(blocked - od_limit) <= 0.01 * od_limit

    # (c) far-detuned potential matches perturbation theory to 1e-3
    chans = [_toy_channel(200.0, 1.0, c3=50.0), _toy_channel(-350.0, 1.0, c3=80.0)]
    pert_params = InteractionParams(gamma_p=from_mhz(0.05), channels=chans)
    got_c6 = effective_c6(0.0, 0.0, pert_params)
    exp_c6 = sum(ch.coupling**2 / ch.defect_zero_field for ch in chans)
    vef_ok = abs(got_c6.real - exp_c6) <= 1e-3 * abs(exp_c6)

    ok = eit_ok and blockade_ok and vef_ok
    _report(4, ok,
            f"transparency window {'ok' if eit_ok else 'off'} (1e-6), "
            f"full blockade {'ok' if blockade_ok else 'off'} (1%), "
            f"perturbative potential {'ok' if vef_ok else 'off'} (1e-3)")


def test_criterion_5_gain_magnitude_and_linearity(gain_run, setup):
    """Resonant gain near 200, > 2x the zero-field gain, linear in rate."""
    headline, out, _ = gain_run
    peak_gain = headline["peak_gain"]
    magnitude_ok = _gain_magnitude_ok(headline)

    # zero-field comparison on the same geometry samples
    from rydsim.ensemble import field_scan
    (gain_zero,), _, _, _ = field_scan(setup.pair, setup.geometry, setup.params,
                                       setup.interaction, [0.0], setup.stats,
                                       n_samples=setup.config.samples,
                                       seed=setup.config.seed)
    ratio = peak_gain / gain_zero
    ratio_ok = ratio > 2.0

    # gain is exactly proportional to the source rate at fixed transmissions
    _, rows = _read_csv(out / "gain_scan.csv")
    best = max(rows, key=lambda r: float(r[1]))
    t0, t1 = float(best[3]), float(best[4])
    from rydsim.ensemble import PhotonStats, optical_gain
    import dataclasses
    rates = np.linspace(1.0, 140.0, 12)
    gains = np.array([
        optical_gain(t0, t1, dataclasses.replace(setup.stats, source_rate=r))
        for r in rates
    ])
    fit = np.polyfit(rates, gains, 1)
    r_sq = 1.0 - np.var(gains - np.polyval(fit, rates)) / np.var(gains)
    linear_ok = r_sq > 0.999 and abs(fit[1]) < 1e-6 * gains.max()

    ok = magnitude_ok and ratio_ok and linear_ok
    _report(5, ok,
            f"peak gain {peak_gain:.1f} (target 200 +- 15%), "
            f"resonance/zero-field ratio {ratio:.2f} (> 2), "
            f"linearity R^2 = {r_sq:.6f}")


def test_criterion_6_detection_fidelity(fidelity_run):
    """Peak readout fidelity 0.80 +- 0.05, co-located with the gain peak,
    and non-decreasing with source rate at the peak field."""
    headline, out, _ = fidelity_run
    value_ok, field_ok, monotone_ok = _fidelity_ok(headline, out)
    ok = value_ok and field_ok and monotone_ok
    _report(6, ok,
            f"peak fidelity {headline['peak_fidelity']:.3f} (target 0.80 +- "
            f"0.05) at {headline['peak_fidelity_field_v_cm']:.3f} V/cm, "
            f"monotone in rate: {monotone_ok}")


def test_criterion_7_retrieval_decay_and_collapse(retrieval_run, setup):
    """Retrieval decay: exact zero-source point, on/off-resonance curves
    collapsing against scattered-photon number, and reach beyond N_s = 2.7."""
    headline, out, _ = retrieval_run
    cfg = setup.config
    eta_expected = cfg.retrieval_eta0 * np.exp(
        -cfg.storage_time / cfg.intrinsic_lifetime)
    zero_ok = headline["zero_source_efficiency"] == pytest.approx(
        eta_expected, rel=1e-9)
    reach_ok = headline["max_n_scattered"] >= 2.7

    _, rows = _read_csv(out / "retrieval.csv")
    curves = {}
    for r in rows:
        curves.setdefault(r[3], []).append((float(r[1]), float(r[2])))
    res = np.array(sorted(curves["model"]))
    zero = np.array(sorted(curves["model_zero_field"]))
    eta_base = res[0, 1]
    hi = min(res[:, 0].max(), zero[:, 0].max())
    grid = np.linspace(0.0, hi, 200)
    gap = np.interp(grid, res[:, 0], res[:, 1]) - np.interp(
        grid, zero[:, 0], zero[:, 1])
    collapse = float(np.max(np.abs(gap))) / eta_base
    collapse_ok = collapse < 0.05

    ok = zero_ok and reach_ok and collapse_ok
    _report(7, ok,
            f"zero-source efficiency exact: {zero_ok}, curve collapse "
            f"max|gap|/eta_base = {collapse:.3f} (< 0.05), "
            f"max N_scattered = {headline['max_n_scattered']:.1f} (>= 2.7)")


def test_criterion_8_channel_math(setup, rng):
    """Kraus completeness to 1e-6 and the mixed-state overlap to 1e-8."""
    state = stored_spinwave(setup.geometry, n_points=151)
    ch = photon_channel(state.grid, setup.params, setup.interaction,
                        setup.resonance_field)
    total = np.abs(ch.transmit) ** 2 + np.sum(np.abs(ch.scatter) ** 2, axis=-2)
    kraus_err = float(np.max(np.abs(total - 1.0)))
    kraus_ok = kraus_err <= 1e-6

    worst = 0.0
    for dim in (2, 4, 8, 16):
        for _ in range(10):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            sigma = b @ b.conj().T
            sigma /= np.trace(sigma).real
            s = scipy.linalg.sqrtm(rho)
            ref = float(np.real(np.trace(scipy.linalg.sqrtm(s @ sigma @ s))) ** 2)
            worst = max(worst, abs(uhlmann_fidelity(rho, sigma) - ref))
    overlap_ok = worst <= 1e-8

    ok = kraus_ok and overlap_ok
    _report(8, ok,
            f"Kraus completeness error {kraus_err:.1e} (<= 1e-6), "
            f"overlap vs matrix-root oracle {worst:.1e} (<= 1e-8)")


def _identical_outputs(out_a, out_b):
    """The output file names of two runs, and whether they match byte for byte."""
    names = sorted(p.name for p in out_a.iterdir())
    same_names = names == sorted(p.name for p in out_b.iterdir())
    return names, same_names and all(
        filecmp.cmp(out_a / n, out_b / n, shallow=False) for n in names
    )


def test_criterion_9_deterministic_outputs(gain_run, gain_run_repeat,
                                           tmp_path_factory):
    """Equal seeds give byte-identical summary and CSV outputs, for the gain
    scan and for a short retrieval run."""
    names, gain_same = _identical_outputs(gain_run[1], gain_run_repeat[1])
    short = dict(spinwave_points=61, retrieval_offsets=3)
    retrieval = [_run("retrieval", tmp_path_factory, f"retrieval_short_{k}", **short)[1]
                 for k in range(2)]
    retrieval_names, retrieval_same = _identical_outputs(*retrieval)
    identical = gain_same and retrieval_same
    _report(9, identical,
            f"outputs {names} and {retrieval_names} byte-identical across "
            f"equal-seed runs: {identical}")


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("pair_system", ["rb87_50s48s", "rb87_66s64s"])
def test_gain_criteria_hold_on_every_seed(tmp_path, pair_system, seed):
    """Criteria 1 and 5 (50S/48S) and 2 (66S/64S) at default settings on
    seeds 0-9, not only on the default seed."""
    cfg = load_config(None, "gain-scan", {"pair_system": pair_system,
                                          "seed": seed,
                                          "output_dir": str(tmp_path)})
    headline = run_experiment(cfg)
    if pair_system == "rb87_50s48s":
        assert _single_peak_ok(headline), headline
        assert _gain_magnitude_ok(headline), headline
    else:
        assert _multichannel_ok(headline, tmp_path) == (True, True), headline


@pytest.mark.parametrize("seed", range(10))
def test_fidelity_criterion_holds_on_every_seed(tmp_path, seed):
    """Criterion 6 on seeds 0-9, on the 5-field window 0.706-0.714 V/cm
    about the resonance, not only on the default seed."""
    cfg = load_config(None, "fidelity-scan", {
        "seed": seed,
        "field_grid": [0.706, 0.708, 0.710, 0.712, 0.714],
        "output_dir": str(tmp_path),
    })
    headline = run_experiment(cfg)
    assert _fidelity_ok(headline, tmp_path) == (True, True, True), headline


@pytest.mark.parametrize("seed", range(10))
def test_oracle_criterion_holds_on_every_seed(tmp_path, seed):
    """Criterion 3 on seeds 0-9: the time-domain oracle's steady state
    agrees with the frequency solver on 10 random sets within 0.01."""
    cfg = load_config(None, "oracle-check", {"seed": seed,
                                             "output_dir": str(tmp_path)})
    headline = run_experiment(cfg)
    assert headline["n_sets"] == 10, headline
    assert headline["max_abs_diff"] < 0.01, headline

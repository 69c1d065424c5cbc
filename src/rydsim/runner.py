"""Experiment orchestration: scan dispatch and result persistence.

Every scan writes one RFC-4180-style CSV plus a JSON summary holding the
config echo, a content hash of the inputs, the seed and the headline
numbers.  Outputs are byte-reproducible for identical config, seed and
thread count; wall-clock timing therefore goes to the log stream, never
into the output files.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import detection, ensemble, spinwave
from .atomic_states import (
    PairChannel,
    RydbergLevel,
    defect_table,
    resonance_fields,
)
from .config import SCHEMA_VERSION, RunConfig, SimulationSetup, build_setup
from .errors import NumericsError
from .interaction import InteractionParams, blockade_radius, effective_c6
from .propagation import (
    PropagationParams,
    transmission_freq,
    transmission_time_oracle,
)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_summary(path: Path, config: RunConfig, headline: dict) -> None:
    summary = {
        "schema_version": SCHEMA_VERSION,
        "scan": config.scan,
        "seed": config.seed,
        "input_hash": config.content_hash(),
        "config": config.echo(),
        "headline": headline,
    }
    path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _field_grid(setup: SimulationSetup) -> np.ndarray:
    grid = np.asarray(setup.config.field_grid, dtype=float)
    if grid.size == 0:
        grid = setup.default_field_grid()
    return grid


def run_starkmap(setup: SimulationSetup, out_dir: Path) -> dict:
    fields = _field_grid(setup)
    table = defect_table(setup.pair, fields)
    rows = [[f, i, table[k, i]] for k, f in enumerate(fields)
            for i in range(table.shape[1])]
    _write_csv(out_dir / "starkmap.csv", ["field_v_cm", "channel", "defect_mhz"], rows)
    roots = resonance_fields(setup.pair, field_max=float(fields.max()) or 1.0)
    return {
        "resonance_fields_v_cm": [r[0] for r in roots],
        "resonance_channels": [r[1] for r in roots],
    }


def run_gain_scan(setup: SimulationSetup, out_dir: Path) -> dict:
    fields = _field_grid(setup)
    gain, gain_err, t0, t1 = ensemble.field_scan(
        setup.pair, setup.geometry, setup.params, setup.interaction,
        fields, setup.stats, n_samples=setup.config.samples,
        seed=setup.config.seed,
    )
    table = np.column_stack([fields, gain, gain_err, np.full_like(fields, t0), t1])
    bad = np.flatnonzero(~np.isfinite(table[:, 1:]).all(axis=1))
    if bad.size:
        raise NumericsError(
            f"{bad.size} non-finite gain points, first at field "
            f"{fields[bad[0]]:.6g} V/cm"
        )
    _write_csv(out_dir / "gain_scan.csv",
               ["field_v_cm", "gain", "gain_err", "t0", "t1"], table.tolist())
    peak = int(np.argmax(gain))
    maxima = ensemble.local_maxima(gain)
    limit = ensemble.nondestructive_limit(
        setup.stats, t0, float(t1[peak]), rate_ceiling=setup.config.rate_ceiling,
    )
    return {
        "peak_gain": float(gain[peak]),
        "peak_field_v_cm": float(fields[peak]),
        "n_local_maxima": len(maxima),
        "local_maxima_fields_v_cm": fields[maxima].tolist(),
        "nondestructive_rate_limit": float(limit),
    }


def run_fidelity_scan(setup: SimulationSetup, out_dir: Path) -> dict:
    fields = _field_grid(setup)
    rates = np.asarray(setup.config.rate_grid, dtype=float)
    fidelity, threshold = detection.fidelity_scan(
        setup.pair, setup.geometry, setup.params, setup.interaction,
        fields, rates, setup.stats, n_samples=setup.config.samples,
        seed=setup.config.seed,
    )
    bad = np.argwhere(~np.isfinite(fidelity))
    if bad.size:
        kr, kf = bad[0]
        raise NumericsError(
            f"{len(bad)} non-finite fidelities, first at field "
            f"{fields[kf]:.6g} V/cm, rate {rates[kr]:.6g} /us"
        )
    rows = zip(np.tile(fields, rates.size).tolist(), np.repeat(rates, fields.size).tolist(),
               fidelity.ravel().tolist(), threshold.ravel().tolist())
    _write_csv(out_dir / "fidelity_scan.csv",
               ["field_v_cm", "rate_per_us", "fidelity", "threshold"], rows)
    kr, kf = np.unravel_index(np.argmax(fidelity), fidelity.shape)
    return {
        "peak_fidelity": float(fidelity[kr, kf]),
        "peak_fidelity_field_v_cm": float(fields[kf]),
        "peak_fidelity_rate": float(rates[kr]),
    }


def run_retrieval(setup: SimulationSetup, out_dir: Path) -> dict:
    cfg = setup.config
    field = cfg.retrieval_field
    if field < 0:
        field = setup.resonance_field
    state = spinwave.stored_spinwave(setup.geometry, n_points=cfg.spinwave_points)
    params = setup.params
    means = np.asarray(cfg.source_means, dtype=float)
    eta_base = cfg.retrieval_eta0 * math.exp(-cfg.storage_time / cfg.intrinsic_lifetime)
    # both fields' channels are built together, and each gate group is
    # reduced to its Poisson overlap row as soon as it is built
    overlap, p_scatter = spinwave.transverse_channels(
        state, setup.geometry, params, setup.interaction, np.array([field, 0.0]),
        n_offsets=cfg.retrieval_offsets, seed=cfg.seed, source_means=means,
    )
    ns, eff = spinwave.retrieval_efficiency_curve(overlap[0], p_scatter[0], means, eta_base)
    ns_zero, eff_zero = spinwave.retrieval_efficiency_curve(
        overlap[1], p_scatter[1], means, eta_base)
    # zero-field van der Waals coefficient of the kept channels
    c6_ref = abs(effective_c6(
        0.0, 0.0, dataclasses.replace(setup.interaction, gamma_p=0.0)))
    r_b = blockade_radius(
        max(c6_ref, 1e-12), setup.params.gamma, setup.params.omega_rabi,
    )
    frac = spinwave.blockade_beam_fraction(r_b, setup.geometry.beam_waist)
    model_p_scatter = float(p_scatter[0].mean())
    limits = spinwave.limit_curves(means, model_p_scatter, eta_base, frac)
    # the two model curves one after the other, then the limit curves
    # interleaved by source mean
    m = means.size
    mean_col = np.concatenate([means, means, np.repeat(means, len(limits))])
    ns_col = np.concatenate([ns, ns_zero, np.repeat(means * model_p_scatter, len(limits))])
    eff_col = np.concatenate([eff, eff_zero, np.column_stack(list(limits.values())).ravel()])
    variants = ["model"] * m + ["model_zero_field"] * m + list(limits) * m
    bad = np.flatnonzero(~(np.isfinite(ns_col) & np.isfinite(eff_col)))
    if bad.size:
        raise NumericsError(
            f"{bad.size} non-finite retrieval points, first at source mean "
            f"{mean_col[bad[0]]:.6g}, variant {variants[bad[0]]}"
        )
    _write_csv(out_dir / "retrieval.csv",
               ["n_in_mean", "n_scattered_mean", "efficiency", "model_variant"],
               zip(mean_col.tolist(), ns_col.tolist(), eff_col.tolist(), variants))
    # retrieval at one scattered photon, interpolated on the model curve;
    # null, not NaN, when the curve never reaches one scattered photon:
    # a bare NaN is not valid JSON
    at_one = float(np.interp(1.0, ns, eff)) if ns.max() >= 1.0 else None
    return {
        "field_v_cm": float(field),
        "zero_source_efficiency": float(eff[0]) if means[0] == 0 else None,
        "max_n_scattered": float(ns.max()),
        "retrieval_at_one_scattered": at_one,
    }


def _oracle_parameter_sets(setup: SimulationSetup, rng: np.random.Generator):
    """Randomized slow-light parameter sets inside the validity regime."""
    sets = []
    for _ in range(setup.config.oracle_sets):
        gamma = rng.uniform(4.0, 8.0)
        omega_rabi = gamma * rng.uniform(1.2, 2.2)
        floor = 0.01 * min(omega_rabi, gamma)
        gamma_s = floor * 10 ** rng.uniform(-1.0, 0.0)
        gamma_p = floor * 10 ** rng.uniform(-1.0, 0.0)
        half_len = rng.uniform(12.0, 20.0)
        od = rng.uniform(1.5, 4.0)
        c = 300.0
        g = math.sqrt(od * c * gamma / (2.0 * 2.0 * half_len))
        r_b = rng.uniform(2.5, 4.5)
        defect = rng.uniform(-25.0, 25.0)
        c3 = math.sqrt(r_b**6 * omega_rabi**2 / gamma * abs(defect - 1j * gamma_p))
        gate_z = rng.uniform(-0.4, 0.4) * half_len
        params = PropagationParams(
            g=g, omega_rabi=omega_rabi, gamma=gamma, gamma_s=gamma_s,
            omega=0.0, c=c, cloud_half_length=half_len, profile="uniform",
            z_extent=half_len + 6.0,
        )
        level = RydbergLevel(n=50, l="P", j=0.5, m_j=0.5)
        channel = PairChannel(
            gate_state=level, source_state=level,
            defect_zero_field=defect, diff_polarizability=0.0,
            zeeman_shift=0.0, c3=c3, weight=1.0,
        )
        inter = InteractionParams(gamma_p=gamma_p, channels=(channel,))
        sets.append((params, inter, gate_z))
    return sets


def run_oracle_check(setup: SimulationSetup, out_dir: Path) -> dict:
    rng = np.random.default_rng(setup.config.seed)
    sets = _oracle_parameter_sets(setup, rng)
    time_results = transmission_time_oracle(sets)
    rows = []
    max_diff = 0.0
    for idx, ((params, inter, gate_z), time_result) in enumerate(zip(sets, time_results)):
        i_freq = transmission_freq(
            (0.0, 0.0), (0.0, 0.0, gate_z), params, inter, field=0.0
        ).intensity
        i_time = time_result.intensity
        diff = abs(i_freq - i_time)
        max_diff = max(max_diff, diff)
        rows.append([idx, i_freq, i_time, diff])
    _write_csv(out_dir / "oracle_check.csv",
               ["set", "intensity_freq", "intensity_time", "abs_diff"], rows)
    return {"max_abs_diff": float(max_diff), "n_sets": len(rows)}


_RUNNERS = {
    "starkmap": run_starkmap,
    "gain-scan": run_gain_scan,
    "fidelity-scan": run_fidelity_scan,
    "retrieval": run_retrieval,
    "oracle-check": run_oracle_check,
}


def run_experiment(config: RunConfig, log=sys.stderr) -> dict:
    """Dispatch a scan, write its CSV + JSON summary, return the headline."""
    setup = build_setup(config)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    headline = _RUNNERS[config.scan](setup, out_dir)
    elapsed = time.perf_counter() - start
    _write_summary(out_dir / "summary.json", config, headline)
    print(f"{config.scan}: finished in {elapsed:.1f} s -> {out_dir}", file=log)
    return headline

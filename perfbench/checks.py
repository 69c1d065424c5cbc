"""Output checks for the benchmark workloads.

Every check reads the files a scan wrote and compares them with a value
computed here, apart from rydsim (closed-form resonance fields from the
`.channels` data file, the storage-decay formula), or with a property
the method must have (passivity, monotonicity, bounded probabilities).
Nothing is compared with a stored copy of an earlier output.

Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

# acceptance criterion 5: peak gain 200 +- 15 %
GAIN_BAND = (170.0, 230.0)
GAIN_FLOOR = 100.0
# acceptance criterion 6: peak fidelity 0.80 +- 0.05, monotone within 0.01
FIDELITY_TARGET = 0.80
FIDELITY_TOL = 0.05
RATE_DROP_TOL = 0.01
# acceptance criterion 2: each multi-channel maximum within 0.01 V/cm
MAXIMA_TOL = 0.01
# acceptance criterion 7
ZERO_SOURCE_RTOL = 1e-9
COLLAPSE_TOL = 0.05
# acceptance criterion 3
ORACLE_TOL = 0.01


def read_csv(path: Path) -> dict:
    """Columns of a scan CSV by header name (numeric where possible)."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    cols = {}
    for i, name in enumerate(header):
        values = [r[i] for r in rows]
        try:
            cols[name] = np.array([float(v) for v in values])
        except ValueError:
            cols[name] = values
    return cols


def closed_form_resonances(channels_text: str) -> list:
    """Zero crossings sqrt((d0 + zeeman) / alpha) of every channel, sorted.

    Parsed straight from the data file: the quadratic defect
    d0 - alpha * F^2 + zeeman vanishes at that field.  The MHz-to-angular
    conversion cancels in the ratio.
    """
    blocks = []
    for raw in channels_text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line == "[channel]":
            blocks.append({})
        elif blocks and "=" in line:
            key, value = (p.strip() for p in line.split("=", 1))
            blocks[-1][key] = value
    fields = []
    for b in blocks:
        num = float(b["defect_zero_field_mhz"]) + float(b.get("zeeman_shift_mhz", 0.0))
        alpha = float(b["diff_polarizability_mhz"])
        if alpha != 0.0 and num / alpha >= 0.0:
            fields.append(math.sqrt(num / alpha))
    return sorted(fields)


def strict_maxima(values) -> list:
    """Indices of interior local maxima; a flat top counts once, at its middle."""
    v = np.asarray(values, dtype=float)
    out = []
    i = 1
    while i < v.size - 1:
        j = i
        while j + 1 < v.size and v[j + 1] == v[i]:
            j += 1
        if v[i - 1] < v[i] and j + 1 < v.size and v[j + 1] < v[i]:
            out.append((i + j) // 2)
        i = j + 1
    return out


def _field_step(fields: np.ndarray) -> float:
    return float(np.median(np.diff(fields)))


def check_transmissions(cols: dict) -> list:
    t0, t1 = cols["t0"], cols["t1"]
    bad = ~((t1 >= 0.0) & (t1 <= t0) & (t0 <= 1.0))
    if bad.any():
        k = int(np.argmax(bad))
        return [f"row {k}: need 0 <= t1 <= t0 <= 1, got t0={t0[k]!r} t1={t1[k]!r}"]
    return []


def check_single_resonance_gain(out_dir: Path, channels_text: str,
                                band=GAIN_BAND) -> list:
    """50S/48S scan: peak at the closed-form resonance, gain in the band."""
    cols = read_csv(Path(out_dir) / "gain_scan.csv")
    fields, gain = cols["field_v_cm"], cols["gain"]
    problems = check_transmissions(cols)
    (res,) = closed_form_resonances(channels_text)
    k = int(np.argmax(gain))
    step = _field_step(fields)
    if abs(fields[k] - res) > step * (1.0 + 1e-9):
        problems.append(f"gain peak at {fields[k]:.6f} V/cm, closed-form "
                        f"resonance {res:.6f} V/cm, field step {step:.4g}")
    peak = float(gain[k])
    if not (peak > GAIN_FLOOR and band[0] <= peak <= band[1]):
        problems.append(f"peak gain {peak:.2f} not above {GAIN_FLOOR} "
                        f"inside {band}")
    return problems


def check_multichannel_gain(out_dir: Path, channels_text: str) -> list:
    """66S/64S scan: exactly one maximum at each closed-form resonance."""
    cols = read_csv(Path(out_dir) / "gain_scan.csv")
    fields, gain = cols["field_v_cm"], cols["gain"]
    problems = check_transmissions(cols)
    expected = [f for f in closed_form_resonances(channels_text)
                if fields[0] <= f <= fields[-1]]
    found = [float(fields[i]) for i in strict_maxima(gain)]
    if len(found) != len(expected) or any(
        abs(a - b) > MAXIMA_TOL for a, b in zip(found, expected)
    ):
        problems.append(f"maxima at {[round(f, 4) for f in found]} V/cm, "
                        f"closed-form resonances {[round(f, 4) for f in expected]}")
    return problems


def check_fidelity(out_dir: Path, channels_text: str) -> list:
    """Peak 0.80 +- 0.05 at the resonance, not falling with rate there."""
    cols = read_csv(Path(out_dir) / "fidelity_scan.csv")
    fields, rates, fid = cols["field_v_cm"], cols["rate_per_us"], cols["fidelity"]
    problems = []
    if not np.all(np.isfinite(fid) & (fid >= 0.0) & (fid <= 1.0)):
        problems.append("fidelity outside [0, 1] or not finite")
        return problems
    (res,) = closed_form_resonances(channels_text)
    k = int(np.argmax(fid))
    if abs(fid[k] - FIDELITY_TARGET) > FIDELITY_TOL:
        problems.append(f"peak fidelity {fid[k]:.4f}, want "
                        f"{FIDELITY_TARGET} +- {FIDELITY_TOL}")
    step = _field_step(np.unique(fields))
    if abs(fields[k] - res) > step * (1.0 + 1e-9):
        problems.append(f"peak fidelity at {fields[k]:.6f} V/cm, closed-form "
                        f"resonance {res:.6f} V/cm")
    at_peak = fields == fields[k]
    order = np.argsort(rates[at_peak])
    f_by_rate = fid[at_peak][order]
    drops = f_by_rate[:-1] - f_by_rate[1:]
    if drops.size and drops.max() > RATE_DROP_TOL:
        problems.append(f"fidelity falls by {drops.max():.4f} with rate at "
                        f"{fields[k]:.6f} V/cm")
    return problems


def retrieval_curves(out_dir: Path) -> dict:
    cols = read_csv(Path(out_dir) / "retrieval.csv")
    curves = {}
    for n_in, n_s, eff, variant in zip(cols["n_in_mean"], cols["n_scattered_mean"],
                                       cols["efficiency"], cols["model_variant"]):
        curves.setdefault(variant, []).append((n_in, n_s, eff))
    return {k: np.array(sorted(v)) for k, v in curves.items()}


def check_retrieval(out_dir: Path, eta0: float, storage_time: float,
                    lifetime: float) -> list:
    """Exact zero-source point and a model curve that never rises."""
    curves = retrieval_curves(out_dir)
    model = curves["model"]
    problems = []
    eta_base = eta0 * math.exp(-storage_time / lifetime)
    zero = model[model[:, 0] == 0.0]
    if zero.shape[0] != 1 or abs(zero[0, 2] - eta_base) > ZERO_SOURCE_RTOL * eta_base:
        got = zero[:, 2].tolist()
        problems.append(f"zero-source efficiency {got}, want "
                        f"eta0*exp(-t/tau) = {eta_base!r}")
    if np.any(np.diff(model[:, 2]) > 0.0):
        problems.append("model efficiency rises with source mean")
    return problems


def retrieval_collapse(out_dir: Path) -> float:
    """max |gap| / eta_base between the on-resonance and zero-field curves
    plotted against scattered-photon number (acceptance criterion 7)."""
    curves = retrieval_curves(out_dir)
    res, zero = curves["model"], curves["model_zero_field"]
    hi = min(res[:, 1].max(), zero[:, 1].max())
    grid = np.linspace(0.0, hi, 200)
    gap = np.interp(grid, res[:, 1], res[:, 2]) - np.interp(grid, zero[:, 1], zero[:, 2])
    return float(np.max(np.abs(gap)) / res[0, 2])


def oracle_max_diff(out_dir: Path) -> float:
    cols = read_csv(Path(out_dir) / "oracle_check.csv")
    return float(np.max(np.abs(cols["intensity_freq"] - cols["intensity_time"])))


def check_oracle_rows(out_dir: Path, n_sets: int) -> list:
    """One row per configured set, both intensities finite in [0, 1]."""
    cols = read_csv(Path(out_dir) / "oracle_check.csv")
    problems = []
    if cols["set"].size != n_sets:
        problems.append(f"{cols['set'].size} oracle rows, configured {n_sets}")
    for name in ("intensity_freq", "intensity_time"):
        v = cols[name]
        if not np.all(np.isfinite(v) & (v >= 0.0) & (v <= 1.0)):
            problems.append(f"{name} outside [0, 1] or not finite")
    return problems


def check_oracle_agreement(out_dir: Path) -> list:
    diff = oracle_max_diff(out_dir)
    if not diff < ORACLE_TOL:
        return [f"max |I_freq - I_time| = {diff:.4g}, not below {ORACLE_TOL}"]
    return []

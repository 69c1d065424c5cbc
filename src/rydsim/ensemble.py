"""Beam- and cloud-averaged observables: transmission, optical gain,
electric-field scans and the non-destructive operating window.

Source photons travel on axis-parallel lines sampled from the Gaussian
beam intensity profile at focus; the stored gate excitation is sampled
from atomic density times gate-beam intensity.  Gain follows

    G = (N_out_no_gate - N_out_with_gate) / N_gate_in

with Poissonian gate statistics folded in through the probability that
at least one excitation was stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .atomic_states import PairConfig
from .interaction import InteractionParams
from .propagation import PropagationParams, eit_baseline, transmission_batch

# Half-width (V/cm) of the boxcar modelling the experimental field resolution.
_FIELD_RESOLUTION = 2.0e-3

# Largest tolerated end-of-pulse transmission drop in the non-destructive regime.
_DROP_LIMIT = 0.1


@dataclass(frozen=True)
class ExperimentGeometry:
    """Beam and cloud geometry (lengths in um)."""

    beam_waist: float
    cloud_half_length: float
    cloud_radius: float
    atom_number: float

    def __post_init__(self):
        for name in ("beam_waist", "cloud_half_length", "cloud_radius", "atom_number"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")

    @property
    def peak_density(self) -> float:
        """Peak atomic density (um^-3) of the Gaussian cloud."""
        return self.atom_number / (
            math.pi**1.5 * self.cloud_half_length * self.cloud_radius**2
        )

    @property
    def gate_transverse_sigma(self) -> float:
        """Std dev per axis of the stored-gate transverse distribution."""
        return math.sqrt(0.5 / (1.0 / self.cloud_radius**2 + 2.0 / self.beam_waist**2))

    @property
    def gate_longitudinal_sigma(self) -> float:
        return self.cloud_half_length / math.sqrt(2.0)


@dataclass(frozen=True)
class PhotonStats:
    """Photon input/output statistics and phenomenological dephasing."""

    gate_mean_in: float
    source_rate: float
    pulse_length: float
    storage_efficiency: float
    detector_efficiency: float
    dephasing_per_photon: float

    def __post_init__(self):
        for name in ("storage_efficiency", "detector_efficiency"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        for name in ("gate_mean_in", "source_rate", "pulse_length", "dephasing_per_photon"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def p_excitation(self) -> float:
        """P(at least one stored excitation) for Poissonian gate input."""
        return 1.0 - math.exp(-self.gate_mean_in * self.storage_efficiency)


@dataclass(frozen=True)
class GeometrySamples:
    """Monte Carlo draws shared across a field scan (common random numbers)."""

    offsets: np.ndarray      # (n, 2) source-line transverse offsets
    gates: np.ndarray        # (n, 3) stored-gate positions
    density_scales: np.ndarray  # (n,) transverse density factor per line


def sample_geometry(
    geometry: ExperimentGeometry, n_samples: int, rng: np.random.Generator
) -> GeometrySamples:
    """Draw source-line offsets and gate positions for averaging."""
    sigma_b = geometry.beam_waist / 2.0
    offsets = rng.normal(0.0, sigma_b, size=(n_samples, 2))
    sg = geometry.gate_transverse_sigma
    gates = np.column_stack(
        [
            rng.normal(0.0, sg, size=n_samples),
            rng.normal(0.0, sg, size=n_samples),
            rng.normal(0.0, geometry.gate_longitudinal_sigma, size=n_samples),
        ]
    )
    scales = np.exp(-np.sum(offsets**2, axis=1) / geometry.cloud_radius**2)
    return GeometrySamples(offsets=offsets, gates=gates, density_scales=scales)


def sample_intensities(
    geometry: ExperimentGeometry,
    params: PropagationParams,
    interaction: InteractionParams,
    field: float | np.ndarray,
    n_samples: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample intensities `(i0, table)` of one seeded geometry draw:
    gate-free `i0` (n,) in closed form, and the gated `table`, (n,) for a
    scalar field or (n_fields, n) for a field grid, in one call.

    The table is min(|t|^2, 1) of the `transmission_batch` amplitudes,
    written over the front half of each row of their buffer: a view with
    rows 2n floats apart, so a scan holds one fields x samples table."""
    samples = sample_geometry(geometry, n_samples, np.random.default_rng(seed))
    i0 = eit_baseline(params, samples.density_scales).intensity
    amps = transmission_batch(samples.offsets, samples.gates, params, interaction,
                              field, density_scale=samples.density_scales)
    rows = amps.reshape(-1, amps.shape[-1])
    table = rows.view(float)[:, : rows.shape[1]]
    # |t| goes through a separate row buffer: numpy evaluates an abs whose
    # output overlaps its input in a scalar loop that can differ from its
    # vector loop in the last bit
    row = np.empty(rows.shape[1])
    for amp, out in zip(rows, table):
        out[...] = np.abs(amp, out=row)
    np.square(table, out=table)
    np.minimum(table, 1.0, out=table)
    return i0, table.reshape(amps.shape)


def optical_gain(t0: float, t1: float, stats: PhotonStats) -> float:
    """Mean source photons removed per incident gate photon."""
    if t0 < t1:
        raise ValueError("optical gain requires T0 >= T1")
    if stats.gate_mean_in == 0:
        return 0.0
    n_pulse = stats.source_rate * stats.pulse_length
    return n_pulse * stats.p_excitation * (t0 - t1) / stats.gate_mean_in


def boxcar_convolve(
    fields: np.ndarray,
    values: np.ndarray,
    half_width: float = _FIELD_RESOLUTION,
) -> np.ndarray:
    """Average `values` over a boxcar of +-half_width in field (edge-truncated)."""
    fields = np.asarray(fields, dtype=float)
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    for i, f in enumerate(fields):
        mask = np.abs(fields - f) <= half_width + 1e-12
        out[i] = values[mask].mean()
    return out


def field_scan(
    config: PairConfig,
    geometry: ExperimentGeometry,
    params: PropagationParams,
    interaction: InteractionParams,
    fields: Sequence[float],
    stats: PhotonStats,
    n_samples: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """Gain versus electric field, convolved with the field-resolution boxcar.

    Returns `(gain, gain_err, t0, t1)`: per field, the smoothed gain, the
    standard error of the unsmoothed gain and the gated transmission t1,
    with the scan's one gate-free transmission t0.  One geometry sample
    set is drawn up front and reused at every field (common random
    numbers), so the scan is smooth in the field and bit-reproducible for
    a fixed seed.  The transport geometry is built once per scan: one
    `transmission_batch` call gives the whole (fields x samples)
    intensity table.
    """
    fields = np.asarray(fields, dtype=float)
    if np.any(np.diff(fields) < 0):
        raise ValueError("field grid must be sorted ascending")
    i0, table = sample_intensities(geometry, params, interaction, fields,
                                   n_samples, seed)
    t0 = float(np.mean(i0))
    gain = np.empty(fields.size)
    gain_err = np.empty(fields.size)
    t1 = np.empty(fields.size)
    for k, i1 in enumerate(table):
        t1[k] = np.mean(i1)
        gain[k] = optical_gain(t0, min(t1[k], t0), stats)
        diff_err = np.std(i0 - i1, ddof=1) / math.sqrt(i0.size)
        gain_err[k] = optical_gain(t0, t0 - diff_err, stats) if diff_err < t0 else 0.0
    return boxcar_convolve(fields, gain), gain_err, t0, t1


def local_maxima(values: Sequence[float]) -> list:
    """Indices of interior local maxima; a flat plateau counts once."""
    v = np.asarray(values, dtype=float)
    idx = []
    i = 1
    while i < v.size - 1:
        if v[i] > v[i - 1]:
            j = i
            while j < v.size - 1 and v[j + 1] == v[i]:
                j += 1
            if j < v.size - 1 and v[j + 1] < v[i]:
                idx.append((i + j) // 2)
            i = j + 1
        else:
            i += 1
    return idx


def nondestructive_limit(
    stats: PhotonStats,
    t0: float,
    t1: float,
    rate_ceiling: float,
) -> float:
    """Largest source rate keeping the end-of-pulse transmission drop < 10%.

    Stationary excitations accumulate as p_deph * R * T * (1 - T0); each
    suppresses transmission by the same factor T1/T0 as a gate excitation.
    A fully blocking excitation (T1 = 0) allows none: the limit is 0.
    """
    p = stats.dephasing_per_photon
    if p == 0.0 or t1 >= t0 or t0 >= 1.0:
        return rate_ceiling
    if t1 == 0.0:
        return 0.0
    n_max = math.log(1.0 - _DROP_LIMIT) / math.log(t1 / t0)
    rate = n_max / (p * stats.pulse_length * (1.0 - t0))
    return min(rate, rate_ceiling)

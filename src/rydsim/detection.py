"""Single-shot detection of a stored Rydberg excitation from source
photon counts.

Per shot the detected source counts are Poissonian; a gate pulse
produces a mixture of shots with and without a stored excitation.  The
histogram taken with gate pulses is separated into its two components
using the known storage statistics, and a count threshold classifies
each shot.  The detection fidelity is the worst-case probability of a
correct call, maximized over the threshold.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.special import gammaln

from .atomic_states import PairConfig
from .ensemble import (
    ExperimentGeometry,
    PhotonStats,
    _intensities_baseline,
    _intensities_with_gate,
    boxcar_convolve,
    sample_geometry,
)
from .interaction import InteractionParams
from .propagation import PropagationParams


@dataclass(frozen=True)
class CountModel:
    """Detected-count means with and without a stored excitation."""

    mean_no_excitation: float
    mean_with_excitation: float
    p_excitation: float

    def __post_init__(self):
        if not (self.mean_no_excitation >= self.mean_with_excitation >= 0.0):
            raise ValueError("need mu0 >= mu1 >= 0")
        if not 0.0 <= self.p_excitation <= 1.0:
            raise ValueError("p_excitation must lie in [0, 1]")


def count_histograms(
    model: CountModel, shots: int, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Sampled count histograms (gate pulse, no gate pulse) of equal length."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    no_gate = rng.poisson(model.mean_no_excitation, size=shots)
    present = rng.random(shots) < model.p_excitation
    mus = np.where(present, model.mean_with_excitation, model.mean_no_excitation)
    gate = rng.poisson(mus)
    n_bins = int(max(gate.max(), no_gate.max())) + 1
    return (
        np.bincount(gate, minlength=n_bins).astype(float),
        np.bincount(no_gate, minlength=n_bins).astype(float),
    )


def separate_histograms(
    hist_gate_pulse: np.ndarray, p_excitation: float, mu0: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Split the gate-pulse histogram into excitation-present/absent parts.

    The absent component is the known Poisson(mu0) shape scaled to the
    expected no-excitation fraction; the present component is the bin-wise
    remainder, clipped at zero and renormalized.
    """
    if not 0.0 < p_excitation < 1.0:
        raise ValueError("p_excitation must lie strictly inside (0, 1)")
    hist = np.asarray(hist_gate_pulse, dtype=float)
    total = hist.sum()
    absent = (1.0 - p_excitation) * total * _poisson_pmf_rows(
        [mu0], hist.size - 1
    )[0]
    present = np.clip(hist - absent, 0.0, None)
    expected = p_excitation * total
    mass = present.sum()
    # clipping can only add mass on top of the exact remainder p * total,
    # so a large overshoot means the assumed absent component (mu0 or the
    # excitation fraction) does not describe the data
    if mass > 2.0 * expected:
        warnings.warn(
            f"separated component mass {mass:.3g} exceeds twice the expected "
            f"{expected:.3g}; count model probably mismatched",
            stacklevel=2,
        )
    if mass > 0:
        present *= expected / mass
    return present, absent


def detection_fidelity(
    hist_present: np.ndarray,
    hist_absent: np.ndarray,
    prior_present: Optional[float] = None,
) -> Tuple[float, int]:
    """Best threshold and its fidelity.

    Counts below the threshold are called "excitation present".  By
    default the fidelity is the worst case over the two hypotheses,
    max_tau min(P(count < tau | present), P(count >= tau | absent));
    passing `prior_present` switches to the prior-weighted accuracy.
    Ties resolve to the smallest threshold.
    """
    p = np.asarray(hist_present, dtype=float)
    q = np.asarray(hist_absent, dtype=float)
    if p.sum() <= 0 or q.sum() <= 0:
        raise ValueError("histograms must be non-empty")
    n = max(p.size, q.size)
    p = np.pad(p, (0, n - p.size)) / p.sum()
    q = np.pad(q, (0, n - q.size)) / q.sum()
    # cdf_p[t] = P(count < t | present) for thresholds t = 0..n
    cdf_p = np.concatenate([[0.0], np.cumsum(p)])
    tail_q = np.concatenate([[1.0], 1.0 - np.cumsum(q)])
    if prior_present is None:
        score = np.minimum(cdf_p, tail_q)
    else:
        score = prior_present * cdf_p + (1.0 - prior_present) * tail_q
    tau = int(np.argmax(score))
    return float(score[tau]), tau


def _poisson_pmf_rows(mus, k_max: int) -> np.ndarray:
    """Poisson(k; mu_s) for counts k = 0..k_max, one row per mean.

    Exact log-space evaluation, exp(k log mu - gammaln(k + 1) - mu), in
    one (len(mus), k_max + 1) buffer.  Column 0 is set to -mu before the
    exponential, so mu = 0 gives the exact delta at k = 0 instead of the
    0 * log 0 = NaN of the product.
    """
    mus = np.asarray(mus, dtype=float)
    k = np.arange(k_max + 1, dtype=float)
    buf = np.empty((mus.size, k.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(np.log(mus)[:, None], k, out=buf)
    buf -= gammaln(k + 1.0)
    buf -= mus[:, None]
    buf[:, :1] = -mus[:, None]
    return np.exp(buf, out=buf)


def poisson_mixture_pmf(mus: np.ndarray, k_max: int) -> np.ndarray:
    """PMF of a uniform mixture of Poisson distributions over counts 0..k_max."""
    return _poisson_pmf_rows(mus, k_max).mean(axis=0)


@dataclass(frozen=True)
class FidelityPoint:
    field: float
    rate: float
    fidelity: float
    threshold: int


def fidelity_scan(
    config: PairConfig,
    geometry: ExperimentGeometry,
    params: PropagationParams,
    interaction: InteractionParams,
    fields: Sequence[float],
    rates: Sequence[float],
    stats: PhotonStats,
    n_samples: int = 2000,
    seed: int = 0,
    resolution_half_width: float = 2.0e-3,
) -> list:
    """Detection fidelity over a (field, rate) grid.

    The per-shot count distributions are position-resolved Poisson
    mixtures built from the Monte Carlo transmission samples: the spread
    of blockade strength over gate positions, not shot noise alone,
    limits the fidelity.  Each mixture is exact over the count window
    0..k_max, k_max = ceil(mu_max + 8 sqrt(mu_max + 1)) for the largest
    absent-gate mean: every sample's Poisson pmf is evaluated in log space
    and averaged, with no per-sample truncation.  Fidelity is convolved
    with the same boxcar field-resolution kernel as the gain.  The
    transport geometry is built once per scan (one `transmission_batch`
    call for all fields), and the absent-excitation mixture once per rate.
    """
    fields = np.asarray(fields, dtype=float)
    rates = np.asarray(rates, dtype=float)
    rng = np.random.default_rng(seed)
    samples = sample_geometry(geometry, n_samples, rng)
    i0 = _intensities_baseline(samples, params)
    eta = stats.detector_efficiency
    results = []
    fid_grid = np.empty((rates.size, fields.size))
    thr_grid = np.empty((rates.size, fields.size), dtype=int)
    table = _intensities_with_gate(samples, params, interaction, fields)
    for kr, rate in enumerate(rates):
        scale = eta * rate * stats.pulse_length
        mu0s = scale * i0
        k_max = int(np.ceil(mu0s.max() + 8.0 * math.sqrt(mu0s.max() + 1.0)))
        pmf_absent = poisson_mixture_pmf(mu0s, k_max)
        for kf, i1 in enumerate(table):
            pmf_present = poisson_mixture_pmf(scale * i1, k_max)
            f, tau = detection_fidelity(pmf_present, pmf_absent)
            fid_grid[kr, kf] = f
            thr_grid[kr, kf] = tau
    for kr, rate in enumerate(rates):
        smooth = boxcar_convolve(fields, fid_grid[kr], resolution_half_width)
        for kf, field in enumerate(fields):
            results.append(
                FidelityPoint(
                    field=float(field),
                    rate=float(rate),
                    fidelity=float(smooth[kf]),
                    threshold=int(thr_grid[kr, kf]),
                )
            )
    return results

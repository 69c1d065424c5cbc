"""Single-shot detection of a stored Rydberg excitation from source
photon counts.

Per shot the detected source counts are Poissonian with a mean set by
the transmission of the sampled source path, with or without a stored
excitation.  The count distributions of the two cases are exact Poisson
mixtures over the geometry samples, and a count threshold classifies
each shot.  The detection fidelity is the worst-case probability of a
correct call, maximized over the threshold.

`poisson_mixture_pmf` imports `scipy.special.gammaln` on first call, so
importing this module loads numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .atomic_states import PairConfig
from .ensemble import (
    ExperimentGeometry,
    PhotonStats,
    boxcar_convolve,
    sample_intensities,
)
from .errors import NumericsError
from .interaction import InteractionParams
from .propagation import PropagationParams


def detection_fidelity(
    hist_present: np.ndarray, hist_absent: np.ndarray
) -> Tuple[float, int]:
    """Best threshold and its fidelity.

    Counts below the threshold are called "excitation present".  The
    fidelity is the worst case over the two hypotheses,
    max_tau min(P(count < tau | present), P(count >= tau | absent)).
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
    score = np.minimum(cdf_p, tail_q)
    tau = int(np.argmax(score))
    return float(score[tau]), tau


def count_window(mu_max):
    """Largest count k_max of the exact mixture window for means <= mu_max.

    Eight standard deviations above the largest mean, as a float, so an
    infinite or NaN mean stays visible to the caller.
    """
    return np.ceil(mu_max + 8.0 * np.sqrt(mu_max + 1.0))


def poisson_mixture_pmf(mus: np.ndarray, k_max: int) -> np.ndarray:
    """PMF of a uniform mixture of Poisson distributions over counts 0..k_max.

    Each component Poisson(k; mu_s) is evaluated exactly in log space,
    exp(k log mu - gammaln(k + 1) - mu), in one (len(mus), k_max + 1)
    buffer, then averaged over the rows.  Column 0 is set to -mu before
    the exponential, so mu = 0 gives the exact delta at k = 0 instead of
    the 0 * log 0 = NaN of the product.
    """
    from scipy.special import gammaln

    mus = np.asarray(mus, dtype=float)
    k = np.arange(k_max + 1, dtype=float)
    buf = np.empty((mus.size, k.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(np.log(mus)[:, None], k, out=buf)
    buf -= gammaln(k + 1.0)
    buf -= mus[:, None]
    buf[:, :1] = -mus[:, None]
    return np.exp(buf, out=buf).mean(axis=0)


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
    n_samples: int,
    seed: int,
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
    i0, table = sample_intensities(geometry, params, interaction, fields,
                                   n_samples, seed)
    eta = stats.detector_efficiency
    results = []
    fid_grid = np.empty((rates.size, fields.size))
    thr_grid = np.empty((rates.size, fields.size), dtype=int)
    for kr, rate in enumerate(rates):
        scale = eta * rate * stats.pulse_length
        mu0s = scale * i0
        k_max = count_window(mu0s.max())
        if not np.isfinite(k_max):
            raise NumericsError(
                f"non-finite gate-free count mean at rate {rate:g} /us"
            )
        k_max = int(k_max)
        pmf_absent = poisson_mixture_pmf(mu0s, k_max)
        for kf, i1 in enumerate(table):
            pmf_present = poisson_mixture_pmf(scale * i1, k_max)
            f, tau = detection_fidelity(pmf_present, pmf_absent)
            fid_grid[kr, kf] = f
            thr_grid[kr, kf] = tau
    for kr, rate in enumerate(rates):
        smooth = boxcar_convolve(fields, fid_grid[kr])
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

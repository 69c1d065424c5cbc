"""Single-shot detection of a stored Rydberg excitation from source
photon counts.

Per shot the detected source counts are Poissonian with a mean set by
the transmission of the sampled source path, with or without a stored
excitation.  The count distributions of the two cases are exact Poisson
mixtures over the geometry samples, and a count threshold classifies
each shot.  The detection fidelity is the worst-case probability of a
correct call, maximized over the threshold.

`poisson_mixture_pmf` evaluates the mixture in blocks of rows with a
log-factorial table that equals `scipy.special.gammaln(k + 1)` bit for
bit, so this module needs numpy alone.
"""

from __future__ import annotations

import math
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


# Cephes `lgam`, which scipy.special.gammaln evaluates: log(sqrt(2 pi)) and
# the Stirling-series coefficients of 1/x^2 for 13 <= x < 1000, highest
# power first
_LS2PI = 0.91893853320467274178
_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)

# log k! for k = 0..size-1, grown on demand and shared by every call
_log_factorial_table = np.zeros(0)

# Rows of the mixture evaluated at once; about this many bytes of float64
_BLOCK_BYTES = 2**20


def _lgam(x: float) -> float:
    """log Gamma(x) at an integer x >= 1, as Cephes `lgam` rounds it.

    Each entry uses `math.log`: numpy's vectorized log differs from libm in
    the last bit at a few points.
    """
    if x < 13.0:
        return math.log(math.factorial(int(x) - 1))
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p
                     - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    poly = 0.0
    for c in _STIRLING:
        poly = poly * p + c
    return q + poly / x


def _log_factorials(size: int) -> np.ndarray:
    """Read-only log k! for k = 0..size-1, bit for bit gammaln(k + 1)."""
    global _log_factorial_table
    have = _log_factorial_table.size
    if size > have:
        grown = np.concatenate([
            _log_factorial_table,
            np.fromiter((_lgam(k + 1.0) for k in range(have, size)),
                        dtype=float, count=size - have),
        ])
        grown.flags.writeable = False
        _log_factorial_table = grown
    return _log_factorial_table[:size]


def poisson_mixture_pmf(mus: np.ndarray, k_max: int) -> np.ndarray:
    """PMF of a uniform mixture of Poisson distributions over counts 0..k_max.

    Each component Poisson(k; mu_s) is evaluated exactly in log space,
    exp(k log mu - log k! - mu), then averaged over the rows.  Column 0 is
    set to -mu before the exponential, so mu = 0 gives the exact delta at
    k = 0 instead of the 0 * log 0 = NaN of the product.

    The rows go in blocks of about `_BLOCK_BYTES`, each with the running
    column sum as its row 0, so the one sum over rows adds them in the
    order a single (len(mus), k_max + 1) buffer would: the result is that
    buffer's mean bit for bit.  A one-column sum over rows is pairwise
    rather than row by row, so k_max = 0 is not split.
    """
    mus = np.asarray(mus, dtype=float)
    n_k = k_max + 1
    log_fact = _log_factorials(n_k)
    k = np.arange(n_k, dtype=float)
    rows = mus.size if n_k == 1 else max(1, _BLOCK_BYTES // (8 * n_k))
    buf = np.empty((min(rows, mus.size) + 1, n_k))
    total = None
    for start in range(0, mus.size, rows):
        mu = mus[start:start + rows]
        terms = buf[1:mu.size + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.multiply(np.log(mu)[:, None], k, out=terms)
        terms -= log_fact
        terms -= mu[:, None]
        terms[:, :1] = -mu[:, None]
        np.exp(terms, out=terms)
        if total is None:
            total = terms.sum(axis=0)
        else:
            buf[0] = total
            total = buf[:mu.size + 1].sum(axis=0)
    return total / mus.size


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
) -> Tuple[np.ndarray, np.ndarray]:
    """Detection fidelity over a (field, rate) grid.

    Returns `(fidelity, threshold)`, each of shape (rates, fields): the
    smoothed fidelity and the best count threshold of each grid point.

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
    fidelity = np.empty((rates.size, fields.size))
    threshold = np.empty((rates.size, fields.size), dtype=int)
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
            fidelity[kr, kf], threshold[kr, kf] = detection_fidelity(
                pmf_present, pmf_absent)
        fidelity[kr] = boxcar_convolve(fields, fidelity[kr])
    return fidelity, threshold

"""Decoherence of the stored gate spin-wave by source photons.

The stored excitation is a pure superposition over positions with
amplitude proportional to sqrt(n(z)).  One source photon acts as a
quantum channel that is diagonal in the gate position: a transmitted
photon imprints the position-dependent transmission amplitude t(z_g),
while a scattered photon projects according to where it scattered.  The
recoverable spin-wave fraction is the overlap of the decohered state
with the original stored mode, and the Uhlmann fidelity splits into
transmitted and scattered branch contributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .ensemble import ExperimentGeometry, sample_geometry
from .errors import NumericsError
from .interaction import InteractionParams, effective_c6
from .propagation import (
    PropagationParams,
    chi_values,
    eit_baseline,
    transmission_batch,
)

# Half-span of the stored spin-wave grid in units of the cloud half-length.
_SPAN_FACTOR = 2.0


@dataclass(frozen=True)
class SpinWaveState:
    """Density matrix of the stored excitation on a position grid."""

    grid: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if abs(np.trace(rho).real - 1.0) > 1e-8:
            raise ValueError("density matrix must have unit trace")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
            raise ValueError("density matrix must be Hermitian")
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True)
class PhotonChannel:
    """Diagonal transmit/scatter Kraus family for one source photon.

    `transmit` holds t(z_g); `scatter[s, g]` is the amplitude to scatter
    at grid point s given the gate at grid point g.  Completeness
    |t(g)|^2 + sum_s |scatter[s,g]|^2 = 1 holds per column.
    """

    grid: np.ndarray
    transmit: np.ndarray
    scatter: np.ndarray

    def __post_init__(self):
        total = np.abs(self.transmit) ** 2 + np.sum(np.abs(self.scatter) ** 2, axis=0)
        err = float(np.max(np.abs(total - 1.0)))
        if not np.isfinite(err) or err > 1e-6:
            raise NumericsError(f"Kraus completeness violated by {err:.3g}")

    @property
    def decoherence_matrix(self) -> np.ndarray:
        """D with rho_f = D * rho elementwise; D[g,g] = 1."""
        t = self.transmit
        return np.outer(t, t.conj()) + _scatter_overlap(self.scatter)


def _scatter_overlap(scatter: np.ndarray) -> np.ndarray:
    """K[g,h] = sum_s scatter[s,g] conj(scatter[s,h]), as one GEMM."""
    return scatter.T @ scatter.conj()


def stored_spinwave(geometry: ExperimentGeometry, n_points: int = 201) -> SpinWaveState:
    """Pure stored state with |psi(z)|^2 proportional to the density."""
    half = _SPAN_FACTOR * geometry.cloud_half_length
    grid = np.linspace(-half, half, n_points)
    amp = np.exp(-(grid**2) / (2.0 * geometry.cloud_half_length**2))
    amp = amp / np.linalg.norm(amp)
    rho = np.outer(amp, amp.conj())
    return SpinWaveState(grid=grid, rho=rho)


def photon_channel(
    grid: np.ndarray,
    params: PropagationParams,
    interaction: InteractionParams,
    field: float,
    gate_offset: Tuple[float, float] = (0.0, 0.0),
    source_offset: Tuple[float, float] = (0.0, 0.0),
    density_scale: float = 1.0,
) -> PhotonChannel:
    """Channel for one source photon passing a gate stored on `grid`.

    The source line runs at `source_offset`; the gate sits transversally
    at `gate_offset`.  Scattering amplitudes are distributed over the
    grid proportionally to the local scattering density Im chi(z_s; z_g),
    carrying the propagation phase accumulated up to z_s.
    """
    grid = np.asarray(grid, dtype=float)
    n_g = grid.size
    gates = np.column_stack(
        [np.full(n_g, gate_offset[0]), np.full(n_g, gate_offset[1]), grid]
    )
    offsets = np.tile(np.asarray(source_offset, dtype=float), (n_g, 1))
    t = transmission_batch(
        offsets, gates, params, interaction, field, density_scale=density_scale
    )
    # clip |t| <= 1 against roundoff
    mag = np.abs(t)
    t = np.where(mag > 1.0, t / mag, t)

    pref = effective_c6(params.omega, field, interaction)
    t_dist_sq = (source_offset[0] - gate_offset[0]) ** 2 + (
        source_offset[1] - gate_offset[1]
    ) ** 2
    chi = chi_values(  # [g, s]
        grid[None, :], params, pref, grid[:, None], t_dist_sq, density_scale
    )
    dz = np.gradient(grid)
    weights = np.clip(chi.imag, 0.0, None) * dz[None, :]
    norm = weights.sum(axis=1)
    norm = np.where(norm > 0, norm, 1.0)
    weights = weights / norm[:, None]
    lost = np.clip(1.0 - np.abs(t) ** 2, 0.0, None)
    # cumulative propagation phase up to each scattering point; exp(i*phase)
    # is written as real cos/sin into one complex buffer, then scaled
    phase = np.cumsum(chi.real * dz[None, :], axis=1) / params.c
    scatter = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=scatter.real)
    np.sin(phase, out=scatter.imag)
    scatter *= np.sqrt(lost[:, None] * weights)
    return PhotonChannel(grid=grid, transmit=t, scatter=scatter.T)


def apply_channel(
    state: SpinWaveState, channel: PhotonChannel
) -> Tuple[SpinWaveState, float, float]:
    """State after one source photon, with transmit/scatter probabilities."""
    rho_p, rho_s = channel_branches(state.rho, channel)
    p_t = float(np.trace(rho_p).real)
    p_s = float(np.trace(rho_s).real)
    rho_f = rho_p + rho_s
    rho_f = rho_f / np.trace(rho_f).real
    return SpinWaveState(grid=state.grid, rho=rho_f), p_t, p_s


def channel_branches(
    rho: np.ndarray, channel: PhotonChannel
) -> Tuple[np.ndarray, np.ndarray]:
    """Unnormalized transmitted and scattered branches of the output state."""
    t = channel.transmit
    rho_p = np.outer(t, t.conj()) * rho
    rho_s = _scatter_overlap(channel.scatter) * rho
    return rho_p, rho_s


def _psd_sqrt(rho: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    w, v = np.linalg.eigh(rho)
    if w.min() < -tol * max(1.0, w.max()):
        raise ValueError(f"matrix not positive semidefinite (min eig {w.min():.3g})")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def uhlmann_fidelity(rho_i: np.ndarray, rho_f: np.ndarray) -> float:
    """F = [Tr |sqrt(rho_i) sqrt(rho_f)|]^2; rho_f may be unnormalized."""
    s1 = _psd_sqrt(np.asarray(rho_i, dtype=complex))
    s2 = _psd_sqrt(np.asarray(rho_f, dtype=complex))
    sing = np.linalg.svd(s1 @ s2, compute_uv=False)
    return float(sing.sum() ** 2)


@dataclass(frozen=True)
class RetrievalPoint:
    n_in_mean: float
    n_scattered_mean: float
    efficiency: float
    model_variant: str


def retrieval_efficiency_curve(
    state: SpinWaveState,
    decoherence: np.ndarray,
    p_scatter: np.ndarray,
    source_means: Sequence[float],
    eta_base: float,
) -> list:
    """Retrieval efficiency versus mean source photon number.

    The photon number per shot is Poissonian; each photon applies the
    per-photon channel once.  `decoherence[i]` is the per-photon matrix D
    of stored-gate offset i and `p_scatter[i]` its gate-caused scatter
    probability (see `transverse_channels`); offsets are averaged with
    equal weights.  Readout projects back on the initial stored mode;
    `eta_base` is the efficiency with no source photons, the retrieval
    efficiency eta0 times the intrinsic coherence decay exp(-t_store/tau),
    which factorizes out.

    The Poisson average is evaluated in real arithmetic on the upper
    triangle: w = psi rho psi is real symmetric and each D is Hermitian,
    so Re sum w exp(mu (D - 1)) is the diagonal plus twice the strict
    upper triangle of w exp(mu (Re D - 1)) cos(mu Im D).  Raises
    `NumericsError` when a D is not Hermitian or w is not real within
    1e-10, where that form would not hold.
    """
    source_means = np.asarray(source_means, dtype=float)
    psi = np.sqrt(np.real(np.diag(state.rho)))  # real by construction
    w = psi[:, None] * state.rho * psi[None, :]
    if np.max(np.abs(w.imag)) > 1e-10:
        raise NumericsError("retrieval overlap weights psi*rho*psi are not real")

    # k photons apply D elementwise k times, and the Poisson average over
    # k is exact: sum_k Poisson(k; mu) D^k = exp(mu (D - 1)).
    upper = np.triu_indices(w.shape[0])
    w_upper = w.real[upper]
    w_upper[upper[0] != upper[1]] *= 2.0
    overlap = np.empty((len(decoherence), source_means.size))
    for ic, d in enumerate(decoherence):
        if np.max(np.abs(d - d.conj().T)) > 1e-10:
            raise NumericsError(f"decoherence matrix {ic} is not Hermitian")
        d_upper = d[upper]
        re_less_one = d_upper.real - 1.0
        d_imag = d_upper.imag.copy()
        for im, mean in enumerate(source_means):
            term = np.exp(mean * re_less_one)
            term *= np.cos(mean * d_imag)
            overlap[ic, im] = float(w_upper @ term)
    weight = 1.0 / len(decoherence)
    efficiency = eta_base * np.sum(weight * overlap, axis=0)
    n_scattered = np.sum(weight * source_means * p_scatter[:, None], axis=0)
    return [
        RetrievalPoint(float(mean), float(n_s), float(eff), "model")
        for mean, n_s, eff in zip(source_means, n_scattered, efficiency)
    ]


def transverse_channels(
    state: SpinWaveState,
    geometry: ExperimentGeometry,
    params: PropagationParams,
    interaction: InteractionParams,
    field: float,
    n_offsets: int = 12,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-photon decoherence and scatter probability per gate offset.

    One group per sampled gate offset; within a group, one channel per
    sampled source path.  Source photons draw their transverse position
    independently, so a group's per-photon channel is the mean over its
    paths.  Returns `decoherence` of shape (n_offsets, n, n), the mean
    `decoherence_matrix` of each group, and `p_scatter` of shape
    (n_offsets,), each group's mean scatter probability in excess of the
    gate-free loss: photons lost to the gate-independent background carry
    no which-path information.  Each channel is added in and dropped as
    it is built, so one channel is held at a time.
    """
    rng = np.random.default_rng(seed)
    samples = sample_geometry(geometry, n_offsets, rng)
    p_diag = np.real(np.diag(state.rho))
    n = state.grid.size
    decoherence = np.zeros((n_offsets, n, n), dtype=complex)
    excess = np.empty((n_offsets, n_offsets))
    baseline = eit_baseline(params, samples.density_scales).intensity
    for i in range(n_offsets):
        for j in range(n_offsets):
            ch = photon_channel(
                state.grid,
                params,
                interaction,
                field,
                gate_offset=(samples.gates[i, 0], samples.gates[i, 1]),
                source_offset=(samples.offsets[j, 0], samples.offsets[j, 1]),
                density_scale=float(samples.density_scales[j]),
            )
            decoherence[i] += ch.decoherence_matrix
            lost = 1.0 - float(p_diag @ (np.abs(ch.transmit) ** 2))
            excess[i, j] = max(lost - (1.0 - baseline[j]), 0.0)
            del ch
        decoherence[i] /= n_offsets
    return decoherence, excess.mean(axis=1)


def limit_curves(
    source_means: Sequence[float],
    p_scatter: float,
    eta_base: float,
    blockade_fraction: float,
) -> list:
    """The three limiting reference curves of the retrieval decay.

    black: coherence survives only shots with zero scattered photons;
    dashed: destroyed by one of the incident photons;
    dotted: destroyed by one of the photons incident on the blockade
    sphere (fraction `blockade_fraction` of the beam).
    """
    rows = []
    for mean in np.asarray(source_means, dtype=float):
        rows.append(
            RetrievalPoint(
                float(mean),
                float(mean * p_scatter),
                float(eta_base * math.exp(-mean * p_scatter)),
                "black",
            )
        )
        rows.append(
            RetrievalPoint(
                float(mean),
                float(mean * p_scatter),
                float(eta_base * math.exp(-mean)),
                "dashed",
            )
        )
        rows.append(
            RetrievalPoint(
                float(mean),
                float(mean * p_scatter),
                float(eta_base * math.exp(-mean * blockade_fraction)),
                "dotted",
            )
        )
    return rows


def blockade_beam_fraction(r_b: float, beam_waist: float) -> float:
    """Beam-intensity fraction inside a disc of radius r_b on axis."""
    return 1.0 - math.exp(-2.0 * r_b**2 / beam_waist**2)

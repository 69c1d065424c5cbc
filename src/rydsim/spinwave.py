"""Decoherence of the stored gate spin-wave by source photons.

The stored excitation is a pure superposition over positions with
amplitude proportional to sqrt(n(z)).  One source photon acts as a
quantum channel that is diagonal in the gate position: a transmitted
photon imprints the position-dependent transmission amplitude t(z_g),
while a scattered photon projects according to where it scattered.  The
recoverable spin-wave fraction is the overlap of the decohered state
with the original stored mode, and the Uhlmann fidelity splits into
transmitted and scattered branch contributions.  On the uniform grid the
susceptibility is a column density times a kernel of the gate-scatterer
separation alone, so a channel needs one chi row per source path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

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

# Source paths per `photon_channel` call in `transverse_channels`.
_PATH_BLOCK = 3


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

    A channel may stack several source paths: `transmit` then has shape
    [..., p, g] and `scatter` shape [..., p, s, g], with any leading axes
    (a field grid) in front, and the channel is the equal-weight mixture
    of its p paths.  A `scatter` of two dimensions is one path.
    """

    grid: np.ndarray
    transmit: np.ndarray
    scatter: np.ndarray

    def __post_init__(self):
        # sum_s |scatter|^2 from the real and imaginary views, with no
        # temporary of the scatter block's size
        s = self.scatter
        total = np.abs(self.transmit) ** 2 + np.einsum("...sg,...sg->...g", s.real, s.real)
        if np.iscomplexobj(s):
            total += np.einsum("...sg,...sg->...g", s.imag, s.imag)
        err = float(np.max(np.abs(total - 1.0)))
        if not np.isfinite(err) or err > 1e-6:
            raise NumericsError(f"Kraus completeness violated by {err:.3g}")

    @property
    def decoherence_matrix(self) -> np.ndarray:
        """D with rho_f = D * rho elementwise, the mean over the paths;
        D[g,g] = 1.  Shape [..., g, g].

        A path's D is X X^H, where row g of X holds t(g) and scatter[:, g].
        It is built from real products, Re D = Xr Xr^T + Xi Xi^T and
        Im D = M - M^T with M = Xi Xr^T, so D is exactly Hermitian; a real
        X (a purely dissipative V_ef, which leaves no phase) needs Xr Xr^T
        alone.  The paths' matrices are added in order and divided by their
        number, so a mixture's D is bit for bit the mean of its paths' D.
        """
        t, s = self.transmit, self.scatter
        if s.ndim == 2:
            t, s = t[None], s[None]
        n_paths, n_s, n = s.shape[-3:]
        lead = s.shape[:-3]
        d = np.empty(lead + (n, n), dtype=complex)
        xr = np.empty((n, n_s + 1))
        xi = np.empty_like(xr)
        for idx in np.ndindex(lead):
            re_sum = im_sum = None
            for j in range(n_paths):
                xr[:, 0] = t[idx + (j,)].real
                xr[:, 1:] = s[idx + (j,)].real.T
                xi[:, 0] = t[idx + (j,)].imag
                xi[:, 1:] = s[idx + (j,)].imag.T
                re = xr @ xr.T
                if xi.any():
                    re += xi @ xi.T
                    m = xi @ xr.T
                    im = np.subtract(m, m.T)
                    if im_sum is None:
                        im_sum = im
                    else:
                        im_sum += im
                if re_sum is None:
                    re_sum = re
                else:
                    re_sum += re
            d[idx].real = re_sum
            d[idx].imag = 0.0 if im_sum is None else im_sum
        if n_paths > 1:
            d /= n_paths
        return d


def stored_spinwave(geometry: ExperimentGeometry, n_points: int) -> SpinWaveState:
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
    field,
    gate_offset: Tuple[float, float] = (0.0, 0.0),
    source_offset=(0.0, 0.0),
    density_scale=1.0,
    out: Optional[np.ndarray] = None,
) -> PhotonChannel:
    """Channel for source photons passing a gate stored on `grid`.

    The source line runs at `source_offset`; the gate sits transversally
    at `gate_offset`.  Scattering amplitudes are distributed over the
    grid proportionally to the local scattering density Im chi(z_s; z_g),
    carrying the propagation phase accumulated up to z_s.

    `grid` must be uniform, its spacing equal to 1e-9 relative (as
    `stored_spinwave` builds it); otherwise `ValueError`.  On it chi(z_s;
    z_g) = scale * n(z_s) * chi1(|z_s - z_g|), the relative density times
    chi at unit density, a function of the separation m*h alone.  So the
    one `chi_values` call takes the n separations per field and path, and
    each (g, s) table of weights and phases is read from that row through
    a Toeplitz view.  A field whose chi1 has no real part (a purely
    dissipative V_ef) gets real amplitudes and computes no phase.

    `field` is a scalar or a 1-D field grid, as in `transmission_batch`.
    `source_offset` is one path (bx, by) or a (p, 2) block of paths, with
    `density_scale` a scalar or one per path; the channel is the mixture
    of the paths (see `PhotonChannel`), and a scalar field with one path
    gives the single-path shapes.  Every path and field is built in one
    `transmission_batch` and one `chi_values` call.  `out`, if given, is
    a complex work array of shape field.shape + (p, n, n) for a block (or
    (n, n) for one path at a scalar field) that receives the scatter
    amplitudes, so the channel's `scatter` is a view of it.
    """
    grid = np.asarray(grid, dtype=float)
    n = grid.size
    h = (grid[-1] - grid[0]) / (n - 1)
    if np.max(np.abs(np.diff(grid) - h)) > 1e-9 * abs(h):
        raise ValueError("photon_channel needs a uniform grid: the spacing of "
                         "`grid` varies by more than 1e-9 relative")
    fields = np.asarray(field, dtype=float)
    paths = np.asarray(source_offset, dtype=float)
    one_path = paths.ndim == 1 and fields.ndim == 0
    paths = paths.reshape(-1, 2)
    n_paths = paths.shape[0]
    scale = np.broadcast_to(np.asarray(density_scale, dtype=float), (n_paths,))
    gx, gy = (float(c) for c in gate_offset)

    gates = np.column_stack([np.full(n_paths * n, gx), np.full(n_paths * n, gy),
                             np.tile(grid, n_paths)])
    t = transmission_batch(np.repeat(paths, n, axis=0), gates, params, interaction,
                           fields, density_scale=np.repeat(scale, n))
    t = t.reshape((n,) if one_path else fields.shape + (n_paths, n))
    # clip |t| <= 1 against roundoff
    mag = np.abs(t)
    t = np.where(mag > 1.0, t / mag, t)
    lost = np.clip(1.0 - np.abs(t) ** 2, 0.0, None).reshape(-1, n_paths, n)

    prefactors = [effective_c6(params.omega, float(f), interaction)
                  for f in fields.reshape(-1)]
    t_dist_sq = (paths[:, 0] - gx) ** 2 + (paths[:, 1] - gy) ** 2
    # chi1 at the separations m*h: scatter point at the cloud centre, where
    # the relative density is 1, and the gate at -m*h; [field, path, m]
    chi1 = chi_values(0.0, params, prefactors, -h * np.arange(n), t_dist_sq[:, None])
    # the rows mirrored, so that a sliding window reads row[|s - g|] at [g, s]
    sym = np.concatenate([chi1[..., :0:-1], chi1], axis=-1)
    np.clip(sym.imag, 0.0, None, out=sym.imag)
    toeplitz = np.lib.stride_tricks.sliding_window_view(sym, n, axis=-1)[..., ::-1, :]
    # scale * n(s) * dz(s), the factor of chi1 at scattering point s; [path, 1, s]
    u = (scale[:, None] * (params.relative_density(grid) * np.gradient(grid)))[:, None]
    if out is None:
        out = np.empty(t.shape + (n,), dtype=complex)
    work = out.reshape(chi1.shape + (n,), copy=False)  # [field, path, g, s]
    for k, table in enumerate(toeplitz):
        real = not chi1[k].real.any()
        weights = work[k].real if real else work[k].imag
        np.multiply(table.imag, u, out=weights)
        norm = weights.sum(axis=-1)
        weights *= (lost[k] / np.where(norm > 0, norm, 1.0))[..., None]
        amplitude = np.sqrt(weights, out=weights)
        if real:
            work[k].imag = 0.0
            continue
        # the cumulative propagation phase up to each scattering point, then
        # scatter = exp(i*phase) * amplitude from real cos/sin
        phase = np.multiply(table.real, u / params.c, out=work[k].real)
        np.cumsum(phase, axis=-1, out=phase)
        sin = np.sin(phase)
        np.cos(phase, out=phase)
        phase *= amplitude
        np.multiply(sin, amplitude, out=amplitude)
        del sin  # before the next field, and the completeness check, allocate
    return PhotonChannel(grid=grid, transmit=t, scatter=np.swapaxes(out, -1, -2))


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


def poisson_overlap(
    state: SpinWaveState,
    decoherence: np.ndarray,
    source_means: Sequence[float],
) -> np.ndarray:
    """Overlap of the decohered state with the stored mode, Poisson-averaged
    over the photon number.

    The photon number per shot is Poissonian; each photon applies the
    per-photon channel once, so k photons apply D elementwise k times and
    the Poisson average over k is exact: sum_k Poisson(k; mu) D^k =
    exp(mu (D - 1)).  Readout projects back on the initial stored mode.
    For each matrix D of `decoherence` (shape [..., n, n]) and each mean mu
    this returns Re sum w exp(mu (D - 1)) with w = psi rho psi, shape
    [..., n_means].

    The sum is evaluated in real arithmetic on the upper triangle: w is
    real symmetric and each D is Hermitian, so it is the diagonal plus
    twice the strict upper triangle of w exp(mu (Re D - 1)) cos(mu Im D).
    Raises `NumericsError` when a D is not Hermitian or w is not real
    within 1e-10, where that form would not hold.
    """
    source_means = np.asarray(source_means, dtype=float)
    decoherence = np.asarray(decoherence)
    psi = np.sqrt(np.real(np.diag(state.rho)))  # real by construction
    w = psi[:, None] * state.rho * psi[None, :]
    if np.max(np.abs(w.imag)) > 1e-10:
        raise NumericsError("retrieval overlap weights psi*rho*psi are not real")

    upper = np.triu_indices(w.shape[0])
    w_upper = w.real[upper]
    w_upper[upper[0] != upper[1]] *= 2.0
    overlap = np.empty(decoherence.shape[:-2] + (source_means.size,))
    for idx in np.ndindex(decoherence.shape[:-2]):
        d = decoherence[idx]
        d_upper = d[upper]
        if np.max(np.abs(d_upper - d.T[upper].conj())) > 1e-10:
            raise NumericsError(f"decoherence matrix {idx} is not Hermitian")
        re_less_one = d_upper.real - 1.0
        # a real D (a dissipative V_ef) has cos(mu Im D) = 1 exactly
        d_imag = d_upper.imag.copy() if d_upper.imag.any() else None
        for im, mean in enumerate(source_means):
            term = np.exp(mean * re_less_one)
            if d_imag is not None:
                term *= np.cos(mean * d_imag)
            overlap[idx + (im,)] = float(w_upper @ term)
    return overlap


def retrieval_efficiency_curve(
    overlap: np.ndarray,
    p_scatter: np.ndarray,
    source_means: Sequence[float],
    eta_base: float,
) -> list:
    """Retrieval efficiency versus mean source photon number.

    `overlap[i]` is the `poisson_overlap` row of stored-gate offset i and
    `p_scatter[i]` its gate-caused scatter probability (see
    `transverse_channels`); offsets are averaged with equal weights.
    `eta_base` is the efficiency with no source photons, the retrieval
    efficiency eta0 times the intrinsic coherence decay exp(-t_store/tau),
    which factorizes out.
    """
    source_means = np.asarray(source_means, dtype=float)
    weight = 1.0 / len(overlap)
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
    field,
    n_offsets: int,
    seed: int,
    source_means: Optional[Sequence[float]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-photon decoherence and scatter probability per gate offset.

    One group per sampled gate offset; within a group, one channel per
    sampled source path.  Source photons draw their transverse position
    independently, so a group's per-photon channel is the mean over its
    paths.  Returns `decoherence` of shape field.shape + (n_offsets, n, n),
    the mean `decoherence_matrix` of each group, and `p_scatter` of shape
    field.shape + (n_offsets,), each group's mean scatter probability in
    excess of the gate-free loss: photons lost to the gate-independent
    background carry no which-path information.

    `field` is a scalar or a 1-D field grid.  The paths of a group are
    built `_PATH_BLOCK` at a time, for every field at once, by one
    `photon_channel` call that reuses one work array.  With
    `source_means`, each group's matrices are reduced to their
    `poisson_overlap` rows as soon as the group is built, so one group is
    held at a time, and those rows, of shape field.shape +
    (n_offsets, n_means), take the place of `decoherence`.
    """
    rng = np.random.default_rng(seed)
    samples = sample_geometry(geometry, n_offsets, rng)
    fields = np.asarray(field, dtype=float)
    p_diag = np.real(np.diag(state.rho))
    n = state.grid.size
    baseline = eit_baseline(params, samples.density_scales).intensity
    blocks = [slice(lo, min(lo + _PATH_BLOCK, n_offsets))
              for lo in range(0, n_offsets, _PATH_BLOCK)]
    work = np.empty(fields.shape + (blocks[0].stop, n, n), dtype=complex)
    group = np.empty(fields.shape + (n, n), dtype=complex)
    excess = np.empty(fields.shape + (n_offsets, n_offsets))
    if source_means is None:
        result = np.empty(fields.shape + (n_offsets, n, n), dtype=complex)
    else:
        result = np.empty(fields.shape + (n_offsets, len(source_means)))
    groups = np.moveaxis(result, fields.ndim, 0)  # a view, group axis first
    for i in range(n_offsets):
        group[...] = 0.0
        for b in blocks:
            n_paths = b.stop - b.start
            ch = photon_channel(
                state.grid, params, interaction, fields,
                gate_offset=(samples.gates[i, 0], samples.gates[i, 1]),
                source_offset=samples.offsets[b],
                density_scale=samples.density_scales[b],
                out=work[..., :n_paths, :, :],
            )
            d = ch.decoherence_matrix
            d *= n_paths / n_offsets
            group += d
            intensity = np.abs(ch.transmit) ** 2  # field.shape + (paths, n)
            for idx in np.ndindex(intensity.shape[:-1]):
                j = b.start + idx[-1]
                lost = 1.0 - float(p_diag @ intensity[idx])
                excess[idx[:-1] + (i, j)] = max(lost - (1.0 - baseline[j]), 0.0)
            del ch, d  # freed before the next block is built
        groups[i] = group if source_means is None else poisson_overlap(
            state, group, source_means)
    return result, excess.mean(axis=-1)


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
        for variant, rate in (("black", p_scatter), ("dashed", 1.0),
                              ("dotted", blockade_fraction)):
            rows.append(RetrievalPoint(float(mean), float(mean * p_scatter),
                                       float(eta_base * math.exp(-mean * rate)), variant))
    return rows


def blockade_beam_fraction(r_b: float, beam_waist: float) -> float:
    """Beam-intensity fraction inside a disc of radius r_b on axis."""
    return 1.0 - math.exp(-2.0 * r_b**2 / beam_waist**2)

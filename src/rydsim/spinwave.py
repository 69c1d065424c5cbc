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
separation alone, so a channel needs one chi row per source path.  A
channel is built one way only: for a block of source paths on a 1-D field
grid, from the transport of its paths (`_path_transport`), as the stacked
Kraus rows X = [t | scatter] of its paths with their real and imaginary
parts apart, the imaginary ones zero at a field where X is real.  So its
decoherence matrix is one real matrix product per field, and whether X
is real is read from its rows.  The retrieval pipeline builds each gate
group's transport once for all its paths and keeps only the group's
Poisson overlap row; the overlap weights are built once per stored state.

The per-element kernels avoid numpy's float64 sin and cos, which are
scalar loops where its float64 tan is vectorised: a scatter amplitude is
the product of the square roots of its three factors (the separation
kernel, the column density and the per-gate normalisation), so the
square roots are taken on rows, not on the n x n table, and each phase
factor, of a scatter amplitude or of the Poisson overlap, comes from the
tangent of the half angle (`_half_angle_rotate`).  Where tan is not
vectorised, that form costs about what sin and cos do and is as accurate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .ensemble import ExperimentGeometry, sample_geometry
from .errors import NumericsError
from .interaction import InteractionParams, effective_c6
from .propagation import (
    _BLOCK_CELLS,
    PropagationParams,
    chi_values,
    eit_baseline,
    transmission_batch,
)

# Half-span of the stored spin-wave grid in units of the cloud half-length.
_SPAN_FACTOR = 2.0

# Source paths per `photon_channel` call in `transverse_channels`.
_PATH_BLOCK = 3

# n x n complex arrays a retrieval scan holds at its peak beside the
# stacked channel block: the stored state, the group sum and a block's
# decoherence matrix with the real products behind it, and the overlap's
# upper triangle (4.7 by tracemalloc at 801 to 1001 grid points).
_RETRIEVAL_GRID_ARRAYS = 7

# Block-sized float arrays (`_BLOCK_CELLS` cells) a `transmission_batch`
# call holds at its peak: its two kernel buffers and the nodes and weights
# of its gate panels (4.7 by tracemalloc, with numpy's broadcast buffers).
_TRANSPORT_BLOCKS = 5

# Bytes per transport row (gate point x source path) of one gate offset,
# for two fields: the call's inputs and results, and the transmission, chi
# and intensity tables of this and the previous offset (about 170 by
# tracemalloc).
_TRANSPORT_ROW_BYTES = 256


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

    @functools.cached_property
    def _overlap_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """`(upper, w_upper)` of `poisson_overlap`, built once per state:
        the boolean mask of the upper triangle and, on it in row-major
        order, the weights w = psi rho psi with the strict upper triangle
        doubled.  Raises `NumericsError` unless w is real within 1e-10."""
        psi = np.sqrt(np.real(np.diag(self.rho)))  # real by construction
        w = np.multiply(psi[:, None], self.rho)
        w *= psi[None, :]
        if np.max(np.abs(w.imag)) > 1e-10:
            raise NumericsError("retrieval overlap weights psi*rho*psi are not real")
        upper = np.triu(np.ones(w.shape, dtype=bool))
        w_upper = w.real[upper]
        w_upper[~np.eye(w.shape[0], dtype=bool)[upper]] *= 2.0
        return upper, w_upper


@dataclass(frozen=True)
class PhotonChannel:
    """Diagonal transmit/scatter Kraus family for a block of source paths on
    a field grid, held as its stacked Kraus rows.

    Path p's Kraus row at field f and gate grid point g is X[f, g, p, :] =
    [t(g) | scatter[:, g]]: its transmission amplitude, then its amplitudes
    to scatter at each grid point s.  `x`, of shape [field, g, 2, p, s + 1],
    holds at `x[f, g, 0]` and `x[f, g, 1]` the real and imaginary parts of
    X[f, g], so row g of x holds all of X[g]'s real parts, then all its
    imaginary parts, which are zero where X is real.  Completeness
    |t(g)|^2 + sum_s |scatter[s,g]|^2 = 1 holds per path and column within
    1e-6 (else `NumericsError`), and the channel is the equal-weight mixture
    of its p paths.
    """

    x: np.ndarray

    def __post_init__(self):
        total = np.einsum("fgcpk,fgcpk->fgp", self.x, self.x)
        err = float(np.max(np.abs(total - 1.0)))
        if not np.isfinite(err) or err > 1e-6:
            raise NumericsError(f"Kraus completeness violated by {err:.3g}")

    @property
    def decoherence_matrix(self) -> np.ndarray:
        """D with rho_f = D * rho elementwise, the mean over the paths;
        D[g,g] = 1.  Shape [field, g, g].

        D is A A^H / p, where row g of A is X[g] over all p paths, one
        stacked product per field: Re D = Ar Ar^T + Ai Ai^T is one
        symmetric product of the rows of x (Ar Ar^T alone where Ai is
        zero), and Im D = M - M^T with M = Ai Ar^T.  So D is exactly
        Hermitian.
        """
        x = self.x
        n_fields, n, _, n_paths = x.shape[:4]
        d = np.empty((n_fields, n, n), dtype=complex)
        for k in range(n_fields):
            rows = x[k].reshape(n, 2, -1)
            real, imag = rows[:, 0], rows[:, 1]
            if not imag.any():
                d[k].real = real @ real.T
                d[k].imag = 0.0
                continue
            rows = rows.reshape(n, -1)
            d[k].real = rows @ rows.T
            m = imag @ real.T
            np.subtract(m, m.T, out=d[k].imag)
        d /= n_paths
        return d

    @property
    def transmit(self) -> np.ndarray:
        """t(g) of each path as a new complex array, shape [field, p, g]."""
        return self._read_back(lambda a: np.swapaxes(a[..., 0], -1, -2))

    @property
    def scatter(self) -> np.ndarray:
        """Scatter amplitudes as a new complex array, shape [field, p, s, g]."""
        return self._read_back(lambda a: np.moveaxis(a[..., 1:], -3, -1))

    def _read_back(self, arrange) -> np.ndarray:
        real, imag = (arrange(self.x[..., c, :, :]) for c in (0, 1))
        out = np.empty(real.shape, dtype=complex)
        out.real, out.imag = real, imag
        return out


def stored_spinwave(geometry: ExperimentGeometry, n_points: int) -> SpinWaveState:
    """Pure stored state with |psi(z)|^2 proportional to the density."""
    half = _SPAN_FACTOR * geometry.cloud_half_length
    grid = np.linspace(-half, half, n_points)
    amp = np.exp(-(grid**2) / (2.0 * geometry.cloud_half_length**2))
    amp = amp / np.linalg.norm(amp)
    rho = np.outer(amp, amp.conj())
    return SpinWaveState(grid=grid, rho=rho)


def _grid_step(grid: np.ndarray) -> float:
    """Spacing of a uniform `grid`; `ValueError` if it varies by more than
    1e-9 relative."""
    h = (grid[-1] - grid[0]) / (grid.size - 1)
    if np.max(np.abs(np.diff(grid) - h)) > 1e-9 * abs(h):
        raise ValueError("photon_channel needs a uniform grid: the spacing of "
                         "`grid` varies by more than 1e-9 relative")
    return h


def _half_angle_rotate(half: np.ndarray, amplitude: np.ndarray) -> None:
    """amplitude * exp(2i * half), elementwise and in place: the real part
    over `amplitude` and the imaginary part over `half`.

    From t = tan(half), cos(2 half) = (1 - t^2) / (1 + t^2) and
    sin(2 half) = 2t / (1 + t^2), so with R = 2 amplitude / (1 + t^2) the
    real part is R - amplitude and the imaginary part t R, within a few
    ulp of amplitude also where t is huge (half near an odd multiple of
    pi/2) or zero.  Why tan, see the module docstring.
    """
    t = np.tan(half, out=half)
    r = np.square(t)
    r += 1.0
    r *= 0.5
    np.divide(amplitude, r, out=r)
    np.multiply(t, r, out=half)
    np.subtract(r, amplitude, out=amplitude)


def _path_transport(grid, params, interaction, fields, gate_offset, paths, scale):
    """Transport of the source `paths` past a gate at `gate_offset`:
    `(t, chi1)`, t of shape fields.shape + (n, p) (gate point, path) with
    |t| clipped at 1, and chi1 the unit-density chi at the n separations
    m*h of the uniform `grid`, one row per field and path, shape
    fields.shape + (p, n).

    One `transmission_batch` call takes every path and gate point (row
    g*p + j is path j with the gate at grid[g]); one `chi_values` call
    takes every field and path.
    """
    n, n_paths = grid.size, paths.shape[0]
    gx, gy = (float(c) for c in gate_offset)
    gates = np.column_stack([np.full(n * n_paths, gx), np.full(n * n_paths, gy),
                             np.repeat(grid, n_paths)])
    t = transmission_batch(np.tile(paths, (n, 1)), gates, params, interaction,
                           fields, density_scale=np.tile(scale, n))
    t = t.reshape(fields.shape + (n, n_paths))
    # clip |t| <= 1 against roundoff
    mag = np.abs(t)
    np.divide(t, mag, out=t, where=mag > 1.0)
    prefactors = [effective_c6(params.omega, float(f), interaction)
                  for f in fields.reshape(-1)]
    t_dist_sq = (paths[:, 0] - gx) ** 2 + (paths[:, 1] - gy) ** 2
    # chi1 at the separations m*h: scatter point at the cloud centre, where
    # the relative density is 1, and the gate at -m*h
    h = _grid_step(grid)
    chi1 = chi_values(0.0, params, prefactors, -h * np.arange(n), t_dist_sq[:, None])
    return t, chi1.reshape(fields.shape + (n_paths, n))


def photon_channel(
    grid: np.ndarray,
    params: PropagationParams,
    t: np.ndarray,
    chi1: np.ndarray,
    density_scale: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> PhotonChannel:
    """Channel of a block of source paths passing a gate stored on `grid`,
    on a field grid, from the paths' transport.

    `t` (shape [field, g, p]) and `chi1` (shape [field, p, n]) are the
    transport of the block's p paths on a 1-D field grid, as
    `_path_transport` returns it, and `density_scale` (shape [p]) the
    paths' density scales.  Scattering amplitudes are distributed over the
    grid proportionally to the local scattering density Im chi(z_s; z_g),
    carrying the propagation phase accumulated up to z_s.

    `grid` must be uniform, its spacing equal to 1e-9 relative (as
    `stored_spinwave` builds it); otherwise `ValueError`.  On it chi(z_s;
    z_g) = scale * n(z_s) * chi1(|z_s - z_g|), the relative density times
    chi at unit density, a function of the separation m*h alone.  So chi1
    holds the n separations per field and path, and each (g, s) table of
    weights and phases is read from that row through a Toeplitz view.  A
    scatter amplitude is
    sqrt(clip(Im chi1))[|s - g|] * sqrt(u[s]) * sqrt(lost[g] / norm[g]),
    u the column density and norm[g] the sum over s of Im chi1 * u (one
    read-only pass over the Toeplitz view), so the n x n table takes two
    passes.  Its phase factor comes from tan(phase / 2) by
    `_half_angle_rotate`, the 1/2 taken into the phase step.  A field whose
    chi1 has no real part and whose t is real (a purely dissipative V_ef)
    gets real amplitudes, a zero imaginary half and computes no phase.

    The channel is the mixture of the paths (see `PhotonChannel`), with x
    of shape [field, n, 2, p, n + 1], and the amplitudes are written
    straight into that x.  `out`, if given, is a 1-D float work array of at
    least 2 * fields * n * p * (n + 1) elements whose front receives x.
    """
    grid = np.asarray(grid, dtype=float)
    _grid_step(grid)
    n_fields, n_paths, n = chi1.shape
    scale = np.asarray(density_scale, dtype=float)
    # |t| of a contiguous copy of a block's columns: numpy's abs takes another
    # loop on strided input, which can differ in the last bit
    lost = np.clip(1.0 - np.abs(np.ascontiguousarray(t)) ** 2, 0.0, None)

    # the rows mirrored, so that a sliding window reads row[|s - g|] at [g, s]:
    # the real parts, the clipped imaginary parts and their square roots
    # apart, so the windows are contiguous rows of floats; [field, g, path, s]
    sym = np.concatenate([chi1[..., :0:-1], chi1], axis=-1)
    im_sym = np.clip(sym.imag, 0.0, None)
    re_table, im_table, root_table = (
        np.lib.stride_tricks.sliding_window_view(part, n, axis=-1)[..., ::-1, :]
        .transpose(0, 2, 1, 3)
        for part in (sym.real.copy(), im_sym, np.sqrt(im_sym)))
    # scale * n(s) * dz(s), the factor of chi1 at scattering point s; [path, s]
    u = scale[:, None] * (params.relative_density(grid) * np.gradient(grid))
    root_u = np.sqrt(u)
    half_step = u / (2.0 * params.c)
    size = 2 * n_fields * n * n_paths * (n + 1)
    if out is None:
        out = np.empty(size)
    x = out[:size].reshape(n_fields, n, 2, n_paths, n + 1)
    for k in range(n_fields):
        xr, xi = x[k, :, 0], x[k, :, 1]
        xr[..., 0] = t[k].real
        # amplitude = sqrt(Im chi1[|s - g|] u[s] lost[g] / norm[g]), the
        # scattering weights normalised to the lost probability, as a
        # product of square roots
        norm = np.einsum("gps,ps->gp", im_table[k], u)
        amplitude = np.multiply(root_table[k], root_u, out=xr[..., 1:])
        amplitude *= np.sqrt(lost[k] / np.where(norm > 0, norm, 1.0))[..., None]
        if not (chi1[k].real.any() or t[k].imag.any()):
            xi[...] = 0.0  # real X: no phase
            continue
        xi[..., 0] = t[k].imag
        # half the cumulative propagation phase up to each scattering point,
        # then scatter = exp(i*phase) * amplitude
        half = np.multiply(re_table[k], half_step, out=xi[..., 1:])
        np.cumsum(half, axis=-1, out=half)
        _half_angle_rotate(half, amplitude)
    return PhotonChannel(x)


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
    twice the strict upper triangle of w exp(mu (Re D - 1)) cos(mu Im D),
    with cos(x) = 2 / (1 + tan^2(x/2)) - 1 (see the module docstring).  w
    on the triangle is built once per state (`SpinWaveState._overlap_tables`),
    and the loop over the means reuses two buffers.  Raises `NumericsError`
    when a D is not Hermitian or w is not real within 1e-10, where that form
    would not hold.
    """
    source_means = np.asarray(source_means, dtype=float)
    decoherence = np.asarray(decoherence)
    upper, w_upper = state._overlap_tables
    overlap = np.empty(decoherence.shape[:-2] + (source_means.size,))
    term, cos = np.empty(w_upper.size), np.empty(w_upper.size)
    for idx in np.ndindex(decoherence.shape[:-2]):
        d = decoherence[idx]
        d_upper = d[upper]
        if np.max(np.abs(d_upper - d.T[upper].conj())) > 1e-10:
            raise NumericsError(f"decoherence matrix {idx} is not Hermitian")
        re_less_one = d_upper.real - 1.0
        # a real D (a dissipative V_ef) has cos(mu Im D) = 1 exactly
        half_imag = 0.5 * d_upper.imag if d_upper.imag.any() else None
        for im, mean in enumerate(source_means):
            np.multiply(re_less_one, mean, out=term)
            np.exp(term, out=term)
            if half_imag is not None:
                # cos(mu Im D) = 2 / (1 + tan^2(mu Im D / 2)) - 1
                np.multiply(half_imag, mean, out=cos)
                np.tan(cos, out=cos)
                np.square(cos, out=cos)
                cos += 1.0
                np.divide(2.0, cos, out=cos)
                cos -= 1.0
                term *= cos
            overlap[idx + (im,)] = float(w_upper @ term)
    return overlap


def retrieval_efficiency_curve(
    overlap: np.ndarray,
    p_scatter: np.ndarray,
    source_means: Sequence[float],
    eta_base: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Retrieval efficiency versus mean source photon number.

    Returns `(n_scattered, efficiency)` over `source_means`: the mean
    number of gate-scattered photons and the retrieval efficiency.

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
    return n_scattered, efficiency


def transverse_channels(
    state: SpinWaveState,
    geometry: ExperimentGeometry,
    params: PropagationParams,
    interaction: InteractionParams,
    fields: np.ndarray,
    n_offsets: int,
    seed: int,
    source_means: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray]:
    """Poisson overlap rows and scatter probability per gate offset.

    One group per sampled gate offset; within a group, one channel per
    sampled source path.  Source photons draw their transverse position
    independently, so a group's per-photon channel is the mean over its
    paths.  Each group's mean `decoherence_matrix` is reduced to its
    `poisson_overlap` row as soon as the group is built, so one group is
    held at a time.  Returns `overlap` of shape (fields, n_offsets,
    n_means) and `p_scatter` of shape (fields, n_offsets), each
    group's mean scatter probability in excess of the gate-free loss:
    photons lost to the gate-independent background carry no which-path
    information.

    `fields` is a 1-D field grid.  A group's transport is built
    once, for every path and field (`_path_transport`: one
    `transmission_batch` and one `chi_values` call); its paths then become
    channels `_PATH_BLOCK` at a time, for every field at once, by one
    `photon_channel` call that reuses one work array, and each block's D
    is one stacked product.
    """
    rng = np.random.default_rng(seed)
    samples = sample_geometry(geometry, n_offsets, rng)
    fields = np.asarray(fields, dtype=float)
    p_diag = np.real(np.diag(state.rho))
    n = state.grid.size
    baseline = eit_baseline(params, samples.density_scales).intensity
    blocks = [slice(lo, min(lo + _PATH_BLOCK, n_offsets))
              for lo in range(0, n_offsets, _PATH_BLOCK)]
    work = np.empty(2 * fields.size * n * blocks[0].stop * (n + 1))
    group = np.empty(fields.shape + (n, n), dtype=complex)
    excess = np.empty(fields.shape + (n_offsets, n_offsets))
    overlap = np.empty(fields.shape + (n_offsets, len(source_means)))
    for i in range(n_offsets):
        gate = (samples.gates[i, 0], samples.gates[i, 1])
        t, chi1 = _path_transport(state.grid, params, interaction, fields, gate,
                                  samples.offsets, samples.density_scales)
        # each path's intensity over the gate points as a contiguous row, so
        # its dot product with p_diag sums as it did per path
        intensity = np.ascontiguousarray(np.swapaxes(np.abs(t) ** 2, -1, -2))
        for idx in np.ndindex(intensity.shape[:-1]):
            j = idx[-1]
            lost = 1.0 - float(p_diag @ intensity[idx])
            excess[idx[:-1] + (i, j)] = max(lost - (1.0 - baseline[j]), 0.0)
        group[...] = 0.0
        for b in blocks:
            n_paths = b.stop - b.start
            ch = photon_channel(state.grid, params, t[..., b], chi1[..., b, :],
                                samples.density_scales[b], out=work)
            d = ch.decoherence_matrix
            d *= n_paths / n_offsets
            group += d
            del ch, d  # freed before the next block is built
        overlap[..., i, :] = poisson_overlap(state, group, source_means)
    return overlap, excess.mean(axis=-1)


def retrieval_work_bytes(n_points: int, n_offsets: int, n_means: int = 1) -> int:
    """Bytes of the largest arrays a retrieval scan holds, for its two
    fields: the stacked channel block of `transverse_channels` and the
    n x n arrays beside it, the fixed-size row blocks and the per-row
    tables of one gate offset's transport, the (2, n_offsets, n_offsets)
    scatter excess and the (2, n_offsets, n_means) overlap rows.  In
    integers, so it cannot overflow; the tracemalloc peak of a warm
    `transverse_channels` call reads at most 0.92 of it from 2 to 1001
    grid points and 1 to 200 offsets."""
    n, paths = n_points, min(_PATH_BLOCK, n_offsets)
    return (32 * paths * n * (n + 1) + 16 * _RETRIEVAL_GRID_ARRAYS * n**2
            + 8 * _TRANSPORT_BLOCKS * _BLOCK_CELLS + _TRANSPORT_ROW_BYTES * n * n_offsets
            + 16 * n_offsets * (n_offsets + n_means))


def limit_curves(
    source_means: Sequence[float],
    p_scatter: float,
    eta_base: float,
    blockade_fraction: float,
) -> dict:
    """The three limiting reference curves of the retrieval decay.

    Returns each variant's efficiencies over `source_means`, keyed by
    variant; each curve's scattered photon number is mean * p_scatter.
    black: coherence survives only shots with zero scattered photons;
    dashed: destroyed by one of the incident photons;
    dotted: destroyed by one of the photons incident on the blockade
    sphere (fraction `blockade_fraction` of the beam).
    """
    means = np.asarray(source_means, dtype=float).tolist()
    # math.exp, as numpy's exp can differ from libm in the last bit
    return {variant: np.array([eta_base * math.exp(-mean * rate) for mean in means])
            for variant, rate in (("black", p_scatter), ("dashed", 1.0),
                                  ("dotted", blockade_fraction))}


def blockade_beam_fraction(r_b: float, beam_waist: float) -> float:
    """Beam-intensity fraction inside a disc of radius r_b on axis."""
    return 1.0 - math.exp(-2.0 * r_b**2 / beam_waist**2)

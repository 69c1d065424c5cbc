"""Single-polariton transport through the cloud.

Frequency domain: the field at carrier detuning omega obeys

    dE/dz = (i/c) * chi(z) * E,
    chi(z) = n(z)/n_peak * [ g^2 (omega + i*gamma_s) / Omega^2
                             + g^2 V_ef(z) / (Omega^2 - i*gamma*V_ef(z)) ]

so the transmitted amplitude is exp((i/c) * integral of chi).  With this
convention Im(chi) >= 0 means absorption; both the EIT residual
(gamma_s) term and the blockade term are dissipative.  The sign of the
gamma_s term follows from the microscopic time-domain equations (the
compact frequency-domain form is often quoted with the opposite,
unphysical sign).

The gate-free factor has the closed form `eit_baseline`.  The gated
solver `transmission_batch` multiplies it by the blockade factor,
integrated on fixed Gauss-Legendre panels about the gate;
`transmission_freq` integrates the full chi by adaptive bisection of the
same Gauss-Legendre rule as an independent reference.  Both evaluate the
blockade term in one real-arithmetic kernel,
`_blockade_kernel`: with V_ef = C/d^6 it is w / (a - i*beta), where
w = g^2/d^6 and beta = gamma/d^6 do not depend on the field and
a = Omega^2/C is one complex scalar per field; `chi_values` adds that
term to the EIT term in one complex form, for one V_ef prefactor or a
grid of them.  `transmission_batch` builds its nodes and runs its field
loop one row block of about 2^15 cells at a time, so the tables a block
reads stay in cache while every field passes over them; rows are
independent, so the result does not depend on the blocking.

Time domain: the same transport is discretised from the four coupled
amplitudes (photon, intermediate P, source Rydberg S, and the gate-source
P-pair component), with no adiabatic elimination, as an independent
oracle.  One time step is a fixed linear map of the state plus the
input, so under a monochromatic input the exact steady state of the
stepping scheme solves one linear system; the atomic amplitudes are
cell-local, so `transmission_time_oracle` reduces it to one small solve
per cell and a product along the cloud, in place of stepping a long
pulse until it settles.

Every solver returns bare complex amplitudes, and `intensity` is the one
clip of any of them to a transmission.  Both reference solvers use numpy
alone, as every pipeline does.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .atomic_states import forster_defect
from .errors import ConfigError, NumericsError
from .interaction import InteractionParams, effective_c6
from .units import C_LIGHT

# Distance clamp regularizing the 1/(r - r_gate)^6 divergence (um).
R_MIN = 0.5

# Panel edges of the blockade integral of `transmission_batch` about the
# gate (um): the panels widen as the 1/d^6 term falls off, and the span
# ends clip the infinite ones.  These edges keep both presets within 3.2e-6
# of `transmission_freq`; gate +- {1, 3, 8, 24} read up to 2.8e-5 off the
# 66S/64S resonances, where C6 is largest.  A uniform slab adds its ends as
# two more edges (`_gate_panels`), 120 nodes a row in place of 100.
_GATE_PANEL_EDGES = np.array([-np.inf, -30, -12, -5, -2, 0, 2, 5, 12, 30, np.inf])

# Cells (rows x nodes) of one row block of `transmission_batch`: the
# block's nodes, w and beta rows and its q and v buffers (1 MiB in all)
# stay in cache across the fields, and a call holds no array of all its
# rows' nodes (327 rows of 100 nodes).
_BLOCK_CELLS = 2**15

# Memory bound on the stacked `_expm` work arrays of one time-domain oracle
# set, the largest arrays that exist at a time.
_MAX_ORACLE_SET_BYTES = 2**26

# Stack-sized complex arrays `_oracle_set` and `_expm` hold at their peak.
_EXPM_WORK_ARRAYS = 12

# Degree-13 Pade coefficients and the 1-norm up to which that approximant
# of exp is accurate to double precision without scaling (Higham 2005).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152

# Points of the Gauss-Legendre rule on each panel of both transport
# solvers, and the panel count at which `transmission_freq` stops bisecting.
_GAUSS_POINTS = 10
_MAX_PANELS = 400

_SQRT_PI = np.sqrt(np.pi)


@dataclass(frozen=True)
class PropagationParams:
    """Polariton transport parameters (all rates in rad/us).

    `g` is the peak collective coupling g0*sqrt(n_peak); the local
    coupling scales with the relative density profile.  `omega` is the
    source photon detuning.  The longitudinal profile is Gaussian with
    1/e half-length `cloud_half_length` or uniform on +-cloud_half_length.
    """

    g: float
    omega_rabi: float
    gamma: float
    cloud_half_length: float
    gamma_s: float = 0.0
    omega: float = 0.0
    c: float = C_LIGHT
    profile: str = "gaussian"
    z_extent: float = 0.0  # integration half-span; defaults to 3 L

    def __post_init__(self):
        if self.g < 0 or self.omega_rabi <= 0 or self.gamma <= 0:
            raise ValueError("g >= 0 and omega_rabi, gamma > 0 required")
        if self.gamma_s < 0:
            raise ValueError("gamma_s must be >= 0")
        if self.profile not in ("gaussian", "uniform"):
            raise ValueError(f"unknown density profile {self.profile!r}")
        if self.z_extent == 0.0:
            object.__setattr__(self, "z_extent", 3.0 * self.cloud_half_length)

    def relative_density(self, z, out=None):
        """n(z)/n_peak along the axis; `out` is an optional array of the
        shape of `z` that receives it."""
        z = np.asarray(z, dtype=float)
        if out is None:
            out = np.empty_like(z)
        if self.profile == "gaussian":
            np.divide(z, self.cloud_half_length, out=out)
            np.square(out, out=out)
            np.negative(out, out=out)
            return np.exp(out, out=out)
        np.abs(z, out=out)
        return np.less_equal(out, self.cloud_half_length, out=out, casting="unsafe")

    @property
    def effective_length(self) -> float:
        """Integral of the relative density along the axis (um)."""
        if self.profile == "gaussian":
            return self.cloud_half_length * _SQRT_PI
        return 2.0 * self.cloud_half_length


def intensity(amplitude):
    """Transmitted intensity |t|^2 of a scalar or array amplitude, clipped
    at 1 against roundoff."""
    return np.minimum(np.abs(amplitude) ** 2, 1.0)


def _check_validity(params: PropagationParams, gamma_p: float = 0.0) -> None:
    limit = 0.1 * min(params.omega_rabi, params.gamma)
    for name, value in (("omega", abs(params.omega)), ("gamma_s", params.gamma_s),
                        ("gamma_p", gamma_p)):
        if value > limit:
            warnings.warn(
                f"{name} = {value:.3g} exceeds 0.1*min(Omega, gamma) = {limit:.3g}; "
                "the adiabatic polariton equation degrades here",
                stacklevel=3,
            )


def chi_values(
    z,
    params: PropagationParams,
    vef_prefactor=0.0,
    gate_z=0.0,
    transverse_dist_sq=0.0,
    density_scale=1.0,
):
    """Vectorized complex susceptibility chi(z) (rad/us * (um/us) / um).

    `z`, `gate_z`, `transverse_dist_sq` and `density_scale` broadcast
    together.  `vef_prefactor` is one V_ef prefactor or a 1-D grid of them;
    a grid puts its axis first in the result.  g^2, d^6, w = g^2/d^6 and
    beta = gamma/d^6 are computed once, and each prefactor adds its
    `_blockade_kernel` term to the EIT term.  A zero prefactor gives the
    EIT term alone, broadcast to the full shape in a grid.
    """
    z = np.asarray(z, dtype=float)
    g_sq = params.g**2 * density_scale * params.relative_density(z)
    eit = g_sq * ((params.omega + 1j * params.gamma_s) / params.omega_rabi**2)
    d6 = _clamped_d6(np.square(z - gate_z), transverse_dist_sq)
    w, beta = g_sq / d6, params.gamma / d6
    prefs = np.asarray(vef_prefactor, dtype=complex)
    chi = []
    for pref in prefs.reshape(-1):
        if pref == 0.0:
            chi.append(eit)
            continue
        a = complex(params.omega_rabi**2 / pref)
        q, v = _blockade_kernel(w, beta, a)
        chi.append(eit + q * (a.real - 1j * v))
    return np.stack([np.broadcast_to(c, w.shape) for c in chi]) if prefs.ndim else chi[0]


def _clamped_d6(dz_sq, transverse_dist_sq, out=None):
    """d^6 with d^2 = dz^2 + b^2 clamped at R_MIN^2, from dz^2; `out` may
    be `dz_sq`."""
    d_sq = np.add(dz_sq, transverse_dist_sq, out=out)
    d_sq = np.maximum(d_sq, R_MIN**2, out=out)
    return np.power(d_sq, 3, out=out)


def _blockade_kernel(w, beta, a: complex, q=None, v=None):
    """Blockade part of chi, g^2 V / (Omega^2 - i*gamma*V), in real arithmetic.

    With V = C/d^6 the term is w / (a - i*beta): w = g^2/d^6 and
    beta = gamma/d^6 do not depend on the field, and a = Omega^2/C is one
    complex scalar per field.  Returns q = w / ((Re a)^2 + v^2) and
    v = Im a - beta, so the term is q * (Re a - i*v).  `q` and `v` are
    optional buffers shaped like `w`; with both given nothing is allocated.
    """
    v = np.subtract(a.imag, beta, out=v)
    den = np.square(v, out=q)
    den += a.real**2
    return np.divide(w, den, out=q), v


def eit_baseline(params: PropagationParams, density_scale=1.0):
    """Transmitted amplitude with no gate present (closed form): a scalar,
    or one per entry of a per-sample `density_scale`."""
    _check_validity(params)
    exponent = (
        1j
        / params.c
        * params.g**2
        * density_scale
        * params.effective_length
        * (params.omega + 1j * params.gamma_s)
        / params.omega_rabi**2
    )
    return np.exp(exponent)


def transmission_freq(
    path_offset,
    gate_position,
    params: PropagationParams,
    interaction: InteractionParams,
    field: float = 0.0,
    density_scale: float = 1.0,
    rtol: float = 1e-6,
) -> complex:
    """Transmitted amplitude along the axis-parallel line at transverse
    offset `path_offset` = (bx, by) (um), past a gate at the 3D point
    `gate_position`.

    The complex exponent is integrated by adaptive Gauss-Legendre
    quadrature (`_adaptive_integral`) with relative tolerance `rtol`, with
    breakpoints at the gate, 20 um either side of it, where the R_MIN clamp
    sets in and at the edges of a uniform slab.  An `interaction` with no
    channels has C6 = 0, so the gate adds no term and no breakpoint: that
    is the gate-free transmission `eit_baseline` gives in closed form.
    """
    _check_validity(params, interaction.gamma_p)
    bx, by = (float(v) for v in path_offset)
    gx, gy, gate_z = (float(v) for v in gate_position)
    t_dist_sq = (bx - gx) ** 2 + (by - gy) ** 2
    pref = effective_c6(params.omega, field, interaction)

    def integrand(z):
        return chi_values(z, params, pref, gate_z, t_dist_sq, density_scale)

    span = params.z_extent
    edges = [-span, span]
    # chi jumps where a uniform slab ends and has a kink where the R_MIN
    # clamp sets in; a Gauss rule across either converges slowly
    if params.profile == "uniform":
        edges += [-params.cloud_half_length, params.cloud_half_length]
    if pref != 0.0 and -span < gate_z < span:
        edges += [gate_z - 20.0, gate_z, gate_z + 20.0]
        if t_dist_sq < R_MIN**2:
            kink = np.sqrt(R_MIN**2 - t_dist_sq)
            edges += [gate_z - kink, gate_z + kink]
    edges = np.unique(np.clip(edges, -span, span))
    integral = _adaptive_integral(integrand, edges, rtol)
    return np.exp(1j * integral / params.c)


@functools.cache
def _gauss_rule():
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], by Newton's
    method on the Legendre three-term recurrence from Tricomi's estimate of
    the roots: four steps reach the roots to rounding, and two more leave
    P_n' of the weights 2 / ((1 - x^2) P_n'^2) evaluated at them."""
    n = _GAUSS_POINTS
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(6):
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (p0 - x * p1) / (1.0 - x * x)
        x -= p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def _adaptive_integral(f, edges, rtol: float) -> complex:
    """Integral of the vectorised complex `f` over the sorted `edges`.

    Each panel's Gauss-Legendre sum (`coarse`) is compared with the sum of
    its two halves' (`left + right`), which is its value; the difference
    is its error estimate.  While the summed error exceeds
    max(1e-12, rtol * |integral|), every panel whose error exceeds that
    tolerance over the panel count is bisected: its halves become panels
    whose coarse sums are known, and one call of `f` evaluates all their
    halves' nodes.  Raises `NumericsError` on a non-finite sum or past
    `_MAX_PANELS` panels.
    """
    nodes, weights = _gauss_rule()

    def gauss(lo, hi):
        half = 0.5 * (hi - lo)
        z = (lo + half)[:, None] + half[:, None] * nodes
        return half * (f(z) @ weights)

    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    coarse, left, right = np.split(
        gauss(np.concatenate([lo, lo, mid]), np.concatenate([hi, mid, hi])), 3)
    while True:
        fine = left + right
        err = np.abs(coarse - fine)
        total, err_sum = fine.sum(), err.sum()
        tol = max(1e-12, rtol * abs(total))
        if not (np.isfinite(total) and np.isfinite(err_sum)):
            raise NumericsError(f"transmission quadrature failed: integral {total}")
        if err_sum <= tol:
            return complex(total)
        # the worst panel always splits, so the panel bound ends the loop
        split = (err > tol / err.size) | (err == err.max())
        if err.size + np.count_nonzero(split) > _MAX_PANELS:
            raise NumericsError(
                f"transmission quadrature failed: no convergence in "
                f"{_MAX_PANELS} panels (error {err_sum:.3g}, tolerance {tol:.3g})"
            )
        keep = ~split
        mid = 0.5 * (lo + hi)
        new_lo = np.concatenate([lo[split], mid[split]])
        new_hi = np.concatenate([mid[split], hi[split]])
        new_mid = 0.5 * (new_lo + new_hi)
        new_left, new_right = np.split(gauss(np.concatenate([new_lo, new_mid]),
                                             np.concatenate([new_mid, new_hi])), 2)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        coarse = np.concatenate([coarse[keep], left[split], right[split]])
        left = np.concatenate([left[keep], new_left])
        right = np.concatenate([right[keep], new_right])


def _slab(params: PropagationParams):
    """Half-length of a uniform slab, whose ends `_gate_panels` adds as
    panel edges, or None for the Gaussian profile."""
    return params.cloud_half_length if params.profile == "uniform" else None


def _gate_panels(z_extent: float, gate_z, slab=None):
    """(rows, nodes) nodes and weights of the blockade integral about each
    gate z: `_gauss_rule` on each panel of `_GATE_PANEL_EDGES` about the
    gate, and at the ends +-`slab` of a uniform slab, where the density
    jumps, if given, clipped to +-z_extent; a panel clipped away has zero
    width and weight, so every row has the same nodes."""
    gate_z = np.atleast_1d(np.asarray(gate_z, dtype=float))
    edges = gate_z[:, None] + _GATE_PANEL_EDGES
    if slab is not None:
        ends = np.broadcast_to([-slab, slab], (gate_z.size, 2))
        edges = np.sort(np.concatenate([edges, ends], axis=1), axis=1)
    edges = np.clip(edges, -z_extent, z_extent)
    half = 0.5 * np.diff(edges, axis=1)[:, :, None]
    nodes, weights = _gauss_rule()
    z = half * nodes
    z += edges[:, :-1, None] + half
    return z.reshape(gate_z.size, -1), (half * weights).reshape(gate_z.size, -1)


def _graded_grid(z_extent: float, gate_z):
    """The (rows, nodes) nodes of `_gate_panels` of a Gaussian cloud; the
    benchmark's tracer counts the nodes per row from it."""
    return _gate_panels(z_extent, gate_z)[0]


def _blockade_rows(params, field_a, gate_z, t_dist_sq, scale, q, v, out):
    """Blockade integrals of one row block of `transmission_batch`.

    Builds w = (Gauss weight) g^2/d^6 and beta = gamma/d^6 on the rows'
    `_gate_panels`, then for each (field index k, a) of `field_a` writes
    the row sums of the blockade term into `out[k]`.  `q` and `v` are work
    buffers with at least the block's rows.  The panels, the Gauss weight
    times the density and (z - z_g)^2 depend on the gate z alone, so they
    are built once per run of rows with equal gate z and repeated to its
    rows; every row takes the ufuncs and operand order of a row built
    alone, so its bits do not depend on its neighbours.
    """
    q, v = q[: gate_z.size], v[: gate_z.size]
    new_run = np.empty(gate_z.size, dtype=bool)
    new_run[0] = True
    np.not_equal(gate_z[1:], gate_z[:-1], out=new_run[1:])
    run_z = gate_z[new_run]
    z, w = _gate_panels(params.z_extent, run_z, _slab(params))
    # Gauss weights times the relative density, and (z - z_g)^2
    w *= params.relative_density(z, out=q[: run_z.size])
    z -= run_z[:, None]
    np.square(z, out=z)
    if run_z.size < gate_z.size:
        run = np.cumsum(new_run)
        run -= 1
        z, w = z[run], w[run]
    # times the row's g^2, then d^6 and beta, in place
    w *= params.g**2 * scale[:, None]
    d6 = _clamped_d6(z, t_dist_sq[:, None], out=z)
    w /= d6
    beta = np.divide(params.gamma, d6, out=d6)
    for k, a in field_a:
        _blockade_kernel(w, beta, a, q=q, v=v)
        out[k].real = a.real * q.sum(axis=1)
        out[k].imag = -np.einsum("ij,ij->i", q, v)


def transmission_batch(
    offsets: np.ndarray,
    gate_positions: np.ndarray,
    params: PropagationParams,
    interaction: InteractionParams,
    fields: np.ndarray,
    density_scale=1.0,
) -> np.ndarray:
    """Vectorized transmitted amplitudes for many (offset, gate) samples
    on a field grid.

    `offsets` has shape (n, 2) and `gate_positions` shape (n, 3);
    `density_scale` may be scalar or per-sample.  `fields` is a 1-D field
    grid, and the amplitudes have shape (n_fields, n).  Each amplitude is
    `eit_baseline` times the blockade factor, a Gauss-Legendre sum on the
    fixed panels of `_gate_panels` about each gate; it lies within 1e-5 of
    `transmission_freq` at rtol=1e-10 in the test suite.

    The field enters only through the scalar `effective_c6`, so every
    field's a = Omega^2/C is computed before the loop, and the real
    field-free terms w = (Gauss weight) g^2/d^6 and beta = gamma/d^6
    are built once per row, from panels built once per run of rows with
    equal gate z (`_blockade_rows`).  The loop runs over blocks of at most
    `_BLOCK_CELLS` cells (whole rows): each block builds its rows' nodes,
    w and beta, then each field costs one real `_blockade_kernel` pass in
    two reused block-sized buffers and two row reductions.  Rows are
    independent, so the amplitudes are those of an unblocked loop, and
    the memory a call uses grows with its rows only
    through its inputs and its (n_fields, n) results: the blockade
    integrals are finished into amplitudes in that one complex table, by
    the ufuncs and operand order of `eit * exp(1j * blockade / c)`, so the
    bits are the same.
    """
    offsets = np.asarray(offsets, dtype=float)
    n = offsets.shape[0]
    scale = np.broadcast_to(np.asarray(density_scale, dtype=float), (n,))
    fields = np.asarray(fields, dtype=float)
    if fields.ndim != 1:
        raise ValueError("fields must be a 1-D field grid")
    gate_positions = np.asarray(gate_positions, dtype=float)
    gate_z = gate_positions[:, 2]
    t_dist_sq = (offsets[:, 0] - gate_positions[:, 0]) ** 2 + (
        offsets[:, 1] - gate_positions[:, 1]
    ) ** 2

    field_a = []  # (field index, a) of every field with a blockade term
    for k, f in enumerate(fields.tolist()):
        c6 = effective_c6(params.omega, f, interaction)
        if c6 != 0.0:
            field_a.append((k, complex(params.omega_rabi**2 / c6)))
    points = _gate_panels(params.z_extent, 0.0, _slab(params))[0].shape[1]
    rows = max(1, _BLOCK_CELLS // points)
    q = np.empty((min(rows, n), points))
    v = np.empty_like(q)
    blockade = np.zeros((fields.size, n), dtype=complex)
    for lo in range(0, n, rows):
        block = slice(lo, min(lo + rows, n))
        _blockade_rows(params, field_a, gate_z[block], t_dist_sq[block],
                       scale[block], q, v, blockade[:, block])
    amps = np.multiply(1j, blockade, out=blockade)
    np.divide(amps, params.c, out=amps)
    np.exp(amps, out=amps)
    np.multiply(eit_baseline(params, scale), amps, out=amps)
    return amps


def _expm(a):
    """exp of each matrix of the stack `a` (..., n, n).

    The degree-13 Pade approximant with scaling and squaring (Higham
    2005): each matrix is scaled by its own power of two 2^s, s the least
    with 1-norm / 2^s <= theta_13, and its approximant squared s times.
    """
    _, s = np.frexp(np.abs(a).sum(axis=-2).max(axis=-1) / _THETA13)
    s = np.maximum(s, 0)
    a = a / np.exp2(s)[..., None, None]
    b = _PADE13
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for k in range(s.max()):
        more = s > k
        r[more] = r[more] @ r[more]
    return r


def _oracle_set(params: PropagationParams, interaction: InteractionParams,
                gate_z: float):
    """Cell step blocks of one oracle parameter set, at zero field.

    Returns `(blocks, g_local, dt)`: `blocks` is the (n_z, m, m + 1)
    [atomic propagator | photon drive column] of each cell's step, a view
    of one stacked `_expm`; `g_local` is the local coupling g(z) per cell.
    """
    span = params.z_extent
    n_z = int(round(2 * span / min(params.cloud_half_length / 60.0, 0.35))) + 1
    channels = interaction.channels
    m = 2 + len(channels)
    work_bytes = _EXPM_WORK_ARRAYS * 16 * n_z * (m + 1) ** 2
    if work_bytes > _MAX_ORACLE_SET_BYTES:
        raise ConfigError(
            f"time-domain grid too fine: {n_z} cells need "
            f"{work_bytes / 2**20:.3g} MiB of propagator work arrays, "
            f"above the {_MAX_ORACLE_SET_BYTES / 2**20:g} MiB limit; reduce the span"
        )
    z = np.linspace(-span, span, n_z)
    dz = z[1] - z[0]
    dt = dz / params.c

    g_local = params.g * np.sqrt(params.relative_density(z))

    # Per-cell linear generators for (P, S, PB_1..PB_nch) plus the photon
    # drive column, stacked over the cells and exponentiated in one call.
    a = np.zeros((n_z, m + 1, m + 1), dtype=complex)
    a[:, 0, 0] = -params.gamma
    a[:, 0, 1] = -1j * params.omega_rabi
    a[:, 1, 0] = -1j * params.omega_rabi
    a[:, 1, 1] = -params.gamma_s
    sep = z - gate_z
    sep = np.where(sep != 0, np.sign(sep) * np.maximum(np.abs(sep), R_MIN), R_MIN)
    # float_power is the scalar pow of one cell; the SIMD `sep**3` can
    # round differently in the last bit
    sep_cubed = np.float_power(sep, 3)
    for k, ch in enumerate(channels):
        v = ch.coupling / sep_cubed
        a[:, 1, 2 + k] = -1j * v
        a[:, 2 + k, 1] = -1j * v
        a[:, 2 + k, 2 + k] = -interaction.gamma_p - 1j * forster_defect(ch, 0.0)
    a[:, 0, m] = -1j * g_local  # photon drive column
    a *= dt
    return _expm(a)[:, :m], g_local, dt


def transmission_time_oracle(
    sets: Sequence[tuple[PropagationParams, InteractionParams, float]],
) -> np.ndarray:
    """Steady-state transmitted amplitudes from the time-domain coupled
    amplitudes, at zero field.

    Each of `sets` is `(params, interaction, gate_z)`: the four coupled
    fields (photon, P, S, and one gate-source P-pair amplitude per channel
    of `interaction`, for a gate on axis at `gate_z`) are discretised on a
    z grid of spacing min(L/60, 0.35 um), L the cloud half-length, with
    exact characteristic advection (dt = dz/c) for the photon and an exact
    linear-propagator step for the local atomic amplitudes.  One step
    maps each cell's atomic amplitudes x_z <- P_z x_z + d_z e_z by its
    `_oracle_set` block [P_z | d_z], advects the photon one cell,
    e_z <- e_(z-1) + dt/2 (-i g_(z-1) x_(z-1),0 - i g_z x_z,0), and writes
    the input u into the first cell.  Under the monochromatic
    input u_t = exp(-i omega t) the exact steady state of that map solves
    (q I - M) Y = q inject, q = exp(-i omega dt), cell by cell:
    x_z = (q I - P_z)^-1 d_z e_z, so with rho_z the P component of
    (q I - P_z)^-1 d_z and h_z = dt/2 (-i g_z) rho_z,

        e_0 = 1,    e_z = e_(z-1) (1 + h_(z-1)) / (q - h_z),

    and the transmitted amplitude is the last cell's e, one batched solve
    and one product per set.  Nothing is time-stepped, so the result does
    not depend on a run length.  Returns one complex amplitude per set.

    Sets are built and solved one at a time; a set over the size bound of
    `_oracle_set` fails before its propagators are built.
    """
    amps = np.empty(len(sets), dtype=complex)
    for k, (params, inter, gate_z) in enumerate(sets):
        blocks, g_local, dt = _oracle_set(params, inter, gate_z)
        m = blocks.shape[1]
        q = np.exp(-1j * params.omega * dt)
        rho = np.linalg.solve(q * np.eye(m) - blocks[:, :, :m], blocks[:, :, m:])
        h = 0.5 * dt * (-1j * g_local) * rho[:, 0, 0]
        amps[k] = np.prod((1.0 + h[:-1]) / (q - h[1:]))
    return amps

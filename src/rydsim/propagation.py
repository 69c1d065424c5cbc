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
integrated on a graded grid; `transmission_freq` integrates the full chi
by adaptive quadrature as an independent reference.  Both evaluate the
blockade term in one real-arithmetic kernel, `_blockade_kernel`: with
V_ef = C/d^6 it is w / (a - i*beta), where w = g^2/d^6 and
beta = gamma/d^6 do not depend on the field and a = Omega^2/C is one
complex scalar per field; `chi_values` adds that term to the EIT term in
one complex form, for one V_ef prefactor or a grid of them.
`transmission_batch` builds its grid and runs its field loop one row
block of about 2^15 cells at a time, so the tables a block reads stay in
cache while every field passes over them; rows are independent, so the
result does not depend on the blocking.

Time domain: the same transport is discretised from the four coupled
amplitudes (photon, intermediate P, source Rydberg S, and the gate-source
P-pair component), with no adiabatic elimination, as an independent
oracle.  One time step is a fixed linear map of the state plus the
input, so under a monochromatic input the exact steady state of the
stepping scheme is one sparse linear solve; `transmission_time_oracle`
builds each parameter set it is given and makes that solve, one set at a
time, in place of stepping a long pulse until it settles.

The two reference solvers import scipy (`quad`, `expm`, `spsolve`) on
first call, so importing this module, and the pipelines that use only
`transmission_batch`, load numpy alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .atomic_states import forster_defect
from .errors import ConfigError, NumericsError
from .interaction import InteractionParams, effective_c6
from .units import C_LIGHT

# Distance clamp regularizing the 1/(r - r_gate)^6 divergence (um).
R_MIN = 0.5

# Uniform points of the graded grid before the refinement around the gate.
_GRID_BASE_POINTS = 161

# Refinement offsets about each gate (um): 0 and +-geomspace(0.05, 25, 36).
_GRID_GATE_OFFSETS = np.concatenate(
    [-np.geomspace(0.05, 25.0, 36)[::-1], [0.0], np.geomspace(0.05, 25.0, 36)]
)

# Cells (rows x grid points) of one row block of `transmission_batch`: the
# block's grid, w and beta rows and its q and v buffers (1 MiB in all) stay
# in cache across the fields, and a call holds no array of all its rows'
# grid points (about 140 rows of the 234-point grid).
_BLOCK_CELLS = 2**15

# Memory bound on one time-domain oracle set's step operator and its LU
# factor, the only ones that exist at a time.
_MAX_ORACLE_SET_BYTES = 2**26

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


@dataclass(frozen=True)
class TransmissionResult:
    """Transmitted amplitude (scalar or per sample) and its intensity."""

    amplitude: complex | np.ndarray

    @property
    def intensity(self) -> float | np.ndarray:
        return np.minimum(np.abs(self.amplitude) ** 2, 1.0)


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
    d6 = _clamped_d6(z - gate_z, transverse_dist_sq)
    w, beta = g_sq / d6, params.gamma / d6
    # a grid's entries as Python complex, a scalar as given: NumPy and
    # Python complex division can differ in the last bit
    grid = np.ndim(vef_prefactor) > 0
    chi = []
    for pref in np.ravel(vef_prefactor).tolist() if grid else [vef_prefactor]:
        if pref == 0.0:
            chi.append(eit)
            continue
        a = complex(params.omega_rabi**2 / pref)
        q, v = _blockade_kernel(w, beta, a)
        chi.append(eit + q * (a.real - 1j * v))
    return np.stack([np.broadcast_to(c, w.shape) for c in chi]) if grid else chi[0]


def _clamped_d6(dz, transverse_dist_sq, out=None):
    """d^6 with d^2 = dz^2 + b^2 clamped at R_MIN^2; `out` may be `dz`."""
    d_sq = np.add(np.square(dz, out=out), transverse_dist_sq, out=out)
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


def eit_baseline(
    params: PropagationParams, density_scale: float | np.ndarray = 1.0
) -> TransmissionResult:
    """Transmission with no gate present (closed form); `density_scale`
    may be scalar or per-sample."""
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
    return TransmissionResult(amplitude=np.exp(exponent))


def transmission_freq(
    path_offset,
    gate_position,
    params: PropagationParams,
    interaction: Optional[InteractionParams] = None,
    field: float = 0.0,
    density_scale: float = 1.0,
    rtol: float = 1e-6,
) -> TransmissionResult:
    """Transmission along the axis-parallel line at transverse offset b.

    `path_offset` is (bx, by) in um (a scalar is taken as bx); the gate
    sits at the 3D point `gate_position`.  The complex exponent is
    integrated by adaptive quadrature with relative tolerance `rtol`.
    """
    from scipy.integrate import quad

    gamma_p = interaction.gamma_p if interaction is not None else 0.0
    _check_validity(params, gamma_p)
    b = np.atleast_1d(np.asarray(path_offset, dtype=float))
    bx, by = (b[0], b[1]) if b.size >= 2 else (b[0], 0.0)

    pref = 0.0 + 0.0j
    gate_z = 0.0
    t_dist_sq = 0.0
    if gate_position is not None and interaction is not None:
        gx, gy, gate_z = (float(v) for v in gate_position)
        t_dist_sq = (bx - gx) ** 2 + (by - gy) ** 2
        pref = effective_c6(params.omega, field, interaction)

    # quad(complex_func=True) integrates the real and imaginary parts in two
    # passes over mostly the same nodes; each node's chi is computed once
    chi_at = {}

    def integrand(z):
        value = chi_at.get(z)
        if value is None:
            value = chi_at[z] = chi_values(
                z, params, pref, gate_z, t_dist_sq, density_scale
            )
        return value

    span = params.z_extent
    points = None
    if pref != 0.0 and -span < gate_z < span:
        points = [max(gate_z - 20.0, -span), gate_z, min(gate_z + 20.0, span)]
    try:
        integral, _ = quad(
            integrand, -span, span, complex_func=True,
            epsrel=rtol, epsabs=1e-12, limit=400, points=points,
        )
    except Exception as exc:  # pragma: no cover - quadrature failure path
        raise NumericsError(f"transmission quadrature failed: {exc}") from exc
    return TransmissionResult(amplitude=np.exp(1j * integral / params.c))


def _graded_grid(z_extent: float, gate_z):
    """Per-sample z grids: uniform base plus refinement around each gate."""
    base = np.linspace(-z_extent, z_extent, _GRID_BASE_POINTS)
    gate_z = np.atleast_1d(np.asarray(gate_z, dtype=float))
    grids = gate_z[:, None] + _GRID_GATE_OFFSETS[None, :]
    full = np.concatenate(
        [np.broadcast_to(base, (gate_z.size, base.size)), grids], axis=1
    )
    np.clip(full, -z_extent, z_extent, out=full)
    full.sort(axis=1)
    return full


def _blockade_rows(params, field_a, gate_z, t_dist_sq, scale, q, v, out):
    """Blockade integrals of one row block of `transmission_batch`.

    Builds the block's graded grid, w and beta, then for each
    (field index k, a) of `field_a` writes the row sums of the blockade
    term into `out[k]`.  `q` and `v` are work buffers with at least the
    block's rows; they hold the grid steps and the relative density until
    the field loop needs them.
    """
    z = _graded_grid(params.z_extent, gate_z)
    q, v = q[: z.shape[0]], v[: z.shape[0]]
    # trapezoid weights times local g^2, then over d^6
    dz = np.subtract(z[:, 1:], z[:, :-1], out=v[:, :-1])
    w = np.zeros_like(z)
    w[:, 1:] = dz
    w[:, :-1] += dz
    w *= params.relative_density(z, out=q)
    w *= (0.5 * params.g**2) * scale[:, None]
    # z becomes d^6, then beta, in place
    z -= gate_z[:, None]
    d6 = _clamped_d6(z, t_dist_sq[:, None], out=z)
    w /= d6
    beta = np.divide(params.gamma, d6, out=z)
    for k, a in field_a:
        _blockade_kernel(w, beta, a, q=q, v=v)
        out[k].real = a.real * q.sum(axis=1)
        out[k].imag = -np.einsum("ij,ij->i", q, v)


def transmission_batch(
    offsets: np.ndarray,
    gate_positions: np.ndarray,
    params: PropagationParams,
    interaction: InteractionParams,
    field: float | np.ndarray = 0.0,
    density_scale=1.0,
) -> np.ndarray:
    """Vectorized transmitted amplitudes for many (offset, gate) samples.

    `offsets` has shape (n, 2) and `gate_positions` shape (n, 3);
    `density_scale` may be scalar or per-sample.  `field` is a scalar,
    giving amplitudes of shape (n,), or a 1-D field grid, giving shape
    (n_fields, n).  Each amplitude is `eit_baseline` times the blockade
    factor, a trapezoid sum on a graded grid refined around each gate;
    cross-validated against `transmission_freq` in the test suite.

    The field enters only through the scalar `effective_c6`, so every
    field's a = Omega^2/C is computed before the loop, and the grid and
    the real field-free terms w = (trapezoid weight) g^2/d^6 and
    beta = gamma/d^6 are built once per row.  The loop runs over blocks of
    at most `_BLOCK_CELLS` cells (whole rows): each block builds its rows'
    grid, w and beta, then each field costs one real `_blockade_kernel`
    pass in two reused block-sized buffers and two row reductions.  Rows
    are independent, so the amplitudes are those of an unblocked loop, and
    the memory a call uses grows with its rows only through its inputs and
    its (n_fields, n) results.
    """
    offsets = np.asarray(offsets, dtype=float)
    n = offsets.shape[0]
    scale = np.broadcast_to(np.asarray(density_scale, dtype=float), (n,))
    fields = np.asarray(field, dtype=float)
    if fields.ndim > 1:
        raise ValueError("field must be a scalar or a 1-D field grid")
    gate_positions = np.asarray(gate_positions, dtype=float)
    gate_z = gate_positions[:, 2]
    t_dist_sq = (offsets[:, 0] - gate_positions[:, 0]) ** 2 + (
        offsets[:, 1] - gate_positions[:, 1]
    ) ** 2

    field_a = []  # (field index, a) of every field with a blockade term
    for k, f in enumerate(fields.reshape(-1)):
        c6 = effective_c6(params.omega, float(f), interaction)
        if c6 != 0.0:
            field_a.append((k, complex(params.omega_rabi**2 / c6)))
    points = _GRID_BASE_POINTS + _GRID_GATE_OFFSETS.size
    rows = max(1, _BLOCK_CELLS // points)
    q = np.empty((min(rows, n), points))
    v = np.empty_like(q)
    blockade = np.zeros((fields.size, n), dtype=complex)
    for lo in range(0, n, rows):
        block = slice(lo, min(lo + rows, n))
        _blockade_rows(params, field_a, gate_z[block], t_dist_sq[block],
                       scale[block], q, v, blockade[:, block])
    amps = eit_baseline(params, scale).amplitude * np.exp(1j * blockade / params.c)
    return amps if fields.ndim else amps[0]


def _oracle_set(params: PropagationParams, interaction: InteractionParams,
                gate_z: float, field: float):
    """Cell step blocks of one oracle parameter set.

    Returns `(blocks, g_local, dt)`: `blocks` is the (m, m + 1, n_z)
    [atomic propagators | photon drive column] of each cell's step, a view
    of one stacked `expm`; `g_local` is the local coupling g(z) per cell.
    """
    from scipy.linalg import expm

    span = params.z_extent
    n_z = int(round(2 * span / min(params.cloud_half_length / 60.0, 0.35))) + 1
    channels = interaction.channels
    m = 2 + len(channels)
    # the step operator has at most (m + 1)^2 entries per cell, each a
    # 16-byte value and an 8-byte index; its LU factor adds about twice that
    operator_bytes = 3 * 24 * n_z * (m + 1) ** 2
    if operator_bytes > _MAX_ORACLE_SET_BYTES:
        raise ConfigError(
            f"time-domain grid too fine: {n_z} cells need "
            f"{operator_bytes / 2**20:.3g} MiB of step operator and LU factor, "
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
        a[:, 2 + k, 2 + k] = -interaction.gamma_p - 1j * forster_defect(ch, field)
    a[:, 0, m] = -1j * g_local  # photon drive column
    step = expm(a * dt)
    return np.moveaxis(step[:, :m], 0, -1), g_local, dt


def _oracle_step(blocks, g_local, dt):
    """One time step of an oracle set (see `_oracle_set`) as y <- M y + inject u.

    The state is y = [x_0, ..., x_(m-1), e], each a row over the cells.
    The cell `blocks` move x, the photon is advected one cell,
    e[z] = e[z-1] + dt/2 * (g_src[z] x_0[z] + g_src[z-1] x_0[z-1]) with
    g_src = -i g(z), and the input u is written into the first cell, whose
    rows of M are empty.  Returns the sparse CSR M and the dense
    unit vectors `inject` (first cell's photon) and `read` (last cell's).
    """
    from scipy import sparse

    m, _, n_cells = blocks.shape
    n_state = (m + 1) * n_cells
    index = np.arange(n_state).reshape(m + 1, n_cells)
    z = np.arange(1, n_cells)  # cells the photon moves into
    source = 0.5 * dt * (-1j * g_local)
    rows = np.concatenate([
        np.broadcast_to(index[:m, None], blocks.shape).ravel(),
        np.tile(index[m, z], 3)])
    cols = np.concatenate([
        np.broadcast_to(index[None], blocks.shape).ravel(),
        index[m, z - 1], index[0, z], index[0, z - 1]])
    vals = np.concatenate([blocks.ravel(), np.ones(z.size), source[z],
                           source[z - 1]])
    step = sparse.csr_array((vals, (rows, cols)), shape=(n_state, n_state))
    step.eliminate_zeros()
    inject = np.zeros(n_state)
    inject[index[m, 0]] = 1.0
    read = np.zeros(n_state)
    read[index[m, -1]] = 1.0
    return step, inject, read


def transmission_time_oracle(
    sets: Sequence[tuple[PropagationParams, InteractionParams, float]],
    field: float = 0.0,
) -> list[TransmissionResult]:
    """Steady-state transmissions from the time-domain coupled amplitudes.

    Each of `sets` is `(params, interaction, gate_z)`: the four coupled
    fields (photon, P, S, and one gate-source P-pair amplitude per channel
    of `interaction`, for a gate on axis at `gate_z`) are discretised on a
    z grid of spacing min(L/60, 0.35 um), L the cloud half-length, with
    exact characteristic advection (dt = dz/c) for the photon and an exact
    linear-propagator step for the local atomic amplitudes.  One step is
    the linear, time-invariant map y <- M y + inject u (`_oracle_step`),
    so under the monochromatic input u_t = exp(-i omega t) its exact
    steady state y_t = Y exp(-i omega t) solves

        (q I - M) Y = q inject,    q = exp(-i omega dt),

    one sparse LU solve per set; the transmitted amplitude is the last
    cell's photon, read Y.  Nothing is time-stepped, so the result does
    not depend on a run length.  Returns one result per set.

    Sets are built and solved one at a time; a set over the size bound of
    `_oracle_set` fails before its propagators are built.
    """
    from scipy import sparse
    from scipy.sparse.linalg import spsolve

    results = []
    for params, inter, gate_z in sets:
        blocks, g_local, dt = _oracle_set(params, inter, gate_z, field)
        step, inject, read = _oracle_step(blocks, g_local, dt)
        q = np.exp(-1j * params.omega * dt)
        lhs = q * sparse.eye_array(step.shape[0], format="csr") - step
        amp = read @ spsolve(lhs, q * inject)
        results.append(TransmissionResult(amplitude=complex(amp)))
    return results

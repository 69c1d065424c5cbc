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
complex scalar per field.

Time domain: the same transport is integrated brute-force from the four
coupled amplitudes (photon, intermediate P, source Rydberg S, and the
gate-source P-pair component) as an independent oracle.

The two reference solvers import scipy (`quad`, `expm`) on first call,
so importing this module, and the pipelines that use only
`transmission_batch`, load numpy alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

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
    gamma_s: float = 0.0
    omega: float = 0.0
    c: float = C_LIGHT
    cloud_half_length: float = 40.0
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

    def relative_density(self, z):
        """n(z)/n_peak along the axis."""
        z = np.asarray(z, dtype=float)
        if self.profile == "gaussian":
            return np.exp(-((z / self.cloud_half_length) ** 2))
        return np.where(np.abs(z) <= self.cloud_half_length, 1.0, 0.0)

    @property
    def effective_length(self) -> float:
        """Integral of the relative density along the axis (um)."""
        if self.profile == "gaussian":
            return self.cloud_half_length * _SQRT_PI
        return 2.0 * self.cloud_half_length

    @property
    def optical_depth(self) -> float:
        """Resonant two-level optical depth 2 g^2 L_eff / (c gamma) on axis."""
        return 2.0 * self.g**2 * self.effective_length / (self.c * self.gamma)


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
    vef_prefactor: complex = 0.0,
    gate_z: float = 0.0,
    transverse_dist_sq: float = 0.0,
    density_scale: float = 1.0,
):
    """Vectorized complex susceptibility chi(z) (rad/us * (um/us) / um)."""
    z = np.asarray(z, dtype=float)
    g_sq = params.g**2 * density_scale * params.relative_density(z)
    eit = (params.omega + 1j * params.gamma_s) / params.omega_rabi**2
    chi = g_sq * eit
    if vef_prefactor != 0.0:
        d6 = _clamped_d6(z - gate_z, transverse_dist_sq)
        a = complex(params.omega_rabi**2 / vef_prefactor)
        q, v = _blockade_kernel(g_sq / d6, params.gamma / d6, a)
        chi = chi + q * (a.real - 1j * v)
    return chi


def _clamped_d6(dz, transverse_dist_sq, out=None):
    """d^6 with d^2 = dz^2 + b^2 clamped at R_MIN^2; `out` may be `dz`."""
    d_sq = np.square(dz, out=out)
    d_sq += transverse_dist_sq
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

    def integrand(z):
        return chi_values(z, params, pref, gate_z, t_dist_sq, density_scale)

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
    full = np.clip(full, -z_extent, z_extent)
    full.sort(axis=1)
    return full


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

    The field enters only through the scalar `effective_c6`, so the grid
    and the real field-free terms w = (trapezoid weight) g^2/d^6 and
    beta = gamma/d^6 are built once per call; each field then costs one
    real `_blockade_kernel` pass in two reused (n x grid) buffers and
    two row reductions.
    """
    offsets = np.asarray(offsets, dtype=float)
    n = offsets.shape[0]
    scale = np.broadcast_to(np.asarray(density_scale, dtype=float), (n,))
    fields = np.asarray(field, dtype=float)
    if fields.ndim > 1:
        raise ValueError("field must be a scalar or a 1-D field grid")
    gate_positions = np.asarray(gate_positions, dtype=float)
    gate_z = gate_positions[:, 2]
    z = _graded_grid(params.z_extent, gate_z)
    dz = np.diff(z, axis=1)
    w = np.zeros_like(z)  # trapezoid weights times local g^2, then over d^6
    w[:, 1:] = dz
    w[:, :-1] += dz
    del dz
    w *= params.relative_density(z)
    w *= (0.5 * params.g**2) * scale[:, None]
    t_dist_sq = (offsets[:, 0] - gate_positions[:, 0]) ** 2 + (
        offsets[:, 1] - gate_positions[:, 1]
    ) ** 2
    # z becomes d^6, then beta, in place
    z -= gate_z[:, None]
    d6 = _clamped_d6(z, t_dist_sq[:, None], out=z)
    w /= d6
    beta = np.divide(params.gamma, d6, out=z)

    q = np.empty_like(w)
    v = np.empty_like(w)
    blockade = np.zeros((fields.size, n), dtype=complex)
    for k, f in enumerate(fields.reshape(-1)):
        c6 = effective_c6(params.omega, float(f), interaction)
        if c6 == 0.0:
            continue
        a = complex(params.omega_rabi**2 / c6)
        _blockade_kernel(w, beta, a, q=q, v=v)
        blockade[k].real = a.real * q.sum(axis=1)
        blockade[k].imag = -np.einsum("ij,ij->i", q, v)
    amps = eit_baseline(params, scale).amplitude * np.exp(1j * blockade / params.c)
    return amps if fields.ndim else amps[0]


def transmission_time_oracle(
    params: PropagationParams,
    interaction: InteractionParams,
    gate_z: float,
    field: float = 0.0,
) -> TransmissionResult:
    """Steady-state transmission from the time-domain coupled amplitudes.

    Integrates the four coupled fields (photon, P, S, and one gate-source
    P-pair amplitude per channel of `interaction`, for a gate on axis at
    `gate_z`) on a z grid of spacing min(L/60, 0.35 um), L the cloud
    half-length, with exact characteristic advection (dt = dz/c) for the
    photon and an exact linear-propagator step for the local atomic
    amplitudes.  A long quasi-monochromatic pulse at the carrier detuning
    is ramped in over a run of 16 group delays plus 120 EIT relaxation
    times; the transmitted amplitude is demodulated over the trailing 30%
    of the run, and a drift between the two halves of that window above
    5e-3 warns that the run has not settled.
    """
    from scipy.linalg import expm

    span = params.z_extent
    n_z = int(round(2 * span / min(params.cloud_half_length / 60.0, 0.35))) + 1
    if n_z > 200_000:
        raise ConfigError("time-domain grid too fine; reduce the span")
    z = np.linspace(-span, span, n_z)
    dz = z[1] - z[0]
    dt = dz / params.c

    g_local = params.g * np.sqrt(params.relative_density(z))

    channels = interaction.channels
    m = 2 + len(channels)

    # Per-z linear generator for (P, S, PB_1..PB_nch) plus photon drive.
    defects = [forster_defect(ch, field) for ch in channels]
    props = np.empty((m, m, n_z), dtype=complex)
    drive = np.empty((m, n_z), dtype=complex)
    a = np.zeros((m + 1, m + 1), dtype=complex)
    for i in range(n_z):
        a[:] = 0.0
        a[0, 0] = -params.gamma
        a[0, 1] = -1j * params.omega_rabi
        a[1, 0] = -1j * params.omega_rabi
        a[1, 1] = -params.gamma_s
        for k, ch in enumerate(channels):
            sep = z[i] - gate_z
            sep = np.sign(sep) * max(abs(sep), R_MIN) if sep != 0 else R_MIN
            v = ch.coupling / sep**3
            a[1, 2 + k] = -1j * v
            a[2 + k, 1] = -1j * v
            a[2 + k, 2 + k] = -interaction.gamma_p - 1j * defects[k]
        a[0, m] = -1j * g_local[i]  # photon drive column
        step = expm(a * dt)
        props[:, :, i] = step[:m, :m]
        drive[:, i] = step[:m, m]

    v_g = params.c * params.omega_rabi**2 / (params.g**2 + params.omega_rabi**2)
    gamma_eit = params.omega_rabi**2 / params.gamma + params.gamma_s
    duration = 16.0 * (2 * span / v_g) + 120.0 / gamma_eit
    n_t = int(np.ceil(duration / dt))
    ramp = 0.15 * duration
    measure_start = int(0.7 * n_t)

    e_fld = np.zeros(n_z, dtype=complex)
    x = np.zeros((m, n_z), dtype=complex)
    out = np.empty(n_t, dtype=complex)
    omega = params.omega
    half = None
    for step_i in range(n_t):
        t = step_i * dt
        # atomic amplitudes driven by the current photon field
        x_new = np.einsum("rcz,cz->rz", props, x) + drive * e_fld
        # photon field advected one cell per step (dt = dz/c exactly)
        src = -1j * g_local * x[0]
        e_fld[1:] = e_fld[:-1] + 0.5 * dt * (src[1:] + src[:-1])
        tt = t + dt
        envelope = 0.5 * (1.0 + np.tanh((tt - 2.5 * ramp) / (0.5 * ramp)))
        e_fld[0] = envelope * np.exp(-1j * omega * tt)
        x = x_new
        out[step_i] = e_fld[-1] * np.exp(1j * omega * tt)
        if step_i == (measure_start + n_t) // 2:
            half = np.mean(out[measure_start:step_i])

    amp = np.mean(out[measure_start:])
    if half is not None and abs(amp) > 1e-12:
        drift = abs(amp - half) / max(abs(amp), 1e-12)
        if drift > 5e-3:
            warnings.warn(
                f"time-domain oracle not fully settled (drift {drift:.2e}); "
                "its intensity is not converged",
                stacklevel=2,
            )
    return TransmissionResult(amplitude=complex(amp))

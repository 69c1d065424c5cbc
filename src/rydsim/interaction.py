"""Effective gate-source potential of the dipole-coupled pair states.

The gate-source pair couples through the dipolar interaction, (1/r^3)
times a direct coupling C3 per Förster channel.  After eliminating the
P-pair amplitudes the source polariton sees the complex potential

    V_ef(r) = sum_alpha  C3_alpha^2 / (defect_alpha - omega - i*gamma_p)
              / (r - r_gate)^6

which is van der Waals shaped at every field; on resonance the
prefactor is purely imaginary (dissipative) with magnitude C3^2/gamma_p.
`InteractionParams` is (gamma_p, channels): each channel carries its own
C3.  The hopping coupling C3' of a channel file does not enter V_ef; it
feeds only the fixed-gate check in `config.build_setup`, which warns
unless C3' is small next to the largest C3.
"""

from __future__ import annotations

from dataclasses import dataclass

from .atomic_states import forster_defect


@dataclass(frozen=True)
class InteractionParams:
    """P-pair decay rate `gamma_p` (rad/us) and the Förster channels of
    the gate-source pair."""

    gamma_p: float
    channels: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        if self.gamma_p < 0:
            raise ValueError("gamma_p must be >= 0")


def effective_c6(omega: float, field: float, params: InteractionParams) -> complex:
    """Complex prefactor of V_ef: sum_alpha c3_alpha^2/(defect - omega - i*gamma_p).

    V_ef = effective_c6 / d^6 at gate-source distance d; the transport
    solvers in `propagation` apply it with d clamped at R_MIN.  An array
    of fields gives an array of prefactors.  The
    imaginary part is non-negative for gamma_p > 0 (dissipative
    convention: positive imaginary susceptibility absorbs).
    """
    total = 0.0 + 0.0j
    for ch in params.channels:
        defect = forster_defect(ch, field)
        total += ch.coupling**2 / (defect - omega - 1j * params.gamma_p)
    return total


def blockade_radius(c6: float, gamma: float, omega_rabi: float) -> float:
    """r_b = (gamma * C6 / Omega^2)^(1/6), all inputs > 0."""
    if c6 <= 0 or gamma <= 0 or omega_rabi <= 0:
        raise ValueError("blockade_radius requires strictly positive inputs")
    return (gamma * c6 / omega_rabi**2) ** (1.0 / 6.0)

"""Effective gate-source potential of the dipole-coupled pair states.

The gate-source pair couples through the dipolar interaction, (1/r^3)
times a direct coupling C3 per Förster channel and a hopping coupling
C3'.  After eliminating the P-pair amplitudes the source polariton sees
the complex potential

    V_ef(r) = sum_alpha  C3_alpha^2 / (defect_alpha - omega - i*gamma_p)
              / (r - r_gate)^6

which is van der Waals shaped at every field; on resonance the
prefactor is purely imaginary (dissipative) with magnitude C3^2/gamma_p.
The hopping coupling enters only through `hopping_suppression`, the
ratio C3'/C3 that the fixed-gate approximation needs to be small.
"""

from __future__ import annotations

from dataclasses import dataclass

from .atomic_states import forster_defect


@dataclass(frozen=True)
class InteractionParams:
    """Couplings, P-pair decay and Förster channels of the gate-source pair.

    All couplings in angular units: c3, c3_prime in rad/us * um^3,
    gamma_p in rad/us, c6_reference in rad/us * um^6 (zero-field van der
    Waals coefficient, used for blockade-radius reporting only).
    """

    c3: float
    c3_prime: float
    gamma_p: float
    channels: tuple = ()
    c6_reference: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        for name in ("c3", "c3_prime", "gamma_p", "c6_reference"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


def effective_c6(omega: float, field: float, params: InteractionParams) -> complex:
    """Complex prefactor of V_ef: sum_alpha c3_alpha^2/(defect - omega - i*gamma_p).

    V_ef = effective_c6 / d^6 at gate-source distance d; the transport
    solvers in `propagation` apply it with d clamped at R_MIN.  The
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


def hopping_suppression(params: InteractionParams) -> float:
    """Ratio C3'/C3; the fixed-gate approximation needs this << 1."""
    if params.c3 == 0:
        raise ValueError("hopping suppression undefined for c3 = 0")
    return params.c3_prime / params.c3

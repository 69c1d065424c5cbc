"""Rydberg pair states, field-dependent pair-state defects and channel lists.

A stored gate excitation and a propagating source excitation occupy two
different Rydberg S-states.  A dc electric field shifts this S-S pair
relative to dipole-coupled P-P pairs; each coupled P-P pair is one
`PairChannel` whose defect crosses zero at its resonance field.  The
defect follows a quadratic Stark model

    defect(field) = defect_zero_field - diff_polarizability * field**2
                    + zeeman_shift

with the three coefficients calibrated per channel in a data file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ChannelError
from .units import to_mhz

_ALLOWED_L = ("S", "P")


@dataclass(frozen=True)
class RydbergLevel:
    """A single fine-structure Rydberg level |n, l, j, m_j>."""

    n: int
    l: str
    j: float
    m_j: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"principal quantum number must be >= 1, got {self.n}")
        if self.l not in _ALLOWED_L:
            raise ValueError(f"orbital label must be one of {_ALLOWED_L}, got {self.l!r}")
        if self.j not in (0.5, 1.5):
            raise ValueError(f"j must be 1/2 or 3/2, got {self.j}")
        if self.l == "S" and self.j != 0.5:
            raise ValueError("S states carry j = 1/2")
        if abs(self.m_j) > self.j or (self.m_j * 2) != round(self.m_j * 2):
            raise ValueError(f"m_j = {self.m_j} incompatible with j = {self.j}")

    def __str__(self):
        half = {0.5: "1/2", 1.5: "3/2"}[self.j]
        return f"{self.n}{self.l}{half}:mj={self.m_j:+g}"


@dataclass(frozen=True)
class PairChannel:
    """One dipole-coupled |P(g), P(s)> pair with its quadratic defect model.

    Energies are angular (rad/us); `c3` is the dipolar coupling in
    angular MHz * um^3 (sign absorbed into the phase convention) and
    `weight` is the angle-dependent coupling factor w(theta) in [0, 1].
    """

    gate_state: RydbergLevel
    source_state: RydbergLevel
    defect_zero_field: float
    diff_polarizability: float
    zeeman_shift: float = 0.0
    c3: float = 0.0
    weight: float = 1.0

    def __post_init__(self):
        if self.c3 < 0:
            raise ValueError("c3 must be >= 0 (sign convention)")
        if self.weight < 0:
            raise ValueError("channel weight must be >= 0")

    @property
    def coupling(self) -> float:
        """Effective dipolar coupling c3 * weight(theta)."""
        return self.c3 * self.weight


@dataclass(frozen=True)
class PairConfig:
    """The |S(g), S(s)> pair plus its coupled P-P channels."""

    s_pair: tuple
    channels: tuple
    theta: float = 0.0
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        for level in self.s_pair:
            if level.l != "S":
                raise ChannelError(f"s_pair must contain S states, got {level}")


def forster_defect(channel: PairChannel, field: float):
    """Pair-state defect (rad/us) at the given electric field (V/cm)."""
    field = np.asarray(field, dtype=float) if np.ndim(field) else float(field)
    return (
        channel.defect_zero_field
        - channel.diff_polarizability * np.square(field)
        + channel.zeeman_shift
    )


def _check_dipole_coupling(s_level: RydbergLevel, p_level: RydbergLevel) -> None:
    if p_level.l == s_level.l:
        raise ChannelError(
            f"channel state {p_level} is not dipole-coupled to {s_level} (dl = 0)"
        )
    if abs(p_level.j - s_level.j) > 1.0:
        raise ChannelError(f"|dj| > 1 between {s_level} and {p_level}")


def channel_set(config: PairConfig) -> list:
    """Channels surviving the selection rules for this configuration.

    Every channel must be dipole-coupled (dl = +-1, |dj| <= 1) to the
    respective S states; violations raise `ChannelError`.  For theta = 0
    the additional rule dm_j(gate) + dm_j(source) = 0 filters the list;
    for theta != 0 the configured (weighted) list is returned unchanged.
    """
    gate_s, source_s = config.s_pair
    kept = []
    for ch in config.channels:
        _check_dipole_coupling(gate_s, ch.gate_state)
        _check_dipole_coupling(source_s, ch.source_state)
        if config.theta == 0.0:
            delta_m = (ch.gate_state.m_j - gate_s.m_j) + (ch.source_state.m_j - source_s.m_j)
            if abs(delta_m) > 1e-12:
                continue
        kept.append(ch)
    return kept


def resonance_fields(config: PairConfig, field_max: float) -> list:
    """Zero crossing of every kept channel's defect in [0, field_max].

    The quadratic defect c - alpha * F^2, c = defect_zero_field +
    zeeman_shift, vanishes at F = sqrt(c / alpha); a channel with c = 0
    is resonant at zero field.  Returns a sorted list of
    (field, index into config.channels).
    """
    if field_max <= 0:
        raise ValueError("field_max must be > 0")
    index_of = {id(ch): i for i, ch in enumerate(config.channels)}
    roots = []
    for ch in channel_set(config):
        c = ch.defect_zero_field + ch.zeeman_shift
        alpha = ch.diff_polarizability
        if c == 0.0:
            root = 0.0
        elif alpha != 0.0 and c / alpha > 0.0:
            root = math.sqrt(c / alpha)
        else:
            continue
        if root <= field_max:
            roots.append((root, index_of[id(ch)]))
    return sorted(roots)


def defect_table(config: PairConfig, fields: Sequence[float]) -> np.ndarray:
    """Defect of every configured channel over a field grid, in plain MHz.

    Shape (len(fields), n_channels); used by the stark-map scan output.
    """
    fields = np.asarray(fields, dtype=float)
    cols = [to_mhz(forster_defect(ch, fields)) for ch in config.channels]
    return np.column_stack(cols)

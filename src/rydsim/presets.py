"""Channel data files: parsing and bundled pair-system presets."""

from __future__ import annotations

import math
import re
from importlib import resources
from pathlib import Path
from typing import Optional

from .atomic_states import PairChannel, PairConfig, RydbergLevel
from .errors import ConfigError
from .units import from_mhz

PRESETS = ("rb87_50s48s", "rb87_66s64s")

_LEVEL_RE = re.compile(r"^(\d+)([SP])([13])/2\s+([+-]?)([13])/2$")


def parse_level(text: str) -> RydbergLevel:
    """Parse labels like '50S1/2 +1/2' or '64P3/2 -3/2'."""
    m = _LEVEL_RE.match(text.strip())
    if not m:
        raise ConfigError(f"cannot parse Rydberg level {text!r}")
    n, l, j2, sign, mj2 = m.groups()
    m_j = int(mj2) / 2.0
    if sign == "-":
        m_j = -m_j
    try:
        return RydbergLevel(n=int(n), l=l, j=int(j2) / 2.0, m_j=m_j)
    except ValueError as exc:
        raise ConfigError(f"bad Rydberg level {text!r}: {exc}") from exc


def _parse_sections(text: str, source: str):
    """Split a channel file into global key-values and [channel] blocks."""
    globals_kv = {}
    channels = []
    current: Optional[dict] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[channel]":
            current = {}
            channels.append(current)
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        target = globals_kv if current is None else current
        if key in target:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        target[key] = value
    return globals_kv, channels


_GLOBAL_KEYS = {
    "name", "theta", "gate_s", "source_s",
    "c3_prime_mhz_um3", "gamma_p_mhz",
}
# numeric global keys and their defaults
_GLOBAL_NUMBERS = {
    "theta": 0.0, "c3_prime_mhz_um3": 0.0, "gamma_p_mhz": 0.3,
}
_CHANNEL_KEYS = {
    "gate", "source", "defect_zero_field_mhz", "diff_polarizability_mhz",
    "zeeman_shift_mhz", "c3_mhz_um3", "weight",
}


def parse_channel_file(text: str, source: str = "<string>"):
    """Parse a channel data file into (PairConfig, extras dict).

    `extras` carries the interaction-level constants stored alongside
    the channels (c3_prime and gamma_p, converted to angular units).
    """
    globals_kv, channel_blocks = _parse_sections(text, source)
    unknown = set(globals_kv) - _GLOBAL_KEYS
    if unknown:
        raise ConfigError(f"{source}: unknown keys {sorted(unknown)}")
    for req in ("gate_s", "source_s"):
        if req not in globals_kv:
            raise ConfigError(f"{source}: missing required key {req!r}")
    if not channel_blocks:
        raise ConfigError(f"{source}: no [channel] blocks found")

    channels = []
    for i, block in enumerate(channel_blocks):
        unknown = set(block) - _CHANNEL_KEYS
        if unknown:
            raise ConfigError(f"{source}: channel {i}: unknown keys {sorted(unknown)}")
        try:
            channels.append(
                PairChannel(
                    gate_state=parse_level(block["gate"]),
                    source_state=parse_level(block["source"]),
                    defect_zero_field=from_mhz(float(block["defect_zero_field_mhz"])),
                    diff_polarizability=from_mhz(float(block["diff_polarizability_mhz"])),
                    zeeman_shift=from_mhz(float(block.get("zeeman_shift_mhz", 0.0))),
                    c3=from_mhz(float(block["c3_mhz_um3"])),
                    weight=float(block.get("weight", 1.0)),
                )
            )
        except KeyError as exc:
            raise ConfigError(f"{source}: channel {i}: missing key {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"{source}: channel {i}: {exc}") from exc

    numbers = {}
    for key, default in _GLOBAL_NUMBERS.items():
        raw = globals_kv.get(key, default)
        try:
            numbers[key] = float(raw)
        except ValueError as exc:
            raise ConfigError(f"{source}: bad value for {key!r}: {raw!r}") from exc
        if not math.isfinite(numbers[key]):
            raise ConfigError(f"{source}: {key} must be finite, got {raw!r}")
    for key in ("c3_prime_mhz_um3", "gamma_p_mhz"):
        if numbers[key] < 0:
            raise ConfigError(f"{source}: {key} must be >= 0, got {numbers[key]}")

    config = PairConfig(
        s_pair=(parse_level(globals_kv["gate_s"]), parse_level(globals_kv["source_s"])),
        channels=tuple(channels),
        theta=numbers["theta"],
        name=globals_kv.get("name", ""),
    )
    extras = {
        "c3_prime": from_mhz(numbers["c3_prime_mhz_um3"]),
        "gamma_p": from_mhz(numbers["gamma_p_mhz"]),
    }
    return config, extras


def load_pair_system(name_or_path: str):
    """Load a bundled preset by name, or any channel file by path."""
    if name_or_path in PRESETS:
        text = (
            resources.files("rydsim.data")
            .joinpath(f"{name_or_path}.channels")
            .read_text(encoding="utf-8")
        )
        return parse_channel_file(text, source=name_or_path)
    path = Path(name_or_path)
    if not path.exists():
        raise ConfigError(
            f"pair system {name_or_path!r} is neither a preset {PRESETS} "
            "nor an existing file"
        )
    return parse_channel_file(path.read_text(encoding="utf-8"), source=str(path))

"""Run configuration: file parsing, defaults and physical-object assembly.

Config files are flat ``key = value`` text; unknown keys are rejected
with line diagnostics and every physical override is validated against
the type invariants before any computation starts.  An empty file means
"all defaults", which are the published experimental parameters of the
reference setup.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .atomic_states import PairConfig, channel_set, forster_defect, resonance_fields
from .detection import count_window
from .ensemble import ExperimentGeometry, PhotonStats
from .errors import ConfigError
from .interaction import InteractionParams, effective_c6
from .presets import load_pair_system
from .propagation import R_MIN, PropagationParams
from .spinwave import retrieval_work_bytes
from .units import C_LIGHT, from_mhz, to_mhz

SCAN_TYPES = ("starkmap", "gain-scan", "fidelity-scan", "retrieval", "oracle-check")

SCHEMA_VERSION = 1

# Bound on the work of one Poisson-mixture call of the fidelity scan:
# samples x (k_max + 1) count cells, one exp each, counted as the bytes
# they would take as float64.
_MAX_MIXTURE_CELL_BYTES = 2**30

# Bound on the complex fields x samples amplitude table that the one
# `transmission_batch` call of a gain or fidelity scan returns.
_MAX_TRANSPORT_TABLE_BYTES = 2**30

# Bound on the retrieval scan's work arrays (`spinwave.retrieval_work_bytes`).
_MAX_RETRIEVAL_WORK_BYTES = 2**30

# Most points of a field grid: the Stark map writes a row per field and
# channel, and every scan echoes the grid into summary.json.
_MAX_FIELD_POINTS = 2**16

# Most parameter sets of the time-domain oracle check: it builds every set
# before the first solve and writes a CSV row per set.
_MAX_ORACLE_SETS = 2**16

# Upper end of the Stark range searched for resonances (V/cm).
_FIELD_MAX = 2.0

# Defaults follow the reference experiment:
#   beam waist 6.2 um; cloud 1/e half-length 40 um, radius 10 um,
#   2e4 atoms; storage efficiency 60%, detection efficiency 30%;
#   spin-wave lifetime 3.6 us, storage time 4.2 us; source rate 35 /us
#   on the isolated resonance.
# g0 is chosen to give a peak optical depth of 25 for that cloud; the
# remaining rates are typical EIT settings consistent with the observed
# gain and fidelity scale.
_DEFAULTS = {
    "pair_system": "rb87_50s48s",
    "samples": 2000,
    "seed": 12345,
    "output_dir": ".",
    "field_grid": [],
    "rate_grid": [5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0],
    "source_means": [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.5, 8.0, 10.0,
                     13.0, 16.0, 20.0, 25.0, 32.0, 40.0, 52.0, 66.0, 85.0,
                     110.0, 140.0],
    # geometry
    "beam_waist": 6.2,
    "cloud_half_length": 40.0,
    "cloud_radius": 10.0,
    "atom_number": 2.0e4,
    # propagation (plain MHz where suffixed)
    "g0": 33477.0,
    "omega_rabi_mhz": 5.0,
    "gamma_mhz": 3.03,
    "gamma_s_mhz": 0.10,
    "omega_mhz": 0.0,
    "speed_of_light": C_LIGHT,
    # photon statistics
    "gate_mean_in": 1.0,
    "source_rate": 35.0,
    "pulse_length": 40.0,
    "storage_efficiency": 0.6,
    "detector_efficiency": 0.3,
    "dephasing_per_photon": 6.48e-4,
    "rate_ceiling": 200.0,
    # retrieval model
    "retrieval_eta0": 0.25,
    "storage_time": 4.2,
    "intrinsic_lifetime": 3.6,
    "retrieval_field": -1.0,  # < 0 means: first resonance of the preset
    "retrieval_offsets": 12,
    # oracle check
    "oracle_sets": 10,
    "spinwave_points": 201,
}

_STRING_KEYS = {"pair_system", "output_dir"}
_INT_KEYS = {"samples", "seed", "oracle_sets", "retrieval_offsets", "spinwave_points"}
_LIST_KEYS = {"field_grid", "rate_grid", "source_means"}
_GRID_SHORTHAND = {"field_start", "field_stop", "field_points"}


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved run description (all defaults applied)."""

    scan: str
    values: dict

    def __post_init__(self):
        if self.scan not in SCAN_TYPES:
            raise ConfigError(f"unknown scan type {self.scan!r}; expected {SCAN_TYPES}")
        _validate(self.values)

    def __getattr__(self, name):
        try:
            return self.values[name]
        except KeyError:
            raise AttributeError(name)

    def echo(self) -> dict:
        """Canonical JSON-serializable snapshot that determines the run."""
        out = {"scan": self.scan, "schema_version": SCHEMA_VERSION}
        # output_dir is where results land, not part of what they contain;
        # leaving it out keeps equal-config runs byte-identical
        out.update(
            {k: self.values[k] for k in sorted(self.values) if k != "output_dir"}
        )
        return out

    def content_hash(self) -> str:
        blob = json.dumps(self.echo(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _validate(values: dict) -> None:
    unknown = set(values) - set(_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    # NaN passes every < and <= check below, and inf passes the >= 0 ones
    for name in sorted(set(_DEFAULTS) - _STRING_KEYS - _INT_KEYS - _LIST_KEYS):
        if not math.isfinite(values[name]):
            raise ConfigError(f"{name} must be finite, got {values[name]}")
    for name in ("storage_efficiency", "detector_efficiency"):
        v = values[name]
        if not 0.0 <= v <= 1.0:
            raise ConfigError(f"{name} must lie in [0, 1], got {v}")
    for name in (
        "beam_waist", "cloud_half_length", "cloud_radius", "atom_number",
        "g0", "omega_rabi_mhz", "gamma_mhz", "speed_of_light",
        "intrinsic_lifetime", "pulse_length",
    ):
        if values[name] <= 0:
            raise ConfigError(f"{name} must be > 0, got {values[name]}")
    for name in (
        "gamma_s_mhz", "gate_mean_in", "source_rate",
        "dephasing_per_photon", "storage_time", "retrieval_eta0",
    ):
        if values[name] < 0:
            raise ConfigError(f"{name} must be >= 0, got {values[name]}")
    # a negative seed cannot seed numpy's generator; a size beyond int64
    # cannot be allocated, and converting it to float can overflow
    if values["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {values['seed']}")
    for name in sorted(_INT_KEYS - {"seed"}):
        if values[name] >= 2**63:
            raise ConfigError(f"{name} must be < 2**63, got {values[name]}")
    # one sample has no standard error: the gain error bar would read 0
    if values["samples"] < 2:
        raise ConfigError(f"samples must be >= 2, got {values['samples']}")
    if values["oracle_sets"] < 1:
        raise ConfigError("oracle_sets must be >= 1")
    if values["oracle_sets"] > _MAX_ORACLE_SETS:
        raise ConfigError(
            f"oracle_sets must be <= {_MAX_ORACLE_SETS}, got {values['oracle_sets']}"
        )
    # a field grid holds dc field magnitudes
    fields = np.asarray(values["field_grid"], dtype=float)
    if fields.size > _MAX_FIELD_POINTS:
        raise ConfigError(
            f"field_grid has {fields.size} points, above the limit of "
            f"{_MAX_FIELD_POINTS}"
        )
    if not np.all(np.isfinite(fields) & (fields >= 0)):
        raise ConfigError("field_grid entries must be finite and >= 0")
    if np.any(np.diff(fields) < 0):
        raise ConfigError("field_grid must be sorted ascending")
    if len(values["rate_grid"]) == 0:
        raise ConfigError("rate_grid must not be empty")
    # a rate sets a Poisson mean, so it must be a finite non-negative number
    rates = np.asarray(values["rate_grid"], dtype=float)
    if not np.all(np.isfinite(rates) & (rates >= 0)):
        raise ConfigError("rate_grid entries must be finite and >= 0")
    # each Poisson-mixture call of fidelity_scan evaluates samples x
    # (k_max + 1) count cells (it holds only a block of them at a time); the
    # transmitted intensity is at most 1, which bounds the mean
    mu_max = (values["detector_efficiency"] * float(rates.max())
              * values["pulse_length"])
    cell_bytes = values["samples"] * (count_window(mu_max) + 1.0) * 8.0
    if not cell_bytes <= _MAX_MIXTURE_CELL_BYTES:  # also catches inf and NaN
        raise ConfigError(
            f"fidelity Poisson mixture evaluates {cell_bytes / 2**30:.3g} GiB "
            f"of float64 count cells per call, above the "
            f"{_MAX_MIXTURE_CELL_BYTES / 2**30:g} GiB limit; lower samples, "
            "rate_grid, pulse_length or detector_efficiency"
        )
    # a retrieval field beyond the searched Stark range lies past every
    # resonance, where the gate barely scatters the source photons
    if values["retrieval_field"] > _FIELD_MAX:
        raise ConfigError(
            f"retrieval_field must be <= {_FIELD_MAX:g} V/cm, the searched Stark "
            f"range (< 0 for the first resonance), got {values['retrieval_field']}"
        )
    if not 0.0 <= values["retrieval_eta0"] <= 1.0:
        raise ConfigError("retrieval_eta0 must lie in [0, 1]")
    # the spin-wave grid needs two points for its gradient and its norm
    if values["spinwave_points"] < 2:
        raise ConfigError(
            f"spinwave_points must be >= 2, got {values['spinwave_points']}"
        )
    if values["retrieval_offsets"] < 1:
        raise ConfigError(
            f"retrieval_offsets must be >= 1, got {values['retrieval_offsets']}"
        )
    work_bytes = retrieval_work_bytes(values["spinwave_points"],
                                      values["retrieval_offsets"],
                                      len(values["source_means"]))
    if work_bytes > _MAX_RETRIEVAL_WORK_BYTES:
        raise ConfigError(
            f"retrieval work arrays take {work_bytes / 2**30:.3g} GiB, above the "
            f"{_MAX_RETRIEVAL_WORK_BYTES / 2**30:g} GiB limit; lower "
            "spinwave_points or retrieval_offsets"
        )
    if len(values["source_means"]) == 0:
        raise ConfigError("source_means must not be empty")
    # a mean sets a Poisson photon number; NaN also slips past min()
    if not all(map(math.isfinite, values["source_means"])):
        raise ConfigError("source_means must all be finite")
    if min(values["source_means"]) < 0:
        raise ConfigError("source_means must all be >= 0")
    # the headline interpolates the retrieval curve over the means
    if np.any(np.diff(values["source_means"]) < 0):
        raise ConfigError("source_means must be sorted ascending")


def _parse_scalar(key: str, raw: str, source: str, lineno: int):
    if key in _STRING_KEYS:
        return raw
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _LIST_KEYS:
            return [float(v) for v in raw.split(",") if v.strip()]
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {raw!r}") from exc


def load_config(
    path: Optional[str],
    scan: str,
    overrides: Optional[dict] = None,
) -> RunConfig:
    """Load a config file (may be absent or empty) and apply CLI overrides."""
    values = dict(_DEFAULTS)
    shorthand = {}
    if path is not None:
        text = Path(path).read_text(encoding="utf-8")
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (p.strip() for p in line.split("=", 1))
            if key in _GRID_SHORTHAND:
                shorthand[key] = _parse_scalar(key, value, path, lineno)
                continue
            if key not in _DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _parse_scalar(key, value, path, lineno)
    for key, value in (overrides or {}).items():
        if key in _GRID_SHORTHAND:
            if isinstance(value, str):
                value = _parse_scalar(key, value, "<override>", 0)
            shorthand[key] = float(value)
            continue
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown override key {key!r}")
        if isinstance(value, str):
            values[key] = _parse_scalar(key, value, "<override>", 0)
        else:
            values[key] = value
    if shorthand:
        missing = _GRID_SHORTHAND - set(shorthand)
        if missing:
            raise ConfigError(f"incomplete field grid shorthand; missing {sorted(missing)}")
        for key in ("field_start", "field_stop"):
            if not math.isfinite(shorthand[key]):
                raise ConfigError(f"{key} must be finite, got {shorthand[key]}")
        points = shorthand["field_points"]
        # an empty grid would fall back to the default one; the upper bound
        # is checked before the grid is built
        if not (points.is_integer() and 1 <= points <= _MAX_FIELD_POINTS):
            raise ConfigError(
                f"field_points must be an integer >= 1 and <= "
                f"{_MAX_FIELD_POINTS}, got {points}"
            )
        values["field_grid"] = list(
            np.linspace(shorthand["field_start"], shorthand["field_stop"], int(points))
        )
    return RunConfig(scan=scan, values=values)


@dataclass(frozen=True)
class SimulationSetup:
    """Physical objects assembled from a RunConfig."""

    pair: PairConfig
    geometry: ExperimentGeometry
    params: PropagationParams
    interaction: InteractionParams
    stats: PhotonStats
    config: RunConfig

    @property
    def resonance_field(self) -> float:
        roots = resonance_fields(self.pair, field_max=_FIELD_MAX)
        if not roots:
            raise ConfigError(
                f"pair system {self.pair.name!r} has no resonance below "
                f"{_FIELD_MAX:g} V/cm"
            )
        return roots[0][0]

    def default_field_grid(self) -> np.ndarray:
        res = self.resonance_field
        if res > 0.4:
            return np.linspace(res - 0.1, res + 0.1, 101)
        return np.linspace(0.0, 0.25, 126)


def build_setup(config: RunConfig) -> SimulationSetup:
    """Resolve the pair system and build all parameter objects."""
    pair, extras = load_pair_system(config.pair_system)
    geometry = ExperimentGeometry(
        beam_waist=config.beam_waist,
        cloud_half_length=config.cloud_half_length,
        cloud_radius=config.cloud_radius,
        atom_number=config.atom_number,
    )
    # an extreme cloud_radius underflows or overflows the density formula
    try:
        density = geometry.peak_density
    except (ZeroDivisionError, OverflowError):
        density = math.nan
    g_peak = config.g0 * math.sqrt(density)
    # g0 is finite and > 0, so this also rejects a NaN, inf or zero density
    if not (math.isfinite(g_peak) and g_peak > 0.0):
        raise ConfigError(
            f"cloud geometry gives peak density {density:g} um^-3 and "
            f"g_peak {g_peak:g}; both must be finite and > 0"
        )
    # an extreme beam_waist underflows or overflows the gate's transverse
    # spread, which the gain, fidelity and retrieval scans sample from
    try:
        sigma = geometry.gate_transverse_sigma
    except (ZeroDivisionError, OverflowError):
        sigma = math.nan
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ConfigError(
            f"beam_waist = {config.beam_waist:g} um gives the gate a transverse "
            f"spread of {sigma:g} um; it must be finite and > 0"
        )
    omega_rabi = from_mhz(config.omega_rabi_mhz)
    # the transport formulas square both couplings
    for name, rate in (("g_peak", g_peak), ("omega_rabi", omega_rabi)):
        if not math.isfinite(rate * rate):
            raise ConfigError(
                f"{name} = {rate:g} rad/us is too large: its square overflows"
            )
    # the transport and spin-wave grids square distances across the
    # integration span, 3 cloud half-lengths either side of the centre
    span = 6.0 * geometry.cloud_half_length
    if not math.isfinite(span * span):
        raise ConfigError(
            f"cloud_half_length = {geometry.cloud_half_length:g} um is too "
            f"large: the square of its {span:g} um integration span overflows"
        )
    # the blockade kernel squares Im a - beta, beta = gamma/d^6 with d
    # clamped at R_MIN
    gamma = from_mhz(config.gamma_mhz)
    beta_max = gamma / R_MIN**6
    if not math.isfinite(beta_max * beta_max):
        raise ConfigError(
            f"gamma = {gamma:g} rad/us is too large: the blockade term's "
            f"gamma/R_MIN^6 = {beta_max:g} overflows when squared"
        )
    params = PropagationParams(
        g=g_peak,
        omega_rabi=omega_rabi,
        gamma=gamma,
        gamma_s=from_mhz(config.gamma_s_mhz),
        omega=from_mhz(config.omega_mhz),
        c=config.speed_of_light,
        cloud_half_length=geometry.cloud_half_length,
        profile="gaussian",
    )
    # the channels resonance_fields sees, so V_ef and the Stark map agree
    channels = tuple(channel_set(pair))
    # the fixed-gate model needs hopping C3' << C3; as a product, c3 = 0
    # needs no special case
    c3_main = max((ch.c3 for ch in channels), default=0.0)
    if extras["c3_prime"] > 0.1 * c3_main:
        warnings.warn(
            f"pair system {config.pair_system!r}: hopping coupling c3_prime = "
            f"{to_mhz(extras['c3_prime']):.3g} MHz um^3 exceeds 0.1 * c3 = "
            f"{to_mhz(0.1 * c3_main):.3g} MHz um^3; the fixed-gate "
            "approximation degrades here",
            stacklevel=2,
        )
    interaction = InteractionParams(gamma_p=extras["gamma_p"], channels=channels)
    # the blockade kernel squares a = Omega^2/C6, which grows with the
    # detuning (far detuned, C6 ~ -sum c3^2/omega at every field); it is
    # checked at zero field and at each field of an explicit grid, whose
    # Förster defects square the field
    fields = np.array([0.0, *config.field_grid])
    with np.errstate(all="ignore"):
        c6 = np.broadcast_to(effective_c6(params.omega, fields, interaction), fields.shape)
        a = np.abs(omega_rabi**2 / np.where(c6 != 0.0, c6, np.inf))  # 0 where C6 = 0
        defects = [forster_defect(ch, fields) for ch in pair.channels]
    for k, (field, a_k, *defect) in enumerate(zip(fields.tolist(), a.tolist(), *defects)):
        if not all(map(math.isfinite, defect)):
            raise ConfigError(
                f"a channel's Förster defect at {field:g} V/cm is not finite"
            )
        if not math.isfinite(a_k * a_k):
            cause = (f"omega = {params.omega:g} rad/us" if k == 0
                     else f"field_grid entry {field:g} V/cm")
            raise ConfigError(f"{cause} is too large: the blockade term's "
                              f"|Omega^2/C6| = {a_k:g} overflows when squared")
    # Omega^2 divides the EIT term of chi, g^2 (omega + i gamma_s) / Omega^2.
    # The scans sum that term over the cloud, where it must stay finite, and
    # numpy divides by Omega^2 through its reciprocal, which must too; the
    # larger of the two bounds is checked.  (eit_baseline's exponent also
    # divides by c: a small speed_of_light is left to the scans' checks.)
    omega_sq = omega_rabi * omega_rabi
    eit = (g_peak**2 * float(params.effective_length)
           * math.hypot(params.omega, params.gamma_s))
    if omega_sq == 0.0 or not math.isfinite(max(eit, 1.0) / omega_sq):
        raise ConfigError(
            f"omega_rabi = {omega_rabi:g} rad/us is too small: the cloud's "
            f"EIT term g^2 L |omega + i gamma_s| / Omega^2 = {eit:g} / "
            f"{omega_sq:g} overflows"
        )
    stats = PhotonStats(
        gate_mean_in=config.gate_mean_in,
        source_rate=config.source_rate,
        pulse_length=config.pulse_length,
        storage_efficiency=config.storage_efficiency,
        detector_efficiency=config.detector_efficiency,
        dephasing_per_photon=config.dephasing_per_photon,
    )
    setup = SimulationSetup(
        pair=pair,
        geometry=geometry,
        params=params,
        interaction=interaction,
        stats=stats,
        config=config,
    )
    # the gain and fidelity scans hold every field's complex amplitudes
    # for every sample in one table
    if config.scan in ("gain-scan", "fidelity-scan"):
        n_fields = len(config.field_grid) or setup.default_field_grid().size
        table_bytes = 16 * n_fields * config.samples
        if table_bytes > _MAX_TRANSPORT_TABLE_BYTES:
            raise ConfigError(
                f"{config.scan} transport table of {n_fields} fields x "
                f"{config.samples} samples takes {table_bytes / 2**30:.3g} GiB, "
                f"above the {_MAX_TRANSPORT_TABLE_BYTES / 2**30:g} GiB limit; "
                "lower samples or the field grid's points"
            )
    return setup

"""Desk-scale simulation of Stark-tuned Forster-resonance enhanced
Rydberg single-photon nonlinearities: polariton transmission past a
stored gate excitation, transistor gain and detection fidelity versus
electric field, and spin-wave retrieval decoherence."""

from .atomic_states import (
    PairChannel,
    PairConfig,
    RydbergLevel,
    channel_set,
    forster_defect,
    resonance_fields,
)
from .ensemble import (
    ExperimentGeometry,
    PhotonStats,
    field_scan,
    nondestructive_limit,
    optical_gain,
)
from .interaction import (
    InteractionParams,
    blockade_radius,
    hopping_suppression,
)
from .propagation import (
    PropagationParams,
    TransmissionResult,
    eit_baseline,
    transmission_freq,
    transmission_time_oracle,
)

__version__ = "0.1.0"

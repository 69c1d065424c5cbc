"""Property tests of the transport solvers on random oracle sets."""

import dataclasses
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rydsim.atomic_states import PairChannel, RydbergLevel  # noqa: E402
from rydsim.interaction import InteractionParams  # noqa: E402
from rydsim.propagation import (  # noqa: E402
    PropagationParams,
    transmission_batch,
    transmission_freq,
    transmission_time_oracle,
)

_LEVEL = RydbergLevel(n=50, l="P", j=0.5, m_j=0.5)


@st.composite
def _oracle_sets(draw):
    """A slow-light set drawn as `runner._oracle_parameter_sets` draws one,
    with 1-3 channels, either density profile and an on-axis gate."""
    unit = st.floats(0.0, 1.0)
    gamma = 4.0 + 4.0 * draw(unit)
    omega_rabi = gamma * (1.2 + draw(unit))
    floor = 0.01 * min(omega_rabi, gamma)
    gamma_s = floor * 10 ** -draw(unit)
    gamma_p = floor * 10 ** -draw(unit)
    half_len = 12.0 + 8.0 * draw(unit)
    od = 1.5 + 2.5 * draw(unit)
    c = 300.0
    g = math.sqrt(od * c * gamma / (2.0 * 2.0 * half_len))
    channels = []
    for _ in range(draw(st.integers(1, 3))):
        r_b = 2.5 + 2.0 * draw(unit)
        defect = 50.0 * draw(unit) - 25.0
        c3 = math.sqrt(r_b**6 * omega_rabi**2 / gamma * abs(defect - 1j * gamma_p))
        channels.append(PairChannel(
            gate_state=_LEVEL, source_state=_LEVEL, defect_zero_field=defect,
            diff_polarizability=0.0, c3=c3,
        ))
    gate_z = (0.8 * draw(unit) - 0.4) * half_len
    # the uniform slab ends inside the span; the Gaussian keeps its default
    # 3 L span, whose truncated tails `eit_baseline` does not see
    profile = draw(st.sampled_from(["uniform", "gaussian"]))
    params = PropagationParams(
        g=g, omega_rabi=omega_rabi, gamma=gamma, gamma_s=gamma_s, c=c,
        cloud_half_length=half_len, profile=profile,
        z_extent=half_len + 6.0 if profile == "uniform" else 0.0,
    )
    return params, InteractionParams(gamma_p=gamma_p, channels=channels), gate_z


@settings(max_examples=36, deadline=None)
@given(case=_oracle_sets())
def test_steady_state_graded_grid_and_quadrature_agree(case):
    params, inter, gate_z = case
    gate = (0.0, 0.0, gate_z)
    ref = transmission_freq((0.0, 0.0), gate, params, inter)
    (steady,) = transmission_time_oracle([case])
    batch = transmission_batch(np.zeros((1, 2)), np.array([gate]), params, inter)
    # the criterion-3 bound, and the bound of TestBatchSolver
    assert abs(steady.intensity - ref.intensity) <= 0.01
    assert abs(batch[0] - ref.amplitude) <= 2e-3


@settings(max_examples=30, deadline=None)
@given(case=_oracle_sets(), data=st.data())
def test_batch_is_passive(case, data):
    # off-axis paths and gates, Stark-tuned channels and a field grid:
    # |t| <= 1, up to the roundoff of exp's cos and sin
    params, inter, _ = case
    channels = [dataclasses.replace(ch, diff_polarizability=data.draw(
        st.floats(-50.0, 50.0))) for ch in inter.channels]
    inter = dataclasses.replace(inter, channels=channels)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = 40
    span = params.z_extent
    gates = np.column_stack([rng.normal(0.0, 4.0, size=(n, 2)),
                             rng.uniform(-span, span, size=n)])
    fields = np.sort(rng.uniform(0.0, 1.5, size=4))
    amps = transmission_batch(rng.normal(0.0, 4.0, size=(n, 2)), gates, params,
                              inter, fields, density_scale=rng.uniform(0.0, 1.0, n))
    assert amps.shape == (4, n)
    assert np.all(np.abs(amps) <= 1.0 + 4 * np.finfo(float).eps)

"""Property tests of the spin-wave channel on random uniform grids."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rydsim.spinwave import photon_channel  # noqa: E402
from test_spinwave import _assert_matches_dense_reference  # noqa: E402

_offsets = st.tuples(st.floats(-12.0, 12.0), st.floats(-12.0, 12.0))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=2, max_value=81),
       half_span=st.floats(min_value=10.0, max_value=120.0),
       gate=_offsets, source=_offsets,
       scale=st.floats(min_value=0.0, max_value=2.0),
       field=st.floats(min_value=0.0, max_value=2.0))
def test_channel_matches_dense_reference_on_random_grids(
        setup, n, half_span, gate, source, scale, field):
    grid = np.linspace(-half_span, half_span, n)
    # constructing the channel runs its Kraus completeness check
    ch = photon_channel(grid, setup.params, setup.interaction, field,
                        gate_offset=gate, source_offset=source, density_scale=scale)
    _assert_matches_dense_reference(ch.transmit[0], ch.scatter[0], grid, setup, field,
                                    gate, source, scale)
    total = np.abs(ch.transmit) ** 2 + np.sum(np.abs(ch.scatter) ** 2, axis=-2)
    assert np.max(np.abs(total - 1.0)) <= 1e-12

"""Property tests of the spin-wave channel on random uniform grids."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_spinwave import _assert_matches_dense_reference, _path_channel  # noqa: E402

_offsets = st.tuples(st.floats(-12.0, 12.0), st.floats(-12.0, 12.0))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=2, max_value=81),
       half_span=st.floats(min_value=10.0, max_value=120.0),
       gate=_offsets,
       paths=st.lists(st.tuples(_offsets, st.floats(min_value=0.0, max_value=2.0)),
                      min_size=1, max_size=3),
       field=st.floats(min_value=0.0, max_value=2.0))
def test_channel_matches_dense_reference_on_random_grids(
        setup, n, half_span, gate, paths, field):
    # a block of 1 to 3 paths on the field grid [resonance, drawn field]
    grid = np.linspace(-half_span, half_span, n)
    fields = np.array([setup.resonance_field, field])
    sources = np.array([source for source, _ in paths]).reshape(-1, 2)
    scales = np.array([scale for _, scale in paths])
    args = (grid, setup.params, setup.interaction, fields, gate)
    # constructing the channel runs its Kraus completeness check
    ch = _path_channel(*args, sources, scales)
    for k in range(fields.size):
        for j, (source, scale) in enumerate(paths):
            _assert_matches_dense_reference(ch.transmit[k, j], ch.scatter[k, j], grid,
                                            setup, float(fields[k]), gate, source, scale)
    total = np.abs(ch.transmit) ** 2 + np.sum(np.abs(ch.scatter) ** 2, axis=-2)
    assert total.shape == (2, len(paths), n)
    assert np.max(np.abs(total - 1.0)) <= 1e-12
    # the block's D is the mean of its paths' own, up to the summation order:
    # an entry of the block's product sums 2p(n + 1) terms, a path's own
    # 2(n + 1), and each path's terms sum to at most 1 in magnitude (its
    # rows have unit norm), so each sum is off by at most its length times
    # the unit roundoff; p + 2 more roundings take the means
    singles = [_path_channel(*args, sources[j:j + 1], scales[j:j + 1]).decoherence_matrix
               for j in range(len(paths))]
    n_terms = 2 * (len(paths) + 1) * (n + 1) + len(paths) + 2
    err = np.max(np.abs(ch.decoherence_matrix - np.mean(singles, axis=0)))
    assert err <= n_terms * 2.0**-53

"""Property tests of the Poisson-mixture kernel over random mixtures."""

import numpy as np
import pytest
import scipy.stats as sps

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rydsim.detection import poisson_mixture_pmf  # noqa: E402

_means = st.lists(
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    min_size=1, max_size=20,
)


@settings(max_examples=200, deadline=None)
@given(mus=_means, k_max=st.integers(min_value=0, max_value=1500))
def test_mixture_pmf_is_a_truncated_distribution(mus, k_max):
    mus = np.array(mus)
    pmf = poisson_mixture_pmf(mus, k_max)
    assert pmf.shape == (k_max + 1,)
    assert np.all(pmf >= 0.0)
    # the only missing mass is the Poisson tail beyond k_max
    tail = sps.poisson.sf(k_max, mus).mean()
    assert pmf.sum() == pytest.approx(1.0 - tail, abs=1e-12)

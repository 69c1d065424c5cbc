"""Property test of the config boundary: extreme values on every scan."""

import tempfile
import warnings

import pytest

pytest.importorskip("hypothesis")
from click.testing import CliRunner  # noqa: E402
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rydsim.cli import main  # noqa: E402
from rydsim.config import (  # noqa: E402
    _DEFAULTS,
    _INT_KEYS,
    _STRING_KEYS,
    SCAN_TYPES,
)

# small grids, so a run that is not rejected takes milliseconds
_BASE = {"field_start": "0.70", "field_stop": "0.72", "field_points": "3",
         "samples": "20", "rate_grid": "10", "retrieval_offsets": "1",
         "spinwave_points": "11", "oracle_sets": "1"}

_FLOAT_EXTREMES = ("0", "-1", "1e-30", "1e30", "1e-300", "1e300",
                   "nan", "inf", "-inf")
# the sizes beyond int64 and a float where an int is due
_INT_EXTREMES = ("0", "-1", str(2**63), "1" + "0" * 400, "1e30")
# sizes that would allocate gigabytes, which the config bounds reject
_SIZE_EXTREMES = {
    "samples": ("1000000000",),
    "oracle_sets": ("65537", "1000000000"),
    "spinwave_points": ("100000", "1000000000"),
    "retrieval_offsets": ("100000", "1000000000"),
    "field_points": ("65537", "1e9"),
}


@st.composite
def _extremes(draw):
    """A (key, extreme value) pair: the key first, so every key is as likely."""
    # the grid shorthand replaces field_grid, so field_grid is left out
    keys = sorted(set(_DEFAULTS) - _STRING_KEYS - {"field_grid"})
    key = draw(st.sampled_from(keys + ["field_start", "field_stop", "field_points"]))
    values = _INT_EXTREMES if key in _INT_KEYS else _FLOAT_EXTREMES
    return key, draw(st.sampled_from(values + _SIZE_EXTREMES.get(key, ())))


# cases that once exited 0 after a numpy overflow warning: the field's
# square in the Förster defect, gamma/R_MIN^6 squared in the blockade
# kernel, and exp(mu (Re D - 1)) at a huge source mean
_OVERFLOW_CASES = (
    [(scan, ("field_stop", "1e300")) for scan in ("starkmap", "gain-scan", "fidelity-scan")]
    + [(scan, ("gamma_mhz", "1e300")) for scan in ("gain-scan", "fidelity-scan", "retrieval")]
    + [("retrieval", ("source_means", v)) for v in ("1e30", "1e300")]
)


def _with_examples(test):
    for scan, case in _OVERFLOW_CASES:
        test = example(scan=scan, case=case)(test)
    return test


@settings(max_examples=300, deadline=None)
@_with_examples
@given(scan=st.sampled_from(SCAN_TYPES), case=_extremes())
def test_extreme_value_exits_cleanly(scan, case):
    # exit 0, 2 (config error) or 3 (numerical failure), never a raw
    # exception; numpy's overflow warnings are recorded, not raised, since
    # some exit-3 paths pass through them, but an exit-0 run has none
    key, value = case
    args = [scan]
    for k, v in {**_BASE, key: value}.items():
        args += ["--set", f"{k}={v}"]
    with (tempfile.TemporaryDirectory() as out,
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        result = CliRunner().invoke(main, [*args, "--out", out])
    assert result.exit_code in (0, 2, 3), (result.exit_code, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.stderr
    if result.exit_code == 0:
        runtime = [str(w.message) for w in caught
                   if issubclass(w.category, RuntimeWarning)]
        assert runtime == [], runtime
    if result.exit_code == 2:
        assert "config error:" in result.stderr

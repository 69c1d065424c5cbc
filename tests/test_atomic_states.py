"""Pair-state defects, resonance fields and channel selection rules."""

import math

import numpy as np
import pytest

from rydsim.atomic_states import (
    PairChannel,
    PairConfig,
    RydbergLevel,
    channel_set,
    defect_table,
    forster_defect,
    resonance_fields,
)
from rydsim.errors import ChannelError
from rydsim.presets import load_pair_system
from rydsim.units import from_mhz, to_mhz


def _level(n, l, j, m_j):
    return RydbergLevel(n=n, l=l, j=j, m_j=m_j)


def _channel(d0_mhz, alpha_mhz, zeeman_mhz=0.0, c3=1.0, m_gate=0.5, m_source=0.5):
    return PairChannel(
        gate_state=_level(49, "P", 0.5, m_gate),
        source_state=_level(48, "P", 0.5, m_source),
        defect_zero_field=from_mhz(d0_mhz),
        diff_polarizability=from_mhz(alpha_mhz),
        zeeman_shift=from_mhz(zeeman_mhz),
        c3=c3,
    )


def _pair(channels, theta=0.0):
    return PairConfig(
        s_pair=(_level(50, "S", 0.5, 0.5), _level(48, "S", 0.5, 0.5)),
        channels=channels,
        theta=theta,
    )


class TestDefect:
    def test_quadratic_field_dependence(self):
        ch = _channel(10.0, 4.0, zeeman_mhz=1.5)
        for field in (0.0, 0.3, 1.0, 2.5):
            expected = from_mhz(10.0 - 4.0 * field**2 + 1.5)
            assert forster_defect(ch, field) == pytest.approx(expected, rel=1e-12)

    def test_vectorized_over_fields(self):
        ch = _channel(10.0, 4.0)
        fields = np.linspace(0.0, 2.0, 7)
        vals = forster_defect(ch, fields)
        assert vals.shape == fields.shape
        assert np.allclose(vals, [forster_defect(ch, f) for f in fields])

    def test_defect_table_shape_and_units(self):
        pair = _pair([_channel(10.0, 4.0), _channel(5.0, 2.0)])
        fields = [0.0, 1.0]
        table = defect_table(pair, fields)
        assert table.shape == (2, 2)
        # plain-MHz output at zero field equals the configured zero-field defect
        assert table[0, 0] == pytest.approx(10.0, rel=1e-12)
        assert table[0, 1] == pytest.approx(5.0, rel=1e-12)
        assert table[1, 0] == pytest.approx(6.0, rel=1e-12)


class TestResonanceFields:
    def test_single_root_at_sqrt_ratio(self):
        pair = _pair([_channel(9.0, 4.0)])
        roots = resonance_fields(pair, 2.0)
        assert len(roots) == 1
        assert roots[0][0] == pytest.approx(1.5, abs=1e-5)
        assert roots[0][1] == 0

    def test_no_root_when_polarizability_pushes_away(self):
        # defect grows with field^2 when diff_polarizability < 0 is not
        # allowed, so use a defect that never crosses in range instead
        pair = _pair([_channel(100.0, 1.0)])
        assert resonance_fields(pair, 2.0) == []

    def test_field_max_validation(self):
        pair = _pair([_channel(9.0, 4.0)])
        with pytest.raises(ValueError):
            resonance_fields(pair, 0.0)

    def test_preset_50s48s_resonance(self):
        pair, _ = load_pair_system("rb87_50s48s")
        roots = resonance_fields(pair, 1.5)
        assert len(roots) == 1
        assert roots[0][0] == pytest.approx(0.710, abs=5e-4)

    def test_preset_66s64s_four_resonances(self):
        pair, _ = load_pair_system("rb87_66s64s")
        roots = resonance_fields(pair, 0.3)
        fields = [r[0] for r in roots]
        assert fields == pytest.approx([0.080, 0.125, 0.170, 0.215], abs=1e-3)

    def test_root_at_zero_field(self):
        # c = defect_zero_field + zeeman_shift = 0: resonant at zero field
        pair = _pair([_channel(3.0, 4.0, zeeman_mhz=-3.0)])
        assert resonance_fields(pair, 2.0) == [(0.0, 0)]

    def test_root_at_field_max_is_kept(self):
        ch = _channel(9.0, 4.0)
        root = math.sqrt(ch.defect_zero_field / ch.diff_polarizability)
        assert resonance_fields(_pair([ch]), root) == [(root, 0)]
        assert resonance_fields(_pair([ch]), np.nextafter(root, 0.0)) == []

    def test_zero_polarizability_without_zero_defect_has_no_root(self):
        pair = _pair([_channel(5.0, 0.0)])
        assert resonance_fields(pair, 2.0) == []

    def test_preset_66s64s_roots_do_not_depend_on_field_max(self):
        pair, _ = load_pair_system("rb87_66s64s")
        near = resonance_fields(pair, 0.3)
        far = resonance_fields(pair, 2.0)
        assert len(near) == 4
        assert near == far
        for field, i in near:
            ch = pair.channels[i]
            assert field == math.sqrt(
                (ch.defect_zero_field + ch.zeeman_shift) / ch.diff_polarizability
            )


class TestChannelSelection:
    def test_theta_zero_filters_unbalanced_mj(self):
        keep = _channel(10.0, 4.0, m_gate=0.5, m_source=0.5)  # dm sum = 0
        drop = _channel(10.0, 4.0, m_gate=-0.5, m_source=0.5)  # dm sum = -1
        pair = _pair([keep, drop], theta=0.0)
        assert channel_set(pair) == [keep]

    def test_theta_nonzero_keeps_all(self):
        chans = [
            _channel(10.0, 4.0, m_gate=0.5, m_source=0.5),
            _channel(10.0, 4.0, m_gate=-0.5, m_source=0.5),
        ]
        pair = _pair(chans, theta=0.4)
        assert channel_set(pair) == chans

    def test_same_l_channel_rejected(self):
        bad = PairChannel(
            gate_state=_level(49, "S", 0.5, 0.5),
            source_state=_level(48, "P", 0.5, 0.5),
            defect_zero_field=from_mhz(10.0),
            diff_polarizability=from_mhz(4.0),
        )
        pair = _pair([bad])
        with pytest.raises(ChannelError):
            channel_set(pair)

    def test_s_pair_must_be_s_states(self):
        with pytest.raises(ChannelError):
            PairConfig(
                s_pair=(_level(49, "P", 0.5, 0.5), _level(48, "S", 0.5, 0.5)),
                channels=(),
            )


class TestRydbergLevel:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, l="S", j=0.5, m_j=0.5),
            dict(n=50, l="D", j=1.5, m_j=0.5),
            dict(n=50, l="S", j=1.5, m_j=0.5),
            dict(n=50, l="P", j=0.5, m_j=1.5),
            dict(n=50, l="P", j=1.5, m_j=0.25),
        ],
    )
    def test_invalid_levels_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RydbergLevel(**kwargs)

    def test_str_roundtrip_form(self):
        assert str(_level(50, "S", 0.5, 0.5)) == "50S1/2:mj=+0.5"


def test_units_roundtrip():
    assert to_mhz(from_mhz(3.7)) == pytest.approx(3.7, rel=1e-15)
    assert from_mhz(1.0) == pytest.approx(2.0 * np.pi, rel=1e-15)

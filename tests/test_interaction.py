"""The effective gate-source potential, its blockade scales and the
fixed-gate check on the hopping coupling."""

import warnings

import numpy as np
import pytest

from rydsim.atomic_states import PairChannel, RydbergLevel
from rydsim.config import build_setup, load_config
from rydsim.interaction import InteractionParams, blockade_radius, effective_c6
from rydsim.propagation import R_MIN, PropagationParams, chi_values
from rydsim.units import from_mhz


def _channel(d0_mhz, alpha_mhz, c3, weight=1.0):
    return PairChannel(
        gate_state=RydbergLevel(49, "P", 0.5, 0.5),
        source_state=RydbergLevel(48, "P", 0.5, 0.5),
        defect_zero_field=from_mhz(d0_mhz),
        diff_polarizability=from_mhz(alpha_mhz),
        c3=c3,
        weight=weight,
    )


class TestEffectivePotential:
    def test_far_detuned_limit_matches_perturbation_theory(self):
        # for |defect| >> gamma_p, omega the prefactor is sum c3^2/defect
        chans = [_channel(200.0, 1.0, c3=50.0), _channel(-350.0, 1.0, c3=80.0)]
        params = InteractionParams(gamma_p=from_mhz(0.05), channels=chans)
        got = effective_c6(0.0, 0.0, params)
        expected = sum(ch.coupling**2 / ch.defect_zero_field for ch in chans)
        assert got.real == pytest.approx(expected, rel=1e-3)
        assert abs(got.imag) < 1e-3 * abs(got.real)

    def test_resonant_prefactor_is_dissipative(self):
        gamma_p = from_mhz(0.15)
        ch = _channel(0.0, 1.0, c3=100.0)
        params = InteractionParams(gamma_p=gamma_p, channels=[ch])
        got = effective_c6(0.0, 0.0, params)
        assert got.real == pytest.approx(0.0, abs=1e-9)
        assert got.imag == pytest.approx(100.0**2 / gamma_p, rel=1e-12)

    def test_imaginary_part_nonnegative(self, rng):
        # positive imaginary part means absorption, never gain
        chans = [_channel(rng.uniform(-50, 50), rng.uniform(0.1, 30), c3=rng.uniform(1, 200))
                 for _ in range(6)]
        params = InteractionParams(gamma_p=from_mhz(0.2), channels=chans)
        for _ in range(200):
            omega = rng.uniform(-100.0, 100.0)
            field = rng.uniform(0.0, 2.0)
            assert effective_c6(omega, field, params).imag >= 0.0

    def test_r_minus_six_shape(self):
        # V_ef as the transport solvers apply it, recovered from the
        # blockade term chi = g^2 V / (Omega^2 - i gamma V) of chi_values;
        # with g = Omega = gamma = 1 and no EIT term, V = chi / (1 + i chi)
        ch = _channel(10.0, 1.0, c3=100.0)
        params = InteractionParams(gamma_p=from_mhz(0.15), channels=[ch])
        prop = PropagationParams(g=1.0, omega_rabi=1.0, gamma=1.0,
                                 cloud_half_length=10.0, profile="uniform")
        pref = effective_c6(0.0, 0.0, params)
        chi = chi_values(np.array([2.0, 4.0, -2.0, 0.0]), prop, pref, 0.0)
        v2, v4, v_minus2, _ = chi / (1.0 + 1j * chi)
        assert v2 / v4 == pytest.approx(2.0**6, rel=1e-12)
        # symmetric around the gate
        assert v_minus2 == pytest.approx(v2, rel=1e-12)
        # finite on top of the gate: the distance is clamped at R_MIN.  The
        # inversion above amplifies a 1-ulp change of chi about 1e4x there,
        # so this check runs forward: chi = V / (1 - i V) at V = pref/R_MIN^6
        v_gate = pref / R_MIN**6
        assert chi[3] == pytest.approx(v_gate / (1.0 - 1j * v_gate), rel=1e-12)


class TestScales:
    def test_blockade_radius_power_law(self):
        assert blockade_radius(64.0, 2.0, 1.0) == pytest.approx(
            (2.0 * 64.0) ** (1.0 / 6.0), rel=1e-12
        )
        with pytest.raises(ValueError):
            blockade_radius(0.0, 2.0, 1.0)

    def test_negative_couplings_rejected(self):
        with pytest.raises(ValueError, match="gamma_p"):
            InteractionParams(gamma_p=-1.0)


class TestFixedGateCheck:
    """`build_setup` warns once when the hopping coupling C3' is not small
    next to the largest direct C3 of the kept channels."""

    @pytest.mark.parametrize("preset", ["rb87_50s48s", "rb87_66s64s"])
    def test_presets_satisfy_fixed_gate_approximation(self, preset):
        # both presets sit at C3'/C3 of about 0.02
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_setup(load_config(None, "gain-scan", {"pair_system": preset}))

    def test_large_hopping_coupling_warns_once(self, tmp_path):
        path = tmp_path / "hopping.channels"
        path.write_text(
            "gate_s = 50S1/2 +1/2\n"
            "source_s = 48S1/2 +1/2\n"
            "c3_prime_mhz_um3 = 50.0\n"
            "[channel]\n"
            "gate = 49P1/2 +1/2\n"
            "source = 48P1/2 +1/2\n"
            "defect_zero_field_mhz = 10.0\n"
            "diff_polarizability_mhz = 19.8374\n"
            "c3_mhz_um3 = 100.0\n"
        )
        with pytest.warns(UserWarning) as record:
            build_setup(load_config(None, "gain-scan", {"pair_system": str(path)}))
        assert len(record) == 1
        assert "c3_prime" in str(record[0].message)

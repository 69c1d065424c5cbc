"""Source transmission: analytic limits, passivity and solver cross-checks."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from rydsim.atomic_states import PairChannel, RydbergLevel
from rydsim.config import build_setup, load_config
from rydsim.interaction import InteractionParams, effective_c6
from rydsim.propagation import (
    R_MIN,
    PropagationParams,
    _graded_grid,
    chi_values,
    eit_baseline,
    transmission_batch,
    transmission_freq,
    transmission_time_oracle,
)
from rydsim.units import C_LIGHT, from_mhz


def _resonant_interaction(c3, gamma_p):
    ch = PairChannel(
        gate_state=RydbergLevel(49, "P", 0.5, 0.5),
        source_state=RydbergLevel(48, "P", 0.5, 0.5),
        defect_zero_field=0.0,
        diff_polarizability=from_mhz(1.0),
        c3=c3,
    )
    return InteractionParams(gamma_p=gamma_p, channels=[ch])


class TestAnalyticLimits:
    def test_uniform_eit_baseline_closed_form(self):
        params = PropagationParams(
            g=2.0e4, omega_rabi=from_mhz(5.0), gamma=from_mhz(3.0),
            gamma_s=from_mhz(0.1), cloud_half_length=20.0, profile="uniform",
        )
        # transparent-window loss: exp(-2 g^2 gamma_s L_eff / (c Omega^2))
        expected = np.exp(
            -2.0 * params.g**2 * params.gamma_s * 40.0
            / (C_LIGHT * params.omega_rabi**2)
        )
        assert eit_baseline(params).intensity == pytest.approx(expected, rel=1e-12)
        got = transmission_freq((0.0, 0.0), None, params, rtol=1e-9)
        assert got.intensity == pytest.approx(expected, rel=1e-6)

    def test_gaussian_baseline_matches_quadrature(self, setup):
        closed = eit_baseline(setup.params).intensity
        quad = transmission_freq((0.0, 0.0), None, setup.params, rtol=1e-9).intensity
        # finite integration span truncates the Gaussian tails
        assert quad == pytest.approx(closed, rel=1e-4)

    def test_deep_blockade_reaches_two_level_absorption(self):
        params = PropagationParams(
            g=8.0e3, omega_rabi=from_mhz(5.0), gamma=from_mhz(3.0),
            gamma_s=0.0, cloud_half_length=5.0, profile="uniform", z_extent=5.0,
        )
        # blockade radius way beyond the cloud: the gate turns the whole
        # medium into a resonant two-level absorber
        inter = _resonant_interaction(c3=1.0e6, gamma_p=from_mhz(0.05))
        got = transmission_freq((0.0, 0.0), (0.0, 0.0, 0.0), params, inter).intensity
        assert got == pytest.approx(np.exp(-params.optical_depth), rel=1e-2)

    def test_density_scale_exponentiates_uniform_slab(self):
        params = PropagationParams(
            g=1.0e4, omega_rabi=from_mhz(5.0), gamma=from_mhz(3.0),
            gamma_s=from_mhz(0.1), cloud_half_length=20.0, profile="uniform",
        )
        t1 = eit_baseline(params, density_scale=1.0).amplitude
        t2 = eit_baseline(params, density_scale=2.0).amplitude
        assert t2 == pytest.approx(t1**2, rel=1e-12)

    def test_per_sample_scales_match_scalar_calls(self, setup, rng):
        scales = rng.uniform(0.0, 1.5, size=9)
        batch = eit_baseline(setup.params, scales)
        single = [eit_baseline(setup.params, s) for s in scales]
        assert batch.amplitude.shape == batch.intensity.shape == (9,)
        assert np.allclose(batch.amplitude, [r.amplitude for r in single],
                           rtol=1e-15, atol=0.0)
        assert np.allclose(batch.intensity, [r.intensity for r in single],
                           rtol=1e-15, atol=0.0)


class TestPassivity:
    def test_no_gain_anywhere(self, setup, rng):
        for _ in range(20):
            offset = rng.normal(0.0, 4.0, size=2)
            gate = np.append(rng.normal(0.0, 4.0, size=2), rng.normal(0.0, 20.0))
            field = rng.uniform(0.0, 1.2)
            t = transmission_freq(offset, gate, setup.params, setup.interaction,
                                  field=field)
            assert abs(t.amplitude) <= 1.0 + 1e-12

    def test_gate_never_increases_transmission(self, setup):
        base = eit_baseline(setup.params).intensity
        res = setup.resonance_field
        blocked = transmission_freq(
            (0.0, 0.0), (0.0, 0.0, 0.0), setup.params, setup.interaction,
            field=res,
        ).intensity
        assert blocked < base


class TestBatchSolver:
    def test_matches_adaptive_quadrature(self, setup, rng):
        n = 12
        offsets = rng.normal(0.0, 3.5, size=(n, 2))
        gates = np.column_stack(
            [rng.normal(0.0, 3.5, size=(n, 2)), rng.normal(0.0, 15.0, size=n)]
        )
        scales = rng.uniform(0.4, 1.0, size=n)
        field = setup.resonance_field
        batch = transmission_batch(
            offsets, gates, setup.params, setup.interaction, field=field,
            density_scale=scales,
        )
        for i in range(n):
            ref = transmission_freq(
                offsets[i], gates[i], setup.params, setup.interaction,
                field=field, density_scale=scales[i],
            ).amplitude
            assert abs(batch[i] - ref) < 2e-3

    @pytest.mark.parametrize("profile", ["gaussian", "uniform"])
    def test_no_blockade_is_the_closed_form(self, setup, rng, profile):
        # the graded grid carries only the blockade term, so without
        # channels the gated solver returns eit_baseline at every gate
        params = dataclasses.replace(setup.params, profile=profile)
        free = InteractionParams(gamma_p=0.0)
        n = 40
        offsets = rng.normal(0.0, 3.5, size=(n, 2))
        gates = np.column_stack(
            [rng.normal(0.0, 3.5, size=(n, 2)), rng.uniform(-60.0, 60.0, size=n)]
        )
        scales = rng.uniform(0.4, 1.0, size=n)
        amps = transmission_batch(offsets, gates, params, free,
                                  field=[0.0, 0.71], density_scale=scales)
        for i, scale in enumerate(scales):
            ref = eit_baseline(params, scale).amplitude
            assert np.all(np.abs(amps[:, i] - ref) <= 1e-15 * abs(ref))


class TestFieldGrid:
    """A field grid solves the geometry once; each row must equal the
    scalar-field call at that field."""

    @pytest.mark.parametrize("pair_system, lo, hi", [
        ("rb87_50s48s", 0.69, 0.73),
        ("rb87_66s64s", 0.06, 0.10),
    ])
    def test_grid_matches_stacked_scalar_calls(self, rng, pair_system, lo, hi):
        setup = build_setup(load_config(None, "gain-scan",
                                        {"pair_system": pair_system}))
        fields = np.linspace(lo, hi, 9)
        re_c6 = [effective_c6(setup.params.omega, f, setup.interaction).real
                 for f in fields]
        assert min(re_c6) < 0.0 < max(re_c6)  # the grid crosses a resonance
        n = 40
        offsets = rng.normal(0.0, 3.5, size=(n, 2))
        gates = np.column_stack(
            [rng.normal(0.0, 3.5, size=(n, 2)), rng.normal(0.0, 15.0, size=n)]
        )
        scales = rng.uniform(0.4, 1.0, size=n)
        grid = transmission_batch(offsets, gates, setup.params, setup.interaction,
                                  field=fields, density_scale=scales)
        stacked = np.stack([
            transmission_batch(offsets, gates, setup.params, setup.interaction,
                               field=f, density_scale=scales)
            for f in fields
        ])
        assert stacked.shape == (fields.size, n)
        assert grid.shape == (fields.size, n)
        assert np.max(np.abs(grid - stacked)) <= 1e-12

    def test_scalar_field_keeps_sample_shape(self, setup):
        gates = np.array([[0.0, 0.0, 5.0], [1.0, -1.0, -20.0], [0.5, 0.5, 0.0]])
        amps = transmission_batch(np.zeros((3, 2)), gates, setup.params,
                                  setup.interaction, field=setup.resonance_field)
        assert amps.shape == (3,)


def _complex_blockade(g_sq, d_sq, c6, params):
    """Reference blockade term g^2 V / (Omega^2 - i*gamma*V), V = C/d^6,
    in plain complex arithmetic."""
    vef = c6 / d_sq**3
    return g_sq * vef / (params.omega_rabi**2 - 1j * params.gamma * vef)


# field windows that cross a Stark-tuned resonance of each preset
_RESONANCE_WINDOWS = pytest.mark.parametrize("pair_system, lo, hi", [
    ("rb87_50s48s", 0.69, 0.73),
    ("rb87_66s64s", 0.06, 0.10),
])


def _resonance_window(pair_system, lo, hi, n_fields):
    setup = build_setup(load_config(None, "gain-scan", {"pair_system": pair_system}))
    fields = np.linspace(lo, hi, n_fields)
    c6 = np.array([effective_c6(setup.params.omega, f, setup.interaction)
                   for f in fields])
    assert c6.real.min() < 0.0 < c6.real.max()  # the grid crosses a resonance
    return setup, fields, c6


def _samples(rng, n):
    offsets = rng.normal(0.0, 3.5, size=(n, 2))
    gates = np.column_stack(
        [rng.normal(0.0, 3.5, size=(n, 2)), rng.normal(0.0, 15.0, size=n)]
    )
    return offsets, gates, rng.uniform(0.4, 1.0, size=n)


class TestBlockadeKernel:
    """The real-arithmetic kernel against the complex blockade formula."""

    @_RESONANCE_WINDOWS
    def test_batch_matches_complex_formula(self, rng, pair_system, lo, hi):
        setup, fields, c6 = _resonance_window(pair_system, lo, hi, 9)
        params = setup.params
        offsets, gates, scales = _samples(rng, 60)
        amps = transmission_batch(offsets, gates, params, setup.interaction,
                                  field=fields, density_scale=scales)
        z = _graded_grid(params.z_extent, gates[:, 2])
        weights = np.zeros_like(z)
        weights[:, 1:] = np.diff(z, axis=1)
        weights[:, :-1] += np.diff(z, axis=1)
        g_sq = 0.5 * weights * params.g**2 * scales[:, None] * params.relative_density(z)
        t_dist_sq = np.sum((offsets - gates[:, :2]) ** 2, axis=1)
        d_sq = np.maximum((z - gates[:, 2:]) ** 2 + t_dist_sq[:, None], R_MIN**2)
        base = eit_baseline(params, scales).amplitude
        for k in range(fields.size):
            blockade = _complex_blockade(g_sq, d_sq, c6[k], params).sum(axis=1)
            ref = base * np.exp(1j * blockade / params.c)
            assert np.all(np.abs(amps[k] - ref) <= 1e-13 * np.abs(ref))

    @_RESONANCE_WINDOWS
    def test_chi_values_broadcast_matches_complex_formula(self, pair_system, lo, hi):
        # the [gate, source] table the spin-wave channels build
        setup, fields, c6 = _resonance_window(pair_system, lo, hi, 5)
        params = setup.params
        grid = np.linspace(-80.0, 80.0, 61)
        t_dist_sq, scale = 2.5, 0.8
        g_sq = params.g**2 * scale * params.relative_density(grid[None, :])
        d_sq = np.maximum((grid[None, :] - grid[:, None]) ** 2 + t_dist_sq, R_MIN**2)
        eit = g_sq * (params.omega + 1j * params.gamma_s) / params.omega_rabi**2
        for pref in c6:
            chi = chi_values(grid[None, :], params, pref, grid[:, None],
                             t_dist_sq, scale)
            ref = eit + _complex_blockade(g_sq, d_sq, pref, params)
            assert chi.shape == (grid.size, grid.size)
            assert np.all(np.abs(chi - ref) <= 1e-13 * np.abs(ref))

    def test_batch_memory_peak(self, setup, rng):
        # w and beta are built once; each field reuses two real buffers
        n, fields = 2000, np.linspace(0.70, 0.72, 5)
        offsets, gates, scales = _samples(rng, n)
        table = _graded_grid(setup.params.z_extent, gates[:, 2]).nbytes
        tracemalloc.start()
        try:
            transmission_batch(offsets, gates, setup.params, setup.interaction,
                               field=fields, density_scale=scales)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * table


def test_time_domain_oracle_agrees_with_frequency_solver():
    # unit-rescaled slow-light parameters keep the time stepping affordable
    params = PropagationParams(
        g=9.5, omega_rabi=10.0, gamma=6.0, gamma_s=0.05, c=300.0,
        cloud_half_length=15.0, profile="uniform", z_extent=21.0,
    )
    inter = _resonant_interaction(c3=350.0, gamma_p=0.5)
    i_freq = transmission_freq((0.0, 0.0), (0.0, 0.0, 3.0), params, inter).intensity
    i_time = transmission_time_oracle(params, inter, gate_z=3.0).intensity
    assert abs(i_freq - i_time) < 0.01

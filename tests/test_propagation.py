"""Source transmission: analytic limits, passivity and solver cross-checks."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from rydsim import propagation, runner
from rydsim.atomic_states import PairChannel, RydbergLevel
from rydsim.config import build_setup, load_config
from rydsim.errors import ConfigError
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
        # resonant two-level optical depth 2 g^2 L_eff / (c gamma) on axis
        od = 2.0 * params.g**2 * params.effective_length / (params.c * params.gamma)
        assert got == pytest.approx(np.exp(-od), rel=1e-2)

    def test_density_scale_exponentiates_uniform_slab(self):
        params = PropagationParams(
            g=1.0e4, omega_rabi=from_mhz(5.0), gamma=from_mhz(3.0),
            gamma_s=from_mhz(0.1), cloud_half_length=20.0, profile="uniform",
        )
        t1 = eit_baseline(params, density_scale=1.0).amplitude
        t2 = eit_baseline(params, density_scale=2.0).amplitude
        assert t2 == pytest.approx(t1**2, rel=1e-12)

    @pytest.mark.parametrize("profile", ["gaussian", "uniform"])
    @pytest.mark.parametrize("z", [7.5, -20.0, np.linspace(-60.0, 60.0, 241)])
    def test_relative_density_with_and_without_out(self, profile, z):
        params = PropagationParams(
            g=1.0e4, omega_rabi=from_mhz(5.0), gamma=from_mhz(3.0),
            cloud_half_length=20.0, profile=profile,
        )
        if profile == "gaussian":
            ref = np.exp(-((np.asarray(z) / 20.0) ** 2))
        else:
            ref = np.where(np.abs(z) <= 20.0, 1.0, 0.0)
        buf = np.empty(np.shape(z))
        assert params.relative_density(z, out=buf) is buf
        assert np.array_equal(params.relative_density(z), buf)
        assert np.array_equal(buf, ref)

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

    def test_row_blocks_equal_row_slices_and_single_fields(self, setup, rng):
        n, fields = 700, np.array([0.70, setup.resonance_field, 0.72])
        grid_points = _graded_grid(setup.params.z_extent, [0.0]).shape[1]
        assert 2 * (propagation._BLOCK_CELLS // grid_points) < n  # 3 blocks
        offsets, gates, scales = _samples(rng, n)

        def batch(rows, field):
            return transmission_batch(offsets[rows], gates[rows], setup.params,
                                      setup.interaction, field=field,
                                      density_scale=scales[rows])

        full = batch(slice(None), fields)
        for lo, hi in [(0, 1), (270, 290), (550, 700)]:
            assert np.array_equal(batch(slice(lo, hi), fields), full[:, lo:hi])
        for k, f in enumerate(fields):
            assert np.array_equal(batch(slice(None), f), full[k])

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

    @_RESONANCE_WINDOWS
    def test_chi_values_prefactor_grid_matches_scalar_calls(self, pair_system, lo, hi):
        # one call for a prefactor grid (a zero prefactor included) and a
        # block of source paths against one call per prefactor and path
        setup, fields, c6 = _resonance_window(pair_system, lo, hi, 5)
        params = setup.params
        grid = np.linspace(-80.0, 80.0, 61)
        prefs = np.append(c6, 0.0)
        t_dist_sq = np.array([2.5, 0.0, 11.0])
        scale = np.array([0.8, 1.0, 0.3])
        args = (grid[:, None], t_dist_sq[:, None, None], scale[:, None, None])
        chi = chi_values(grid[None, :], params, prefs, *args)
        assert chi.shape == (prefs.size, 3, grid.size, grid.size)
        for k, pref in enumerate(prefs):
            for j in range(3):
                ref = chi_values(grid[None, :], params, complex(pref), grid[:, None],
                                 float(t_dist_sq[j]), float(scale[j]))
                # with no blockade term a scalar call does not broadcast
                # over the gate positions
                assert np.array_equal(chi[k, j], np.broadcast_to(ref, chi[k, j].shape))

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
    (result,) = transmission_time_oracle([(params, inter, 3.0)])
    assert abs(i_freq - result.intensity) < 0.01


def _oracle_sets(seed, n_sets):
    setup = build_setup(load_config(None, "oracle-check",
                                    {"seed": seed, "oracle_sets": n_sets}))
    return runner._oracle_parameter_sets(setup, np.random.default_rng(seed))


def _stepwise_oracle(sets, length=1.0):
    """Oracle amplitudes from a time run of each set's one-step map, as
    `transmission_time_oracle` computed them before it solved for the
    steady state: a long pulse ramped in over 16 group delays plus 120 EIT
    relaxation times, then `length` times that run, demodulated over its
    trailing 30 %."""
    amps = []
    for params, inter, gate_z in sets:
        blocks, g_local, dt = propagation._oracle_set(params, inter, gate_z, 0.0)
        step, inject, read = propagation._oracle_step(blocks, g_local, dt)
        v_g = params.c * params.omega_rabi**2 / (params.g**2 + params.omega_rabi**2)
        gamma_eit = params.omega_rabi**2 / params.gamma + params.gamma_s
        duration = 16.0 * (2 * params.z_extent / v_g) + 120.0 / gamma_eit
        ramp = 0.15 * duration
        n_t = int(np.ceil(length * duration / dt))
        tt = np.arange(1, n_t + 1) * dt
        envelope = 0.5 * (1.0 + np.tanh((tt - 2.5 * ramp) / (0.5 * ramp)))
        inputs = envelope * np.exp(-1j * params.omega * tt)
        y = np.zeros(step.shape[0], dtype=complex)
        out = np.empty(n_t, dtype=complex)
        for i in range(n_t):
            y = step @ y
            y += inputs[i] * inject
            out[i] = read @ y
        out *= np.exp(1j * params.omega * tt)
        amps.append(np.mean(out[int(0.7 * n_t):]))
    return np.array(amps)


def _looped_oracle_set(params, inter, gate_z, field):
    """Cell propagators of one oracle set from one `expm` per cell, as
    `_oracle_set` built them before it exponentiated the stacked cells in
    one call."""
    from scipy.linalg import expm

    from rydsim.atomic_states import forster_defect

    blocks, g_local, dt = propagation._oracle_set(params, inter, gate_z, field)
    z = np.linspace(-params.z_extent, params.z_extent, g_local.size)
    m = 2 + len(inter.channels)
    defects = [forster_defect(ch, field) for ch in inter.channels]
    props = np.empty((m, m, z.size), dtype=complex)
    drive = np.empty((m, z.size), dtype=complex)
    a = np.zeros((m + 1, m + 1), dtype=complex)
    for i in range(z.size):
        a[:] = 0.0
        a[0, 0] = -params.gamma
        a[0, 1] = -1j * params.omega_rabi
        a[1, 0] = -1j * params.omega_rabi
        a[1, 1] = -params.gamma_s
        for k, ch in enumerate(inter.channels):
            sep = z[i] - gate_z
            r_min = propagation.R_MIN
            sep = np.sign(sep) * max(abs(sep), r_min) if sep != 0 else r_min
            v = ch.coupling / sep**3
            a[1, 2 + k] = -1j * v
            a[2 + k, 1] = -1j * v
            a[2 + k, 2 + k] = -inter.gamma_p - 1j * defects[k]
        a[0, m] = -1j * g_local[i]
        step = expm(a * dt)
        props[:, :, i] = step[:m, :m]
        drive[:, i] = step[:m, m]
    return blocks, props, drive


def test_stacked_expm_matches_one_call_per_cell():
    for params, inter, gate_z in _oracle_sets(12345, 10):
        blocks, props, drive = _looped_oracle_set(params, inter, gate_z, 0.0)
        assert np.array_equal(blocks, np.concatenate([props, drive[:, None]], axis=1))


def _oracle_case(name):
    first, second = _oracle_sets(12345, 2)
    if name == "default sets 0 and 1":
        return [first, second]
    params, inter, gate_z = first
    if name == "two channels":  # m = 4 atomic amplitudes per cell
        (ch,) = inter.channels
        extra = dataclasses.replace(ch, defect_zero_field=-ch.defect_zero_field,
                                    c3=0.7 * ch.c3)
        return [(params, dataclasses.replace(inter, channels=(ch, extra)), gate_z)]
    return [(dataclasses.replace(params, omega=0.3), inter, gate_z)]  # detuned


class TestOracleSteadyState:
    """The exact steady state of the oracle's step map against a time run
    of the same map."""

    @pytest.mark.parametrize("name", ["default sets 0 and 1", "two channels",
                                      "detuned"])
    def test_settled_time_run_reaches_the_steady_state(self, name):
        sets = _oracle_case(name)
        if name == "detuned":  # q = exp(-i omega dt) != 1
            assert sets[0][0].omega != 0.0
        ref = np.abs(_stepwise_oracle(sets)) ** 2
        got = np.array([r.intensity for r in transmission_time_oracle(sets)])
        assert np.all(ref > 0.1)
        assert np.max(np.abs(got - ref)) <= 1e-4

    def test_unsettled_time_run_approaches_the_steady_state(self):
        # seed 12, set 6: the default run misses by 0.06, the slowest mode
        # decays at the P-pair rate, far beyond the run
        sets = [_oracle_sets(12, 7)[6]]
        steady = transmission_time_oracle(sets)[0].intensity
        errors = [abs(abs(_stepwise_oracle(sets, length)[0]) ** 2 - steady)
                  for length in (1.0, 2.0, 3.0)]
        assert errors[0] > 0.05
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 0.3 * errors[0]

    def test_too_fine_grid_fails_before_anything_is_built(self, monkeypatch):
        import scipy.linalg

        params = PropagationParams(
            g=9.5, omega_rabi=10.0, gamma=6.0, gamma_s=0.05, c=300.0,
            cloud_half_length=15.0, profile="uniform", z_extent=1.0e4,
        )
        inter = _resonant_interaction(c3=350.0, gamma_p=0.5)

        def never(*args, **kwargs):
            raise AssertionError("built an oracle operator")

        monkeypatch.setattr(scipy.linalg, "expm", never)
        monkeypatch.setattr(propagation, "_oracle_step", never)
        with pytest.raises(ConfigError, match="MiB of step operator"):
            transmission_time_oracle([(params, inter, 0.0)])


def test_quadrature_evaluates_chi_once_per_node(setup, monkeypatch):
    from scipy.integrate import quad

    params, inter = setup.params, setup.interaction
    offset, gate, field = (0.2, -0.4), (1.0, 0.5, 3.0), setup.resonance_field
    pref = effective_c6(params.omega, field, inter)
    t_dist_sq = (0.2 - 1.0) ** 2 + (-0.4 - 0.5) ** 2

    def chi(z):
        return chi_values(z, params, pref, 3.0, t_dist_sq, 1.0)

    # the unmemoized integral, as transmission_freq computed it before
    span = params.z_extent
    integral, _ = quad(chi, -span, span, complex_func=True, epsrel=1e-6,
                       epsabs=1e-12, limit=400, points=[-17.0, 3.0, 23.0])
    reference = np.minimum(np.abs(np.exp(1j * integral / params.c)) ** 2, 1.0)

    nodes = []

    def counted(z, *args):
        nodes.append(z)
        return chi_values(z, *args)

    monkeypatch.setattr(propagation, "chi_values", counted)
    got = transmission_freq(offset, gate, params, inter, field=field)
    assert len(nodes) == len(set(nodes))
    assert got.intensity == reference

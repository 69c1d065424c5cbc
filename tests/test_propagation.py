"""Source transmission: analytic limits, passivity and solver cross-checks."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from rydsim import propagation, runner
from rydsim.atomic_states import PairChannel, RydbergLevel
from rydsim.config import build_setup, load_config
from rydsim.errors import ConfigError, NumericsError
from rydsim.interaction import InteractionParams, effective_c6
from rydsim.propagation import (
    R_MIN,
    PropagationParams,
    _gate_panels,
    _graded_grid,
    chi_values,
    eit_baseline,
    intensity,
    transmission_batch,
    transmission_freq,
    transmission_time_oracle,
)
from rydsim.units import C_LIGHT, from_mhz

# no channels: C6 = 0, so `transmission_freq` integrates the EIT term alone
_GATE_FREE = InteractionParams(gamma_p=0.0)


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
        assert intensity(eit_baseline(params)) == pytest.approx(expected, rel=1e-12)
        got = transmission_freq((0.0, 0.0), (0.0, 0.0, 0.0), params, _GATE_FREE,
                                rtol=1e-9)
        assert intensity(got) == pytest.approx(expected, rel=1e-6)

    def test_gaussian_baseline_matches_quadrature(self, setup):
        closed = intensity(eit_baseline(setup.params))
        quad = intensity(transmission_freq((0.0, 0.0), (0.0, 0.0, 0.0), setup.params,
                                           _GATE_FREE, rtol=1e-9))
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
        got = intensity(transmission_freq((0.0, 0.0), (0.0, 0.0, 0.0), params, inter))
        # resonant two-level optical depth 2 g^2 L_eff / (c gamma) on axis
        od = 2.0 * params.g**2 * params.effective_length / (params.c * params.gamma)
        assert got == pytest.approx(np.exp(-od), rel=1e-2)

    def test_density_scale_exponentiates_uniform_slab(self):
        params = PropagationParams(
            g=1.0e4, omega_rabi=from_mhz(5.0), gamma=from_mhz(3.0),
            gamma_s=from_mhz(0.1), cloud_half_length=20.0, profile="uniform",
        )
        t1 = eit_baseline(params, density_scale=1.0)
        t2 = eit_baseline(params, density_scale=2.0)
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
        assert batch.shape == intensity(batch).shape == (9,)
        assert np.allclose(batch, single, rtol=1e-15, atol=0.0)
        assert np.allclose(intensity(batch), [intensity(t) for t in single],
                           rtol=1e-15, atol=0.0)


class TestPassivity:
    def test_no_gain_anywhere(self, setup, rng):
        for _ in range(20):
            offset = rng.normal(0.0, 4.0, size=2)
            gate = np.append(rng.normal(0.0, 4.0, size=2), rng.normal(0.0, 20.0))
            field = rng.uniform(0.0, 1.2)
            t = transmission_freq(offset, gate, setup.params, setup.interaction,
                                  field=field)
            assert abs(t) <= 1.0 + 1e-12

    def test_gate_never_increases_transmission(self, setup):
        base = intensity(eit_baseline(setup.params))
        res = setup.resonance_field
        blocked = intensity(transmission_freq(
            (0.0, 0.0), (0.0, 0.0, 0.0), setup.params, setup.interaction,
            field=res,
        ))
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
        (batch,) = transmission_batch(
            offsets, gates, setup.params, setup.interaction, [field],
            density_scale=scales,
        )
        for i in range(n):
            ref = transmission_freq(
                offsets[i], gates[i], setup.params, setup.interaction,
                field=field, density_scale=scales[i],
            )
            assert abs(batch[i] - ref) < 2e-3

    @pytest.mark.parametrize("pair_system, fields", [
        ("rb87_50s48s", (0.0, 0.61, 0.71, 0.81)),
        ("rb87_66s64s", (0.0, 0.03, 0.08, 0.25)),
    ])
    def test_gate_panels_match_converged_quadrature(self, rng, pair_system, fields):
        # on and off resonance, off-axis paths (some within R_MIN of the
        # gate line) and gates near both span ends; of the 1e-5 bound,
        # about 2.9e-6 is `eit_baseline`'s infinite-span closed form
        setup = build_setup(load_config(None, "gain-scan",
                                        {"pair_system": pair_system}))
        params, span = setup.params, setup.params.z_extent
        offsets, gates, scales = _samples(rng, 40)
        gates[:6, 2] = [-span + 0.5, -span + 10.0, -span + 25.0,
                        span - 25.0, span - 10.0, span - 0.5]
        offsets[6:12] = gates[6:12, :2] + rng.normal(0.0, 0.3, size=(6, 2))
        amps = transmission_batch(offsets, gates, params, setup.interaction,
                                  fields, density_scale=scales)
        for k, field in enumerate(fields):
            ref = [transmission_freq(offsets[i], gates[i], params, setup.interaction,
                                     field=field, density_scale=scales[i],
                                     rtol=1e-10)
                   for i in range(len(scales))]
            assert np.max(np.abs(amps[k] - ref)) <= 1e-5

    @pytest.mark.parametrize("profile", ["gaussian", "uniform"])
    def test_no_blockade_is_the_closed_form(self, setup, rng, profile):
        # the gate panels carry only the blockade term, so without
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
                                  [0.0, 0.71], density_scale=scales)
        for i, scale in enumerate(scales):
            ref = eit_baseline(params, scale)
            assert np.all(np.abs(amps[:, i] - ref) <= 1e-15 * abs(ref))


class TestFieldGrid:
    """A field grid solves the geometry once; each row must equal the
    one-field grid call at that field."""

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
                                  fields, density_scale=scales)
        stacked = np.concatenate([
            transmission_batch(offsets, gates, setup.params, setup.interaction,
                               [f], density_scale=scales)
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
                                      setup.interaction, field,
                                      density_scale=scales[rows])

        full = batch(slice(None), fields)
        for lo, hi in [(0, 1), (270, 290), (550, 700)]:
            assert np.array_equal(batch(slice(lo, hi), fields), full[:, lo:hi])
        for k, f in enumerate(fields):
            assert np.array_equal(batch(slice(None), [f]), full[k:k + 1])

    def test_rows_sharing_a_gate_z_match_each_row_alone(self, setup, rng):
        # rows in runs of 1 to 12 on 20 gate z values, in shuffled order,
        # so that a value recurs in runs apart, and one run crosses the
        # first block boundary
        fields = np.array([0.70, setup.resonance_field, 0.72])
        grid_points = _graded_grid(setup.params.z_extent, [0.0]).shape[1]
        rows = propagation._BLOCK_CELLS // grid_points
        n = rows + 40
        assert rows < n
        values = rng.normal(0.0, 15.0, size=20)
        z = np.repeat(values[rng.integers(0, 20, size=n)], rng.integers(1, 13, size=n))[:n]
        z[rows - 2:rows + 2] = values[0]
        offsets, gates, scales = _samples(rng, n)
        gates[:, 2] = z
        runs = np.count_nonzero(np.diff(z)) + 1
        assert runs < n // 2 and np.count_nonzero(np.diff(z == values[0]) == 1) > 1
        amps = transmission_batch(offsets, gates, setup.params, setup.interaction,
                                  fields, density_scale=scales)
        for i in range(n):
            alone = transmission_batch(offsets[i:i + 1], gates[i:i + 1], setup.params,
                                       setup.interaction, fields,
                                       density_scale=scales[i:i + 1])
            assert np.array_equal(amps[:, i:i + 1], alone)

    def test_field_grid_must_be_one_dimensional(self, setup):
        gates = np.array([[0.0, 0.0, 5.0], [1.0, -1.0, -20.0], [0.5, 0.5, 0.0]])
        res = setup.resonance_field
        amps = transmission_batch(np.zeros((3, 2)), gates, setup.params,
                                  setup.interaction, [res])
        assert amps.shape == (1, 3)
        for fields in (res, [[res, 0.7]]):
            with pytest.raises(ValueError, match="1-D field grid"):
                transmission_batch(np.zeros((3, 2)), gates, setup.params,
                                   setup.interaction, fields)


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
                                  fields, density_scale=scales)
        z, weights = _gate_panels(params.z_extent, gates[:, 2])
        g_sq = weights * params.g**2 * scales[:, None] * params.relative_density(z)
        t_dist_sq = np.sum((offsets - gates[:, :2]) ** 2, axis=1)
        d_sq = np.maximum((z - gates[:, 2:]) ** 2 + t_dist_sq[:, None], R_MIN**2)
        base = eit_baseline(params, scales)
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

    @_RESONANCE_WINDOWS
    def test_chi_values_rounds_every_prefactor_form_alike(self, pair_system, lo, hi):
        # a = Omega^2/C is one division whether the prefactor comes as a
        # NumPy complex (as `effective_c6` returns it to `transmission_batch`),
        # a Python complex, a one-entry list or an entry of a grid
        setup, _, c6 = _resonance_window(pair_system, lo, hi, 41)
        params = setup.params
        z = np.linspace(-80.0, 80.0, 61)
        table = chi_values(z, params, c6, 0.0, 2.5)
        for k, pref in enumerate(c6):
            ref = chi_values(z, params, pref, 0.0, 2.5)
            assert np.array_equal(chi_values(z, params, complex(pref), 0.0, 2.5), ref)
            assert np.array_equal(chi_values(z, params, [pref], 0.0, 2.5)[0], ref)
            assert np.array_equal(table[k], ref)

    def test_batch_memory_peak(self, setup, rng):
        # w and beta are built once; each field reuses two real buffers
        n, fields = 2000, np.linspace(0.70, 0.72, 5)
        offsets, gates, scales = _samples(rng, n)
        table = _graded_grid(setup.params.z_extent, gates[:, 2]).nbytes
        tracemalloc.start()
        try:
            transmission_batch(offsets, gates, setup.params, setup.interaction,
                               fields, density_scale=scales)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * table

    def test_batch_finishes_amplitudes_in_its_output(self, rng):
        # the default 66S/64S scan: 126 fields x 2000 rows; past the block
        # buffers, the call holds its complex result table and no copy of it
        setup = build_setup(load_config(None, "gain-scan",
                                        {"pair_system": "rb87_66s64s"}))
        fields = setup.default_field_grid()
        offsets, gates, scales = _samples(rng, 2000)
        block = propagation._BLOCK_CELLS * 8  # one float block buffer
        tracemalloc.start()
        try:
            amps = transmission_batch(offsets, gates, setup.params, setup.interaction,
                                      fields, density_scale=scales)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert amps.shape == (126, 2000)
        assert peak <= 1.1 * amps.nbytes + 6 * block

    def test_batch_amplitudes_are_the_one_expression_bit_for_bit(
            self, setup, rng, monkeypatch):
        # the in-place finish against eit * exp(1j * blockade / c) on the
        # blockade integrals the row blocks wrote
        fields = np.linspace(0.69, 0.73, 7)
        offsets, gates, scales = _samples(rng, 500)
        written = []
        original = propagation._blockade_rows

        def record(params, field_a, gate_z, t_dist_sq, scale, q, v, out):
            original(params, field_a, gate_z, t_dist_sq, scale, q, v, out)
            written.append(out.copy())

        monkeypatch.setattr(propagation, "_blockade_rows", record)
        amps = transmission_batch(offsets, gates, setup.params, setup.interaction,
                                  fields, density_scale=scales)
        assert len(written) > 1  # several row blocks
        blockade = np.concatenate(written, axis=1)
        ref = (eit_baseline(setup.params, scales)
               * np.exp(1j * blockade / setup.params.c))
        assert amps.tobytes() == ref.tobytes()


def test_time_domain_oracle_agrees_with_frequency_solver():
    # unit-rescaled slow-light parameters keep the time stepping affordable
    params = PropagationParams(
        g=9.5, omega_rabi=10.0, gamma=6.0, gamma_s=0.05, c=300.0,
        cloud_half_length=15.0, profile="uniform", z_extent=21.0,
    )
    inter = _resonant_interaction(c3=350.0, gamma_p=0.5)
    i_freq = intensity(transmission_freq((0.0, 0.0), (0.0, 0.0, 3.0), params, inter))
    (amp,) = transmission_time_oracle([(params, inter, 3.0)])
    assert abs(i_freq - intensity(amp)) < 0.01


def _oracle_sets(seed, n_sets):
    setup = build_setup(load_config(None, "oracle-check",
                                    {"seed": seed, "oracle_sets": n_sets}))
    return runner._oracle_parameter_sets(setup, np.random.default_rng(seed))


def _oracle_step(blocks, g_local, dt):
    """One time step of an oracle set (see `_oracle_set`) as y <- M y + inject u.

    The state is y = [x_0, ..., x_(m-1), e], each a row over the cells.
    The cell `blocks` move x, the photon is advected one cell,
    e[z] = e[z-1] + dt/2 * (g_src[z] x_0[z] + g_src[z-1] x_0[z-1]) with
    g_src = -i g(z), and the input u is written into the first cell, whose
    rows of M are empty.  Returns the sparse CSR M and the dense
    unit vectors `inject` (first cell's photon) and `read` (last cell's).
    """
    from scipy import sparse

    blocks = np.moveaxis(blocks, 0, -1)  # (m, m + 1, cells)
    m, _, n_cells = blocks.shape
    n_state = (m + 1) * n_cells
    index = np.arange(n_state).reshape(m + 1, n_cells)
    z = np.arange(1, n_cells)  # cells the photon moves into
    source = 0.5 * dt * (-1j * g_local)
    rows = np.concatenate([
        np.broadcast_to(index[:m, None], blocks.shape).ravel(),
        np.tile(index[m, z], 3)])
    cols = np.concatenate([
        np.broadcast_to(index[None], blocks.shape).ravel(),
        index[m, z - 1], index[0, z], index[0, z - 1]])
    vals = np.concatenate([blocks.ravel(), np.ones(z.size), source[z],
                           source[z - 1]])
    step = sparse.csr_array((vals, (rows, cols)), shape=(n_state, n_state))
    step.eliminate_zeros()
    inject = np.zeros(n_state)
    inject[index[m, 0]] = 1.0
    read = np.zeros(n_state)
    read[index[m, -1]] = 1.0
    return step, inject, read


def _sparse_steady_state(sets):
    """Oracle amplitudes from one sparse solve of (q I - M) Y = q inject
    per set, with M the whole one-step map of `_oracle_step`."""
    from scipy import sparse
    from scipy.sparse.linalg import spsolve

    amps = []
    for params, inter, gate_z in sets:
        blocks, g_local, dt = propagation._oracle_set(params, inter, gate_z)
        step, inject, read = _oracle_step(blocks, g_local, dt)
        q = np.exp(-1j * params.omega * dt)
        lhs = q * sparse.eye_array(step.shape[0], format="csr") - step
        amps.append(read @ spsolve(lhs, q * inject))
    return np.array(amps)


def _stepwise_oracle(sets, length=1.0):
    """Oracle amplitudes from a time run of each set's one-step map, as
    `transmission_time_oracle` computed them before it solved for the
    steady state: a long pulse ramped in over 16 group delays plus 120 EIT
    relaxation times, then `length` times that run, demodulated over its
    trailing 30 %."""
    amps = []
    for params, inter, gate_z in sets:
        blocks, g_local, dt = propagation._oracle_set(params, inter, gate_z)
        step, inject, read = _oracle_step(blocks, g_local, dt)
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


def _looped_oracle_set(params, inter, gate_z):
    """Cell blocks of one oracle set from one `scipy.linalg.expm` per cell,
    each generator built on its own, as `_oracle_set` built them before it
    stacked the cells."""
    from scipy.linalg import expm

    from rydsim.atomic_states import forster_defect

    blocks, g_local, dt = propagation._oracle_set(params, inter, gate_z)
    z = np.linspace(-params.z_extent, params.z_extent, g_local.size)
    m = 2 + len(inter.channels)
    defects = [forster_defect(ch, 0.0) for ch in inter.channels]
    ref = np.empty((z.size, m, m + 1), dtype=complex)
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
        ref[i] = expm(a * dt)[:m]
    return blocks, ref


def _cell_errors(got, ref):
    """Largest entry error of each matrix of a stack over its largest entry."""
    return (np.max(np.abs(got - ref), axis=(-2, -1))
            / np.max(np.abs(ref), axis=(-2, -1)))


def test_stacked_expm_matches_one_call_per_cell():
    sets = [*_oracle_sets(12345, 10), *_oracle_case("two channels")]
    for params, inter, gate_z in sets:
        blocks, ref = _looped_oracle_set(params, inter, gate_z)
        assert np.max(_cell_errors(blocks, ref)) <= 1e-14


@pytest.mark.parametrize("size", [2, 3, 5, 8])
def test_expm_matches_scipy_on_random_stacks(rng, size):
    from scipy.linalg import expm

    a = rng.normal(size=(200, size, size)) + 1j * rng.normal(size=(200, size, size))
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    a *= (rng.uniform(0.0, 10.0, size=200) / norms)[:, None, None]
    ref = np.array([expm(x) for x in a])
    assert np.max(_cell_errors(propagation._expm(a), ref)) <= 1e-12


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
        got = intensity(transmission_time_oracle(sets))
        assert np.all(ref > 0.1)
        assert np.max(np.abs(got - ref)) <= 1e-4

    def test_unsettled_time_run_approaches_the_steady_state(self):
        # seed 12, set 6: the default run misses by 0.06, the slowest mode
        # decays at the P-pair rate, far beyond the run
        sets = [_oracle_sets(12, 7)[6]]
        steady = intensity(transmission_time_oracle(sets)[0])
        errors = [abs(abs(_stepwise_oracle(sets, length)[0]) ** 2 - steady)
                  for length in (1.0, 2.0, 3.0)]
        assert errors[0] > 0.05
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 0.3 * errors[0]

    @pytest.mark.parametrize("case", ["two channels", "detuned", *range(10)])
    def test_product_recurrence_matches_sparse_solve(self, case):
        # an int case is a seed of the default 10-set check
        sets = _oracle_sets(case, 10) if isinstance(case, int) else _oracle_case(case)
        ref = _sparse_steady_state(sets)
        got = transmission_time_oracle(sets)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))

    def test_too_fine_grid_fails_before_anything_is_built(self, monkeypatch):
        params = PropagationParams(
            g=9.5, omega_rabi=10.0, gamma=6.0, gamma_s=0.05, c=300.0,
            cloud_half_length=15.0, profile="uniform", z_extent=1.0e4,
        )
        inter = _resonant_interaction(c3=350.0, gamma_p=0.5)

        def never(*args, **kwargs):
            raise AssertionError("built an oracle operator")

        monkeypatch.setattr(propagation, "_expm", never)
        with pytest.raises(ConfigError, match="MiB of propagator work arrays"):
            transmission_time_oracle([(params, inter, 0.0)])


def test_quadrature_evaluates_chi_once_per_node(setup, monkeypatch):
    params, inter = setup.params, setup.interaction
    offset, gate, field = (0.2, -0.4), (1.0, 0.5, 3.0), setup.resonance_field
    nodes = []

    def counted(z, *args):
        nodes.append(np.ravel(z))
        return chi_values(z, *args)

    monkeypatch.setattr(propagation, "chi_values", counted)
    transmission_freq(offset, gate, params, inter, field=field)
    nodes = np.concatenate(nodes)
    assert np.unique(nodes).size == nodes.size


def _quad_cases():
    setup = build_setup(load_config(None, "gain-scan"))
    first, _ = _oracle_sets(12345, 2)
    params, inter, gate_z = first
    field = setup.resonance_field
    # seed 0, set 7: without breakpoints at the slab edges (a density jump)
    # and at the R_MIN kink on axis, the Gauss rule misses its error
    # estimate by up to 16x at rtol 1e-6 and 3x at rtol 1e-9 here
    near_edge = _oracle_sets(0, 8)[7]
    return [
        ((0.2, -0.4), (1.0, 0.5, 3.0), setup.params, setup.interaction, field),
        ((0.0, 0.0), (0.0, 0.0, 0.0), setup.params, setup.interaction, 0.70),
        ((0.0, 0.0), (0.0, 0.0, 0.0), setup.params, _GATE_FREE, 0.0),
        ((0.0, 0.0), (0.0, 0.0, gate_z), params, inter, 0.0),
        ((0.0, 0.0), (0.0, 0.0, gate_z), dataclasses.replace(params, omega=0.03),
         inter, 0.0),
        ((0.0, 0.0), (0.0, 0.0, near_edge[2]), near_edge[0], near_edge[1], 0.0),
    ]


@pytest.mark.parametrize("rtol", [1e-6, 1e-9])
def test_quadrature_lies_within_rtol_of_scipy_quad(rtol):
    from scipy.integrate import quad

    for offset, gate, params, inter, field in _quad_cases():
        pref = effective_c6(params.omega, field, inter)
        gate_z = gate[2]
        t_dist_sq = (offset[0] - gate[0]) ** 2 + (offset[1] - gate[1]) ** 2
        span = params.z_extent
        points = [max(gate_z - 20.0, -span), gate_z, min(gate_z + 20.0, span)]
        if params.profile == "uniform":
            points += [-params.cloud_half_length, params.cloud_half_length]
        integral, _ = quad(
            lambda z: chi_values(z, params, pref, gate_z, t_dist_sq),
            -span, span, complex_func=True, epsrel=1e-12, epsabs=1e-14,
            limit=2000, points=points)
        ref = np.exp(1j * integral / params.c)
        got = transmission_freq(offset, gate, params, inter, field=field, rtol=rtol)
        # an exponent within rtol of the reference integral
        assert abs(got - ref) <= rtol * abs(integral) / params.c * abs(ref)


def test_gauss_rule_matches_numpy_leggauss():
    from numpy.polynomial.legendre import leggauss

    nodes, weights = propagation._gauss_rule()
    ref_nodes, ref_weights = leggauss(propagation._GAUSS_POINTS)
    assert np.max(np.abs(nodes - ref_nodes)) <= 1e-14
    assert np.max(np.abs(weights - ref_weights)) <= 1e-14


def test_quadrature_failure_raises_numerics_error(setup, monkeypatch):
    monkeypatch.setattr(propagation, "chi_values",
                        lambda z, *args: np.full(np.shape(z), np.nan))
    with pytest.raises(NumericsError, match="quadrature failed: integral"):
        transmission_freq((0.0, 0.0), (0.0, 0.0, 0.0), setup.params, _GATE_FREE)


def test_unreachable_tolerance_raises_numerics_error(setup):
    # the absolute floor of 1e-12 lies below the rounding of the sum
    with pytest.raises(NumericsError, match="no convergence in 400 panels"):
        transmission_freq((0.2, -0.4), (1.0, 0.5, 3.0), setup.params,
                          setup.interaction, field=setup.resonance_field,
                          rtol=1e-300)

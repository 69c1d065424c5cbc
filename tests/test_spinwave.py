"""Stored spin-wave decoherence channel and retrieval efficiency."""

import collections
import csv
import dataclasses
import functools
import io
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy import stats

from rydsim import runner, spinwave
from rydsim.config import build_setup, load_config
from rydsim.ensemble import sample_geometry
from rydsim.errors import NumericsError
from rydsim.interaction import effective_c6
from rydsim.propagation import chi_values, eit_baseline, transmission_batch
from rydsim.spinwave import (
    PhotonChannel,
    SpinWaveState,
    blockade_beam_fraction,
    limit_curves,
    photon_channel,
    poisson_overlap,
    retrieval_efficiency_curve,
    stored_spinwave,
    transverse_channels,
    uhlmann_fidelity,
)

# zero-source retrieval efficiency at the config defaults: eta0 = 0.25 after
# a 4.2 us storage at a 3.6 us intrinsic lifetime
_ETA_BASE = 0.25 * np.exp(-4.2 / 3.6)


def _random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _kraus_channel(transmit, scatter):
    """`PhotonChannel` of the complex amplitudes `transmit[field, p, g]` and
    `scatter[field, p, s, g]`, stacked into its Kraus rows x."""
    t, s = np.asarray(transmit), np.asarray(scatter)
    n_fields, n_paths, n_s, n = s.shape
    x = np.empty((n_fields, n, 2, n_paths, n_s + 1))
    for part, take in enumerate((np.real, np.imag)):
        x[:, :, part, :, 0] = np.swapaxes(take(t), -1, -2)
        x[:, :, part, :, 1:] = np.moveaxis(take(s), -1, -3)
    return PhotonChannel(x)


def _path_channel(grid, params, interaction, fields, gate=(0.0, 0.0),
                  paths=((0.0, 0.0),), scales=(1.0,), out=None):
    """`photon_channel` of the source `paths` (shape (p, 2)) with density
    `scales` past a gate at transverse offset `gate`, on the 1-D field grid
    `fields`, from their `_path_transport`."""
    fields = np.asarray(fields, dtype=float)
    paths = np.asarray(paths, dtype=float)
    scales = np.asarray(scales, dtype=float)
    t, chi1 = spinwave._path_transport(grid, params, interaction, fields, gate,
                                       paths, scales)
    return photon_channel(grid, params, t, chi1, scales, out=out)


def _identity_channel(grid):
    n = grid.size
    return _kraus_channel(np.ones((1, 1, n)), np.zeros((1, 1, 1, n)))


def _dephasing_channel(grid):
    n = grid.size
    return _kraus_channel(np.zeros((1, 1, n)), np.eye(n, dtype=complex)[None, None])


def channel_branches(rho, channel):
    """Unnormalized transmitted and scattered branches of the output state
    for a channel of one path at one field."""
    t, s = channel.transmit[0, 0], channel.scatter[0, 0]
    rho_p = np.outer(t, t.conj()) * rho
    rho_s = (s.T @ s.conj()) * rho
    return rho_p, rho_s


def apply_channel(state, channel):
    """State after one source photon, with transmit/scatter probabilities:
    the reference the pipelines' `decoherence_matrix` and `p_s` are
    checked against."""
    rho_p, rho_s = channel_branches(state.rho, channel)
    p_t = float(np.trace(rho_p).real)
    p_s = float(np.trace(rho_s).real)
    rho_f = rho_p + rho_s
    rho_f = rho_f / np.trace(rho_f).real
    return SpinWaveState(grid=state.grid, rho=rho_f), p_t, p_s


def _curve(state, decoherence, p_scatter, means, eta_base):
    """Retrieval curve from each gate group's matrix D: its `poisson_overlap`
    row, as `transverse_channels(..., source_means=means)` gives it."""
    return retrieval_efficiency_curve(
        poisson_overlap(state, decoherence, means), p_scatter, means, eta_base)


def _group_matrices(state, setup, field, n_offsets, seed):
    """Each gate group's mean decoherence matrix and scatter excess for the
    samples `transverse_channels` draws, built one `photon_channel` per
    source path on a one-field grid."""
    samples = sample_geometry(setup.geometry, n_offsets, np.random.default_rng(seed))
    p_diag = np.real(np.diag(state.rho))
    n = state.grid.size
    decoherence = np.empty((n_offsets, n, n), dtype=complex)
    p_scatter = np.empty(n_offsets)
    for i in range(n_offsets):
        ds, excess = [], []
        for j in range(n_offsets):
            scale = float(samples.density_scales[j])
            ch = _path_channel(state.grid, setup.params, setup.interaction, [field],
                               samples.gates[i, :2], samples.offsets[j:j + 1], [scale])
            ds.append(ch.decoherence_matrix[0])
            baseline = eit_baseline(setup.params, scale).intensity
            lost = 1.0 - p_diag @ np.abs(ch.transmit[0, 0]) ** 2
            excess.append(max(lost - (1.0 - baseline), 0.0))
        decoherence[i] = np.mean(ds, axis=0)
        p_scatter[i] = np.mean(excess)
    return decoherence, p_scatter


class TestStoredState:
    def test_pure_unit_trace(self, setup):
        state = stored_spinwave(setup.geometry, n_points=101)
        assert np.trace(state.rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(state.rho @ state.rho, state.rho, atol=1e-12)
        assert state.grid[0] == -state.grid[-1]


class TestUhlmannFidelity:
    def test_matches_matrix_square_root_oracle(self, rng):
        # direct evaluation of [tr sqrt(sqrt(rho) sigma sqrt(rho))]^2
        for dim in (2, 3, 5, 8, 16):
            for _ in range(20):
                rho = _random_density(rng, dim)
                sigma = _random_density(rng, dim)
                s = scipy.linalg.sqrtm(rho)
                inner = scipy.linalg.sqrtm(s @ sigma @ s)
                expected = float(np.real(np.trace(inner)) ** 2)
                assert uhlmann_fidelity(rho, sigma) == pytest.approx(
                    expected, abs=1e-8
                )

    def test_self_fidelity_is_one(self, rng):
        rho = _random_density(rng, 6)
        assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_symmetric(self, rng):
        rho, sigma = _random_density(rng, 5), _random_density(rng, 5)
        assert uhlmann_fidelity(rho, sigma) == pytest.approx(
            uhlmann_fidelity(sigma, rho), abs=1e-10
        )

    def test_plus_state_vs_maximally_mixed(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        mixed = np.eye(2, dtype=complex) / 2.0
        assert uhlmann_fidelity(plus, mixed) == pytest.approx(0.5, abs=1e-12)


class TestPhotonChannel:
    def test_completeness_enforced(self):
        with pytest.raises(NumericsError):
            _kraus_channel(np.full((1, 1, 5), 0.9), np.zeros((1, 1, 1, 5)))
        # a (field, path, s, g) block, complete but for one bad column or
        # one NaN column
        rng = np.random.default_rng(3)
        scatter = rng.normal(size=(2, 3, 4, 5)) + 1j * rng.normal(size=(2, 3, 4, 5))
        scatter *= np.sqrt(0.5 / np.sum(np.abs(scatter) ** 2, axis=-2))[..., None, :]
        transmit = np.full((2, 3, 5), np.sqrt(0.5), dtype=complex)
        _kraus_channel(transmit, scatter)
        for bad in (1.001, np.nan):
            broken = scatter.copy()
            broken[1, 2, 0, 3] *= bad
            with pytest.raises(NumericsError):
                _kraus_channel(transmit, broken)

    def test_constructed_channel_is_complete(self, setup):
        state = stored_spinwave(setup.geometry, n_points=101)
        ch = _path_channel(state.grid, setup.params, setup.interaction,
                           [setup.resonance_field])
        assert ch.transmit.shape == (1, 1, 101)
        assert ch.scatter.shape == (1, 1, 101, 101)
        total = np.abs(ch.transmit) ** 2 + np.sum(np.abs(ch.scatter) ** 2, axis=-2)
        assert np.max(np.abs(total - 1.0)) < 1e-6

    def test_apply_preserves_trace_and_probability(self, setup):
        state = stored_spinwave(setup.geometry, n_points=101)
        ch = _path_channel(state.grid, setup.params, setup.interaction,
                           [setup.resonance_field])
        new, p_t, p_s = apply_channel(state, ch)
        assert p_t + p_s == pytest.approx(1.0, abs=1e-9)
        assert 0.0 < p_t < 1.0
        assert np.trace(new.rho).real == pytest.approx(1.0, abs=1e-9)

    def test_identity_channel_leaves_state_unchanged(self, setup):
        state = stored_spinwave(setup.geometry, n_points=51)
        new, p_t, p_s = apply_channel(state, _identity_channel(state.grid))
        assert p_s == pytest.approx(0.0, abs=1e-12)
        assert uhlmann_fidelity(state.rho, new.rho) == pytest.approx(1.0, abs=1e-9)

    def test_projective_scattering_fully_dephases(self, setup):
        state = stored_spinwave(setup.geometry, n_points=51)
        new, _, p_s = apply_channel(state, _dephasing_channel(state.grid))
        assert p_s == pytest.approx(1.0, abs=1e-12)
        p = np.real(np.diag(state.rho))
        # position readout leaves only the populations
        assert uhlmann_fidelity(state.rho, new.rho) == pytest.approx(
            float(p @ p), abs=1e-6
        )

    def test_repeated_photons_never_increase_fidelity(self, setup):
        state = stored_spinwave(setup.geometry, n_points=101)
        ch = _path_channel(state.grid, setup.params, setup.interaction,
                           [setup.resonance_field])
        fids = []
        current = state
        for _ in range(4):
            current, _, _ = apply_channel(current, ch)
            fids.append(uhlmann_fidelity(state.rho, current.rho))
        assert all(b <= a + 1e-10 for a, b in zip(fids, fids[1:]))

    def test_grid_doubling_converged(self, setup):
        p_ts = []
        for n in (201, 401):
            state = stored_spinwave(setup.geometry, n_points=n)
            ch = _path_channel(state.grid, setup.params, setup.interaction,
                               [setup.resonance_field])
            _, p_t, _ = apply_channel(state, ch)
            p_ts.append(p_t)
        assert abs(p_ts[0] - p_ts[1]) < 1e-3


class TestDenseKernels:
    """Dense kernels against per-row and per-power loop references."""

    @pytest.fixture(scope="class")
    def off_axis(self, setup):
        state = stored_spinwave(setup.geometry, n_points=61)
        ch = _path_channel(state.grid, setup.params, setup.interaction,
                           [setup.resonance_field], (1.5, -0.5), [(-2.0, 1.0)], [0.8])
        return state, ch

    @pytest.mark.parametrize("n", [61, 60], ids=["odd-n", "even-n"])
    @pytest.mark.parametrize("at_resonance", [True, False],
                             ids=["resonance", "zero-field"])
    @pytest.mark.parametrize("gate, source, scale", [
        ((0.0, 0.0), (0.0, 0.0), 1.0),
        ((1.5, -0.5), (-2.0, 1.0), 0.8),
    ], ids=["on-axis", "off-axis"])
    def test_channel_matches_dense_row_reference(self, setup, monkeypatch, n,
                                                 at_resonance, gate, source, scale):
        calls = _count_chi_calls(monkeypatch)
        grid = stored_spinwave(setup.geometry, n_points=n).grid
        field = setup.resonance_field if at_resonance else 0.0
        ch = _path_channel(grid, setup.params, setup.interaction, [field], gate,
                           [source], [scale])
        assert calls == [1]
        _assert_matches_dense_reference(ch.transmit[0, 0], ch.scatter[0, 0], grid,
                                        setup, field, gate, source, scale)

    def test_path_block_on_a_field_grid_matches_dense_row_reference(
            self, setup, monkeypatch):
        calls = _count_chi_calls(monkeypatch)
        grid = stored_spinwave(setup.geometry, n_points=60).grid
        samples = sample_geometry(setup.geometry, 3, np.random.default_rng(11))
        fields = np.array([setup.resonance_field, 0.0, 1.3])
        gate = tuple(samples.gates[0, :2])
        ch = _path_channel(grid, setup.params, setup.interaction, fields, gate,
                           samples.offsets, samples.density_scales)
        assert calls == [1]
        assert ch.scatter.shape == (3, 3, 60, 60)
        for k, field in enumerate(fields):
            for j in range(3):
                _assert_matches_dense_reference(
                    ch.transmit[k, j], ch.scatter[k, j], grid, setup, float(field),
                    gate, samples.offsets[j], float(samples.density_scales[j]))

    def test_resonance_field_channel_is_real(self, off_axis):
        # V_ef is purely dissipative there: no propagation phase
        _, ch = off_axis
        assert ch.scatter.real.any()
        assert not ch.scatter.imag.any()
        assert not ch.decoherence_matrix.imag.any()

    def test_detuned_resonance_keeps_the_phase(self):
        setup = build_setup(load_config(None, "retrieval", {"omega_mhz": 5.0}))
        grid = stored_spinwave(setup.geometry, n_points=61).grid
        kw = dict(gate=(1.5, -0.5), source=(-2.0, 1.0), scale=0.8)
        # 5 MHz is outside the adiabatic regime, which transport reports
        with pytest.warns(UserWarning, match="omega = "):
            ch = _path_channel(grid, setup.params, setup.interaction,
                               [setup.resonance_field], kw["gate"], [kw["source"]],
                               [kw["scale"]])
            _assert_matches_dense_reference(ch.transmit[0, 0], ch.scatter[0, 0], grid,
                                            setup, setup.resonance_field, **kw)
        assert ch.scatter.imag.any()

    def test_non_uniform_grid_raises(self, setup):
        grid = np.linspace(-80.0, 80.0, 61)
        args = (setup.params, setup.interaction, np.array([setup.resonance_field]))
        nudged = grid.copy()
        nudged[30] += 1e-11 * (grid[1] - grid[0])
        _path_channel(nudged, *args)  # uniform to 1e-9 relative
        nudged[30] = grid[30] + 1e-6 * (grid[1] - grid[0])
        with pytest.raises(ValueError, match="uniform grid"):
            _path_channel(nudged, *args)
        # photon_channel checks its own grid, also given a uniform grid's transport
        t, chi1 = spinwave._path_transport(grid, *args, (0.0, 0.0), np.zeros((1, 2)),
                                           np.ones(1))
        with pytest.raises(ValueError, match="uniform grid"):
            photon_channel(nudged, setup.params, t, chi1, np.ones(1))

    def test_decoherence_matrix_matches_einsum(self, off_axis):
        _, ch = off_axis
        t, s = ch.transmit[0, 0], ch.scatter[0, 0]
        ref = np.outer(t, t.conj()) + np.einsum("sg,sh->gh", s, s.conj())
        assert ch.decoherence_matrix.shape == (1, 61, 61)
        assert np.max(np.abs(ch.decoherence_matrix[0] - ref)) <= 1e-12

    def test_scattered_branch_is_decoherence_minus_transmitted(self, off_axis):
        state, ch = off_axis
        t = ch.transmit[0, 0]
        rho_p, rho_s = channel_branches(state.rho, ch)
        ref = (ch.decoherence_matrix[0] - np.outer(t, t.conj())) * state.rho
        assert np.max(np.abs(rho_s - ref)) <= 1e-12
        assert np.max(np.abs(rho_p - np.outer(t, t.conj()) * state.rho)) <= 1e-15

    def test_generating_function_matches_truncated_poisson_sum(self, setup):
        state = stored_spinwave(setup.geometry, n_points=61)
        means = np.array([0.0, 0.5, 3.0, 20.0, 66.0, 140.0])
        (overlap,), (p_scatter,) = transverse_channels(
            state, setup.geometry, setup.params, setup.interaction,
            np.array([setup.resonance_field]), n_offsets=3, seed=0, source_means=means,
        )
        n_scattered, efficiency = retrieval_efficiency_curve(
            overlap, p_scatter, means, _ETA_BASE)
        decoherence, _ = _group_matrices(state, setup, setup.resonance_field, 3, 0)

        # sum_k Poisson(k; mu) <psi| D^k o rho |psi>, truncated far in the tail
        psi = np.sqrt(np.real(np.diag(state.rho)))
        k_max = int(np.ceil(means.max() + 10.0 * np.sqrt(means.max() + 1.0)))
        overlap = np.empty((len(decoherence), k_max + 1))
        for ic, d in enumerate(decoherence):
            dk = np.ones_like(d)
            for k in range(k_max + 1):
                overlap[ic, k] = np.real(psi @ ((dk * state.rho) @ psi))
                dk = dk * d
        assert efficiency.shape == n_scattered.shape == means.shape
        for eff, n_s, mean in zip(efficiency, n_scattered, means):
            pk = stats.poisson.pmf(np.arange(k_max + 1), mean)
            ref = _ETA_BASE * np.mean(overlap @ pk)
            assert eff == pytest.approx(ref, rel=1e-12, abs=0.0)
            assert n_s == pytest.approx(
                mean * np.mean(p_scatter), rel=1e-15, abs=0.0)


def _full_matrix_efficiency(state, decoherence, means, eta_base):
    """The Poisson average as the complex full-matrix sum Re sum w exp(mu(D-1))."""
    psi = np.sqrt(np.real(np.diag(state.rho)))
    w = psi[:, None] * state.rho * psi[None, :]
    return np.array([
        eta_base * np.mean([float(np.sum(w * np.exp(mu * (d - 1.0))).real)
                            for d in decoherence])
        for mu in means
    ])


class TestTriangleForm:
    """The real upper-triangle evaluation against the complex full matrix."""

    means = np.array([0.0, 0.25, 1.0, 3.0, 10.0, 30.0, 66.0, 140.0])

    def _check(self, state, decoherence):
        _, got = _curve(state, decoherence, np.zeros(len(decoherence)), self.means,
                        eta_base=_ETA_BASE)
        ref = _full_matrix_efficiency(state, decoherence, self.means, _ETA_BASE)
        assert np.all(ref > 0.0)
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-13

    @pytest.mark.parametrize("at_resonance", [True, False])
    def test_matches_full_matrix_on_transverse_channels(self, setup, at_resonance):
        state = stored_spinwave(setup.geometry, n_points=61)
        field = setup.resonance_field if at_resonance else 0.0
        decoherence, _ = _group_matrices(state, setup, field, 2, 0)
        # on resonance V_ef is purely dissipative and D is real; off
        # resonance the propagation phases make it complex
        assert (np.max(np.abs(decoherence.imag)) > 1e-3) != at_resonance
        self._check(state, decoherence)

    def test_matches_full_matrix_on_synthetic_hermitian(self, setup, rng):
        state = stored_spinwave(setup.geometry, n_points=61)
        n = state.grid.size
        ds = []
        for _ in range(3):
            # Hermitian, unit diagonal, |D| <= 1 off the diagonal
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            d = (a @ a.conj().T) / n
            norm = np.sqrt(np.real(np.diag(d)))
            ds.append(d / np.outer(norm, norm))
        decoherence = np.array(ds)
        hermitian_err = decoherence - decoherence.conj().transpose(0, 2, 1)
        assert np.max(np.abs(hermitian_err)) <= 1e-12
        self._check(state, decoherence)

    def test_non_hermitian_decoherence_raises(self, setup):
        state = stored_spinwave(setup.geometry, n_points=21)
        d = np.ones((21, 21), dtype=complex)
        d[3, 5] += 1e-6j  # no matching conjugate at [5, 3]
        with pytest.raises(NumericsError, match="not Hermitian"):
            _curve(state, d[None], np.zeros(1), [1.0], eta_base=0.2)

    def test_complex_overlap_weights_raise(self):
        grid = np.linspace(-1.0, 1.0, 5)
        amp = np.exp(1j * grid) / np.sqrt(5.0)  # a pure state with phases
        state = SpinWaveState(grid=grid, rho=np.outer(amp, amp.conj()))
        d = np.ones((5, 5), dtype=complex)
        with pytest.raises(NumericsError, match="not real"):
            _curve(state, d[None], np.zeros(1), [1.0], eta_base=0.2)


class TestHalfAngleForms:
    """The tangent half-angle phasors of `photon_channel` and
    `poisson_overlap` against np.cos and np.sin, and the overlap tables
    built once per state."""

    def test_rotation_matches_cos_and_sin(self, rng):
        odd = (2 * np.arange(-320, 320) + 1) * np.pi
        # zero, tiny phases, and the doubles nearest odd multiples of pi/2
        # (t near +-1) and of pi (t near +-1e16)
        special = np.concatenate([[0.0, 1e-300, -1e-300], odd, odd / 2,
                                  np.nextafter(odd, np.inf), np.nextafter(odd / 2, -np.inf)])
        phase = np.concatenate([rng.uniform(-1e3, 1e3, 100_000),
                                special[np.abs(special) <= 1e3]])
        half, amplitude = 0.5 * phase, np.ones_like(phase)
        spinwave._half_angle_rotate(half, amplitude)
        cos, sin = amplitude, half
        ulp = np.spacing(1.0)
        assert np.all(np.isfinite(cos)) and np.all(np.isfinite(sin))
        assert np.max(np.abs(cos - np.cos(phase))) <= 4 * ulp
        assert np.max(np.abs(sin - np.sin(phase))) <= 4 * ulp
        assert np.max(np.abs(cos**2 + sin**2 - 1.0)) <= 4 * ulp

    def test_overlap_matches_the_cos_form(self, setup, rng):
        state = stored_spinwave(setup.geometry, n_points=61)
        n = state.grid.size
        # Hermitian with unit diagonal: Re D in [0.95, 1] and |Im D| <= 0.2,
        # so |mu Im D| reaches 20 at mu = 100
        re = rng.uniform(0.95, 1.0, size=(n, n))
        re = np.triu(re, 1) + np.triu(re, 1).T + np.eye(n)
        im = np.triu(rng.uniform(-0.2, 0.2, size=(n, n)), 1)
        d = re + 1j * (im - im.T)
        means = np.array([0.0, 0.5, 3.0, 20.0, 60.0, 100.0])
        psi = np.sqrt(np.real(np.diag(state.rho)))
        w = (psi[:, None] * state.rho * psi[None, :]).real
        ref = np.array([np.sum(w * np.exp(mu * (re - 1.0)) * np.cos(mu * d.imag))
                        for mu in means])
        got = poisson_overlap(state, d[None], means)[0]
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-14

    def test_overlap_tables_built_once_per_state(self, setup, monkeypatch):
        built = []
        build = SpinWaveState._overlap_tables.func

        def counted(state):
            built.append(state)
            return build(state)

        tables = functools.cached_property(counted)
        tables.__set_name__(SpinWaveState, "_overlap_tables")
        monkeypatch.setattr(SpinWaveState, "_overlap_tables", tables)
        groups = []

        def recording(state, decoherence, source_means):
            groups.append(state)
            return poisson_overlap(state, decoherence, source_means)

        monkeypatch.setattr(spinwave, "poisson_overlap", recording)
        args = (setup.geometry, setup.params, setup.interaction,
                np.array([setup.resonance_field, 0.0]))
        kw = dict(n_offsets=4, seed=1, source_means=[0.0, 1.0, 10.0])
        states = [stored_spinwave(setup.geometry, n_points=31) for _ in range(2)]
        for state in states:
            transverse_channels(state, *args, **kw)
        assert len(groups) == 8 and [id(s) for s in groups] == [id(states[0])] * 4 + [
            id(states[1])] * 4
        assert [id(s) for s in built] == [id(s) for s in states]
        assert states[0]._overlap_tables[1] is not states[1]._overlap_tables[1]


class TestRetrievalCurve:
    def test_zero_source_efficiency_is_storage_decay_only(self, setup):
        state = stored_spinwave(setup.geometry, n_points=101)
        d = _identity_channel(state.grid).decoherence_matrix
        (n_scattered,), (efficiency,) = _curve(
            state, d, np.zeros(1), [0.0], eta_base=_ETA_BASE,
        )
        assert efficiency == pytest.approx(_ETA_BASE, rel=1e-9)
        assert n_scattered == 0.0

    def test_monotone_decreasing_in_source_mean(self, setup):
        state = stored_spinwave(setup.geometry, n_points=101)
        ch = _path_channel(state.grid, setup.params, setup.interaction,
                           [setup.resonance_field])
        _, _, p_s = apply_channel(state, ch)
        _, effs = _curve(
            state, ch.decoherence_matrix, np.array([p_s]),
            [0.0, 1.0, 4.0, 16.0, 64.0], eta_base=0.2,
        )
        assert all(b < a for a, b in zip(effs, effs[1:]))

    def test_localizing_limit_collapses_to_scattered_photon_count(self, setup):
        # with no transparency-window loss and a blockade sphere much smaller
        # than the stored mode, every scattered photon reads out the
        # excitation position and the curve approaches eta_base*exp(-N_s);
        # the residual is the coherence within one localization width
        from rydsim.atomic_states import PairChannel, RydbergLevel
        from rydsim.interaction import InteractionParams

        params = dataclasses.replace(
            setup.params, gamma_s=0.0, profile="uniform",
            cloud_half_length=160.0, z_extent=160.0,
        )
        lvl = RydbergLevel(49, "P", 0.5, 0.5)
        resonant = PairChannel(gate_state=lvl, source_state=lvl,
                               defect_zero_field=0.0,
                               diff_polarizability=6.28, c3=10.0)
        inter = InteractionParams(gamma_p=0.94, channels=(resonant,))
        means = [0.0, 0.5, 1.0, 2.0]

        def deviations(mode_half_length, n_points):
            geo = dataclasses.replace(
                setup.geometry, cloud_half_length=mode_half_length)
            state = stored_spinwave(geo, n_points=n_points)
            ch = _path_channel(state.grid, params, inter, [0.0])
            # gamma_s = 0 makes the gate-free baseline 1, so every
            # scattered photon counts
            _, _, p_s = apply_channel(state, ch)
            n_scattered, efficiency = _curve(
                state, ch.decoherence_matrix, np.array([p_s]), means,
                eta_base=0.2,
            )
            base = efficiency[0]
            return [eff / (base * np.exp(-n_s)) - 1.0
                    for n_s, eff in zip(n_scattered, efficiency)]

        narrow = deviations(15.0, 401)
        wide = deviations(60.0, 1201)
        assert all(abs(d) < 0.05 for d in wide)
        # widening the stored mode (blockade relatively smaller) converges
        # towards the limit curve
        assert abs(wide[-1]) < abs(narrow[-1])

    def test_transverse_channels_structure(self, setup):
        state = stored_spinwave(setup.geometry, n_points=51)
        means = [0.0, 2.0, 30.0]
        overlap, p_scatter = transverse_channels(
            state, setup.geometry, setup.params, setup.interaction,
            np.array([setup.resonance_field]), n_offsets=3, seed=0, source_means=means,
        )
        assert overlap.shape == (1, 3, 3)
        assert p_scatter.shape == (1, 3)
        (overlap,), (p_scatter,) = overlap, p_scatter
        # no source photon leaves the stored mode whole, and more decohere it
        assert np.max(np.abs(overlap[:, 0] - 1.0)) <= 1e-12
        assert np.all(np.diff(overlap, axis=1) < 0.0) and np.all(overlap > 0.0)
        # a mean of Kraus decoherence matrices: Hermitian with unit diagonal
        decoherence, _ = _group_matrices(state, setup, setup.resonance_field, 3, 0)
        for d in decoherence:
            assert np.max(np.abs(d - d.conj().T)) <= 1e-12
            assert np.max(np.abs(np.diag(d) - 1.0)) <= 1e-6
        assert np.all((p_scatter >= 0.0) & (p_scatter <= 1.0))

    def test_group_summaries_match_channels_built_by_hand(self, setup, monkeypatch):
        state = stored_spinwave(setup.geometry, n_points=41)
        field = setup.resonance_field
        means = [0.0, 1.0, 7.5, 40.0]
        # the group matrices that `transverse_channels` reduces to rows
        groups = []

        def recording(state, decoherence, source_means):
            groups.append(decoherence[0].copy())
            return poisson_overlap(state, decoherence, source_means)

        monkeypatch.setattr(spinwave, "poisson_overlap", recording)
        (overlap,), (p_scatter,) = transverse_channels(
            state, setup.geometry, setup.params, setup.interaction, np.array([field]),
            n_offsets=2, seed=7, source_means=means,
        )
        decoherence, excess = _group_matrices(state, setup, field, 2, 7)
        assert len(groups) == 2
        for i in range(2):
            assert np.max(np.abs(groups[i] - decoherence[i])) <= 1e-15
            assert np.array_equal(overlap[i], poisson_overlap(state, groups[i], means))
            assert abs(p_scatter[i] - excess[i]) <= 1e-15
        ref = poisson_overlap(state, decoherence, means)
        assert np.max(np.abs(overlap - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_transverse_channels_hold_one_channel_at_a_time(self, setup):
        # 6 x 6 channels of 101 points: holding them all would trace about
        # 36 scatter matrices
        state = stored_spinwave(setup.geometry, n_points=101)
        matrix_bytes = 101 * 101 * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            transverse_channels(
                state, setup.geometry, setup.params, setup.interaction,
                np.array([setup.resonance_field]), n_offsets=6, seed=0,
                source_means=[0.0, 1.0, 10.0],
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * matrix_bytes

    def test_transport_once_per_gate_offset(self, setup, monkeypatch):
        # 5 gate offsets of 5 paths each: blocks of 3 and 2 paths
        calls = collections.Counter()

        def counted(name, fn):
            def count(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return count

        for name in ("transmission_batch", "chi_values", "photon_channel"):
            monkeypatch.setattr(spinwave, name, counted(name, getattr(spinwave, name)))
        prop = spinwave.PhotonChannel.decoherence_matrix
        monkeypatch.setattr(spinwave.PhotonChannel, "decoherence_matrix",
                            property(counted("decoherence_matrix", prop.fget)))
        state = stored_spinwave(setup.geometry, n_points=31)
        transverse_channels(state, setup.geometry, setup.params, setup.interaction,
                            np.array([setup.resonance_field, 0.0]), n_offsets=5,
                            seed=2, source_means=[0.0, 1.0])
        assert calls == {"transmission_batch": 5, "chi_values": 5,
                         "photon_channel": 10, "decoherence_matrix": 10}

    @pytest.mark.parametrize("n_points, n_offsets", [(61, 3), (201, 12)],
                             ids=["small", "large"])
    def test_transverse_channels_stay_within_the_work_bound(self, setup, n_points,
                                                            n_offsets):
        state = stored_spinwave(setup.geometry, n_points=n_points)
        means = np.linspace(0.0, 60.0, 22)
        args = (state, setup.geometry, setup.params, setup.interaction,
                np.array([setup.resonance_field, 0.0]), n_offsets, 0, means)
        # a first call pays the one-time imports and interpreter tables,
        # which are not work arrays
        transverse_channels(*args)
        tracemalloc.start()
        try:
            transverse_channels(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= spinwave.retrieval_work_bytes(n_points, n_offsets, means.size)


class TestPathBlocks:
    """Channels built for a field grid and a block of source paths against
    one channel per field and path."""

    @pytest.fixture(scope="class")
    def paths(self, setup):
        state = stored_spinwave(setup.geometry, n_points=61)
        samples = sample_geometry(setup.geometry, 3, np.random.default_rng(5))
        return state, samples, np.array([setup.resonance_field, 0.0])

    def test_field_grid_matches_scalar_field_channels(self, setup, paths):
        # a two-field grid against a grid of one field each
        state, samples, fields = paths
        args = (tuple(samples.gates[0, :2]), samples.offsets[:1],
                samples.density_scales[:1])
        ch = _path_channel(state.grid, setup.params, setup.interaction, fields, *args)
        assert ch.transmit.shape == (2, 1, 61)
        assert ch.scatter.shape == (2, 1, 61, 61)
        d = ch.decoherence_matrix
        for k, field in enumerate(fields):
            one = _path_channel(state.grid, setup.params, setup.interaction,
                                fields[k:k + 1], *args)
            assert one.transmit.shape == (1, 1, 61)
            assert one.scatter.shape == (1, 1, 61, 61)
            assert one.decoherence_matrix.shape == (1, 61, 61)
            assert np.array_equal(ch.transmit[k], one.transmit[0])
            assert np.array_equal(ch.scatter[k], one.scatter[0])
            assert np.array_equal(d[k], one.decoherence_matrix[0])

    def test_mixture_is_the_mean_of_its_paths(self, setup, paths):
        state, samples, fields = paths
        args = (state.grid, setup.params, setup.interaction, fields,
                tuple(samples.gates[1, :2]))
        mix = _path_channel(*args, samples.offsets, samples.density_scales)
        assert mix.transmit.shape == (2, 3, 61)
        assert mix.scatter.shape == (2, 3, 61, 61)
        d = mix.decoherence_matrix
        assert d.shape == (2, 61, 61)
        assert np.array_equal(d, np.conj(np.swapaxes(d, -1, -2)))
        singles = []
        for j in range(3):
            one = _path_channel(*args, samples.offsets[j:j + 1],
                                samples.density_scales[j:j + 1])
            assert np.array_equal(mix.transmit[:, j], one.transmit[:, 0])
            assert np.array_equal(mix.scatter[:, j], one.scatter[:, 0])
            singles.append(one.decoherence_matrix)
        # one stacked product sums in another order than the paths' own:
        # 1.9e-15 apart at most as measured, with |D| <= 1
        assert np.max(np.abs(d - np.mean(singles, axis=0))) <= 4e-15

    def test_amplitudes_restack_to_the_same_channel(self, setup, paths):
        state, samples, fields = paths
        ch = _path_channel(state.grid, setup.params, setup.interaction, fields,
                           tuple(samples.gates[2, :2]), samples.offsets,
                           samples.density_scales)
        # real at the resonance field, complex at zero field
        assert [bool(ch.x[k, :, 1].any()) for k in range(2)] == [False, True]
        again = _kraus_channel(ch.transmit, ch.scatter)
        assert np.array_equal(again.x, ch.x)
        for name in ("decoherence_matrix", "transmit", "scatter"):
            assert np.array_equal(getattr(again, name), getattr(ch, name))

    def test_real_field_writes_a_zero_imaginary_half(self, setup, paths):
        # a reused work array holds whatever the last block left in it
        state, samples, fields = paths
        n = state.grid.size
        work = np.full(2 * fields.size * n * 3 * (n + 1), np.nan)
        ch = _path_channel(state.grid, setup.params, setup.interaction, fields,
                           tuple(samples.gates[0, :2]), samples.offsets,
                           samples.density_scales, out=work)
        assert np.shares_memory(ch.x, work)
        assert not np.isnan(ch.x).any()
        assert np.array_equal(ch.x[0, :, 1], np.zeros_like(ch.x[0, :, 1]))
        assert ch.x[1, :, 1].any()

    def test_transverse_channels_on_a_field_grid(self, setup, paths):
        state, _, fields = paths
        args = (state, setup.geometry, setup.params, setup.interaction)
        # 4 paths: a block of 3 and a block of 1
        means = [0.0, 1.0, 7.5, 40.0]
        overlap, p = transverse_channels(*args, fields, n_offsets=4, seed=3,
                                         source_means=means)
        assert overlap.shape == (2, 4, 4) and p.shape == (2, 4)
        for k, field in enumerate(fields):
            overlap_k, p_k = transverse_channels(*args, fields[k:k + 1], n_offsets=4,
                                                 seed=3, source_means=means)
            assert overlap_k.shape == (1, 4, 4) and p_k.shape == (1, 4)
            assert np.array_equal(overlap[k], overlap_k[0])
            assert np.array_equal(p[k], p_k[0])
            d_k, excess_k = _group_matrices(state, setup, float(field), 4, 3)
            ref = poisson_overlap(state, d_k, means)
            assert np.max(np.abs(overlap_k[0] - ref)) <= 1e-13 * np.max(np.abs(ref))
            assert np.max(np.abs(p_k[0] - excess_k)) <= 1e-15

def _single_path_channel(grid, params, interaction, field, gate, source, scale):
    """Transmission and scatter amplitudes of one source path, as
    `photon_channel` built them before it took field grids and path blocks:
    the complex-form chi table and a new complex scatter array."""
    n = grid.size
    gates = np.column_stack([np.full(n, gate[0]), np.full(n, gate[1]), grid])
    t = transmission_batch(np.tile(source, (n, 1)), gates, params, interaction,
                           field, density_scale=scale)
    mag = np.abs(t)
    t = np.where(mag > 1.0, t / mag, t)
    pref = effective_c6(params.omega, field, interaction)
    t_dist_sq = (source[0] - gate[0]) ** 2 + (source[1] - gate[1]) ** 2
    chi = chi_values(grid[None, :], params, pref, grid[:, None], t_dist_sq, scale)
    dz = np.gradient(grid)
    weights = np.clip(chi.imag, 0.0, None) * dz[None, :]
    norm = weights.sum(axis=1)
    weights = weights / np.where(norm > 0, norm, 1.0)[:, None]
    lost = np.clip(1.0 - np.abs(t) ** 2, 0.0, None)
    phase = np.cumsum(chi.real * dz[None, :], axis=1) / params.c
    scatter = np.exp(1j * phase) * np.sqrt(lost[:, None] * weights)
    return t, scatter.T


def _count_chi_calls(monkeypatch):
    """Record one entry per `chi_values` call that `photon_channel` makes."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return chi_values(*args, **kwargs)

    monkeypatch.setattr(spinwave, "chi_values", counting)
    return calls


def _assert_matches_dense_reference(transmit, scatter, grid, setup, field, gate,
                                    source, scale):
    """One path's amplitudes against `_single_path_channel`, 1e-12 relative."""
    t, s = _single_path_channel(grid, setup.params, setup.interaction, field,
                                gate, source, scale)
    assert np.array_equal(transmit, t)
    assert scatter.shape == s.shape
    assert np.max(np.abs(scatter - s)) <= 1e-12 * np.max(np.abs(s))


def _per_channel_curves(setup, cfg):
    """Efficiency and scattered-photon number of the two model curves of
    `retrieval.csv`, as `runner.run_retrieval` computed them before it built
    path blocks for both fields: one field at a time, one channel per gate
    offset and source path, each added into its group's D with complex
    products, then the Poisson average as a complex full-matrix sum."""
    state = stored_spinwave(setup.geometry, cfg.spinwave_points)
    psi = np.sqrt(np.real(np.diag(state.rho)))
    w = psi[:, None] * state.rho * psi[None, :]
    p_diag = np.real(np.diag(state.rho))
    means = np.asarray(cfg.source_means, dtype=float)
    eta_base = cfg.retrieval_eta0 * np.exp(-cfg.storage_time / cfg.intrinsic_lifetime)
    n_off = cfg.retrieval_offsets
    curves = {}
    for variant, field in (("model", setup.resonance_field), ("model_zero_field", 0.0)):
        samples = sample_geometry(setup.geometry, n_off, np.random.default_rng(cfg.seed))
        baseline = eit_baseline(setup.params, samples.density_scales).intensity
        overlap = np.empty((n_off, means.size))
        excess = np.empty((n_off, n_off))
        for i in range(n_off):
            d = np.zeros((state.grid.size,) * 2, dtype=complex)
            for j in range(n_off):
                t, s = _single_path_channel(
                    state.grid, setup.params, setup.interaction, field,
                    samples.gates[i, :2], samples.offsets[j],
                    float(samples.density_scales[j]))
                d += np.outer(t, t.conj()) + s.T @ s.conj()
                lost = 1.0 - p_diag @ np.abs(t) ** 2
                excess[i, j] = max(lost - (1.0 - baseline[j]), 0.0)
            d /= n_off
            overlap[i] = [np.sum(w * np.exp(mu * (d - 1.0))).real for mu in means]
        curves[variant] = (means * excess.mean(), eta_base * overlap.mean(axis=0))
    return curves


def test_retrieval_csv_matches_the_per_channel_loop(tmp_path, monkeypatch):
    cfg = load_config(None, "retrieval", {
        "retrieval_offsets": 3, "spinwave_points": 61, "output_dir": str(tmp_path)})
    setup = build_setup(cfg)
    assert cfg.retrieval_field < 0  # the resonance field
    # full precision in the CSV, so the comparison is not one of rounding
    monkeypatch.setattr(runner, "_fmt",
                        lambda v: repr(v) if isinstance(v, float) else str(v))
    runner.run_experiment(cfg, log=io.StringIO())
    with (tmp_path / "retrieval.csv").open(encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for variant, (n_s, eff) in _per_channel_curves(setup, cfg).items():
        got = [r for r in rows if r["model_variant"] == variant]
        assert [float(r["n_in_mean"]) for r in got] == list(cfg.source_means)
        got_n_s = np.array([float(r["n_scattered_mean"]) for r in got])
        got_eff = np.array([float(r["efficiency"]) for r in got])
        assert np.all(eff > 0.0) and n_s[-1] > 0.0
        assert np.allclose(got_eff, eff, rtol=1e-12, atol=0.0)
        assert np.allclose(got_n_s, n_s, rtol=1e-12, atol=0.0)


class TestLimitCurves:
    def test_three_variants_agree_at_zero_input(self):
        curves = limit_curves([0.0, 2.0], p_scatter=0.3, eta_base=0.1,
                              blockade_fraction=0.5)
        assert set(curves) == {"black", "dashed", "dotted"}
        assert all(eff.shape == (2,) for eff in curves.values())
        assert all(eff[0] == pytest.approx(0.1) for eff in curves.values())

    def test_dashed_decays_fastest_for_lossy_beam(self):
        eff = limit_curves([5.0], p_scatter=0.3, eta_base=0.1,
                           blockade_fraction=0.5)
        assert eff["dashed"][0] < eff["dotted"][0] < eff["black"][0]

    def test_blockade_beam_fraction_monotone_and_bounded(self):
        fracs = [blockade_beam_fraction(r, 6.2) for r in (0.0, 2.0, 6.0, 20.0)]
        assert fracs[0] == 0.0
        assert all(b > a for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] <= 1.0

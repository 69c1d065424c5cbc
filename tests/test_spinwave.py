"""Stored spin-wave decoherence channel and retrieval efficiency."""

import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy import stats

from rydsim import spinwave
from rydsim.ensemble import sample_geometry
from rydsim.errors import NumericsError
from rydsim.propagation import chi_values, eit_baseline
from rydsim.spinwave import (
    PhotonChannel,
    SpinWaveState,
    apply_channel,
    blockade_beam_fraction,
    channel_branches,
    limit_curves,
    photon_channel,
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


def _identity_channel(grid):
    n = grid.size
    return PhotonChannel(grid=grid, transmit=np.ones(n),
                         scatter=np.zeros((1, n)))


def _dephasing_channel(grid):
    n = grid.size
    return PhotonChannel(grid=grid, transmit=np.zeros(n),
                         scatter=np.eye(n, dtype=complex))


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
        grid = np.linspace(-1, 1, 5)
        with pytest.raises(NumericsError):
            PhotonChannel(grid=grid, transmit=np.full(5, 0.9),
                          scatter=np.zeros((1, 5)))

    def test_constructed_channel_is_complete(self, setup):
        state = stored_spinwave(setup.geometry, n_points=101)
        ch = photon_channel(state.grid, setup.params, setup.interaction,
                            setup.resonance_field)
        total = np.abs(ch.transmit) ** 2 + np.sum(np.abs(ch.scatter) ** 2, axis=0)
        assert np.max(np.abs(total - 1.0)) < 1e-6

    def test_apply_preserves_trace_and_probability(self, setup):
        state = stored_spinwave(setup.geometry, n_points=101)
        ch = photon_channel(state.grid, setup.params, setup.interaction,
                            setup.resonance_field)
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
        ch = photon_channel(state.grid, setup.params, setup.interaction,
                            setup.resonance_field)
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
            ch = photon_channel(state.grid, setup.params, setup.interaction,
                                setup.resonance_field)
            _, p_t, _ = apply_channel(state, ch)
            p_ts.append(p_t)
        assert abs(p_ts[0] - p_ts[1]) < 1e-3


class TestDenseKernels:
    """Dense kernels against per-row and per-power loop references."""

    @pytest.fixture(scope="class")
    def off_axis(self, setup):
        state = stored_spinwave(setup.geometry, n_points=61)
        ch = photon_channel(state.grid, setup.params, setup.interaction,
                            setup.resonance_field, gate_offset=(1.5, -0.5),
                            source_offset=(-2.0, 1.0), density_scale=0.8)
        return state, ch

    def test_channel_chi_matrix_matches_row_calls(self, setup, monkeypatch):
        calls = []

        def recording(*args, **kwargs):
            chi = chi_values(*args, **kwargs)
            calls.append((inspect.signature(chi_values).bind(*args, **kwargs), chi))
            return chi

        monkeypatch.setattr(spinwave, "chi_values", recording)
        grid = np.linspace(-80.0, 80.0, 61)
        photon_channel(grid, setup.params, setup.interaction,
                       setup.resonance_field, gate_offset=(1.5, -0.5),
                       source_offset=(-2.0, 1.0), density_scale=0.8)
        ((bound, dense),) = calls
        a = bound.arguments
        assert a["transverse_dist_sq"] == pytest.approx(3.5**2 + 1.5**2)
        assert a["density_scale"] == 0.8
        # row g: chi at every scattering point s for the gate at grid[g]
        rows = np.stack([
            chi_values(grid, a["params"], a["vef_prefactor"], gz,
                       a["transverse_dist_sq"], a["density_scale"])
            for gz in grid
        ])
        assert dense.shape == rows.shape
        assert np.max(np.abs(dense - rows)) <= 1e-12 * np.max(np.abs(rows))

    def test_decoherence_matrix_matches_einsum(self, off_axis):
        _, ch = off_axis
        t = ch.transmit
        ref = np.outer(t, t.conj()) + np.einsum(
            "sg,sh->gh", ch.scatter, ch.scatter.conj())
        assert np.max(np.abs(ch.decoherence_matrix - ref)) <= 1e-12

    def test_scattered_branch_is_decoherence_minus_transmitted(self, off_axis):
        state, ch = off_axis
        t = ch.transmit
        rho_p, rho_s = channel_branches(state.rho, ch)
        ref = (ch.decoherence_matrix - np.outer(t, t.conj())) * state.rho
        assert np.max(np.abs(rho_s - ref)) <= 1e-12
        assert np.max(np.abs(rho_p - np.outer(t, t.conj()) * state.rho)) <= 1e-15

    def test_generating_function_matches_truncated_poisson_sum(self, setup):
        state = stored_spinwave(setup.geometry, n_points=61)
        decoherence, p_scatter = transverse_channels(
            state, setup.geometry, setup.params, setup.interaction,
            setup.resonance_field, n_offsets=3, seed=0,
        )
        means = np.array([0.0, 0.5, 3.0, 20.0, 66.0, 140.0])
        rows = retrieval_efficiency_curve(state, decoherence, p_scatter, means,
                                          eta_base=_ETA_BASE)

        # sum_k Poisson(k; mu) <psi| D^k o rho |psi>, truncated far in the tail
        psi = np.sqrt(np.real(np.diag(state.rho)))
        k_max = int(np.ceil(means.max() + 10.0 * np.sqrt(means.max() + 1.0)))
        overlap = np.empty((len(decoherence), k_max + 1))
        for ic, d in enumerate(decoherence):
            dk = np.ones_like(d)
            for k in range(k_max + 1):
                overlap[ic, k] = np.real(psi @ ((dk * state.rho) @ psi))
                dk = dk * d
        for row, mean in zip(rows, means):
            pk = stats.poisson.pmf(np.arange(k_max + 1), mean)
            ref = _ETA_BASE * np.mean(overlap @ pk)
            assert row.efficiency == pytest.approx(ref, rel=1e-12, abs=0.0)
            assert row.n_scattered_mean == pytest.approx(
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
        rows = retrieval_efficiency_curve(state, decoherence,
                                          np.zeros(len(decoherence)), self.means,
                                          eta_base=_ETA_BASE)
        got = np.array([r.efficiency for r in rows])
        ref = _full_matrix_efficiency(state, decoherence, self.means, _ETA_BASE)
        assert np.all(ref > 0.0)
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-13

    @pytest.mark.parametrize("at_resonance", [True, False])
    def test_matches_full_matrix_on_transverse_channels(self, setup, at_resonance):
        state = stored_spinwave(setup.geometry, n_points=61)
        field = setup.resonance_field if at_resonance else 0.0
        decoherence, _ = transverse_channels(
            state, setup.geometry, setup.params, setup.interaction, field,
            n_offsets=2, seed=0,
        )
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
            retrieval_efficiency_curve(state, d[None], np.zeros(1), [1.0], eta_base=0.2)

    def test_complex_overlap_weights_raise(self):
        grid = np.linspace(-1.0, 1.0, 5)
        amp = np.exp(1j * grid) / np.sqrt(5.0)  # a pure state with phases
        state = SpinWaveState(grid=grid, rho=np.outer(amp, amp.conj()))
        d = np.ones((5, 5), dtype=complex)
        with pytest.raises(NumericsError, match="not real"):
            retrieval_efficiency_curve(state, d[None], np.zeros(1), [1.0], eta_base=0.2)


class TestRetrievalCurve:
    def test_zero_source_efficiency_is_storage_decay_only(self, setup):
        state = stored_spinwave(setup.geometry, n_points=101)
        d = _identity_channel(state.grid).decoherence_matrix
        rows = retrieval_efficiency_curve(
            state, d[None], np.zeros(1), [0.0], eta_base=_ETA_BASE,
        )
        assert rows[0].efficiency == pytest.approx(_ETA_BASE, rel=1e-9)
        assert rows[0].n_scattered_mean == 0.0

    def test_monotone_decreasing_in_source_mean(self, setup):
        state = stored_spinwave(setup.geometry, n_points=101)
        ch = photon_channel(state.grid, setup.params, setup.interaction,
                            setup.resonance_field)
        _, _, p_s = apply_channel(state, ch)
        rows = retrieval_efficiency_curve(
            state, ch.decoherence_matrix[None], np.array([p_s]),
            [0.0, 1.0, 4.0, 16.0, 64.0], eta_base=0.2,
        )
        effs = [r.efficiency for r in rows]
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
            ch = photon_channel(state.grid, params, inter, 0.0)
            # gamma_s = 0 makes the gate-free baseline 1, so every
            # scattered photon counts
            _, _, p_s = apply_channel(state, ch)
            rows = retrieval_efficiency_curve(
                state, ch.decoherence_matrix[None], np.array([p_s]), means,
                eta_base=0.2,
            )
            base = rows[0].efficiency
            return [r.efficiency / (base * np.exp(-r.n_scattered_mean)) - 1.0
                    for r in rows]

        narrow = deviations(15.0, 401)
        wide = deviations(60.0, 1201)
        assert all(abs(d) < 0.05 for d in wide)
        # widening the stored mode (blockade relatively smaller) converges
        # towards the limit curve
        assert abs(wide[-1]) < abs(narrow[-1])

    def test_transverse_channels_structure(self, setup):
        state = stored_spinwave(setup.geometry, n_points=51)
        decoherence, p_scatter = transverse_channels(
            state, setup.geometry, setup.params, setup.interaction,
            setup.resonance_field, n_offsets=3, seed=0,
        )
        assert decoherence.shape == (3, 51, 51)
        assert p_scatter.shape == (3,)
        # a mean of Kraus decoherence matrices: Hermitian with unit diagonal
        for d in decoherence:
            assert np.max(np.abs(d - d.conj().T)) <= 1e-12
            assert np.max(np.abs(np.diag(d) - 1.0)) <= 1e-6
        assert np.all((p_scatter >= 0.0) & (p_scatter <= 1.0))

    def test_group_summaries_match_channels_built_by_hand(self, setup):
        state = stored_spinwave(setup.geometry, n_points=41)
        field = setup.resonance_field
        decoherence, p_scatter = transverse_channels(
            state, setup.geometry, setup.params, setup.interaction, field,
            n_offsets=2, seed=7,
        )
        samples = sample_geometry(setup.geometry, 2, np.random.default_rng(7))
        p_diag = np.real(np.diag(state.rho))
        for i in range(2):
            ds, excess = [], []
            for j in range(2):
                scale = float(samples.density_scales[j])
                ch = photon_channel(
                    state.grid, setup.params, setup.interaction, field,
                    gate_offset=tuple(samples.gates[i, :2]),
                    source_offset=tuple(samples.offsets[j]),
                    density_scale=scale,
                )
                ds.append(ch.decoherence_matrix)
                baseline = eit_baseline(setup.params, scale).intensity
                lost = 1.0 - p_diag @ np.abs(ch.transmit) ** 2
                excess.append(max(lost - (1.0 - baseline), 0.0))
            assert np.max(np.abs(decoherence[i] - np.mean(ds, axis=0))) <= 1e-15
            assert abs(p_scatter[i] - np.mean(excess)) <= 1e-15

    def test_transverse_channels_hold_one_channel_at_a_time(self, setup):
        # 6 x 6 channels of 101 points: holding them all would trace about
        # 36 scatter matrices; the summaries alone are 6 matrices
        state = stored_spinwave(setup.geometry, n_points=101)
        matrix_bytes = 101 * 101 * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            transverse_channels(
                state, setup.geometry, setup.params, setup.interaction,
                setup.resonance_field, n_offsets=6, seed=0,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * matrix_bytes


class TestLimitCurves:
    def test_three_variants_agree_at_zero_input(self):
        rows = limit_curves([0.0, 2.0], p_scatter=0.3, eta_base=0.1,
                            blockade_fraction=0.5)
        variants = {r.model_variant for r in rows}
        assert variants == {"black", "dashed", "dotted"}
        zero = [r for r in rows if r.n_in_mean == 0.0]
        assert all(r.efficiency == pytest.approx(0.1) for r in zero)

    def test_dashed_decays_fastest_for_lossy_beam(self):
        rows = limit_curves([5.0], p_scatter=0.3, eta_base=0.1,
                            blockade_fraction=0.5)
        eff = {r.model_variant: r.efficiency for r in rows}
        assert eff["dashed"] < eff["dotted"] < eff["black"]

    def test_blockade_beam_fraction_monotone_and_bounded(self):
        fracs = [blockade_beam_fraction(r, 6.2) for r in (0.0, 2.0, 6.0, 20.0)]
        assert fracs[0] == 0.0
        assert all(b > a for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] <= 1.0

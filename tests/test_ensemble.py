"""Geometry averaging, optical gain and the non-destructive rate limit."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from rydsim import propagation
from rydsim.config import build_setup, load_config
from rydsim.ensemble import (
    ExperimentGeometry,
    PhotonStats,
    boxcar_convolve,
    field_scan,
    local_maxima,
    nondestructive_limit,
    optical_gain,
    sample_geometry,
    sample_intensities,
)
from rydsim.propagation import eit_baseline, transmission_batch


def _stats(**kwargs):
    base = dict(gate_mean_in=1.0, source_rate=35.0, pulse_length=40.0,
                storage_efficiency=0.6, detector_efficiency=0.3,
                dephasing_per_photon=6.48e-4)
    base.update(kwargs)
    return PhotonStats(**base)


class TestOpticalGain:
    def test_linear_in_source_rate_with_zero_intercept(self):
        rates = np.linspace(1.0, 140.0, 12)
        gains = [optical_gain(0.776, 0.462, _stats(source_rate=r)) for r in rates]
        fit = np.polyfit(rates, gains, 1)
        residual = gains - np.polyval(fit, rates)
        r_sq = 1.0 - residual.var() / np.var(gains)
        assert r_sq > 0.999
        assert fit[1] == pytest.approx(0.0, abs=1e-9)

    def test_requires_t0_at_least_t1(self):
        with pytest.raises(ValueError):
            optical_gain(0.4, 0.5, _stats())

    def test_zero_gate_input_gives_zero(self):
        assert optical_gain(0.8, 0.4, _stats(gate_mean_in=0.0)) == 0.0

    def test_saturates_with_gate_photon_number(self):
        # more gate photons per pulse dilute the per-photon gain once the
        # single stored excitation saturates
        g1 = optical_gain(0.776, 0.462, _stats(gate_mean_in=1.0))
        g4 = optical_gain(0.776, 0.462, _stats(gate_mean_in=4.0))
        assert g4 < g1


class TestGeometryAveraging:
    def test_sample_shapes_and_density_range(self, rng):
        geo = ExperimentGeometry(beam_waist=6.2, cloud_half_length=40.0,
                                 cloud_radius=10.0, atom_number=2.0e4)
        samples = sample_geometry(geo, 300, rng)
        assert samples.offsets.shape == (300, 2)
        assert samples.gates.shape == (300, 3)
        assert np.all(samples.density_scales <= 1.0)
        assert np.all(samples.density_scales > 0.0)

    def test_t0_not_below_t1_on_resonance(self, setup):
        _, _, t0, (t1,) = field_scan(
            setup.pair, setup.geometry, setup.params, setup.interaction,
            [setup.resonance_field], setup.stats, n_samples=400, seed=3,
        )
        assert 0.0 < t1 < t0 <= 1.0

    def test_monte_carlo_error_scales_as_inverse_sqrt(self, setup):
        def gain_err(n_samples):
            _, (err,), _, _ = field_scan(
                setup.pair, setup.geometry, setup.params, setup.interaction,
                [setup.resonance_field], setup.stats, n_samples=n_samples,
                seed=11,
            )
            return err

        ratio = gain_err(400) / gain_err(1600)
        assert 1.6 < ratio < 2.4


class TestFieldScan:
    def test_small_scan_is_reproducible_and_sane(self, setup):
        fields = [0.68, 0.71, 0.74]
        gain, _, t0, t1 = field_scan(
            setup.pair, setup.geometry, setup.params, setup.interaction,
            fields, setup.stats, n_samples=300, seed=2,
        )
        again, _, _, _ = field_scan(
            setup.pair, setup.geometry, setup.params, setup.interaction,
            fields, setup.stats, n_samples=300, seed=2,
        )
        assert np.array_equal(gain, again)
        assert np.all(t0 >= t1)
        # gain peaks on resonance within this bracket
        assert fields[int(np.argmax(gain))] == pytest.approx(0.71)

    def test_grid_t1_matches_scalar_field_intensities(self, setup):
        fields = [0.68, 0.71, 0.74]
        _, _, t0, t1 = field_scan(
            setup.pair, setup.geometry, setup.params, setup.interaction,
            fields, setup.stats, n_samples=300, seed=2,
        )
        i0, i1 = sample_intensities(setup.geometry, setup.params,
                                    setup.interaction, fields[1], 300, seed=2)
        assert i0.shape == i1.shape == (300,)
        assert t0 == pytest.approx(np.mean(i0), abs=1e-12)
        assert t1[1] == pytest.approx(np.mean(i1), abs=1e-12)

    @pytest.mark.parametrize("fields", [0.71, [0.69, 0.70, 0.71, 0.72]])
    def test_table_is_clipped_squared_magnitude_bit_for_bit(self, setup, fields):
        i0, table = sample_intensities(setup.geometry, setup.params,
                                       setup.interaction, fields, 500, seed=3)
        s = sample_geometry(setup.geometry, 500, np.random.default_rng(3))
        amps = transmission_batch(s.offsets, s.gates, setup.params,
                                  setup.interaction, fields,
                                  density_scale=s.density_scales)
        ref = np.minimum(np.abs(amps) ** 2, 1.0)
        assert table.shape == ref.shape == np.shape(fields) + (500,)
        assert np.ascontiguousarray(table).tobytes() == ref.tobytes()
        closed_form = eit_baseline(setup.params, s.density_scales).intensity
        assert i0.tobytes() == closed_form.tobytes()

    def test_intensities_overwrite_the_amplitude_table(self):
        # the default 66S/64S scan: the intensity table is written over the
        # amplitudes, so the call holds no float table beside them
        setup = build_setup(load_config(None, "gain-scan",
                                        {"pair_system": "rb87_66s64s"}))
        fields = setup.default_field_grid()
        s = sample_geometry(setup.geometry, 2000, np.random.default_rng(5))
        peaks = []
        for call in (
            lambda: transmission_batch(s.offsets, s.gates, setup.params,
                                       setup.interaction, fields,
                                       density_scale=s.density_scales),
            lambda: sample_intensities(setup.geometry, setup.params,
                                       setup.interaction, fields, 2000, seed=5),
        ):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        amplitudes = 16 * fields.size * 2000
        floats = amplitudes // 2
        block = propagation._BLOCK_CELLS * 8  # one float block buffer
        assert fields.size == 126
        assert peaks[1] <= 1.1 * amplitudes + 6 * block + floats
        assert peaks[1] <= peaks[0] + floats / 4

    def test_rejects_unsorted_grid(self, setup):
        with pytest.raises(ValueError):
            field_scan(setup.pair, setup.geometry, setup.params,
                       setup.interaction, [0.8, 0.2], setup.stats,
                       n_samples=10, seed=0)


class TestSmoothingAndPeaks:
    def test_boxcar_preserves_constant(self):
        fields = np.linspace(0.0, 0.1, 21)
        vals = np.full(21, 3.0)
        assert np.allclose(boxcar_convolve(fields, vals, 0.01), 3.0)

    def test_boxcar_widens_spike(self):
        fields = np.linspace(0.0, 0.1, 101)
        vals = np.zeros(101)
        vals[50] = 1.0
        out = boxcar_convolve(fields, vals, 0.005)
        assert out[50] < 1.0
        assert np.count_nonzero(out) > 1

    def test_local_maxima_interior_and_plateau(self):
        assert local_maxima([0, 1, 0, 2, 0]) == [1, 3]
        assert local_maxima([0, 1, 1, 1, 0]) == [2]  # plateau counts once
        assert local_maxima([3, 2, 1]) == []  # endpoints excluded


class TestNondestructiveLimit:
    def test_zero_dephasing_hits_ceiling(self):
        stats = _stats(dephasing_per_photon=0.0)
        assert nondestructive_limit(stats, 0.776, 0.462, rate_ceiling=200.0) == 200.0

    def test_doubling_dephasing_halves_limit(self):
        lo = nondestructive_limit(_stats(), 0.776, 0.462, rate_ceiling=1e6)
        hi = nondestructive_limit(_stats(dephasing_per_photon=2 * 6.48e-4),
                                  0.776, 0.462, rate_ceiling=1e6)
        assert lo / hi == pytest.approx(2.0, rel=1e-12)

    def test_capped_by_ceiling(self):
        stats = _stats(dephasing_per_photon=1e-9)
        assert nondestructive_limit(stats, 0.776, 0.462, rate_ceiling=35.0) == 35.0

    def test_fully_blocking_gate_allows_no_rate(self):
        # T1 = 0 is the T1 -> 0+ limit of log(0.9)/log(T1/T0), not a log(0)
        assert nondestructive_limit(_stats(), 0.9, 0.0, rate_ceiling=200.0) == 0.0


class TestPhotonStats:
    def test_efficiency_bounds_enforced(self):
        with pytest.raises(ValueError):
            _stats(storage_efficiency=1.3)
        with pytest.raises(ValueError):
            _stats(detector_efficiency=-0.1)
        with pytest.raises(ValueError):
            _stats(source_rate=-1.0)

    def test_excitation_probability_poissonian(self):
        stats = _stats(gate_mean_in=1.0, storage_efficiency=0.6)
        assert stats.p_excitation == pytest.approx(1.0 - np.exp(-0.6), rel=1e-12)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            _stats().source_rate = 10.0

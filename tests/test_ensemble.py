"""Geometry averaging, optical gain and the non-destructive rate limit."""

import dataclasses

import numpy as np
import pytest

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
        (point,) = field_scan(
            setup.pair, setup.geometry, setup.params, setup.interaction,
            [setup.resonance_field], setup.stats, n_samples=400, seed=3,
        )
        assert 0.0 < point.t1 < point.t0 <= 1.0

    def test_monte_carlo_error_scales_as_inverse_sqrt(self, setup):
        def gain_err(n_samples):
            (point,) = field_scan(
                setup.pair, setup.geometry, setup.params, setup.interaction,
                [setup.resonance_field], setup.stats, n_samples=n_samples,
                seed=11,
            )
            return point.gain_err

        ratio = gain_err(400) / gain_err(1600)
        assert 1.6 < ratio < 2.4


class TestFieldScan:
    def test_small_scan_is_reproducible_and_sane(self, setup):
        fields = [0.68, 0.71, 0.74]
        points = field_scan(
            setup.pair, setup.geometry, setup.params, setup.interaction,
            fields, setup.stats, n_samples=300, seed=2,
        )
        again = field_scan(
            setup.pair, setup.geometry, setup.params, setup.interaction,
            fields, setup.stats, n_samples=300, seed=2,
        )
        assert [p.gain for p in points] == [p.gain for p in again]
        assert all(p.t0 >= p.t1 for p in points)
        # gain peaks on resonance within this bracket
        assert max(points, key=lambda p: p.gain).field == pytest.approx(0.71)

    def test_grid_t1_matches_scalar_field_intensities(self, setup):
        fields = [0.68, 0.71, 0.74]
        points = field_scan(
            setup.pair, setup.geometry, setup.params, setup.interaction,
            fields, setup.stats, n_samples=300, seed=2,
        )
        i0, i1 = sample_intensities(setup.geometry, setup.params,
                                    setup.interaction, fields[1], 300, seed=2)
        assert i0.shape == i1.shape == (300,)
        assert points[1].t0 == pytest.approx(np.mean(i0), abs=1e-12)
        assert points[1].t1 == pytest.approx(np.mean(i1), abs=1e-12)

    def test_rejects_unsorted_grid(self, setup):
        with pytest.raises(ValueError):
            field_scan(setup.pair, setup.geometry, setup.params,
                       setup.interaction, [0.8, 0.2], setup.stats,
                       n_samples=10)


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
        assert nondestructive_limit(_stats(), 0.9, 0.0) == 0.0


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

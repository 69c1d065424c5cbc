"""Poisson count mixtures, the fidelity scan and readout fidelity."""

import math
import warnings

import numpy as np
import pytest
import scipy.stats as sps

from rydsim import detection
from rydsim.config import build_setup, load_config
from rydsim.detection import detection_fidelity, poisson_mixture_pmf


def _poisson_hist(mu, k_max=80):
    return sps.poisson.pmf(np.arange(k_max + 1), mu)


def _one_buffer_pmf(mus, k_max):
    """`poisson_mixture_pmf` as it was before it went in row blocks: every
    row in one (len(mus), k_max + 1) buffer, with scipy's gammaln."""
    from scipy.special import gammaln

    mus = np.asarray(mus, dtype=float)
    k = np.arange(k_max + 1, dtype=float)
    buf = np.empty((mus.size, k.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(np.log(mus)[:, None], k, out=buf)
    buf -= gammaln(k + 1.0)
    buf -= mus[:, None]
    buf[:, :1] = -mus[:, None]
    return np.exp(buf, out=buf).mean(axis=0)


def _block_rows(k_max):
    return detection._BLOCK_BYTES // (8 * (k_max + 1))


class TestPoissonMixture:
    def test_single_component_is_plain_poisson(self):
        pmf = poisson_mixture_pmf(np.array([7.0]), 40)
        assert np.allclose(pmf, _poisson_hist(7.0, 40), atol=1e-15)

    def test_mixture_mean(self):
        mus = np.array([2.0, 5.0, 11.0])
        pmf = poisson_mixture_pmf(mus, 60)
        k = np.arange(61)
        assert k @ pmf == pytest.approx(mus.mean(), rel=1e-6)

    def test_normalized(self):
        pmf = poisson_mixture_pmf(np.array([3.0, 9.0]), 60)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("mu", [0.0, 1e-3, 0.5, 40.0, 385.0, 1000.0])
    def test_matches_scipy_reference(self, mu):
        # the count window fidelity_scan uses for this mean
        k_max = math.ceil(mu + 8.0 * math.sqrt(mu + 1.0))
        pmf = poisson_mixture_pmf(np.array([mu]), k_max)
        ref = _poisson_hist(mu, k_max)
        assert pmf.shape == ref.shape
        assert np.max(np.abs(pmf - ref)) <= 1e-15
        big = ref > 1e-300
        assert np.max(np.abs(pmf[big] - ref[big]) / ref[big]) <= 1e-11

    def test_log_factorial_table_is_scipy_gammaln(self, monkeypatch):
        from scipy.special import gammaln

        # from an empty table, and grown from a short one
        monkeypatch.setattr(detection, "_log_factorial_table", np.zeros(0))
        ref = gammaln(np.arange(100_000) + 1.0)
        assert np.array_equal(detection._log_factorials(50), ref[:50])
        table = detection._log_factorials(ref.size)
        assert np.array_equal(table, ref)
        assert not table.flags.writeable
        # a shorter window reads a prefix of the table it has
        assert np.shares_memory(detection._log_factorials(10), table)

    @pytest.mark.parametrize(
        "k_max, size",
        [(k_max, size)
         for k_max in (8, 546, 1500)
         for size in sorted({1, _block_rows(k_max) - 1, _block_rows(k_max),
                             _block_rows(k_max) + 1, 2000})]
        # one column is never split: its sum over rows is pairwise
        + [(0, 1), (0, 2000), (0, _block_rows(0) + 1),
           (0, 2 * _block_rows(0) + 1)],
    )
    def test_blocks_match_one_buffer_bit_for_bit(self, k_max, size):
        # a different order of the sums differs in the last bit for about
        # half of the draws, so each case takes several
        for seed in range(4):
            rng = np.random.default_rng([k_max, size, seed])
            mus = rng.uniform(0.0, 1.2 * k_max + 1.0, size)
            mus[::3] = 0.0
            got = poisson_mixture_pmf(mus, k_max)
            assert np.array_equal(got, _one_buffer_pmf(mus, k_max)), seed

    def test_zero_mean_is_exact_delta(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pmf = poisson_mixture_pmf(np.array([0.0, 0.0]), 6)
        assert np.array_equal(pmf, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])

    def test_fidelity_scan_matches_scipy_reference(self, monkeypatch):
        setup = build_setup(load_config(None, "fidelity-scan"))
        fields = setup.resonance_field + np.array([-2e-3, 0.0, 2e-3])
        rates = [0.0, 10.0, 35.0]

        def scan():
            return detection.fidelity_scan(
                setup.pair, setup.geometry, setup.params, setup.interaction,
                fields, rates, setup.stats, n_samples=400, seed=5,
            )

        new_fidelity, new_threshold = scan()
        monkeypatch.setattr(
            detection, "poisson_mixture_pmf",
            lambda mus, k_max: sps.poisson.pmf(
                np.arange(k_max + 1)[None, :], np.asarray(mus)[:, None]
            ).mean(axis=0),
        )
        ref_fidelity, ref_threshold = scan()
        assert new_fidelity.shape == new_threshold.shape == (len(rates), fields.size)
        assert np.array_equal(new_threshold, ref_threshold)
        assert new_fidelity.ravel().tolist() == pytest.approx(
            ref_fidelity.ravel().tolist(), rel=1e-12, abs=0.0
        )
        assert new_fidelity.max() > 0.5


class TestDetectionFidelity:
    def test_identical_histograms_no_better_than_chance(self):
        # discreteness keeps the best worst-case score at or just below 1/2
        h = _poisson_hist(10.0)
        fid, _ = detection_fidelity(h, h)
        assert fid <= 0.5 + 1e-12
        assert fid > 0.4

    def test_disjoint_histograms_give_one(self):
        present = np.array([1.0, 0.0, 0.0, 0.0])
        absent = np.array([0.0, 0.0, 0.0, 1.0])
        fid, tau = detection_fidelity(present, absent)
        assert fid == pytest.approx(1.0)
        assert 0 < tau <= 3

    def test_two_poisson_exact_vs_sampled(self):
        # excitation present suppresses the transmitted count
        mu1, mu0 = 5.0, 20.0
        exact, _ = detection_fidelity(_poisson_hist(mu1), _poisson_hist(mu0))
        rng = np.random.default_rng(1)
        shots = 40000
        present = np.bincount(rng.poisson(mu1, size=shots)).astype(float)
        absent = np.bincount(rng.poisson(mu0, size=shots)).astype(float)
        sampled, _ = detection_fidelity(present, absent)
        # binomial sampling error on the fidelity estimate
        sigma = 3.0 * np.sqrt(exact * (1 - exact) / shots)
        assert abs(sampled - exact) < max(sigma, 0.01)

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError):
            detection_fidelity(np.zeros(4), _poisson_hist(5.0))

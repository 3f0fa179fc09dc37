import warnings

import numpy as np
import pytest

from ris_ssk import beamform
from ris_ssk.beamform import (
    _pair_rows,
    brute_force_beamform,
    intelligent_ris_phases,
    low_complexity_beamform,
    min_pairwise_distance,
    optimal_two_tx,
    sdr_beamform,
)
from ris_ssk.channel import ChannelRealization, cascaded_gains, sample_channel, substream


def _channel(n, nt, seed, trial=0):
    return sample_channel(n, nt, substream(seed, trial, "oracle"))


def _gain(ch, phi, l):
    """Plain per-element sum of the cascade seen from antenna l."""
    return sum(ch.f[i] * ch.G[i, l] * phi[i] for i in range(ch.n))


def _stack(chs):
    """The channels as one realization with a leading trial axis."""
    return ChannelRealization(G=np.stack([c.G for c in chs]), f=np.stack([c.f for c in chs]))


class TestMinPairwiseDistance:
    def test_single_element_two_antennas(self):
        ch = ChannelRealization(G=np.array([[1.0 + 0j, 0.0 + 0j]]), f=np.array([1.0 + 0j]))
        assert min_pairwise_distance(ch, np.ones(1, complex)) == pytest.approx(1.0)

    def test_degenerate_identical_columns(self):
        g = substream(1, 0).standard_normal(4) + 0j
        ch = ChannelRealization(G=np.stack([g, g], axis=1), f=np.ones(4, complex))
        phi = np.exp(1j * substream(1, 1).uniform(0, 2 * np.pi, 4))
        assert min_pairwise_distance(ch, phi) == pytest.approx(0.0)

    def test_matches_pairwise_enumeration_oracle(self):
        ch = _channel(4, 3, 5)
        phi = np.exp(1j * substream(5, 1).uniform(0, 2 * np.pi, 4))
        dists = []
        for a in range(3):
            for b in range(a + 1, 3):
                dists.append(abs(_gain(ch, phi, a) - _gain(ch, phi, b)) ** 2)
        assert len(dists) == 3
        assert min_pairwise_distance(ch, phi) == pytest.approx(min(dists))

    def test_requires_two_antennas(self):
        ch = _channel(4, 1, 2)
        with pytest.raises(ValueError):
            min_pairwise_distance(ch, np.ones(4, complex))

    def test_global_phase_invariance(self):
        ch = _channel(6, 4, 7)
        theta = substream(7, 1).uniform(0, 2 * np.pi, 6)
        shift = substream(7, 2).uniform(0, 2 * np.pi)
        d0 = min_pairwise_distance(ch, np.exp(1j * theta))
        d1 = min_pairwise_distance(ch, np.exp(1j * (theta + shift)))
        assert d1 == pytest.approx(d0, rel=1e-12)


class TestOptimalTwoTx:
    def test_single_element_example(self):
        # f = 1, g11 = j, g12 = -j: angle(g11 - g12) = pi/2, so theta = 3pi/2
        ch = ChannelRealization(G=np.array([[1j, -1j]]), f=np.array([1.0 + 0j]))
        phi = optimal_two_tx(ch)
        assert phi[0] == pytest.approx(np.exp(1j * 3 * np.pi / 2))
        assert min_pairwise_distance(ch, phi) == pytest.approx(4.0)

    def test_cascade_real_nonnegative_and_equals_modulus_sum(self):
        ch = _channel(8, 2, 11)
        phi = optimal_two_tx(ch)
        assert np.allclose(np.abs(phi), 1.0, atol=1e-15)
        cascade = np.sum(ch.f * (ch.G[:, 0] - ch.G[:, 1]) * phi)
        want = np.sum(np.abs(ch.f) * np.abs(ch.G[:, 0] - ch.G[:, 1]))
        assert cascade.imag == pytest.approx(0.0, abs=1e-12 * want)
        assert cascade.real == pytest.approx(want)

    def test_beats_random_search_oracle(self):
        ch = _channel(8, 2, 13)
        d_opt = min_pairwise_distance(ch, optimal_two_tx(ch))
        rng = substream(13, 1, "oracle")
        for _ in range(1000):
            d = min_pairwise_distance(ch, np.exp(1j * rng.uniform(0, 2 * np.pi, 8)))
            assert d_opt >= d

    def test_matches_exhaustive_grid_within_resolution(self):
        ch = _channel(2, 2, 17)
        d_opt = min_pairwise_distance(ch, optimal_two_tx(ch))
        d_grid = min_pairwise_distance(ch, brute_force_beamform(ch, 64))
        assert d_grid <= d_opt
        # 64-level grid phase error <= pi/64 per element
        assert d_grid >= d_opt * np.cos(np.pi / 64) ** 2 * 0.99

    def test_zero_product_entries_get_zero_phase(self):
        ch = ChannelRealization(G=np.array([[1j, 1j], [1j, -1j]]), f=np.array([1.0 + 0j, 1 + 0j]))
        assert optimal_two_tx(ch)[0] == 1.0  # g11 - g12 = 0 there

    def test_requires_exactly_two(self):
        with pytest.raises(ValueError):
            optimal_two_tx(_channel(4, 4, 1))


class TestLeadingTrialAxes:
    """A stack of channels gives, row by row, the one-channel coefficients."""

    @pytest.mark.parametrize("nt", [2, 4, 8])
    def test_closed_forms_match_one_channel_calls(self, nt):
        chs = [_channel(8, nt, 97, t) for t in range(12)]
        chs[3] = ChannelRealization(G=chs[3].G, f=np.zeros(8, complex))  # zero-gain row
        batch = _stack(chs)
        two = [optimal_two_tx] if nt == 2 else []
        for beamformer in [low_complexity_beamform, intelligent_ris_phases] + two:
            got = beamformer(batch)
            for t, ch in enumerate(chs):
                assert np.array_equal(got[t], beamformer(ch))
        assert np.array_equal(low_complexity_beamform(batch)[3], np.ones(8))


class TestPairMatrix:
    """The solver's stacked pair rows a_p: |a_p . phi|^2 is the pair distance."""

    @staticmethod
    def _check_quadratic_form(ch, rng):
        rows = _pair_rows(ch)
        assert rows.shape == (6, 6)  # Nt(Nt-1)/2 pairs by N elements
        for _ in range(100):
            phi = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
            cascade = ch.f * phi
            want = [
                abs(ch.G[:, i] @ cascade - ch.G[:, j] @ cascade) ** 2
                for i in range(4)
                for j in range(i + 1, 4)
            ]
            assert np.abs(rows @ phi) ** 2 == pytest.approx(want, rel=1e-12)

    def test_quadratic_form_matches_direct_evaluation(self):
        self._check_quadratic_form(_channel(6, 4, 29), substream(29, 1, "oracle"))

    def test_zero_f_gives_zero_matrix(self):
        ch = _channel(6, 4, 29)
        dead = ChannelRealization(G=ch.G, f=np.zeros(6, complex))
        self._check_quadratic_form(dead, substream(29, 1, "oracle"))
        assert not _pair_rows(dead).any()


class TestLowComplexity:
    def test_two_antennas_single_candidate_equals_closed_form(self):
        ch = _channel(8, 2, 37)
        lc = low_complexity_beamform(ch)
        opt = optimal_two_tx(ch)
        assert np.array_equal(lc, opt)
        assert min_pairwise_distance(ch, lc) == min_pairwise_distance(ch, opt)

    def test_argmax_over_all_pair_candidates(self):
        ch = _channel(4, 4, 41)
        cands = []
        for i in range(4):
            for j in range(i + 1, 4):
                theta = -np.angle(ch.f) - np.angle(ch.G[:, i] - ch.G[:, j])
                cands.append(min_pairwise_distance(ch, np.exp(1j * theta)))
        assert len(cands) == 6  # Nt(Nt-1)/2 candidates for Nt=4
        got = min_pairwise_distance(ch, low_complexity_beamform(ch))
        assert got == pytest.approx(max(cands), rel=1e-12)
        assert all(got >= c * (1 - 1e-12) for c in cands)

    def test_matches_pairwise_reference_loop(self):
        for trial in range(200):
            ch = _channel(8, (2, 4, 8)[trial % 3], 43, trial)
            best_phi, best_d = None, -np.inf
            for i in range(ch.nt):
                for j in range(i + 1, ch.nt):
                    u = ch.f * (ch.G[:, i] - ch.G[:, j])
                    phi = np.conj(u) / np.abs(u)
                    d = min_pairwise_distance(ch, phi)
                    if d > best_d:
                        best_d, best_phi = d, phi
            assert np.array_equal(low_complexity_beamform(ch), best_phi)


class TestBruteForce:
    def test_single_element_enumeration(self):
        ch = _channel(1, 2, 43)
        rv = brute_force_beamform(ch, 4)
        best = max(
            min_pairwise_distance(ch, np.exp(1j * np.array([2 * np.pi * k / 4])))
            for k in range(4)
        )
        assert min_pairwise_distance(ch, rv) == pytest.approx(best)

    def test_grid_max_over_65536_combos(self):
        ch = _channel(4, 4, 47)
        rv = brute_force_beamform(ch, 16)
        d = min_pairwise_distance(ch, rv)
        # spot-check dominance on a random sample of grid points
        rng = substream(47, 1, "oracle")
        for _ in range(500):
            combo = rng.integers(0, 16, 4)
            assert d >= min_pairwise_distance(ch, np.exp(1j * 2 * np.pi * combo / 16)) - 1e-12

    def test_budget_enforced(self):
        ch = _channel(8, 2, 53)
        with pytest.raises(ValueError):
            brute_force_beamform(ch, 16)  # 16^8 points, past the 2^20 limit


class TestIntelligentPhases:
    def test_sign_flip_single_element(self):
        ch = ChannelRealization(G=np.array([[-1.0 + 0j]]), f=np.array([1.0 + 0j]))
        phases = intelligent_ris_phases(ch)
        assert phases.shape == (1, 1)
        assert phases[0, 0] == pytest.approx(-1.0)
        assert _gain(ch, phases[0], 0) == pytest.approx(1.0)

    def test_gain_equals_modulus_sum(self):
        ch = _channel(16, 4, 59)
        table = cascaded_gains(ch.G, ch.f, intelligent_ris_phases(ch))
        for l in range(4):
            want = np.sum(np.abs(ch.f) * np.abs(ch.G[:, l]))
            assert table[l, l] == pytest.approx(want, rel=1e-12)

    def test_dominates_random_phases(self):
        ch = _channel(8, 2, 61)
        phi = intelligent_ris_phases(ch)[1]
        best = abs(_gain(ch, phi, 1)) ** 2
        rng = substream(61, 1, "oracle")
        for _ in range(1000):
            psi = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
            assert best >= abs(_gain(ch, psi, 1)) ** 2


# d_min reported by sdr_beamform at default options on (n, nt, seed, trial)
# channels under the longer ascent schedules that the current ones replaced
# (relaxation 10 x 80, polish 8 x 60).  The current value may trail it by at
# most 0.5%.
SDR_LONG_SCHEDULE_DMIN = [
    (16, 4, 2026, 0, 95.9143116078761),
    (16, 4, 2026, 1, 92.43807742424211),
    (16, 4, 2026, 2, 103.63287885690981),
    (4, 4, 2027, 0, 6.369030475269999),
    (4, 4, 2027, 1, 1.1431887758532666),
    (4, 4, 2027, 2, 1.7992984997439765),
    (8, 2, 2028, 0, 91.67864409434704),
    (8, 2, 2028, 1, 62.13383177610396),
]

# The same channels' d_min under the current schedules (relaxation 5 x 40,
# polish 8 x 30), pinned to 1e-6.
SDR_GOLDEN_DMIN = {
    (16, 4, 2026, 0): 95.89997377137888,
    (16, 4, 2026, 1): 92.42795796511734,
    (16, 4, 2026, 2): 103.59565970609849,
    (4, 4, 2027, 0): 6.367784319569835,
    (4, 4, 2027, 1): 1.1431887758532666,
    (4, 4, 2027, 2): 1.7992015484184052,
    (8, 2, 2028, 0): 91.67864409434704,
    (8, 2, 2028, 1): 62.13383177610396,
}

# Mean d_min of sdr_beamform over the ten N=16, Nt=4 channels of seed 2029
# under the longer 10 x 80 / 8 x 60 schedules.
SDR_LONG_SCHEDULE_MEAN_DMIN = 97.2821235014889


class TestSdrBeamform:
    @pytest.mark.parametrize("n,nt,seed,trial,floor", SDR_LONG_SCHEDULE_DMIN)
    def test_golden_dmin(self, n, nt, seed, trial, floor):
        ch = _channel(n, nt, seed, trial)
        rv = sdr_beamform(ch, rng=substream(seed, trial, "sdr"))
        assert rv.diagnostics.d_min == pytest.approx(SDR_GOLDEN_DMIN[n, nt, seed, trial], rel=1e-6)
        assert rv.diagnostics.d_min >= 0.995 * floor

    def test_mean_dmin_holds_against_long_schedule(self):
        d = [
            sdr_beamform(_channel(16, 4, 2029, t), rng=substream(2029, t, "sdr")).diagnostics.d_min
            for t in range(10)
        ]
        assert np.mean(d) >= 0.99 * SDR_LONG_SCHEDULE_MEAN_DMIN

    @pytest.mark.parametrize("n,nt,rounding_count", [(16, 4, 100), (4, 2, 7)])
    def test_stream_order(self, n, nt, rounding_count, monkeypatch):
        # restart inits (restarts, re/im, n, rank), then the rounding
        # vectors (count, re/im, rank), each in one draw
        monkeypatch.setattr(beamform, "_ROUNDINGS", rounding_count)
        ch = _channel(n, nt, 91)
        g = substream(91, 0, "sdr")
        ref = substream(91, 0, "sdr")
        sdr_beamform(ch, g)
        rank = min(n, int(np.ceil(np.sqrt(nt * (nt - 1)))) + 1)
        ref.standard_normal((3, 2, n, rank))
        ref.standard_normal((beamform._ROUNDINGS, 2, rank))
        np.testing.assert_equal(g.bit_generator.state, ref.bit_generator.state)

    def test_unit_modulus_and_reported_dmin_reproducible(self):
        ch = _channel(6, 4, 67)
        rv = sdr_beamform(ch, rng=substream(67, 0, "sdr"))
        assert np.allclose(np.abs(rv.phi), 1.0, atol=1e-12)
        assert rv.diagnostics is not None
        assert min_pairwise_distance(ch, rv) == pytest.approx(rv.diagnostics.d_min, rel=1e-12)

    def test_two_antenna_reaches_closed_form(self):
        for trial in range(10):
            ch = _channel(8, 2, 71, trial)
            d_opt = min_pairwise_distance(ch, optimal_two_tx(ch))
            rv = sdr_beamform(ch, rng=substream(71, trial, "sdr"))
            assert min_pairwise_distance(ch, rv) >= 0.99 * d_opt

    def test_near_grid_optimum_small_sample(self):
        wins = 0
        for trial in range(10):
            ch = _channel(4, 4, 79, trial)
            d_grid = min_pairwise_distance(ch, brute_force_beamform(ch, 16))
            d_sdr = min_pairwise_distance(ch, sdr_beamform(ch, rng=substream(79, trial, "sdr")))
            wins += d_sdr >= 0.95 * d_grid
        assert wins >= 8

    def test_zero_channel_gives_unit_modulus_and_zero_distance(self):
        ch = ChannelRealization(G=np.ones((4, 3), complex), f=np.zeros(4, complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rv = sdr_beamform(ch, rng=substream(1, 0, "sdr"))
        assert np.allclose(np.abs(rv.phi), 1.0)
        assert rv.diagnostics.d_min == 0.0

    def test_deterministic_given_stream(self):
        ch = _channel(5, 4, 83)
        a = sdr_beamform(ch, rng=substream(83, 0, "sdr"))
        b = sdr_beamform(ch, rng=substream(83, 0, "sdr"))
        assert np.array_equal(a.phi, b.phi)

    def test_beats_zero_phase_floor_on_average(self):
        sdr_gain, lc_gain = [], []
        for trial in range(10):
            ch = _channel(4, 4, 89, trial)
            d_zero = min_pairwise_distance(ch, np.ones(4, complex))
            d_sdr = min_pairwise_distance(ch, sdr_beamform(ch, rng=substream(89, trial, "sdr")))
            d_lc = min_pairwise_distance(ch, low_complexity_beamform(ch))
            sdr_gain.append(d_sdr - d_zero)
            lc_gain.append(d_lc - d_zero)
        assert np.mean(sdr_gain) > 0
        assert np.mean(lc_gain) > 0

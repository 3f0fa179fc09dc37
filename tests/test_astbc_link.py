import numpy as np
import pytest

from ris_ssk.astbc_link import (
    code_matrix,
    coded_slots,
    combine,
    detect_fast,
    detect_ml,
    fast_metrics,
    ml_costs,
    psk_phases,
    psk_symbols,
    sub_surface_sums,
)
from ris_ssk.channel import (
    NoiseModel,
    StreamBank,
    channel_draw_size,
    channel_views,
    complex_normals,
    sample_awgn,
    sample_channel,
    substream,
)
from ris_ssk.harness import _bits_per_trial


def _sums(ch):
    return sub_surface_sums(ch.G, ch.f)


def _slots(ch, l, k1, k2, m):
    """Noiseless received slots of one trial: antenna ``l`` active,
    sub-surface phase indices ``k1``, ``k2`` of the M-ary alphabet."""
    h1, h2 = _sums(ch)
    psk = psk_symbols(m)
    return coded_slots(h1[l], h2[l], psk[k1], psk[k2])


def _noisy_slots(ch, l, k1, k2, m, noise, rng):
    """One trial's slots plus two noise samples drawn from ``rng``."""
    y1, y2 = _slots(ch, l, k1, k2, m)
    return y1 + sample_awgn(noise, rng), y2 + sample_awgn(noise, rng)


def _detect(detector, y1, y2, ch, m):
    """Plain-int (l, k1, k2) decision of one trial."""
    return tuple(int(v) for v in detector(y1, y2, *_sums(ch), m))


class TestRisBitMapping:
    def test_bpsk_example(self):
        # phase index 0 is phase 0 and index 1 is pi
        ch = sample_channel(8, 2, substream(15, 0))
        h1, h2 = _sums(ch)
        y1, y2 = _slots(ch, 0, 0, 1, 2)
        want = code_matrix(0.0, np.pi) @ np.array([h1[0], h2[0]])
        assert (y1, y2) == pytest.approx(tuple(want))

    def test_round_trip_exhaustive(self):
        # every phase index pair survives a noiseless pass through the link
        for m in (2, 4, 8):
            ch = sample_channel(8, 2, substream(16, m))
            for k1 in range(m):
                for k2 in range(m):
                    y1, y2 = _slots(ch, 1, k1, k2, m)
                    assert _detect(detect_ml, y1, y2, ch, m) == (1, k1, k2)

    def test_length_and_value_errors(self):
        with pytest.raises(ValueError):
            psk_phases(3)


class TestTransmit:
    def test_noiseless_zero_phases(self):
        ch = sample_channel(8, 2, substream(1, 0))
        h1, h2 = _sums(ch)
        y1, y2 = _slots(ch, 0, 0, 0, 2)
        assert y1 == pytest.approx(h1[0] + h2[0])
        assert y2 == pytest.approx(-h1[0] + h2[0])

    def test_code_matrix_orthogonality_full_alphabet(self):
        for a1 in psk_phases(8):
            for a2 in psk_phases(8):
                C = code_matrix(float(a1), float(a2))
                assert np.allclose(C.conj().T @ C, 2 * np.eye(2), atol=1e-12)

    def test_noiseless_energy_identity(self):
        ch = sample_channel(10, 2, substream(2, 0))
        h1, h2 = _sums(ch)
        y1, y2 = _slots(ch, 1, 1, 3, 4)
        want = 2 * (abs(h1[1]) ** 2 + abs(h2[1]) ** 2)
        assert abs(y1) ** 2 + abs(y2) ** 2 == pytest.approx(want)

    def test_matrix_form_matches_slot_equations(self):
        ch = sample_channel(6, 2, substream(3, 0))
        h1, h2 = _sums(ch)
        y1, y2 = _slots(ch, 0, 2, 5, 8)
        alphas = psk_phases(8)
        C = code_matrix(float(alphas[2]), float(alphas[5]))
        want = C @ np.array([h1[0], h2[0]])
        assert y1 == pytest.approx(want[0])
        assert y2 == pytest.approx(want[1])

    def test_odd_element_count_rejected(self):
        ch = sample_channel(5, 2, substream(4, 0))
        with pytest.raises(ValueError):
            sub_surface_sums(ch.G, ch.f)

    def test_sub_surface_split(self):
        ch = sample_channel(8, 3, substream(5, 0))
        h1, h2 = _sums(ch)
        for l in range(3):
            assert h1[l] == pytest.approx(np.sum(ch.f[:4] * ch.G[:4, l]))
            assert h2[l] == pytest.approx(np.sum(ch.f[4:] * ch.G[4:, l]))


class TestCombine:
    def test_noiseless_recovers_phases_and_magnitude(self):
        ch = sample_channel(12, 2, substream(6, 0))
        h1, h2 = _sums(ch)
        gain = abs(h1[0]) ** 2 + abs(h2[0]) ** 2
        y1, y2 = _slots(ch, 0, 3, 6, 8)
        r1, r2 = combine(y1, y2, h1[0], h2[0])
        alphas = psk_phases(8)
        assert r1 == pytest.approx(gain * np.exp(1j * alphas[3]))
        assert r2 == pytest.approx(gain * np.exp(1j * alphas[6]))

    def test_energy_identity_on_random_inputs(self):
        rng = substream(7, 0, "oracle")
        for _ in range(50):
            h = rng.standard_normal(4)
            h1, h2 = complex(h[0], h[1]), complex(h[2], h[3])
            z = rng.standard_normal(4)
            y1, y2 = complex(z[0], z[1]), complex(z[2], z[3])
            r1, r2 = combine(y1, y2, h1, h2)
            lhs = abs(r1) ** 2 + abs(r2) ** 2
            rhs = (abs(h1) ** 2 + abs(h2) ** 2) * (abs(y1) ** 2 + abs(y2) ** 2)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_zero_channel_gives_zero(self):
        assert combine(1 + 2j, -3j, 0j, 0j) == (0j, 0j)


class TestOptimalDetector:
    def test_noiseless_exact_recovery_all_hypotheses(self):
        ch = sample_channel(8, 4, substream(8, 0))
        for l in range(4):
            for k1 in range(4):
                for k2 in range(4):
                    y1, y2 = _slots(ch, l, k1, k2, 4)
                    assert _detect(detect_ml, y1, y2, ch, 4) == (l, k1, k2)

    def test_true_hypothesis_cost_zero_noiseless(self):
        ch = sample_channel(8, 2, substream(9, 0))
        y1, y2 = _slots(ch, 1, 1, 0, 2)
        cost = ml_costs(y1, y2, *_sums(ch), 2)
        assert cost[1, 1, 0] == pytest.approx(0.0, abs=1e-20)
        assert cost.min() == pytest.approx(cost[1, 1, 0], abs=1e-20)

    def test_matches_reimplementation_oracle_on_noisy_trials(self):
        ch = sample_channel(8, 2, substream(10, 0))
        noise = NoiseModel.from_snr_db(-3.0)
        bank = StreamBank(10, "data")
        alphas = psk_phases(2)
        h1, h2 = _sums(ch)
        for k in range(1000):
            g = bank.trial(k)
            l = int(g.integers(0, 2))
            k1, k2 = int(g.integers(0, 2)), int(g.integers(0, 2))
            y1, y2 = _noisy_slots(ch, l, k1, k2, 2, noise, g)
            # independent brute-force residual computation
            best, arg = np.inf, None
            for lh in range(2):
                for i1, a1 in enumerate(alphas):
                    for i2, a2 in enumerate(alphas):
                        C = code_matrix(float(a1), float(a2))
                        res = np.array([y1, y2]) - C @ np.array([h1[lh], h2[lh]])
                        cost = float(np.sum(np.abs(res) ** 2))
                        if cost < best:
                            best, arg = cost, (lh, i1, i2)
            assert _detect(detect_ml, y1, y2, ch, 2) == arg


class TestFastDetector:
    def test_noiseless_exact_recovery(self):
        ch = sample_channel(16, 4, substream(11, 0))
        for l in range(4):
            y1, y2 = _slots(ch, l, 3, 5, 8)
            assert _detect(detect_fast, y1, y2, ch, 8) == (l, 3, 5)
            D, _, _ = fast_metrics(y1, y2, *_sums(ch), 8)
            # the sent hypothesis has zero residual: D = 0 - |y1|^2 - |y2|^2
            assert D[l] == pytest.approx(-(abs(y1) ** 2 + abs(y2) ** 2), rel=1e-12)

    def test_inner_decisions_match_exhaustive_search(self):
        noise = NoiseModel.from_snr_db(3.0)
        for trial in range(300):
            ch = sample_channel(8, 4, substream(12, trial))
            g = substream(12, trial, "data")
            l = int(g.integers(0, 4))
            k1, k2 = int(g.integers(0, 8)), int(g.integers(0, 8))
            y1, y2 = _noisy_slots(ch, l, k1, k2, 8, noise, g)
            _, i1, i2 = fast_metrics(y1, y2, *_sums(ch), 8)
            cost = ml_costs(y1, y2, *_sums(ch), 8)
            for l0 in range(4):
                j1, j2 = np.unravel_index(np.argmin(cost[l0]), (8, 8))
                assert (i1[l0], i2[l0]) == (j1, j2)

    def test_fast_metric_is_ml_cost_less_received_energy(self):
        # D(l) = min_{a1,a2} ||y - C h_l||^2 - |y1|^2 - |y2|^2, verified numerically
        noise = NoiseModel.from_snr_db(0.0)
        for trial in range(100):
            ch = sample_channel(8, 4, substream(13, trial))
            g = substream(13, trial, "data")
            l = int(g.integers(0, 4))
            y1, y2 = _noisy_slots(ch, l, 1, 2, 4, noise, g)
            h1, h2 = _sums(ch)
            D, _, _ = fast_metrics(y1, y2, h1, h2, 4)
            cost = ml_costs(y1, y2, h1, h2, 4)
            energy = abs(y1) ** 2 + abs(y2) ** 2
            for l0 in range(4):
                assert D[l0] + energy == pytest.approx(cost[l0].min(), rel=1e-9)

    @pytest.mark.parametrize("nt", [2, 4, 8])
    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_decisions_equal_ml_detector(self, nt, m):
        # 4 SNRs x 3000 frames per (nt, m): 108 000 frames over the grid.
        # Antenna 1 is dead (zero gain) in every other frame and is sent
        # in some of them, so both detectors meet the degenerate metric.
        frames, n = 3000, 8
        rng = substream(18, nt * 16 + m, "oracle")
        for snr_db in (-5.0, 0.0, 10.0, np.inf):
            z = rng.standard_normal((frames, channel_draw_size(n, nt)))
            complex_normals(z)
            G, f = channel_views(z, n, nt)
            G[::2, :, 1] = 0
            h1, h2 = sub_surface_sums(G, f)
            l, k1, k2 = rng.integers(0, [nt, m, m], size=(frames, 3)).T
            psk = psk_symbols(m)
            rows = np.arange(frames)
            y1, y2 = coded_slots(h1[rows, l], h2[rows, l], psk[k1], psk[k2])
            if np.isfinite(snr_db):
                w = rng.standard_normal((frames, 4)).view(complex)
                w *= np.sqrt(NoiseModel.from_snr_db(snr_db).n0 / 2)
                y1, y2 = y1 + w[:, 0], y2 + w[:, 1]
            fast = np.stack(detect_fast(y1, y2, h1, h2, m))
            ml = np.stack(detect_ml(y1, y2, h1, h2, m))
            assert np.array_equal(fast, ml)

    def test_zero_gain_degenerate_metric(self):
        ch = sample_channel(4, 2, substream(14, 0))
        ch.G[:, 1] = 0  # second antenna fully blocked
        y1, y2 = 1.0 + 0.5j, -0.25j
        h1, h2 = _sums(ch)
        assert abs(h1[1]) ** 2 + abs(h2[1]) ** 2 == 0.0
        r1, r2 = combine(y1, y2, h1[1], h2[1])
        D, _, _ = fast_metrics(y1, y2, h1, h2, 2)
        # combining through a dead antenna collapses to zero, and its ML
        # cost is |y1|^2 + |y2|^2 for every phase pair, so D = 0 exactly
        assert r1 == r2 == 0
        assert D[1] == 0.0
        lhat, k1, k2 = _detect(detect_fast, y1, y2, ch, 2)
        assert lhat in (0, 1) and k1 in (0, 1) and k2 in (0, 1)

    def test_spectral_efficiency_bookkeeping(self):
        # bits per two-slot frame: log2(nt) source + 2 log2(m) surface
        for nt, m in ((2, 2), (4, 8)):
            b_src, b_ris = _bits_per_trial("astbc-fast", nt, m)
            assert b_src + b_ris == np.log2(nt) + 2 * np.log2(m)
            assert (b_src + b_ris) / 2 == np.log2(m) + np.log2(nt) / 2  # per channel use

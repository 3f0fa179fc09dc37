import itertools

import numpy as np
import pytest

from ris_ssk.astbc_link import (
    AstbcFrame,
    code_matrix,
    combine,
    decode_ris_phases,
    detect_astbc_fast,
    detect_astbc_optimal,
    encode_ris_bits,
    fast_antenna_metrics,
    make_frame,
    optimal_costs,
    phase_index,
    psk_phases,
    sub_surface_channels,
    transmit_astbc,
)
from ris_ssk.channel import NoiseModel, StreamBank, sample_channel, substream


def _frame(l, k1, k2, m):
    alphas = psk_phases(m)
    return AstbcFrame(l, float(alphas[k1]), float(alphas[k2]), (), ())


class TestRisBitMapping:
    def test_bpsk_example(self):
        assert encode_ris_bits([0, 1], 2) == (0.0, np.pi)

    def test_qpsk_example_msb_first(self):
        a1, a2 = encode_ris_bits([1, 0, 0, 1], 4)
        assert a1 == pytest.approx(np.pi)
        assert a2 == pytest.approx(np.pi / 2)

    def test_round_trip_exhaustive(self):
        for m in (2, 4, 8):
            bps = int(np.log2(m))
            for bits in itertools.product((0, 1), repeat=2 * bps):
                a1, a2 = encode_ris_bits(bits, m)
                assert decode_ris_phases(a1, a2, m) == bits

    def test_length_and_value_errors(self):
        with pytest.raises(ValueError):
            encode_ris_bits([0, 1, 0], 4)
        with pytest.raises(ValueError):
            encode_ris_bits([0, 2], 2)
        with pytest.raises(ValueError):
            psk_phases(3)

    def test_phase_index_inverts_alphabet(self):
        for m in (2, 4, 8):
            for k, alpha in enumerate(psk_phases(m)):
                assert phase_index(float(alpha), m) == k


class TestTransmit:
    def test_noiseless_zero_phases(self):
        ch = sample_channel(8, 2, substream(1, 0))
        h1, h2 = sub_surface_channels(ch)
        y1, y2 = transmit_astbc(ch, _frame(1, 0, 0, 2), NoiseModel(0.0), substream(1, 1, "data"))
        assert y1 == pytest.approx(h1[0] + h2[0])
        assert y2 == pytest.approx(-h1[0] + h2[0])

    def test_code_matrix_orthogonality_full_alphabet(self):
        for a1 in psk_phases(8):
            for a2 in psk_phases(8):
                C = code_matrix(float(a1), float(a2))
                assert np.allclose(C.conj().T @ C, 2 * np.eye(2), atol=1e-12)

    def test_noiseless_energy_identity(self):
        ch = sample_channel(10, 2, substream(2, 0))
        h1, h2 = sub_surface_channels(ch)
        y1, y2 = transmit_astbc(ch, _frame(2, 1, 3, 4), NoiseModel(0.0), substream(2, 1, "data"))
        want = 2 * (abs(h1[1]) ** 2 + abs(h2[1]) ** 2)
        assert abs(y1) ** 2 + abs(y2) ** 2 == pytest.approx(want)

    def test_matrix_form_matches_slot_equations(self):
        ch = sample_channel(6, 2, substream(3, 0))
        h1, h2 = sub_surface_channels(ch)
        frame = _frame(1, 2, 5, 8)
        y1, y2 = transmit_astbc(ch, frame, NoiseModel(0.0), substream(3, 1, "data"))
        C = code_matrix(frame.alpha1, frame.alpha2)
        want = C @ np.array([h1[0], h2[0]])
        assert y1 == pytest.approx(want[0])
        assert y2 == pytest.approx(want[1])

    def test_antenna_index_range_checked(self):
        ch = sample_channel(4, 2, substream(4, 0))
        for l in (0, 3):
            with pytest.raises(IndexError):
                transmit_astbc(ch, _frame(l, 0, 0, 2), NoiseModel(0.0), substream(4, 1, "data"))

    def test_odd_element_count_rejected(self):
        ch = sample_channel(5, 2, substream(4, 0))
        with pytest.raises(ValueError):
            transmit_astbc(ch, _frame(1, 0, 0, 2), NoiseModel(0.0), substream(4, 1, "data"))

    def test_sub_surface_split(self):
        ch = sample_channel(8, 3, substream(5, 0))
        h1, h2 = sub_surface_channels(ch)
        for l in range(3):
            assert h1[l] == pytest.approx(np.sum(ch.f[:4] * ch.G[:4, l]))
            assert h2[l] == pytest.approx(np.sum(ch.f[4:] * ch.G[4:, l]))

    def test_make_frame_carries_bits(self):
        frame = make_frame([1], [0, 1], 2)
        assert frame.l == 2
        assert frame.bits_src == (1,)
        assert frame.bits_ris == (0, 1)
        assert frame.alpha2 == pytest.approx(np.pi)


class TestCombine:
    def test_noiseless_recovers_phases_and_magnitude(self):
        ch = sample_channel(12, 2, substream(6, 0))
        h1, h2 = sub_surface_channels(ch)
        gain = abs(h1[0]) ** 2 + abs(h2[0]) ** 2
        frame = _frame(1, 3, 6, 8)
        y1, y2 = transmit_astbc(ch, frame, NoiseModel(0.0), substream(6, 1, "data"))
        r1, r2 = combine(y1, y2, h1[0], h2[0])
        assert r1 == pytest.approx(gain * np.exp(1j * frame.alpha1))
        assert r2 == pytest.approx(gain * np.exp(1j * frame.alpha2))

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
        for l in range(1, 5):
            for k1 in range(4):
                for k2 in range(4):
                    frame = _frame(l, k1, k2, 4)
                    y1, y2 = transmit_astbc(ch, frame, NoiseModel(0.0), substream(8, 1, "data"))
                    got = detect_astbc_optimal(y1, y2, ch, 4)
                    assert got == (l, frame.alpha1, frame.alpha2)

    def test_true_hypothesis_cost_zero_noiseless(self):
        ch = sample_channel(8, 2, substream(9, 0))
        frame = _frame(2, 1, 0, 2)
        y1, y2 = transmit_astbc(ch, frame, NoiseModel(0.0), substream(9, 1, "data"))
        cost = optimal_costs(y1, y2, ch, 2)
        assert cost[1, 1, 0] == pytest.approx(0.0, abs=1e-20)
        assert cost.min() == pytest.approx(cost[1, 1, 0], abs=1e-20)

    def test_matches_reimplementation_oracle_on_noisy_trials(self):
        ch = sample_channel(8, 2, substream(10, 0))
        noise = NoiseModel.from_snr_db(-3.0)
        bank = StreamBank(10, "data")
        alphas = psk_phases(2)
        h1, h2 = sub_surface_channels(ch)
        for k in range(1000):
            g = bank.trial(k)
            l = int(g.integers(0, 2)) + 1
            k1, k2 = int(g.integers(0, 2)), int(g.integers(0, 2))
            y1, y2 = transmit_astbc(ch, _frame(l, k1, k2, 2), noise, g)
            # independent brute-force residual computation
            best, arg = np.inf, None
            for lh in range(1, 3):
                for a1 in alphas:
                    for a2 in alphas:
                        C = code_matrix(float(a1), float(a2))
                        res = np.array([y1, y2]) - C @ np.array([h1[lh - 1], h2[lh - 1]])
                        cost = float(np.sum(np.abs(res) ** 2))
                        if cost < best:
                            best, arg = cost, (lh, float(a1), float(a2))
            assert detect_astbc_optimal(y1, y2, ch, 2) == arg


class TestFastDetector:
    def test_noiseless_exact_recovery(self):
        ch = sample_channel(16, 4, substream(11, 0))
        for l in range(1, 5):
            frame = _frame(l, 3, 5, 8)
            y1, y2 = transmit_astbc(ch, frame, NoiseModel(0.0), substream(11, 1, "data"))
            got = detect_astbc_fast(y1, y2, ch, 8)
            assert got == (l, frame.alpha1, frame.alpha2)
            D, _, _ = fast_antenna_metrics(y1, y2, ch, 8)
            assert D[l - 1] == pytest.approx(0.0, abs=1e-18)

    def test_inner_decisions_match_exhaustive_search(self):
        noise = NoiseModel.from_snr_db(3.0)
        for trial in range(300):
            ch = sample_channel(8, 4, substream(12, trial))
            g = substream(12, trial, "data")
            l = int(g.integers(0, 4)) + 1
            k1, k2 = int(g.integers(0, 8)), int(g.integers(0, 8))
            y1, y2 = transmit_astbc(ch, _frame(l, k1, k2, 8), noise, g)
            _, i1, i2 = fast_antenna_metrics(y1, y2, ch, 8)
            cost = optimal_costs(y1, y2, ch, 8)
            for l0 in range(4):
                j1, j2 = np.unravel_index(np.argmin(cost[l0]), (8, 8))
                assert (i1[l0], i2[l0]) == (j1, j2)

    def test_fast_metric_is_gain_scaled_ml_cost(self):
        # D(l) = gain_l * min_{a1,a2} ||y - C h_l||^2, verified numerically
        noise = NoiseModel.from_snr_db(0.0)
        for trial in range(100):
            ch = sample_channel(8, 4, substream(13, trial))
            g = substream(13, trial, "data")
            l = int(g.integers(0, 4)) + 1
            y1, y2 = transmit_astbc(ch, _frame(l, 1, 2, 4), noise, g)
            D, _, _ = fast_antenna_metrics(y1, y2, ch, 4)
            cost = optimal_costs(y1, y2, ch, 4)
            h1, h2 = sub_surface_channels(ch)
            gains = np.abs(h1) ** 2 + np.abs(h2) ** 2
            for l0 in range(4):
                want = gains[l0] * cost[l0].min()
                assert D[l0] == pytest.approx(want, rel=1e-9)

    def test_zero_gain_degenerate_metric(self):
        ch = sample_channel(4, 2, substream(14, 0))
        ch.G[:, 1] = 0  # second antenna fully blocked
        y1, y2 = 1.0 + 0.5j, -0.25j
        h1, h2 = sub_surface_channels(ch)
        assert abs(h1[1]) ** 2 + abs(h2[1]) ** 2 == 0.0
        r1, r2 = combine(y1, y2, h1[1], h2[1])
        D, _, _ = fast_antenna_metrics(y1, y2, ch, 2)
        # combining through a dead antenna collapses to zero, so the
        # degenerate metric |r1|^2 + |r2|^2 is still well defined
        assert D[1] == pytest.approx(abs(r1) ** 2 + abs(r2) ** 2)
        lhat, a1, a2 = detect_astbc_fast(y1, y2, ch, 2)
        assert lhat in (1, 2) and a1 in (0.0, np.pi) and a2 in (0.0, np.pi)

    def test_spectral_efficiency_bookkeeping(self):
        # bits per two-slot frame: log2(nt) source + 2 log2(m) surface
        for nt, m in ((2, 2), (4, 8)):
            frame = make_frame(
                [0] * int(np.log2(nt)), [0] * (2 * int(np.log2(m))), m
            )
            bits = len(frame.bits_src) + len(frame.bits_ris)
            assert bits == np.log2(nt) + 2 * np.log2(m)
            assert bits / 2 == np.log2(m) + np.log2(nt) / 2  # per channel use

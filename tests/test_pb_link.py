import numpy as np
import pytest

from ris_ssk.analysis import q_exact
from ris_ssk.beamform import min_pairwise_distance
from ris_ssk.channel import (
    ChannelRealization,
    NoiseModel,
    StreamBank,
    cascaded_gains,
    complex_normals,
    sample_channel,
    substream,
)
from ris_ssk.pb_link import detect_pb_ml, label_bit_errors, transmit_pb


def _random_gains(seed, n, nt):
    """A channel, random unit-modulus coefficients and their gain vector (Nt,)."""
    rng = substream(seed, 0, "oracle")
    ch = sample_channel(n, nt, rng)
    phi = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    return ch, phi, cascaded_gains(ch.G, ch.f, phi)[0]


def _direct_links(rng, nt):
    """Nt direct links d as the traditional-ssk sweep draws them: 2·Nt
    normals scaled into complex pairs."""
    return complex_normals(rng.standard_normal(2 * nt))


class TestSskMapping:
    def test_two_antenna_examples(self):
        # antenna 0 carries bit 0, antenna 1 carries bit 1
        assert label_bit_errors(0, 0) == 0
        assert label_bit_errors(0, 1) == 1

    def test_round_trip_exhaustive(self):
        # every antenna index survives a noiseless pass through the link
        for nt in (2, 4, 8):
            _, _, gains = _random_gains(20, 8, nt)
            for l in range(nt):
                y = transmit_pb(gains, l, NoiseModel(0.0), substream(20, l, "data"))
                assert detect_pb_ml(y, gains) == l

    def test_rejects_bad_bits(self):
        # a symbol is an antenna index in 0..nt-1; anything else is rejected,
        # on the reflected link and on the direct links alike
        ch = sample_channel(4, 4, substream(21, 0))
        reflected = cascaded_gains(ch.G, ch.f, np.ones(4, complex))[0]
        for gains in (reflected, _direct_links(substream(21, 0), 4)):
            for l in (-1, 4):
                with pytest.raises(IndexError):
                    transmit_pb(gains, l, NoiseModel(0.0), substream(21, 1, "data"))
            # numpy would read a bool as a mask and return every gain
            for l in (True, np.True_):
                with pytest.raises(TypeError):
                    transmit_pb(gains, l, NoiseModel(0.0), substream(21, 1, "data"))

    def test_label_bit_errors_is_hamming_distance(self):
        assert label_bit_errors(0, 0) == 0
        assert label_bit_errors(0, 3) == 2  # 00 vs 11
        assert label_bit_errors(1, 3) == 1  # 01 vs 11

    def test_label_bit_errors_sums_over_arrays(self):
        sent = np.array([[0, 3, 5], [7, 0, 1]])
        detected = np.array([[0, 0, 6], [0, 7, 1]])
        assert label_bit_errors(sent, detected) == 0 + 2 + 2 + 3 + 3 + 0
        assert label_bit_errors(2**40, 0) == 1

    def test_label_bit_errors_rejects_negative_indices(self):
        # a uint64 cast would wrap -1 onto 64 set bits
        negative = [(-1, 0), (0, -1), (np.array([3]), np.array([-1])), (np.array([[-2, 1]]), np.zeros((1, 2), int))]
        for sent, detected in negative:
            with pytest.raises(ValueError):
                label_bit_errors(sent, detected)
        # the beamformed schemes count (b, 0) surface columns
        assert label_bit_errors(np.zeros((5, 0), int), np.zeros((5, 0), int)) == 0

    def test_label_bit_errors_rejects_indices_that_are_not_integers(self):
        # True, False counted 1 error; 1.5 has no binary label
        for sent, detected in [(True, False), (np.array([1, 0]), np.array([True, False])), (1.5, 1),
                               (np.zeros(3), np.zeros(3, int))]:
            with pytest.raises(TypeError):
                label_bit_errors(sent, detected)

    def test_label_bit_errors_rejects_unequal_shapes(self):
        # broadcast, (2,) against (2, 1) would count a 2x2 cross product
        for sent, detected in [(np.array([1, 2]), np.array([[1], [2]])), (np.zeros((5, 0), int), np.zeros(5, int)),
                               (np.array([1]), 1)]:
            with pytest.raises(ValueError, match="shapes differ"):
                label_bit_errors(sent, detected)


class TestTransmitPb:
    def test_noiseless_equals_gain(self):
        _, _, gains = _random_gains(1, 8, 2)
        y = transmit_pb(gains, 1, NoiseModel(0.0), substream(1, 2, "data"))
        assert y == gains[1]

    def test_reproducible_given_stream(self):
        _, _, gains = _random_gains(2, 8, 2)
        args = (gains, 0, NoiseModel(0.5))
        assert transmit_pb(*args, substream(2, 5, "data")) == transmit_pb(
            *args, substream(2, 5, "data")
        )

    def test_noise_variance_around_gain(self):
        _, _, gains = _random_gains(3, 4, 2)
        noise = NoiseModel(n0=0.25)
        bank = StreamBank(3, "data")
        dev = np.array(
            [transmit_pb(gains, 0, noise, bank.trial(k)) - gains[0] for k in range(100_000)]
        )
        assert np.mean(np.abs(dev) ** 2) == pytest.approx(0.25, rel=0.02)


class TestDetectPbMl:
    def test_noiseless_recovery(self):
        _, _, gains = _random_gains(4, 8, 4)
        for l in range(4):
            assert detect_pb_ml(gains[l], gains) == l
        # over a leading trial axis: every antenna of every trial at once
        table = np.stack([_random_gains(40 + t, 8, 4)[2] for t in range(5)])
        y = np.stack([table[:, l] for l in range(4)], axis=1)  # (5, 4) sent points
        got = detect_pb_ml(y, table[:, None, :])
        assert got.tolist() == [list(range(4))] * 5

    def test_equidistant_tie_goes_to_lower_index(self):
        # gains are +1 and -1; y = 0 is equidistant, in one trial or many
        assert detect_pb_ml(0j, np.array([1.0 + 0j, -1.0 + 0j])) == 0
        assert detect_pb_ml(np.zeros(3), np.array([[1, -1], [-1, 1], [0, 0]])).tolist() == [0, 0, 0]

    def test_matches_exhaustive_metric_oracle(self):
        _, _, gains = _random_gains(5, 6, 4)
        noise = NoiseModel.from_snr_db(0.0)
        bank = StreamBank(5, "data")
        ys, wants = [], []
        for k in range(1000):
            g = bank.trial(k)
            l = int(g.integers(0, 4))
            z = g.standard_normal(2)
            y = gains[l] + complex(z[0], z[1]) * np.sqrt(noise.n0 / 2)
            want = int(np.argmin([abs(y - gains[i]) ** 2 for i in range(4)]))
            assert detect_pb_ml(y, gains) == want
            ys.append(y)
            wants.append(want)
        assert detect_pb_ml(np.array(ys), gains).tolist() == wants

    def test_invariant_to_common_gain_offset(self):
        # an extra element with identical row in G shifts every candidate
        # gain by the same constant; decisions must not change
        ch, phi, _ = _random_gains(6, 5, 4)
        offset = 1.7 - 0.4j
        ch_shift = ChannelRealization(
            G=np.vstack([ch.G, np.ones((1, 4), complex)]),
            f=np.concatenate([ch.f, [offset]]),
        )
        gains = cascaded_gains(ch.G, ch.f, phi)[0]
        shifted = cascaded_gains(ch_shift.G, ch_shift.f, np.concatenate([phi, [1.0]]))[0]
        for k in range(200):
            g = substream(6, k, "data")
            y = complex(*g.standard_normal(2))
            assert detect_pb_ml(y, gains) == detect_pb_ml(y + offset, shifted)


class TestTraditionalSsk:
    """Direct-link SSK: the same transmit and detection with gains = d."""

    def test_noiseless_recovery_and_missing_direct(self):
        d = _direct_links(substream(7, 0), 4)
        for l in range(4):
            y = transmit_pb(d, l, NoiseModel(0.0), substream(7, 1, "data"))
            assert detect_pb_ml(y, d) == l
        bare = sample_channel(1, 4, substream(7, 0))
        assert bare.d is None
        with pytest.raises(ValueError):
            ChannelRealization(G=bare.G, f=bare.f, d=np.zeros(3, complex))

    def test_tie_goes_to_lower_index(self):
        # two antennas with identical direct links are equidistant from any y
        d = np.array([0.5 + 0j, 0.5 + 0j])
        y = transmit_pb(d, 1, NoiseModel(0.0), substream(8, 0, "data"))
        assert detect_pb_ml(y, d) == 0

    def test_high_snr_ber_below_1e3(self):
        noise = NoiseModel.from_snr_db(40.0)
        ch_bank = StreamBank(9, "channel")
        data_bank = StreamBank(9, "data")
        errs = 0
        trials = 100_000
        for k in range(trials):
            d = _direct_links(ch_bank.trial(k), 2)
            g = data_bank.trial(k)
            l = int(g.integers(0, 2))
            errs += detect_pb_ml(transmit_pb(d, l, noise, g), d) != l
        assert errs / trials < 1e-3


class TestPairwiseErrorConsistency:
    def test_conditional_pep_matches_q_formula(self):
        # fixed channel and phases, two antennas: empirical pairwise error
        # rate over noise draws must match Q(sqrt(rho * d^2 / 2))
        _, _, gains = _random_gains(10, 8, 2)
        d2 = abs(gains[0] - gains[1]) ** 2
        rho = 4.0 / d2  # operating point with comfortably measurable PEP
        noise = NoiseModel.from_rho(rho)
        want = q_exact(np.sqrt(rho * d2 / 2))
        trials = 40_000
        bank = StreamBank(10, "data")
        errs = 0
        for k in range(trials):
            y = transmit_pb(gains, 0, noise, bank.trial(k))
            errs += detect_pb_ml(y, gains) != 0
        sigma = np.sqrt(want * (1 - want) / trials)
        assert abs(errs / trials - want) <= 3 * sigma

    def test_union_bound_upper_bounds_symbol_errors(self):
        # per fixed channel realization, the pairwise-sum union bound must
        # sit above the simulated symbol error rate (3-sigma slack)
        for trial in range(3):
            rng = substream(11, trial, "oracle")
            ch = sample_channel(6, 4, rng)
            phi = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
            gains = cascaded_gains(ch.G, ch.f, phi)[0]
            dmin = min_pairwise_distance(ch, phi)
            rho = 2.0 / dmin
            noise = NoiseModel.from_rho(rho)
            bound = 0.0
            for a in range(4):
                for b in range(a + 1, 4):
                    bound += q_exact(np.sqrt(rho * abs(gains[a] - gains[b]) ** 2 / 2))
            bound *= 2.0 / 4.0
            trials = 20_000
            bank = StreamBank(1100 + trial, "data")
            errs = 0
            for k in range(trials):
                g = bank.trial(k)
                l = int(g.integers(0, 4))
                y = transmit_pb(gains, l, noise, g)
                errs += detect_pb_ml(y, gains) != l
            p = errs / trials
            assert p <= min(bound, 1.0) + 3 * np.sqrt(max(p, 1e-6) * (1 - p) / trials)

import math

import numpy as np
import pytest

from ris_ssk.channel import (
    ChannelRealization,
    NoiseModel,
    StreamBank,
    cascaded_gains,
    channel_draw_size,
    channel_views,
    complex_normals,
    raw_indices,
    sample_awgn,
    sample_channel,
    substream,
)


class TestStreams:
    def test_same_key_bit_identical(self):
        a = substream(7, 123, "channel").standard_normal(16)
        b = substream(7, 123, "channel").standard_normal(16)
        assert np.array_equal(a, b)

    def test_distinct_trials_and_purposes_differ(self):
        base = substream(7, 123, "channel").standard_normal(8)
        assert not np.array_equal(base, substream(7, 124, "channel").standard_normal(8))
        assert not np.array_equal(base, substream(7, 123, "data").standard_normal(8))
        assert not np.array_equal(base, substream(8, 123, "channel").standard_normal(8))

    def test_stream_bank_matches_substream(self):
        bank = StreamBank(42, "data")
        for trial in (0, 1, 17, 99999, 2**40):
            want = substream(42, trial, "data").standard_normal(9)
            got = bank.trial(trial).standard_normal(9)
            assert np.array_equal(want, got)

    @pytest.mark.parametrize("purpose", ["weird-tag", "Channel", "", 0, 2])
    def test_unknown_purpose_raises(self, purpose):
        with pytest.raises(ValueError, match="purpose"):
            substream(1, 0, purpose)
        with pytest.raises(ValueError, match="purpose"):
            StreamBank(1, purpose)

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            substream(-1, 0)
        with pytest.raises(ValueError):
            substream(2**64 + 5, 0)
        with pytest.raises(ValueError):
            StreamBank(2**64, "channel")
        with pytest.raises(ValueError):
            substream(0, 1 << 48)
        with pytest.raises(ValueError):
            StreamBank(0, "channel").trial(-1)
        # Non-integral seeds and trials raise instead of truncating onto an
        # integer's stream; numpy integers are still indices.
        with pytest.raises(TypeError):
            substream(1.5, 0)
        with pytest.raises(TypeError):
            substream(1, 2.0)
        with pytest.raises(TypeError):
            StreamBank(2.5, "data")
        with pytest.raises(TypeError):
            StreamBank(1, "data").trial(2.7)
        # nor does a bool stand for 0 or 1
        with pytest.raises(TypeError):
            substream(True, 0)
        with pytest.raises(TypeError):
            substream(1, False)
        with pytest.raises(TypeError):
            StreamBank(True, "data")
        with pytest.raises(TypeError):
            StreamBank(1, "data").trial(True)
        want = substream(1, 2, "data").standard_normal(4)
        assert np.array_equal(substream(np.uint64(1), np.int64(2), "data").standard_normal(4), want)
        assert np.array_equal(StreamBank(np.int32(1), "data").trial(np.int64(2)).standard_normal(4), want)


class TestRawIndices:
    """The stream contract of the sweeps' index draws: ``raw_indices`` on a
    stream's raw words equals ``Generator.integers`` on the same stream, and
    leaves the stream where ``integers`` leaves it.  Fails if numpy ever
    changes its bounded-integer path, before any CSV can drift."""

    KEYS = 10_000

    def _bounds(self, k):
        return 2 ** (1 + k % 6), 2 ** (1 + (k // 6) % 5)  # Nt in 2..64, M in 2..32

    def test_array_bounds_equal_integers(self):
        for k in range(self.KEYS):
            nt, m = self._bounds(k)
            a, b = substream(11, k, "data"), substream(11, k, "data")
            want = a.integers(0, [nt, m, m])
            got = raw_indices(b.bit_generator.random_raw(2), (nt, m, m))
            assert got.dtype == want.dtype and np.array_equal(got, want), (k, nt, m)
            assert np.array_equal(b.standard_normal(4), a.standard_normal(4)), k

    def test_scalar_bound_equals_integers(self):
        for k in range(self.KEYS):
            nt, _ = self._bounds(k)
            a, b = substream(12, k, "data"), substream(12, k, "data")
            want = a.integers(0, nt)
            assert raw_indices(b.bit_generator.random_raw(), nt) == want, (k, nt)
            assert np.array_equal(b.standard_normal(4), a.standard_normal(4)), k

    def test_rejects_bounds_that_are_not_powers_of_two(self):
        words = np.zeros(2, dtype=np.uint64)
        for bad in (3, 6, 12, 1, 0, -4, 2**33):
            with pytest.raises(ValueError):
                raw_indices(words, (2, bad, 2))
            with pytest.raises(ValueError):
                raw_indices(0, bad)
        with pytest.raises(TypeError):
            raw_indices(0, 4.0)

    def test_rejects_a_word_count_integers_would_not_draw(self):
        with pytest.raises(ValueError):
            raw_indices(np.zeros(1, dtype=np.uint64), (2, 2, 2))
        with pytest.raises(ValueError):
            raw_indices(np.zeros(3, dtype=np.uint64), (2, 2, 2))


class TestSampleChannel:
    def test_shapes(self):
        ch = sample_channel(4, 2, substream(0, 0))
        assert ch.G.shape == (4, 2)
        assert ch.f.shape == (4,)
        assert ch.d is None
        assert (ch.n, ch.nt) == (4, 2)

    def test_rejects_zero_dimensions(self):
        with pytest.raises(ValueError):
            sample_channel(0, 2, substream(0, 0))
        with pytest.raises(ValueError):
            sample_channel(4, 0, substream(0, 0))

    def test_determinism_same_stream_key(self):
        a = sample_channel(5, 3, substream(3, 77))
        b = sample_channel(5, 3, substream(3, 77))
        assert np.array_equal(a.G, b.G)
        assert np.array_equal(a.f, b.f)

    def test_entry_moments_over_many_draws(self):
        # 1e5 independent single-entry draws through the per-trial keying
        bank = StreamBank(11, "channel")
        g11 = np.empty(100_000, dtype=complex)
        for k in range(g11.size):
            g11[k] = sample_channel(1, 1, bank.trial(k)).G[0, 0]
        assert 0.99 <= np.mean(np.abs(g11) ** 2) <= 1.01
        assert abs(g11.mean()) < 0.01
        # real/imaginary split convention: half the variance in each part
        assert abs(np.var(g11.real) - 0.5) < 0.01

    def test_large_matrix_entries_unit_variance(self):
        ch = sample_channel(200, 100, substream(5, 0))
        assert abs(np.mean(np.abs(ch.G) ** 2) - 1.0) < 0.02
        assert abs(np.mean(ch.G)) < 0.02

    def test_split_draws_over_leading_axes_match_sample_channel(self):
        bank = StreamBank(14, "channel")
        size = channel_draw_size(6, 4)
        z = np.stack([bank.trial(k).standard_normal(size) for k in range(5)])
        # scaled in place: the complex division by sqrt(2), bit for bit
        want = z.view(complex) / np.sqrt(2.0)
        zc = complex_normals(z)
        assert np.array_equal(zc, want) and np.shares_memory(zc, z)
        G, f = channel_views(z, 6, 4)
        assert G.shape == (5, 6, 4) and f.shape == (5, 6)
        rows = np.empty((5, size))
        for k in range(5):
            ch = sample_channel(6, 4, bank.trial(k))
            # drawn into a caller's row: bit-identical, and views of it
            into = sample_channel(6, 4, bank.trial(k), out=rows[k])
            for c in (ch, into):
                assert np.array_equal(G[k], c.G) and np.array_equal(f[k], c.f)
            for a in (into.G, into.f):
                assert np.shares_memory(a, rows[k])
        with pytest.raises(ValueError):
            channel_views(np.zeros((2, 10)), 6, 4)

    @pytest.mark.parametrize(
        "out",
        [np.empty(63), np.empty(65), np.empty((1, 64)), np.empty(64, np.float32), np.empty(32, complex), np.empty(128)[::2],
         np.empty(64, np.int64)],
        ids=["short", "long", "2-D", "float32", "complex", "strided", "int64"],
    )
    def test_rejects_an_out_row_it_cannot_fill(self, out):
        # 8x3 takes 64 normals; nothing is drawn before the row is rejected
        rng = substream(4, 0)
        with pytest.raises(ValueError):
            sample_channel(8, 3, rng, out=out)
        assert rng.standard_normal() == substream(4, 0).standard_normal()

    def test_shape_invariants_enforced(self):
        with pytest.raises(ValueError):
            ChannelRealization(G=np.zeros((3, 2), complex), f=np.zeros(4, complex))
        with pytest.raises(ValueError):
            ChannelRealization(
                G=np.zeros((3, 2), complex),
                f=np.zeros(3, complex),
                d=np.zeros(3, complex),
            )
        with pytest.raises(ValueError):
            ChannelRealization(G=np.zeros(3, complex), f=np.zeros(3, complex))
        with pytest.raises(ValueError):
            ChannelRealization(G=np.zeros((5, 3, 2), complex), f=np.zeros((4, 3), complex))

    def test_leading_trial_axes(self):
        ch = ChannelRealization(
            G=np.zeros((5, 3, 2), complex), f=np.zeros((5, 3), complex), d=np.zeros((5, 2), complex)
        )
        assert (ch.n, ch.nt) == (3, 2)
        with pytest.raises(ValueError):
            ChannelRealization(G=ch.G, f=ch.f, d=np.zeros((4, 2), complex))


class TestNoise:
    def test_noiseless_mode_returns_zero(self):
        rng = substream(0, 0, "data")
        w = sample_awgn(NoiseModel(n0=0.0), rng)
        assert w == 0j and type(w) is complex
        assert rng.standard_normal() == substream(0, 0, "data").standard_normal()  # nothing drawn

    @pytest.mark.parametrize("n0", [1.0, 0.3, 1e-12, 4.0])
    def test_one_scaled_normal_pair(self, n0):
        # the stream contract: one sample reads the values standard_normal(2) would
        for trial in range(5):
            re, im = substream(23, trial, "data").standard_normal(2)
            scale = math.sqrt(n0 / 2.0)
            w = sample_awgn(NoiseModel(n0=n0), substream(23, trial, "data"))
            assert type(w) is complex and w == complex(re * scale, im * scale)

    def test_unit_variance(self):
        rng = substream(21, 0, "data")
        noise = NoiseModel(n0=1.0)
        w = np.array([sample_awgn(noise, rng) for _ in range(100_000)])
        assert 0.99 <= np.var(w) <= 1.01

    def test_real_part_variance_splits_evenly(self):
        rng = substream(22, 0, "data")
        noise = NoiseModel(n0=4.0)
        w = np.array([sample_awgn(noise, rng) for _ in range(50_000)])
        assert abs(np.var(w.real) - 2.0) < 0.1

    def test_snr_conversions(self):
        nm = NoiseModel.from_snr_db(10.0)
        assert nm.n0 == pytest.approx(0.1)
        assert nm.rho == pytest.approx(10.0)
        assert nm.rho * nm.n0 == pytest.approx(1.0)
        assert NoiseModel(n0=0.0).rho == np.inf
        with pytest.raises(ValueError):
            NoiseModel(n0=-1.0)
        with pytest.raises(ValueError):
            NoiseModel(n0=float("nan"))
        with pytest.raises(ValueError):
            NoiseModel.from_snr_db(float("nan"))
        with pytest.raises(ValueError):
            NoiseModel(n0=float("inf"))
        with pytest.raises(ValueError):
            NoiseModel.from_snr_db(float("-inf"))
        # 10^310 overflows Python's float power; the error names the SNR
        with pytest.raises(ValueError, match="-3100 dB"):
            NoiseModel.from_snr_db(-3100)
        assert NoiseModel.from_snr_db(-3000).n0 == 1e300
        with pytest.raises(ValueError):
            NoiseModel.from_rho(0.0)


def _gain(ch, phi, l):
    return complex(cascaded_gains(ch.G, ch.f, phi)[0, l])


class TestEffectiveGain:
    """cascaded_gains: the cascade sum_i f_i g_il c_i of every antenna."""

    def test_identity_reflection_sums_column(self):
        ch = sample_channel(6, 2, substream(9, 0))
        got = _gain(ch, np.ones(6, complex), 0)
        assert got == pytest.approx(np.sum(ch.f * ch.G[:, 0]))

    def test_phase_cancellation(self):
        ch = ChannelRealization(G=np.array([[1j]]), f=np.array([1.0 + 0j]))
        got = _gain(ch, np.exp(1j * np.array([-np.pi / 2])), 0)
        assert got == pytest.approx(1.0)

    def test_matches_direct_summation_oracle(self):
        rng = substream(10, 0)
        ch = sample_channel(8, 3, rng)
        theta = rng.uniform(0, 2 * np.pi, 8)
        phi = np.exp(1j * theta)
        for l in (0, 1, 2):
            oracle = sum(ch.f[i] * ch.G[i, l] * np.exp(1j * theta[i]) for i in range(8))
            got = _gain(ch, phi, l)
            assert abs(got - oracle) <= 1e-12 * abs(oracle)

    def test_linear_in_f_and_column(self):
        rng = substream(12, 0)
        ch1 = sample_channel(8, 2, rng)
        ch2 = sample_channel(8, 2, rng)
        phi = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
        # superposition on f with shared G
        mixed = ChannelRealization(G=ch1.G, f=ch1.f + 2.0 * ch2.f)
        want = _gain(ch1, phi, 0) + 2.0 * _gain(ChannelRealization(G=ch1.G, f=ch2.f), phi, 0)
        assert _gain(mixed, phi, 0) == pytest.approx(want)
        # superposition on the active column with shared f
        mixed_g = ChannelRealization(G=ch1.G + 3.0 * ch2.G, f=ch1.f)
        want_g = _gain(ch1, phi, 1) + 3.0 * _gain(ChannelRealization(G=ch2.G, f=ch1.f), phi, 1)
        assert _gain(mixed_g, phi, 1) == pytest.approx(want_g)

    def test_index_and_shape_errors(self):
        # the element count must match; an antenna index is checked where a
        # symbol is sent (pb_link.transmit_pb)
        ch = sample_channel(4, 2, substream(0, 1))
        with pytest.raises(ValueError):
            cascaded_gains(ch.G, ch.f, np.ones(5, complex))
        assert cascaded_gains(ch.G, ch.f, np.ones(4, complex)).shape == (1, 2)

    def test_all_gains_consistent(self):
        # rows of coefficients and a leading trial axis agree with one call each
        chs = [sample_channel(5, 4, substream(13, t)) for t in range(3)]
        phi = np.exp(1j * substream(13, 9).uniform(0, 2 * np.pi, (3, 2, 5)))
        G, f = np.stack([c.G for c in chs]), np.stack([c.f for c in chs])
        gains = cascaded_gains(G, f, phi)
        assert gains.shape == (3, 2, 4)
        for t, ch in enumerate(chs):
            rows = cascaded_gains(ch.G, ch.f, phi[t])
            for k in range(2):
                for l in range(4):
                    assert gains[t, k, l] == pytest.approx(_gain(ch, phi[t, k], l))
                    assert rows[k, l] == pytest.approx(_gain(ch, phi[t, k], l))
